import copy
import pickle
import random
from pathlib import Path

import pytest

from _gen import make_extra, naive_validate, rand_document, subtype_item_violations
from cudfkit._record import fields, replace
from cudfkit.textio import parse_cudf
from cudfkit.model import (
    CORE_PACKAGE_SCHEMATA,
    CORE_PROBLEM_SCHEMATA,
    KEEP_ENUM,
    CudfDocument,
    NameCollision,
    PackageItem,
    PropertySchema,
    RawValue,
    RequestItem,
    SchemaRegistry,
    validate_document,
)
from cudfkit.types import (
    EMPTY_LIST,
    TRUE,
    EnumValue,
    VersionConstraint,
    VPkg,
    VpkgList,
    parse_value,
)


def test_core_package_schema_table():
    table = {
        name: (s.value_type, s.optionality, s.default if s.has_default else None)
        for name, s in CORE_PACKAGE_SCHEMATA.items()
    }
    assert table == {
        "Package": ("pkgname", "required", None),
        "Version": ("posint", "required", None),
        "Depends": ("vpkgformula", "optional", TRUE),
        "Conflicts": ("vpkglist", "optional", EMPTY_LIST),
        "Provides": ("veqpkglist", "optional", EMPTY_LIST),
        "Installed": ("bool", "optional", False),
        "Keep": (KEEP_ENUM, "optional", None),
    }
    assert not CORE_PACKAGE_SCHEMATA["Keep"].has_default


def test_core_problem_schema_table():
    for name in ("Install", "Remove", "Upgrade"):
        schema = CORE_PROBLEM_SCHEMATA[name]
        assert schema.value_type == "vpkglist"
        assert schema.default == EMPTY_LIST


def test_schema_invariants():
    with pytest.raises(ValueError):
        PropertySchema("Size", "posint", "package", "required", 1)
    with pytest.raises(ValueError):
        PropertySchema("Size", "posint", "package", "optional", 0)


@pytest.mark.parametrize("value_type, item_kind, optionality", [
    ("bogus", "package", "optional"), ("enum(1a, bb)", "package", "optional"),
    ("int", "stanza", "optional"), ("int", "package", "sometimes"),
])
@pytest.mark.parametrize("default", [(), (0,)])
def test_schema_rejects_what_the_reader_cannot_honour(value_type, item_kind, optionality,
                                                      default):
    with pytest.raises(ValueError, match="^unknown "):
        PropertySchema("Foo", value_type, item_kind, optionality, *default)


def test_registry_refuses_problem_extras():
    # A request item has no extras, so a registered one would be read and lost.
    with pytest.raises(ValueError, match="only package items carry extra properties"):
        SchemaRegistry([PropertySchema("Note", "oneliner", "problem", "optional")])


def test_registry_collisions():
    reg = SchemaRegistry()
    reg.register(PropertySchema("Size", "posint", "package", "optional"))
    with pytest.raises(NameCollision):
        reg.register(PropertySchema("Size", "posint", "package", "optional"))
    with pytest.raises(NameCollision):
        reg.register(PropertySchema("Depends", "posint", "package", "optional"))
    for kind in ("package", "problem"):
        # the problem postmark, and names no CUDF line can carry
        for name in ("Problem", "9bad", "", "a b"):
            with pytest.raises(NameCollision):
                reg.register(PropertySchema(name, "int", kind, "optional", 0))
    assert reg.get("package", "Size").value_type == "posint"
    assert reg.get("problem", "Size") is None
    assert [s.name for s in reg.package_extras()] == ["Size"]


def test_document_lookup_and_removal():
    doc = CudfDocument(packages=(
        PackageItem("aa", 1), PackageItem("aa", 2), PackageItem("bb", 1),
    ))
    assert doc.domain() == {("aa", 1), ("aa", 2), ("bb", 1)}


def test_validate_reports_duplicates_and_type_errors():
    doc = CudfDocument(packages=(
        PackageItem("aa", 1), PackageItem("aa", 1),
    ))
    kinds = [v.kind for v in validate_document(doc)]
    assert kinds == ["DuplicateKey"]

    bad = CudfDocument(packages=(
        PackageItem("aa", 1, provides=VpkgList((
            VPkg("bb", VersionConstraint(">=", 2)),
        ))),
    ))
    assert [v.kind for v in validate_document(bad)] == ["TypeError"]


def test_validate_judges_a_kept_provides_list_by_its_text():
    kept = parse_value("vpkglist", "aa >= 1")
    doc = CudfDocument(packages=(PackageItem("bb", 1, provides=kept),))
    assert [v.detail for v in validate_document(doc)] == [
        "Provides value outside veqpkglist"]
    with pytest.raises(AttributeError):
        VpkgList.__dict__["items"].__get__(kept)  # its atoms are not built


def test_validate_refuses_an_extra_named_problem():
    # A "Problem: " line would open a problem stanza when read back.
    doc = CudfDocument(packages=(
        PackageItem("aa", 1, extra=make_extra({"Problem": RawValue("x")})),))
    assert [v.detail for v in validate_document(doc)] == [
        "'Problem' cannot name an extra property"]


def test_validate_rejects_a_name_with_a_trailing_newline():
    doc = CudfDocument(packages=(PackageItem("aa\n", 1),))
    assert [v.kind for v in validate_document(doc)] == ["TypeError"]


def test_validate_checks_registered_extras():
    reg = SchemaRegistry([PropertySchema("Size", "posint", "package", "optional")])
    good = CudfDocument(packages=(
        PackageItem("aa", 1, extra=make_extra({"Size": 3})),
    ))
    assert validate_document(good, reg) == []
    bad = CudfDocument(packages=(
        PackageItem("aa", 1, extra=make_extra({"Size": 0})),
    ))
    assert [v.kind for v in validate_document(bad, reg)] == ["TypeError"]
    # unregistered raw extras are carried, never judged
    raw = CudfDocument(packages=(
        PackageItem("aa", 1, extra=make_extra({"Whatever": RawValue("??")})),
    ))
    assert validate_document(raw, reg) == []
    # raw text under a registered name would read back typed, or dropped
    for text in ("x", "3"):
        raw = CudfDocument(packages=(
            PackageItem("aa", 1, extra=make_extra({"Size": RawValue(text)})),
        ))
        assert [v.detail for v in validate_document(raw, reg)] == [
            "Size value outside posint"]
        assert validate_document(raw) == []


def _read_package(text, registry=None):
    """The one package item of a stanza's text, read with an empty problem."""
    report = parse_cudf(f"{text}\n\nProblem: pb\n".encode(), registry)
    assert report.recovered_errors == []
    (item,) = report.document.packages
    return item


def test_apply_package_defaults():
    item = _read_package("Package: aa\nVersion: 3")
    assert item == PackageItem("aa", 3)
    assert item.depends is TRUE and item.installed is False and item.keep is None

    keep = EnumValue(("version", "package", "feature"), "version")
    item = _read_package("Package: aa\nVersion: 3\nInstalled: true\nKeep: version\nNote: hi")
    assert item.installed is True
    assert item.keep == keep
    assert item.extra_value("Note") == RawValue("hi")


def test_registered_extra_default_is_filled():
    reg = SchemaRegistry(
        [PropertySchema("Cost", "int", "package", "optional", 0)]
    )
    item = _read_package("Package: aa\nVersion: 1", reg)
    assert item.extra_value("Cost") == 0
    item = _read_package("Package: aa\nVersion: 1\nCost: 5", reg)
    assert item.extra_value("Cost") == 5


def test_stanza_records_are_slotted():
    for record in (PackageItem("aa", 1), RawValue("x"), RequestItem("pb")):
        assert not hasattr(record, "__dict__"), type(record)


def test_every_package_item_stores_its_key():
    parsed = parse_cudf((Path(__file__).parent / "golden" / "kitchen.cudf").read_bytes())
    built = PackageItem("aa", 2, installed=True)
    items = [*parsed.document.packages, built, built.with_installed(False),
             replace(built, name="bb"), replace(built, version=3),
             pickle.loads(pickle.dumps(built)), copy.copy(built), copy.deepcopy(built)]
    assert len(items) > 8
    for item in items:
        assert item.key == (item.name, item.version)
    assert [item.key for item in items[-7:]] == [
        ("aa", 2), ("aa", 2), ("bb", 2), ("aa", 3), ("aa", 2), ("aa", 2), ("aa", 2)]
    assert "key" not in fields(built)  # equality, hashing and repr ignore it
    assert "key" not in repr(built)


def test_with_installed_returns_the_stanza_itself_when_its_flag_stays():
    for item in (PackageItem("aa", 1), PackageItem("aa", 1, installed=True)):
        assert item.with_installed(item.installed) is item
        flipped = item.with_installed(not item.installed)
        assert flipped == replace(item, installed=not item.installed)
        assert flipped.key == item.key


def test_request_defaults():
    req = RequestItem(problem_id="pb")
    assert req.install == EMPTY_LIST
    assert req.remove == EMPTY_LIST
    assert req.upgrade == EMPTY_LIST


@pytest.mark.parametrize("symbols", [
    ("version",),
    ("feature", "package", "version"),
    ("version", "package", "feature", "other"),
])
def test_keep_symbols_must_be_the_core_three(symbols):
    item = PackageItem("aa", 1, installed=True, keep=EnumValue(symbols, "version"))
    violations = validate_document(CudfDocument(packages=(item,)))
    assert [v.detail for v in violations] == [f"Keep value outside {KEEP_ENUM}"]


def test_item_type_checks_match_subtype_oracle():
    reg = SchemaRegistry([
        PropertySchema("Size", "posint", "package", "optional"),
        PropertySchema("Note", "oneliner", "package", "optional"),
        PropertySchema("Alt", "veqpkglist", "package", "optional"),
    ])
    rng = random.Random(5031)
    items = [p for _ in range(300) for p in rand_document(rng).packages]
    keep = EnumValue(("version", "package", "feature"), "package")
    other_keep = EnumValue(("version", "package", "feature", "other"), "other")
    ge = VpkgList((VPkg("aa", VersionConstraint(">=", 2)),))
    base = PackageItem("aa", 1)
    wrong = [
        {"version": True}, {"version": False}, {"version": 0}, {"version": -3},
        {"version": "1"}, {"version": 1.0}, {"name": "AA"}, {"name": "a"},
        {"name": 7}, {"depends": "bb"}, {"depends": EMPTY_LIST},
        {"conflicts": "bb"}, {"conflicts": TRUE}, {"provides": "bb = 1"},
        {"provides": ge}, {"provides": TRUE}, {"installed": 1},
        {"installed": "true"}, {"keep": "version"}, {"keep": other_keep},
        {"keep": keep}, {"keep": EnumValue(("version",), "version")},
        {"keep": EnumValue(("feature", "package", "version"), "package")},
        {"extra": make_extra({"Note": TRUE, "Size": 1.5, "Alt": "a\nb"})},
        {"extra": make_extra({"Size": 0, "Note": "a\rb", "Alt": ge})},
        {"extra": make_extra({"Size": True, "Note": 5, "Alt": EMPTY_LIST})},
        {"extra": make_extra({"Size": 12, "Other": RawValue("x"), "Note": "ok"})},
        {"extra": make_extra({"Size": RawValue("x"), "Note": RawValue("ok")})},
        {"version": 0, "depends": "x", "keep": "feature", "installed": None},
    ]
    items += [replace(base, **change) for change in wrong]
    for registry in (None, reg):
        for item in items:
            assert (validate_document(CudfDocument(packages=(item,)), registry)
                    == subtype_item_violations(item, registry)), item


# -- validate_document against the naive validator -----------------------------

def _with_extra(item, *pairs):
    return replace(item, extra=item.extra + pairs)


def _bad_name_twice(rng, packages):
    for i in rng.sample(range(len(packages)), min(2, len(packages))):
        packages[i] = replace(packages[i], name="AA")


def _bad_extra_name_twice(rng, packages):
    for _ in range(2):
        i = rng.randrange(len(packages))
        packages[i] = _with_extra(packages[i], ("1bad", RawValue("x")),
                                  ("Depends", RawValue("y")))


def _raw_carriage_return(rng, packages):
    i = rng.randrange(len(packages))
    packages[i] = _with_extra(packages[i], ("Note", RawValue("a\rb")))


def _no_one_line_form(rng, packages):
    i = rng.randrange(len(packages))
    packages[i] = _with_extra(packages[i], ("Size", TRUE), ("Alt", "a\nb"))


def _raw_under_registered_name(rng, packages):
    i = rng.randrange(len(packages))
    packages[i] = _with_extra(packages[i], ("Size", RawValue("3")), ("Alt", RawValue("a\rb")))


def _duplicate_key(rng, packages):
    packages.append(rng.choice(packages))


def _non_bool_installed(rng, packages):
    i = rng.randrange(len(packages))
    packages[i] = replace(packages[i], installed=1)


def _foreign_keep_symbols(rng, packages):
    i = rng.randrange(len(packages))
    packages[i] = replace(packages[i], keep=EnumValue(("version",), "version"))


# One Provides value per text, shared by the stanzas that carry it, as
# the reader builds them.
_BAD_PROVIDES = VpkgList((VPkg("feat-x", VersionConstraint(">=", 2)),))
_GOOD_PROVIDES = VpkgList((VPkg("feat-y", VersionConstraint("=", 1)), VPkg("feat-z")))


def _shared_provides(rng, packages):
    """The bad value in two stanzas, then the good one in two more."""
    chosen = rng.sample(range(len(packages)), min(4, len(packages)))
    for n, i in enumerate(chosen):
        packages[i] = replace(packages[i], provides=_BAD_PROVIDES if n < 2 else _GOOD_PROVIDES)


FAULTS = (_bad_name_twice, _bad_extra_name_twice, _raw_carriage_return, _no_one_line_form,
          _raw_under_registered_name, _duplicate_key, _non_bool_installed,
          _foreign_keep_symbols, _shared_provides)


def test_validate_matches_naive_validator_on_injected_faults():
    reg = SchemaRegistry([
        PropertySchema("Size", "posint", "package", "optional"),
        PropertySchema("Alt", "veqpkglist", "package", "optional"),
    ])
    rng = random.Random(6113)
    seen = set()
    for _ in range(400):
        doc = rand_document(rng)
        packages = list(doc.packages)
        for fault in rng.sample(FAULTS, rng.randint(0, len(FAULTS))):
            fault(rng, packages)
        doc = replace(doc, packages=tuple(packages))
        for registry in (None, reg):
            violations = validate_document(doc, registry)
            assert violations == naive_validate(doc, registry)
            # Every occurrence of a bad name is reported, not only the first.
            assert (sum(v.detail == "Package value outside pkgname" for v in violations)
                    == sum(p.name == "AA" for p in packages))
            assert (sum(v.detail == "'1bad' cannot name an extra property"
                        for v in violations)
                    == sum(prop == "1bad" for p in packages for prop, _ in p.extra))
            assert (sum(v.detail == "Provides value outside veqpkglist" for v in violations)
                    == sum(p.provides is _BAD_PROVIDES for p in packages))
            seen.update(v.kind for v in violations)
    assert seen == {"DuplicateKey", "TypeError", "PropertyName"}

