import email.parser
import gc
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _gen import (
    OracleFatal, make_extra, oracle_parse_cudf, oracle_serialize_cudf, rand_document,
    split_oracle,
)
from cudfkit import textio
from cudfkit._record import FrozenInstanceError, fields, replace
from cudfkit.model import (
    KEEP_SYMBOLS,
    CudfDocument,
    PackageItem,
    PropertySchema,
    RawValue,
    RequestItem,
    SchemaRegistry,
    validate_document,
)
from cudfkit.types import (
    EMPTY_LIST, TOP, TRUE, EnumValue, VersionConstraint, VPkg, VpkgFormula, VpkgList,
)

GOLDEN = sorted(Path(__file__).parent.glob("golden/*.cudf"))


def parse(text, **kw):
    return textio.parse_cudf(text.encode("utf-8"), **kw)


# -- basic parsing ------------------------------------------------------------

def test_parse_minimal():
    report = parse("Package: solo\nVersion: 1\n\nProblem: noop\n")
    assert report.recovered_errors == []
    doc = report.document
    assert [p.key for p in doc.packages] == [("solo", 1)]
    assert doc.packages[0].depends is TRUE
    assert doc.packages[0].installed is False
    assert doc.request.problem_id == "noop"


def test_parse_full_stanza():
    report = parse(
        "Package: libfoo\n"
        "Version: 3\n"
        "Depends: libc >= 2, libbar = 1 | libbaz\n"
        "Conflicts: oldfoo\n"
        "Provides: foo-api = 3\n"
        "Installed: true\n"
        "Keep: feature\n"
        "\n"
        "Problem: up\n"
        "Upgrade: libfoo\n"
    )
    assert report.recovered_errors == []
    item = report.document.packages[0]
    assert item.depends == VpkgFormula((
        (VPkg("libc", VersionConstraint(">=", 2)),),
        (VPkg("libbar", VersionConstraint("=", 1)), VPkg("libbaz")),
    ))
    assert item.keep.chosen == "feature"
    assert report.document.request.upgrade == VpkgList((VPkg("libfoo"),))


def test_crlf_and_blank_line_variants():
    report = parse(
        "Package: aa\r\nVersion: 1\r\n\r\n \t\nProblem: pb\r\n"
    )
    assert report.recovered_errors == []
    assert report.document.packages[0].key == ("aa", 1)
    assert report.document.request.problem_id == "pb"


def test_unknown_package_property_is_kept_raw():
    report = parse("Package: aa\nVersion: 1\nWeird-Field: ? !\n\nProblem: pb\n")
    assert report.recovered_errors == []
    assert report.document.packages[0].extra_value("Weird-Field") == RawValue("? !")


def test_registered_extra_property_is_typed():
    reg = SchemaRegistry(
        [PropertySchema("Installed-Size", "posint", "package", "optional")]
    )
    report = parse(
        "Package: aa\nVersion: 1\nInstalled-Size: 120\n\nProblem: pb\n",
        registry=reg,
    )
    assert report.document.packages[0].extra_value("Installed-Size") == 120


def test_registered_required_extra_is_enforced():
    reg = SchemaRegistry([PropertySchema("Size", "posint", "package", "required")])
    report = parse("Package: aa\nVersion: 1\nSize: 3\n\n"
                   "Package: bb\nVersion: 1\n\nProblem: pb\n", registry=reg)
    assert [p.key for p in report.document.packages] == [("aa", 1)]
    assert [(e.stanza_index, e.reason) for e in report.recovered_errors] == [
        (1, "missing required property 'Size'")]
    # What the reader drops, validation reports, so it is never written.
    doc = CudfDocument((PackageItem("aa", 1, extra=make_extra({"Size": 3})),
                        PackageItem("bb", 1)))
    assert [(v.kind, v.detail, v.package) for v in validate_document(doc, reg)] == [
        ("MissingProperty", "missing required property 'Size'", "bb")]
    assert validate_document(doc) == []


# -- stanza-level recovery ----------------------------------------------------

def test_bad_stanza_is_dropped_and_recorded():
    text = (
        "Package: aa\nVersion: 1\n\n"
        "Package: bb\nVersion: zero\n\n"
        "Package: cc\nVersion: 3\n\n"
        "Problem: pb\n"
    )
    report = parse(text)
    assert [p.name for p in report.document.packages] == ["aa", "cc"]
    assert len(report.recovered_errors) == 1
    err = report.recovered_errors[0]
    assert err.stanza_index == 1
    lo, hi = err.byte_range
    assert text.encode()[lo:hi].startswith(b"Package: bb")


def test_recovery_reasons():
    cases = {
        "Package: aa\nVersion: 1\nVersion: 2\n": "duplicate",
        "Package: aa\nVersion: 1\nno separator here\n": "separator",
        "Package: aa\nVersion: 1\nDepends: |\n": "Depends",
        "Package: aa\n": "missing required",
        "Package: aa\nVersion: 1\n1bad: x\n": "invalid property name",
    }
    for stanza, fragment in cases.items():
        report = parse(stanza + "\nProblem: pb\n")
        assert report.document.packages == ()
        assert len(report.recovered_errors) == 1
        assert fragment in report.recovered_errors[0].reason


def test_preamble_junk_is_recovered():
    report = parse("junk before any stanza\n\nPackage: aa\nVersion: 1\n\nProblem: pb\n")
    assert [e.stanza_index for e in report.recovered_errors] == [-1]
    assert len(report.document.packages) == 1


def test_unknown_problem_property_drops_the_stanza():
    with pytest.raises(textio.FatalNoProblemStanza):
        parse("Problem: pb\nFrobnicate: yes\n")


def test_problem_stanza_count_is_fatal():
    with pytest.raises(textio.FatalNoProblemStanza):
        parse("Package: aa\nVersion: 1\n")
    with pytest.raises(textio.FatalMultipleProblemStanzas):
        parse("Problem: one\n\nProblem: two\n")


def test_bad_encoding_is_fatal():
    with pytest.raises(textio.FatalEncoding):
        textio.parse_cudf(b"Package: a\xff\n\nProblem: pb\n")


# -- serialization ------------------------------------------------------------

def test_canonical_serialization_omits_defaults():
    report = parse(
        "Package: aa\nVersion: 1\nInstalled: false\nConflicts: \n\nProblem: pb\n"
    )
    out = textio.serialize_cudf(report.document)
    assert out == b"Package: aa\nVersion: 1\n\nProblem: pb\n"


def test_serialize_rejects_invalid_documents():
    doc = CudfDocument(packages=(PackageItem("aa", 1), PackageItem("aa", 1)))
    with pytest.raises(textio.InvalidDocument):
        textio.serialize_cudf(doc)


def test_serialize_rejects_a_name_with_a_trailing_newline():
    doc = CudfDocument(packages=(PackageItem("aa\n", 1),))
    with pytest.raises(textio.InvalidDocument):
        textio.serialize_cudf(doc)


def test_roundtrip_random_documents():
    rng = random.Random(4021)
    for _ in range(100):
        doc = rand_document(rng)
        data = textio.serialize_cudf(doc)
        report = textio.parse_cudf(data)
        assert report.recovered_errors == []
        assert report.document == doc
        assert textio.serialize_cudf(report.document) == data


@pytest.mark.parametrize("extra, problem_id", [
    ({"9bad": RawValue("x")}, "pb"),
    ({"Depends": RawValue("bb")}, "pb"),
    ({"Package": RawValue("bb")}, "pb"),
    ({"Problem": RawValue("pb")}, "pb"),
    ({"Note": RawValue("two\nlines")}, "pb"),
    ({"Note": RawValue("cr\r")}, "pb"),
    ({"Note": "two\nlines"}, "pb"),
    ({"Note": "cr\r"}, "pb"),
    ({"Note": TRUE}, "pb"),
    ({"Note": 1.5}, "pb"),
    ({}, "two\nlines"),
    ({}, "cr\r"),
])
def test_validation_rejects_what_would_not_read_back(extra, problem_id):
    doc = CudfDocument(packages=(PackageItem("aa", 1, extra=make_extra(extra)),),
                       request=RequestItem(problem_id))
    assert len(validate_document(doc)) == 1
    with pytest.raises(textio.InvalidDocument):
        textio.serialize_cudf(doc)


# Property names, valid ones and those a CUDF line would read back as
# something else; arbitrary texts, and texts that end in a line break.
EXTRA_NAMES = st.one_of(
    st.from_regex(r"[a-zA-Z][a-zA-Z0-9-]{0,5}", fullmatch=True),
    st.sampled_from(["Depends", "Package", "Problem", "9bad"]),
    st.text(max_size=6),
)
RAW_TEXTS = st.one_of(
    st.text(max_size=8),
    st.tuples(st.text(max_size=4), st.sampled_from("\r\n")).map("".join),
)

# Typed extras under names longer than any EXTRA_NAMES draw, each with the
# schema that reads it back; the values include texts with line breaks,
# the True formula (no lexical form) and enum values of other symbols.
TYPED_EXTRAS = {
    "Typed-count": ("int", st.integers()),
    "Typed-flag": ("bool", st.booleans()),
    "Typed-note": ("string", RAW_TEXTS),
    "Typed-tier": ("enum(low, high)", st.builds(
        EnumValue, st.sampled_from([("low", "high"), ("low",), ("high", "low")]),
        st.just("low"))),
    "Typed-alts": ("vpkgformula", st.sampled_from(
        [TRUE, VpkgFormula(((VPkg("aa"), VPkg("bb", VersionConstraint(">", 2))),))])),
}
TYPED_SCHEMATA = tuple(PropertySchema(name, value_type, "package", "optional")
                       for name, (value_type, _) in TYPED_EXTRAS.items())
TYPED_REGISTRY = SchemaRegistry(TYPED_SCHEMATA)
# The same with a required extra, which a stanza may lack or hold outside
# its type.
REQUIRED_REGISTRY = SchemaRegistry(
    TYPED_SCHEMATA + (PropertySchema("Typed-size", "posint", "package", "required"),))


@settings(max_examples=600, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32), data=st.data(), problem_id=st.text(max_size=8))
def test_whatever_validates_round_trips(seed, data, problem_id):
    doc = rand_document(random.Random(seed))
    packages = list(doc.packages)
    for _ in range(data.draw(st.integers(0, 2))):
        i = data.draw(st.integers(0, len(packages) - 1))
        extra = dict(packages[i].extra)
        name = data.draw(st.one_of(EXTRA_NAMES, st.sampled_from(sorted(TYPED_EXTRAS))))
        extra[name] = RawValue(data.draw(RAW_TEXTS))
        packages[i] = replace(packages[i], extra=make_extra(extra))
    for _ in range(data.draw(st.integers(0, 2))):
        i = data.draw(st.integers(0, len(packages) - 1))
        extra = dict(packages[i].extra)
        name = data.draw(st.sampled_from(sorted(TYPED_EXTRAS)))
        extra[name] = data.draw(TYPED_EXTRAS[name][1])
        packages[i] = replace(packages[i], extra=make_extra(extra))
    registry = TYPED_REGISTRY
    if data.draw(st.booleans()):
        registry = REQUIRED_REGISTRY
        lacking = data.draw(st.sets(st.integers(0, len(packages) - 1), max_size=1))
        for i, item in enumerate(packages):
            if i not in lacking:
                extra = dict(item.extra, **{"Typed-size": data.draw(st.integers(0, 3))})
                packages[i] = replace(item, extra=make_extra(extra))
    doc = CudfDocument(tuple(packages), replace(doc.request, problem_id=problem_id))
    if validate_document(doc, registry):
        return
    written = textio.serialize_cudf(doc)
    report = textio.parse_cudf(written, registry=registry)
    assert report.recovered_errors == []
    assert report.document == doc
    assert textio.serialize_cudf(report.document) == written


def test_golden_files_parse_and_fmt_idempotent():
    assert GOLDEN, "golden corpus missing"
    for path in GOLDEN:
        data = path.read_bytes()
        report = textio.parse_cudf(data)
        assert report.recovered_errors == [], path.name
        once = textio.serialize_cudf(report.document)
        assert once == oracle_serialize_cudf(report.document), path.name
        again = textio.serialize_cudf(textio.parse_cudf(once).document)
        assert once == again, path.name


def test_writer_matches_oracle_writer_on_random_documents():
    """Each document as built, with default-equal values built by the
    constructors, and as read back, with kept text and parsed defaults."""
    rng = random.Random(2111)
    for _ in range(1000):
        doc = rand_document(rng, max_names=rng.randint(1, 6))
        data = textio.serialize_cudf(doc)
        assert data == oracle_serialize_cudf(doc)
        parsed = textio.parse_cudf(data).document
        assert textio.serialize_cudf(parsed) == oracle_serialize_cudf(parsed) == data


def test_writer_matches_oracle_writer_on_constructor_built_values():
    keep = [EnumValue(KEEP_SYMBOLS, symbol) for symbol in KEEP_SYMBOLS]
    eq1 = VPkg("ff", VersionConstraint("=", 1))
    extra = make_extra({
        "Note": RawValue("raw: text"), "Word": "typed text", "Size": 3, "Flag": False,
        "Tier": EnumValue(("low", "high"), "high"), "Atom": eq1, "None": VpkgList(()),
        "Alts": VpkgFormula(((VPkg("aa"), eq1),)),
    })
    doc = CudfDocument(
        packages=(
            PackageItem("aa", 1, TRUE, EMPTY_LIST, EMPTY_LIST, False),
            PackageItem("aa", 2, VpkgFormula(()), VpkgList(()), VpkgList(()), True),
            *(PackageItem("bb", v, installed=True, keep=k) for v, k in enumerate(keep, 1)),
            PackageItem("cc", 1, VpkgFormula(((VPkg("aa"), VPkg("bb")), (eq1,))),
                        VpkgList((VPkg("bb", VersionConstraint("<", 2)),)),
                        VpkgList((eq1, VPkg("gg"))), extra=extra),
        ),
        request=RequestItem("pb", VpkgList(()), EMPTY_LIST, VpkgList((VPkg("cc"),))),
    )
    data = textio.serialize_cudf(doc)
    assert data == oracle_serialize_cudf(doc)
    assert data.decode() == (
        "Package: aa\nVersion: 1\n\n"
        "Package: aa\nVersion: 2\nInstalled: true\n\n"
        "Package: bb\nVersion: 1\nInstalled: true\nKeep: version\n\n"
        "Package: bb\nVersion: 2\nInstalled: true\nKeep: package\n\n"
        "Package: bb\nVersion: 3\nInstalled: true\nKeep: feature\n\n"
        "Package: cc\nVersion: 1\nDepends: aa | bb, ff = 1\nConflicts: bb < 2\n"
        "Provides: ff = 1, gg\nAlts: aa | ff = 1\nAtom: ff = 1\nFlag: false\n"
        "None: \nNote: raw: text\nSize: 3\nTier: high\nWord: typed text\n\n"
        "Problem: pb\nUpgrade: cc\n")


# -- splitter against the line-at-a-time oracle --------------------------------

def mutate_document_text(rng, text):
    """CUDF text with non-ASCII extra properties, CRLF line ends, junk and
    whitespace-only lines, and sometimes no final newline."""
    out = []
    if rng.random() < 0.5:
        out.append(rng.choice(["junk before any stanza", "Descr: ünïcødé ✓", " x"]))
    for line in text.split("\n"):
        out.append(line)
        if line.startswith("Package: ") and rng.random() < 0.5:
            out.append(rng.choice(["Descr: naïve ✓", "Note: 日本語", "X-Emoji: 🙂 ok"]))
        if line == "" and rng.random() < 0.2:
            out.append(rng.choice(["stray line between stanzas", "ß: junk"]))
        if line == "" and rng.random() < 0.2:
            out.append(rng.choice([" \t", "\t", "  "]))
    ends = ["\n", "\r\n"] if rng.random() < 0.5 else ["\n"]
    data = "".join(line + rng.choice(ends) for line in out)
    if rng.random() < 0.3:
        data = data.rstrip("\r\n")
    return data.encode("utf-8")


def walked_stanzas(data):
    """(stanza line ranges, junk errors, lines) of one reader walk over
    CUDF bytes: the (first line, closing line) bounds the walk kept, and
    the lines as it reads them, a carriage return stripped from each."""
    reader = textio._Reader()
    _, _, junk, _ = reader.read(data)
    lines = [line.removesuffix("\r") for line in data.decode("utf-8").split("\n")]
    return reader.bounds, junk, lines


def read_stanzas(data):
    """(stanzas, junk errors) of one reader walk over CUDF bytes, the
    stanzas in split_oracle's form: (kind, index, first line, byte range,
    property lines, problem id).  A stanza's bytes run from its first
    line to where its closing line starts, or to the end of the data."""
    bounds, junk, all_lines = walked_stanzas(data)
    before = [0]  # bytes before each line
    for raw in data.split(b"\n"):
        before.append(before[-1] + len(raw) + 1)
    stanzas = []
    for index, (first, end) in enumerate(bounds):
        lines = all_lines[first - 1:end - 1]
        kind, _, problem_id = lines[0].partition(": ")
        if kind == "Problem":
            lines = lines[1:]
        else:
            problem_id = ""
        byte_range = (before[first - 1], min(before[end - 1], len(data)))
        stanzas.append((kind.lower(), index, first, byte_range, lines, problem_id))
    return stanzas, junk


def test_splitter_matches_line_oracle():
    rng = random.Random(4051)
    for _ in range(300):
        data = mutate_document_text(rng, textio.serialize_cudf(rand_document(rng)).decode())
        stanzas, errors = read_stanzas(data)
        expected_stanzas, expected_junk = split_oracle(data)
        assert stanzas == expected_stanzas
        assert [(e.line, e.byte_range) for e in errors] == expected_junk
        assert all(e.stanza_index == -1 for e in errors)


# -- records built through their slots against the constructors -----------------

def _parsed_records(doc):
    """Every PackageItem, VpkgFormula, VpkgList, VPkg and VersionConstraint
    that a parse built for the document."""
    records = []
    for item in doc.packages:
        records += [item, item.depends]
        atoms = [atom for clause in item.depends.clauses for atom in clause]
        for lst in (item.conflicts, item.provides):
            records.append(lst)
            atoms += lst.items
        for atom in atoms:
            records += [atom, atom.constraint]
    for lst in (doc.request.install, doc.request.remove, doc.request.upgrade):
        records.append(lst)
        for atom in lst.items:
            records += [atom, atom.constraint]
    return records


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.booleans())
def test_parsed_records_equal_their_constructor_copies(seed, mutated):
    rng = random.Random(seed)
    text = textio.serialize_cudf(rand_document(rng)).decode()
    data = mutate_document_text(rng, text) if mutated else text.encode()
    doc = textio.parse_cudf(data).document
    for record in _parsed_records(doc):
        copy = replace(record)  # through __init__ and __post_init__
        assert record == copy and hash(record) == hash(copy)
        assert repr(record) == repr(copy)
        with pytest.raises(FrozenInstanceError):
            setattr(record, fields(record)[0], None)
    for item in doc.packages:
        for flag in (True, False):
            flipped = item.with_installed(flag)
            assert flipped == replace(item, installed=flag)
            assert repr(flipped) == repr(replace(item, installed=flag))
            assert flipped.installed is flag
        with pytest.raises(FrozenInstanceError):
            item.with_installed(True).installed = False


# -- the whole reader against the oracle reader ---------------------------------

ORACLE_SCHEMATA = (
    ("package", "Cost", "int", 0),
    ("package", "Size", "posint", None),
    ("package", "Note", "oneliner", None),
    ("package", "Alt", "veqpkglist", None),
    ("package", "Tier", "enum(low, high)", None),
)  # only package extras can be registered, so "Urgency: 3" drops a problem stanza
BAD_VALUES = ("zero", "0", "-1", "+2", "9" * 4400, "aa >= ", "| bb", "AA", "aa = 0",
              "aa >= 1 |", "", "  ", "true", "maybe", "feat-x > 2", "aa,,bb",
              "aa\r", "aa\tbb", "high", " low ", "é")
EXTRA_LINES = ("Cost: 5", "Cost: -7", "Cost: x", "Size: 12", "Size: 0", "Note: ünï ✓",
               "Alt: feat-x = 2, feat-y", "Alt: feat-x >= 2", "Tier: high",
               "Tier: mid", "X-Raw: ? !", "1bad: x", "bad_name: x", "Empty:",
               "Version", ": x", "Urgency: 3")


def mutate_stanza_lines(rng, text):
    """CUDF text with stanza-level faults: bad values and names, lost,
    doubled or split lines, extra properties, and lost or doubled
    problem stanzas."""
    out = []
    for line in text.split("\n"):
        roll = rng.random()
        if roll < 0.06 and ": " in line:
            line = line.split(": ", 1)[0] + ": " + rng.choice(BAD_VALUES)
        elif roll < 0.08:
            continue
        elif roll < 0.10:
            out.append(line)
        elif roll < 0.12 and line:
            out.append("")  # a blank line inside a stanza
        out.append(line)
        if line.startswith(("Package: ", "Problem: ")) and rng.random() < 0.5:
            out.extend(rng.sample(EXTRA_LINES, rng.randint(1, 2)))
    if rng.random() < 0.05:
        out = [line for line in out if not line.startswith("Problem: ")]
    elif rng.random() < 0.05:
        out += ["", "Problem: second"]
    return "\n".join(out)


def oracle_fatal_kind(exc):
    return {textio.FatalEncoding: "encoding",
            textio.FatalNoProblemStanza: "no problem",
            textio.FatalMultipleProblemStanzas: "multiple problems"}[type(exc)]


def test_reader_matches_oracle_reader():
    registry = SchemaRegistry([PropertySchema(name, value_type, kind, "optional", default)
                               if default is not None else
                               PropertySchema(name, value_type, kind, "optional")
                               for kind, name, value_type, default in ORACLE_SCHEMATA])
    extras = {(kind, name): (value_type, default)
              for kind, name, value_type, default in ORACLE_SCHEMATA}
    rng = random.Random(5077)
    seen_errors = seen_fatal = 0
    for i in range(1200):
        text = mutate_stanza_lines(rng, textio.serialize_cudf(rand_document(rng)).decode())
        data = mutate_document_text(rng, text)
        if i % 50 == 0:
            data = data.replace(b"Version", b"Versi\xff", 1)
        for reg, extra_spec in ((None, None), (registry, extras)):
            try:
                expected = oracle_parse_cudf(data, extra_spec)
            except OracleFatal as exc:
                with pytest.raises(textio.FatalParseError) as info:
                    textio.parse_cudf(data, registry=reg)
                assert oracle_fatal_kind(info.value) == exc.kind
                seen_fatal += 1
                continue
            report = textio.parse_cudf(data, registry=reg)
            doc, errors = expected
            assert report.document == doc
            assert [(e.stanza_index, e.line, e.byte_range)
                    for e in report.recovered_errors] == [e[:3] for e in errors]
            assert all(e.reason for e in report.recovered_errors)
            seen_errors += len(errors)
    assert seen_errors > 1000 and seen_fatal > 100


# -- what a parse leaves behind ----------------------------------------------------

@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("call, data, error", [
    (textio.parse_cudf, b"Package: aa\nVersion: 1\n\nProblem: pb\n", None),
    (textio.parse_cudf, b"Package: aa\nVersion: 1\n", textio.FatalParseError),
    (textio.parse_cudf, b"Problem: \xff\n", textio.FatalParseError),
    (textio.parse_solution, b"Package: aa\nVersion: 1\nInstalled: true\n", None),
    (textio.parse_solution, b"Package: aa\nInstalled: true\n", textio.MalformedSolution),
])
def test_parse_restores_the_collector_state(enabled, call, data, error):
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        if error is None:
            call(data)
        else:
            with pytest.raises(error):
                call(data)
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()


def value_objects(doc):
    """Every non-scalar value of a document, by identity."""
    out = {}
    for item in doc.packages:
        values = [item.depends, item.conflicts, item.provides, item.keep]
        values += [value for _, value in item.extra]
        atoms = [atom for clause in item.depends.clauses for atom in clause]
        atoms += list(item.conflicts.items) + list(item.provides.items)
        values += atoms + [atom.constraint for atom in atoms]
        for value in values:
            if value is not None and value not in (TRUE, VpkgList(), TOP):
                out[id(value)] = value
    return out


def test_two_parses_share_no_values():
    reg = SchemaRegistry([PropertySchema("Tier", "enum(low, high)", "package", "optional")])
    data = textio.serialize_cudf(rand_document(random.Random(5))).replace(
        b"\n\n", b"\nTier: low\nX-Raw: same\n\n", 3)
    first = textio.parse_cudf(data, registry=reg).document
    second = textio.parse_cudf(data, registry=reg).document
    assert first == second
    ids = value_objects(first)
    assert len(ids) > 10
    assert not ids.keys() & value_objects(second).keys()


def atoms_built(value):
    """Whether the atoms of a VpkgFormula or VpkgList are built: read
    through the slot's descriptor, which does not build them."""
    slot = type(value).__dict__["clauses" if isinstance(value, VpkgFormula) else "items"]
    try:
        slot.__get__(value)
    except AttributeError:
        return False
    return True


def test_check_fmt_and_an_over_budget_solve_build_no_atoms():
    """A parse keeps Depends, Conflicts, Provides and request values as
    canonical text, and validation, serialization, costing and a solve
    stopped by its budget read none of the package text, nor
    serialization the request's."""
    from cudfkit import solver

    doc = rand_document(random.Random(5), max_names=10, max_versions=5)
    a, b, c = sorted({p.name for p in doc.packages})[:3]
    doc = replace(doc, request=RequestItem(
        "pb", VpkgList((VPkg(a),)), VpkgList((VPkg(b, VersionConstraint(">", 1)),)),
        VpkgList((VPkg(a), VPkg(c)))))
    text = textio.serialize_cudf(doc).decode()
    # Some formulas without the spaces around "|": kept as canonical text too.
    data = text.replace(" | ", "|", 3).encode()
    assert data.count(b"|") - data.count(b" | ") == 3
    assert textio.parse_cudf(data).document == doc  # comparing builds the atoms
    parsed = textio.parse_cudf(data).document
    values = [v for p in parsed.packages for v in (p.depends, p.conflicts, p.provides)
              if v is not TRUE and v is not EMPTY_LIST]
    assert any(p.provides is not EMPTY_LIST for p in parsed.packages)
    parsed_at_once = {id(v) for v in values if atoms_built(v)}
    assert not parsed_at_once and len(values) > 30
    assert validate_document(parsed) == []
    assert textio.serialize_cudf(parsed).decode() == text
    # min-new reads the request's atoms, so serialization is judged first.
    request = parsed.request
    assert not any(atoms_built(v) for v in (request.install, request.remove, request.upgrade))
    costs = solver.preset_costs(parsed, parsed.request, "min-new")
    assert solver.solve(parsed, parsed.request, costs, budget=1).status == "budget_exceeded"
    assert {id(v) for v in values if atoms_built(v)} == parsed_at_once


def test_overlong_numbers_and_crlf_keep_their_lines_and_byte_ranges():
    huge = "1" * 5000
    data = ("junk\r\n\r\n"
            "Package: aa\r\nVersion: 1\r\nDescr: café\r\n\r\n"
            f"Package: bb\r\nVersion: {huge}\r\n\r\n"
            "Package: cc\r\nVersion: 1\r\n"
            f"Package: dd\r\nVersion: 1\r\nDepends: aa >= {huge}\r\n \t\r\n"
            "Problem: pb\r\n").encode("utf-8")
    report = textio.parse_cudf(data)
    assert [p.name for p in report.document.packages] == ["aa", "cc"]
    junk, bb, dd = report.recovered_errors
    assert (junk.stanza_index, junk.line, junk.byte_range) == (-1, 1, (0, 6))
    assert (bb.stanza_index, bb.line) == (1, 7)
    assert data[slice(*bb.byte_range)] == f"Package: bb\r\nVersion: {huge}\r\n".encode()
    assert (dd.stanza_index, dd.line) == (3, 12)
    assert data[slice(*dd.byte_range)] == (
        f"Package: dd\r\nVersion: 1\r\nDepends: aa >= {huge}\r\n".encode())
    assert "too many digits" in bb.reason and "too many digits" in dd.reason


def test_a_dropped_stanza_reports_its_first_error():
    report = parse("Package: aa\nVersion: x\nVersion: 1\nbad\n\n"
                   "Package: bb\nVersion: 1\nKeep: no\nFoo bar\n\nProblem: pb\n")
    assert [e.reason for e in report.recovered_errors] == [
        "Version: not an integer: 'x'",
        "Keep: 'no' not in ('version', 'package', 'feature')",
    ]


def test_only_spaces_and_tabs_make_a_blank_line():
    # A form feed, vertical tab or no-break space is content: the line has
    # no separator, so it drops its stanza instead of closing it.
    for space in ("\f", "\v", "\xa0", " \t\f"):
        report = parse(f"Package: aa\nVersion: 1\n{space}\nInstalled: true\n\n"
                       "Problem: pb\n")
        assert report.document.packages == ()
        (dropped,) = report.recovered_errors
        assert dropped.reason == f"missing ': ' separator in {space!r}"


def test_a_carriage_return_is_stripped_at_the_end_of_the_data_too():
    report = parse("Package: aa\r\nVersion: 1\r\n\r\nProblem: pb\r")
    assert report.document.request.problem_id == "pb"
    assert textio.parse_solution(b"Package: aa\r\nVersion: 1\r") == [(("aa", 1), True)]


def test_only_a_postmark_with_its_space_opens_a_stanza():
    report = parse("Package: aa\nVersion: 1\nPackage:bb\n\nPackage:\nProblem:pb\n\n"
                   "Problem: pb\n")
    assert report.document.packages == ()
    assert [(e.stanza_index, e.line, e.reason) for e in report.recovered_errors] == [
        (-1, 5, "content outside any stanza"),
        (-1, 6, "content outside any stanza"),
        (0, 1, "missing ': ' separator in 'Package:bb'"),
    ]


# -- solution files -----------------------------------------------------------

def test_solution_roundtrip_and_apply():
    report = parse(
        "Package: aa\nVersion: 1\nInstalled: true\n\n"
        "Package: aa\nVersion: 2\n\n"
        "Package: bb\nVersion: 1\n\n"
        "Problem: pb\n"
    )
    doc = report.document
    solved = textio.apply_solution(
        doc, [(("aa", 2), True), (("bb", 1), True)]
    )
    assert {p.key for p in solved.packages if p.installed} == {("aa", 2), ("bb", 1)}
    data = textio.serialize_solution(solved)
    entries = textio.parse_solution(data)
    assert textio.apply_solution(doc, entries) == solved
    with pytest.raises(textio.MalformedSolution, match="not in the problem domain"):
        textio.apply_solution(doc, [(("zz", 9), True)])


@pytest.mark.parametrize("flags", [("true", "false"), ("false", "true")])
def test_solution_repeating_a_key_is_malformed(flags):
    # whichever flag came last would otherwise win
    data = "".join(f"Package: postfix\nVersion: 2\nInstalled: {flag}\n\n"
                   for flag in flags)
    with pytest.raises(textio.MalformedSolution, match="^stanza 1: repeated postfix 2$"):
        textio.parse_solution(data.encode())


def test_solution_junk_line_is_malformed_even_after_a_malformed_stanza():
    for data in (b"Package: aa\nVersion: 1\n\njunk\n",
                 b"Package: aa\nVersion: x\n\nProblem: pb\n\njunk\n"):
        with pytest.raises(textio.MalformedSolution, match="^content outside any stanza$"):
            textio.parse_solution(data)


def test_solution_problem_stanza_is_malformed():
    with pytest.raises(textio.MalformedSolution,
                       match="^solution files contain package stanzas only$"):
        textio.parse_solution(b"Package: aa\nVersion: 1\n\nProblem: pb\n")


@pytest.mark.parametrize("stanzas, message", [
    (["Problem: pb", "Package: aa\nVersion: x"], "solution files contain package stanzas only"),
    (["Package: aa\nVersion: x", "Problem: pb"], "stanza 0: Version: not an integer: 'x'"),
    (["Package: aa\nVersion: 1", "Package: aa\nVersion: 1", "Package: bb"],
     "stanza 1: repeated aa 1"),
    (["Package: aa\nVersion: 1", "Package: bb", "Package: aa\nVersion: 1"],
     "stanza 1: missing required property 'Version'"),
])
def test_solution_reports_its_first_bad_stanza(stanzas, message):
    with pytest.raises(textio.MalformedSolution) as malformed:
        textio.parse_solution("\n\n".join(stanzas).encode())
    assert str(malformed.value) == message


def test_solution_stanza_without_installed_reads_as_installed():
    data = b"Package: aa\nVersion: 1\n\nPackage: bb\nVersion: 2\nInstalled: false\n"
    assert textio.parse_solution(data) == [(("aa", 1), True), (("bb", 2), False)]


def test_solution_not_utf8_is_malformed_with_the_encoding_message():
    data = b"Package: postfix\xff\nVersion: 2\n"
    with pytest.raises(textio.FatalEncoding) as fatal:
        textio.parse_cudf(data)
    with pytest.raises(textio.MalformedSolution) as malformed:
        textio.parse_solution(data)
    assert str(malformed.value) == str(fatal.value)


def test_apply_solution_shares_unchanged_stanzas():
    doc = parse(
        "Package: aa\nVersion: 1\nInstalled: true\n\n"
        "Package: aa\nVersion: 2\n\n"
        "Package: bb\nVersion: 1\n\n"
        "Problem: pb\n"
    ).document
    after = textio.apply_solution(doc, [(("aa", 1), True), (("bb", 1), True)])
    assert [p.installed for p in after.packages] == [True, False, True]
    assert after.packages[0] is doc.packages[0]
    assert after.packages[1] is doc.packages[1]
    assert after.packages[2] is not doc.packages[2]


# -- agreement with a header-block message splitter ---------------------------

def rfc822_blocks(data):
    """Split with the stdlib mail tooling: blank-line separated header blocks."""
    text = data.decode("utf-8")
    blocks = [b for b in re.split(r"\n(?:[ \t]*\n)+", text) if b.strip(" \t\n")]
    out = []
    for block in blocks:
        msg = email.parser.Parser().parsestr(block, headersonly=True)
        out.append([(k, str(v).strip()) for k, v in msg.items()])
    return out


def native_blocks(data):
    """The "name: value" pairs of each stanza, at the bounds one reader
    walk kept."""
    bounds, junk, lines = walked_stanzas(data)
    assert junk == []
    out = []
    for first, end in bounds:
        pairs = []
        for line in lines[first - 1:end - 1]:
            name, _, value = line.partition(":")
            pairs.append((name, value.strip()))
        out.append(pairs)
    return out


def test_splitter_agreement_on_random_documents():
    rng = random.Random(77)
    for _ in range(25):
        data = textio.serialize_cudf(rand_document(rng))
        assert rfc822_blocks(data) == native_blocks(data)
