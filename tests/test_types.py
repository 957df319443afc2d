import pickle
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from _gen import (
    FEATURES,
    NAMES,
    ScanReject,
    oracle_parse_value,
    rand_formula,
    rand_list,
    scan_parse_value,
)
from cudfkit._record import FrozenInstanceError, fields, replace
from cudfkit.types import (
    EMPTY_LIST,
    RELOPS,
    TOP,
    TRUE,
    EnumValue,
    LexicalError,
    SerializeError,
    UnknownType,
    VersionConstraint,
    VPkg,
    VpkgFormula,
    VpkgList,
    _enum_symbols,
    is_subtype_value,
    is_type_tag,
    parse_value,
    serialize_value,
)

KEEP = "enum(version, package, feature)"


# -- frozen parse examples ---------------------------------------------------

def test_parse_scalars():
    assert parse_value("bool", "true") is True
    assert parse_value("bool", "false") is False
    assert parse_value("int", "-12") == -12
    assert parse_value("nat", "0") == 0
    assert parse_value("posint", "7") == 7
    assert parse_value("string", "any text at all") == "any text at all"
    assert parse_value("oneliner", "one line") == "one line"
    assert parse_value("pkgname", "gcc-4.2") == "gcc-4.2"
    assert parse_value(KEEP, "package") == EnumValue(
        ("version", "package", "feature"), "package"
    )


def test_parse_scalar_rejections():
    with pytest.raises(LexicalError):
        parse_value("bool", "yes")
    with pytest.raises(LexicalError):
        parse_value("nat", "-1")
    with pytest.raises(LexicalError):
        parse_value("posint", "0")
    with pytest.raises(LexicalError):
        parse_value("oneliner", "two\nlines")
    with pytest.raises(LexicalError):
        parse_value("pkgname", "Upper")
    with pytest.raises(LexicalError):
        parse_value(KEEP, "maybe")
    with pytest.raises(UnknownType):
        parse_value("float", "1.5")


@pytest.mark.parametrize("tag, text", [("pkgname", "aa\n"), ("int", "5\n"),
                                       ("nat", "5\n"), ("posint", "5\n")])
def test_trailing_newline_is_rejected(tag, text):
    with pytest.raises(LexicalError):
        parse_value(tag, text)


def test_trailing_newline_fails_the_name_and_tag_checks():
    with pytest.raises(ValueError):
        VPkg("aa\n")
    with pytest.raises(ValueError):
        EnumValue(("aa\n",), "aa\n")
    with pytest.raises(UnknownType):
        parse_value("enum(aa, bb)\n", "aa")
    assert not is_subtype_value("aa\n", "pkgname")


def test_parse_vpkg():
    assert parse_value("vpkg", "libfoo") == VPkg("libfoo")
    assert parse_value("vpkg", "libfoo >= 2") == VPkg(
        "libfoo", VersionConstraint(">=", 2)
    )
    # zero or many spaces between tokens are both fine
    assert parse_value("vpkg", "libfoo>=2") == parse_value("vpkg", "libfoo  >=  2")
    assert parse_value("vpkg", "qq != 3") == VPkg("qq", VersionConstraint("!=", 3))
    with pytest.raises(LexicalError):
        parse_value("vpkg", "libfoo >=")
    with pytest.raises(LexicalError):
        parse_value("vpkg", "libfoo = 0")
    with pytest.raises(LexicalError):
        parse_value("vpkg", "libfoo = 2 junk")


def test_parse_veqpkg_restricts_relops():
    assert parse_value("veqpkg", "libfoo = 2") == VPkg(
        "libfoo", VersionConstraint("=", 2)
    )
    assert parse_value("veqpkg", "libfoo") == VPkg("libfoo")
    with pytest.raises(LexicalError):
        parse_value("veqpkg", "libfoo >= 2")


def test_parse_lists():
    assert parse_value("vpkglist", "") == VpkgList()
    got = parse_value("vpkglist", "aa, bb > 1 , cc")
    assert got == VpkgList((
        VPkg("aa"), VPkg("bb", VersionConstraint(">", 1)), VPkg("cc"),
    ))
    with pytest.raises(LexicalError):
        parse_value("veqpkglist", "aa, bb > 1")


def test_lexical_error_carries_the_atom_offset():
    with pytest.raises(LexicalError) as info:
        parse_value("vpkgformula", "aa, bb | cc = 0")
    assert info.value.position == len("aa, bb |")
    with pytest.raises(LexicalError) as info:
        parse_value("vpkglist", "aa,  Bad")
    assert info.value.position == len("aa,")


# More digits than int() converts (4300 by default): a lexical error on
# both integer paths, not a ValueError.
OVERLONG = "1" * 5000


def test_overlong_integer_is_a_lexical_error():
    for tag in ("int", "nat", "posint"):
        with pytest.raises(LexicalError):
            parse_value(tag, OVERLONG)


def test_overlong_version_is_a_lexical_error():
    for tag in ("vpkg", "veqpkg", "vpkglist", "veqpkglist", "vpkgformula"):
        with pytest.raises(LexicalError):
            parse_value(tag, f"bb = {OVERLONG}")


def test_parse_formula_shape():
    got = parse_value("vpkgformula", "aa, bb | cc >= 2")
    assert got == VpkgFormula((
        (VPkg("aa"),),
        (VPkg("bb"), VPkg("cc", VersionConstraint(">=", 2))),
    ))
    # the True formula has no lexical form
    with pytest.raises(LexicalError):
        parse_value("vpkgformula", "")
    with pytest.raises(LexicalError):
        parse_value("vpkgformula", "aa |")


def test_serialize_canonical_forms():
    assert serialize_value(True) == "true"
    assert serialize_value(VPkg("aa", VersionConstraint("<=", 4))) == "aa <= 4"
    assert serialize_value(VpkgList((VPkg("aa"), VPkg("bb")))) == "aa, bb"
    formula = VpkgFormula(((VPkg("aa"), VPkg("bb")), (VPkg("cc"),)))
    assert serialize_value(formula) == "aa | bb, cc"
    with pytest.raises(SerializeError):
        serialize_value(TRUE)


# -- value constructors enforce their invariants -----------------------------

def test_constructor_invariants():
    with pytest.raises(ValueError):
        VersionConstraint("~", 2)
    with pytest.raises(ValueError):
        VersionConstraint(">>", 1)
    with pytest.raises(ValueError):
        VersionConstraint("=", 0)
    with pytest.raises(ValueError):
        VersionConstraint(None, 3)
    with pytest.raises(ValueError):
        VPkg("X")
    with pytest.raises(ValueError):
        VPkg("AA")
    with pytest.raises(ValueError):
        VPkg("aa\n")
    with pytest.raises(ValueError):
        VpkgFormula(((),))  # empty disjunction
    with pytest.raises(ValueError):
        EnumValue(("aa", "bb"), "cc")


def test_records_are_slotted_frozen_and_replace_checks():
    atom = parse_value("vpkg", "aa >= 2")
    records = [atom, atom.constraint, VpkgList((atom,)), VpkgFormula(((atom,),)),
               EnumValue(("aa",), "aa")]
    for record in records:
        assert not hasattr(record, "__dict__"), type(record)
        with pytest.raises(FrozenInstanceError):
            setattr(record, fields(record)[0], None)
        with pytest.raises(FrozenInstanceError):
            delattr(record, fields(record)[0])
        with pytest.raises(FrozenInstanceError):
            record.note = 1  # not a field: refused the same way
    assert issubclass(FrozenInstanceError, AttributeError)
    assert replace(atom, name="bb") == VPkg("bb", VersionConstraint(">=", 2))
    with pytest.raises(ValueError):
        replace(atom, name="BB")
    with pytest.raises(ValueError):
        replace(atom.constraint, version=0)


def test_canonical_text_is_kept_and_its_atoms_built_on_first_read():
    text = "aa >= 2, bb | cc = 123456789012345678"
    kept = parse_value("vpkgformula", text)
    slot = VpkgFormula.__dict__["clauses"]
    with pytest.raises(AttributeError):
        slot.__get__(kept)  # not built yet
    assert serialize_value(kept) is text and not kept.is_true
    with pytest.raises(AttributeError, match="has no attribute 'atoms'"):
        kept.atoms
    clauses = kept.clauses  # the first read builds and stores them
    assert slot.__get__(kept) is clauses is kept.clauses
    assert clauses == ((VPkg("aa", VersionConstraint(">=", 2)),),
                       (VPkg("bb"), VPkg("cc", VersionConstraint("=", 123456789012345678))))
    assert serialize_value(kept) is text
    # The same text read again compares, hashes and pickles as the value.
    again = parse_value("vpkgformula", text)
    assert again == kept and hash(parse_value("vpkgformula", text)) == hash(kept)
    assert repr(parse_value("vpkgformula", text)) == repr(kept)
    assert pickle.loads(pickle.dumps(parse_value("vpkgformula", text))) == kept
    lst = parse_value("vpkglist", "aa, bb != 3")
    assert serialize_value(lst) == "aa, bb != 3"
    assert lst.items == (VPkg("aa"), VPkg("bb", VersionConstraint("!=", 3)))
    # Any other spelling is kept as its canonical text, not yet built.
    for tag, spelled, canonical in [
            ("vpkgformula", "aa>=2", "aa >= 2"), ("vpkgformula", "aa  =  01", "aa = 1"),
            ("vpkgformula", "aa|bb", "aa | bb"), ("vpkglist", "aa ,bb", "aa, bb"),
            ("vpkglist", "aa = 1234567890123456789", "aa = 1234567890123456789"),
            ("veqpkglist", "aa", "aa"), ("veqpkglist", "aa=1 ,bb", "aa = 1, bb")]:
        value = parse_value(tag, spelled)
        assert value._lexical == canonical, (tag, spelled)
        built = slot if tag == "vpkgformula" else VpkgList.__dict__["items"]
        with pytest.raises(AttributeError):
            built.__get__(value)
        assert value == parse_value(tag, canonical)
    with pytest.raises(LexicalError):
        parse_value("vpkglist", "aa | bb")


# -- subtype lattice ----------------------------------------------------------

def test_subtype_lattice():
    assert is_subtype_value(5, "int")
    assert is_subtype_value(5, "nat")
    assert is_subtype_value(5, "posint")
    assert is_subtype_value(0, "nat")
    assert not is_subtype_value(0, "posint")
    assert not is_subtype_value(-1, "nat")
    assert not is_subtype_value(True, "int")  # bool is not an int here
    assert is_subtype_value("libfoo", "pkgname")
    assert is_subtype_value("libfoo", "oneliner")
    assert is_subtype_value("libfoo", "string")
    assert not is_subtype_value("two\nlines", "oneliner")
    assert is_subtype_value("two\nlines", "string")
    eq = VPkg("aa", VersionConstraint("=", 1))
    ge = VPkg("aa", VersionConstraint(">=", 1))
    assert is_subtype_value(eq, "veqpkg") and is_subtype_value(eq, "vpkg")
    assert not is_subtype_value(ge, "veqpkg")
    assert is_subtype_value(VpkgList((eq,)), "veqpkglist")
    assert not is_subtype_value(VpkgList((ge,)), "veqpkglist")
    assert is_subtype_value(EnumValue(("aa", "bb"), "bb"), "enum(aa, bb)")
    # an enum value of other symbols belongs to another enum type
    assert not is_subtype_value(EnumValue(("aa",), "aa"), "enum(aa, bb)")
    assert not is_subtype_value(EnumValue(("bb", "aa"), "aa"), "enum(aa, bb)")


def test_atoms_must_be_vpkg():
    with pytest.raises(ValueError, match="formula atoms must be VPkg"):
        VpkgFormula((("aa",),))
    with pytest.raises(ValueError, match="list elements must be VPkg"):
        VpkgList(("aa",))
    assert not is_subtype_value("aa", "vpkg") and not is_subtype_value("aa", "veqpkg")


def test_type_tags():
    for tag in ("bool", "int", "nat", "posint", "string", "oneliner", "pkgname", "vpkg",
                "veqpkg", "vpkgformula", "vpkglist", "veqpkglist", KEEP, "enum(aa)"):
        assert is_type_tag(tag), tag
    # an enum tag must be whole and its symbols identifiers
    for tag in ("bogus", "", "Bool", "enum(aa", "enum(1a, bb)", "enum(a b)", None, 5):
        assert not is_type_tag(tag), tag
    with pytest.raises(UnknownType):
        is_subtype_value("aa", "bogus")


# The pattern that recognised an enum tag before the prefix and suffix test.
_OLD_ENUM_TAG_RE = re.compile(r"enum\(([^)]*)\)")


@pytest.mark.parametrize("tag", [
    "enum()", "enum(a))", "enum(a", "xenum(a)", "enum(a,\nb)", "enum(a\n)", "enum(\n)",
    "enum(a)b)", "enum(", "enum)", "enum(a, b)", " enum(a)", "enum(a) ",
])
def test_enum_tags_read_as_the_old_pattern_read_them(tag):
    match = _OLD_ENUM_TAG_RE.fullmatch(tag)
    if match is None:
        with pytest.raises(UnknownType):
            _enum_symbols(tag)
        assert not is_type_tag(tag)
        return
    symbols = tuple(s.strip() for s in match.group(1).split(",") if s.strip())
    assert _enum_symbols(tag) == symbols
    assert is_type_tag(tag) == all(re.fullmatch(r"[a-zA-Z][a-zA-Z0-9-]*", s) for s in symbols)


# -- property tests -----------------------------------------------------------

pkgnames = st.from_regex(r"[a-z][a-z0-9.-]{1,8}", fullmatch=True)
constraints = st.one_of(
    st.just(TOP),
    st.builds(VersionConstraint, st.sampled_from(RELOPS), st.integers(1, 99)),
)
eq_constraints = st.one_of(
    st.just(TOP), st.builds(VersionConstraint, st.just("="), st.integers(1, 99))
)
vpkgs = st.builds(VPkg, pkgnames, constraints)
eq_vpkgs = st.builds(VPkg, pkgnames, eq_constraints)
vpkglists = st.builds(VpkgList, st.tuples()) | st.builds(
    lambda items: VpkgList(tuple(items)), st.lists(vpkgs, max_size=5)
)
formulas = st.builds(
    lambda cs: VpkgFormula(tuple(tuple(c) for c in cs)),
    st.lists(st.lists(vpkgs, min_size=1, max_size=3), min_size=1, max_size=3),
)


@given(formulas)
def test_parsed_atoms_equal_and_hash_as_constructed(value):
    parsed = parse_value("vpkgformula", serialize_value(value))
    for got, built in zip((a for c in parsed.clauses for a in c),
                          (a for c in value.clauses for a in c)):
        assert got == built and hash(got) == hash(built)
        assert got.constraint == built.constraint
        assert hash(got.constraint) == hash(built.constraint)
    assert parsed == value and hash(parsed) == hash(value)


@given(vpkgs)
def test_roundtrip_vpkg(value):
    assert parse_value("vpkg", serialize_value(value)) == value


@given(eq_vpkgs)
def test_roundtrip_veqpkg(value):
    assert parse_value("veqpkg", serialize_value(value)) == value


@given(vpkglists)
def test_roundtrip_vpkglist(value):
    assert parse_value("vpkglist", serialize_value(value)) == value


@given(formulas)
def test_roundtrip_formula(value):
    assert parse_value("vpkgformula", serialize_value(value)) == value


@given(formulas)
def test_a_built_formula_keeps_its_canonical_text(value):
    assert value._lexical == serialize_value(value) and not value.is_true
    # Canonical: the text reads back as the value and is kept as it is.
    parsed = parse_value("vpkgformula", value._lexical)
    assert parsed == value and parsed._lexical == value._lexical


@given(vpkglists | st.builds(lambda items: VpkgList(tuple(items)),
                             st.lists(eq_vpkgs, max_size=5)))
def test_a_built_list_keeps_its_canonical_text(value):
    assert value._lexical == serialize_value(value)
    parsed = parse_value("vpkglist", value._lexical)
    assert parsed == value and parsed._lexical == value._lexical
    eq_only = all(a.constraint.is_top or a.constraint.relop == "=" for a in value.items)
    assert is_subtype_value(value, "veqpkglist") == eq_only
    if eq_only:
        assert parse_value("veqpkglist", value._lexical) == value


def test_the_empty_values_keep_empty_text():
    assert TRUE._lexical == VpkgFormula()._lexical == "" and VpkgFormula().is_true
    assert EMPTY_LIST._lexical == VpkgList()._lexical == serialize_value(VpkgList()) == ""
    with pytest.raises(SerializeError):
        serialize_value(VpkgFormula())


@given(st.integers(-10**9, 10**9))
def test_roundtrip_int(value):
    assert parse_value("int", serialize_value(value)) == value


@given(st.sampled_from(["bool", "int", "nat", "posint", "pkgname", "vpkg",
                        "veqpkg", "vpkglist", "veqpkglist", "vpkgformula", KEEP]),
       st.text(max_size=30))
def test_parse_is_total(tag, text):
    """Arbitrary input either parses or raises the lexical error, nothing else."""
    try:
        parse_value(tag, text)
    except LexicalError:
        pass


@given(vpkgs)
def test_subtype_coherence(value):
    # every veqpkg is a vpkg, never the other way around for strict relops
    if is_subtype_value(value, "veqpkg"):
        assert is_subtype_value(value, "vpkg")
    if not value.constraint.is_top and value.constraint.relop != "=":
        assert not is_subtype_value(value, "veqpkg")


# -- differential test against the character-scanner oracle --------------------

VPKG_TAGS = ("vpkg", "veqpkg", "vpkglist", "veqpkglist", "vpkgformula")
# Token soup over the grammar's alphabet, and near-valid values: atoms with
# random spacing (tab and CR included), relops and numbers, joined by
# random separators.
token_soup = st.lists(
    st.sampled_from([
        "a", "aa", "b2", "z.", "-", "q-1", "A", "0", "1", "9", "00", "10",
        " ", "  ", "\t", "\r", ".", ",", "|", "!", *RELOPS,
    ]),
    max_size=12,
).map("".join)
gaps = st.sampled_from(["", " ", "  ", "\t", "\r"])
near_atoms = st.tuples(
    gaps, st.sampled_from(["aa", "b", "x-1.2", "0a"]), gaps,
    st.sampled_from(["", "", *RELOPS]), gaps,
    st.sampled_from(["", "0", "1", "007", "42"]), gaps,
).map("".join)
near_values = st.lists(
    st.tuples(near_atoms, st.sampled_from([",", "|"])), max_size=4,
).map(lambda pairs: "".join(atom + sep for atom, sep in pairs)[:-1])


def canonical_text(seed, edits):
    """serialize_value of a random non-empty formula or list, with
    versions of one, up to 18 or up to 19 digits, after `edits` random
    one-character edits: " ", ",", "|" or "0" inserted or put in place
    of a character, or a character deleted, at an end or next to a
    space, where the canonical spelling is strictest."""
    rng = random.Random(seed)
    max_version = rng.choice((5, 5, 5, 10 ** 18 - 1, 10 ** 19 - 1))
    value = rand_formula(rng, NAMES + FEATURES, max_version=max_version)
    if value.is_true:
        value = rand_list(rng, NAMES + FEATURES, max_version=max_version)
    text = serialize_value(value)
    for _ in range(edits):
        cuts = [0, len(text)] + [i for i in range(1, len(text)) if " " in text[i - 1:i + 1]]
        i = rng.choice(cuts)
        kept = i + (rng.random() < 0.6)  # a character replaced or deleted
        text = text[:i] + rng.choice(("", " ", ",", "|", "0")) + text[kept:]
    return text


# Canonical text, which parse_value keeps as it is, and its one-character
# neighbours, which it must keep only when they are canonical too.
canonical_texts = st.builds(canonical_text, st.integers(0, 2 ** 32 - 1),
                            st.sampled_from((0, 1, 1, 1)))
grammar_strings = token_soup | near_values | canonical_texts


@settings(max_examples=1600, derandomize=True)
@given(grammar_strings)
def test_atom_grammar_matches_scanner_oracle(text):
    """Same accept/reject result and the same value as a token-at-a-time
    scanner, for every vpkg type.  The canonical texts are compared
    before the values: a value kept as text serializes as that text, so
    text kept although it is not canonical shows there, while the atoms
    that the comparison of values builds from it can still be right."""
    assert_parses_as_the_scanner(text)


def assert_parses_as_the_scanner(text):
    for tag in VPKG_TAGS:
        try:
            expected = scan_parse_value(tag, text)
        except ScanReject:
            with pytest.raises(LexicalError):
                parse_value(tag, text)
        else:
            got = parse_value(tag, text)
            assert serialize_value(got) == serialize_value(expected), (tag, text)
            if tag == "vpkglist":  # judged from the kept text, then from the atoms
                assert (is_subtype_value(got, "veqpkglist")
                        == is_subtype_value(expected, "veqpkglist")), text
            assert got == expected, (tag, text)


@pytest.mark.parametrize("text", ["aa >= 2, bb | cc = 123456789012345678", "aa, bb != 3"])
def test_every_one_character_edit_of_canonical_text_parses_as_the_scanner(text):
    for i in range(len(text) + 1):
        assert_parses_as_the_scanner(text[:i] + text[i + 1:])
        for char in " ,|0\t":
            assert_parses_as_the_scanner(text[:i] + char + text[i:])
            assert_parses_as_the_scanner(text[:i] + char + text[i + 1:])


# -- the dispatch table against the chain of tag tests it replaced ---------------

DISPATCH_TAGS = ("bool", "int", "nat", "posint", "string", "oneliner", "pkgname", *VPKG_TAGS,
                 "enum(low, high)", KEEP, "frobnicate", "enum(a", "Bool", "")
EDGE_INPUTS = ("+1", "-0", "007", "\u0663", "1_000", " 1 ", "0", "9" * 4400, "aa >= 1 |",
               "feat-x > 2", "", " ", "true", " false ", "low", "high ", "version")


def parse_outcome(parse, tag, text):
    """What parse(tag, text) gives: the value with its type and kept text,
    or the error with its type tag, position and reason."""
    try:
        value = parse(tag, text)
    except LexicalError as exc:
        return "LexicalError", exc.type_tag, exc.position, exc.reason
    except UnknownType as exc:
        return "UnknownType", exc.args
    return type(value), getattr(value, "_lexical", None), value


def assert_dispatches_as_the_chain(text):
    for tag in DISPATCH_TAGS:
        expected = parse_outcome(oracle_parse_value, tag, text)
        assert parse_outcome(parse_value, tag, text) == expected, (tag, text)


@settings(max_examples=600, derandomize=True)
@given(st.text(max_size=30) | grammar_strings | st.sampled_from(EDGE_INPUTS))
def test_parse_value_dispatches_as_the_chain_of_tag_tests(text):
    assert_dispatches_as_the_chain(text)


@pytest.mark.parametrize("text", EDGE_INPUTS)
def test_edge_inputs_dispatch_as_the_chain_of_tag_tests(text):
    assert_dispatches_as_the_chain(text)
