"""CUDF type library: value spaces, lexical spaces, parsing and serialization.

Every property value lives in one of these domains:

    bool, int, nat, posint, string, oneliner, pkgname, enum(...),
    vpkg, veqpkg, vpkgformula, vpkglist, veqpkglist

Each named type has a parse function (lexical -> value) and a member
test (value -> whether the value space holds it), kept side by side in
one table, and every value has a canonical serialization
(value -> lexical) such that parse(serialize(v)) == v.

Every vpkgformula, vpkglist and veqpkglist value carries its canonical
text, whether parsed or built by the constructor.  A parsed one keeps
only that text, and its atoms are built on first read (see VpkgFormula);
most commands read few of a universe's dependencies, and check and fmt
read none.
"""

from __future__ import annotations

import re
from functools import partial

from ._record import record


class LexicalError(ValueError):
    """Raised when a string is not in the lexical space of a type."""

    def __init__(self, type_tag, position, reason):
        self.type_tag = type_tag
        self.position = position
        self.reason = reason
        super().__init__(f"{type_tag}: {reason} (at {position})")


class UnknownType(ValueError):
    pass


class SerializeError(ValueError):
    """Raised for values that have no lexical form (e.g. the True formula)."""


RELOPS = ("=", "!=", ">=", ">", "<=", "<")

# Each is used with fullmatch: "$" would also match before a final "\n".
_PKGNAME_RE = re.compile(r"[a-z][a-z0-9.-]+")
_IDENT_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9-]*")
_INT_RE = re.compile(r"[+-]?[0-9]+")


@record
class VersionConstraint:
    """Either the unconstrained value (relop is None) or a (relop, version) pair."""

    relop: str | None = None
    version: int | None = None

    def __post_init__(self):
        if self.relop is None:
            if self.version is not None:
                raise ValueError("unconstrained form carries no version")
        else:
            if self.relop not in RELOPS:
                raise ValueError(f"bad relop {self.relop!r}")
            if not is_posint(self.version):
                raise ValueError("constraint version must be a posint")

    @property
    def is_top(self):
        return self.relop is None


TOP = VersionConstraint()


@record
class VPkg:
    """A possibly version-constrained package (or feature) name."""

    name: str
    constraint: VersionConstraint = TOP

    def __post_init__(self):
        if not _PKGNAME_RE.fullmatch(self.name):
            raise ValueError(f"bad package name {self.name!r}")


def _no_attribute(record, name):
    return AttributeError(f"{type(record).__name__!r} object has no attribute {name!r}")


@record
class VpkgFormula:
    """CNF formula: a conjunction of disjunctions of VPkg atoms.

    The empty conjunction is the True formula; it has no lexical form.

    Every formula keeps its canonical text in `_lexical`, a slot that is
    not a field: the constructor writes it from the atoms ("" for the
    True formula), and parse_value keeps the text it read.  A parsed
    formula's `clauses` slot stays unset until the first read, which
    builds the atoms from the text and stores them.  Equality, hashing,
    repr and pickling read `clauses`, so they build the atoms too.
    """

    __slots__ = ("_lexical",)
    clauses: tuple[tuple[VPkg, ...], ...] = ()

    def __post_init__(self):
        for clause in self.clauses:
            if not clause:
                raise ValueError("empty disjunction")
            for atom in clause:
                if not isinstance(atom, VPkg):
                    raise ValueError("formula atoms must be VPkg")
        _set_formula_lexical(self, ", ".join(
            [" | ".join([serialize_value(atom) for atom in clause]) for clause in self.clauses]))

    def __getattr__(self, name):
        # Reached only when ordinary lookup fails: for `clauses`, when the
        # slot is unset because the formula is still its kept text.
        if name != "clauses":
            raise _no_attribute(self, name)
        clauses = tuple([tuple(_canonical_atoms(clause.split(" | ")))
                         for clause in self._lexical.split(", ")])
        _set_clauses(self, clauses)
        return clauses

    @property
    def is_true(self):
        return not self._lexical


@record
class VpkgList:
    """A list of VPkg atoms.  Every list keeps its canonical text ("" when
    empty), and one that parse_value returns builds `items` on first
    read, as a VpkgFormula does its clauses."""

    __slots__ = ("_lexical",)
    items: tuple[VPkg, ...] = ()

    def __post_init__(self):
        for item in self.items:
            if not isinstance(item, VPkg):
                raise ValueError("list elements must be VPkg")
        _set_list_lexical(self, ", ".join([serialize_value(item) for item in self.items]))

    def __getattr__(self, name):
        if name != "items":
            raise _no_attribute(self, name)
        items = tuple(_canonical_atoms(self._lexical.split(", ")))
        _set_items(self, items)
        return items


@record
class EnumValue:
    symbols: tuple[str, ...]
    chosen: str

    def __post_init__(self):
        for sym in self.symbols:
            if not _IDENT_RE.fullmatch(sym):
                raise ValueError(f"enum symbol {sym!r} is not an identifier")
        if self.chosen not in self.symbols:
            raise ValueError(f"{self.chosen!r} not among {self.symbols}")


def is_type_tag(tag):
    """Whether tag names a type of this library: a key of _TYPES, or
    enum(...) over identifiers."""
    if not isinstance(tag, str):
        return False
    if tag in _TYPES:
        return True
    try:
        symbols = _enum_symbols(tag)
    except UnknownType:
        return False
    return all(_IDENT_RE.fullmatch(s) for s in symbols)


def is_pkgname(s):
    return isinstance(s, str) and _PKGNAME_RE.fullmatch(s) is not None


def is_oneliner(s):
    return isinstance(s, str) and "\n" not in s and "\r" not in s


def is_posint(n):
    # the exact type first: a bool is an int, and other int subclasses are rare
    return (type(n) is int or _is_int(n)) and n >= 1


def _is_int(n):
    return isinstance(n, int) and not isinstance(n, bool)


def is_identifier(s):
    return _IDENT_RE.fullmatch(s) is not None


# ---------------------------------------------------------------------------
# Parsing


# One atom of a vpkg, vpkglist or vpkgformula: a package name, optionally
# followed by a relop and a version.  Only U+0020 counts as a space; runs
# of spaces are accepted anywhere between tokens.  "," and "|" cannot
# occur in a name, relop or number, so a value is split on them first.
# Each run of spaces can match at one place only, so a failed match takes
# linear time (a separate trailing " *" would make it quadratic).
_ATOM_RE = re.compile(r" *([a-z][a-z0-9.-]+) *(?:(!=|>=|<=|=|>|<) *([0-9]+) *)?")

# The canonical text of a non-empty vpkgformula, which serialize_value
# writes: atoms `name` or `name relop version` with single spaces, joined
# by ", " and " | ".  A vpkglist in canonical form matches it and holds
# no "|".  Versions have no leading zero and at most 18 digits, so each
# is a posint and reads back as the same digits.  Text of this form is
# kept as it is; any other text is checked atom by atom by _canonical_text,
# which raises the error or returns the canonical spelling to keep.
_CANONICAL_ATOM = r"[a-z][a-z0-9.-]+(?: (?:!=|>=|<=|=|>|<) [1-9][0-9]{0,17})?"
_CANONICAL_RE = re.compile(rf"{_CANONICAL_ATOM}(?:(?:, | \| ){_CANONICAL_ATOM})*")


def _to_int(digits, type_tag, position):
    """int(digits); a string longer than the interpreter converts is a
    lexical error, not a ValueError escaping the parser."""
    try:
        return int(digits)
    except ValueError:
        raise LexicalError(type_tag, position, "too many digits") from None


# The parser builds its records from text that _CANONICAL_RE or
# _parse_atom has already checked, so it skips the __post_init__ checks
# of the public constructors, which stay for every other caller.  Atoms
# and constraints are built on twins (see _record), the rest through one
# member descriptor each.

_new = object.__new__
_VPkgDraft = VPkg._draft
_ConstraintDraft = VersionConstraint._draft
_set_clauses = VpkgFormula.__dict__["clauses"].__set__
_set_items = VpkgList.__dict__["items"].__set__
_set_formula_lexical = VpkgFormula.__dict__["_lexical"].__set__
_set_list_lexical = VpkgList.__dict__["_lexical"].__set__


def _canonical_atoms(texts):
    """The VPkg atoms of canonical atom texts."""
    atoms = []
    for text in texts:
        atom = _new(_VPkgDraft)
        name, _, constrained = text.partition(" ")
        atom.name = name
        if constrained:
            relop, _, digits = constrained.partition(" ")
            constraint = _new(_ConstraintDraft)
            constraint.relop = relop
            constraint.version = int(digits)
            constraint.__class__ = VersionConstraint
            atom.constraint = constraint
        else:
            atom.constraint = TOP
        atom.__class__ = VPkg
        atoms.append(atom)
    return atoms


def _parse_atom(text, type_tag, position):
    """The canonical text of the atom spelled by `text`, which starts at
    `position` in the value."""
    m = _ATOM_RE.fullmatch(text)
    if m is None:
        reason = "empty" if not text.strip(" ") else f"not a package atom: {text!r}"
        raise LexicalError(type_tag, position, reason)
    name, relop, digits = m.groups()
    if relop is None:
        return name
    version = _to_int(digits, type_tag, position)
    if not is_posint(version):
        raise LexicalError(type_tag, position, "version must be positive")
    return f"{name} {relop} {version}"


def _parse_int(type_tag, member, lexical):
    s = lexical.strip(" ")
    if not _INT_RE.fullmatch(s):
        raise LexicalError(type_tag, 0, f"not an integer: {lexical!r}")
    value = _to_int(s, type_tag, 0)
    if not member(value):
        raise LexicalError(type_tag, 0, f"{value} below the {type_tag} domain")
    return value


def _canonical_text(lexical, type_tag):
    """The canonical spelling of a non-empty vpkglist, veqpkglist or
    vpkgformula, checked atom by atom.  Only a formula is split on "|";
    in a list it fails the atom that holds it."""
    disjunctive = type_tag == "vpkgformula"
    clauses = []
    position = 0
    for clause in lexical.split(","):
        atoms = []
        for text in clause.split("|") if disjunctive else (clause,):
            atoms.append(_parse_atom(text, type_tag, position))
            position += len(text) + 1
        clauses.append(" | ".join(atoms))
    return ", ".join(clauses)


def _enum_symbols(type_tag):
    """The symbols of an enum type tag: "enum(", then text with no ")",
    split at its commas, then a final ")"."""
    inner = type_tag[5:-1]
    if not (type_tag.startswith("enum(") and type_tag.endswith(")")) or ")" in inner:
        raise UnknownType(type_tag)
    return tuple(s.strip() for s in inner.split(",") if s.strip())


def _parse_bool(lexical):
    s = lexical.strip(" ")
    if s == "true" or s == "false":
        return s == "true"
    raise LexicalError("bool", 0, f"not a boolean: {lexical!r}")


def _parse_oneliner(lexical):
    if not is_oneliner(lexical):
        raise LexicalError("oneliner", 0, "embedded newline")
    return lexical


def _parse_pkgname(lexical):
    if not _PKGNAME_RE.fullmatch(lexical):
        raise LexicalError("pkgname", 0, f"not a package name: {lexical!r}")
    return lexical


def _parse_vpkg(type_tag, member, lexical):
    (atom,) = _canonical_atoms([_parse_atom(lexical, type_tag, 0)])
    if not member(atom):
        raise LexicalError(type_tag, 0, "version constraint other than '='")
    return atom


def _parse_vpkglist(type_tag, member, lexical):
    if "|" in lexical or not _CANONICAL_RE.fullmatch(lexical):
        if not lexical.strip(" "):
            return EMPTY_LIST
        lexical = _canonical_text(lexical, type_tag)
    lst = _new(VpkgList)  # its items not yet built
    _set_list_lexical(lst, lexical)
    if not member(lst):
        raise LexicalError(type_tag, 0, "version constraint other than '='")
    return lst


def _parse_vpkgformula(lexical):
    if not _CANONICAL_RE.fullmatch(lexical):
        if not lexical.strip(" "):
            raise LexicalError("vpkgformula", 0, "empty formula (True has no lexical form)")
        lexical = _canonical_text(lexical, "vpkgformula")
    formula = _new(VpkgFormula)  # its clauses not yet built
    _set_formula_lexical(formula, lexical)
    return formula


def parse_value(type_tag, lexical):
    """Parse a lexical string into a value of the named type.

    Raises LexicalError when the string is outside the type's lexical
    space, UnknownType for an unrecognized type tag.  A non-empty
    vpkgformula, vpkglist or veqpkglist comes back as its canonical
    text, its atoms built on first read.
    """
    entry = _TYPES.get(type_tag)
    if entry is not None:
        return entry[0](lexical)
    symbols = _enum_symbols(type_tag)
    s = lexical.strip(" ")
    if s not in symbols:
        raise LexicalError(type_tag, 0, f"{s!r} not in {symbols}")
    return EnumValue(symbols, s)


# ---------------------------------------------------------------------------
# Serialization (canonical: single spaces around relops, ", " between
# list/conjunction elements, " | " between disjuncts)


def serialize_vpkg(atom):
    if atom.constraint.is_top:
        return atom.name
    return f"{atom.name} {atom.constraint.relop} {atom.constraint.version}"


TRUE = VpkgFormula()
EMPTY_LIST = VpkgList()


def serialize_value(value):
    """Canonical lexical form of a typed value.

    parse_value(tag, serialize_value(v)) == v for every value with a
    lexical form; the True formula has none and raises SerializeError, as
    does an int or atom with more digits than the interpreter writes.
    A formula or list returns the canonical text it keeps.
    """
    lexical = getattr(value, "_lexical", None)
    if lexical:
        return lexical
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return value
    if isinstance(value, EnumValue):
        return value.chosen
    try:
        if isinstance(value, int):
            return str(value)
        if isinstance(value, VPkg):
            return serialize_vpkg(value)
    except ValueError:  # more digits than the interpreter writes
        raise SerializeError(f"{type(value).__name__} with too many digits to write") from None
    if isinstance(value, VpkgList):
        return ""
    if isinstance(value, VpkgFormula):
        raise SerializeError("the True formula has no lexical form")
    raise SerializeError(f"cannot serialize {value!r}")


# ---------------------------------------------------------------------------
# Value spaces, along the subtype lattice posint <: nat <: int,
# pkgname <: oneliner <: string, veqpkg <: vpkg and veqpkglist <: vpkglist.
# Each rule is stated once, in its type's member test, which the type's
# parse function applies to the value it read.


def _checked(type_tag, parse, member):
    """The (parse, member) pair of a type whose parse function applies
    member to the value it builds."""
    return partial(parse, type_tag, member), member


def _is_veqpkglist(value):
    if not isinstance(value, VpkgList):
        return False
    text = value._lexical  # canonical: "<", ">" and "!" occur only in relops
    return "<" not in text and ">" not in text and "!" not in text


# Each named type's (parse, member) pair, found by one lookup; an enum(...)
# tag misses it and is read at each call.
_TYPES = {
    "bool": (_parse_bool, lambda value: isinstance(value, bool)),
    "int": _checked("int", _parse_int, _is_int),
    "nat": _checked("nat", _parse_int, lambda value: _is_int(value) and value >= 0),
    "posint": _checked("posint", _parse_int, is_posint),
    "string": (str, lambda value: isinstance(value, str)),  # a str argument comes back itself
    "oneliner": (_parse_oneliner, is_oneliner),
    "pkgname": (_parse_pkgname, is_pkgname),
    "vpkg": _checked("vpkg", _parse_vpkg, lambda value: isinstance(value, VPkg)),
    "veqpkg": _checked("veqpkg", _parse_vpkg, lambda value: isinstance(value, VPkg) and (
        value.constraint.is_top or value.constraint.relop == "=")),
    "vpkglist": _checked("vpkglist", _parse_vpkglist, lambda value: isinstance(value, VpkgList)),
    "veqpkglist": _checked("veqpkglist", _parse_vpkglist, _is_veqpkglist),
    "vpkgformula": (_parse_vpkgformula, lambda value: isinstance(value, VpkgFormula)),
}


def is_subtype_value(value, target):
    """Whether a value belongs to the value space of `target`."""
    entry = _TYPES.get(target)
    if entry is not None:
        return entry[1](value)
    if target.startswith("enum("):
        # Symbols other than the type's would read back as the type's.
        return isinstance(value, EnumValue) and value.symbols == _enum_symbols(target)
    raise UnknownType(target)
