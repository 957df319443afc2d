"""CUDF file parsing and serialization.

Files are UTF-8 text split into stanzas at the "Package: " / "Problem: "
postmarks.  Errors local to a stanza are recoverable: the stanza is
dropped and recorded.  Document-level failures (bad encoding, zero or
multiple surviving problem stanzas) are fatal.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from itertools import accumulate

from . import types
from ._record import record
from .model import (
    CORE_PACKAGE_SCHEMATA,
    CORE_PROBLEM_SCHEMATA,
    CudfDocument,
    InvalidDocument,
    RawValue,
    RequestItem,
    _raw_value,
    package_extra_defaults,
    package_from_fields,
    required_package_extras,
    validate_document,
)

PACKAGE_POSTMARK = "Package: "
PROBLEM_POSTMARK = "Problem: "
_POSTMARKS = (PACKAGE_POSTMARK, PROBLEM_POSTMARK)


class FatalParseError(ValueError):
    pass


class FatalEncoding(FatalParseError):
    pass


class FatalNoProblemStanza(FatalParseError):
    pass


class FatalMultipleProblemStanzas(FatalParseError):
    pass


@record
class RecoveredError:
    stanza_index: int
    byte_range: tuple[int, int]
    reason: str
    line: int  # 1-based first line of the dropped stanza or junk line


class ParseReport:
    """A parsed document and the stanza-local errors its parse recovered from."""

    __slots__ = ("document", "recovered_errors")

    def __init__(self, document, recovered_errors):
        self.document = document
        self.recovered_errors = recovered_errors


class _LineOffsets:
    """Byte offsets of the lines of one document, computed on first use.

    0x0A never occurs inside a multi-byte UTF-8 sequence, so the text and
    byte splits have the same lines.
    """

    def __init__(self, data):
        self.data = data
        self._lengths = None  # bytes before each line, newlines left out

    def _start(self, line):
        """Byte offset of 1-based `line`: the lengths before it plus one
        newline for each line before it."""
        return self._lengths[line - 1] + line - 1

    def byte_range(self, first, end):
        """Bytes of lines first..end-1 (1-based), cut at the end of the data."""
        if self._lengths is None:
            self._lengths = list(accumulate(map(len, self.data.split(b"\n")), initial=0))
        return self._start(first), min(self._start(end), len(self.data))


class _RawStanza:
    __slots__ = ("kind", "index", "line", "offsets", "problem_id", "end", "lines")

    def __init__(self, kind, index, line, offsets, problem_id=""):
        self.kind = kind  # "package" | "problem"
        self.index = index
        self.line = line  # 1-based line of the postmark
        self.offsets = offsets
        self.problem_id = problem_id
        self.end = 0  # line that closes the stanza; one past the last at the end of data
        self.lines = None  # property lines, postmark line included for packages

    def close(self, end, lines):
        self.end = end
        self.lines = lines[self.line - (self.kind == "package"):end - 1]

    @property
    def byte_range(self):
        """Bytes from the postmark to where the closing line starts, or to
        the end of the data."""
        return self.offsets.byte_range(self.line, self.end)


def _split_stanzas(data):
    """Split raw bytes into stanzas at postmark lines.

    Returns (stanzas, recovered_errors_for_preamble); invalid UTF-8 raises
    FatalEncoding. Blank lines between stanzas are dropped; \r is stripped
    before the newline check. A stanza ends at the line that closes it (a
    blank line or the next postmark), or at the end of the data.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FatalEncoding(str(exc)) from exc
    lines = text.split("\n")
    if "\r" in text:
        lines = [line[:-1] if line.endswith("\r") else line for line in lines]
    offsets = _LineOffsets(data)
    stanzas = []
    errors = []
    current = None
    for number, line in enumerate(lines, 1):
        if line.startswith(_POSTMARKS):
            if current is not None:
                current.close(number, lines)
            if line.startswith(PACKAGE_POSTMARK):
                current = _RawStanza("package", len(stanzas), number, offsets)
            else:
                current = _RawStanza("problem", len(stanzas), number, offsets,
                                     line[len(PROBLEM_POSTMARK):])
            stanzas.append(current)
        elif not line.strip(" \t"):
            if current is not None:  # blank line ends the stanza
                current.close(number, lines)
                current = None
        elif current is None:
            errors.append(RecoveredError(-1, offsets.byte_range(number, number + 1),
                                         "content outside any stanza", number))
    if current is not None:
        current.close(len(lines) + 1, lines)
    return stanzas, errors


class _StanzaError(ValueError):
    pass


_UNPARSED = object()
_INVALID_NAME = object()
_REQUIRED_PACKAGE_PROPS = tuple(
    name for name, schema in CORE_PACKAGE_SCHEMATA.items()
    if schema.optionality == "required"
)


class _Reader:
    """The tables of one document being read: each property name resolved
    once, each lexical value of a property parsed once, and one
    VersionConstraint per (relop, version).  Values are immutable, so
    stanzas share them.  A reader lives for one parse call; nothing is
    kept across calls."""

    def __init__(self, registry=None):
        self.registry = registry
        self.extra_defaults = package_extra_defaults(registry)
        self.required = _REQUIRED_PACKAGE_PROPS + required_package_extras(registry)
        self.props = {"package": {}, "problem": {}}  # kind -> name -> property
        self.constraints = {}  # (relop, version) -> the atoms' VersionConstraint

    def _property(self, item_kind, name):
        """(value type or None, value memo) of a property name, or
        _INVALID_NAME."""
        core = CORE_PACKAGE_SCHEMATA if item_kind == "package" else CORE_PROBLEM_SCHEMATA
        schema = core.get(name)
        if schema is None:
            if not types.is_identifier(name):
                return _INVALID_NAME
            if self.registry is not None:
                schema = self.registry.get(item_kind, name)
        return (schema.value_type if schema else None), {}

    def properties(self, lines, item_kind):
        """Parse "Name: value" lines into a field mapping; raises _StanzaError."""
        fields = {}
        props = self.props[item_kind]
        for line in lines:
            name, sep, value = line.partition(": ")
            if not sep:
                if not line.endswith(":"):
                    raise _StanzaError(f"missing ': ' separator in {line!r}")
                name, value = line[:-1], ""
            prop = props.get(name)
            if prop is None:
                prop = props[name] = self._property(item_kind, name)
            if prop is _INVALID_NAME:
                raise _StanzaError(f"invalid property name {name!r}")
            if name in fields:
                raise _StanzaError(f"duplicate property {name!r}")
            value_type, values = prop
            parsed = values.get(value, _UNPARSED)
            if parsed is _UNPARSED:
                if value_type is None:
                    if item_kind == "problem":
                        raise _StanzaError(f"unknown problem property {name!r}")
                    parsed = _raw_value(value)
                else:
                    try:
                        parsed = types.parse_value(value_type, value, self.constraints)
                    except types.LexicalError as exc:
                        raise _StanzaError(f"{name}: {exc.reason}") from exc
                values[value] = parsed
            fields[name] = parsed
        return fields

    def package_fields(self, lines):
        """Field mapping of a package stanza with every required property."""
        fields = self.properties(lines, "package")
        for name in self.required:
            if name not in fields:
                raise _StanzaError(f"missing required property {name!r}")
        return fields

    def package(self, lines):
        return package_from_fields(self.package_fields(lines), self.extra_defaults)

    def request(self, stanza):
        fields = self.properties(stanza.lines, "problem")
        return RequestItem(
            problem_id=stanza.problem_id,
            install=fields.get("Install", types.EMPTY_LIST),
            remove=fields.get("Remove", types.EMPTY_LIST),
            upgrade=fields.get("Upgrade", types.EMPTY_LIST),
        )


@contextmanager
def collector_paused():
    """Pause the cyclic garbage collector, restoring its state on exit.

    A parse allocates a few container objects per stanza and creates no
    reference cycles; each full collection would walk all of them again,
    which makes a large parse superlinear.  Nested inside another pause
    it does nothing.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def parse_cudf(data, registry=None):
    """Parse CUDF bytes into a ParseReport.

    Stanza-local errors drop the stanza and are recorded as recoverable;
    encoding failures and a surviving problem-stanza count other than one
    are fatal.
    """
    with collector_paused():
        stanzas, errors = _split_stanzas(data)
        reader = _Reader(registry)
        packages = []
        requests = []
        for stanza in stanzas:
            try:
                if stanza.kind == "package":
                    packages.append(reader.package(stanza.lines))
                else:
                    requests.append(reader.request(stanza))
            except _StanzaError as exc:
                errors.append(
                    RecoveredError(stanza.index, stanza.byte_range, str(exc), stanza.line)
                )
        if len(requests) == 0:
            raise FatalNoProblemStanza("no surviving problem stanza")
        if len(requests) > 1:
            raise FatalMultipleProblemStanzas(f"{len(requests)} problem stanzas")
        doc = CudfDocument(packages=tuple(packages), request=requests[0])
    return ParseReport(document=doc, recovered_errors=errors)


# ---------------------------------------------------------------------------
# Serialization

_PACKAGE_PROP_ORDER = ("Depends", "Conflicts", "Provides", "Installed", "Keep")
_PROBLEM_PROP_ORDER = ("Install", "Remove", "Upgrade")


def _prop_line(name, value):
    return f"{name}: {types.serialize_value(value)}\n"


# The default of each property of _PACKAGE_PROP_ORDER; None for Keep,
# which has none, since a None value is never written.
_PACKAGE_DEFAULTS = tuple(
    CORE_PACKAGE_SCHEMATA[name].default if CORE_PACKAGE_SCHEMATA[name].has_default else None
    for name in _PACKAGE_PROP_ORDER
)


def serialize_package(item):
    out = [f"Package: {item.name}\n", f"Version: {item.version}\n"]
    values = (item.depends, item.conflicts, item.provides, item.installed, item.keep)
    for name, value, default in zip(_PACKAGE_PROP_ORDER, values, _PACKAGE_DEFAULTS):
        # A parsed default is the default object itself, and a value that
        # keeps its text is never a default, so == runs only for values
        # built elsewhere; on a kept value it would build the atoms.
        if value is None or value is default or (
                not types.keeps_text(value) and value == default):
            continue  # the True formula, which has no lexical form, included
        out.append(_prop_line(name, value))
    for prop, value in item.extra:
        if isinstance(value, RawValue):
            out.append(f"{prop}: {value.text}\n")
        else:
            out.append(_prop_line(prop, value))
    return "".join(out)


def serialize_request(request):
    out = [f"Problem: {request.problem_id}\n"]
    for name in _PROBLEM_PROP_ORDER:
        value = getattr(request, name.lower())
        if value is types.EMPTY_LIST or (
                not types.keeps_text(value) and value == types.EMPTY_LIST):
            continue
        out.append(_prop_line(name, value))
    return "".join(out)


def serialize_cudf(doc):
    """Serialize a valid document as UTF-8 bytes in canonical ordering."""
    violations = validate_document(doc)
    if violations:
        raise InvalidDocument(violations)
    chunks = [serialize_package(p) for p in doc.packages]
    chunks.append(serialize_request(doc.request))
    return "\n".join(chunks).encode("utf-8")


# ---------------------------------------------------------------------------
# Solution files ("patch against the universe": package stanzas only)


class MalformedSolution(ValueError):
    """A solution file that cannot be read, or that names a key outside
    its problem."""


def serialize_solution(doc):
    """Solution file for a solved document: the installed (name, version)
    pairs as Package/Version/Installed stanzas, sorted for determinism."""
    chunks = []
    for item in sorted(doc.packages, key=lambda p: p.key):
        if item.installed:
            chunks.append(
                f"Package: {item.name}\nVersion: {item.version}\nInstalled: true\n"
            )
    return "\n".join(chunks).encode("utf-8")


def parse_solution(data):
    """Parse a solution file into a list of ((name, version), installed).

    Any malformed content, invalid UTF-8 and a repeated (name, version)
    included, raises MalformedSolution, since a solution has no stanza
    that could be dropped and recovered from.
    """
    with collector_paused():
        try:
            stanzas, errors = _split_stanzas(data)
        except FatalEncoding as exc:
            raise MalformedSolution(str(exc)) from exc
        if errors:
            raise MalformedSolution(errors[0].reason)
        reader = _Reader()
        entries = []
        seen = set()
        for stanza in stanzas:
            if stanza.kind != "package":
                raise MalformedSolution("solution files contain package stanzas only")
            try:
                fields = reader.package_fields(stanza.lines)
            except _StanzaError as exc:
                raise MalformedSolution(f"stanza {stanza.index}: {exc}") from exc
            key = (fields["Package"], fields["Version"])
            if key in seen:
                raise MalformedSolution(
                    f"stanza {stanza.index}: repeated {key[0]} {key[1]}")
            seen.add(key)
            entries.append((key, fields.get("Installed", True)))
    return entries


def apply_solution(problem_doc, entries):
    """Rebuild the outcome document from the problem plus solution flags.

    Unlisted packages end up not installed; a key outside the problem
    domain raises MalformedSolution.  A stanza whose flag does not change
    is shared with the problem document.
    """
    domain = problem_doc.domain()
    flags = {}
    for key, installed in entries:
        if key not in domain:
            raise MalformedSolution(f"{key[0]} {key[1]} not in the problem domain")
        flags[key] = installed
    packages = []
    for p in problem_doc.packages:
        flag = flags.get(p.key, False)
        packages.append(p if p.installed is flag else p.with_installed(flag))
    return CudfDocument(packages=tuple(packages), request=problem_doc.request)
