"""CUDF file parsing and serialization.

Files are UTF-8 text split into stanzas at the "Package: " / "Problem: "
postmarks.  Errors local to a stanza are recoverable: the stanza is
dropped and recorded.  Document-level failures (bad encoding, zero or
multiple surviving problem stanzas) are fatal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import model, types
from .model import (
    CORE_PACKAGE_SCHEMATA,
    CORE_PROBLEM_SCHEMATA,
    CudfDocument,
    RawValue,
    RequestItem,
    Violation,
    apply_package_defaults,
    validate_document,
)

PACKAGE_POSTMARK = "Package: "
PROBLEM_POSTMARK = "Problem: "
_POSTMARKS = (PACKAGE_POSTMARK, PROBLEM_POSTMARK)

_PROP_NAME_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9-]*$")


class FatalParseError(ValueError):
    pass


class FatalEncoding(FatalParseError):
    pass


class FatalNoProblemStanza(FatalParseError):
    pass


class FatalMultipleProblemStanzas(FatalParseError):
    pass


class InvalidDocument(ValueError):
    def __init__(self, violations):
        self.violations = violations
        super().__init__("; ".join(v.detail for v in violations))


@dataclass(frozen=True)
class RecoveredError:
    stanza_index: int
    byte_range: tuple[int, int]
    reason: str
    line: int  # 1-based first line of the dropped stanza or junk line


@dataclass
class ParseReport:
    document: CudfDocument
    recovered_errors: list


@dataclass
class _RawStanza:
    kind: str  # "package" | "problem" | "junk"
    index: int
    line: int  # 1-based line of the postmark
    byte_range: tuple[int, int]
    lines: list  # property lines, postmark line included for packages
    problem_id: str = ""


def _split_stanzas(data):
    """Split raw bytes into stanzas at postmark lines.

    Returns (stanzas, recovered_errors_for_preamble); invalid UTF-8 raises
    FatalEncoding. Blank lines between stanzas are dropped; \r is stripped
    before the newline check. A stanza's byte range ends where the line
    that closes it (a blank line or the next postmark) starts, or at the
    end of the data.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FatalEncoding(str(exc)) from exc
    stanzas = []
    errors = []
    current = None
    offset = 0
    # 0x0A never occurs inside a multi-byte UTF-8 sequence, so the text
    # and byte splits have the same lines.
    sizes = map(len, data.split(b"\n"))
    for number, (line, size) in enumerate(zip(text.split("\n"), sizes), 1):
        start = offset
        offset += size + 1
        if line.endswith("\r"):
            line = line[:-1]
        if line.startswith(_POSTMARKS):
            if current is not None:
                current.byte_range = (current.byte_range[0], start)
            if line.startswith(PACKAGE_POSTMARK):
                current = _RawStanza("package", len(stanzas), number, (start, start), [line])
            else:
                current = _RawStanza("problem", len(stanzas), number, (start, start), [],
                                     line[len(PROBLEM_POSTMARK):])
            stanzas.append(current)
        elif not line.strip(" \t"):
            if current is not None:  # blank line ends the stanza
                current.byte_range = (current.byte_range[0], start)
                current = None
        elif current is None:
            errors.append(RecoveredError(-1, (start, min(offset, len(data))),
                                         "content outside any stanza", number))
        else:
            current.lines.append(line)
    if current is not None:
        current.byte_range = (current.byte_range[0], len(data))
    return stanzas, errors


class _StanzaError(ValueError):
    pass


_UNPARSED = object()
_REQUIRED_PACKAGE_PROPS = tuple(
    name for name, schema in CORE_PACKAGE_SCHEMATA.items()
    if schema.optionality == "required"
)


def _parse_properties(lines, item_kind, registry, memo):
    """Parse "Name: value" lines into a field mapping; raises _StanzaError.

    `memo` maps (value type, lexical) to the parsed value for the length of
    one document: values are immutable, so a repeated line is parsed once.
    """
    fields = {}
    core = CORE_PACKAGE_SCHEMATA if item_kind == "package" else CORE_PROBLEM_SCHEMATA
    for line in lines:
        name, sep, value = line.partition(": ")
        if not sep:
            if not line.endswith(":"):
                raise _StanzaError(f"missing ': ' separator in {line!r}")
            name, value = line[:-1], ""
        schema = core.get(name)
        if schema is None:
            if not _PROP_NAME_RE.match(name):
                raise _StanzaError(f"invalid property name {name!r}")
            if registry is not None:
                schema = registry.get(item_kind, name)
        if name in fields:
            raise _StanzaError(f"duplicate property {name!r}")
        if schema is None:
            if item_kind == "problem":
                raise _StanzaError(f"unknown problem property {name!r}")
            fields[name] = RawValue(value)
            continue
        key = (schema.value_type, value)
        parsed = memo.get(key, _UNPARSED)
        if parsed is _UNPARSED:
            try:
                parsed = memo[key] = types.parse_value(schema.value_type, value)
            except types.LexicalError as exc:
                raise _StanzaError(f"{name}: {exc.reason}") from exc
        fields[name] = parsed
    return fields


def _parse_package(lines, registry, memo):
    """Property mapping of a package stanza with every required property."""
    fields = _parse_properties(lines, "package", registry, memo)
    for name in _REQUIRED_PACKAGE_PROPS:
        if name not in fields:
            raise _StanzaError(f"missing required property {name!r}")
    return fields


def parse_cudf(data, registry=None, strict_extras=False):
    """Parse CUDF bytes into a ParseReport.

    Stanza-local errors drop the stanza and are recorded as recoverable;
    encoding failures and a surviving problem-stanza count other than one
    are fatal.
    """
    stanzas, errors = _split_stanzas(data)
    memo = {}
    packages = []
    requests = []
    for stanza in stanzas:
        try:
            if stanza.kind == "package":
                fields = _parse_package(stanza.lines, registry, memo)
                if strict_extras:
                    fields = {
                        k: v for k, v in fields.items() if not isinstance(v, RawValue)
                    }
                packages.append(apply_package_defaults(fields, registry))
            else:
                fields = _parse_properties(stanza.lines, "problem", registry, memo)
                requests.append(
                    RequestItem(
                        problem_id=stanza.problem_id,
                        install=fields.get("Install", types.EMPTY_LIST),
                        remove=fields.get("Remove", types.EMPTY_LIST),
                        upgrade=fields.get("Upgrade", types.EMPTY_LIST),
                    )
                )
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


def serialize_package(item, registry=None, canonical=True):
    out = [f"Package: {item.name}\n", f"Version: {item.version}\n"]
    values = (item.depends, item.conflicts, item.provides, item.installed, item.keep)
    for name, value in zip(_PACKAGE_PROP_ORDER, values):
        schema = CORE_PACKAGE_SCHEMATA[name]
        if value is None:
            continue
        if canonical and schema.has_default and value == schema.default:
            continue
        if isinstance(value, types.VpkgFormula) and value.is_true:
            continue  # True only serializes via omission
        out.append(_prop_line(name, value))
    for prop, value in item.extra:
        if isinstance(value, RawValue):
            out.append(f"{prop}: {value.text}\n")
            continue
        schema = registry.get("package", prop) if registry else None
        if canonical and schema and schema.has_default and value == schema.default:
            continue
        out.append(_prop_line(prop, value))
    return "".join(out)


def serialize_request(request, canonical=True):
    out = [f"Problem: {request.problem_id}\n"]
    for name in _PROBLEM_PROP_ORDER:
        value = getattr(request, name.lower())
        if canonical and value == types.EMPTY_LIST:
            continue
        if not canonical and value == types.EMPTY_LIST:
            out.append(f"{name}: \n")
            continue
        out.append(_prop_line(name, value))
    return "".join(out)


def serialize_cudf(doc, registry=None, canonical=True):
    """Serialize a valid document as UTF-8 bytes in canonical ordering."""
    violations = validate_document(doc, registry)
    if violations:
        raise InvalidDocument(violations)
    chunks = [serialize_package(p, registry, canonical) for p in doc.packages]
    chunks.append(serialize_request(doc.request, canonical))
    return "\n".join(chunks).encode("utf-8")


# ---------------------------------------------------------------------------
# Solution files ("patch against the universe": package stanzas only)


class UnknownSolutionKey(ValueError):
    pass


class MalformedSolution(ValueError):
    pass


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

    Invalid UTF-8 is fatal, as for problem files; any other malformed
    content raises MalformedSolution, since a solution has no stanza that
    could be dropped and recovered from.
    """
    stanzas, errors = _split_stanzas(data)
    if errors:
        raise MalformedSolution(errors[0].reason)
    memo = {}
    entries = []
    for stanza in stanzas:
        if stanza.kind != "package":
            raise MalformedSolution("solution files contain package stanzas only")
        try:
            fields = _parse_package(stanza.lines, None, memo)
        except _StanzaError as exc:
            raise MalformedSolution(f"stanza {stanza.index}: {exc}") from exc
        entries.append(((fields["Package"], fields["Version"]),
                        fields.get("Installed", True)))
    return entries


def apply_solution(problem_doc, entries):
    """Rebuild the outcome document from the problem plus solution flags.

    Unlisted packages end up not installed; keys outside the problem
    domain raise UnknownSolutionKey.  A stanza whose flag does not change
    is shared with the problem document.
    """
    domain = problem_doc.domain()
    flags = {}
    for key, installed in entries:
        if key not in domain:
            raise UnknownSolutionKey(f"{key[0]} {key[1]} not in the problem domain")
        flags[key] = installed
    packages = []
    for p in problem_doc.packages:
        flag = flags.get(p.key, False)
        packages.append(p if p.installed is flag else p.with_installed(flag))
    return CudfDocument(packages=tuple(packages), request=problem_doc.request)
