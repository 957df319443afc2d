"""CUDF file parsing and serialization.

Files are UTF-8 text whose stanzas open at a "Package: " or "Problem: "
line and close at a blank line or the next such line.  One walk over the
lines reads each property line straight into its stanza's record.
Errors local to a stanza are recoverable: the stanza is dropped and
recorded.  Document-level failures (bad encoding, zero or multiple
surviving problem stanzas) are fatal.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager

from . import types
from ._record import record
from .model import (
    CORE_PACKAGE_SCHEMATA,
    CORE_PROBLEM_SCHEMATA,
    CudfDocument,
    InvalidDocument,
    RawValue,
    RequestItem,
    _package_item,
    _raw_value,
    package_extra_defaults,
    required_package_extras,
    validate_document,
)
from .types import EMPTY_LIST


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


_UNPARSED = object()
_INVALID_NAME = object()
# Slot of each core property in a stanza's list of values; the package
# slots are PackageItem's first seven fields, in order.
_PACKAGE_SLOTS = {name: slot for slot, name in enumerate(CORE_PACKAGE_SCHEMATA)}
_PROBLEM_SLOTS = {name: slot for slot, name in enumerate(CORE_PROBLEM_SCHEMATA)}
_REQUIRED_PACKAGE_PROPS = tuple(
    name for name, schema in CORE_PACKAGE_SCHEMATA.items()
    if schema.optionality == "required"
)
_ONLY_PACKAGES = "solution files contain package stanzas only"


class _Reader:
    """The tables of one document being read: each property name resolved
    once, and each lexical value of a property parsed once.  Values are
    immutable, so stanzas share them.  A reader lives for one parse call;
    nothing is kept across calls.

    A solution reader reads a missing Installed as true and drops every
    problem stanza."""

    def __init__(self, registry=None, solution=False):
        self.registry = registry
        self.solution = solution
        # kind -> name -> (slot or None, bit, value type or None, value
        # memo), or _INVALID_NAME; each name of a kind has its own bit.  An
        # extra's memo holds its (name, value) pair, which stanzas share.
        self.props = {"package": {}, "problem": {}}
        self.template = [
            s.default if s.has_default else None for s in CORE_PACKAGE_SCHEMATA.values()]
        self.template[_PACKAGE_SLOTS["Installed"]] = solution
        # (bit, name) of each property a package must carry, in the order
        # in which a missing one is reported
        self.required = [(self._prop("package", name)[1], name) for name in
                         _REQUIRED_PACKAGE_PROPS + required_package_extras(registry)]
        self.required_bits = sum(bit for bit, _ in self.required)
        self.defaults = tuple((self._prop("package", name)[1], (name, default))
                              for name, default in package_extra_defaults(registry))
        self.bounds = []  # (first line, closing line) of each stanza read

    def _prop(self, kind, name):
        """The props entry of a property name, made on first sight."""
        props = self.props[kind]
        prop = props.get(name)
        if prop is None:
            core = CORE_PACKAGE_SCHEMATA if kind == "package" else CORE_PROBLEM_SCHEMATA
            schema = core.get(name)
            if schema is None and not types.is_identifier(name):
                prop = _INVALID_NAME
            else:
                if schema is None and self.registry is not None:
                    schema = self.registry.get(kind, name)
                slots = _PACKAGE_SLOTS if kind == "package" else _PROBLEM_SLOTS
                prop = (slots.get(name), 1 << len(props),
                        schema.value_type if schema else None, {})
            props[name] = prop
        return prop

    def read(self, data):
        """(packages, requests, junk, dropped) of CUDF bytes, in one walk
        over their lines; invalid UTF-8 raises FatalEncoding.

        A "Package: " or "Problem: " line opens a stanza, and a blank line
        or the next such line closes it.  Each property line goes straight
        into the open stanza's slots and extras, and the stanza's record
        is built when it closes; a stanza's first error drops it, and its
        later lines are skipped.  Junk lines and dropped stanzas come back
        as RecoveredErrors, each list in line order.  A carriage return is
        stripped before each newline and at the end of the data.
        """
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FatalEncoding(str(exc)) from exc
        raw = lines = text.split("\n")
        if "\r" in text:
            lines = [line[:-1] if line.endswith("\r") else line for line in raw]
        lines.append("")  # closes the last stanza, one line past the data
        package_props, problem_props = self.props["package"], self.props["problem"]
        template = self.template
        required, required_bits, defaults = self.required, self.required_bits, self.defaults
        bounds = self.bounds
        packages, requests, junk, dropped = [], [], [], []
        slots = props = None  # of the open stanza; None between stanzas
        for number, line in enumerate(lines, 1):
            name, sep, value = line.partition(": ")
            if sep and (name == "Package" or name == "Problem") or not (
                    sep or line.strip(" \t")):
                if slots is not None:
                    bounds.append((first, number))
                    if error is None and props is package_props:
                        if mask & required_bits == required_bits:
                            for bit, pair in defaults:
                                if not mask & bit:
                                    extras.append(pair)
                            extras.sort()
                            packages.append(_package_item(slots, tuple(extras)))
                        else:
                            missing = next(n for bit, n in required if not mask & bit)
                            error = f"missing required property {missing!r}"
                    elif error is None:
                        requests.append(RequestItem(problem_id, *slots))
                    if error is not None:
                        dropped.append((len(bounds) - 1, first, number, error))
                if not sep:
                    slots = None
                    continue
                first, error, mask = number, None, 0
                if name == "Problem":
                    slots, props, problem_id = [EMPTY_LIST] * 3, problem_props, value
                    if self.solution:
                        error = _ONLY_PACKAGES
                    continue
                slots, props, extras = template[:], package_props, []
                # the postmark line is the stanza's Package property
            elif slots is None:
                junk.append(number)
                continue
            elif error is not None:
                continue
            elif not sep:
                if not line.endswith(":"):
                    error = f"missing ': ' separator in {line!r}"
                    continue
                name, value = line[:-1], ""
            prop = props.get(name)
            if prop is None:
                prop = self._prop("package" if props is package_props else "problem", name)
            if prop is _INVALID_NAME:
                error = f"invalid property name {name!r}"
                continue
            slot, bit, value_type, values = prop
            if mask & bit:
                error = f"duplicate property {name!r}"
                continue
            mask |= bit
            parsed = values.get(value, _UNPARSED)
            if parsed is _UNPARSED:
                if value_type is None:
                    if props is problem_props:
                        error = f"unknown problem property {name!r}"
                        continue
                    parsed = _raw_value(value)
                else:
                    try:
                        parsed = types.parse_value(value_type, value)
                    except types.LexicalError as exc:
                        error = f"{name}: {exc.reason}"
                        continue
                if slot is None:
                    parsed = (name, parsed)
                values[value] = parsed
            if slot is None:
                extras.append(parsed)
            else:
                slots[slot] = parsed
        if junk or dropped:
            # Bytes before each line a range starts or ends at, cut at the end of
            # the data: the UTF-8 length of the raw lines and newlines before it.
            ends = {n for _, first, end, _ in dropped for n in (first, end)}
            before, offset, at = {}, 0, 1
            for number in sorted(ends.union(junk, [n + 1 for n in junk])):
                offset += len("".join(raw[at - 1:number - 1]).encode("utf-8")) + number - at
                before[number], at = min(offset, len(data)), number
            junk = [RecoveredError(-1, (before[number], before[number + 1]),
                                   "content outside any stanza", number) for number in junk]
            dropped = [RecoveredError(index, (before[first], before[end]), reason, first)
                       for index, first, end, reason in dropped]
        return packages, requests, junk, dropped


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


def read_stanzas(data, registry=None):
    """(packages, requests, recovered_errors) of CUDF bytes, each a list in
    line order: the reader's one walk, with no rule on how many problem
    stanzas survive.  Invalid UTF-8 raises FatalEncoding."""
    packages, requests, junk, dropped = _Reader(registry).read(data)
    return packages, requests, junk + dropped


def parse_cudf(data, registry=None):
    """Parse CUDF bytes into a ParseReport.

    Stanza-local errors drop the stanza and are recorded as recoverable;
    encoding failures and a surviving problem-stanza count other than one
    are fatal.
    """
    with collector_paused():
        packages, requests, recovered_errors = read_stanzas(data, registry)
        if len(requests) == 0:
            raise FatalNoProblemStanza("no surviving problem stanza")
        if len(requests) > 1:
            raise FatalMultipleProblemStanzas(f"{len(requests)} problem stanzas")
        doc = CudfDocument(packages=tuple(packages), request=requests[0])
    return ParseReport(document=doc, recovered_errors=recovered_errors)


# ---------------------------------------------------------------------------
# Serialization


def serialize_package(item):
    """One package stanza: Package and Version, then each other core
    property that is not its default, then the extras.

    A formula or list is written when its canonical text is not empty,
    so writing one builds no atoms.
    """
    serialize = types.serialize_value
    out = f"Package: {item.name}\nVersion: {item.version}\n"
    if item.depends._lexical:
        out += f"Depends: {serialize(item.depends)}\n"
    if item.conflicts._lexical:
        out += f"Conflicts: {serialize(item.conflicts)}\n"
    if item.provides._lexical:
        out += f"Provides: {serialize(item.provides)}\n"
    if item.installed:
        out += f"Installed: {serialize(item.installed)}\n"
    if item.keep is not None:
        out += f"Keep: {serialize(item.keep)}\n"
    for prop, value in item.extra:
        if isinstance(value, RawValue):
            out += f"{prop}: {value.text}\n"
        else:
            out += f"{prop}: {serialize(value)}\n"
    return out


def serialize_request(request):
    """The problem stanza; each list is written as Conflicts is."""
    out = f"Problem: {request.problem_id}\n"
    for name, value in (("Install", request.install), ("Remove", request.remove),
                        ("Upgrade", request.upgrade)):
        if value._lexical:
            out += f"{name}: {types.serialize_value(value)}\n"
    return out


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
            packages, _, junk, dropped = _Reader(solution=True).read(data)
        except FatalEncoding as exc:
            raise MalformedSolution(str(exc)) from exc
    if junk:
        raise MalformedSolution(junk[0].reason)
    # Up to the first dropped stanza, the packages are the stanzas in order.
    first_bad = dropped[0] if dropped else None
    end = first_bad.stanza_index if first_bad else len(packages)
    seen = set()
    for index, item in enumerate(packages[:end]):
        if item.key in seen:
            raise MalformedSolution(f"stanza {index}: repeated {item.name} {item.version}")
        seen.add(item.key)
    if first_bad:
        if first_bad.reason is _ONLY_PACKAGES:
            raise MalformedSolution(_ONLY_PACKAGES)
        raise MalformedSolution(f"stanza {first_bad.stanza_index}: {first_bad.reason}")
    return [(item.key, item.installed) for item in packages]


def apply_solution(problem_doc, entries):
    """Rebuild the outcome document from the problem plus solution flags.

    Unlisted packages end up not installed; a key outside the problem
    domain raises MalformedSolution.  Through PackageItem.with_installed, a
    stanza whose flag does not change is shared with the problem document.
    """
    domain = problem_doc.domain()
    flags = {}
    for key, installed in entries:
        if key not in domain:
            raise MalformedSolution(f"{key[0]} {key[1]} not in the problem domain")
        flags[key] = installed
    packages = tuple(p.with_installed(flags.get(p.key, False)) for p in problem_doc.packages)
    return CudfDocument(packages=packages, request=problem_doc.request)
