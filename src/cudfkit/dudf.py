"""DUDF skeleton: typed metadata around opaque distribution-specific
holes, XML serialization, structural validation, and a toy conversion to
CUDF for holes that already contain CUDF stanzas.

The skeleton is stated once, in `_SKELETON`: each record's parts in
document order, each with its tag, field, kind (leaf text, dudf:
attribute, hole, (name, version) pair or nested record) and whether it
is optional or repeated.  `_read` reads by it for `xml_to_dudf`, with
`_children` as its one structural check; `_write` writes by it for
`dudf_to_xml` and finds for `validate_dudf` the texts it would write and
the parts of the wrong type.

Hole payloads are preserved byte-for-byte and never interpreted;
intensional references are stored but never dereferenced.
"""

from __future__ import annotations

import collections
import email.utils
import re
import reprlib
import xml.etree.ElementTree as ET

from . import textio
from ._record import record
from .model import CudfDocument, InvalidDocument, validate_document
from .types import is_oneliner

DUDF_NS = "http://www.mancoosi.org/2008/cudf/dudf"
DUDF_VERSION = "1.0"


class SchemaViolation(InvalidDocument):
    """XML that xml_to_dudf cannot read as DUDF: the first rule it breaks,
    as the one violation of an invalid document."""

    def __init__(self, path, reason):
        self.path = path
        self.reason = reason
        super().__init__([DudfViolation(path, reason)])
        self.args = (f"{path}: {reason}",)  # the text names the path too


class ConversionError(ValueError):
    pass


class UnsupportedFormat(ConversionError):
    pass


class IntensionalHole(ConversionError):
    pass


@record
class Extensional:
    text: str


@record
class Intensional:
    reference: str  # e.g. a checksum or URL; never dereferenced here


@record
class PackageList:
    format: str
    payload: object
    filename: str | None = None


@record
class PackageStatus:
    installer: object  # hole
    meta_installer: object | None = None


@record
class DudfProblem:
    package_status: PackageStatus
    package_universe: tuple[PackageList, ...] = ()
    action: object = Extensional("")
    desiderata: object | None = None


@record
class DudfOutcome:
    result: str  # "success" | "failure"
    error: object | None = None  # failure only
    package_status: PackageStatus | None = None  # success only


@record
class DudfDocument:
    timestamp: str
    uid: str
    distribution: str
    installer: tuple[str, str]  # (name, version)
    meta_installer: tuple[str, str]
    problem: DudfProblem
    outcome: DudfOutcome | None = None
    version: str = DUDF_VERSION


@record
class DudfViolation:
    path: str
    detail: str
    level: str = "error"  # "error" | "warning"


# ---------------------------------------------------------------------------
# The skeleton.  Elements live in the default namespace; annotations (format,
# filename, result, intensional references) become dudf:-prefixed attributes
# since XML attributes do not inherit the default namespace.

_LEAF, _ATTRIBUTE, _HOLE, _PAIR = "leaf", "attribute", "hole", "pair"
_ONE, _OPTIONAL, _REPEATED = "one", "optional", "repeated"
# A record's part: tag (an element, a dudf: attribute, or "" for the record's element),
# field, kind (above, or a nested record's class), occurrence (optional: None if absent;
# repeated: tag is "outer/item"), and attribute values refused before any child, and why.
_Part = collections.namedtuple("_Part", "tag field kind occurs refused reason",
                               defaults=(_ONE, (), ""))
_ROOT = "dudf"
_NS = f"{{{DUDF_NS}}}"
_REFERENCE = "reference"  # the attribute of a hole whose payload is a reference
_PAIR_LEAVES = ("name", "version")
# What a part of each kind holds: a record or a text is checked on its own.
_TYPES = {_HOLE: (Extensional, Intensional), _PAIR: tuple}
_SKELETON = {
    DudfDocument: (
        _Part("version", "version", _ATTRIBUTE, _ONE, (None,), "missing dudf:version attribute"),
        _Part("timestamp", "timestamp", _LEAF),
        _Part("uid", "uid", _LEAF),
        _Part("distribution", "distribution", _LEAF),
        _Part("installer", "installer", _PAIR),
        _Part("meta-installer", "meta_installer", _PAIR),
        _Part("problem", "problem", DudfProblem),
        _Part("outcome", "outcome", DudfOutcome, _OPTIONAL),
    ),
    DudfProblem: (
        _Part("package-status", "package_status", PackageStatus),
        _Part("package-universe/package-list", "package_universe", PackageList, _REPEATED),
        _Part("action", "action", _HOLE),
        _Part("desiderata", "desiderata", _HOLE, _OPTIONAL),
    ),
    PackageStatus: (
        _Part("installer", "installer", _HOLE),
        _Part("meta-installer", "meta_installer", _HOLE, _OPTIONAL),
    ),
    PackageList: (
        _Part("format", "format", _ATTRIBUTE, _ONE, (None, ""), "missing dudf:format annotation"),
        _Part("filename", "filename", _ATTRIBUTE, _OPTIONAL),
        _Part("", "payload", _HOLE),
    ),
    DudfOutcome: (
        _Part("result", "result", _ATTRIBUTE),  # absent, it reads as None: see the rules
        _Part("error", "error", _HOLE, _OPTIONAL),
        _Part("package-status", "package_status", PackageStatus, _OPTIONAL),
    ),
}


def validate_dudf(doc):
    """Structural and side-condition violations of the DUDF skeleton.  A
    part of the wrong type is reported alone: the other rules read it."""
    texts, out = [], []
    _write(DudfDocument, doc, ET.Element(_ROOT), _ROOT, texts, out)
    out += [DudfViolation(path, f"expected a str, not {reprlib.repr(text)}")
            for path, text in texts if not isinstance(text, str)]
    if out:
        return out
    if doc.version != DUDF_VERSION:
        out.append(DudfViolation("dudf/version", f"version must be {DUDF_VERSION!r}"))
    if email.utils.parsedate_tz(doc.timestamp) is None:
        out.append(DudfViolation("dudf/timestamp", "not an RFC822 date"))
    elif re.search(r"\d{1,2}\s+[A-Za-z]{3}\s+\d{2}(\s|$)", doc.timestamp):
        # obsolete RFC822 two-digit year; parsedate_tz already widened it
        out.append(DudfViolation("dudf/timestamp", "obsolete two-digit year", level="warning"))
    if not doc.uid:
        out.append(DudfViolation("dudf/uid", "uid must be non-empty"))
    if not doc.distribution:
        out.append(DudfViolation("dudf/distribution", "distribution identifier missing"))
    for label, pair in (("installer", doc.installer), ("meta-installer", doc.meta_installer)):
        if not pair[0]:
            out.append(DudfViolation(f"dudf/{label}/name", "tool name missing"))
    universe = "dudf/problem/package-universe"
    if not doc.problem.package_universe:
        out.append(DudfViolation(universe, "no package lists"))
    for i, plist in enumerate(doc.problem.package_universe):
        if not plist.format:
            out.append(DudfViolation(f"{universe}/package-list[{i}]",
                                     "format identifier must be non-empty"))
    if doc.outcome is not None:
        out.extend(_outcome_violations(
            doc.outcome.result, doc.outcome.error, doc.outcome.package_status))
    for path, text in texts:
        bad = _NOT_XML_CHAR.search(text)
        if bad:
            out.append(DudfViolation(path, f"{bad.group()!r} is not an XML character"))
    return out


# Any character outside XML 1.0's Char production: no XML text carries it.
_NOT_XML_CHAR = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


def _outcome_violations(result, error, package_status):
    """The outcome rules, in the order xml_to_dudf raises them.  `error`
    and `package_status` are the holes, or the XML elements that hold
    them, or None when absent."""
    out = []
    if result not in ("success", "failure"):
        out.append(DudfViolation("dudf/outcome", "dudf:result must be success or failure"))
    if result == "failure":
        if package_status is not None:
            out.append(DudfViolation("dudf/outcome/package-status",
                                     "package-status only on success"))
        if error is None:
            out.append(DudfViolation("dudf/outcome/error", "failure carries an error"))
    else:
        if error is not None:
            out.append(DudfViolation("dudf/outcome/error", "error only on failure"))
        if package_status is None:
            out.append(DudfViolation("dudf/outcome/package-status",
                                     "success carries the new package status"))
    return out


# ---------------------------------------------------------------------------
# XML serialization


def _write(cls, record, elem, path, texts, mistyped):
    """Write record into elem by the table when it is a cls.  Append to texts
    the (path, text) of each leaf, attribute value and hole payload written,
    and to mistyped a violation for each part of the wrong type, left out."""
    if not isinstance(record, cls):
        mistyped.append(DudfViolation(
            path, f"expected a {cls.__name__}, not {reprlib.repr(record)}"))
        return
    for part in _SKELETON[cls]:
        kind, value = part.kind, getattr(record, part.field)
        where = f"{path}/{part.tag}" if part.tag else path
        if value is None and part.occurs == _OPTIONAL:
            continue
        wanted = tuple if part.occurs == _REPEATED else _TYPES.get(kind, object)
        if not isinstance(value, wanted) or kind is _PAIR and len(value) != 2:
            shown = "tuple" if part.occurs == _REPEATED else kind
            mistyped.append(DudfViolation(where, f"expected a {shown}, not {reprlib.repr(value)}"))
        elif kind is _ATTRIBUTE:
            elem.set(f"dudf:{part.tag}", value)
            texts.append((where, value))
        elif kind is _PAIR:
            pair = ET.SubElement(elem, part.tag)
            for tag, leaf in zip(_PAIR_LEAVES, value):
                ET.SubElement(pair, tag).text = leaf
                texts.append((f"{where}/{tag}", leaf))
        elif kind in (_LEAF, _HOLE):
            target = ET.SubElement(elem, part.tag) if part.tag else elem
            if isinstance(value, Intensional):
                target.set(f"dudf:{_REFERENCE}", value.reference)
                texts.append((where, value.reference))
            else:
                target.text = value if kind is _LEAF else value.text
                texts.append((where, target.text))
        elif part.occurs == _REPEATED:
            outer, _, tag = part.tag.partition("/")
            outer = ET.SubElement(elem, outer)
            for i, item in enumerate(value):
                _write(kind, item, ET.SubElement(outer, tag), f"{where}[{i}]", texts, mistyped)
        else:
            _write(kind, value, ET.SubElement(elem, part.tag), where, texts, mistyped)


def dudf_to_xml(doc):
    """Serialize a valid DUDF document to XML bytes, a carriage return as
    &#13;; raise InvalidDocument with its error-level violations otherwise.
    Sole-problem submissions have no outcome element."""
    violations = [v for v in validate_dudf(doc) if v.level == "error"]
    if violations:
        raise InvalidDocument(violations)
    root = ET.Element(_ROOT, {"xmlns": DUDF_NS, "xmlns:dudf": DUDF_NS})
    _write(DudfDocument, doc, root, _ROOT, [], [])
    return ET.tostring(root, encoding="utf-8", xml_declaration=True).replace(b"\r", b"&#13;")


# ---------------------------------------------------------------------------
# XML parsing


def _children(elem, path, names=(), optional=(), repeated=(), attributes=()):
    """elem's children by name, all checked before any is read: elem has
    no attribute but the dudf: ones named in `attributes`, each child is
    in the DUDF namespace and one of `names`, in their order, a name
    outside `repeated` occurs once at most, and every name outside
    `optional` and `repeated` occurs.  A `repeated` name maps to the
    list of its elements, an absent optional one to None.
    Only whitespace may stand around listed children; with none listed (a
    leaf or a hole) no child may stand at all.  A comment or processing
    instruction is refused wherever it stands, before any name is read."""
    markup = next((child.tag for child in elem if not isinstance(child.tag, str)), None)
    if markup is not None:
        raise SchemaViolation(path, "comment" if markup is ET.Comment else "processing instruction")
    for attribute in elem.attrib:
        name = attribute.removeprefix(_NS)
        if name == attribute or name not in attributes:
            shown = attribute if name == attribute else f"dudf:{name}"
            raise SchemaViolation(path, f"unexpected attribute {shown}")
    texts = [elem.text, *(child.tail for child in elem)] if names else ()
    if any(text and not text.isspace() for text in texts):
        raise SchemaViolation(path, "stray text")
    found = {**dict.fromkeys(optional), **{name: [] for name in repeated}}
    last = 0
    for child in elem:
        name = child.tag.removeprefix(_NS)
        if name == child.tag:
            raise SchemaViolation(f"{path}/{name}", "foreign namespace")
        if name not in names:
            raise SchemaViolation(f"{path}/{name}", "unexpected element")
        if name in repeated:
            found[name].append(child)
        elif found.get(name) is not None:
            raise SchemaViolation(f"{path}/{name}", "repeated element")
        else:
            found[name] = child
        if names.index(name) < last:
            raise SchemaViolation(f"{path}/{name}", "element out of order")
        last = names.index(name)
    for name in names:
        if name not in found:
            raise SchemaViolation(f"{path}/{name}", "missing element")
    return found


def _read(cls, elem, path):
    """The cls record elem holds, read by the table: each attribute value it
    refuses, its children, the outcome rules for an outcome, then each part
    in order.  A part without a tag is a hole in elem, which may hold a reference."""
    parts = _SKELETON[cls]
    for part in parts:
        if elem.get(_NS + part.tag) in part.refused:
            raise SchemaViolation(path, part.reason)
    attributes = [p.tag or _REFERENCE for p in parts if p.kind is _ATTRIBUTE or not p.tag]
    inside = {p: p.tag.partition("/")[0] for p in parts if p.tag and p.kind is not _ATTRIBUTE}
    found = _children(elem, path, list(inside.values()), attributes=attributes,
                      optional=[tag for part, tag in inside.items() if part.occurs == _OPTIONAL])
    nodes = {part.field: elem.get(_NS + part.tag) if part.kind is _ATTRIBUTE
             else found[inside[part]] if part.tag else elem for part in parts}
    for violation in _outcome_violations(**nodes) if cls is DudfOutcome else ():
        raise SchemaViolation(violation.path, violation.detail)  # the first
    return cls(**{part.field: _read_part(part, nodes[part.field], path) for part in parts})


def _read_part(part, node, path):
    """part's value from node: its attribute value, or its element (None if absent)."""
    kind, path = part.kind, f"{path}/{part.tag}" if part.tag else path
    if kind is _ATTRIBUTE or node is None:
        return node
    if kind is _PAIR:
        leaves = _children(node, path, _PAIR_LEAVES)
        return tuple(_read_part(_Part(tag, tag, _LEAF), leaves[tag], path) for tag in _PAIR_LEAVES)
    if kind in (_LEAF, _HOLE):
        if part.tag:  # a hole in the record's own element was checked in _read
            _children(node, path, attributes=(_REFERENCE,) if kind is _HOLE else ())
        text, ref = node.text or "", node.get(_NS + _REFERENCE)
        if ref is None:
            return text if kind is _LEAF else Extensional(text)
        if text.strip():
            raise SchemaViolation(path, "text in an intensional hole")
        return Intensional(ref)
    if part.occurs == _REPEATED:
        outer, _, tag = path.rpartition("/")
        items = _children(node, outer, (tag,), repeated=(tag,))[tag]
        return tuple(_read(kind, item, f"{path}[{i}]") for i, item in enumerate(items))
    return _read(kind, node, path)


def xml_to_dudf(data):
    """Inverse of dudf_to_xml.  XML that is not DUDF raises SchemaViolation
    naming its path and the first rule it breaks (see `_children`, `_read`
    and `_outcome_violations`).  A comment or processing instruction
    outside the root element is ignored."""
    try:
        builder = ET.TreeBuilder(insert_comments=True, insert_pis=True)
        root = ET.fromstring(data, ET.XMLParser(target=builder))
    except (ET.ParseError, LookupError) as exc:  # LookupError: an unknown encoding
        raise SchemaViolation("/", f"not well-formed XML: {exc}") from exc
    if root.tag != _NS + _ROOT:
        raise SchemaViolation("/", f"root must be {_ROOT} in {DUDF_NS}")
    return _read(DudfDocument, root, _ROOT)


# ---------------------------------------------------------------------------
# Toy DUDF -> CUDF conversion for holes already containing CUDF stanzas


def _extensional_text(payload, where):
    if isinstance(payload, Intensional):
        raise IntensionalHole(f"{where} is intensional; expand it first")
    return payload.text


def _parse_stanzas(text, where):
    """The package stanzas of a hole's CUDF text, which may hold no
    problem stanza and nothing the reader drops."""
    if not text.strip():
        return []
    packages, requests, errors = textio.read_stanzas(text.encode("utf-8"))
    if requests:
        raise ConversionError(f"{where} holds a problem stanza")
    if errors:
        raise ConversionError(f"{where}: {'; '.join(e.reason for e in errors)}")
    return packages


def toy_convert(doc):
    """Assemble a CUDF document from extensional holes containing CUDF
    package stanzas and an action hole in problem-stanza syntax.

    The uid becomes the Problem line, so it must be a oneliner, and the
    action hole may hold request properties only: a line break in the
    uid or a package stanza in the hole would change the problem."""
    if not is_oneliner(doc.uid):
        raise ConversionError("uid is not a oneliner")
    status_text = _extensional_text(doc.problem.package_status.installer, "package-status")
    packages = [p.with_installed(True) for p in _parse_stanzas(status_text, "package-status")]
    for i, plist in enumerate(doc.problem.package_universe):
        if plist.format != "cudf-stanzas":
            raise UnsupportedFormat(f"package-list format {plist.format!r}")
        text = _extensional_text(plist.payload, f"package-list[{i}]")
        packages.extend(_parse_stanzas(text, f"package-list[{i}]"))

    action_text = _extensional_text(doc.problem.action, "action")
    stanzas, requests, errors = textio.read_stanzas(
        f"Problem: {doc.uid}\n{action_text}".encode("utf-8"))
    if len(requests) != 1 or errors:
        raise ConversionError("action hole did not parse as a problem stanza")
    if stanzas:
        raise ConversionError("action hole holds a package stanza")

    out = CudfDocument(packages=tuple(packages), request=requests[0])
    violations = validate_document(out)
    if violations:
        raise ConversionError("; ".join(v.detail for v in violations))
    return out
