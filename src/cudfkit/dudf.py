"""DUDF skeleton: typed metadata around opaque distribution-specific
holes, XML serialization, structural validation, and a toy conversion to
CUDF for holes that already contain CUDF stanzas.

Hole payloads are preserved byte-for-byte and never interpreted;
intensional references are stored but never dereferenced.
"""

from __future__ import annotations

import email.utils
import re
import xml.etree.ElementTree as ET

from . import textio
from ._record import record
from .model import CudfDocument, InvalidDocument, RequestItem, validate_document
from .types import EMPTY_LIST, is_subtype_value

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


def validate_dudf(doc):
    """Structural and side-condition violations of the DUDF skeleton."""
    out = []
    if doc.version != DUDF_VERSION:
        out.append(DudfViolation("dudf/version", f"version must be {DUDF_VERSION!r}"))
    parsed = email.utils.parsedate_tz(doc.timestamp)
    if parsed is None:
        out.append(DudfViolation("dudf/timestamp", "not an RFC822 date"))
    elif re.search(r"\d{1,2}\s+[A-Za-z]{3}\s+\d{2}(\s|$)", doc.timestamp):
        # obsolete RFC822 two-digit year; parsedate_tz already widened it
        out.append(
            DudfViolation("dudf/timestamp", "obsolete two-digit year", level="warning")
        )
    if not doc.uid:
        out.append(DudfViolation("dudf/uid", "uid must be non-empty"))
    if not doc.distribution:
        out.append(DudfViolation("dudf/distribution", "distribution identifier missing"))
    for label, pair in (("installer", doc.installer), ("meta-installer", doc.meta_installer)):
        if not pair[0]:
            out.append(DudfViolation(f"dudf/{label}/name", "tool name missing"))
    if not doc.problem.package_universe:
        out.append(
            DudfViolation("dudf/problem/package-universe", "no package lists")
        )
    for i, plist in enumerate(doc.problem.package_universe):
        if not plist.format:
            out.append(
                DudfViolation(
                    f"dudf/problem/package-universe/package-list[{i}]",
                    "format identifier must be non-empty",
                )
            )
    if doc.outcome is not None:
        out.extend(_outcome_violations(
            doc.outcome.result, doc.outcome.error, doc.outcome.package_status))
    return out


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
# XML serialization.  Elements live in the default namespace; annotations
# (format, filename, result, intensional references) become dudf:-prefixed
# attributes since XML attributes do not inherit the default namespace.


def _hole_into(elem, payload):
    if isinstance(payload, Intensional):
        elem.set("dudf:reference", payload.reference)
    else:
        elem.text = payload.text


def _sub(parent, tag, text=None):
    elem = ET.SubElement(parent, tag)
    if text is not None:
        elem.text = text
    return elem


def _status_into(parent, status):
    elem = _sub(parent, "package-status")
    _hole_into(_sub(elem, "installer"), status.installer)
    if status.meta_installer is not None:
        _hole_into(_sub(elem, "meta-installer"), status.meta_installer)


def dudf_to_xml(doc):
    """Serialize a valid DUDF document to XML bytes, a carriage return as
    &#13;; raise InvalidDocument with its error-level violations otherwise.

    Sole-problem submissions have no outcome element.
    """
    violations = [v for v in validate_dudf(doc) if v.level == "error"]
    if violations:
        raise InvalidDocument(violations)

    root = ET.Element("dudf")
    root.set("xmlns", DUDF_NS)
    root.set("xmlns:dudf", DUDF_NS)
    root.set("dudf:version", doc.version)
    _sub(root, "timestamp", doc.timestamp)
    _sub(root, "uid", doc.uid)
    _sub(root, "distribution", doc.distribution)
    for tag, (name, version) in (
        ("installer", doc.installer),
        ("meta-installer", doc.meta_installer),
    ):
        tool = _sub(root, tag)
        _sub(tool, "name", name)
        _sub(tool, "version", version)

    problem = _sub(root, "problem")
    _status_into(problem, doc.problem.package_status)
    universe = _sub(problem, "package-universe")
    for plist in doc.problem.package_universe:
        elem = _sub(universe, "package-list")
        elem.set("dudf:format", plist.format)
        if plist.filename is not None:
            elem.set("dudf:filename", plist.filename)
        _hole_into(elem, plist.payload)
    _hole_into(_sub(problem, "action"), doc.problem.action)
    if doc.problem.desiderata is not None:
        _hole_into(_sub(problem, "desiderata"), doc.problem.desiderata)

    if doc.outcome is not None:
        outcome = _sub(root, "outcome")
        outcome.set("dudf:result", doc.outcome.result)
        if doc.outcome.error is not None:
            _hole_into(_sub(outcome, "error"), doc.outcome.error)
        if doc.outcome.package_status is not None:
            _status_into(outcome, doc.outcome.package_status)

    return ET.tostring(root, encoding="utf-8", xml_declaration=True).replace(b"\r", b"&#13;")


# ---------------------------------------------------------------------------
# XML parsing


_NS = f"{{{DUDF_NS}}}"


def _q(tag):
    return _NS + tag


def _children(elem, path, required=(), optional=(), repeated=(), attributes=()):
    """elem's children by name, all checked before any is read: elem has
    no attribute but the dudf: ones named in `attributes`, each child is
    in the DUDF namespace and listed, a name outside `repeated` occurs
    once at most, and every `required` name occurs.  A `repeated` name
    maps to the list of its elements, an absent optional one to None.
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
    names = (*required, *optional, *repeated)
    texts = [elem.text, *(child.tail for child in elem)] if names else ()
    if any(text and not text.isspace() for text in texts):
        raise SchemaViolation(path, "stray text")
    found = {**dict.fromkeys(optional), **{name: [] for name in repeated}}
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
    for name in required:
        if name not in found:
            raise SchemaViolation(f"{path}/{name}", "missing element")
    return found


def _text(elem, path, attributes=()):
    _children(elem, path, attributes=attributes)
    return elem.text or ""


def _hole(elem, path, attributes=("reference",)):
    """The hole elem holds, None for no element; `attributes` are the
    dudf: attributes elem may carry."""
    if elem is None:
        return None
    text = _text(elem, path, attributes)
    ref = elem.get(_q("reference"))
    if ref is None:
        return Extensional(text)
    if text.strip():
        raise SchemaViolation(path, "text in an intensional hole")
    return Intensional(ref)


def _status(elem, path):
    holes = _children(elem, path, required=("installer",), optional=("meta-installer",))
    return PackageStatus(_hole(holes["installer"], f"{path}/installer"),
                         _hole(holes["meta-installer"], f"{path}/meta-installer"))


def xml_to_dudf(data):
    """Inverse of dudf_to_xml.  XML that is not DUDF raises SchemaViolation
    naming its path: an element missing, repeated, unexpected or in a
    foreign namespace, markup inside a leaf or a hole, text around the
    elements of any other element, and text in a hole with a
    dudf:reference.  So does any attribute but dudf:version on the root,
    dudf:format, dudf:filename and dudf:reference on a package list,
    dudf:reference on a hole and dudf:result on the outcome.  A comment or
    processing instruction inside the root element is refused too; one
    outside it is ignored."""
    try:
        builder = ET.TreeBuilder(insert_comments=True, insert_pis=True)
        root = ET.fromstring(data, ET.XMLParser(target=builder))
    except (ET.ParseError, LookupError) as exc:  # LookupError: an unknown encoding
        raise SchemaViolation("/", f"not well-formed XML: {exc}") from exc
    if root.tag != _q("dudf"):
        raise SchemaViolation("/", f"root must be dudf in {DUDF_NS}")
    version = root.get(_q("version"))
    if version is None:
        raise SchemaViolation("dudf", "missing dudf:version attribute")
    top = _children(root, "dudf", required=("timestamp", "uid", "distribution", "installer",
                                            "meta-installer", "problem"), optional=("outcome",),
                    attributes=("version",))
    tools = []
    for tag in ("installer", "meta-installer"):
        leaves = _children(top[tag], f"dudf/{tag}", required=("name", "version"))
        tools.append((_text(leaves["name"], f"dudf/{tag}/name"),
                      _text(leaves["version"], f"dudf/{tag}/version")))

    problem = _children(top["problem"], "dudf/problem", optional=("desiderata",),
                        required=("package-status", "package-universe", "action"))
    path = "dudf/problem/package-universe"
    package_lists = []
    for i, elem in enumerate(_children(problem["package-universe"], path,
                                       repeated=("package-list",))["package-list"]):
        fmt = elem.get(_q("format"))
        if not fmt:
            raise SchemaViolation(f"{path}/package-list[{i}]", "missing dudf:format annotation")
        hole = _hole(elem, f"{path}/package-list[{i}]", ("format", "filename", "reference"))
        package_lists.append(PackageList(fmt, hole, elem.get(_q("filename"))))

    outcome = None
    if top["outcome"] is not None:
        parts = _children(top["outcome"], "dudf/outcome", optional=("error", "package-status"),
                          attributes=("result",))
        result = top["outcome"].get(_q("result"))
        error, status = parts["error"], parts["package-status"]
        violations = _outcome_violations(result, error, status)
        if violations:
            raise SchemaViolation(violations[0].path, violations[0].detail)
        outcome = DudfOutcome(
            result, _hole(error, "dudf/outcome/error"),
            None if status is None else _status(status, "dudf/outcome/package-status"))

    return DudfDocument(
        timestamp=_text(top["timestamp"], "dudf/timestamp"),
        uid=_text(top["uid"], "dudf/uid"),
        distribution=_text(top["distribution"], "dudf/distribution"),
        installer=tools[0],
        meta_installer=tools[1],
        problem=DudfProblem(
            _status(problem["package-status"], "dudf/problem/package-status"),
            tuple(package_lists),
            _hole(problem["action"], "dudf/problem/action"),
            _hole(problem["desiderata"], "dudf/problem/desiderata"),
        ),
        outcome=outcome,
        version=version,
    )


# ---------------------------------------------------------------------------
# Toy DUDF -> CUDF conversion for holes already containing CUDF stanzas


def _extensional_text(payload, where):
    if isinstance(payload, Intensional):
        raise IntensionalHole(f"{where} is intensional; expand it first")
    return payload.text


def _parse_stanzas(text, where, installed=None):
    if not text.strip():
        return []
    body = text if text.endswith("\n") else text + "\n"
    # borrow the CUDF parser by appending a throwaway problem stanza
    try:
        report = textio.parse_cudf((body + "\nProblem: _\n").encode("utf-8"))
    except textio.FatalParseError as exc:
        raise ConversionError(f"{where}: {exc}") from exc
    if report.recovered_errors:
        reasons = "; ".join(e.reason for e in report.recovered_errors)
        raise ConversionError(f"{where}: {reasons}")
    packages = report.document.packages
    if installed is not None:
        return [p.with_installed(installed) for p in packages]
    return list(packages)


def toy_convert(doc):
    """Assemble a CUDF document from extensional holes containing CUDF
    package stanzas and an action hole in problem-stanza syntax.

    The uid becomes the Problem line, so it must be a oneliner, and the
    action hole may hold request properties only: a line break in the
    uid or a package stanza in the hole would change the problem."""
    if not is_subtype_value(doc.uid, "oneliner"):
        raise ConversionError("uid is not a oneliner")
    status_text = _extensional_text(doc.problem.package_status.installer, "package-status")
    packages = _parse_stanzas(status_text, "package-status", installed=True)
    for i, plist in enumerate(doc.problem.package_universe):
        if plist.format != "cudf-stanzas":
            raise UnsupportedFormat(f"package-list format {plist.format!r}")
        text = _extensional_text(plist.payload, f"package-list[{i}]")
        packages.extend(_parse_stanzas(text, f"package-list[{i}]"))

    action_text = _extensional_text(doc.problem.action, "action")
    try:
        report = textio.parse_cudf(
            f"Problem: {doc.uid}\n{action_text}".encode("utf-8")
        )
    except textio.FatalParseError as exc:
        raise ConversionError(
            "action hole did not parse as a problem stanza"
        ) from exc
    if report.recovered_errors:
        raise ConversionError("action hole did not parse as a problem stanza")
    if report.document.packages:
        raise ConversionError("action hole holds a package stanza")
    request = report.document.request

    out = CudfDocument(packages=tuple(packages), request=request)
    violations = validate_document(out)
    if violations:
        raise ConversionError("; ".join(v.detail for v in violations))
    return out
