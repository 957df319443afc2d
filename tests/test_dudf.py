import copy
import random
import string
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cudfkit import dudf, replace, textio
from cudfkit.dudf import (
    ConversionError,
    DudfDocument,
    DudfOutcome,
    DudfProblem,
    Extensional,
    Intensional,
    IntensionalHole,
    PackageList,
    PackageStatus,
    SchemaViolation,
    UnsupportedFormat,
    dudf_to_xml,
    toy_convert,
    validate_dudf,
    xml_to_dudf,
)
from cudfkit.model import InvalidDocument
from test_fuzz import DUDF_XML, mutated, tree_edited

TS = "Tue, 18 Aug 2026 09:30:00 +0200"


def sample(outcome=None, **kw):
    fields = dict(
        timestamp=TS,
        uid="submission-0001",
        distribution="examplix 9.2",
        installer=("exampkg", "1.4"),
        meta_installer=("exampkg-frontend", "0.9"),
        problem=DudfProblem(
            package_status=PackageStatus(installer=Extensional("status payload")),
            package_universe=(
                PackageList("native-db", Extensional("db dump"), filename="Pkgs.db"),
                PackageList("native-db", Intensional("sha256:abcd")),
            ),
            action=Extensional("install something"),
            desiderata=Extensional("keep it small"),
        ),
        outcome=outcome,
    )
    fields.update(kw)
    return DudfDocument(**fields)


# -- validation ---------------------------------------------------------------

def test_valid_document_has_no_violations():
    assert validate_dudf(sample()) == []
    good_outcome = DudfOutcome(
        "success", package_status=PackageStatus(installer=Extensional("after"))
    )
    assert validate_dudf(sample(outcome=good_outcome)) == []
    assert validate_dudf(sample(outcome=DudfOutcome(
        "failure", error=Extensional("boom")))) == []


def test_validation_catches_field_errors():
    cases = {
        "dudf/version": sample(version="2.0"),
        "dudf/timestamp": sample(timestamp="not a date"),
        "dudf/uid": sample(uid=""),
        "dudf/distribution": sample(distribution=""),
        "dudf/installer/name": sample(installer=("", "1.0")),
    }
    for path, doc in cases.items():
        assert path in [v.path for v in validate_dudf(doc)], path


def test_validation_outcome_side_conditions():
    status = PackageStatus(installer=Extensional("x"))
    bad = sample(outcome=DudfOutcome("failure", error=Extensional("e"),
                                     package_status=status))
    assert any(v.path == "dudf/outcome/package-status" for v in validate_dudf(bad))
    bad = sample(outcome=DudfOutcome("success"))
    assert any(v.path == "dudf/outcome/package-status" for v in validate_dudf(bad))
    bad = sample(outcome=DudfOutcome("success", error=Extensional("e"),
                                     package_status=status))
    assert any(v.path == "dudf/outcome/error" for v in validate_dudf(bad))


def test_two_digit_year_is_a_warning():
    doc = sample(timestamp="Tue, 18 Aug 26 09:30:00 +0200")
    violations = validate_dudf(doc)
    assert [v.level for v in violations] == ["warning"]


def test_empty_universe_strictness():
    doc = sample(problem=DudfProblem(
        package_status=PackageStatus(installer=Extensional("s")),
        action=Extensional("a"),
    ))
    assert any(v.path.endswith("package-universe") for v in validate_dudf(doc))


# -- XML round trip -----------------------------------------------------------

def test_xml_roundtrip_examples():
    for doc in (
        sample(),
        sample(outcome=DudfOutcome("failure", error=Extensional("log text"))),
        sample(outcome=DudfOutcome(
            "success",
            package_status=PackageStatus(
                installer=Extensional("after"),
                meta_installer=Intensional("ref:42"),
            ),
        )),
    ):
        assert xml_to_dudf(dudf_to_xml(doc)) == doc


def rand_dudf(rng):
    safe = string.ascii_letters + string.digits + " .:-/"

    def text(lo=1, hi=20):
        return "".join(rng.choice(safe) for _ in range(rng.randint(lo, hi)))

    def hole():
        if rng.random() < 0.3:
            return Intensional(text())
        return Extensional(text(0, 40))

    def status():
        return PackageStatus(
            installer=hole(),
            meta_installer=hole() if rng.random() < 0.5 else None,
        )

    universe = tuple(
        PackageList(text(1, 8), hole(),
                    filename=text() if rng.random() < 0.5 else None)
        for _ in range(rng.randint(1, 3))
    )
    outcome = None
    roll = rng.random()
    if roll < 0.3:
        outcome = DudfOutcome("failure", error=hole())
    elif roll < 0.6:
        outcome = DudfOutcome("success", package_status=status())
    return DudfDocument(
        timestamp=TS,
        uid=text(),
        distribution=text(),
        installer=(text(), text()),
        meta_installer=(text(), text()),
        problem=DudfProblem(
            package_status=status(),
            package_universe=universe,
            action=hole(),
            desiderata=hole() if rng.random() < 0.5 else None,
        ),
        outcome=outcome,
    )


def test_xml_roundtrip_random():
    rng = random.Random(1234)
    for _ in range(50):
        doc = rand_dudf(rng)
        assert xml_to_dudf(dudf_to_xml(doc)) == doc


def test_serializing_invalid_document_fails():
    with pytest.raises(InvalidDocument):
        dudf_to_xml(sample(uid=""))


def _with_lists(*lists):
    return sample(problem=replace(sample().problem, package_universe=lists))


MISTYPED = [
    ("dudf/uid", sample(uid=5)),
    ("dudf/uid", sample(uid=None)),
    ("dudf/problem/package-universe/package-list[0]/filename",
     _with_lists(PackageList("f", Extensional("x"), filename=3))),
    ("dudf/problem/package-universe/package-list[0]", _with_lists(PackageList("f", None))),
    ("dudf/problem/package-universe/package-list[1]",
     _with_lists(PackageList("f", Extensional("x")), "f")),
    ("dudf/problem/action", sample(problem=replace(sample().problem, action="text"))),
    ("dudf/problem/desiderata",
     sample(problem=replace(sample().problem, desiderata=Intensional(None)))),
    ("dudf/installer", sample(installer=("x",))),
    ("dudf/installer", sample(installer=())),
    ("dudf/meta-installer/version", sample(meta_installer=("x", 1))),
    ("dudf/problem", sample(problem="problem")),
    ("dudf/outcome/result", sample(outcome=DudfOutcome(None, error=Extensional("e")))),
]


@pytest.mark.parametrize("path, doc", MISTYPED)
def test_a_part_of_the_wrong_type_is_reported_at_its_path(path, doc):
    assert [v.path for v in validate_dudf(doc)] == [path]
    assert validate_dudf(doc)[0].detail.startswith("expected a ")
    with pytest.raises(InvalidDocument) as info:
        dudf_to_xml(doc)
    assert [v.path for v in info.value.violations] == [path]


# -- broken XML fixtures ------------------------------------------------------

def _broken(data, old, new):
    return data.replace(old.encode(), new.encode())


def test_broken_fixtures():
    data = dudf_to_xml(sample())

    with pytest.raises(SchemaViolation, match="root must be dudf"):
        xml_to_dudf(_broken(data, dudf.DUDF_NS, "http://example.org/other"))
    with pytest.raises(SchemaViolation, match="uid"):
        xml_to_dudf(_broken(data, "<uid>submission-0001</uid>", ""))
    with pytest.raises(SchemaViolation, match="not well-formed"):
        xml_to_dudf(data[:-5])
    with pytest.raises(SchemaViolation, match="dudf:version"):
        xml_to_dudf(_broken(data, ' dudf:version="1.0"', ""))

    failed = dudf_to_xml(sample(outcome=DudfOutcome("failure",
                                                    error=Extensional("boom"))))
    smuggled = _broken(
        failed, "</outcome>",
        "<package-status><installer>x</installer></package-status></outcome>",
    )
    with pytest.raises(SchemaViolation, match="only on success"):
        xml_to_dudf(smuggled)

    foreign = _broken(data, "</dudf>",
                      '<extra xmlns="http://example.org/x"/></dudf>')
    with pytest.raises(SchemaViolation, match="foreign namespace"):
        xml_to_dudf(foreign)


# -- toy conversion -----------------------------------------------------------

STATUS_TEXT = """Package: core
Version: 1
"""

UNIVERSE_TEXT = """Package: core
Version: 2

Package: addon
Version: 1
Depends: core >= 2
"""


def convertible(action="Install: addon", universe=UNIVERSE_TEXT):
    return sample(problem=DudfProblem(
        package_status=PackageStatus(installer=Extensional(STATUS_TEXT)),
        package_universe=(
            PackageList("cudf-stanzas", Extensional(universe)),
        ),
        action=Extensional(action),
    ))


def test_toy_convert():
    out = toy_convert(convertible())
    assert {(p.key, p.installed) for p in out.packages} == {
        (("core", 1), True), (("core", 2), False), (("addon", 1), False),
    }
    assert out.request.problem_id == "submission-0001"
    assert [a.name for a in out.request.install.items] == ["addon"]
    # output is a valid CUDF document end to end
    report = textio.parse_cudf(textio.serialize_cudf(out))
    assert report.recovered_errors == []
    assert report.document == out


def test_toy_convert_rejections():
    native = sample(problem=DudfProblem(
        package_status=PackageStatus(installer=Extensional(STATUS_TEXT)),
        package_universe=(PackageList("native-db", Extensional(UNIVERSE_TEXT)),),
        action=Extensional("Install: addon"),
    ))
    with pytest.raises(UnsupportedFormat):
        toy_convert(native)
    intensional = sample(problem=DudfProblem(
        package_status=PackageStatus(installer=Intensional("ref")),
        package_universe=(PackageList("cudf-stanzas", Extensional("")),),
        action=Extensional(""),
    ))
    with pytest.raises(IntensionalHole):
        toy_convert(intensional)
    # a duplicate (name, version) across status and universe is invalid
    with pytest.raises(ConversionError):
        toy_convert(convertible(universe=STATUS_TEXT))
    with pytest.raises(ConversionError):
        toy_convert(convertible(action="Install: not valid syntax ("))


# -- the rules no other test reaches --------------------------------------------

def test_validation_outcome_result_and_failure_error():
    doc = sample(outcome=DudfOutcome("maybe", package_status=PackageStatus(
        installer=Extensional("x"))))
    assert [(v.path, v.detail) for v in validate_dudf(doc)] == [
        ("dudf/outcome", "dudf:result must be success or failure")]
    doc = sample(outcome=DudfOutcome("failure"))
    assert [(v.path, v.detail) for v in validate_dudf(doc)] == [
        ("dudf/outcome/error", "failure carries an error")]


def test_validation_rejects_an_empty_format():
    doc = sample(problem=replace(sample().problem, package_universe=(
        PackageList("", Extensional("db dump")),)))
    assert [(v.path, v.detail) for v in validate_dudf(doc)] == [
        ("dudf/problem/package-universe/package-list[0]",
         "format identifier must be non-empty")]
    with pytest.raises(InvalidDocument, match="format identifier must be non-empty"):
        dudf_to_xml(doc)


def test_broken_fixtures_in_the_dudf_namespace():
    data = dudf_to_xml(sample())
    with pytest.raises(SchemaViolation, match="^dudf/problem/extra: unexpected element$"):
        xml_to_dudf(_broken(data, "</problem>", "<extra/></problem>"))
    with pytest.raises(SchemaViolation) as info:
        xml_to_dudf(_broken(data, ' dudf:format="native-db" dudf:filename', " dudf:filename"))
    assert (info.value.path, info.value.reason) == (
        "dudf/problem/package-universe/package-list[0]", "missing dudf:format annotation")


def test_schema_violation_is_an_invalid_document():
    exc = SchemaViolation("dudf/uid", "missing element")
    assert isinstance(exc, InvalidDocument)
    assert (exc.path, exc.reason, str(exc)) == ("dudf/uid", "missing element",
                                                "dudf/uid: missing element")
    assert [(v.path, v.detail) for v in exc.violations] == [("dudf/uid", "missing element")]


def test_toy_convert_holes():
    # An empty hole adds no stanza.
    out = toy_convert(convertible(universe="  \n"))
    assert [(p.key, p.installed) for p in out.packages] == [(("core", 1), True)]
    with pytest.raises(ConversionError, match=r"^package-list\[0\] holds a problem stanza$"):
        toy_convert(convertible(universe=UNIVERSE_TEXT + "\nProblem: smuggled\n"))
    with pytest.raises(ConversionError,
                       match=r"^package-list\[0\]: Version: not an integer: 'x'$"):
        toy_convert(convertible(universe="Package: addon\nVersion: x\n"))
    with pytest.raises(ConversionError,
                       match="^action hole did not parse as a problem stanza$"):
        toy_convert(convertible(action="Install: addon\n\njunk"))


def test_each_hole_is_read_by_the_cudf_reader_under_its_own_rule():
    # A package hole holds no problem stanza, refused before what it dropped.
    status = convertible()
    status = replace(status, problem=replace(status.problem, package_status=PackageStatus(
        installer=Extensional(STATUS_TEXT + "\nProblem: smuggled\n\njunk\n"))))
    with pytest.raises(ConversionError, match="^package-status holds a problem stanza$"):
        toy_convert(status)
    # The action hole gives exactly one problem stanza, and no package.
    with pytest.raises(ConversionError, match="^action hole did not parse as a problem stanza$"):
        toy_convert(convertible(action="Install: addon\n\nProblem: other\n"))
    with pytest.raises(ConversionError, match="^action hole holds a package stanza$"):
        toy_convert(convertible(action="Package: ghost\nVersion: 1\n"))
    # A hole read without a final newline or with CRLF line ends reads as it would with one.
    out = toy_convert(convertible(action="Install: addon\r\n", universe=UNIVERSE_TEXT.rstrip()))
    assert out == toy_convert(convertible())


# -- nothing in the XML is dropped ----------------------------------------------

FULL = sample(
    problem=replace(sample().problem, package_status=PackageStatus(
        Extensional("status payload"), Extensional("front-end status"))),
    outcome=DudfOutcome("success", package_status=PackageStatus(
        Extensional("after"), Intensional("ref:42"))),
)
FAILED = sample(outcome=DudfOutcome("failure", error=Extensional("boom")))

LEAVES = ["dudf/timestamp", "dudf/uid", "dudf/distribution",
          "dudf/installer/name", "dudf/installer/version",
          "dudf/meta-installer/name", "dudf/meta-installer/version"]
HOLES = ["dudf/problem/package-status/installer",
         "dudf/problem/package-status/meta-installer",
         "dudf/problem/package-universe/package-list[0]",
         "dudf/problem/package-universe/package-list[1]",
         "dudf/problem/action", "dudf/problem/desiderata",
         "dudf/outcome/error",
         "dudf/outcome/package-status/installer",
         "dudf/outcome/package-status/meta-installer"]
CONTAINERS = ["dudf", "dudf/installer", "dudf/meta-installer", "dudf/problem",
              "dudf/problem/package-status", "dudf/problem/package-universe",
              "dudf/outcome", "dudf/outcome/package-status"]
SINGLES = [path for path in LEAVES + HOLES + CONTAINERS
           if path != "dudf" and "package-list" not in path]


def _q(tag):
    return f"{{{dudf.DUDF_NS}}}{tag}"


def _element(root, path):
    """The element of root at a violation path such as .../package-list[1]."""
    for step in path.split("/")[1:]:
        name, _, index = step.partition("[")
        root = root.findall(_q(name))[int(index[:-1] or 0)]
    return root


def _edited(path, edit, doc=None):
    """The XML of doc (by default FAILED for the error hole, FULL
    otherwise) with edit applied to the element at a violation path."""
    doc = doc or (FAILED if path.endswith("/error") else FULL)
    root = ET.fromstring(dudf_to_xml(doc))
    edit(_element(root, path))
    return ET.tostring(root)


def _refused(data):
    with pytest.raises(SchemaViolation) as info:
        xml_to_dudf(data)
    return info.value.path, info.value.reason


def _markup(elem):
    ET.SubElement(elem, _q("b")).tail = "tail"


def _second_copy(path):
    """The XML with a second copy of the element at path."""
    parent, _, name = path.rpartition("/")
    return _edited(parent, lambda elem: elem.append(copy.deepcopy(elem.find(_q(name)))),
                   FAILED if name == "error" else FULL)


def _stray(where):
    def stray(elem):
        if where == "text":
            elem.text = "junk"
        else:
            elem[0].tail = "\n junk \n"
    return stray


def _intensional_text(elem):
    elem.set(_q("reference"), "sha256:abcd")
    elem.text = "payload"


def _processing_instruction(elem):
    elem.append(ET.ProcessingInstruction("foo", "bar"))


def _comment(elem):
    elem.append(ET.Comment(" c "))


def _foreign_attribute(elem):
    elem.set("{urn:example}note", "1")


def _misplaced_dudf_attribute(path):
    # dudf:result belongs to the outcome alone, dudf:reference to holes.
    name = "reference" if path in LEAVES + CONTAINERS else "result"
    return name, lambda elem: elem.set(_q(name), "x")


@pytest.mark.parametrize("path", LEAVES + HOLES)
def test_markup_inside_a_leaf_or_hole_is_refused(path):
    assert _refused(_edited(path, _markup)) == (f"{path}/b", "unexpected element")


@pytest.mark.parametrize("path", SINGLES)
def test_a_second_copy_of_a_single_element_is_refused(path):
    assert _refused(_second_copy(path)) == (path, "repeated element")


def _first_two_swapped(elem):
    first = elem[0]
    elem.remove(first)
    elem.insert(1, first)


# Each container of FULL with two different first children, and the first.
FIRST_CHILDREN = {"dudf": "timestamp", "dudf/installer": "name",
                  "dudf/meta-installer": "name", "dudf/problem": "package-status",
                  "dudf/problem/package-status": "installer",
                  "dudf/outcome/package-status": "installer"}


@pytest.mark.parametrize("path, first", FIRST_CHILDREN.items())
def test_an_element_out_of_order_is_refused(path, first):
    """The written XML could not keep another order, so it is not read."""
    assert _refused(_edited(path, _first_two_swapped)) == (f"{path}/{first}",
                                                           "element out of order")


@pytest.mark.parametrize("path", CONTAINERS)
@pytest.mark.parametrize("where", ["text", "tail"])
def test_stray_text_in_a_container_is_refused(path, where):
    assert _refused(_edited(path, _stray(where))) == (path, "stray text")


@pytest.mark.parametrize("path", HOLES)
def test_text_in_an_intensional_hole_is_refused(path):
    assert _refused(_edited(path, _intensional_text)) == (path, "text in an intensional hole")


def test_whitespace_around_elements_and_in_an_intensional_hole_is_accepted():
    assert xml_to_dudf(_spaced_problem()) == FULL
    assert xml_to_dudf(_spaced_reference()) == FULL


def _spaced_problem():
    def spaced(elem):
        elem.text = "\n  "
        for child in elem:
            child.tail = "\n  "
    return _edited("dudf/problem", spaced)


def _spaced_reference():
    return _edited("dudf/problem/package-universe/package-list[1]",
                   lambda elem: setattr(elem, "text", " \n"))


# -- no attribute is dropped ---------------------------------------------------

SUBMISSION = (Path(__file__).parent / "golden" / "submission.xml").read_bytes()


def _once(data, old, new):
    assert data.count(old.encode()) == 1, old
    return _broken(data, old, new)


def test_the_golden_submission_reads_with_its_attributes():
    doc = xml_to_dudf(SUBMISSION)
    assert doc.version == "1.0"
    assert [(p.format, p.filename) for p in doc.problem.package_universe] == [
        ("cudf-stanzas", "universe.cudf")]


UNEXPECTED_ATTRIBUTES = [
    ('dudf:filename="', 'dudf:filenam="',
     "dudf/problem/package-universe/package-list[0]", "dudf:filenam"),
    ("<uid>", '<uid dudf:reference="sha1:0">', "dudf/uid", "dudf:reference"),
    ('dudf:version="1.0"', 'dudf:version="1.0" dudf:result="success"', "dudf",
     "dudf:result"),
    ("<action>", '<action dudf:format="cudf-stanzas">', "dudf/problem/action",
     "dudf:format"),
    ("<package-status>", '<package-status dudf:reference="sha1:0">',
     "dudf/problem/package-status", "dudf:reference"),
    ("<problem>", '<problem lang="en">', "dudf/problem", "lang"),
]


@pytest.mark.parametrize("old, new, path, shown", UNEXPECTED_ATTRIBUTES,
                         ids=["filename", "uid", "root", "action", "package-status", "problem"])
def test_an_unexpected_attribute_of_the_golden_submission_is_refused(old, new, path, shown):
    assert _refused(_once(SUBMISSION, old, new)) == (path, f"unexpected attribute {shown}")


@pytest.mark.parametrize("path", LEAVES + HOLES + CONTAINERS)
def test_a_processing_instruction_in_any_element_is_refused(path):
    data = _edited(path, _processing_instruction)
    assert _refused(data) == (path, "processing instruction")


def test_a_processing_instruction_outside_the_root_is_ignored():
    assert xml_to_dudf(_outside_the_root(b"<?before x?>", b"<?after y?>")) == xml_to_dudf(
        SUBMISSION)


@pytest.mark.parametrize("path", LEAVES + HOLES + CONTAINERS)
def test_a_comment_in_any_element_is_refused(path):
    assert _refused(_edited(path, _comment)) == (path, "comment")


def test_a_comment_outside_the_root_is_ignored():
    data = _outside_the_root(b"<!-- before -->", b"<!-- after -->")
    assert xml_to_dudf(data) == xml_to_dudf(SUBMISSION)


def _outside_the_root(before, after):
    """SUBMISSION with markup after its declaration and after its root."""
    declaration, _, rest = SUBMISSION.partition(b"?>")
    return declaration + b"?>\n" + before + rest + after + b"\n"


@pytest.mark.parametrize("path", LEAVES + HOLES + CONTAINERS)
def test_an_attribute_in_another_namespace_is_refused(path):
    data = _edited(path, _foreign_attribute)
    assert _refused(data) == (path, "unexpected attribute {urn:example}note")


@pytest.mark.parametrize("path", LEAVES + HOLES + CONTAINERS)
def test_a_dudf_attribute_outside_its_elements_is_refused(path):
    name, edit = _misplaced_dudf_attribute(path)
    assert _refused(_edited(path, edit)) == (path, f"unexpected attribute dudf:{name}")


# -- what the reader accepts, it reads without loss ------------------------------

def _refusal_inputs():
    """The XML that each refusal test above reads, and the accepted
    variants beside them."""
    everywhere = LEAVES + HOLES + CONTAINERS
    edits = [(path, _markup) for path in LEAVES + HOLES]
    edits += [(path, _stray(where)) for path in CONTAINERS for where in ("text", "tail")]
    edits += [(path, _intensional_text) for path in HOLES]
    edits += [(path, edit) for path in everywhere
              for edit in (_processing_instruction, _comment, _foreign_attribute)]
    edits += [(path, _misplaced_dudf_attribute(path)[1]) for path in everywhere]
    return ([_edited(path, edit) for path, edit in edits]
            + [_second_copy(path) for path in SINGLES]
            + [_once(SUBMISSION, old, new) for old, new, _, _ in UNEXPECTED_ATTRIBUTES]
            + [_spaced_problem(), _spaced_reference(),
               _outside_the_root(b"<?before x?>", b"<?after y?>"),
               _outside_the_root(b"<!-- before -->", b"<!-- after -->")])



def _holes(doc):
    """(violation path, payload) of every hole doc holds."""
    def status(path, status):
        return [(f"{path}/installer", status.installer),
                (f"{path}/meta-installer", status.meta_installer)]
    problem, outcome = doc.problem, doc.outcome
    holes = status("dudf/problem/package-status", problem.package_status)
    holes += [(f"dudf/problem/package-universe/package-list[{i}]", plist.payload)
              for i, plist in enumerate(problem.package_universe)]
    holes += [("dudf/problem/action", problem.action),
              ("dudf/problem/desiderata", problem.desiderata)]
    if outcome is not None:
        holes.append(("dudf/outcome/error", outcome.error))
        if outcome.package_status is not None:
            holes += status("dudf/outcome/package-status", outcome.package_status)
    return [(path, hole) for path, hole in holes if hole is not None]


def _root_c14n(data):
    """ET.canonicalize(data, strip_text=True) of the root element alone,
    each namespace prefix rewritten (a prefix only spells its namespace).
    C14N writes a processing instruction outside the root (which
    xml_to_dudf ignores) on a line of its own, and escapes every "<"
    inside the root's text, so "<?" opens a line only there."""
    text = ET.canonicalize(data, strip_text=True, rewrite_prefixes=True)
    start = 0
    while text.startswith("<?", start):
        start = text.index("?>\n", start) + 3
    end = text.find("\n<?", start)
    return text[start:] if end < 0 else text[start:end]


def assert_read_without_loss(data):
    """When xml_to_dudf accepts data and dudf_to_xml can write the record
    (validate_dudf finds no error in it), the written XML is data in C14N
    with its text stripped, each hole's payload is the element's text or
    reference exactly, and the written XML reads back as the same record."""
    try:
        doc = xml_to_dudf(data)
    except SchemaViolation:
        return
    if any(v.level == "error" for v in validate_dudf(doc)):
        return
    written = dudf_to_xml(doc)
    assert _root_c14n(written) == _root_c14n(data)
    root = ET.fromstring(data)
    for path, hole in _holes(doc):
        elem = _element(root, path)
        if isinstance(hole, Intensional):
            assert hole.reference == elem.get(_q("reference")), path
        else:
            assert hole.text == (elem.text or ""), path
    assert xml_to_dudf(written) == doc


def test_every_refusal_input_is_refused_or_read_without_loss():
    for data in _refusal_inputs():
        assert_read_without_loss(data)


def test_a_carriage_return_in_text_is_written_as_a_character_reference():
    data = _once(SUBMISSION, "<action>Install: ", "<action>Install:&#13; ")
    assert xml_to_dudf(data).problem.action == Extensional("Install:\r postfix")
    assert b"Install:&#13; postfix" in dudf_to_xml(xml_to_dudf(data))
    assert_read_without_loss(data)


def _xml_char(c):
    """Whether XML 1.0's Char production admits c."""
    n = ord(c)
    return c in "\t\n\r" or 0x20 <= n <= 0xD7FF or 0xE000 <= n <= 0xFFFD or n >= 0x10000


ATTRIBUTES = ["dudf/version", "dudf/outcome/result"] + [
    f"dudf/problem/package-universe/package-list[{i}]/{name}"
    for i in (0, 1) for name in ("format", "filename")]
# Text with characters that no XML text carries, not even as a reference.
NOT_XML = ("\x00", "\x08", "\x0b", "\x1f", "\ud800", "\udfff", "\ufffe", "\uffff")
xml_unsafe_texts = st.lists(st.text(max_size=4) | st.sampled_from(NOT_XML), max_size=4).map("".join)


def _document_with(path, text):
    """FULL (FAILED for the error hole) with text at the leaf, attribute
    or hole that path names: a hole's text, or its reference."""
    def at(p, default):
        return text if p == path else default

    def hole(p, default):
        if isinstance(default, Intensional):
            return Intensional(at(p, default.reference))
        return None if default is None else Extensional(at(p, default.text))

    def status(p, default):
        return default and PackageStatus(hole(f"{p}/installer", default.installer),
                                         hole(f"{p}/meta-installer", default.meta_installer))

    doc = FAILED if path.endswith("/error") else FULL
    problem, outcome = doc.problem, doc.outcome
    universe = "dudf/problem/package-universe/package-list"
    lists = tuple(PackageList(at(f"{universe}[{i}]/format", plist.format),
                              hole(f"{universe}[{i}]", plist.payload),
                              at(f"{universe}[{i}]/filename", plist.filename))
                  for i, plist in enumerate(problem.package_universe))
    return DudfDocument(
        at("dudf/timestamp", doc.timestamp), at("dudf/uid", doc.uid),
        at("dudf/distribution", doc.distribution),
        (at("dudf/installer/name", doc.installer[0]),
         at("dudf/installer/version", doc.installer[1])),
        (at("dudf/meta-installer/name", doc.meta_installer[0]),
         at("dudf/meta-installer/version", doc.meta_installer[1])),
        DudfProblem(status("dudf/problem/package-status", problem.package_status), lists,
                    hole("dudf/problem/action", problem.action),
                    hole("dudf/problem/desiderata", problem.desiderata)),
        DudfOutcome(at("dudf/outcome/result", outcome.result),
                    hole("dudf/outcome/error", outcome.error),
                    status("dudf/outcome/package-status", outcome.package_status)),
        at("dudf/version", doc.version))


def test_a_character_xml_cannot_carry_is_reported_at_its_path():
    for path in LEAVES + HOLES + ATTRIBUTES:
        violations = validate_dudf(_document_with(path, "a\x0bb"))
        assert [(v.path, v.detail, v.level) for v in violations if "XML" in v.detail] == [
            (path, "'\\x0b' is not an XML character", "error")]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.sampled_from(LEAVES + HOLES + ATTRIBUTES), xml_unsafe_texts)
def test_text_that_xml_cannot_carry_is_refused_before_it_is_written(path, text):
    doc = _document_with(path, text)
    try:
        data = dudf_to_xml(doc)
    except InvalidDocument as exc:
        if not all(map(_xml_char, text)):
            assert [v.path for v in exc.violations if "XML character" in v.detail] == [path]
        return
    assert all(map(_xml_char, text))
    assert xml_to_dudf(data) == doc


def test_an_unknown_encoding_is_refused():
    data = _once(SUBMISSION, "encoding='utf-8'", "encoding='tf-8'")
    assert _refused(data) == ("/", "not well-formed XML: unknown encoding: tf-8")


# Most byte edits break the XML: about 3 in 100 examples are accepted and checked.
@settings(max_examples=1000, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated((SUBMISSION, DUDF_XML), fewest=1))
def test_an_accepted_byte_edit_reads_without_loss(data):
    assert_read_without_loss(data)


# A tree edit keeps the XML well-formed, so far more of them reach the DUDF rules.
@settings(max_examples=1000, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(tree_edited())
def test_an_accepted_tree_edit_reads_without_loss(data):
    assert_read_without_loss(data)
