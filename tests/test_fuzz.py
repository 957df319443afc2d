"""Arbitrary and mutated input to every subcommand ends in a documented
exit code (0, 1, 2 or 3), never in an exception escaping cli.main."""

import contextlib
import copy
import io
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cudfkit import cli, dudf
from cudfkit.dudf import DudfProblem, Extensional, PackageList, PackageStatus

GOLDEN = Path(__file__).parent / "golden"

DUDF_XML = dudf.dudf_to_xml(dudf.DudfDocument(
    timestamp="Tue, 18 Aug 2026 09:30:00 +0200",
    uid="fuzz-1",
    distribution="examplix 9.2",
    installer=("exampkg", "1.4"),
    meta_installer=("exampkg-frontend", "0.9"),
    problem=DudfProblem(
        package_status=PackageStatus(
            installer=Extensional("Package: core\nVersion: 1\n")
        ),
        package_universe=(
            PackageList("cudf-stanzas", Extensional("Package: core\nVersion: 2\n")),
        ),
        action=Extensional("Install: core >= 2"),
    ),
))
SOLUTION = b"Package: postfix\nVersion: 2\nInstalled: true\n"
# Sizes on all but the first stanza: a size line added there lets the
# size criteria reach the search.  First, where the edits lean.
SIZED = (b"Package: aa\nVersion: 1\nInstalled: true\nDownload-Size: 3\n\n"
         b"Package: bb\nVersion: 2\nDepends: aa\nInstalled-Size: 5\nDownload-Size: 2\n\n"
         b"Problem: sized\nInstall: bb\n")
SEEDS = [SIZED] + [path.read_bytes() for path in sorted(GOLDEN.glob("*.cudf"))]
SEEDS += [DUDF_XML, SOLUTION]
BIG_SIZE = b"Installed-Size: " + b"9" * 400 + b"\n"  # a cost past float range
FRAGMENTS = (
    b"\n", b"\n\n", b": ", b"\xff", b"\x00", b" | ", b", ", b" >= 2", b" = 0",
    b"Package: aa\n", b"Version: 1\n", b"Installed: true\n", b"Keep: version\n",
    b"Keep: package\n", b"Depends: aa | bb\n", b"Conflicts: aa\n",
    b"Provides: aa = 2\n", b"Installed-Size: 7\n", b"Problem: pb\n",
    b"Install: aa\n", b"Remove: aa\n", b"Upgrade: aa\n",
    b"<", b"/>", b"</", b'"', b"&amp;", b"&x;",
    BIG_SIZE,
)

COMMANDS = (
    ["check", "{input}"],
    ["check", "{input}", "--strict", "--json"],
    ["fmt", "{input}"],
    ["verify", "--problem", "{mta}", "--solution", "{input}"],
    ["verify", "--problem", "{input}", "--solution", "{solution}", "--explain"],
    ["verify", "--problem", "{input}", "--solution", "{solution}", "--json"],
    ["solve", "{input}", "--criterion", "min-removed"],
    ["solve", "{input}", "--criterion", "installed-size"],
    ["solve", "{input}", "--criterion", "prefer-latest", "--out", "{out}"],
    ["solve", "{input}", "--criterion", "download-size"],
    ["solve", "{input}", "--cost-property", "Installed-Size"],
    ["cost", "{input}", "--cost-property", "Installed-Size"],
    ["cost", "{input}", "--criterion", "min-new"],
    ["dudf", "show", "{input}"],
    ["dudf", "validate", "{input}"],
    ["dudf", "convert", "{input}"],
)


@st.composite
def mutated(draw, seeds=tuple(SEEDS)):
    """One of seeds after up to four byte edits."""
    data = bytearray(draw(st.sampled_from(seeds)))
    for _ in range(draw(st.integers(0, 4))):
        pos = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(("insert", "line", "digits", "delete", "replace", "repeat")))
        if op == "line":  # a fragment at the start of the next line
            pos = data.find(b"\n", pos) + 1
        if op in ("insert", "line"):
            data[pos:pos] = draw(st.sampled_from(FRAGMENTS))
        elif op == "digits":  # one of the numbers made 400 digits longer
            numbers = [m.start() for m in re.finditer(rb"[0-9]+", data)]
            pos = draw(st.sampled_from(numbers)) if numbers else pos
            data[pos:pos] = b"9" * 400
        elif op == "delete":
            del data[pos:pos + draw(st.integers(1, 12))]
        elif op == "replace":
            data[pos:pos + 1] = bytes([draw(st.integers(0, 255))])
        else:  # one whole stanza twice, as a repeated (name, version)
            stanzas = data.split(b"\n\n")
            i = draw(st.integers(0, len(stanzas) - 1))
            data[:] = b"\n\n".join(stanzas[:i + 1] + stanzas[i:])
    return bytes(data)


SUBMISSION = (GOLDEN / "submission.xml").read_bytes()
DUDF_SEEDS = (SUBMISSION, DUDF_XML)
NS = f"{{{dudf.DUDF_NS}}}"
# Names a tree edit gives an element or an attribute: every DUDF name, one
# that DUDF lacks, and names outside its namespace.
ELEMENT_NAMES = [NS + name for name in (
    "dudf", "timestamp", "uid", "distribution", "installer", "meta-installer", "name",
    "version", "problem", "package-status", "package-universe", "package-list", "action",
    "desiderata", "outcome", "error", "extra")] + ["{urn:example}note", "plain"]
ATTRIBUTE_NAMES = [NS + name for name in (
    "version", "format", "filename", "reference", "result", "extra")] + [
    "{urn:example}note", "lang"]
TEXTS = ("", "\n  ", "x", "1.0", "success", "failure", "Package: aa\nVersion: 1\n")
TREE_EDITS = ("drop", "duplicate", "move", "rename", "add attribute", "drop attribute",
              "rename attribute", "text", "tail", "comment", "instruction", "child", "reference")


@st.composite
def tree_edited(draw, seeds=DUDF_SEEDS):
    """One of seeds, parsed, after one to four edits of its tree: an element
    dropped, duplicated, moved or renamed; an attribute added, dropped or
    renamed; a text or tail set; a comment, processing instruction or child
    inserted; or an element's text turned into a dudf:reference."""
    root = ET.fromstring(draw(st.sampled_from(seeds)))
    for _ in range(draw(st.integers(1, 4))):
        elements = [elem for elem in root.iter() if isinstance(elem.tag, str)]
        elem = draw(st.sampled_from(elements))
        parent = next((p for p in root.iter() if any(child is elem for child in p)), None)
        edit = draw(st.sampled_from(TREE_EDITS))
        if edit in ("drop", "duplicate", "move") and parent is None:
            continue  # the root stays
        if edit == "drop":
            parent.remove(elem)
        elif edit == "duplicate":
            parent.insert(draw(st.integers(0, len(parent))), copy.deepcopy(elem))
        elif edit == "move":
            parent.remove(elem)
            target = draw(st.sampled_from([e for e in root.iter() if isinstance(e.tag, str)]))
            target.insert(draw(st.integers(0, len(target))), elem)
        elif edit == "rename":
            elem.tag = draw(st.sampled_from(ELEMENT_NAMES))
        elif edit == "add attribute":
            elem.set(draw(st.sampled_from(ATTRIBUTE_NAMES)), draw(st.sampled_from(TEXTS)))
        elif edit in ("drop attribute", "rename attribute") and elem.attrib:
            value = elem.attrib.pop(draw(st.sampled_from(sorted(elem.attrib))))
            if edit == "rename attribute":
                elem.set(draw(st.sampled_from(ATTRIBUTE_NAMES)), value)
        elif edit in ("text", "tail"):
            setattr(elem, edit, draw(st.sampled_from(TEXTS)))
        elif edit in ("comment", "instruction", "child"):
            node = (ET.Comment(" c ") if edit == "comment"
                    else ET.ProcessingInstruction("pi", "x") if edit == "instruction"
                    else ET.Element(draw(st.sampled_from(ELEMENT_NAMES))))
            elem.insert(draw(st.integers(0, len(elem))), node)
        elif edit == "reference":
            elem.set(NS + "reference", (elem.text or "").strip() or "sha1:0")
            elem.text = None
    return ET.tostring(root, encoding="utf-8")


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "mta.cudf").write_bytes((GOLDEN / "mta.cudf").read_bytes())
    (root / "solution.cudf").write_bytes(SOLUTION)
    return {"input": str(root / "input"), "mta": str(root / "mta.cudf"),
            "solution": str(root / "solution.cudf"), "out": str(root / "out.sol")}


# Inputs that once ended in a traceback: a cost past float range, a cost
# sum with more digits than the interpreter writes, an XML declaration
# naming an encoding Python does not know.
COSTLY = b"\n".join(b"Package: p%d\nVersion: 1\nInstalled: true\nInstalled-Size: %s\n"
                    % (i, b"9" * 4300) for i in range(3)) + b"\nProblem: pb\n"


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@example(data=SIZED.replace(b"Download-Size: 3\n", b"Download-Size: 3\n" + BIG_SIZE, 1))
@example(data=COSTLY)
@example(data=DUDF_XML.replace(b"encoding='utf-8'", b"encoding='tf-8'"))
@given(data=st.one_of(st.binary(max_size=400), mutated()))
def test_every_subcommand_ends_in_a_documented_exit_code(paths, data):
    Path(paths["input"]).write_bytes(data)
    for command in COMMANDS:
        argv = [arg.format(**paths) for arg in command]
        out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 1, 2, 3), argv


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=tree_edited())
def test_every_dudf_command_ends_in_a_documented_exit_code_on_a_tree_edit(paths, data):
    Path(paths["input"]).write_bytes(data)
    for command in COMMANDS:
        if command[0] == "dudf":
            argv = [arg.format(**paths) for arg in command]
            out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                assert cli.main(argv) in (0, 1, 2, 3), argv
