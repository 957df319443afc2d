import ast
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from cudfkit import cli, dudf, replace, textio
from cudfkit.dudf import (
    DudfOutcome,
    DudfProblem,
    Extensional,
    Intensional,
    PackageList,
    PackageStatus,
)

GOLDEN = Path(__file__).parent / "golden"

MTA = (GOLDEN / "mta.cudf").read_bytes()


@pytest.fixture
def mta_path(tmp_path):
    path = tmp_path / "mta.cudf"
    path.write_bytes(MTA)
    return str(path)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# -- check --------------------------------------------------------------------

def test_check_valid(mta_path, capsys):
    assert cli.main(["check", mta_path]) == 0
    out = capsys.readouterr().out
    assert "packages: 2" in out


def test_check_strict_flags_recovered_errors(tmp_path, capsys):
    path = write(tmp_path, "bad.cudf",
                 "Package: aa\nVersion: zero\n\nProblem: pb\n")
    assert cli.main(["check", path]) == 0
    assert cli.main(["check", path, "--strict"]) == 1
    assert "warning" in capsys.readouterr().err


def test_check_json(mta_path, capsys):
    assert cli.main(["check", mta_path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["packages"] == 2
    assert payload["recovered_errors"] == []
    assert payload["violations"] == []


def test_check_reports_lines_and_bytes(tmp_path, capsys):
    data = ("Package: aa\r\nVersion: 1\r\nDescr: café ✓\r\n\r\n"
            "Package: bb\r\nDescr: ünï\r\nVersion: zero\r\n\r\n"
            "Problem: pb\r\n").encode("utf-8")
    path = tmp_path / "crlf.cudf"
    path.write_bytes(data)
    assert cli.main(["check", str(path), "--json"]) == 0
    (error,) = json.loads(capsys.readouterr().out)["recovered_errors"]
    assert error["stanza"] == 1 and error["line"] == 5 and error["reason"]
    lo, hi = error["bytes"]
    assert data[lo:hi] == "Package: bb\r\nDescr: ünï\r\nVersion: zero\r\n".encode()
    assert cli.main(["check", str(path)]) == 0
    assert "warning: stanza 1 (line 5): Version" in capsys.readouterr().err


OVERLONG = "1" * 5000  # more digits than int() converts by default


@pytest.mark.parametrize("line", [f"Version: {OVERLONG}",
                                  f"Version: 1\nDepends: bb >= {OVERLONG}"])
def test_check_drops_stanza_with_overlong_number(tmp_path, capsys, line):
    path = write(tmp_path, "huge.cudf",
                 f"Package: aa\n{line}\n\nPackage: bb\nVersion: 1\n\nProblem: pb\n")
    assert cli.main(["check", path, "--strict", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["packages"] == 1
    assert [e["stanza"] for e in payload["recovered_errors"]] == [0]
    assert "too many digits" in payload["recovered_errors"][0]["reason"]


def test_check_fatal_file(tmp_path):
    path = write(tmp_path, "nop.cudf", "Package: aa\nVersion: 1\n")
    assert cli.main(["check", path]) == 1


def test_missing_file_is_usage_error():
    assert cli.main(["check", "/no/such/file.cudf"]) == 2


# -- fmt ----------------------------------------------------------------------

def test_fmt_idempotent(mta_path, tmp_path, capsysbinary):
    assert cli.main(["fmt", mta_path]) == 0
    once = capsysbinary.readouterr().out
    path2 = tmp_path / "once.cudf"
    path2.write_bytes(once)
    assert cli.main(["fmt", str(path2)]) == 0
    assert capsysbinary.readouterr().out == once


def test_fmt_writes_canonical_spacing_byte_for_byte(capsysbinary):
    """Relops without spaces, runs of spaces, leading zeros, a space
    before "," and a 19-digit version, each in a value that is kept as
    text only when it is canonical."""
    assert cli.main(["fmt", str(GOLDEN / "spacing.cudf")]) == 0
    out = capsysbinary.readouterr()
    assert (out.out, out.err) == ((GOLDEN / "spacing.fmt").read_bytes(), b"")


def test_fmt_writes_every_core_property_byte_for_byte(capsysbinary):
    """Depends, Conflicts, Provides, Installed, Keep and a request list."""
    assert cli.main(["fmt", str(GOLDEN / "kitchen.cudf")]) == 0
    out = capsysbinary.readouterr()
    assert (out.out, out.err) == ((GOLDEN / "kitchen.fmt").read_bytes(), b"")


def test_fmt_fatal(tmp_path, capsysbinary):
    path = write(tmp_path, "two.cudf", "Problem: one\n\nProblem: two\n")
    assert cli.main(["fmt", path]) == 1


REPEATED_KEY = ("Package: aa\nVersion: 1\nDepends: bb\n\n"
                "Package: aa\nVersion: 1\n\n"
                "Package: bb\nVersion: 1\nConflicts: aa\n\n"
                "Problem: p\nInstall: aa\n")


@pytest.mark.parametrize("argv", [["fmt"], ["solve", "--criterion", "min-new"]])
def test_repeated_key_is_one_invalid_line(tmp_path, capsys, argv):
    path = write(tmp_path, "twice.cudf", REPEATED_KEY)
    assert cli.main([argv[0], path] + argv[1:]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "invalid: duplicate stanza for aa 1\n"


# -- solve + verify -----------------------------------------------------------

def test_solve_then_verify(mta_path, tmp_path, capsys):
    out = str(tmp_path / "solution.cudf")
    assert cli.main(
        ["solve", mta_path, "--criterion", "min-new", "--out", out]
    ) == 0
    assert "cost: 0" in capsys.readouterr().out
    assert cli.main(
        ["verify", "--problem", mta_path, "--solution", out]
    ) == 0
    entries = textio.parse_solution(Path(out).read_bytes())
    assert [key for key, _ in entries] == [("postfix", 2)]


@pytest.mark.parametrize("target", ["missing/solution.cudf", "."])
def test_solve_out_that_cannot_be_written_is_usage_error(mta_path, tmp_path, capsys,
                                                          target):
    # A missing directory, and a directory where the file should go.
    out = str(tmp_path / target)
    assert cli.main(["solve", mta_path, "--criterion", "min-new", "--out", out]) == 2
    stdout, stderr = capsys.readouterr()
    assert stdout == ""
    assert stderr.startswith("usage error: ") and stderr.count("\n") == 1
    assert "Traceback" not in stderr


def test_solve_to_stdout(mta_path, capsysbinary):
    assert cli.main(["solve", mta_path, "--criterion", "min-new"]) == 0
    out = capsysbinary.readouterr().out
    assert b"Package: postfix" in out


def test_verify_rejects_bad_solution(mta_path, tmp_path, capsys):
    bad = write(tmp_path, "bad.sol",
                "Package: sendmail\nVersion: 1\nInstalled: true\n\n"
                "Package: postfix\nVersion: 2\nInstalled: true\n")
    code = cli.main(["verify", "--problem", mta_path, "--solution", bad,
                     "--json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    clauses = {item["clause"] for item in payload["violations"]}
    assert "consistency/conflicts" in clauses
    assert "remove" in clauses


@pytest.mark.parametrize("flags", [("true", "false"), ("false", "true")])
def test_verify_solution_repeating_a_key_is_usage_error(mta_path, tmp_path, capsys,
                                                        flags):
    bad = write(tmp_path, "bad.sol",
                "".join(f"Package: postfix\nVersion: 2\nInstalled: {flag}\n\n"
                        for flag in flags))
    assert cli.main(["verify", "--problem", mta_path, "--solution", bad]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: stanza 1: repeated postfix 2\n"


@pytest.mark.parametrize("text, message", [
    ("Package: postfix\nVersion: x\n\njunk\n", "content outside any stanza"),
    ("Package: postfix\nVersion: 2\n\nProblem: pb\n",
     "solution files contain package stanzas only"),
])
def test_verify_solution_with_junk_or_a_problem_is_usage_error(
        mta_path, tmp_path, capsys, text, message):
    bad = write(tmp_path, "bad.sol", text)
    assert cli.main(["verify", "--problem", mta_path, "--solution", bad]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_verify_unknown_key_is_usage_error(mta_path, tmp_path):
    bad = write(tmp_path, "bad.sol",
                "Package: exim\nVersion: 9\nInstalled: true\n")
    assert cli.main(["verify", "--problem", mta_path, "--solution", bad]) == 2


def test_verify_unknown_key_is_one_error_line(mta_path, tmp_path, capsys):
    bad = write(tmp_path, "bad.sol", "Package: exim\nVersion: 9\nInstalled: true\n")
    assert cli.main(["verify", "--problem", mta_path, "--solution", bad]) == 2
    assert capsys.readouterr() == ("", "error: exim 9 not in the problem domain\n")


def test_verify_solution_line_without_separator_is_usage_error(
        mta_path, tmp_path, capsys):
    bad = write(tmp_path, "bad.sol", "Package: postfix\nVersion: 2\ngarbage\n")
    assert cli.main(["verify", "--problem", mta_path, "--solution", bad]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_solution_without_version_is_usage_error(mta_path, tmp_path, capsys):
    bad = write(tmp_path, "bad.sol", "Package: postfix\nInstalled: true\n")
    assert cli.main(["verify", "--problem", mta_path, "--solution", bad]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Version" in err


def test_verify_solution_not_utf8_is_usage_error(mta_path, tmp_path, capsys):
    bad = tmp_path / "bad.sol"
    bad.write_bytes(b"Package: postfix\xff\nVersion: 2\nInstalled: true\n")
    assert cli.main(["verify", "--problem", mta_path, "--solution", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("line", [f"Version: {OVERLONG}",
                                  f"Version: 2\nDepends: bb >= {OVERLONG}"])
def test_verify_solution_with_overlong_number_is_usage_error(
        mta_path, tmp_path, capsys, line):
    bad = write(tmp_path, "bad.sol", f"Package: postfix\n{line}\nInstalled: true\n")
    assert cli.main(["verify", "--problem", mta_path, "--solution", bad]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "too many digits" in err


def test_solve_unsatisfiable(tmp_path):
    path = write(tmp_path, "unsat.cudf",
                 "Package: aa\nVersion: 1\nDepends: bb\n\n"
                 "Problem: pb\nInstall: aa\n")
    assert cli.main(["solve", path, "--criterion", "min-new"]) == 1


def test_solve_budget_exhausted(mta_path):
    assert cli.main(
        ["solve", mta_path, "--criterion", "min-new", "--budget", "1"]
    ) == 3


def test_cost_flag_exclusivity(mta_path):
    assert cli.main(["cost", mta_path]) == 2
    assert cli.main(["cost", mta_path, "--criterion", "min-removed",
                     "--cost-property", "Cost"]) == 2


def test_cost_presets_and_properties(tmp_path, capsys):
    path = write(
        tmp_path, "sized.cudf",
        "Package: aa\nVersion: 1\nInstalled: true\nInstalled-Size: 40\n\n"
        "Package: bb\nVersion: 1\nInstalled-Size: 7\n\n"
        "Problem: pb\n",
    )
    assert cli.main(["cost", path, "--criterion", "installed-size"]) == 0
    assert capsys.readouterr().out.strip() == "40"
    assert cli.main(["cost", path, "--criterion", "min-removed"]) == 0
    assert capsys.readouterr().out.strip() == "-1"
    assert cli.main(["cost", path, "--cost-property", "Installed-Size"]) == 0
    assert capsys.readouterr().out.strip() == "40"


@pytest.mark.parametrize("command", ["solve", "cost"])
@pytest.mark.parametrize("prop", ["Version", "9bad", "", "Problem"])
def test_cost_property_outside_the_extra_names_is_usage_error(
        mta_path, capsys, command, prop):
    # A core name collides with the schema; a name outside the identifier
    # syntax can occur in no file and would price everything at 0.
    assert cli.main([command, mta_path, "--cost-property", prop]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ") and captured.err.count("\n") == 1


def test_cost_missing_size_property(tmp_path):
    path = write(tmp_path, "bare.cudf",
                 "Package: aa\nVersion: 1\nInstalled: true\n\nProblem: pb\n")
    assert cli.main(["cost", path, "--criterion", "installed-size"]) == 2


# A stanza dropped while reading leaves the universe; every subcommand that
# reads a problem says so, as check does, and keeps its exit code.

DROPPED_COST = ("Package: aa\nVersion: 1\nCost: x\n\n"
                "Package: aa\nVersion: 2\nCost: 5\n\n"
                "Problem: p\nInstall: aa\n")
COST_WARNING = "warning: stanza 0 (line 1): Cost: not an integer: 'x'\n"


def test_solve_warns_about_dropped_stanzas(tmp_path, capsys):
    path = write(tmp_path, "drop.cudf", DROPPED_COST)
    out = str(tmp_path / "solution.cudf")
    assert cli.main(["solve", path, "--cost-property", "Cost", "--out", out]) == 0
    assert capsys.readouterr() == ("cost: 5\n", COST_WARNING)
    assert textio.parse_solution(Path(out).read_bytes()) == [(("aa", 2), True)]


def test_cost_warns_about_dropped_stanzas(tmp_path, capsys):
    path = write(tmp_path, "drop.cudf", DROPPED_COST)
    assert cli.main(["cost", path, "--cost-property", "Cost"]) == 0
    assert capsys.readouterr() == ("0\n", COST_WARNING)


def test_verify_warns_about_dropped_problem_stanzas(tmp_path, capsys):
    problem = write(tmp_path, "drop.cudf",
                    "Package: aa\nVersion: 1\nInstalled: x\n\n"
                    "Package: aa\nVersion: 2\n\n"
                    "Problem: p\nInstall: aa\n")
    solution = write(tmp_path, "drop.sol", "Package: aa\nVersion: 2\n")
    assert cli.main(["verify", "--problem", problem, "--solution", solution,
                     "--json"]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out) == {"ok": True, "violations": []}
    assert err == "warning: stanza 0 (line 1): Installed: not a boolean: 'x'\n"


def test_fmt_warns_about_dropped_stanzas(tmp_path, capsysbinary):
    path = write(tmp_path, "drop.cudf",
                 "Package: aa\nVersion: 1\nInstalled: x\n\n"
                 "Package: aa\nVersion: 2\n\n"
                 "Problem: p\nInstall: aa\n")
    assert cli.main(["fmt", path]) == 0
    assert capsysbinary.readouterr() == (
        b"Package: aa\nVersion: 2\n\nProblem: p\nInstall: aa\n",
        b"warning: stanza 0 (line 1): Installed: not a boolean: 'x'\n")


# -- dudf ---------------------------------------------------------------------

def test_cli_import_loads_no_dudf_modules():
    code = ("import sys, cudfkit.cli; "
            "print([m for m in ('cudfkit.dudf', 'email.utils', 'xml.etree.ElementTree', "
            "'dataclasses', 'inspect') if m in sys.modules])")
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}, timeout=60).stdout
    assert out.strip() == "[]"


# In a fresh interpreter: the modules each command adds to what
# `import cudfkit.cli` loaded, and main's answer to each error.
FRESH = """
import contextlib, io, sys
from cudfkit import cli

WATCHED = ('json', 'dataclasses', 'inspect', 'email.utils', 'xml.etree.ElementTree')


def loaded():
    return sorted(m for m in sys.modules if m in WATCHED or m.startswith('cudfkit.'))


def run(argv):
    out, err = io.TextIOWrapper(io.BytesIO()), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue(), loaded()


print(repr([loaded()] + [run(argv) for argv in ARGVS]))
"""


def _fresh_runs(*argvs):
    """[modules after import, then (exit code, stderr, modules) per argv]
    of cli.main run on each argv in turn in one fresh interpreter."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = FRESH.replace("ARGVS", repr(argvs))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}, timeout=60).stdout
    return ast.literal_eval(out)


def test_each_command_loads_only_the_layers_it_uses(mta_path, tmp_path):
    solution = write(tmp_path, "mta.sol", "Package: postfix\nVersion: 2\nInstalled: true\n")
    startup, *runs = _fresh_runs(
        ["check", mta_path], ["fmt", mta_path], ["check", mta_path, "--json"],
        ["verify", "--problem", mta_path, "--solution", solution, "--json"],
        ["solve", mta_path, "--criterion", "min-new"])
    base = ["cudfkit._record", "cudfkit.cli", "cudfkit.criteria", "cudfkit.model",
            "cudfkit.textio", "cudfkit.types"]
    assert startup == base
    assert [(code, err) for code, err, _ in runs] == [(0, "")] * 4 + [(0, "cost: 0\n")]
    check, fmt, check_json, verify, solve = (modules for _, _, modules in runs)
    assert check == fmt == base
    assert check_json == sorted(base + ["json"])
    assert verify == sorted(base + ["json", "cudfkit.semantics"])
    assert solve == sorted(base + ["json", "cudfkit.semantics", "cudfkit.solver",
                                   "cudfkit.solver._compile", "cudfkit.solver._kernel_py"])


def test_main_reports_each_error_kind_before_the_solver_is_loaded(mta_path, tmp_path):
    no_problem = write(tmp_path, "np.cudf", "Package: aa\nVersion: 1\n")
    twice = write(tmp_path, "twice.cudf", REPEATED_KEY)
    malformed = write(tmp_path, "bad.sol", "Package: postfix\n")
    runs = _fresh_runs(
        ["check", no_problem], ["fmt", twice], ["check", str(tmp_path / "missing.cudf")],
        ["verify", "--problem", mta_path, "--solution", malformed])[1:]
    assert [(code, err.split(": ", 1)[0], err.count("\n")) for code, err, _ in runs] == [
        (1, "fatal", 1), (1, "invalid", 1), (2, "usage error", 1), (2, "error", 1)]
    assert not any("cudfkit.solver" in modules for _, _, modules in runs)


DUDF_TIMESTAMP = "Tue, 18 Aug 2026 09:30:00 +0200"
DUDF_PROBLEM = DudfProblem(
    package_status=PackageStatus(
        installer=Extensional("Package: core\nVersion: 1\n")
    ),
    package_universe=(
        PackageList("cudf-stanzas",
                    Extensional("Package: core\nVersion: 2\n")),
    ),
    action=Extensional("Install: core >= 2"),
)


def dudf_fixture(tmp_path, **changes):
    doc = dudf.DudfDocument(
        timestamp=DUDF_TIMESTAMP,
        uid="cli-test-1",
        distribution="examplix 9.2",
        installer=("exampkg", "1.4"),
        meta_installer=("exampkg-frontend", "0.9"),
        problem=DUDF_PROBLEM,
    )
    path = tmp_path / "sub.dudf.xml"
    path.write_bytes(dudf.dudf_to_xml(replace(doc, **changes)))
    return str(path)


def test_dudf_validate_and_show(tmp_path, capsys):
    path = dudf_fixture(tmp_path)
    assert cli.main(["dudf", "validate", path]) == 0
    assert cli.main(["dudf", "show", path]) == 0
    out = capsys.readouterr().out
    assert "uid: cli-test-1" in out
    assert "sole problem" in out


def test_dudf_validate_warns_about_a_two_digit_year(tmp_path, capsys):
    path = dudf_fixture(tmp_path, timestamp="Tue, 18 Aug 26 09:30:00 +0200")
    assert cli.main(["dudf", "validate", path]) == 0
    assert capsys.readouterr().err == "warning: dudf/timestamp: obsolete two-digit year\n"


def test_dudf_validate_rejects_a_timestamp_that_is_not_a_date(tmp_path, capsys):
    # the serializer refuses such a document, so the date is edited into its XML
    path = Path(dudf_fixture(tmp_path))
    path.write_bytes(path.read_bytes().replace(DUDF_TIMESTAMP.encode(), b"yesterday"))
    assert cli.main(["dudf", "validate", str(path)]) == 1
    assert capsys.readouterr().err == "error: dudf/timestamp: not an RFC822 date\n"


def test_dudf_show_prints_the_outcome(tmp_path, capsys):
    path = dudf_fixture(tmp_path, outcome=DudfOutcome(
        "failure", error=Extensional("core 2 is not installable")))
    assert cli.main(["dudf", "show", path]) == 0
    out = capsys.readouterr().out
    assert "(problem/outcome pair)" in out
    assert "  outcome: failure\n" in out


@pytest.mark.parametrize("problem, message", [
    (replace(DUDF_PROBLEM, package_status=PackageStatus(Intensional("sha1:0f0f"))),
     "error: package-status is intensional; expand it first\n"),
    (replace(DUDF_PROBLEM, package_universe=(
        PackageList("deb-control", Extensional("Package: core\nVersion: 2\n")),)),
     "error: package-list format 'deb-control'\n"),
])
def test_dudf_convert_rejects_what_it_cannot_convert(tmp_path, capsys, problem, message):
    path = dudf_fixture(tmp_path, problem=problem)
    assert cli.main(["dudf", "convert", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


def test_dudf_convert_rejects_a_uid_that_is_not_a_oneliner(tmp_path, capsys):
    # The uid becomes the Problem line, so its second line would be a request.
    path = tmp_path / "uid.xml"
    path.write_text((GOLDEN / "submission.xml").read_text().replace(
        "<uid>mta-switch</uid>", "<uid>mta-switch\nRemove: libc</uid>"))
    assert cli.main(["dudf", "convert", str(path)]) == 1
    assert capsys.readouterr() == ("", "error: uid is not a oneliner\n")


def test_dudf_convert_rejects_a_package_stanza_in_the_action_hole(tmp_path, capsys):
    path = tmp_path / "action.xml"
    path.write_text((GOLDEN / "submission.xml").read_text().replace(
        "<action>Install: postfix</action>",
        "<action>Install: postfix\n\nPackage: ghost\nVersion: 1\n</action>"))
    assert cli.main(["dudf", "convert", str(path)]) == 1
    assert capsys.readouterr() == ("", "error: action hole holds a package stanza\n")


def test_dudf_validate_rejects_broken_xml(tmp_path):
    path = tmp_path / "broken.xml"
    path.write_bytes(b"<not-dudf/>")
    assert cli.main(["dudf", "validate", str(path)]) == 1


def test_dudf_show_rejects_non_dudf_xml(tmp_path, capsys):
    path = tmp_path / "broken.xml"
    path.write_bytes(b"<not-dudf/>")
    assert cli.main(["dudf", "show", str(path)]) == 1
    assert capsys.readouterr().err.startswith("invalid: ")


def test_dudf_convert_rejects_non_dudf_xml(tmp_path, capsys):
    path = tmp_path / "broken.xml"
    path.write_bytes(b"<not-dudf/>")
    assert cli.main(["dudf", "convert", str(path)]) == 1
    assert capsys.readouterr().err.startswith("invalid: ")


@pytest.mark.parametrize("action", ["validate", "show", "convert"])
@pytest.mark.parametrize("old, new, message", [
    ("<uid>mta-switch</uid>", "<uid>mta<b/>-switch</uid>", "dudf/uid/b: unexpected element"),
    ("<uid>mta-switch</uid>", "<uid>mta-switch</uid><uid>mta</uid>",
     "dudf/uid: repeated element"),
    ("</problem>", "junk</problem>", "dudf/problem: stray text"),
    ("<action>", '<action dudf:reference="sha1:0f0f">',
     "dudf/problem/action: text in an intensional hole"),
    ("<problem>", "<problem><?foo bar?>", "dudf/problem: processing instruction"),
    ("<uid>mta-switch</uid>", "<uid>mta<?x?>-switch</uid>", "dudf/uid: processing instruction"),
    ("<action>Install: ", "<action>Install: <?foo bar?>",
     "dudf/problem/action: processing instruction"),
    ("<problem>", "<problem><!-- c -->", "dudf/problem: comment"),
    ("<uid>mta-switch</uid>", "<uid>mta<!-- c -->-switch</uid>", "dudf/uid: comment"),
    ("<action>Install: ", "<action>Install: <!-- c -->", "dudf/problem/action: comment"),
    ("encoding='utf-8'", "encoding='tf-8'",
     "/: not well-formed XML: unknown encoding: tf-8"),
])
def test_dudf_refuses_what_the_reader_would_drop(tmp_path, capsys, action, old, new, message):
    path = tmp_path / "dropped.xml"
    path.write_text((GOLDEN / "submission.xml").read_text().replace(old, new))
    assert cli.main(["dudf", action, str(path)]) == 1
    assert capsys.readouterr() == ("", f"invalid: {message}\n")


def test_dudf_convert_roundtrips_through_check(tmp_path, capsysbinary):
    path = dudf_fixture(tmp_path)
    assert cli.main(["dudf", "convert", path]) == 0
    data = capsysbinary.readouterr().out
    converted = tmp_path / "converted.cudf"
    converted.write_bytes(data)
    assert cli.main(["check", str(converted), "--strict"]) == 0


def test_readme_dudf_commands_on_the_golden_submission(tmp_path, capsysbinary):
    path = str(GOLDEN / "submission.xml")
    assert cli.main(["dudf", "validate", path]) == 0
    assert capsysbinary.readouterr() == (b"", b"")
    assert cli.main(["dudf", "convert", path]) == 0
    converted = tmp_path / "submission.cudf"
    converted.write_bytes(capsysbinary.readouterr().out)
    assert cli.main(["check", str(converted), "--strict"]) == 0
    assert capsysbinary.readouterr() == (b"packages: 4\n", b"")
    assert cli.main(["solve", str(converted), "--criterion", "min-new"]) == 0
    out, err = capsysbinary.readouterr()
    assert textio.parse_solution(out) == [(("libc", 6), True), (("postfix", 2), True)]
    assert err == b"cost: 0\n"


# -- the collector around a command -----------------------------------------------

UNSAT = "Package: aa\nVersion: 1\nDepends: bb\n\nProblem: pb\nInstall: aa\n"
DROPPED = "Package: aa\nVersion: zero\n\nPackage: bb\nVersion: 1\n\nProblem: pb\nInstall: bb\n"


def _exits(tmp_path, mta_path):
    """(argv, exit code, first word of stderr) of one run per way out of main."""
    unsat = write(tmp_path, "unsat.cudf", UNSAT)
    unknown = write(tmp_path, "unknown.sol", "Package: zz\nVersion: 9\n")
    return [
        (["check", mta_path], 0, ""),
        (["solve", unsat, "--criterion", "min-new"], 1, "no"),
        (["verify", "--problem", mta_path, "--solution", unknown], 2, "error:"),
        (["solve", mta_path, "--criterion", "min-new", "--budget", "1"], 3, "budget"),
        (["check", write(tmp_path, "nop.cudf", "Package: aa\nVersion: 1\n")], 1, "fatal:"),
        (["fmt", write(tmp_path, "twice.cudf", REPEATED_KEY)], 1, "invalid:"),
        (["check", str(tmp_path / "missing.cudf")], 2, "usage"),
    ]


@pytest.mark.parametrize("enabled", [True, False])
def test_main_restores_the_collector_state(tmp_path, mta_path, capsys, enabled):
    was = gc.isenabled()
    try:
        for argv, code, stderr in _exits(tmp_path, mta_path):
            gc.enable() if enabled else gc.disable()
            assert cli.main(argv) == code, argv
            assert capsys.readouterr().err.startswith(stderr), argv
            assert gc.isenabled() is enabled, argv
    finally:
        gc.enable() if was else gc.disable()


@pytest.mark.parametrize("enabled", [True, False])
def test_main_restores_the_collector_state_after_a_traceback(
        mta_path, monkeypatch, enabled):
    def broken(data, registry=None):
        raise RuntimeError("broken reader")

    monkeypatch.setattr(textio, "parse_cudf", broken)
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        with pytest.raises(RuntimeError):
            cli.main(["check", mta_path])
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()


@pytest.mark.parametrize("enabled", [True, False])
def test_commands_run_with_the_collector_off(tmp_path, mta_path, monkeypatch, capsys, enabled):
    # Recorded around the parse, not inside it: the parse's own pause
    # would hide main's.
    seen = []
    parse = textio.parse_cudf

    def recording(data, registry=None):
        seen.append(gc.isenabled())
        return parse(data, registry=registry)

    monkeypatch.setattr(textio, "parse_cudf", recording)
    solution = str(tmp_path / "solution.cudf")
    was = gc.isenabled()
    try:
        for argv in (["check", mta_path],
                     ["solve", mta_path, "--criterion", "min-new", "--out", solution],
                     ["verify", "--problem", mta_path, "--solution", solution]):
            gc.enable() if enabled else gc.disable()
            seen.clear()
            assert cli.main(argv) == 0, argv
            assert seen and not any(seen), argv
    finally:
        gc.enable() if was else gc.disable()


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=3)),
    max_leaves=12,
)


@given(json_values)
def test_json_text_is_json_dumps_with_indent_2(value):
    assert cli._json_text(value) == json.dumps(value, indent=2)


def _unreachable_after(argv):
    """Exit code of cli.main(argv), run with the collector off from a
    collected heap, and the unreachable objects a collection then finds."""
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        code = cli.main(argv)
        return code, gc.collect()
    finally:
        gc.enable() if was else gc.disable()


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.cudf")))
def test_commands_on_golden_files_leave_no_cyclic_garbage(tmp_path, capsysbinary, name):
    """The command-wide collector pause costs nothing only while no
    command makes reference cycles."""
    path = str(GOLDEN / name)
    solution = str(tmp_path / "solution")
    for argv, code in ((["check", path, "--strict", "--json"], 0),
                       (["fmt", path], 0),
                       (["solve", path, "--criterion", "min-new", "--out", solution], 0),
                       (["verify", "--problem", path, "--solution", solution, "--json"], 0),
                       (["solve", path, "--criterion", "installed-size"], 2),
                       (["cost", path, "--criterion", "min-removed"], 0)):
        assert _unreachable_after(argv) == (code, 0), argv


def test_dudf_and_failing_commands_leave_no_cyclic_garbage(tmp_path, capsysbinary):
    dudf_path = dudf_fixture(tmp_path)
    dropped = write(tmp_path, "dropped.cudf", DROPPED)
    unsat = write(tmp_path, "unsat.cudf", UNSAT)
    for argv, code in ((["dudf", "validate", dudf_path], 0),
                       (["dudf", "show", dudf_path], 0),
                       (["dudf", "convert", dudf_path], 0),
                       (["check", dropped, "--strict", "--json"], 1),
                       (["fmt", dropped], 0),
                       (["solve", dropped, "--criterion", "min-new"], 0),
                       (["solve", unsat, "--criterion", "min-new"], 1)):
        assert _unreachable_after(argv) == (code, 0), argv
