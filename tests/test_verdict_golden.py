"""Golden `verify --json` and `verify --explain` output, one fixture per
clause of the request semantics, pinned literally: clause strings, order,
package, version and reason of every violation, and the exit code."""

import json

import pytest

from cudfkit import cli, semantics, textio
from cudfkit.model import CudfDocument

# name -> (problem, solution); each breaks the clauses its name says.
FIXTURES = {
    "ok": (
        "Package: aa\nVersion: 1\n\nProblem: p\nInstall: aa\n",
        "Package: aa\nVersion: 1\nInstalled: true\n",
    ),
    "depends": (
        "Package: aa\nVersion: 1\nDepends: bb\n\n"
        "Package: bb\nVersion: 1\n\n"
        "Problem: p\nInstall: aa\n",
        "Package: aa\nVersion: 1\nInstalled: true\n",
    ),
    "conflicts": (
        "Package: aa\nVersion: 1\nConflicts: bb\n\n"
        "Package: bb\nVersion: 1\n\n"
        "Problem: p\nInstall: aa, bb\n",
        "Package: aa\nVersion: 1\nInstalled: true\n\n"
        "Package: bb\nVersion: 1\nInstalled: true\n",
    ),
    "keep-version": (
        "Package: aa\nVersion: 1\nInstalled: true\nKeep: version\n\n"
        "Package: aa\nVersion: 2\n\n"
        "Problem: p\nInstall: aa\n",
        "Package: aa\nVersion: 2\nInstalled: true\n",
    ),
    "keep-package": (
        "Package: aa\nVersion: 1\nInstalled: true\nKeep: package\n\n"
        "Package: bb\nVersion: 1\n\n"
        "Problem: p\nInstall: bb\n",
        "Package: bb\nVersion: 1\nInstalled: true\n",
    ),
    "keep-feature": (
        "Package: aa\nVersion: 1\nProvides: ff, gg = 2\nInstalled: true\n"
        "Keep: feature\n\n"
        "Package: bb\nVersion: 1\nProvides: gg = 2\n\n"
        "Problem: p\nInstall: bb\n",
        "Package: bb\nVersion: 1\nInstalled: true\n",
    ),
    "install": (
        "Package: aa\nVersion: 1\n\nPackage: cc\nVersion: 1\n\n"
        "Problem: p\nInstall: aa, cc > 1\n",
        "Package: aa\nVersion: 1\nInstalled: true\n",
    ),
    "remove": (
        "Package: aa\nVersion: 1\nInstalled: true\n\n"
        "Package: bb\nVersion: 1\nProvides: ff\nInstalled: true\n\n"
        "Problem: p\nRemove: aa, ff = 3, bb > 1\n",
        "Package: aa\nVersion: 1\nInstalled: true\n\n"
        "Package: bb\nVersion: 1\nInstalled: true\n",
    ),
    "upgrade-target": (
        "Package: aa\nVersion: 1\nInstalled: true\n\n"
        "Package: aa\nVersion: 2\n\n"
        "Problem: p\nUpgrade: aa > 1\n",
        "Package: aa\nVersion: 1\nInstalled: true\n",
    ),
    "upgrade-singleton": (
        "Package: aa\nVersion: 1\nInstalled: true\n\n"
        "Package: aa\nVersion: 2\n\n"
        "Problem: p\nUpgrade: aa\n",
        "Package: aa\nVersion: 1\nInstalled: true\n\n"
        "Package: aa\nVersion: 2\nInstalled: true\n",
    ),
    "upgrade-older": (
        "Package: aa\nVersion: 1\n\n"
        "Package: aa\nVersion: 2\nInstalled: true\n\n"
        "Problem: p\nUpgrade: aa\n",
        "Package: aa\nVersion: 1\nInstalled: true\n",
    ),
    "upgrade-absent": (
        "Package: aa\nVersion: 1\n\n"
        "Problem: p\nUpgrade: aa\n",
        "",
    ),
    "every-clause": (
        "Package: aa\nVersion: 1\nInstalled: true\nKeep: package\n\n"
        "Package: bb\nVersion: 1\nConflicts: cc\nInstalled: true\n\n"
        "Package: cc\nVersion: 1\n\n"
        "Package: dd\nVersion: 1\nInstalled: true\n\n"
        "Package: gg\nVersion: 1\nDepends: zz\n\n"
        "Problem: p\nInstall: cc, ee\nRemove: dd\nUpgrade: ff\n",
        "Package: bb\nVersion: 1\nInstalled: true\n\n"
        "Package: cc\nVersion: 1\nInstalled: true\n\n"
        "Package: dd\nVersion: 1\nInstalled: true\n\n"
        "Package: gg\nVersion: 1\nInstalled: true\n",
    ),
}


def _violation(clause, package, version, reason):
    return {"clause": clause, "package": package, "version": version,
            "reason": reason}


# name -> (exit code, violations of the `verify --json` payload)
EXPECTED = {
    "ok": (0, []),
    "depends": (1, [
        _violation("consistency/depends", "aa", 1, "unsatisfied dependency formula"),
    ]),
    "conflicts": (1, [
        _violation("consistency/conflicts", "aa", 1,
                   "conflict with another installed package"),
    ]),
    "keep-version": (1, [
        _violation("successor/keep", "aa", 1, "keep 'version not honored"),
    ]),
    "keep-package": (1, [
        _violation("successor/keep", "aa", 1, "keep 'package not honored"),
    ]),
    "keep-feature": (1, [
        _violation("successor/keep", "aa", 1, "keep 'feature not honored"),
    ]),
    "install": (1, [
        _violation("install", "cc", None, "install target not satisfied"),
    ]),
    "remove": (1, [
        _violation("remove", "aa", None, "removed package still present"),
        _violation("remove", "ff", None, "removed package still present"),
    ]),
    "upgrade-target": (1, [
        _violation("upgrade", "aa", None, "upgrade target not satisfied"),
    ]),
    "upgrade-singleton": (1, [
        _violation("upgrade", "aa", None,
                   "upgraded package is not a singleton version"),
    ]),
    "upgrade-older": (1, [
        _violation("upgrade", "aa", 1, "upgrade went to an older version"),
    ]),
    "upgrade-absent": (1, [
        _violation("upgrade", "aa", None, "upgrade target not satisfied"),
        _violation("upgrade", "aa", None,
                   "upgraded package is not a singleton version"),
    ]),
    "every-clause": (1, [
        _violation("successor/keep", "aa", 1, "keep 'package not honored"),
        _violation("consistency/conflicts", "bb", 1,
                   "conflict with another installed package"),
        _violation("consistency/depends", "gg", 1, "unsatisfied dependency formula"),
        _violation("install", "ee", None, "install target not satisfied"),
        _violation("remove", "dd", None, "removed package still present"),
        _violation("upgrade", "ff", None, "upgrade target not satisfied"),
        _violation("upgrade", "ff", None,
                   "upgraded package is not a singleton version"),
    ]),
}


def _explain_lines(violations):
    """The stderr lines `verify --explain` prints for these violations."""
    lines = []
    for v in violations:
        where = v["package"] or ""
        if v["version"] is not None:
            where += f" {v['version']}"
        lines.append(f"  clause {v['clause']}: {v['reason']} [{where.strip()}]\n")
    return "".join(lines)


def _paths(tmp_path, name):
    problem, solution = FIXTURES[name]
    p, s = tmp_path / "problem.cudf", tmp_path / "solution.cudf"
    p.write_text(problem)
    s.write_text(solution)
    return ["--problem", str(p), "--solution", str(s)]


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_verify_json_payload_is_pinned(tmp_path, capsys, name):
    code, violations = EXPECTED[name]
    assert cli.main(["verify", *_paths(tmp_path, name), "--json"]) == code
    out, err = capsys.readouterr()
    assert json.loads(out) == {"ok": code == 0, "violations": violations}
    assert err == ""


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_verify_explain_output_is_pinned(tmp_path, capsys, name):
    code, violations = EXPECTED[name]
    assert cli.main(["verify", *_paths(tmp_path, name), "--explain"]) == code
    out, err = capsys.readouterr()
    assert out == ("request satisfied\n" if code == 0 else "request violated\n")
    assert err == _explain_lines(violations)


def test_explain_format_is_pinned(tmp_path, capsys):
    """The explain line format itself, spelled out once."""
    assert cli.main(["verify", *_paths(tmp_path, "every-clause"), "--explain"]) == 1
    assert capsys.readouterr().err == (
        "  clause successor/keep: keep 'package not honored [aa 1]\n"
        "  clause consistency/conflicts: conflict with another installed package [bb 1]\n"
        "  clause consistency/depends: unsatisfied dependency formula [gg 1]\n"
        "  clause install: install target not satisfied [ee]\n"
        "  clause remove: removed package still present [dd]\n"
        "  clause upgrade: upgrade target not satisfied [ff]\n"
        "  clause upgrade: upgraded package is not a singleton version [ff]\n"
    )


# A solution file only flips Installed flags, so the successor's domain
# and metadata clauses are reached through the library.

_BEFORE = textio.parse_cudf(
    b"Package: aa\nVersion: 1\nInstalled: true\n\n"
    b"Package: bb\nVersion: 1\nDepends: aa\n\n"
    b"Package: cc\nVersion: 2\n\n"
    b"Problem: p\n"
).document


def _after(*packages):
    return CudfDocument(packages=tuple(packages), request=_BEFORE.request)


def test_domain_violations_are_pinned(capsys):
    aa, bb, _cc = _BEFORE.packages
    dd = textio.parse_cudf(b"Package: dd\nVersion: 3\n\nProblem: p\n").document.packages[0]
    verdict = semantics.satisfies_request(_BEFORE, _BEFORE.request, _after(aa, bb, dd))
    payload = cli._verdict_json(verdict)
    assert payload == {"ok": False, "violations": [
        _violation("successor/domain", "cc", 2, "('cc', 2) missing from the successor"),
        _violation("successor/domain", "dd", 3, "('dd', 3) added by the successor"),
    ]}
    cli._explain(verdict)
    out, err = capsys.readouterr()
    assert out == "request violated\n"
    assert err == _explain_lines(payload["violations"])


def test_metadata_violations_are_pinned(capsys):
    aa, bb, cc = _BEFORE.packages
    changed = textio.parse_cudf(
        b"Package: bb\nVersion: 1\nDepends: cc\n\nProblem: p\n").document.packages[0]
    verdict = semantics.satisfies_request(
        _BEFORE, _BEFORE.request, _after(aa.with_installed(False), changed, cc))
    payload = cli._verdict_json(verdict)
    assert payload == {"ok": False, "violations": [
        _violation("successor/metadata", "bb", 1, "non-Installed property changed"),
    ]}
    assert verdict.failed_clauses() == ["successor"]
    cli._explain(verdict)
    out, err = capsys.readouterr()
    assert out == "request violated\n"
    assert err == _explain_lines(payload["violations"])


def test_failed_clauses_are_pinned():
    before = textio.parse_cudf(FIXTURES["every-clause"][0].encode()).document
    entries = textio.parse_solution(FIXTURES["every-clause"][1].encode())
    verdict = semantics.satisfies_request(
        before, before.request, textio.apply_solution(before, entries))
    assert verdict.failed_clauses() == [
        "successor", "consistency", "install", "remove", "upgrade"]
    assert not verdict.ok and not verdict.successor.ok and not verdict.consistency.ok
    assert [v.kind for v in verdict.successor.violations] == ["keep"]
    assert [v.kind for v in verdict.consistency.violations] == ["conflicts", "depends"]
