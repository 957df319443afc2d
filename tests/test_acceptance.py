"""Acceptance gate: one test per criterion.  Each registers its number
and label in CRITERIA_LABELS; the conftest terminal-summary hook prints
one PASS/FAIL line per criterion at the end of the run."""

import random
import time
from pathlib import Path

import pytest

from _gen import enumerate_solutions, make_extra, naive_consistent, rand_document
from cudfkit import cli, textio
from cudfkit.dudf import (
    DudfDocument,
    DudfOutcome,
    DudfProblem,
    Extensional,
    PackageList,
    PackageStatus,
    SchemaViolation,
    dudf_to_xml,
    toy_convert,
    validate_dudf,
    xml_to_dudf,
)
from cudfkit.model import CudfDocument, PackageItem, RequestItem
from cudfkit.semantics import is_consistent, is_successor, satisfies_request
from cudfkit.solver import CRITERIA, preset_costs, solve
from cudfkit.types import (
    EnumValue,
    VersionConstraint,
    VPkg,
    VpkgList,
)

GOLDEN = sorted(Path(__file__).parent.glob("golden/*.cudf"))


CRITERIA_LABELS = {}


def criterion(number, label):
    def deco(fn):
        CRITERIA_LABELS[fn.__name__] = (number, label)
        return fn
    return deco


def pkg(name, version, installed=False, conflicts=(), provides=(), keep=None,
        sizes=None):
    return PackageItem(
        name=name, version=version, installed=installed,
        conflicts=VpkgList(tuple(conflicts)), provides=VpkgList(tuple(provides)),
        keep=EnumValue(("version", "package", "feature"), keep) if keep else None,
        extra=make_extra(sizes or {}),
    )


def doc(*packages, request=None):
    return CudfDocument(packages=tuple(packages),
                        request=request or RequestItem("pb"))


def flip(d, *keys):
    keys = set(keys)
    return CudfDocument(
        packages=tuple(p.with_installed(p.key in keys) for p in d.packages),
        request=d.request,
    )


@criterion(1, "mail-transport-agent scenario, < 1 s")
def test_criterion_01_mail_agent():
    start = time.monotonic()

    def mta(sendmail_in, postfix_in):
        return doc(
            pkg("sendmail", 1, installed=sendmail_in,
                conflicts=[VPkg("mail-transport-agent")],
                provides=[VPkg("mail-transport-agent")]),
            pkg("postfix", 2, installed=postfix_in,
                conflicts=[VPkg("mail-transport-agent")],
                provides=[VPkg("mail-transport-agent")]),
        )

    assert is_consistent(mta(True, False)).ok is True
    assert is_consistent(mta(False, True)).ok is True
    assert is_consistent(mta(True, True)).ok is False
    assert time.monotonic() - start < 1.0


@criterion(2, "self-conflicts are ignored, exact boolean match")
def test_criterion_02_self_conflict():
    alone = doc(pkg("pp", 5, installed=True, conflicts=[VPkg("pp")]))
    assert is_consistent(alone).ok is True
    both = doc(
        pkg("pp", 5, installed=True, conflicts=[VPkg("pp")]),
        pkg("pp", 6, installed=True),
    )
    assert is_consistent(both).ok is False
    # the no-op conflict "pp = 5" on (pp, 5) changes nothing
    noop = doc(pkg("pp", 5, installed=True,
                   conflicts=[VPkg("pp"), VPkg("pp", VersionConstraint("=", 5))]))
    assert is_consistent(noop).ok is True
    noop_both = doc(
        pkg("pp", 5, installed=True,
            conflicts=[VPkg("pp"), VPkg("pp", VersionConstraint("=", 5))]),
        pkg("pp", 6, installed=True),
    )
    assert is_consistent(noop_both).ok is False


@criterion(3, "versioned conflict (qq >= 7), exact match")
def test_criterion_03_versioned_conflict():
    def with_q(qv):
        return doc(
            pkg("pp", 5, installed=True,
                conflicts=[VPkg("qq", VersionConstraint(">=", 7))]),
            pkg("qq", qv, installed=True),
        )

    assert is_consistent(with_q(6)).ok is True
    assert is_consistent(with_q(7)).ok is False


@criterion(4, "500-document round trip and fmt idempotence, < 10 s")
def test_criterion_04_roundtrip():
    start = time.monotonic()
    rng = random.Random(20260823)
    for _ in range(500):
        d = rand_document(rng)
        data = textio.serialize_cudf(d)
        report = textio.parse_cudf(data)
        assert report.recovered_errors == []
        assert report.document == d
        assert textio.serialize_cudf(report.document) == data
    assert time.monotonic() - start < 10.0


@criterion(5, "corrupting one stanza drops exactly that stanza, 100 runs")
def test_criterion_05_error_recovery():
    rng = random.Random(555)
    corruptions = (
        "no separator on this line",
        "Version: 0",          # duplicate property with a bad value
        "Depends: |",          # lexical error (or duplicate, both recoverable)
        "1bad: value",
    )
    for _ in range(100):
        d = rand_document(rng, max_names=4, max_versions=3)
        text = textio.serialize_cudf(d).decode("utf-8")
        stanzas = text.split("\n\n")
        target = rng.randrange(len(stanzas) - 1)  # last stanza is the problem
        stanzas[target] += "\n" + rng.choice(corruptions)
        report = textio.parse_cudf("\n\n".join(stanzas).encode("utf-8"))
        assert len(report.document.packages) == len(d.packages) - 1
        surviving = {p.key for p in report.document.packages}
        assert surviving == {p.key for p in d.packages} - {d.packages[target].key}
        assert len(report.recovered_errors) == 1
        assert report.recovered_errors[0].stanza_index == target


@criterion(6, "consistency checker equals the naive oracle on 5000 instances")
def test_criterion_06_oracle_equivalence():
    rng = random.Random(60606)
    disagreements = 0
    for _ in range(5000):
        d = rand_document(rng, max_names=4, max_versions=3,
                          with_provides=False, with_request=False)
        if is_consistent(d).ok != naive_consistent(d):
            disagreements += 1
    assert disagreements == 0


@criterion(7, "solver optimal vs full enumeration, 5 presets, 200 instances, < 60 s")
def test_criterion_07_solver_optimality():
    start = time.monotonic()
    rng = random.Random(70707)
    solvable = 0
    for i in range(200):
        max_stanzas = 12 if i % 20 == 0 else 7
        d = rand_document(rng, max_names=4, max_versions=3,
                          max_stanzas=max_stanzas)
        packages = tuple(
            PackageItem(name=p.name, version=p.version, depends=p.depends,
                        conflicts=p.conflicts, provides=p.provides,
                        installed=p.installed, keep=p.keep,
                        extra=make_extra({
                            "Installed-Size": rng.randint(1, 40),
                            "Download-Size": rng.randint(1, 40),
                        }))
            for p in d.packages
        )
        d = CudfDocument(packages=packages, request=d.request)
        assert len(d.packages) <= 12
        solutions = enumerate_solutions(d, d.request)
        if solutions:
            solvable += 1
        for name in CRITERIA:
            costs = preset_costs(d, d.request, name)
            result = solve(d, d.request, costs)
            if not solutions:
                assert result.status == "no_solution"
                continue
            # an optimum exists and is found
            assert result.status == "solution"
            best = min(sum(costs[k] for k in inst) for inst in solutions)
            assert result.cost == best
            assert satisfies_request(d, d.request, result.document).ok
    assert solvable >= 20  # the sample exercises both outcomes
    assert time.monotonic() - start < 60.0


@criterion(8, "upgrade clause triple {1,2}->{2} / {1} / {1,2}")
def test_criterion_08_upgrade_triple():
    d = doc(pkg("aa", 1, installed=True), pkg("aa", 2, installed=True))
    r = RequestItem("pb", upgrade=VpkgList((VPkg("aa"),)))
    assert satisfies_request(d, r, flip(d, ("aa", 2))).ok is True
    assert satisfies_request(d, r, flip(d, ("aa", 1))).ok is False
    assert satisfies_request(d, r, flip(d, ("aa", 1), ("aa", 2))).ok is False


@criterion(9, "keep obligations: 'version, 'package, 'feature")
def test_criterion_09_keep():
    pinned = doc(pkg("aa", 1, installed=True, keep="version"), pkg("aa", 2))
    assert is_successor(pinned, flip(pinned, ("aa", 1), ("aa", 2))).ok is True
    assert is_successor(pinned, flip(pinned, ("aa", 2))).ok is False

    survivor = doc(pkg("aa", 1, installed=True, keep="package"), pkg("aa", 2))
    assert is_successor(survivor, flip(survivor, ("aa", 2))).ok is True
    assert is_successor(survivor, flip(survivor)).ok is False

    featureful = doc(
        pkg("aa", 1, installed=True, keep="feature",
            provides=[VPkg("ff", VersionConstraint("=", 3))]),
        pkg("bb", 1, provides=[VPkg("ff", VersionConstraint("=", 3))]),
    )
    # re-provision by a different package satisfies the obligation
    assert is_successor(featureful, flip(featureful, ("bb", 1))).ok is True
    assert is_successor(featureful, flip(featureful)).ok is False


@criterion(10, "explicit defaults parse identically to omitted lines")
def test_criterion_10_default_indistinguishability():
    base = "Package: aa\nVersion: 1\n"
    explicit_package = (
        base + "Conflicts: \nProvides: \nInstalled: false\n"
    )
    # Depends has no writable default: the True formula only exists by omission
    plain = textio.parse_cudf((base + "\nProblem: pb\n").encode()).document
    spelled = textio.parse_cudf(
        (explicit_package + "\nProblem: pb\n").encode()
    ).document
    assert plain == spelled

    for prop in ("Install", "Remove", "Upgrade"):
        with_line = textio.parse_cudf(
            (base + f"\nProblem: pb\n{prop}: \n").encode()
        ).document
        assert with_line == plain


@criterion(11, "DUDF round trip, broken fixtures, toy conversion checks clean")
def test_criterion_11_dudf(tmp_path):
    from test_dudf import rand_dudf, sample

    rng = random.Random(11111)
    for _ in range(100):
        d = rand_dudf(rng)
        assert xml_to_dudf(dudf_to_xml(d)) == d

    data = dudf_to_xml(sample())
    wrong_ns = data.replace(
        b"http://www.mancoosi.org/2008/cudf/dudf", b"http://example.org/nope"
    )
    with pytest.raises(SchemaViolation, match="root must be dudf"):
        xml_to_dudf(wrong_ns)
    no_uid = data.replace(b"<uid>submission-0001</uid>", b"")
    with pytest.raises(SchemaViolation, match="dudf/uid"):
        xml_to_dudf(no_uid)
    failure = dudf_to_xml(sample(outcome=DudfOutcome(
        "failure", error=Extensional("boom"))))
    with_status = failure.replace(
        b"</outcome>",
        b"<package-status><installer>x</installer></package-status></outcome>",
    )
    with pytest.raises(SchemaViolation, match="only on success"):
        xml_to_dudf(with_status)
    bad_ts = xml_to_dudf(data.replace(
        b"Tue, 18 Aug 2026 09:30:00 +0200", b"sometime last week"
    ))
    assert [v.path for v in validate_dudf(bad_ts) if v.level == "error"] == [
        "dudf/timestamp"
    ]

    convertible = DudfDocument(
        timestamp="Tue, 18 Aug 2026 09:30:00 +0200",
        uid="acceptance-11",
        distribution="examplix 9.2",
        installer=("exampkg", "1.4"),
        meta_installer=("exampkg-frontend", "0.9"),
        problem=DudfProblem(
            package_status=PackageStatus(
                installer=Extensional("Package: core\nVersion: 1\n")
            ),
            package_universe=(
                PackageList("cudf-stanzas", Extensional(
                    "Package: core\nVersion: 2\n\n"
                    "Package: addon\nVersion: 1\nDepends: core >= 2\n"
                )),
            ),
            action=Extensional("Install: addon"),
        ),
    )
    converted = toy_convert(convertible)
    out = tmp_path / "converted.cudf"
    out.write_bytes(textio.serialize_cudf(converted))
    assert cli.main(["check", str(out), "--strict"]) == 0


@criterion(12, "stanza splitter agrees with a mail-header splitter on the corpus")
def test_criterion_12_rfc822_agreement():
    from test_textio import native_blocks, rfc822_blocks

    assert GOLDEN, "golden corpus missing"
    rng = random.Random(121212)
    corpus = [path.read_bytes() for path in GOLDEN]
    corpus += [textio.serialize_cudf(rand_document(rng)) for _ in range(50)]
    for data in corpus:
        assert rfc822_blocks(data) == native_blocks(data)
