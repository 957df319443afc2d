import random
from pathlib import Path

import pytest

from _gen import _op, enumerate_solutions, naive_consistent, rand_document
from cudfkit import cli, semantics
from cudfkit.model import CudfDocument, PackageItem, RequestItem
from cudfkit.semantics import (
    ALL,
    FeatureIndex,
    constraint_satisfiable,
    is_consistent,
    is_successor,
    satisfies_constraint,
    satisfies_request,
)
from cudfkit.types import (
    RELOPS,
    TOP,
    TRUE,
    EnumValue,
    VersionConstraint,
    VPkg,
    VpkgFormula,
    VpkgList,
)


def pkg(name, version, depends=TRUE, conflicts=(), provides=(), installed=False,
        keep=None):
    return PackageItem(
        name=name,
        version=version,
        depends=depends,
        conflicts=VpkgList(tuple(conflicts)),
        provides=VpkgList(tuple(provides)),
        installed=installed,
        keep=EnumValue(("version", "package", "feature"), keep) if keep else None,
    )


def doc(*packages, request=None):
    return CudfDocument(packages=tuple(packages), request=request or RequestItem("pb"))


def eq(v):
    return VersionConstraint("=", v)


def req(install=(), remove=(), upgrade=()):
    return RequestItem(
        problem_id="pb",
        install=VpkgList(tuple(install)),
        remove=VpkgList(tuple(remove)),
        upgrade=VpkgList(tuple(upgrade)),
    )


# -- the index over installed stanzas -----------------------------------------

def test_installation_and_features():
    d = doc(
        pkg("aa", 1, installed=True, provides=[VPkg("ff", eq(2)), VPkg("gg")]),
        pkg("aa", 2, installed=True),
        pkg("bb", 1),
    )
    index = FeatureIndex([p for p in d.packages if p.installed])
    assert index.versions("aa") == {1, 2}
    assert index.versions("bb") == set()
    assert index.providers["aa"] == [(0, 1), (1, 2)]
    assert index.providers["ff"] == [(0, 2)]
    assert index.providers["gg"] == [(0, ALL)]
    assert index.provided(VPkg("ff", eq(2)))
    assert not index.provided(VPkg("ff", eq(3)))
    assert index.provided(VPkg("gg", VersionConstraint(">", 40)))
    assert repr(index.providers["gg"]) == "[(0, ALL)]"


def test_merge_all_absorbs():
    # xx has versioned contributions (its own stanzas) and an unversioned
    # one (a provide), so every satisfiable constraint on xx holds
    stanzas = [pkg("xx", 1), pkg("xx", 2), pkg("yy", 1, provides=[VPkg("xx")])]
    for order in (stanzas, stanzas[::-1]):
        index = FeatureIndex(order)
        assert index.versions("xx") == {1, 2}
        assert index.provided(VPkg("xx", eq(7)))
        assert index.provided(VPkg("xx", VersionConstraint(">", 2)))
        assert not index.provided(VPkg("xx", VersionConstraint("<", 1)))


def test_constraint_satisfaction():
    assert satisfies_constraint(3, TOP)
    assert satisfies_constraint(3, VersionConstraint(">=", 3))
    assert not satisfies_constraint(2, VersionConstraint(">", 2))
    # the one unsatisfiable constraint over positive versions
    assert not constraint_satisfiable(VersionConstraint("<", 1))
    assert constraint_satisfiable(VersionConstraint("<", 2))
    # an unversioned provide stands for every positive version
    index = FeatureIndex([pkg("bb", 1, provides=[VPkg("ff")])])
    assert index.provided(VPkg("ff", eq(99)))
    assert not index.provided(VPkg("ff", VersionConstraint("<", 1)))
    # an absent name satisfies nothing, not even the empty constraint
    assert not index.provided(VPkg("zz", TOP))


def test_constraint_satisfaction_matches_oracle_on_every_relop():
    for relop in RELOPS:
        for v in range(1, 6):
            for n in range(1, 6):
                assert satisfies_constraint(n, VersionConstraint(relop, v)) == _op(
                    n, relop, v), (n, relop, v)


def test_formula_and_list_satisfaction():
    # installed: aa 2, and gg through an unversioned provide of hh 1
    def installed(depends=TRUE):
        return doc(pkg("aa", 2, depends=depends, installed=True),
                   pkg("hh", 1, provides=[VPkg("gg")], installed=True))

    assert is_consistent(installed()).ok  # True depends holds
    # a clause holds through its one satisfied disjunct
    one_of = VpkgFormula(((VPkg("aa", eq(1)), VPkg("gg", eq(7))),))
    assert is_consistent(installed(one_of)).ok
    verdict = is_consistent(installed(VpkgFormula(((VPkg("zz"),),))))
    assert [v.kind for v in verdict.violations] == ["depends"]
    d = installed()
    r = req(install=[VPkg("aa"), VPkg("gg", eq(5))], remove=[VPkg("aa", eq(1))])
    assert satisfies_request(d, r, d).ok
    verdict = satisfies_request(d, req(remove=[VPkg("gg", eq(1))]), d)
    assert [(v.kind, v.package) for v in verdict.violations] == [("remove", "gg")]


# -- consistency --------------------------------------------------------------

def test_mail_agent_scenario():
    def mta(sendmail_in, postfix_in):
        return doc(
            pkg("sendmail", 1, installed=sendmail_in,
                conflicts=[VPkg("mail-transport-agent")],
                provides=[VPkg("mail-transport-agent")]),
            pkg("postfix", 2, installed=postfix_in,
                conflicts=[VPkg("mail-transport-agent")],
                provides=[VPkg("mail-transport-agent")]),
        )

    assert is_consistent(mta(True, False)).ok
    assert is_consistent(mta(False, True)).ok
    verdict = is_consistent(mta(True, True))
    assert not verdict.ok
    assert {v.kind for v in verdict.violations} == {"conflicts"}


def test_self_conflict_is_ignored():
    base = pkg("pp", 5, conflicts=[VPkg("pp")], installed=True)
    assert is_consistent(doc(base)).ok
    # a second version trips the same conflict
    assert not is_consistent(doc(base, pkg("pp", 6, installed=True))).ok
    # a conflict matching only the package itself is a no-op
    noop = pkg("pp", 5, conflicts=[VPkg("pp"), VPkg("pp", eq(5))], installed=True)
    assert is_consistent(doc(noop)).ok


def test_versioned_conflict():
    def with_q(qv):
        return doc(
            pkg("pp", 5, conflicts=[VPkg("qq", VersionConstraint(">=", 7))],
                installed=True),
            pkg("qq", qv, installed=True),
        )

    assert is_consistent(with_q(6)).ok
    assert not is_consistent(with_q(7)).ok


def test_dependency_through_feature():
    d = doc(
        pkg("app", 1, depends=VpkgFormula(((VPkg("ui", eq(3)),),)), installed=True),
        pkg("toolkit", 9, provides=[VPkg("ui", eq(3))], installed=True),
    )
    assert is_consistent(d).ok
    d2 = doc(*[p.with_installed(p.name == "app") for p in d.packages])
    verdict = is_consistent(d2)
    assert [v.kind for v in verdict.violations] == ["depends"]


def test_consistency_matches_naive_oracle():
    rng = random.Random(99)
    mismatches = 0
    for _ in range(500):
        d = rand_document(rng, allow_top_provides=False, with_request=False)
        if is_consistent(d).ok != naive_consistent(d):
            mismatches += 1
    assert mismatches == 0


# -- successor relation -------------------------------------------------------

def test_successor_reflexive_and_domain_fixed():
    d = doc(pkg("aa", 1, installed=True), pkg("bb", 2))
    assert is_successor(d, d).ok
    grown = CudfDocument(packages=d.packages + (pkg("cc", 1),), request=d.request)
    verdict = is_successor(d, grown)
    assert [v.kind for v in verdict.violations] == ["domain"]
    shrunk = CudfDocument(packages=d.packages[:1], request=d.request)
    assert not is_successor(d, shrunk).ok


@pytest.mark.parametrize("change", [
    {"keep": "package"},
    {"depends": VpkgFormula(((VPkg("bb"),),))},
    {"conflicts": [VPkg("bb")]},
    {"provides": [VPkg("ff")]},
], ids=["keep", "depends", "conflicts", "provides"])
def test_successor_metadata_frozen(change):
    before = doc(pkg("aa", 1, installed=True))
    after = doc(pkg("aa", 1, installed=True, **change))
    verdict = is_successor(before, after)
    assert [v.kind for v in verdict.violations] == ["metadata"]


def flip(d, *keys):
    """Successor of d with exactly the given keys installed."""
    keys = set(keys)
    return CudfDocument(
        packages=tuple(p.with_installed(p.key in keys) for p in d.packages),
        request=d.request,
    )


def test_keep_version():
    d = doc(pkg("aa", 1, installed=True, keep="version"), pkg("aa", 2))
    assert is_successor(d, flip(d, ("aa", 1), ("aa", 2))).ok
    verdict = is_successor(d, flip(d, ("aa", 2)))
    assert [v.kind for v in verdict.violations] == ["keep"]


def test_keep_package():
    d = doc(pkg("aa", 1, installed=True, keep="package"), pkg("aa", 2))
    assert is_successor(d, flip(d, ("aa", 2))).ok  # another version suffices
    assert not is_successor(d, flip(d)).ok


def test_keep_feature():
    d = doc(
        pkg("aa", 1, installed=True, keep="feature", provides=[VPkg("ff", eq(3))]),
        pkg("bb", 1, provides=[VPkg("ff", eq(3))]),
    )
    # the feature may move to a different provider
    assert is_successor(d, flip(d, ("bb", 1))).ok
    assert not is_successor(d, flip(d)).ok


def test_keep_binds_installed_packages_only():
    d = doc(pkg("aa", 1, installed=False, keep="version"))
    assert is_successor(d, flip(d)).ok


# -- request semantics --------------------------------------------------------

def test_install_and_remove_clauses():
    d = doc(pkg("aa", 1), pkg("bb", 1, installed=True))
    r = req(install=[VPkg("aa")], remove=[VPkg("bb")])
    good = flip(d, ("aa", 1))
    assert satisfies_request(d, r, good).ok
    verdict = satisfies_request(d, r, flip(d, ("aa", 1), ("bb", 1)))
    assert [v.kind for v in verdict.violations] == ["remove"]
    verdict = satisfies_request(d, r, flip(d))
    assert [v.kind for v in verdict.violations] == ["install"]


def test_remove_covers_features_too():
    d = doc(pkg("aa", 1, provides=[VPkg("ff", eq(1))], installed=True))
    r = req(remove=[VPkg("ff")])
    assert not satisfies_request(d, r, flip(d, ("aa", 1))).ok
    assert satisfies_request(d, r, flip(d)).ok


def test_upgrade_triple():
    d = doc(
        pkg("aa", 1, installed=True),
        pkg("aa", 2, installed=True),
    )
    r = req(upgrade=[VPkg("aa")])
    assert satisfies_request(d, r, flip(d, ("aa", 2))).ok
    # downgrade below an installed version
    assert not satisfies_request(d, r, flip(d, ("aa", 1))).ok
    # multiple versions left installed
    assert not satisfies_request(d, r, flip(d, ("aa", 1), ("aa", 2))).ok


def test_upgrade_requires_singleton_and_dominance():
    d = doc(pkg("aa", 1, installed=True), pkg("aa", 2), pkg("aa", 3))
    r = req(upgrade=[VPkg("aa", VersionConstraint(">=", 2))])
    assert satisfies_request(d, r, flip(d, ("aa", 3))).ok
    assert satisfies_request(d, r, flip(d, ("aa", 2))).ok
    verdict = satisfies_request(d, r, flip(d))
    assert "upgrade" in verdict.failed_clauses()


def test_request_embeds_consistency():
    d = doc(
        pkg("aa", 1, depends=VpkgFormula(((VPkg("bb"),),))),
        pkg("bb", 1),
    )
    r = req(install=[VPkg("aa")])
    bad = flip(d, ("aa", 1))
    verdict = satisfies_request(d, r, bad)
    assert verdict.failed_clauses() == ["consistency"]
    assert satisfies_request(d, r, flip(d, ("aa", 1), ("bb", 1))).ok


# -- structural invariants over random documents ------------------------------

def test_enumeration_agrees_with_request_checker():
    """Spot check: every enumerated solution verifies, every non-solution
    does not (already implied, but guards the oracle helper itself)."""
    rng = random.Random(31)
    d = rand_document(rng, max_names=2, max_versions=2)
    solutions = enumerate_solutions(d, d.request)
    for installed, candidate in solutions.items():
        assert {p.key for p in candidate.packages if p.installed} == set(installed)
        assert satisfies_request(d, d.request, candidate).ok


# -- work counts ------------------------------------------------------------------

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("problem, solution, indexed", [
    ("mta.cudf", "postfix", [[("postfix", 2)]]),
    # An Upgrade adds one index over the original installation.
    ("upgrade.cudf", "editor", [[("editor", 2)], [("editor", 1)]]),
])
def test_one_verify_builds_one_index_over_the_solutions_installed_stanzas(
        monkeypatch, tmp_path, problem, solution, indexed):
    built = []

    class CountingIndex(FeatureIndex):
        __slots__ = ()

        def __init__(self, stanzas):
            built.append([p.key for p in stanzas])
            super().__init__(stanzas)

    monkeypatch.setattr(semantics, "FeatureIndex", CountingIndex)
    path = tmp_path / "solution"
    path.write_text(f"Package: {solution}\nVersion: 2\nInstalled: true\n")
    argv = ["verify", "--problem", str(GOLDEN / problem), "--solution", str(path)]
    assert cli.main(argv) == 0
    assert built == indexed
