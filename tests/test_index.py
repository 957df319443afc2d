"""The name/feature index behind consistency checking and compilation,
checked against the naive oracles and the whole-universe scan oracle."""

import random

from _gen import (
    naive_consistency_violations,
    naive_request_violations,
    naive_successor_violations,
    rand_document,
    scan_compile,
)
from cudfkit._record import replace
from cudfkit.model import CudfDocument, PackageItem, RequestItem
from cudfkit.semantics import is_consistent, is_successor, satisfies_request
from cudfkit.solver._compile import compile_problem
from cudfkit.types import EnumValue, VersionConstraint, VPkg, VpkgList

MASK_FIELDS = ("pinned", "free_bits", "dep_clauses", "exclusions", "clauses", "zeros")


def pkg(name, version, conflicts=(), provides=(), installed=False):
    return PackageItem(name=name, version=version,
                       conflicts=VpkgList(tuple(conflicts)),
                       provides=VpkgList(tuple(provides)), installed=installed)


def doc(*packages, install=()):
    return CudfDocument(packages=tuple(packages),
                        request=RequestItem("pb", install=VpkgList(tuple(install))))


def eq(v):
    return VersionConstraint("=", v)


def consistency(d):
    return [(v.package, v.version, v.kind) for v in is_consistent(d).violations]


def compiled_masks(d):
    problem = compile_problem(d, d.request, {})
    return {name: getattr(problem, name) for name in MASK_FIELDS}


def store_form(masks):
    """scan_compile's request-shaped masks in the compiled store's form:
    bits i and j exclude each other when either conflicts with the other
    or both are versions of an upgraded name; the upgrade clauses follow
    the keep and install ones; removes and the versions below an
    upgrade's floor are zeros."""
    n = len(masks["dep_clauses"])
    conflicts, upgrades = masks["conflict_mask"], masks["upgrades"]

    def both(mask, i, j):
        return (mask >> i) & 1 and (mask >> j) & 1

    exclusions = [
        sum(1 << j for j in range(n)
            if (conflicts[i] >> j) & 1 or (conflicts[j] >> i) & 1
            or (i != j and any(both(name_bits, i, j) for _, name_bits, _ in upgrades)))
        for i in range(n)
    ]
    clauses = masks["required"] + [
        mask for clause, name_bits, _ in upgrades for mask in (clause, name_bits)
    ]
    zeros = 0
    for mask in masks["forbidden"]:
        zeros |= mask
    for _, name_bits, allowed in upgrades:
        zeros |= name_bits & ~allowed
    return {"pinned": masks["pinned"], "free_bits": masks["free_bits"],
            "dep_clauses": masks["dep_clauses"], "exclusions": exclusions,
            "clauses": clauses, "zeros": zeros}


def random_documents(seed, count):
    rng = random.Random(seed)
    for i in range(count):
        yield rng, rand_document(rng, max_names=3 + i % 6, max_versions=1 + i % 4)


# -- differential: index against the oracles ----------------------------------

def test_compiled_masks_match_scan_oracle():
    for _, d in random_documents(404, 600):
        assert compiled_masks(d) == store_form(scan_compile(d, d.request))


def test_consistency_violations_match_naive_oracle():
    for _, d in random_documents(405, 600):
        assert consistency(d) == naive_consistency_violations(d)


def test_successor_violations_match_naive_oracle():
    for rng, before in random_documents(406, 600):
        packages = [p.with_installed(rng.random() < 0.5) for p in before.packages]
        roll = rng.random()
        if roll < 0.15:
            packages.pop(rng.randrange(len(packages)))
        elif roll < 0.3:
            i = rng.randrange(len(packages))
            packages[i] = replace(packages[i], conflicts=VpkgList((VPkg("zz"),)))
        after = CudfDocument(packages=tuple(packages), request=before.request)
        got = [(v.kind, v.package, v.version)
               for v in is_successor(before, after).violations]
        assert got == naive_successor_violations(before, after)


def test_successor_violations_on_shared_repeated_and_reordered_stanzas_match_oracle():
    # The solution shares unchanged stanzas with the problem, as
    # apply_solution does, and lists them in another order; a repeated
    # key's later stanza differs, so which stanza comes first decides.
    kinds = set()
    for rng, before in random_documents(408, 600):
        packages = list(before.packages)
        twin = rng.choice(packages)
        packages.insert(rng.randrange(len(packages) + 1),
                        replace(twin, conflicts=VpkgList((VPkg("zz"),))))
        before = CudfDocument(packages=tuple(packages), request=before.request)
        packages = [p if rng.random() < 0.5 else p.with_installed(not p.installed)
                    for p in packages]
        rng.shuffle(packages)
        after = CudfDocument(packages=tuple(packages), request=before.request)
        got = [(v.kind, v.package, v.version)
               for v in is_successor(before, after).violations]
        assert got == naive_successor_violations(before, after)
        kinds.update(kind for kind, _, _ in got)
    assert kinds == {"metadata", "keep"}


def test_request_violations_match_naive_oracle():
    clauses = set()
    for rng, before in random_documents(407, 800):
        packages = [p.with_installed(rng.random() < 0.5) for p in before.packages]
        if rng.random() < 0.05:
            packages.pop(rng.randrange(len(packages)))
        after = CudfDocument(packages=tuple(packages), request=before.request)
        got = [(v.kind, v.package, v.version)
               for v in satisfies_request(before, before.request, after).violations]
        assert got == naive_request_violations(before, before.request, after)
        clauses.update((clause, version is None) for clause, _, version in got)
    # each clause failed, an upgrade to an older version (the one
    # violation that names a version) among them
    assert clauses == {("install", True), ("remove", True), ("upgrade", True),
                       ("upgrade", False)}


# -- hand-built edge cases ----------------------------------------------------

def test_duplicate_keys_exclude_by_key_in_semantics_and_by_position_in_compile():
    twin = pkg("pp", 1, conflicts=[VPkg("pp")], installed=True)
    d = doc(twin, twin)
    assert consistency(d) == []
    assert compile_problem(d, d.request, {}).exclusions == [0b10, 0b01]


def test_duplicate_keys_successor_reads_first_stanza():
    first = pkg("pp", 1, conflicts=[VPkg("qq")])
    before = doc(first, pkg("pp", 1))
    assert is_successor(before, doc(first, pkg("pp", 1, conflicts=[VPkg("rr")]))).ok
    verdict = is_successor(before, doc(pkg("pp", 1), first))
    assert [v.kind for v in verdict.violations] == ["metadata"]


def test_successor_reads_the_first_stanza_of_each_key_in_any_order():
    first = pkg("pp", 1, conflicts=[VPkg("qq")], installed=True)
    later = pkg("pp", 1, conflicts=[VPkg("rr")])
    other = pkg("oo", 2, installed=True)
    before = doc(first, other, later)
    for after in (doc(other, first, later),  # shared and reordered
                  doc(other, first.with_installed(False), pkg("pp", 1)),  # rebuilt
                  doc(pkg("pp", 1, conflicts=[VPkg("qq")]), later, other)):
        assert is_successor(before, after).ok
    for after in (doc(other, later, first), doc(later.with_installed(True), first, other)):
        verdict = is_successor(before, after)
        assert [(v.kind, v.package, v.version) for v in verdict.violations] == [
            ("metadata", "pp", 1)]


def test_package_providing_its_own_name():
    own = pkg("pp", 1, provides=[VPkg("pp", eq(3))],
              conflicts=[VPkg("pp", VersionConstraint(">=", 2))], installed=True)
    assert consistency(doc(own)) == []
    assert consistency(doc(own, pkg("pp", 2, installed=True))) == [
        ("pp", 1, "conflicts")
    ]
    d = doc(own, pkg("pp", 2), install=[VPkg("pp", eq(3))])
    problem = compile_problem(d, d.request, {})
    assert problem.clauses == [0b01]
    assert problem.exclusions == [0b10, 0b01]


def test_unversioned_provide_hit_by_conflict():
    provider = pkg("bb", 1, provides=[VPkg("ff")], installed=True)
    hit = pkg("aa", 1, conflicts=[VPkg("ff", eq(7))], installed=True)
    assert consistency(doc(hit, provider)) == [("aa", 1, "conflicts")]
    assert compile_problem(doc(hit, provider), RequestItem(), {}).exclusions == [
        0b10, 0b01
    ]
    # no version satisfies "< 1", not even through an unversioned provide
    miss = pkg("aa", 1, conflicts=[VPkg("ff", VersionConstraint("<", 1))],
               installed=True)
    assert consistency(doc(miss, provider)) == []
    assert compile_problem(doc(miss, provider), RequestItem(), {}).exclusions == [
        0, 0
    ]


def test_self_conflict_through_own_provide():
    def mta(name, version):
        return pkg(name, version, conflicts=[VPkg("mta")], provides=[VPkg("mta")],
                   installed=True)

    assert consistency(doc(mta("exim", 1))) == []
    assert compile_problem(doc(mta("exim", 1)), RequestItem(), {}).exclusions == [0]
    assert consistency(doc(mta("exim", 1), mta("exim", 2))) == [
        ("exim", 1, "conflicts"), ("exim", 2, "conflicts")
    ]


def test_keep_package_group_and_upgrade_bits_from_name_index():
    keep = EnumValue(("version", "package", "feature"), "package")
    d = CudfDocument(
        packages=(
            PackageItem("aa", 2, installed=True, keep=keep),
            PackageItem("bb", 1, provides=VpkgList((VPkg("aa", eq(9)),))),
            PackageItem("aa", 1),
            PackageItem("aa", 3),
        ),
        request=RequestItem("pb", upgrade=VpkgList((VPkg("aa"),))),
    )
    problem = compile_problem(d, d.request, {})
    assert [p.key for p in problem.stanzas] == [("aa", 1), ("aa", 2), ("aa", 3), ("bb", 1)]
    # keep 'package, then the upgrade's clause and its name group; the
    # provider of feature aa is in neither group, only in the clause
    assert problem.clauses == [0b0111, 0b1111, 0b0111]
    # aa 1 lies below the installed aa 2; the aa versions exclude each other
    assert problem.zeros == 0b0001
    assert problem.exclusions == [0b0110, 0b0101, 0b0011, 0]
