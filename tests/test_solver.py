import random

import pytest

from _gen import (
    enumerate_solutions,
    exhaustive_search,
    make_extra,
    mask_less,
    rand_document,
    scan_compile,
    scan_problem,
)
from cudfkit import cli, replace, solver, textio
from cudfkit.model import (
    CudfDocument,
    PackageItem,
    PropertySchema,
    RequestItem,
    SchemaRegistry,
)
from cudfkit.semantics import satisfies_request
from cudfkit.solver import (
    CRITERIA,
    MissingSizeProperty,
    installation_cost,
    preset_costs,
    solve,
)
from cudfkit.solver._compile import compile_problem
from cudfkit.solver import _kernel_py
from cudfkit.types import VersionConstraint, VPkg, VpkgFormula, VpkgList


def pkg(name, version, installed=False, sizes=None, **kw):
    extra = make_extra(sizes or {})
    return PackageItem(name=name, version=version, installed=installed,
                       extra=extra, **kw)


def doc(*packages, request=None):
    return CudfDocument(packages=tuple(packages), request=request or RequestItem("pb"))


def req(install=(), remove=(), upgrade=()):
    return RequestItem("pb", install=VpkgList(tuple(install)),
                       remove=VpkgList(tuple(remove)),
                       upgrade=VpkgList(tuple(upgrade)))


def with_sizes(d, rng, top=50):
    packages = []
    for p in d.packages:
        sizes = {"Installed-Size": rng.randint(1, top),
                 "Download-Size": rng.randint(1, top)}
        packages.append(
            PackageItem(name=p.name, version=p.version, depends=p.depends,
                        conflicts=p.conflicts, provides=p.provides,
                        installed=p.installed, keep=p.keep,
                        extra=make_extra(sizes))
        )
    return CudfDocument(packages=tuple(packages), request=d.request)


# -- cost presets -------------------------------------------------------------

def test_installation_cost():
    d = doc(pkg("aa", 1, installed=True), pkg("bb", 1, installed=True),
            pkg("cc", 1))
    costs = {("aa", 1): 10, ("bb", 1): 4, ("cc", 1): 100}
    assert installation_cost(d, costs) == 14


def test_min_removed_counts_current_installation():
    d = doc(pkg("aa", 1, installed=True), pkg("bb", 1, installed=True),
            pkg("cc", 1, installed=True), pkg("dd", 1))
    costs = preset_costs(d, d.request, "min-removed")
    assert costs == {("aa", 1): -1, ("bb", 1): -1, ("cc", 1): -1, ("dd", 1): 0}
    assert installation_cost(d, costs) == -3


def test_prefer_latest_costs():
    d = doc(pkg("aa", 1), pkg("aa", 3), pkg("bb", 2))
    costs = preset_costs(d, d.request, "prefer-latest")
    assert costs == {("aa", 1): 1, ("aa", 3): 0, ("bb", 2): 0}


def test_min_new_spares_installed_and_requested():
    d = doc(pkg("aa", 1, installed=True), pkg("bb", 1), pkg("cc", 1))
    r = req(install=[VPkg("bb")])
    costs = preset_costs(d, r, "min-new")
    assert costs == {("aa", 1): 0, ("bb", 1): 0, ("cc", 1): 1}


def test_min_new_spares_upgrade_targets():
    d = doc(pkg("aa", 1, installed=True), pkg("aa", 2), pkg("aa", 3), pkg("bb", 1))
    r = req(upgrade=[VPkg("aa", VersionConstraint(">=", 3))])
    costs = preset_costs(d, r, "min-new")
    assert costs == {("aa", 1): 0, ("aa", 2): 1, ("aa", 3): 0, ("bb", 1): 1}


def test_size_presets():
    d = doc(
        pkg("aa", 1, installed=True,
            sizes={"Installed-Size": 7, "Download-Size": 5}),
        pkg("bb", 1, sizes={"Installed-Size": 3, "Download-Size": 2}),
    )
    assert preset_costs(d, d.request, "installed-size") == {
        ("aa", 1): 7, ("bb", 1): 3,
    }
    # nothing to download for what is already installed
    assert preset_costs(d, d.request, "download-size") == {
        ("aa", 1): 0, ("bb", 1): 2,
    }


def test_missing_size_property_raises():
    d = doc(pkg("aa", 1))
    with pytest.raises(MissingSizeProperty):
        preset_costs(d, d.request, "installed-size")
    with pytest.raises(ValueError):
        preset_costs(d, d.request, "no-such-criterion")


# -- solve: targeted scenarios ------------------------------------------------

def test_solve_mail_agent_switch():
    d = doc(
        pkg("sendmail", 1, installed=True,
            conflicts=VpkgList((VPkg("mail-transport-agent"),)),
            provides=VpkgList((VPkg("mail-transport-agent"),))),
        pkg("postfix", 2,
            conflicts=VpkgList((VPkg("mail-transport-agent"),)),
            provides=VpkgList((VPkg("mail-transport-agent"),))),
    )
    r = req(install=[VPkg("postfix")], remove=[VPkg("sendmail")])
    result = solve(d, r, preset_costs(d, r, "min-new"))
    assert result.status == "solution"
    installed = {p.key for p in result.document.packages if p.installed}
    assert installed == {("postfix", 2)}
    assert result.cost == 0


def test_solve_no_solution():
    d = doc(pkg("aa", 1, depends=VpkgFormula(((VPkg("bb"),),))))
    r = req(install=[VPkg("aa")])
    result = solve(d, r, {})
    assert result.status == "no_solution"
    assert result.explored == 1  # propagation refutes the root node


def test_solve_tie_break_is_lexicographic():
    d = doc(pkg("aa", 1), pkg("aa", 2))
    r = req(install=[VPkg("aa")])
    result = solve(d, r, {})
    installed = {p.key for p in result.document.packages if p.installed}
    assert installed == {("aa", 1)}


def test_solve_respects_keep_pin():
    from cudfkit.types import EnumValue

    pinned = PackageItem("aa", 1, installed=True,
                         keep=EnumValue(("version", "package", "feature"),
                                        "version"))
    d = doc(pinned, pkg("aa", 2))
    r = req(upgrade=[VPkg("aa")])
    result = solve(d, r, preset_costs(d, r, "min-new"))
    # upgrade wants a singleton at >= 1 but keep pins version 1
    installed = {p.key for p in result.document.packages if p.installed}
    assert result.status == "solution"
    assert installed == {("aa", 1)}


def test_budget_exceeded():
    d = doc(pkg("aa", 1), pkg("bb", 1), pkg("cc", 1))
    result = solve(d, d.request, {}, budget=4)
    assert result.status == "budget_exceeded"
    result = solve(d, d.request, {}, budget=8)
    assert result.status == "solution"


def test_budget_checked_before_compiling(monkeypatch):
    def never(*args):
        raise AssertionError("compiled a problem over budget")

    monkeypatch.setattr(solver, "compile_problem", never)
    d = doc(*(pkg(f"p{i:03d}", 1) for i in range(500)))
    result = solve(d, d.request, {})
    assert (result.status, result.explored) == ("budget_exceeded", 0)


def test_budget_counts_only_unpinned_stanzas():
    from cudfkit.types import EnumValue

    version = EnumValue(("version", "package", "feature"), "version")
    pinned = [PackageItem(f"p{i:02d}", 1, installed=True, keep=version)
              for i in range(30)]
    d = doc(*pinned, pkg("aa", 1), pkg("bb", 1), pkg("cc", 1))
    result = solve(d, d.request, {}, budget=8)
    assert result.status == "solution"


def test_solve_is_deterministic():
    rng = random.Random(11)
    d = with_sizes(rand_document(rng, max_names=3, max_versions=2), rng)
    costs = preset_costs(d, d.request, "installed-size")
    first = solve(d, d.request, costs)
    for _ in range(3):
        again = solve(d, d.request, costs)
        assert again.status == first.status
        if first.status == "solution":
            assert again.document == first.document
            assert again.cost == first.cost


def test_solve_shares_the_stanzas_whose_flag_does_not_change():
    rng = random.Random(5107)
    shared = rebuilt = 0
    for _ in range(60):
        d = rand_document(rng, max_names=3, max_versions=2, max_stanzas=7)
        for criterion in ("prefer-latest", "min-new", "min-removed"):
            result = solve(d, d.request, preset_costs(d, d.request, criterion))
            if result.status != "solution":
                continue
            installed = {p.key for p in result.document.packages if p.installed}
            # Every stanza rebuilt through the constructor, as before sharing.
            expected = tuple(sorted(
                (PackageItem(p.name, p.version, p.depends, p.conflicts, p.provides,
                             p.key in installed, p.keep, p.extra)
                 for p in d.packages), key=lambda p: p.key))
            assert result.document == CudfDocument(packages=expected, request=d.request)
            inputs = {p.key: p for p in d.packages}
            for p in result.document.packages:
                before = inputs[p.key]
                if p.installed is before.installed:
                    assert p is before
                    shared += 1
                else:
                    assert p is not before
                    rebuilt += 1
    assert shared > 50 and rebuilt > 50


# -- solve vs full enumeration ------------------------------------------------

def test_solve_matches_enumeration_oracle():
    rng = random.Random(2718)
    checked = 0
    for _ in range(40):
        d = with_sizes(
            rand_document(rng, max_names=3, max_versions=2, max_stanzas=7), rng
        )
        solutions = enumerate_solutions(d, d.request)
        for criterion in CRITERIA:
            costs = preset_costs(d, d.request, criterion)
            result = solve(d, d.request, costs)
            if not solutions:
                assert result.status == "no_solution", criterion
                continue
            assert result.status == "solution", criterion
            best = min(
                sum(costs[key] for key in installed)
                for installed in solutions
            )
            assert result.cost == best, criterion
            assert satisfies_request(d, d.request, result.document).ok
            checked += 1
    assert checked > 0


# -- solve vs an integer program ---------------------------------------------

def _bit_list(mask):
    return [i for i in range(mask.bit_length()) if (mask >> i) & 1]


def milp_optimum(d, costs):
    """Minimum cost over the installations satisfying the request, from
    scipy's integer program over the scan oracle's masks; None when no
    installation does."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    stanzas = sorted(d.packages, key=lambda p: p.key)
    n = len(stanzas)
    masks = scan_compile(d, d.request)
    rows, lbs, ubs = [], [], []

    def row(coefs, lb, ub):
        line = np.zeros(n)
        for j, w in coefs:
            line[j] += w
        rows.append(line)
        lbs.append(lb)
        ubs.append(ub)

    lower, upper = np.zeros(n), np.ones(n)
    lower[_bit_list(masks["pinned"])] = 1
    for i in range(n):
        for clause in masks["dep_clauses"][i]:  # x_i <= sum of the clause
            row([(i, 1)] + [(j, -1) for j in _bit_list(clause)], -np.inf, 0)
        for j in _bit_list(masks["conflict_mask"][i]):
            row([(i, 1), (j, 1)], -np.inf, 1)
    for mask in masks["required"]:
        row([(j, 1) for j in _bit_list(mask)], 1, np.inf)
    for mask in masks["forbidden"]:
        upper[_bit_list(mask)] = 0
    for clause, name_bits, allowed in masks["upgrades"]:
        row([(j, 1) for j in _bit_list(clause)], 1, np.inf)
        row([(j, 1) for j in _bit_list(name_bits)], 1, 1)
        upper[_bit_list(name_bits & ~allowed)] = 0
    if (lower > upper).any():
        return None
    constraints = [LinearConstraint(np.array(rows), lbs, ubs)] if rows else []
    res = milp(np.array([costs[p.key] for p in stanzas], dtype=float),
               constraints=constraints, integrality=np.ones(n),
               bounds=Bounds(lower, upper), options={"mip_rel_gap": 0})
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return int(round(res.fun))


def test_solve_matches_milp_optimum_at_thirty_stanzas():
    rng = random.Random(3301)
    solved = unsolvable = 0
    for _ in range(30):
        d = rand_document(rng, max_names=10, max_versions=4, max_stanzas=30)
        while len(d.packages) < 25:
            d = rand_document(rng, max_names=10, max_versions=4, max_stanzas=30)
        d = with_sizes(d, rng, top=5000)
        for criterion in CRITERIA:
            costs = preset_costs(d, d.request, criterion)
            result = solve(d, d.request, costs, budget=2 ** 30)
            best = milp_optimum(d, costs)
            if best is None:
                assert result.status == "no_solution", criterion
                unsolvable += 1
            else:
                assert (result.status, result.cost) == ("solution", best), criterion
                solved += 1
    assert solved and unsolvable


# -- search vs exhaustive oracle ---------------------------------------------

COST_SHAPES = {
    "signed": lambda rng: rng.randint(-9, 9),
    "zero-one": lambda rng: rng.randint(0, 1),
    "minus-one-zero": lambda rng: rng.randint(-1, 0),
    "all-zero": lambda rng: 0,
}


def test_search_matches_exhaustive_oracle():
    rng = random.Random(515)
    found = 0
    for _ in range(1000):
        d = rand_document(rng)
        for shape, draw in COST_SHAPES.items():
            costs = {p.key: draw(rng) for p in d.packages}
            got = _kernel_py.search(compile_problem(d, d.request, costs))
            want = exhaustive_search(scan_problem(d, d.request, costs))
            assert got[:3] == want[:3], shape
            found += got[0]
    assert 0 < found < 4000


# Costs shaped like package sizes, some with a few negative costs: the
# bits whose own cost reaches the incumbent are cleared and the node is
# propagated and bounded again.
SIZE_SHAPES = {
    "sizes": lambda rng: rng.randint(1, 5000),
    "sizes-few-negative": lambda rng: (
        -rng.randint(1, 5000) if rng.random() < 0.15 else rng.randint(1, 5000)
    ),
}


def test_search_matches_exhaustive_oracle_on_size_costs():
    rng = random.Random(6203)
    found = 0
    for _ in range(600):
        d = rand_document(rng)
        for shape, draw in SIZE_SHAPES.items():
            costs = {p.key: draw(rng) for p in d.packages}
            got = _kernel_py.search(compile_problem(d, d.request, costs))
            want = exhaustive_search(scan_problem(d, d.request, costs))
            assert got[:3] == want[:3], shape
            found += got[0]
    assert 0 < found < 1200


# The node total of a fixed set of size-cost problems.  Answers cannot
# show pruning power, so a search that prunes less (cost fixing one cost
# step late, say) passes every oracle above; it must not pass here.  A
# change that prunes more lowers the bound.
SIZE_COST_NODES = 1766


def test_search_prunes_no_less_on_size_costs():
    rng = random.Random(7919)
    explored = 0
    for _ in range(300):
        d = rand_document(rng)
        costs = {p.key: rng.randint(1, 5000) for p in d.packages}
        explored += _kernel_py.search(compile_problem(d, d.request, costs))[3]
    assert explored <= SIZE_COST_NODES


def test_solve_refuses_a_candidate_that_breaks_the_request(monkeypatch):
    d = doc(pkg("aa", 1), request=req(install=[VPkg("aa")]))
    monkeypatch.setattr(_kernel_py, "search", lambda problem: (True, 0, 0, 1))
    with pytest.raises(AssertionError, match="^search produced an invalid candidate: "):
        solve(d, d.request, {})


def test_solve_refuses_a_search_cost_that_its_candidate_does_not_have(monkeypatch):
    d = doc(pkg("aa", 1), request=req(install=[VPkg("aa")]))
    costs = {("aa", 1): 7}
    assert solve(d, d.request, costs).cost == 7
    monkeypatch.setattr(_kernel_py, "search", lambda problem: (True, 1, 6, 1))
    with pytest.raises(AssertionError,
                       match="^search reported cost 6 for a candidate of cost 7$"):
        solve(d, d.request, costs)


def test_search_deep_problem_has_no_recursion_limit():
    d = doc(*(pkg(f"p{i:04d}", 1) for i in range(1500)))
    result = solve(d, d.request, {}, budget=2 ** 2000)
    assert (result.status, result.cost) == ("solution", 0)
    d = doc(*(pkg(f"p{i:04d}", 1, installed=True) for i in range(1500)))
    result = solve(d, d.request, preset_costs(d, d.request, "min-removed"),
                   budget=2 ** 2000)
    assert (result.status, result.cost) == ("solution", -1500)
    assert all(p.installed for p in result.document.packages)


def test_search_bound_counts_negative_costs():
    # The empty candidate (cost 0) is found first.  Installing aa alone
    # costs 0 too, so only a bound that counts bb's -1 below it keeps the
    # branch that leads to the optimum {aa, bb}.
    d = doc(pkg("aa", 1),
            pkg("bb", 1, installed=True, depends=VpkgFormula(((VPkg("aa"),),))))
    result = solve(d, d.request, preset_costs(d, d.request, "min-removed"))
    installed = {p.key for p in result.document.packages if p.installed}
    assert (result.cost, installed) == (-1, {("aa", 1), ("bb", 1)})


def test_phase_two_skips_the_leaf_it_tried_first():
    # Phase 2 tries the leaf clearing every undecided bit before both
    # branches, so its exclude branch must keep only candidates that set
    # a bit above: without that clause it walks this leaf twice.
    d = doc(pkg("bb", 1, depends=VpkgFormula(((VPkg("zz"),),))), pkg("cc", 1, installed=True))
    costs = preset_costs(d, req(), "min-removed")
    found, best_mask, best_cost, explored = _kernel_py.search(compile_problem(d, req(), costs))
    assert (found, best_mask, best_cost, explored) == (True, 0b10, -1, 9)


def test_mask_less_reference():
    def ref_less(a, b, n=8):
        sa = sorted(i for i in range(n) if (a >> i) & 1)
        sb = sorted(i for i in range(n) if (b >> i) & 1)
        return sa < sb

    rng = random.Random(8)
    for _ in range(2000):
        a, b = rng.randrange(256), rng.randrange(256)
        assert mask_less(a, b) == ref_less(a, b)


# -- costs past float range -------------------------------------------------------

def solve_against_the_oracle(tmp_path, capsys, text, registry, flags):
    """Solve the problem `text` through the command line, check the
    solution and its cost line, or the refusal, against exhaustive_search
    and return whether a solution exists."""
    path = tmp_path / "problem.cudf"
    path.write_text(text)
    code = cli.main(["solve", str(path), *flags])
    out, err = capsys.readouterr()
    d = textio.parse_cudf(text.encode(), registry).document
    if flags[0] == "--criterion":
        costs = preset_costs(d, d.request, flags[1])
    else:
        costs = {p.key: p.extra_value(flags[1], 0) for p in d.packages}
    found, mask, cost, _ = exhaustive_search(scan_problem(d, d.request, costs))
    if not found:
        assert (code, out, err) == (1, "", "no solution\n")
        return False
    assert (code, err) == (0, f"cost: {cost}\n")
    stanzas = sorted(p.key for p in d.packages)
    assert [key for key, _ in textio.parse_solution(out.encode())] == [
        key for i, key in enumerate(stanzas) if mask >> i & 1]
    return True


def test_solve_prices_an_installed_size_past_float_range(tmp_path, capsys):
    text = f"Package: aa\nVersion: 1\nInstalled-Size: {'9' * 401}\n\nProblem: pb\nInstall: aa\n"
    registry = SchemaRegistry([PropertySchema("Installed-Size", "posint", "package", "optional")])
    assert solve_against_the_oracle(tmp_path, capsys, text, registry,
                                    ["--criterion", "installed-size"])


def test_solve_prices_400_digit_cost_properties(tmp_path, capsys):
    rng = random.Random(4000)
    registry = SchemaRegistry([PropertySchema("Cost", "int", "package", "optional", 0)])
    found = 0
    for _ in range(40):
        d = rand_document(rng)
        priced = tuple(replace(p, extra=make_extra({"Cost": rng.choice((-1, 1)) * rng.randrange(
            10 ** 399, 10 ** 400)})) for p in d.packages)
        text = textio.serialize_cudf(replace(d, packages=priced)).decode()
        found += solve_against_the_oracle(tmp_path, capsys, text, registry,
                                          ["--cost-property", "Cost"])
    assert 0 < found < 40
