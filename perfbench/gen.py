"""Seeded input generator for the benchmark workloads.

    python3 perfbench/gen.py --workload check-fmt --seed 1 --out DIR

writes into DIR the workload's CUDF and solution files, `ops.json` (every
CLI operation of the workload with its reference answer) and
`stats.json` (stanza counts, bytes, installed share and free-bit
distribution of the inputs).  The same seed gives byte-identical files.

Universes reuse the shapes of tests/_gen.py (its atom, formula, provides
and keep generators), scaled up: names are p00000, p00001, ..., each with
1 to 4 versions, and a package draws its atoms from the next few names
and from a couple of nearby features.  These shape parameters (versions
per name, dependency window, conflict rate, installed and Keep shares)
are assumptions, chosen to put each workload in the cost regime it is
meant to measure; they are not fitted to any measured distribution of
real package universes.  The sizes are small enough that a 20 s run
holds at least 100 operations of every workload, so that the latency
tail is a p90 or higher.

Reference answers never come from cudfkit: they come from construction
(planted valid solutions and single-clause mutations), from
reference.py, and from an integer program solved by scipy.optimize.milp
for optimal solve costs.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _p in (HERE, ROOT / "tests", ROOT / "src"):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

import _gen  # noqa: E402  (tests/_gen.py)
import reference  # noqa: E402
from reference import Universe  # noqa: E402

MAX_VERSIONS = 4
COST_MODES = reference.CRITERIA + (("property", "Cost"),)


class GenerationError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Universes


def _atom(vpkg):
    return [vpkg.name, vpkg.constraint.relop, vpkg.constraint.version]


def universe(rng, n, installed, keep, window=16, features_per=20):
    """n stanzas over names p00000...; `installed` is the share of names
    with one installed version, `keep` the share of installed stanzas
    carrying a Keep property."""
    names, stanzas = [], []
    while len(stanzas) < n:
        name = f"p{len(names):05d}"
        names.append(name)
        count = rng.randint(1, MAX_VERSIONS)
        for v in sorted(rng.sample(range(1, MAX_VERSIONS + 3), count)):
            stanzas.append({"name": name, "version": v, "installed": False})
    del stanzas[n:]
    # Exact counts rather than coin flips, so that the work an operation
    # does varies little from seed to seed.
    groups = {}
    for s in stanzas:
        groups.setdefault(s["name"], []).append(s)
    for name in rng.sample(sorted(groups), round(installed * len(groups))):
        rng.choice(groups[name])["installed"] = True
    features = [f"feat-{i:04d}" for i in range(max(1, len(names) // features_per))]
    for s in stanzas:
        k = int(s["name"][1:])
        hood = names[k + 1:k + 1 + window] or names[:window]
        local = features[k // features_per:k // features_per + 2] or features[:1]
        formula = _gen.rand_formula(rng, hood + local, max_clauses=2, max_atoms=2,
                                    max_version=MAX_VERSIONS + 2)
        s["depends"] = [[_atom(a) for a in clause] for clause in formula.clauses]
        s["conflicts"] = (
            [_atom(a) for a in _gen.rand_list(rng, hood, max_len=1,
                                              max_version=MAX_VERSIONS + 2).items]
            if rng.random() < 0.3 else []
        )
        s["provides"] = [_atom(a) for a in _gen.rand_provides(rng, local, max_len=1).items]
        s["keep"] = (
            rng.choice(_gen.KEEP_SYMBOLS) if s["installed"] and rng.random() < keep else None
        )
        s["extra"] = {
            "Cost": rng.randint(-5, 50),
            "Download-Size": rng.randint(1, 2000),
            "Installed-Size": rng.randint(1, 5000),
        }
    return stanzas


def plant(rng, stanzas, installs=2, removes=1, upgrades=1):
    """Turn `stanzas` into a problem with a known valid solution.

    Picks a target installed set S close to the installed one (10% of
    the installed packages dropped, one version of 7% of the names left
    without one added), repairs depends and conflicts so that S is
    consistent, keeps Keep only on packages S retains, and builds a
    request that S satisfies.  Returns (request, S)."""
    by_name = {}
    for i, s in enumerate(stanzas):
        by_name.setdefault(s["name"], []).append(i)
    before = [i for i, s in enumerate(stanzas) if s["installed"]]
    target = set(before) - set(rng.sample(before, round(0.1 * len(before))))
    vacant = [name for name in sorted(by_name) if not any(i in target for i in by_name[name])]
    fresh = []
    for name in rng.sample(vacant, round(0.07 * len(vacant))):
        group = [i for i in by_name[name] if not stanzas[i]["installed"]]
        if group:
            fresh.append(rng.choice(group))
    target.update(fresh)
    upgraded = []
    for i in rng.sample(before, len(before)):
        group = by_name[stanzas[i]["name"]]
        top = group[-1]
        if len(upgraded) < upgrades and i in target and top != i:
            target.discard(i)
            target.add(top)
            upgraded.append(stanzas[top]["name"])
    for i, s in enumerate(stanzas):
        if s["keep"] is not None and i not in target:
            s["keep"] = None

    members = sorted(target)
    news = fresh or members
    wanted = rng.sample(news, min(installs, len(news)))
    # Repairs never lean on an install target, so that dropping one from
    # the valid set breaks little else.
    supports = [i for i in members if i not in wanted] or members
    uni = Universe(stanzas)
    for i in members:
        s = stanzas[i]
        for clause in s["depends"]:
            if not any(j in target for a in clause for j in uni.providers(a)):
                j = rng.choice(supports)
                clause.append([stanzas[j]["name"], ">=", stanzas[j]["version"]])
        s["conflicts"] = [
            a for a in s["conflicts"]
            if not any(j in target and j != i for j in uni.providers(a))
        ]

    install = []
    for j in wanted:
        s = stanzas[j]
        install.append([s["name"], ">=", s["version"]] if rng.random() < 0.5
                       else [s["name"], None, None])
    gone = [i for i in before if i not in target
            and not any(j in target for j in by_name[stanzas[i]["name"]])]
    remove = [[stanzas[i]["name"], None, None]
              for i in rng.sample(gone, min(removes, len(gone)))]
    remove = [a for a in remove if not any(j in target for j in uni.providers(a))]
    request = {"id": f"bench-{rng.randint(0, 99999)}", "install": install,
               "remove": remove, "upgrade": [[u, None, None] for u in upgraded]}
    if reference.violations(uni, request, target):
        raise GenerationError("planted solution does not satisfy its own request")
    return request, target


def free_bits(stanzas):
    return sum(1 for s in stanzas if not (s["installed"] and s["keep"] == "version"))


# ---------------------------------------------------------------------------
# CUDF text (written here, not by cudfkit, so the canonical form is a
# reference: single spaces around relops, ", " and " | " separators, core
# properties in Depends/Conflicts/Provides/Installed/Keep order, defaults
# omitted, extra properties sorted by name)


def atom_text(a):
    return a[0] if a[1] is None else f"{a[0]} {a[1]} {a[2]}"


def stanza_lines(s):
    lines = [f"Package: {s['name']}", f"Version: {s['version']}"]
    if s["depends"]:
        lines.append("Depends: " + ", ".join(
            " | ".join(atom_text(a) for a in clause) for clause in s["depends"]))
    if s["conflicts"]:
        lines.append("Conflicts: " + ", ".join(atom_text(a) for a in s["conflicts"]))
    if s["provides"]:
        lines.append("Provides: " + ", ".join(atom_text(a) for a in s["provides"]))
    if s["installed"]:
        lines.append("Installed: true")
    if s["keep"] is not None:
        lines.append(f"Keep: {s['keep']}")
    lines.extend(f"{k}: {s['extra'][k]}" for k in sorted(s["extra"]))
    return lines


def request_lines(req):
    lines = [f"Problem: {req['id']}"]
    for prop in ("install", "remove", "upgrade"):
        if req[prop]:
            lines.append(f"{prop.capitalize()}: " + ", ".join(atom_text(a) for a in req[prop]))
    return lines


def cudf_text(stanzas, request):
    chunks = ["\n".join(stanza_lines(s)) + "\n" for s in stanzas]
    chunks.append("\n".join(request_lines(request)) + "\n")
    return "\n".join(chunks).encode("utf-8")


def solution_text(stanzas, installed):
    chunks = [
        f"Package: {stanzas[i]['name']}\nVersion: {stanzas[i]['version']}\nInstalled: true\n"
        for i in sorted(installed, key=lambda i: (stanzas[i]["name"], stanzas[i]["version"]))
    ]
    return "\n".join(chunks).encode("utf-8")


# Stanza-local errors: each drops its stanza and is recovered by the parser.
BREAKAGES = (
    lambda lines: [lines[0], "Version: 0"] + lines[2:],
    lambda lines: lines[:1] + lines[2:],
    lambda lines: lines + ["Depends: p00000 >> 2"],
    lambda lines: lines + ["Keep: always"],
    lambda lines: lines + (["Installed: true"] if "Installed: true" in lines
                           else ["Installed: yes"]),
    lambda lines: lines + ["9bad-name: 1"],
    lambda lines: lines + ["Conflicts p00000"],
)


def noncanonical(rng, lines):
    """Same stanza in a form `fmt` must canonicalize: explicit defaults
    and shuffled property order (the Package line stays first)."""
    props = lines[1:]
    if not any(p.startswith("Installed: ") for p in props):
        props.append("Installed: false")
    if not any(p.startswith("Conflicts: ") for p in props):
        props.append("Conflicts: ")
    rng.shuffle(props)
    return lines[:1] + props


# ---------------------------------------------------------------------------
# Optimal costs, from an integer program independent of cudfkit


def optimum(uni, request, cost):
    """Minimum total cost of an installed set satisfying the request,
    or None when none exists."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_array

    st = uni.stanzas
    n = len(st)
    rows, lbs, ubs = [], [], []

    def row(coefs, lb, ub):
        rows.append(coefs)
        lbs.append(lb)
        ubs.append(ub)

    def at_least_one(idx):
        row({j: 1.0 for j in idx}, 1, np.inf)

    lower = np.zeros(n)
    upper = np.ones(n)
    for i, s in enumerate(st):
        for clause in s["depends"]:  # x_i <= sum of providers
            providers = {j for a in clause for j in uni.providers(a)}
            if i not in providers:
                row({i: 1.0, **{j: -1.0 for j in providers}}, -np.inf, 0)
        for a in s["conflicts"]:
            for j in uni.providers(a):
                if j != i:
                    row({i: 1.0, j: 1.0}, -np.inf, 1)
        if s["installed"] and s["keep"] == "version":
            lower[i] = 1
        elif s["installed"] and s["keep"] == "package":
            at_least_one([j for j, _ in uni.by_name[s["name"]]])
        elif s["installed"] and s["keep"] == "feature":
            for p in s["provides"]:
                at_least_one(uni.providers(p))
    for a in request["install"]:
        at_least_one(uni.providers(a))
    for a in request["remove"]:
        for j in uni.providers(a):
            upper[j] = 0
    for a in request["upgrade"]:
        at_least_one(uni.providers(a))
        group = uni.by_name.get(a[0], [])
        row({j: 1.0 for j, _ in group}, 1, 1)
        floor = max(uni.before_versions(a[0]), default=0)
        for j, v in group:
            if v < floor:
                upper[j] = 0
    if (lower > upper).any():
        return None
    r, c, d = [], [], []
    for k, coefs in enumerate(rows):
        for j, w in coefs.items():
            r.append(k)
            c.append(j)
            d.append(w)
    constraints = []
    if rows:
        matrix = coo_array((d, (r, c)), shape=(len(rows), n)).tocsr()
        constraints.append(LinearConstraint(matrix, lbs, ubs))
    res = milp(np.array(cost, dtype=float), constraints=constraints,
               integrality=np.ones(n), bounds=Bounds(lower, upper),
               options={"mip_rel_gap": 0})
    if res.status == 2:
        return None
    if res.status != 0:
        raise GenerationError(f"milp failed: {res.message}")
    return int(round(res.fun))


# ---------------------------------------------------------------------------
# Workloads


class Output:
    def __init__(self):
        self.files = {}
        self.ops = []
        self.inputs = []  # (file name, stanzas) for the stats

    def add(self, name, data):
        self.files[name] = data
        return "@" + name

    def stats(self):
        per_input = []
        for name, stanzas in self.inputs:
            per_input.append({
                "file": name,
                "stanzas": len(stanzas),
                "bytes": len(self.files[name]),
                "installed_share": round(
                    sum(s["installed"] for s in stanzas) / max(1, len(stanzas)), 4),
                "free_bits": free_bits(stanzas),
            })
        bits = sorted(x["free_bits"] for x in per_input)
        return {
            "inputs": per_input,
            "operations": len(self.ops),
            "stanzas": sum(x["stanzas"] for x in per_input),
            "bytes": sum(x["bytes"] for x in per_input),
            "free_bits": {"min": bits[0], "median": bits[len(bits) // 2], "max": bits[-1]},
        }


CHECK_FMT_STANZAS = 2500


def gen_check_fmt(rng, out, scale=1.0):
    """One universe with about 1% broken stanzas; alternating
    `check --strict --json` and `fmt`."""
    n = int(CHECK_FMT_STANZAS * scale)
    stanzas = universe(rng, n, installed=0.1, keep=0.2)
    request = plant(rng, stanzas)[0]
    for s in stanzas:
        if rng.random() < 2 / 3:
            s["extra"] = {}
    written, canonical, broken = [], [], []
    for i, s in enumerate(stanzas):
        lines = stanza_lines(s)
        if rng.random() < 0.01:
            written.append(rng.choice(BREAKAGES)(lines))
            broken.append(i)
            continue
        canonical.append(lines)
        written.append(noncanonical(rng, lines) if rng.random() < 0.2 else lines)

    def text(stanza_chunks):
        chunks = ["\n".join(lines) + "\n" for lines in stanza_chunks]
        chunks.append("\n".join(request_lines(request)) + "\n")
        return "\n".join(chunks).encode("utf-8")

    path = out.add("universe.cudf", text(written))
    out.add("fmt.expected", text(canonical))
    out.inputs.append(("universe.cudf", stanzas))
    check = {"kind": "check", "argv": ["check", path, "--strict", "--json"],
             "stanzas": n, "expect": {"exit": 1, "packages": n - len(broken),
                                      "errors": broken}}
    fmt = {"kind": "fmt", "argv": ["fmt", path], "stanzas": n,
           "expect": {"exit": 0, "stdout": "fmt.expected"}}
    out.ops.extend([check, fmt])


VERIFY_STANZAS = 1000
MUTATION_TRIES = 500


def _mutations(rng, stanzas, request, target):
    """One installed set per clause that breaks exactly that clause.

    Dropping a member of the valid set also drops the members it leaves
    with a broken dependency (unless dependencies are the clause to
    break).  A stanza added to the set first gets its dependencies met
    and, unless conflicts are the clause to break, its conflicts with
    the set removed; otherwise it gets a conflict with a member.  Only
    stanzas outside the valid set are edited, each at most once, and
    never their provides, so the valid set stays valid."""
    uni = Universe(stanzas)
    index = {(s["name"], s["version"]): i for i, s in enumerate(stanzas)}
    inside = sorted(target)
    pools = {
        "depends": (-1, inside),
        "install": (-1, [j for a in request["install"] for j in uni.providers(a)
                         if j in target]),
        "keep": (-1, [i for i in inside if stanzas[i]["keep"] is not None]),
        "conflicts": (1, [i for i in range(len(stanzas)) if i not in target]),
        "remove": (1, [j for a in request["remove"] for j in uni.providers(a)]),
        "upgrade": (1, [j for a in request["upgrade"] for j, _ in uni.by_name[a[0]]
                        if j not in target]),
    }

    def hits(atom):
        return any(j in target for j in uni.providers(atom))

    def drop(j, clause):
        cand = target - {j}
        broken = reference.violations(uni, request, cand)
        while clause != "depends" and {b[0] for b in broken} == {clause, "depends"}:
            cand -= {index[b[1:]] for b in broken if b[0] == "depends"}
            broken = reference.violations(uni, request, cand)
        return cand

    def add(j, clause):
        s = stanzas[j]
        for deps in s["depends"]:
            if not any(hits(a) for a in deps):
                m = stanzas[rng.choice(inside)]
                deps.append([m["name"], ">=", m["version"]])
        s["conflicts"] = [a for a in s["conflicts"] if not hits(a)]
        if clause == "conflicts":
            m = stanzas[rng.choice(inside)]
            s["conflicts"].append([m["name"], "=", m["version"]])
        return target | {j}

    found, touched = {}, set()
    for clause, (sign, pool) in pools.items():
        pool = [j for j in pool if j not in touched]
        for _ in range(MUTATION_TRIES if pool else 0):
            j = rng.choice(pool)
            saved = json.dumps(stanzas[j])
            cand = drop(j, clause) if sign < 0 else add(j, clause)
            if {b[0] for b in reference.violations(uni, request, cand)} == {clause}:
                found[clause] = cand
                touched.add(j)
                break
            stanzas[j] = json.loads(saved)
        else:
            raise GenerationError(f"no mutation breaks exactly {clause}")
    out = {}
    for clause, cand in found.items():
        broken = reference.violations(uni, request, cand)
        if {b[0] for b in broken} != {clause}:
            raise GenerationError(f"the {clause} mutation no longer breaks only {clause}")
        out[clause] = (cand, broken)
    return out


def gen_verify_mid(rng, out, scale=1.0):
    """A 1200-stanza universe, one valid solution and one solution per
    clause that breaks exactly that clause; `verify --json` of each."""
    n = int(VERIFY_STANZAS * scale)
    stanzas = universe(rng, n, installed=0.3, keep=0.3)
    request, target = plant(rng, stanzas, installs=4, removes=2, upgrades=2)
    cases = [("valid", target, set())]
    for clause, (cand, broken) in sorted(_mutations(rng, stanzas, request, target).items()):
        cases.append((clause, cand, broken))
    problem = out.add("problem.cudf", cudf_text(stanzas, request))
    out.inputs.append(("problem.cudf", stanzas))
    for label, installed, broken in cases:
        sol = out.add(f"{label}.sol", solution_text(stanzas, installed))
        out.ops.append({
            "kind": "verify", "stanzas": n,
            "argv": ["verify", "--problem", problem, "--solution", sol, "--json"],
            "expect": {"exit": 1 if broken else 0,
                       "violations": sorted(list(b) for b in broken)},
        })


# Problems per free-bit count, one pass taking about 16 s with the pure
# kernel, so that a 20 s run holds one pass, or two on a fast host.  The
# 12-bit group is about as large as the 14- to 18-bit groups together, so
# the median over the problems falls in the middle of the 13-bit group.
# The tail over all samples (the 11th slowest of 224 in a pass) falls
# among the twenty-four 17-bit problems, below the five 18-bit ones.
# Problems with the same free bits still differ in cost by about 18%, so
# the tail is an order statistic of the slowest group: many distinct
# problems, each run once or twice, rather than few run often, and a
# tail well inside a large group, keep one seed's draw from setting it.
DESK_PROBLEMS = {12: 69, 13: 78, 14: 24, 15: 15, 16: 9, 17: 24, 18: 5}
DESK_BITS = tuple(sorted(DESK_PROBLEMS))


def _unsatisfiable(rng, stanzas, request):
    """Make the request unsatisfiable: install one exact stanza that
    depends on a package the request also removes."""
    t = rng.choice([i for i, s in enumerate(stanzas) if not s["installed"]])
    victim = rng.choice([s["name"] for s in stanzas if s["name"] != stanzas[t]["name"]])
    stanzas[t]["depends"] = [[[victim, None, None]]]
    request["install"].append([stanzas[t]["name"], "=", stanzas[t]["version"]])
    request["remove"].append([victim, None, None])


def _solve_op(out, label, stanzas, request, mode):
    uni = Universe(stanzas)
    path = out.add(f"{label}.cudf", cudf_text(stanzas, request))
    model = out.add(f"{label}.json", json.dumps(
        {"stanzas": stanzas, "request": request}, sort_keys=True).encode())
    out.inputs.append((f"{label}.cudf", stanzas))
    cost = reference.costs(uni, request, mode)
    flag = (["--cost-property", mode[1]] if isinstance(mode, tuple)
            else ["--criterion", mode])
    out.ops.append({
        "kind": "solve", "stanzas": len(stanzas), "argv": ["solve", path] + flag,
        "expect": {"model": model[1:], "mode": mode,
                   "optimum": optimum(uni, request, cost)},
    })


def gen_solve_desk(rng, out, scale=1.0):
    """Small universes with 12-18 free bits, the cost modes in turn; one
    problem in six is unsatisfiable."""
    slot = 0
    for bits in DESK_BITS:
        for _ in range(max(1, int(DESK_PROBLEMS[bits] * scale))):
            mode = COST_MODES[slot % len(COST_MODES)]
            pins = bits % 3
            while True:
                stanzas = universe(rng, bits + pins, installed=0.5, keep=0.0,
                                   window=4, features_per=4)
                request, target = plant(rng, stanzas, installs=1, upgrades=rng.randint(0, 1))
                kept = [i for i in sorted(target) if stanzas[i]["installed"]]
                if len(kept) >= pins:
                    break
            for i in rng.sample(kept, pins):
                stanzas[i]["keep"] = "version"
            if slot % 6 == 5:
                _unsatisfiable(rng, stanzas, request)
            _solve_op(out, f"desk{slot:03d}", stanzas, request, mode)
            slot += 1
    rng.shuffle(out.ops)


LARGE_STANZAS = 500
LARGE_PER_MODE = 10


def gen_solve_large(rng, out, scale=1.0):
    """Universes of one size, mostly not installed, few Keep pins, ten
    per cost mode; every op exceeds the exhaustive budget today."""
    slot = 0
    for _ in range(LARGE_PER_MODE):
        for mode in COST_MODES:
            stanzas = universe(rng, int(LARGE_STANZAS * scale), installed=0.1, keep=0.1)
            request = plant(rng, stanzas)[0]
            _solve_op(out, f"large{slot:02d}", stanzas, request, mode)
            slot += 1


WORKLOADS = {
    "check-fmt": gen_check_fmt,
    "verify-mid": gen_verify_mid,
    "solve-desk": gen_solve_desk,
    "solve-large": gen_solve_large,
}


def generate(workload, seed, out_dir, scale=1.0):
    """Write the workload's files, ops.json and stats.json into out_dir."""
    rng = random.Random(f"{workload}:{seed}")
    out = Output()
    WORKLOADS[workload](rng, out, scale)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, data in sorted(out.files.items()):
        (out_dir / name).write_bytes(data)
    (out_dir / "ops.json").write_text(json.dumps(out.ops, sort_keys=True))
    (out_dir / "stats.json").write_text(json.dumps(out.stats(), sort_keys=True))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply the universe sizes (tests use small ones)")
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out, args.scale)


if __name__ == "__main__":
    main()
