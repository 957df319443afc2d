"""Tests of the benchmark itself: seeded generation, the independent
reference, the answer checks and the span recorder.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import random
import shutil
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for _p in (BENCH, ROOT / "tests", ROOT / "src"):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

import _gen  # noqa: E402
import gen  # noqa: E402
import loop  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from spans import Recorder  # noqa: E402

SCALES = {"check-fmt": 0.3, "verify-mid": 0.75, "solve-desk": 0.34, "solve-large": 0.4}


def _generate(tmp_path, workload, seed, hashseed):
    out = tmp_path / f"{workload}-{seed}-{hashseed}"
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    subprocess.run([sys.executable, str(BENCH / "gen.py"), "--workload", workload,
                    "--seed", str(seed), "--out", str(out),
                    "--scale", str(SCALES[workload])], env=env, check=True)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    base = tmp_path_factory.mktemp("gen")
    for workload, scale in SCALES.items():
        gen.generate(workload, 5, base / workload, scale)
    return {workload: base / workload for workload in SCALES}


@pytest.mark.parametrize("workload", sorted(SCALES))
def test_generator_is_deterministic(tmp_path, workload):
    first = _generate(tmp_path, workload, 7, hashseed=1)
    again = _generate(tmp_path, workload, 7, hashseed=2)
    other = _generate(tmp_path, workload, 8, hashseed=1)
    assert first == again
    assert first["ops.json"] != other["ops.json"]


def test_stats_describe_inputs(generated):
    for workload, work in generated.items():
        stats = json.loads((work / "stats.json").read_text())
        assert stats["operations"] == len(json.loads((work / "ops.json").read_text()))
        for entry in stats["inputs"]:
            assert entry["bytes"] == (work / entry["file"]).stat().st_size
            assert 0 <= entry["installed_share"] <= 1
            assert 0 <= entry["free_bits"] <= entry["stanzas"]
    desk = json.loads((generated["solve-desk"] / "stats.json").read_text())
    assert sorted({e["free_bits"] for e in desk["inputs"]}) == list(gen.DESK_BITS)


def _plain(doc):
    def atom(a):
        return [a.name, a.constraint.relop, a.constraint.version]

    stanzas = [{
        "name": p.name, "version": p.version,
        "depends": [[atom(a) for a in clause] for clause in p.depends.clauses],
        "conflicts": [atom(a) for a in p.conflicts.items],
        "provides": [atom(a) for a in p.provides.items],
        "installed": p.installed, "keep": p.keep.chosen if p.keep else None, "extra": {},
    } for p in doc.packages]
    request = {"id": doc.request.problem_id,
               "install": [atom(a) for a in doc.request.install.items],
               "remove": [atom(a) for a in doc.request.remove.items],
               "upgrade": [atom(a) for a in doc.request.upgrade.items]}
    return stanzas, request


def test_reference_consistency_matches_naive_oracle():
    rng = random.Random(11)
    empty = {"install": [], "remove": [], "upgrade": []}
    for _ in range(300):
        doc = _gen.rand_document(rng, allow_top_provides=False, with_keep=False)
        stanzas, _ = _plain(doc)
        uni = reference.Universe(stanzas)
        installed = {i for i, s in enumerate(stanzas) if s["installed"]}
        broken = reference.violations(uni, empty, installed)
        assert (not broken) == _gen.naive_consistent(doc)


def test_reference_request_matches_enumeration_oracle():
    rng = random.Random(12)
    for _ in range(40):
        doc = _gen.rand_document(rng, max_names=3, max_versions=2)
        stanzas, request = _plain(doc)
        uni = reference.Universe(stanzas)
        valid = set(_gen.enumerate_solutions(doc, doc.request))
        for bits in range(1 << len(stanzas)):
            after = {i for i in range(len(stanzas)) if bits >> i & 1}
            keys = frozenset((stanzas[i]["name"], stanzas[i]["version"]) for i in after)
            assert (not reference.violations(uni, request, after)) == (keys in valid)


def _result(code, stdout=b"", stderr="", error=None, seconds=0.1):
    r = loop.Result()
    r.code, r.stdout, r.stderr, r.error = code, stdout, stderr, error
    r.seconds = r.cpu_seconds = seconds
    return r


def _cli(op):
    from cudfkit import cli

    return loop.run_cli(cli.main, op["argv"])


def test_judge_accepts_cudfkit_answers(generated):
    judge = loop.Judge()
    for workload, work in generated.items():
        for op in loop.load_ops(work):
            decided, failure = judge(op, _cli(op))
            assert failure is None, (workload, op["argv"], failure)
            assert decided == (workload != "solve-large")


def test_judge_flags_flipped_verdicts(generated):
    judge = loop.Judge()
    for op in loop.load_ops(generated["verify-mid"]):
        r = _cli(op)
        payload = json.loads(r.stdout)
        payload["ok"] = not payload["ok"]
        decided, failure = judge(op, _result(1 - r.code, json.dumps(payload).encode()))
        assert not decided and failure is not None
        if payload["violations"]:
            payload["ok"] = False
            payload["violations"] = payload["violations"][1:]
            dropped = _result(1, json.dumps(payload).encode())
            assert judge(op, dropped)[1] is not None


def test_judge_flags_wrong_solve_answers(generated):
    judge = loop.Judge()
    ops = loop.load_ops(generated["solve-desk"])
    unsat = next(op for op in ops if op["expect"]["optimum"] is None)
    assert judge(unsat, _result(1))[1] is None
    assert judge(unsat, _result(0, b"", "cost: 0"))[1] is not None
    sat = min((op for op in ops if op["expect"]["optimum"] is not None
               and op["expect"]["mode"] == "installed-size"), key=lambda op: op["stanzas"])
    assert judge(sat, _result(1))[1] is not None
    assert judge(sat, _result(3)) == (False, None)  # budget exceeded: undecided
    assert judge(sat, _result(7))[1] is not None
    assert judge(sat, _result(None, error="Traceback\nValueError: boom"))[1] is not None
    right = _cli(sat)
    assert judge(sat, _result(0, right.stdout, ""))[1].startswith("unreadable output")

    uni, request = judge.universe(sat["expect"]["model"])
    costs = reference.costs(uni, request, "installed-size")
    worse = None
    n = len(uni.stanzas)
    for size in range(n + 1):
        for chosen in combinations(range(n), size):
            after = set(chosen)
            cost = sum(costs[i] for i in after)
            if cost > sat["expect"]["optimum"] and not reference.violations(uni, request, after):
                worse = after, cost
                break
        if worse:
            break
    assert worse, "no valid non-optimal solution to plant"
    after, cost = worse
    text = gen.solution_text(uni.stanzas, after)
    assert judge(sat, _result(0, text, f"cost: {cost}\n"))[1].startswith("cost")
    assert judge(sat, right)[1] is None
    lied = _result(0, right.stdout, f"cost: {sat['expect']['optimum'] - 1}\n")
    assert judge(sat, lied)[1] is not None


def test_judge_flags_wrong_check_and_fmt(generated):
    judge = loop.Judge()
    check, fmt = loop.load_ops(generated["check-fmt"])
    r = _cli(check)
    payload = json.loads(r.stdout)
    payload["recovered_errors"] = payload["recovered_errors"][1:]
    assert judge(check, _result(1, json.dumps(payload).encode()))[1] is not None
    assert judge(check, _result(0, r.stdout))[1] is not None
    r = _cli(fmt)
    assert judge(fmt, _result(0, r.stdout[:-1]))[1] is not None


def test_judge_counts_malformed_verify_output_as_failed(generated):
    judge = loop.Judge()
    op = next(op for op in loop.load_ops(generated["verify-mid"]) if op["expect"]["exit"])
    payload = json.loads(_cli(op).stdout)
    payload["violations"][0]["clause"] = None
    decided, failure = judge(op, _result(1, json.dumps(payload).encode()))
    assert not decided and failure.startswith("unreadable output")


@pytest.mark.parametrize("workload", sorted(SCALES))
def test_plain_run_tail_is_above_p90(generated, workload):
    ops = loop.load_ops(generated[workload])
    tally = loop.closed_loop(lambda argv: 0, ops, 0.0, lambda op, r: (True, None),
                             min_ops=run.MIN_OPS)
    assert tally.attempted >= run.MIN_OPS
    assert run.tail(tally.latencies)[1] >= 90.0


def test_times_are_read_at_nominal_speed():
    ops = [{"argv": ["check"], "stanzas": 10}, {"argv": ["fmt"], "stanzas": 30}]
    nominal = run.NOMINAL_PROBE_S
    tally = loop.Tally()
    # The same ops at full speed, then at half speed: the probe takes
    # twice as long, and so do they.
    for j, seconds, probe_s in [(0, 1.0, nominal), (1, 3.0, nominal),
                                (0, 2.0, 2 * nominal), (1, 6.0, 2 * nominal)]:
        tally.add(ops[j], _result(0, seconds=seconds), probe_s, True, None)
    metrics = run.end_to_end(tally, 0.1)[0]
    assert metrics["latency_p50_s"][0] == pytest.approx(2.0)
    assert metrics["stanzas_per_s"][0] == pytest.approx(80 / 8.0)
    assert metrics["latency_tail_s"][0] == pytest.approx(3.0)


def test_probe_times_fixed_work():
    assert 0 < loop.probe() < 1.0
    assert loop._probe_problem() is loop._probe_problem()


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]
    assert run.tail(samples) == (90.0, 90.0)
    assert run.tail(samples[:20]) == (10.0, 50.0)
    assert run.tail(samples[:10]) == (10.0, 100.0)


def test_self_time_subtracts_children():
    rec = Recorder()
    rec.spans = [["cli.main", 0.0, 10.0, None, 0],
                 ["textio.parse", 1.0, 5.0, 0, 0],
                 ["model.validate", 6.0, 7.0, 0, 0]]
    rec.leaves[(1, "types.parse_value")] = [100, 3.0]
    own = rec.self_times()
    assert own["cli.main"] == pytest.approx(5.0)
    assert own["textio.parse"] == pytest.approx(1.0)
    assert own["types.parse_value"] == pytest.approx(3.0)
    layers = rec.layer_self_times(own)
    assert sum(layers.values()) == pytest.approx(10.0)


def test_recorder_restores_patched_names():
    from cudfkit import semantics, textio

    before = (textio.parse_cudf, semantics.is_consistent)
    rec = Recorder()
    rec.install()
    assert textio.parse_cudf is not before[0]
    rec.uninstall()
    assert (textio.parse_cudf, semantics.is_consistent) == before


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "check-fmt",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
