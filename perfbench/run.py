"""Seeded end-to-end benchmark of the cudfkit CLI.

    python3 perfbench/run.py --workload check-fmt --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The workload's inputs are made
from the seed by gen.py in a child process (cudfkit sees only the
generated files), then one caller drives cudfkit.cli.main(argv) in a
closed loop for about --seconds, and for at least MIN_OPS operations: the
next operation starts when the previous one returned; no threads.  Every
answer is checked against a reference independent of cudfkit.
`--workload all` runs each workload in its own child process, one after
another.

With --trace 0 the run reports the end-to-end metrics; with --trace 1
each operation runs once plain and once with the layers' public
functions wrapped (spans.py), and the run reports the per-layer metrics.
The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  The environment, the input statistics, every latency,
every failure and (traced) every span are written to .perfbench/results/.

Workloads (why each was chosen):
  check-fmt    alternating `check --strict --json` and `fmt` of one 2500-stanza
               universe with 1% broken stanzas: types/model/textio do all the
               work, reading and writing; semantics and solver do none.
  verify-mid   `verify --json` of one valid solution and six single-clause
               breakages against a 1000-stanza universe: semantics dominates.
  solve-desk   `solve` of 224 small problems with 12-18 free bits under all
               five criteria and --cost-property, one in six unsatisfiable:
               the exhaustive search kernel dominates; short operations
               expose the CLI's own overhead.
  solve-large  `solve` of 60 500-stanza universes, mostly not installed:
               compile_problem dominates and every answer is exit 3 today.

Times on the result line are CPU times read at nominal speed: between
operations the loop times a fixed speed probe, and each operation's CPU
time is scaled by NOMINAL_PROBE_S over the mean of the probes just
before and after it (see end_to_end).  The wall-clock figures are
printed beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("check-fmt", "verify-mid", "solve-desk", "solve-large")
SETUP_PAIRS = 21
TAIL_BEYOND = 10
# A plain run lasts until it holds this many operations, so that the
# tail, with TAIL_BEYOND samples beyond it, is a p90 or higher.
MIN_OPS = 10 * TAIL_BEYOND
# CPU seconds the speed probe (loop.probe) takes at this 2-vCPU host's
# full speed; times are reported as if the host ran at that speed throughout.
NOMINAL_PROBE_S = 0.0005


def at_nominal_speed(seconds, probe_s):
    """`seconds` measured while the speed probe took `probe_s`, read at
    the speed at which the probe takes NOMINAL_PROBE_S."""
    return seconds * NOMINAL_PROBE_S / probe_s


def child_cpu_seconds(argv, env):
    """CPU seconds (user and system) a child process running argv takes."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run(argv, env=env, check=True, timeout=60)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)


def setup_seconds(env):
    """Median over interleaved pairs of the CPU time of (a fresh
    interpreter importing cudfkit.cli) minus (a bare fresh interpreter),
    each pair at nominal speed by the median of three probes taken just
    before it."""
    from loop import probe

    bare = [sys.executable, "-c", "pass"]
    full = [sys.executable, "-c", "import cudfkit.cli"]
    subprocess.run(full, env=env, check=True, timeout=60)  # writes the bytecode caches
    diffs = []
    for _ in range(SETUP_PAIRS):
        probe_s = statistics.median(probe() for _ in range(3))
        diff = child_cpu_seconds(full, env) - child_cpu_seconds(bare, env)
        diffs.append(at_nominal_speed(diff, probe_s))
    return statistics.median(diffs)


def tail(latencies):
    """(value, percentile): the highest percentile with TAIL_BEYOND
    samples beyond it, or the maximum when there are too few samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def environment(seed, workload):
    from cudfkit import solver

    rev = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        rev = done.stdout.strip() or None
    return {"workload": workload, "seed": seed, "kernel": solver.KERNEL,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "git_rev": rev}


def end_to_end(tally, setup):
    """(metrics for the result line, extra printed metrics, notes).

    Every time is the operation's CPU time read at nominal speed, by the
    speed probes taken just before and just after the operation.  This 2-vCPU shared host
    runs at anywhere from full to about half speed, for moments and for
    stretches of a minute or more, and the probe's time swings with it;
    and other tenants' load deschedules the process for whole seconds,
    which CPU time leaves out.  cudfkit's CLI runs in this one thread and
    waits on nothing but reads of freshly written files, so its CPU time
    is its wall time on an idle host.  The wall-clock median and tail are
    printed beside them."""
    scaled = [at_nominal_speed(s, p) for s, p in zip(tally.cpu_latencies, tally.probes)]
    tail_s, pct = tail(scaled)
    metrics = {
        "latency_p50_s": (statistics.median(scaled), "s"),
        "latency_tail_s": (tail_s, "s"),
        "stanzas_per_s": (tally.stanzas / sum(scaled), "stanzas/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup, "s"),
    }
    # Both ratios can be 0, so they stay out of the bounded metrics and
    # the result line; the traced run's line has them as cli.decided_ratio
    # and cli.failed_ratio, and the results file of every run has them.
    extra = {
        "decided_ratio": (tally.decided / tally.attempted, "ratio"),
        "failed_ratio": (len(tally.failures) / tally.attempted, "ratio"),
    }
    probe_s = statistics.median(tally.probes)
    notes = {
        "latency_p50_s": (f"CPU time at nominal speed; wall clock "
                          f"{statistics.median(tally.latencies):.4f} s, median probe "
                          f"{probe_s * 1e3:.3f} ms against {NOMINAL_PROBE_S * 1e3:.3f}"),
        "latency_tail_s": (f"p{pct:.1f} of {tally.attempted} samples, CPU time at nominal "
                           f"speed; wall clock {tail(tally.latencies)[0]:.4f} s"),
        "stanzas_per_s": "per second of CPU time at nominal speed",
        "setup_s": "CPU time at nominal speed",
        "decided_ratio": f"of {tally.attempted} operations",
        "failed_ratio": f"of {tally.attempted} operations",
    }
    return metrics, extra, notes


def traced(main, ops, seconds, judge):
    """Per-layer metrics: each op runs plain, then traced."""
    from loop import closed_loop, run_cli
    from spans import LAYERS, Recorder

    rec = Recorder()
    traced_main = rec.span("cli.main", main)
    wall = {"plain": 0.0, "traced": 0.0}
    exits = dict.fromkeys(range(4), 0)

    def each(op, i):
        plain = run_cli(main, op["argv"])
        rec.op = i
        rec.install()
        try:
            result = run_cli(traced_main, op["argv"])
        finally:
            rec.uninstall()
        wall["plain"] += plain.seconds
        wall["traced"] += result.seconds
        if result.code in exits:
            exits[result.code] += 1
        return [plain, result]

    tally = closed_loop(main, ops, seconds, judge, each)
    pairs = tally.attempted // 2
    metrics = rec.metrics(pairs)
    metrics["trace.overhead_ratio"] = (wall["traced"] / wall["plain"], "ratio")
    for code, count in exits.items():
        metrics[f"cli.exit_{code}"] = (count, "count")
    metrics["cli.decided_ratio"] = (tally.decided / tally.attempted, "ratio")
    metrics["cli.failed_ratio"] = (len(tally.failures) / tally.attempted, "ratio")
    own = rec.layer_self_times(rec.self_times())
    notes = {f"{layer}.self_share": f"{layer} self time {own[layer] / pairs:.4f} s/op"
             for layer in LAYERS}
    return tally, metrics, notes, rec.dump()


def run_one(args, env):
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / "work" / f"{tag}-{os.getpid()}"
    try:
        subprocess.run([sys.executable, str(HERE / "gen.py"), "--workload", args.workload,
                        "--seed", str(args.seed), "--out", str(work)],
                       env=env, check=True, timeout=150)
        setup = None if args.trace else setup_seconds(env)

        from cudfkit import cli
        from loop import Judge, closed_loop, load_ops

        ops = load_ops(work)
        stats = json.loads((work / "stats.json").read_text())
        record = {"environment": environment(args.seed, args.workload), "inputs": stats}
        if args.trace:
            tally, metrics, notes, record["trace"] = traced(cli.main, ops, args.seconds,
                                                            Judge())
            extra = {}
        else:
            tally = closed_loop(cli.main, ops, args.seconds, Judge(), min_ops=MIN_OPS)
            metrics, extra, notes = end_to_end(tally, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    shown = {**metrics, **extra}
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in shown.items()}
    record["failures"] = tally.failures
    record["latencies"] = tally.log
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1))

    print("environment: " + " ".join(f"{k}={v}" for k, v in record["environment"].items()))
    print(f"inputs: {stats['operations']} operations over {stats['stanzas']} stanzas, "
          f"{stats['bytes']} bytes, free bits {stats['free_bits']}")
    for name, (value, unit) in shown.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:32s} {value:14.6g} {unit}{note}")
    for kind, failure in tally.failures[:20]:
        print(f"FAILED {kind}: {failure}")
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args):
    """Each workload in its own process; the last line sums them up with
    metric names prefixed by the workload, and adds each workload's
    decided_ratio and failed_ratio from its results file."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", workload, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return done.returncode or 1
        print(f"== {workload}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}/{name}"] = metric
        record = json.loads((OUT / "results" / f"{workload}-seed{args.seed}"
                             f"-trace{args.trace}.json").read_text())
        for name in ("decided_ratio", "failed_ratio"):
            if name in record["metrics"]:
                summary["metrics"][f"{workload}/{name}"] = record["metrics"][name]
    print(json.dumps(summary))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description="cudfkit CLI benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cudfkit" / "cli.py").is_file() or \
            not (ROOT / "tests" / "_gen.py").is_file():
        print(f"error: {ROOT} is not a cudfkit source checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return run_one(args, env)


if __name__ == "__main__":
    sys.exit(main())
