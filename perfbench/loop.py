"""Closed loop over the CLI and the check of every answer.

One caller drives `cudfkit.cli.main(argv)` in this process: the next
operation starts only after the previous one returned.  Every outcome is
judged against the reference answer the generator stored with the
operation.  Between operations the loop times a speed probe, a fixed
piece of pure-Python work that does not use cudfkit, so that each
operation's time can be read against the host's speed while it ran.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import random
import traceback
from functools import lru_cache
from pathlib import Path
from time import perf_counter, process_time

import gen
import reference

EXIT_CODES = (0, 1, 2, 3)


def load_ops(work):
    """The generated operations, with file arguments resolved in `work`."""
    work = Path(work)
    ops = json.loads((work / "ops.json").read_text())
    for op in ops:
        op["argv"] = [str(work / a[1:]) if a.startswith("@") else a for a in op["argv"]]
        if op["kind"] == "fmt":
            op["expect"]["stdout"] = (work / op["expect"]["stdout"]).read_bytes()
        if op["kind"] == "solve":
            op["expect"]["model"] = str(work / op["expect"]["model"])
    return ops


@lru_cache(maxsize=1)
def _probe_problem():
    rng = random.Random("speed probe")
    stanzas = gen.universe(rng, 400, installed=0.3, keep=0.1)
    request, target = gen.plant(rng, stanzas)
    return stanzas, request, target


def probe():
    """CPU seconds the speed probe takes now: the reference check of one
    fixed 400-stanza problem, about 0.5 ms at full speed."""
    stanzas, request, target = _probe_problem()
    start = process_time()
    reference.violations(reference.Universe(stanzas), request, target)
    return process_time() - start


class Result:
    __slots__ = ("code", "stdout", "stderr", "error", "seconds", "cpu_seconds")


def run_cli(main, argv):
    """Run one CLI operation with stdout/stderr captured."""
    out = io.BytesIO()
    text = io.TextIOWrapper(out, encoding="utf-8", newline="\n")
    err = io.StringIO()
    r = Result()
    r.error = None
    start, cpu_start = perf_counter(), process_time()
    try:
        with contextlib.redirect_stdout(text), contextlib.redirect_stderr(err):
            r.code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        r.code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback is a failed operation, never a crash
        r.code = None
        r.error = traceback.format_exc()
    r.seconds = perf_counter() - start
    r.cpu_seconds = process_time() - cpu_start
    text.flush()
    r.stdout = out.getvalue()
    r.stderr = err.getvalue()
    return r


class Judge:
    """Compares outcomes with the reference answers."""

    def __init__(self):
        self._models = {}

    def universe(self, path):
        if path not in self._models:
            model = json.loads(Path(path).read_text())
            self._models[path] = (reference.Universe(model["stanzas"]), model["request"])
        return self._models[path]

    def __call__(self, op, r):
        """(decided, failure): failure is None or the reason the answer
        is wrong; an undecided answer (exit 3) is not a failure."""
        if r.error is not None:
            return False, "traceback: " + r.error.strip().splitlines()[-1]
        if r.code not in EXIT_CODES:
            return False, f"exit code {r.code!r} outside {EXIT_CODES}"
        try:
            failure = getattr(self, "_" + op["kind"])(op["expect"], r)
        except Exception as exc:  # malformed output is a failed op, never a crash
            failure = f"unreadable output: {exc!r}"
        if failure == "undecided":
            return False, None
        return failure is None, failure

    @staticmethod
    def _check(expect, r):
        if r.code != expect["exit"]:
            return f"exit {r.code}, expected {expect['exit']}"
        payload = json.loads(r.stdout)
        if payload["packages"] != expect["packages"]:
            return f"{payload['packages']} packages, expected {expect['packages']}"
        stanzas = [e["stanza"] for e in payload["recovered_errors"]]
        if stanzas != expect["errors"]:
            return "recovered errors at the wrong stanzas"
        if not all(e["reason"] for e in payload["recovered_errors"]):
            return "recovered error without a reason"
        if payload["violations"]:
            return "violations reported on a valid document"
        return None

    @staticmethod
    def _fmt(expect, r):
        if r.code != expect["exit"]:
            return f"exit {r.code}, expected {expect['exit']}"
        if r.stdout != expect["stdout"]:
            return "fmt output differs from the canonical text"
        return None

    @staticmethod
    def _verify(expect, r):
        if r.code != expect["exit"]:
            return f"exit {r.code}, expected {expect['exit']}"
        payload = json.loads(r.stdout)
        if payload["ok"] != (expect["exit"] == 0):
            return "verdict flag disagrees with the exit code"
        got = set()
        for v in payload["violations"]:
            clause = v["clause"].split("/")[-1]
            version = v["version"] if clause in ("keep", "depends", "conflicts") else None
            got.add((clause, v["package"], version))
        want = {tuple(v) for v in expect["violations"]}
        if got != want:
            return f"violations {sorted(got)}, expected {sorted(want)}"
        return None

    def _solve(self, expect, r):
        optimum = expect["optimum"]
        if r.code == 3:
            return "undecided"
        if r.code == 1:
            return None if optimum is None else "no solution reported for a solvable problem"
        if r.code != 0:
            return f"exit {r.code}"
        if optimum is None:
            return "solution reported for an unsolvable problem"
        uni, request = self.universe(expect["model"])
        index = {(s["name"], s["version"]): i for i, s in enumerate(uni.stanzas)}
        keys = reference.parse_solution_text(r.stdout)
        if any(k not in index for k in keys):
            return "solution names a stanza outside the problem"
        installed = {index[k] for k in keys}
        broken = reference.violations(uni, request, installed)
        if broken:
            return f"solution breaks {sorted(broken)[:3]}"
        costs = reference.costs(uni, request, expect["mode"])
        cost = sum(costs[i] for i in installed)
        printed = int(r.stderr.strip().rsplit("cost: ", 1)[1])
        if printed != cost:
            return f"printed cost {printed}, solution costs {cost}"
        if cost != optimum:
            return f"cost {cost}, optimum {optimum}"
        return None


class Tally:
    """Outcomes and latencies of the measured operations."""

    def __init__(self):
        # (subcommand, wall seconds, CPU seconds, probe CPU seconds) per operation
        self.log = []
        self.stanzas = 0
        self.decided = 0
        self.failures = []

    def add(self, op, r, probe_s, decided, failure):
        self.log.append((op["argv"][0], r.seconds, r.cpu_seconds, probe_s))
        self.stanzas += op["stanzas"]
        self.decided += decided
        if failure is not None:
            self.failures.append((op["argv"][0], failure))

    @property
    def latencies(self):
        return [row[1] for row in self.log]

    @property
    def cpu_latencies(self):
        return [row[2] for row in self.log]

    @property
    def probes(self):
        return [row[3] for row in self.log]

    @property
    def attempted(self):
        return len(self.log)


def closed_loop(main, ops, seconds, judge, each=None, min_ops=1):
    """Run whole rounds of the ops, in order, as many as bring the
    measured time closest to `seconds` and at least `min_ops` operations
    judged, after one untimed warm-up of the first op.  Whole rounds
    keep the mix of operations, and so the latency percentiles, the same
    from run to run.  A full garbage collection between ops keeps one op's
    garbage, and the judge's, from being collected inside the next one's
    timing.  The speed probe runs after it; an op is credited the mean of the
    probes just before and just after it, so that a change of speed
    while it ran counts half.
    `each(op, i)` replaces the plain call when given (the traced run) and
    returns the results to judge."""
    run_cli(main, ops[0]["argv"])
    tally = Tally()
    start = perf_counter()
    gc.collect()
    before = probe()
    i = 0
    while True:
        round_start = perf_counter()
        for op in ops:
            results = each(op, i) if each else [run_cli(main, op["argv"])]
            verdicts = [judge(op, r) for r in results]
            gc.collect()
            after = probe()
            for r, (decided, failure) in zip(results, verdicts):
                tally.add(op, r, (before + after) / 2, decided, failure)
            before = after
            i += 1
        now = perf_counter()
        if now - start + (now - round_start) / 2 >= seconds and tally.attempted >= min_ops:
            return tally
