"""Benchmark for the adinkra toolkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from the `src` directory next
to this one.  One client in one process and one thread calls the public
entry points (`adinkra.cli.main` in-process, `search.canonical_form`)
in a closed loop, one round of core operations after another, and
checks every answer against the oracle.  The last line of standard
output is one JSON object: end-to-end metrics with --trace 0, per-layer
metrics with --trace 1.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPS = 5  # fresh interpreters per run; set-up time is their median
PROBE_CAP_S = 8.0  # wall-clock cap per frontier probe, enforced from outside
OP_CAP_S = 30.0  # a core operation slower than this counts as failed
WALL_LIMIT_S = 120.0  # stop measuring so set-up, rounds and probes end within 180 s
CHILD_TIMEOUT_S = 60.0
MIN_ROUNDS = 2  # traced runs alternate untraced and traced rounds

E2E_UNITS = {"ops_per_s": "1/s", "p50_ms": "ms", "tail_ms": "ms", "setup_s": "s",
             "peak_rss_mb": "MB"}


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _child(*args: str) -> list[str]:
    return [sys.executable, str(HERE / "child.py"), *args]


def measure_setup(workload: str, seed: int) -> float:
    """Median seconds from spawning a fresh interpreter to ready-to-time,
    minus the child's own input generation."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(_child("setup", workload, str(seed)), cwd=ROOT,
                                env=_child_env(), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], CHILD_TIMEOUT_S)
            line = proc.stdout.readline() if ready else ""
            t1 = time.perf_counter()
            _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up child failed: {err.strip()[-400:]}")
        times.append(t1 - t0 - json.loads(line)["gen_s"])
    return statistics.median(times)


def run_probe(op) -> tuple[str, dict[str, int]]:
    """One frontier probe in a child process: solved, refused, over-cap
    or failed, plus the refusals its layers raised."""
    request = json.dumps({"argv": list(op.argv), "stdin": op.stdin})
    try:
        res = subprocess.run(_child("probe"), input=request, capture_output=True, text=True,
                             timeout=PROBE_CAP_S, cwd=ROOT, env=_child_env())
    except subprocess.TimeoutExpired:
        return "over-cap", {}
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        return "failed", {}
    data = json.loads(lines[-1])
    if data.get("memory"):
        return "over-cap", {}
    if any(data["refused"].values()):
        return "refused", data["refused"]
    try:
        problem = op.expect(data["rc"], data["out"])
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        problem = f"unreadable output: {exc}"
    return ("solved" if problem is None else "failed"), data["refused"]


class Runner:
    """Runs rounds of one workload and checks every answer."""

    def __init__(self, workload, cli, search):
        self.wl = workload
        self.cli = cli
        self.search = search
        self.latencies_ms: list[float] = []
        self.round_s: dict[bool, list[float]] = {False: [], True: []}
        self.attempted = 0
        self.failed = 0
        self.failures: list[tuple[str, str]] = []
        self._verified: set[tuple[int, int, bytes]] = set()

    def _check(self, index: int, op, rc, out) -> str | None:
        if op.topology is not None:
            return None  # keys are checked per round, across operations
        key = (index, rc, hashlib.blake2b(out.encode(), digest_size=16).digest())
        if key in self._verified:  # identical to an output already checked
            return None
        try:
            problem = op.expect(rc, out)
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            problem = f"unreadable output ({type(exc).__name__}: {exc})"
        if problem is None:
            self._verified.add(key)
        return problem

    def _fail(self, label: str, problem: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append((label, problem))

    def warm_up(self, problems: list[str]) -> None:
        for i, op in enumerate(self.wl.warmups):
            rc, out = workloads.execute(op, self.cli, self.search)
            problem = self._check(-1 - i, op, rc, out)
            if problem:
                problems.append(f"warm-up {op.label}: {problem}")

    def round(self, deadline: float) -> float:
        """Run every core operation once; returns seconds spent inside them."""
        spent = 0.0
        keys = []
        for i, op in enumerate(self.wl.ops):
            if time.perf_counter() > deadline:
                break
            problem = None
            t0 = time.perf_counter()
            try:
                rc, out = workloads.execute(op, self.cli, self.search)
            except Exception as exc:  # the run goes on; the operation failed
                problem = f"raised {type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            spent += dt
            self.attempted += 1
            self.latencies_ms.append(dt * 1000.0)
            if problem is None:
                problem = self._check(i, op, rc, out)
                if op.topology is not None:
                    keys.append((op.group, repr(out)))
            if problem is None and dt > OP_CAP_S:
                problem = f"took {dt:.1f} s, over the {OP_CAP_S:.0f} s cap"
            if problem:
                self._fail(op.label, problem)
        problem = workloads.check_groups(keys)
        if problem:
            for _ in keys:
                self._fail("canonical_form", problem)
        return spent


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when there are fewer than eleven."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith("useful_ratio"):
        return "ratio"
    if name == "trace.overhead_pct":
        return "%"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "adinkra" / "__init__.py").is_file():
        print(f"error: the program's source is missing ({SRC / 'adinkra'})", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    wl = workloads.build(args.workload, args.seed)
    setup_s = None if args.trace else measure_setup(args.workload, args.seed)

    sys.path.insert(0, str(SRC))
    import adinkra
    import adinkra.cli
    import adinkra.search

    if Path(adinkra.__file__).resolve().parent != (SRC / "adinkra").resolve():
        print(f"error: imported adinkra from {adinkra.__file__}, not {SRC}", file=sys.stderr)
        return 2

    runner = Runner(wl, adinkra.cli, adinkra.search)
    problems: list[str] = []
    runner.warm_up(problems)
    tracer = Tracer() if args.trace else None
    wall0 = time.perf_counter()
    measured, rounds = 0.0, 0
    while True:
        traced = tracer is not None and rounds % 2 == 1
        gc.collect()  # start every round from the same collector state
        if traced:
            tracer.install()
        try:
            spent = runner.round(wall0 + WALL_LIMIT_S)
        finally:
            if traced:
                tracer.uninstall()
        runner.round_s[traced].append(spent)
        measured += spent
        rounds += 1
        if time.perf_counter() - wall0 > WALL_LIMIT_S:
            print(f"note: stopped at the {WALL_LIMIT_S:.0f} s wall-clock limit")
            break
        if rounds >= MIN_ROUNDS and measured + 0.5 * measured / rounds > args.seconds:
            break

    lat = runner.latencies_ms
    print(f"workload {args.workload}, seed {args.seed}: {rounds} rounds of "
          f"{len(wl.ops)} core operations, {len(lat)} samples, {measured:.3f} s measured")
    if tracer is None:
        tail_ms, pct = tail(lat)
        metrics = {
            "ops_per_s": (runner.attempted - runner.failed) / measured,
            "p50_ms": statistics.median(lat),
            "tail_ms": tail_ms,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        print(f"p50_ms is the median of {len(lat)} samples; tail_ms is p{pct:.2f} "
              f"(10 samples beyond it); setup_s is the median of {SETUP_REPS} fresh "
              f"interpreters")
        units = E2E_UNITS
    else:
        traced_s = runner.round_s[True]
        if not traced_s:
            problems.append(f"no traced round within the {WALL_LIMIT_S:.0f} s wall-clock limit")
        metrics = tracer.metrics(max(1, len(traced_s)))
        outcomes = {"solved": 0, "refused": 0, "over-cap": 0, "failed": 0}
        for op in wl.probes:
            outcome, refused = run_probe(op)
            outcomes[outcome] += 1
            for key, value in refused.items():
                metrics[key] += value
            print(f"frontier probe {op.label}: {outcome}")
        for outcome, count in outcomes.items():
            metrics[f"frontier.{outcome.replace('-', '_')}"] = count
        untraced = statistics.mean(runner.round_s[False])
        metrics["trace.overhead_pct"] = (100.0 * (statistics.mean(traced_s) / untraced - 1)
                                         if traced_s else 0.0)
        if tracer.absent:
            print("absent layer functions (reported as 0): " + ", ".join(tracer.absent))
        if tracer.unobserved:
            print("counts not derivable for: " + ", ".join(sorted(tracer.unobserved)))
        units = {name: _unit(name) for name in metrics}
    for label, problem in runner.failures:
        print(f"FAILED {label}: {problem}")
    for problem in problems:
        print(f"problem: {problem}")
    result = {
        "correct": runner.failed == 0 and not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
