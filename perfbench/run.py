"""Solve benchmark: time optppl's public entry points on seeded programs.

Usage::

    python3 perfbench/run.py --workload meu-search --seed 1 --seconds 30 --trace 0

``--workload all`` runs the three workloads one after another.

Each run draws its instance list from the seed (see ``workloads.py``) and
checks every answer against a brute-force oracle reference (``refs.py``).
Load shape: closed loop, one client, one process, one solve at a time.  A
solve is ``dappl.solve_meu(src, mgr=BddManager())`` or
``pineappl.run_program(src, mgr=BddManager())``, timed from source text to
result.

``--trace 0`` solves the list in full passes until ``--seconds`` is used up
(at least one pass) and reports the end-to-end metrics.  ``--trace 1``
draws a half-size list with the same size profile (``workloads.draw`` with
``half``), solves each program untraced and then with every layer wrapped
(``spans.py``) and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``correct`` is false
and the exit code 1 when an answer differs from its reference, a solve
raises or a solve runs out of time.  A run whose library cannot be
imported, or whose pinned input changed or has no reference, exits nonzero
without a result line.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

import refs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SOLVE_LIMIT_S = 30.0  # per solve, enforced by a timer outside the solver
RUN_LIMIT_S = 150.0  # stop a pass that overruns; the rest count as failed
SETUP_PROBES = 9  # fresh processes timed for setup_s; the median is reported

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "solve_ms_p50": "ms",
    "solve_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


class SolveTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise SolveTimeout()


def import_library():
    """Import optppl from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, SRC)
    try:
        import optppl
    except ImportError as exc:
        sys.exit(f"run: cannot import optppl from {SRC}: {exc}")
    if not os.path.abspath(optppl.__file__).startswith(SRC + os.sep):
        sys.exit(f"run: optppl was imported from {optppl.__file__}, not {SRC}")


def layer_unit(name: str) -> str:
    if name.endswith(".ms"):
        return "ms"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


class Runner:
    """Solves instances one at a time and tallies the outcomes."""

    def __init__(self, answers: dict):
        from optppl import dappl, pineappl
        from optppl.bdd import BddManager

        signal.signal(signal.SIGALRM, _alarm)
        self._solvers = {"meu": dappl.solve_meu, "mmap": pineappl.run_program}
        self._manager = BddManager
        self.answers = answers
        self.tracer = None  # a spans.Tracer while a traced pass runs
        self.attempted = self.errors = self.timeouts = self.wrong = 0
        self.results = []  # (instance key, answer) per correct solve

    @property
    def failed(self) -> int:
        return self.errors + self.timeouts + self.wrong

    def solve(self, inst, solve_id: int = 0) -> float:
        """One solve; returns its wall time in seconds."""
        # Collect the previous solve's garbage first, outside the timed
        # region: its BDD manager and caches are reference cycles, and RSS
        # stays near the largest solve until a cyclic collection runs, so
        # without this one solve's garbage is charged to the next solve's
        # time and to peak_rss_mb.
        gc.collect()
        solver = self._solvers[inst.kind]
        mgr = self._manager()
        self.attempted += 1
        signal.setitimer(signal.ITIMER_REAL, SOLVE_LIMIT_S)
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                result = solver(inst.source, mgr=mgr)
            else:
                with self.tracer.solve_span(solve_id, mgr):
                    result = solver(inst.source, mgr=mgr)
            elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
        except SolveTimeout:
            self.timeouts += 1
            print(f"timeout: {inst.key} exceeded {SOLVE_LIMIT_S:g} s", file=sys.stderr)
            return time.perf_counter() - t0
        except Exception as exc:  # a solve that raises is a failure, not a crash
            elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.errors += 1
            print(f"error: {inst.key}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return elapsed
        got = refs.solver_answer(inst.kind, result)
        del result
        reason = refs.mismatch(self.answers[inst.sha256], got)
        if reason is not None:
            self.wrong += 1
            print(f"wrong: {inst.key}: {reason}", file=sys.stderr)
        else:
            self.results.append((inst.key, got))
        return elapsed


def prepare(workload: str, seed: int, half: bool = False):
    """Draw the instance list and load the reference of every instance."""
    import workloads

    instances = workloads.draw(workload, seed, half)
    try:
        answers, missing = refs.lookup(instances, refs.load())
    except refs.InputChanged as exc:
        print(f"run: {exc}", file=sys.stderr)
        sys.exit(3)
    if missing:
        sys.exit(f"run: no reference for {missing[0].key}; see refs.py")
    return instances, answers


def warm_up(instances, answers):
    """One untimed solve of the smallest program."""
    runner = Runner(answers)
    runner.solve(min(instances, key=lambda i: (len(i.source), i.key)))
    if runner.failed:
        sys.exit("run: the warm-up solve failed")


def measure_setup(workload: str, seed: int) -> float:
    """Median time from process start to the first timed solve."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            stdout=subprocess.PIPE, text=True,
        ) as child:
            line = child.stdout.readline()
            times.append(time.perf_counter() - t0)
            child.stdout.read()
        if child.returncode != 0 or line.strip() != "ready":
            sys.exit("run: a setup probe failed")
    return statistics.median(times)


def run_untraced(instances, answers, seconds: float):
    runner = Runner(answers)
    solve_ms, pass_s = [], []
    start = time.perf_counter()
    while True:
        total = 0.0
        for i, inst in enumerate(instances):
            if time.perf_counter() - start > RUN_LIMIT_S:
                cut = len(instances) - i
                print(f"run: cut after {RUN_LIMIT_S:g} s, {cut} solves missed",
                      file=sys.stderr)
                runner.attempted += cut
                runner.timeouts += cut
                break
            t = runner.solve(inst)
            solve_ms.append(t * 1000.0)
            total += t
        if runner.timeouts:
            # a pass with a missed solve is no full pass; the run is
            # reported as failed, and wall_s falls back to the cut pass
            # only when no pass finished
            pass_s = pass_s or [total]
            break
        pass_s.append(total)
        if time.perf_counter() - start + statistics.median(pass_s) > seconds:
            break
    metrics = {
        "wall_s": statistics.median(pass_s),
        "solve_ms_p50": statistics.median(solve_ms),
        "solve_ms_p90": statistics.quantiles(solve_ms, n=10, method="inclusive")[-1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return runner, metrics, len(solve_ms), len(pass_s)


def run_traced(instances, answers, spans_path: str):
    import spans

    runner = Runner(answers)
    tracer = spans.Tracer()
    untraced = traced = 0.0
    # each program's untraced and traced solves run back to back, so the
    # host's drift in speed, which is of the order of the overhead, falls
    # on both alike instead of on one of two separate passes
    for i, inst in enumerate(instances):
        runner.tracer = None
        untraced += runner.solve(inst)
        runner.tracer = tracer
        with tracer.installed():
            traced += runner.solve(inst, i)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_frac"] = (traced - untraced) / untraced
    # the self times of a solve's spans partition its root span; the part
    # of the outside wall time they miss is tracer bookkeeping
    covered = sum(total for total, _ in tracer.per_solve_self_sums().values())
    tracer.write(spans_path)
    return runner, metrics, covered / traced


def run_each(args) -> int:
    """Every workload in turn, each in its own process; nonzero if any fails."""
    import workloads

    status = 0
    for name in sorted(workloads.WORKLOADS):
        proc = subprocess.run([
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ])
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    import_library()
    import workloads

    if args.workload == "all":
        return run_each(args)
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(sorted(workloads.WORKLOADS))}")
    instances, answers = prepare(args.workload, args.seed, half=args.trace == 1)
    warm_up(instances, answers)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    lines = [f"workload {args.workload} seed {args.seed}: {len(instances)} programs"]
    if args.trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.tsv.gz")
        runner, metrics, coverage = run_traced(instances, answers, spans_path)
        units = {name: layer_unit(name) for name in metrics}
        lines.append(f"traced {len(instances)} solves; spans in {os.path.relpath(spans_path)}")
        lines.append(f"span self times cover {coverage:.4f} of traced solve time")
    else:
        setup_s = measure_setup(args.workload, args.seed)
        runner, metrics, n_solves, n_passes = run_untraced(instances, answers, args.seconds)
        metrics = {"setup_s": setup_s, **metrics}
        units = E2E_UNITS
        lines.append(f"{n_solves} solves in {n_passes} passes; "
                     f"setup_s is the median of {SETUP_PROBES} fresh processes")
    for name, value in metrics.items():
        lines.append(f"  {name:<24} {value:>14.6g} {units[name]}")
    # fail_frac is reported through "attempted" and "failed" in the result
    # line rather than as a metric, since it is zero on a healthy run
    lines.append(f"  {'fail_frac':<24} {runner.failed / runner.attempted:>14.6g} ratio"
                 f" ({runner.errors} errors, {runner.timeouts} timeouts,"
                 f" {runner.wrong} wrong answers)")
    print("\n".join(lines))
    correct = runner.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
