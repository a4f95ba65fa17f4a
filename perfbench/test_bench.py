"""Self-checks of the solve benchmark.

Run with ``python3 -m pytest perfbench``.  A single solve's time varies by
about a quarter inside one process, so repeatability is checked on answers
and counts, which are exact.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import refs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    CONTRACT = json.load(_fh)


def _run(args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
    )


# Traces the three smallest programs of a workload's traced draw in a fresh
# process and prints the answers and per-layer metrics as JSON.
TRACE_SMALLEST = """
import json, sys
sys.path[:0] = [{src!r}, {here!r}]
import refs, run, workloads
instances = sorted(workloads.draw({workload!r}, 0, half=True),
                   key=lambda i: (len(i.source), i.key))[:3]
answers, _ = refs.lookup(instances, refs.load())
runner, metrics, _ = run.run_traced(instances, answers, {spans!r})
print(json.dumps({{"answers": runner.results, "failed": runner.failed,
                  "metrics": metrics}}))
"""


def _traced(workload, hash_seed, tmp_path):
    script = TRACE_SMALLEST.format(
        src=os.path.join(ROOT, "src"), here=HERE, workload=workload,
        spans=str(tmp_path / f"spans-{hash_seed}.tsv.gz"),
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=str(tmp_path), capture_output=True,
        text=True, timeout=600, env=dict(os.environ, PYTHONHASHSEED=str(hash_seed)),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_runs_repeat_answers_and_counts(workload, tmp_path):
    first = _traced(workload, 0, tmp_path)
    second = _traced(workload, 1, tmp_path)
    # run_traced solves each program untraced, then traced
    assert first["failed"] == 0 and len(first["answers"]) == 6
    assert first["answers"][0::2] == first["answers"][1::2]
    assert first["answers"] == second["answers"]
    counts = [name for name in first["metrics"] if run.layer_unit(name) == "count"]
    for name in ("bdd.nodes_allocated", "bbir.bound.calls", "bbir.prunes",
                 "pineappl.mmap.calls"):
        assert name in counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name
    expected = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    assert {name: run.layer_unit(name) for name in first["metrics"]} == expected


def test_end_to_end_metrics_match_the_contract():
    assert run.E2E_UNITS == {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}


def test_span_self_times_partition_the_solve():
    from optppl import dappl
    from optppl.bdd import BddManager

    original = dappl.parse
    inst = workloads.make_instance("dr", {"n": 4, "seed": 0})
    tracer = spans.Tracer()
    with tracer.installed():
        mgr = BddManager()
        t0 = time.perf_counter()
        with tracer.solve_span(0, mgr):
            dappl.solve_meu(inst.source, mgr=mgr)
        wall = time.perf_counter() - t0
    assert dappl.parse is original
    self_sum, root = tracer.per_solve_self_sums()[0]
    assert self_sum == pytest.approx(root, rel=1e-9)
    assert root <= wall < root * 1.05
    metrics = tracer.layer_metrics()
    assert metrics["bbir.bound.calls"] > 0 and metrics["bdd.nodes_allocated"] > 0


def test_every_pooled_program_has_a_pinned_reference():
    stored = refs.load()
    for name in workloads.WORKLOADS:
        _, missing = refs.lookup(workloads.pool(name), stored)
        assert missing == [], [inst.key for inst in missing]


def test_changed_program_fails_by_name():
    inst = workloads.draw("meu-search", 0)[0]
    source = inst.source + "\n"
    changed = dataclasses.replace(
        inst, source=source, sha256=hashlib.sha256(source.encode()).hexdigest()
    )
    with pytest.raises(refs.InputChanged) as err:
        refs.lookup([changed], refs.load())
    assert str(err.value).startswith(inst.key + ":")


def test_mismatch_tolerances():
    assert refs.mismatch({"meu": 10.0}, {"meu": 10.0 * (1 + 1e-12)}) is None
    assert refs.mismatch({"meu": 10.0}, {"meu": 10.0 * (1 + 1e-6)}) is not None
    expected = {"queries": [[None, 0.5]], "decisions": {"m": True}}
    assert refs.mismatch(expected, {"queries": [[None, 0.5]], "decisions": {"m": True}}) is None
    assert refs.mismatch(expected, {"queries": [[None, 0.5]], "decisions": {"m": False}})
    assert refs.mismatch(expected, {"queries": [[None, 0.51]], "decisions": {"m": True}})


def test_without_the_library_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = _run(["--workload", "meu-search", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_wrong_answer_fails_the_run(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    # the largest program of the traced draw; the warm-up solves the smallest
    target = max(workloads.draw("staged-mmap", 0, half=True),
                 key=lambda i: (len(i.source), i.key))
    stored_path = tmp_path / "perfbench" / "refs.json"
    stored = json.loads(stored_path.read_text())
    stored[target.sha256]["answer"]["queries"][0][1] += 0.5
    stored_path.write_text(json.dumps(stored))
    proc = _run(["--workload", "staged-mmap", "--seed", "0", "--trace", "1"],
                cwd=str(tmp_path))
    assert proc.returncode == 1
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is False
    assert f"wrong: {target.key}" in proc.stderr
