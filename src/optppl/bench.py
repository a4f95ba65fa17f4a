"""Benchmark runner: one CSV row per instance, timeouts enforced per run.

Each instance executes in its own worker process so overruns can be killed;
rerunning with the same seed reproduces every value and witness.  Columns:
``family,params,seed,value,policy_hash,nodes,prunes,time_ms,status``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import multiprocessing as mp
import time

CSV_COLUMNS = [
    "family", "params", "seed", "value", "policy_hash",
    "nodes", "prunes", "time_ms", "status",
]


def _policy_hash(policy: dict) -> str:
    text = json.dumps(policy, sort_keys=True)
    return hashlib.sha1(text.encode()).hexdigest()[:12]


def _run_instance(family, param, seed, bn, strategy, queue):
    from . import dappl, pineappl
    from .bdd import BddManager
    from .gen import gen_bn, gen_dr, gen_gridworld, gen_ladder, gen_nested_mmap

    try:
        if family == "dr":
            src = gen_dr(param, seed=seed)
        elif family == "ladder":
            src = gen_ladder(param, k=1, seed=seed)
        elif family == "gridworld":
            # 2*(dim-1) moves reach every cell from the (0,0) start
            src = gen_gridworld(param, horizon=2 * (param - 1), slip=0.1, seed=seed)
        elif family == "nested-mmap":
            src = gen_nested_mmap(param)
        elif family == "bn":
            src = gen_bn(bn, strategy, seed=seed + param)
        else:
            raise ValueError(f"unknown family {family!r}")
        # every node the solve allocates, compile and search alike
        mgr = BddManager()
        t0 = time.perf_counter()  # times the solve, not program generation
        if family == "nested-mmap":
            out = pineappl.run_program(src, mgr)
            value = out["queries"][0]["value"]
            policy = out["decisions"]
            prunes = sum(s["prunes"] for s in out["stats"]["mmap_solves"])
        else:
            out = dappl.solve_meu(src, mgr=mgr)
            value = out["meu"]
            policy = out["policy"]
            prunes = out["stats"]["prunes"]
        nodes = mgr.num_nodes
        elapsed = (time.perf_counter() - t0) * 1000.0
        queue.put(
            {
                "value": value,
                "policy_hash": _policy_hash(policy),
                "nodes": nodes,
                "prunes": prunes,
                "time_ms": round(elapsed, 3),
                "status": "ok",
            }
        )
    except Exception as exc:  # recorded per row, never fatal
        queue.put({"status": f"error: {type(exc).__name__}", "time_ms": 0.0})


def run_bench(
    family,
    params,
    csv_path,
    seed=0,
    timeout_ms=60000,
    bn=None,
    strategy="existing",
    jobs=1,
):
    """Run one instance per parameter on a pool of ``jobs`` worker processes."""
    if family == "bn" and bn is None:
        raise ValueError("family 'bn' needs --bn pointing at a network JSON file")
    ctx = mp.get_context("fork")
    params = list(params)
    records = {}
    pending = list(enumerate(params))
    active = []  # (index, process, queue, deadline)
    while pending or active:
        while pending and len(active) < max(1, jobs):
            index, param = pending.pop(0)
            queue = ctx.Queue()
            proc = ctx.Process(
                target=_run_instance, args=(family, param, seed, bn, strategy, queue)
            )
            proc.start()
            active.append((index, proc, queue, time.monotonic() + timeout_ms / 1000.0))
        time.sleep(0.005)
        still = []
        for index, proc, queue, deadline in active:
            if not proc.is_alive():
                proc.join()
                records[index] = (
                    queue.get() if not queue.empty() else {"status": "crash", "time_ms": 0.0}
                )
            elif time.monotonic() > deadline:
                proc.terminate()
                proc.join()
                records[index] = {"status": "timeout", "time_ms": timeout_ms}
            else:
                still.append((index, proc, queue, deadline))
        active = still
    rows = []
    for index, param in enumerate(params):
        record = records[index]
        rows.append(
            {
                "family": family,
                "params": param,
                "seed": seed,
                "value": record.get("value", ""),
                "policy_hash": record.get("policy_hash", ""),
                "nodes": record.get("nodes", ""),
                "prunes": record.get("prunes", ""),
                "time_ms": record.get("time_ms", ""),
                "status": record.get("status", "unknown"),
            }
        )
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    return rows

