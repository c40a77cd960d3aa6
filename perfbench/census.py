"""Cold-cache census of every feasible cell of the benchmark grid.

Usage: python3 perfbench/census.py [--jobs N]

Each cell is built by `cycleframe build` in a fresh worker process with a
fresh, empty block cache, held to the per-cell deadline of workloads.json.
The outcome is `built` (with its time, output SHA-256 and the number of
cache entries the build wrote, which is nonzero exactly when the route used
a search-backed block), `did_not_finish`, or `failed` (a nonzero exit before
the deadline).  Emitted bytes are parsed and re-verified before a digest is
recorded.  Built cells small enough for warm-sweep also get their warm build
and verify times, which the draws are stratified by.

A lambda = 3 or 4 cell stacks the lambda = 1 and 2 routes, so it runs the
same cold searches first: when one of those base cells did not finish, the
stacked cell is recorded as `did_not_finish` with `inferred_from` naming the
base cells, without being run.  Every other cell is run.

A cell can miss the deadline by a little: some finish at 1-3 times it.  Only
cells marked `stalls` make up cold-build's did-not-finish part, so that no
run of it finishes near the deadline (see confirm_stalls).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import platform
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

# A did-not-finish group stalls when its smallest cell also misses this many deadlines.
STALL_FACTOR = 3


def feasible_cells(grid: dict) -> list[tuple[tuple[int, ...], str]]:
    common.import_program()
    from cycleframe.arcs import Params, check_feasibility
    out = []
    for lam in grid["lambdas"]:
        for k in grid["ks"]:
            for u in range(grid["u"][0], grid["u"][1] + 1):
                for g in range(grid["g"][0], grid["g"][1] + 1):
                    feas = check_feasibility(Params(lam, k, u, g))
                    if feas:
                        out.append(((lam, k, u, g), feas.detail))
    return out


def run_cell(cell, detail: str, deadline: float) -> dict:
    cache = common.fresh_dir(common.WORK / ("census-cache-" + "-".join(map(str, cell))))
    run = common.run_worker({"cell": list(cell), "cache": str(cache), "trace": False,
                             "expect_sha": None}, deadline)
    shutil.rmtree(cache)
    rec = {"cell": list(cell), "detail": detail, "host_edges": common.host_edges(cell)}
    done, result = run["done"], run["result"]
    if run["missed"] or done is None or done["deadline"]:
        rec["outcome"] = "did_not_finish"
        rec["cache_entries"] = len(result["cache_entries_after"]) if result else None
        return rec
    if done["exit"] != 0 or not result or not result["correct"]:
        rec["outcome"] = "failed"
        rec["exit"] = done["exit"]
        return rec
    rec.update(outcome="built", seconds=round(done["seconds"], 4),
               sha256=result["sha256"], bytes=result["bytes"],
               cache_entries=len(result["cache_entries_after"]))
    return rec


def _bases(cell) -> list[tuple[int, ...]]:
    lam, k, u, g = cell
    if lam == 4:
        return [(2, k, u, g)]
    if lam == 3:
        return [(1, k, u, g), (2, k, u, g)]
    return []


def cold_census(cells, deadline: float, jobs: int) -> dict[tuple, dict]:
    records: dict[tuple, dict] = {}
    started = time.perf_counter()
    # Base lambdas first, so stacked cells can see their bases' outcomes.
    phases = [[c for c in cells if c[0][0] <= 2], [c for c in cells if c[0][0] > 2]]
    for phase in phases:
        todo = []
        for cell, detail in sorted(phase, key=lambda c: (common.host_edges(c[0]), c[0])):
            stuck = [b for b in _bases(cell) if records.get(b, {}).get("outcome") == "did_not_finish"]
            if stuck:
                records[cell] = {"cell": list(cell), "detail": detail,
                                 "host_edges": common.host_edges(cell),
                                 "outcome": "did_not_finish",
                                 "inferred_from": [list(b) for b in stuck]}
            else:
                todo.append((cell, detail))
        with concurrent.futures.ThreadPoolExecutor(jobs) as pool:
            for rec in pool.map(lambda c: run_cell(*c, deadline), todo):
                records[tuple(rec["cell"])] = rec
                print(f"{time.perf_counter() - started:8.1f}s {len(records)}/{len(cells)} "
                      f"{common.cell_id(rec['cell'])} {rec['outcome']} {rec.get('seconds', '')}",
                      file=sys.stderr, flush=True)
    return records


def confirm_stalls(records: dict[tuple, dict], deadline: float, jobs: int) -> None:
    """Mark the did-not-finish cells whose search stalls.

    A group is the cells of one lambda, k, u and route detail, which differ
    only in g.  When every cell of a group was measured as did_not_finish, its
    smallest cell is run again with STALL_FACTOR deadlines; every cell of the
    group gets `stalls`, true when that run missed them too.  Groups with a
    built cell are left unmarked: their search depends on g, and cells of
    them finish close to the deadline.
    """
    groups: dict[tuple, list[dict]] = {}
    for rec in records.values():
        lam, k, u, _g = rec["cell"]
        groups.setdefault((lam, k, u, rec["detail"]), []).append(rec)
    stuck = [g for g in groups.values()
             if all(r["outcome"] == "did_not_finish" and "inferred_from" not in r for r in g)]
    probes = [min(g, key=lambda r: (r["host_edges"], r["cell"])) for g in stuck]
    with concurrent.futures.ThreadPoolExecutor(jobs) as pool:
        runs = pool.map(lambda r: run_cell(tuple(r["cell"]), r["detail"], STALL_FACTOR * deadline),
                        probes)
        for group, probe, run in zip(stuck, probes, runs):
            for rec in group:
                rec["stalls"] = run["outcome"] == "did_not_finish"
            print(f"stall check {common.cell_id(probe['cell'])} {run['outcome']} "
                  f"{run.get('seconds', '')}", file=sys.stderr, flush=True)


def add_warm_times(records: list[dict], max_host_edges: int, reps: int = 3) -> None:
    """Warm build and verify seconds (best of `reps`) of every built cell up to
    `max_host_edges`, measured one at a time in this process with one private
    cache; warm-sweep and verify-files stratify their draws by them."""
    common.env_cache(common.fresh_dir(common.WORK / "census-warm-cache"))
    cli = common.import_program()
    path = common.WORK / "census-warm.json"
    for rec in records:
        if rec["outcome"] != "built" or rec["host_edges"] > max_host_edges:
            continue
        argv = common.build_argv(rec["cell"])
        common.run_cli(cli, argv + ["--no-verify"])  # writes the cache entries
        build, verify = [], []
        for _ in range(reps):
            started = time.perf_counter()
            code, data, _err = common.run_cli(cli, argv)
            build.append(time.perf_counter() - started)
            if code != 0 or common.sha256(data) != rec["sha256"]:
                raise RuntimeError(f"warm build of {common.cell_id(rec['cell'])} differs from its cold build")
        path.write_bytes(data)
        for _ in range(reps):
            started = time.perf_counter()
            code, _out, _err = common.run_cli(cli, ["verify", str(path)])
            verify.append(time.perf_counter() - started)
            if code != 0:
                raise RuntimeError(f"verify of {common.cell_id(rec['cell'])} exited {code}")
        rec["warm_seconds"] = round(min(build), 5)
        rec["verify_seconds"] = round(min(verify), 5)


def write(path: Path, head: dict, records: list[dict]) -> None:
    summary: dict[str, int] = {}
    for rec in records:
        summary[rec["outcome"]] = summary.get(rec["outcome"], 0) + 1
    head = dict(head, summary=summary)
    lines = [json.dumps(rec, sort_keys=True) for rec in records]
    text = json.dumps(head, sort_keys=True)[:-1] + ', "cells": [\n' + ",\n".join(lines) + "\n]}\n"
    path.write_text(text, encoding="utf-8")
    print(json.dumps(summary), file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--jobs", type=int, default=1, help="cold builds run at once (default 1)")
    args = ap.parse_args(argv)
    config = common.load_config()
    max_edges = config["workloads"]["warm-sweep"]["max_host_edges"]
    cells = feasible_cells(config["grid"])
    records = cold_census(cells, config["deadline_s"], args.jobs)
    confirm_stalls(records, config["deadline_s"], args.jobs)
    ordered = [records[c] for c, _ in sorted(cells)]
    add_warm_times(ordered, max_edges)
    head = {"deadline_s": config["deadline_s"], "grid": config["grid"], "jobs": args.jobs,
            "python": platform.python_version()}
    write(common.CENSUS_PATH, head, ordered)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
