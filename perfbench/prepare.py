"""Set-up of one benchmark run: draw the workload's cells, warm what it needs.

Usage: python3 perfbench/prepare.py <workload> <seed> <dir>

Everything comes from a seeded draw over perfbench/census.json, stratified
by the time the workload's operation took on each cell at the census: the
population is sorted by that time and cut into as many equal strata as cells
are drawn, and one cell is drawn from each stratum.  Every cell is equally
likely, but each draw has the time spread of the whole population, so runs
with different seeds measure comparable work.  The times only order the
cells; they are never compared with a run's.

  warm-sweep    builds every drawn cell whose cold build wrote cache entries
                once with `--no-verify` into the private cache <dir>/cache,
                so the measured builds read every search-backed block from it;
  cold-build    only draws; every measured build gets its own empty cache;
  verify-files  builds every drawn cell into <dir>/files, writing a valid
                file and one with a single seeded edit.

The plan for the measured phase is written to <dir>/plan.json.  The program
only ever sees the drawn parameters and the generated files.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

EDITS = ("delete", "duplicate", "move", "tweak", "relabel-hole")


def stratified(population: list[dict], count: int, rng: random.Random,
               key: str) -> list[dict]:
    """One record from each of `count` equal strata of the population sorted by `key`."""
    pop = sorted(population, key=lambda r: (r[key], r["cell"]))
    if count > len(pop):
        raise ValueError(f"cannot draw {count} cells from {len(pop)}")
    bounds = [round(i * len(pop) / count) for i in range(count + 1)]
    return [pop[rng.randrange(lo, hi)] for lo, hi in zip(bounds, bounds[1:])]


def warm_population(census: list[dict], spec: dict) -> list[dict]:
    return [r for r in census if r["outcome"] == "built"
            and r["host_edges"] <= spec["max_host_edges"]
            and r["seconds"] <= spec["max_cold_seconds"]]


def draw(workload: str, seed: int, config: dict, census: list[dict]) -> list[dict]:
    spec = config["workloads"][workload]
    rng = random.Random(f"{workload}:{seed}")
    if workload == "warm-sweep":
        picked = stratified(warm_population(census, spec), spec["cells"], rng, "warm_seconds")
    elif workload == "verify-files":
        pop = warm_population(census, config["workloads"]["warm-sweep"])
        pop = [r for r in pop if r["host_edges"] >= spec["min_host_edges"]]
        picked = stratified(pop, spec["cells"], rng, "verify_seconds")
    elif workload == "cold-build":
        built = [r for r in census if r["outcome"] == "built" and r["cache_entries"]
                 and r["seconds"] <= spec["max_built_seconds"]]
        stuck = [r for r in census if r.get("stalls")]
        picked = (stratified(built, spec["built_cells"], rng, "seconds")
                  + stratified(stuck, spec["did_not_finish_cells"], rng, "host_edges"))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(picked)
    return picked


def single_edit(obj: dict, rng: random.Random) -> str:
    """Apply one seeded edit to a decomposition document; return its kind."""
    factors = obj["factors"]
    u, g = obj["params"]["u"], obj["params"]["g"]
    fi = rng.randrange(len(factors))
    cycles = factors[fi]["cycles"]
    kind = rng.choice(EDITS)
    if kind == "delete":
        cycles.pop(rng.randrange(len(cycles)))
    elif kind == "duplicate":
        cycles.append(list(cycles[rng.randrange(len(cycles))]))
    elif kind == "move":
        fj = (fi + 1 + rng.randrange(len(factors) - 1)) % len(factors)
        factors[fj]["cycles"].append(cycles.pop(rng.randrange(len(cycles))))
    elif kind == "tweak":
        cyc = cycles[rng.randrange(len(cycles))]
        vi = rng.randrange(len(cyc))
        part, slot = cyc[vi]
        cyc[vi] = [part, (slot + 1 + rng.randrange(g - 1)) % g]
    else:
        hole = factors[fi]["hole"]
        factors[fi]["hole"] = (hole + 1 + rng.randrange(u - 1)) % u
    return kind


def _build(cli, cell, verify: bool) -> bytes:
    argv = common.build_argv(cell) + ([] if verify else ["--no-verify"])
    code, data, err = common.run_cli(cli, argv)
    if code != 0:
        raise RuntimeError(f"set-up build of {common.cell_id(cell)} exited {code}: {err.strip()}")
    return data


def prepare(workload: str, seed: int, out: Path) -> dict:
    config = common.load_config()
    census = common.load_census()
    picked = draw(workload, seed, config, census)
    cache = common.fresh_dir(out / "cache")
    common.env_cache(cache)
    cli = common.import_program()
    ops = []
    if workload == "warm-sweep":
        for rec in picked:
            if rec["cache_entries"]:  # the others read no cache
                _build(cli, rec["cell"], verify=False)
            ops.append({"cell": rec["cell"], "expect_sha": rec["sha256"]})
    elif workload == "cold-build":
        for rec in picked:
            ops.append({"cell": rec["cell"], "expect_sha": rec.get("sha256"),
                        "part": rec["outcome"]})
    else:
        files = common.fresh_dir(out / "files")
        for rec in picked:
            cell = rec["cell"]
            data = _build(cli, cell, verify=False)
            if common.sha256(data) != rec["sha256"] and not common.reverify(data, cell):
                raise RuntimeError(f"set-up build of {common.cell_id(cell)} does not verify")
            name = "-".join(map(str, cell))
            valid = files / f"{name}.json"
            valid.write_bytes(data)
            obj = json.loads(data)
            kind = single_edit(obj, random.Random(f"edit:{seed}:{name}"))
            from cycleframe import serialize
            edited = files / f"{name}.{kind}.json"
            edited.write_bytes(serialize.canonical_json_bytes(obj))
            ops.append({"cell": cell, "path": str(valid), "expect_exit": 0,
                        "bytes": valid.stat().st_size})
            ops.append({"cell": cell, "path": str(edited), "expect_exit": 6, "edit": kind,
                        "bytes": edited.stat().st_size})
        random.Random(f"order:{seed}").shuffle(ops)
    for op in ops:
        op["edges"] = common.host_edges(op["cell"])
    plan = {"workload": workload, "seed": seed, "cache": str(cache),
            "cold_root": str(out / "cold"), "ops": ops}
    (out / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    return plan


if __name__ == "__main__":
    try:
        prepare(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
    except common.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)
