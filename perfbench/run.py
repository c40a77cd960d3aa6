"""The cycleframe benchmark.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is warm-sweep, cold-build, verify-files, or `all` (each workload in its
own process, one after the other).  Run from the root of a checkout: the
program is imported from `src/`, and every file the run writes goes under
`perfbench/.work/`.

Set-up runs perfbench/prepare.py several times in child processes (fresh
directories each time) and reports the median as `setup_s`; the last set-up
is the one measured.  The measured phase then repeats whole passes over the
drawn operations, one at a time in this single process (cold-build: one
fresh worker process per cell), until S seconds have passed.  An operation's
time is the median of its times over the passes, and `cell_p50_ms` and
`cell_tail_ms` are taken over the operations.  Every output is checked
outside the timed section.  `peak_rss_mb` is the median over the
drawn operations of each one's peak RSS, taken in a forked child before the
timed passes (cold-build: the worker of each cell), so no operation's or
workload's peak carries into another's.  A forked child's peak starts from
the pages it shares with this process (interpreter and imported program);
the details line gives the peak of a child that runs nothing as
`peak_rss_mb_no_op`.

With --trace 0 the last line holds the end-to-end metrics; with --trace 1 it
holds the per-layer metrics of perfbench/tracer.py, measured on passes that
alternate with untraced ones so that `trace.overhead_ratio` compares equal
work.  The line before the last one carries the details: digests of every
output, the percentile behind `cell_tail_ms`, the failure breakdown and, on
cold-build, the busy (and traced search) time of each part of the draw.

A cold-build failure counts as correct only for a cell of the draw's
did-not-finish part; any other failed operation makes the run incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import tracer as tracing  # noqa: E402

WORKLOADS = ("warm-sweep", "cold-build", "verify-files")
UNITS = {"edges_per_s": "1/s", "cell_p50_ms": "ms", "cell_tail_ms": "ms",
         "completed_ratio": "ratio", "peak_rss_mb": "MB", "setup_s": "s"}
TAIL_BEYOND = 10  # samples that must lie above cell_tail_ms


class Op:
    """One measured operation: its time, whether it completed, whether its
    output passed the check, the host edges it built or verified, and the
    peak RSS of the worker process that ran it (cold-build only)."""

    __slots__ = ("seconds", "completed", "correct", "edges", "why", "rss_kb")

    def __init__(self, seconds, completed, correct, edges, why="", rss_kb=None):
        self.seconds, self.completed, self.correct = seconds, completed, correct
        self.edges, self.why, self.rss_kb = edges, why, rss_kb


class Runner:
    """Executes one operation of a workload and checks its output."""

    def __init__(self, workload: str, plan: dict, config: dict, cli):
        self.workload, self.plan, self.cli = workload, plan, cli
        self.deadline = config["deadline_s"]
        self.outputs: dict[str, str] = {}  # cell id or file name -> digest or exit code
        self._checked: dict[str, bool] = {}
        self.trace = False
        self.spans: list[list] = []

    def run(self, op: dict, tracer=None) -> Op:
        if self.workload == "cold-build":
            return self._cold(op)
        if tracer is not None:
            tracer.cell = common.cell_id(op["cell"])
        started = time.perf_counter()
        try:
            if self.workload == "warm-sweep":
                code, data, _err = common.run_cli(self.cli, common.build_argv(op["cell"]))
            else:
                code, data, _err = common.run_cli(self.cli, ["verify", op["path"]])
            seconds = time.perf_counter() - started
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return Op(time.perf_counter() - started, False, False, 0, "exception")
        if self.workload == "warm-sweep":
            return self._check_build(op, code, data, seconds)
        self.outputs[Path(op["path"]).name] = f"exit {code}"
        ok = code == op["expect_exit"]
        return Op(seconds, ok, ok, op["edges"] if ok else 0, "" if ok else f"exit {code}")

    def peak_rss_kb(self, op: dict | None) -> int:
        """Peak RSS of running `op` (None: nothing) once in a forked child of this process.

        The child starts from this process's memory after import, so the
        figure is that plus what the operation itself needs, whatever ran
        before it.  Used outside the timed passes.
        """
        pid = os.fork()
        if pid == 0:
            try:
                if op is not None:
                    self.run(op)
            finally:
                os._exit(0)
        _pid, _status, usage = os.wait4(pid, 0)
        return usage.ru_maxrss

    def traced_pass(self, ops: list[dict]) -> list[Op]:
        if self.workload == "cold-build":
            self.trace = True  # each worker traces itself and returns its spans
            try:
                return [self.run(op) for op in ops]
            finally:
                self.trace = False
        with tracing.Tracer() as tracer:
            batch = [self.run(op, tracer) for op in ops]
        self.spans.extend(tracer.spans)
        return batch

    def _check_build(self, op, code, data, seconds) -> Op:
        if code != 0:
            return Op(seconds, False, False, 0, f"exit {code}")
        digest = common.sha256(data)
        self.outputs[common.cell_id(op["cell"])] = digest
        if digest != op["expect_sha"] and digest not in self._checked:
            self._checked[digest] = common.reverify(data, op["cell"])
        ok = digest == op["expect_sha"] or self._checked[digest]
        return Op(seconds, ok, ok, op["edges"] if ok else 0, "" if ok else "output does not verify")

    def _cold(self, op: dict) -> Op:
        cache = common.fresh_dir(Path(self.plan["cold_root"]) / "cache")
        run = common.run_worker({"cell": op["cell"], "cache": str(cache), "trace": self.trace,
                                 "expect_sha": op["expect_sha"]}, self.deadline)
        done, result = run["done"], run["result"]
        if result and result["spans"]:
            base = len(self.spans)
            for s in result["spans"]:
                if s[tracing.PARENT] >= 0:
                    s[tracing.PARENT] += base
                self.spans.append(s)
        seconds = done["seconds"] if done else run["wall"]
        rss = run["maxrss_kb"]
        if result and result["cache_entries_before"]:
            return Op(seconds, False, False, 0, "cache entry present before a cold build", rss)
        # Only the did-not-finish part may fail and stay correct: that is the
        # known defect.  A census-built cell that fails is a wrong result.
        expected = op["part"] == "did_not_finish"
        if run["missed"] or not done or done["deadline"]:
            return Op(seconds, False, expected, 0, "deadline", rss)
        if done["exit"] != 0 or not result:
            return Op(seconds, False, expected, 0, f"exit {done['exit']}", rss)
        if result["sha256"]:
            self.outputs[common.cell_id(op["cell"])] = result["sha256"]
        ok = result["correct"]
        return Op(seconds, ok, ok, op["edges"] if ok else 0,
                  "" if ok else "output does not verify", rss)


def measure(runner: Runner, ops: list[dict], seconds: float, trace: bool):
    """Whole passes over `ops` until `seconds` have passed.

    Traced runs follow every untraced pass with a traced one, so the two
    lists hold the same work and their times give the tracing overhead.
    """
    plain, traced = [], []
    if runner.workload != "cold-build":
        runner.run(ops[0])  # untimed: first-call effects of this process
    started = time.perf_counter()
    while True:
        plain.append([runner.run(op) for op in ops])
        if trace:
            traced.append(runner.traced_pass(ops))
        if time.perf_counter() - started >= seconds:
            return plain, traced


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND samples above it, and its value."""
    ordered = sorted(values)
    i = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def end_to_end(passes: list[list[Op]], peaks_kb: list[int],
               setup_s: float) -> tuple[dict, dict]:
    """End-to-end metrics over whole passes.

    An operation's time is the median of its times over the passes, so the
    median and tail are taken over the drawn cells or files, each counted
    once, and repeats only steady each one's figure.
    """
    ops = [o for batch in passes for o in batch]
    busy = sum(o.seconds for o in ops)
    times = [statistics.median(o.seconds for o in same) * 1e3 for same in zip(*passes)]
    tail_ms, pct = tail(times)
    completed = sum(1 for o in ops if o.completed)
    metrics = {
        "edges_per_s": sum(o.edges for o in ops) / busy,
        "cell_p50_ms": statistics.median(times),
        "cell_tail_ms": tail_ms,
        "completed_ratio": completed / len(ops),
        "peak_rss_mb": statistics.median(peaks_kb) / 1024,
        "setup_s": setup_s,
    }
    info = {"cell_tail_ms": {"percentile": round(pct, 2), "samples": len(times),
                             "passes": len(passes)},
            "failed_ratio": (len(ops) - completed) / len(ops), "busy_s": busy,
            "peak_rss_mb_max": max(peaks_kb) / 1024}
    return metrics, info


def part_breakdown(ops: list[dict], passes: list[list[Op]], spans=None) -> dict:
    """cold-build's busy time per pass, and with spans its search self time per
    pass, for the built part and the did-not-finish part separately: the one
    did-not-finish cell runs to the deadline and so dominates both totals."""
    part_of = {common.cell_id(op["cell"]): op["part"] for op in ops}
    out: dict[str, dict] = {}
    for op, *runs in zip(ops, *passes):
        part = out.setdefault(op["part"], {"ops": 0, "busy_ms": 0.0})
        part["ops"] += 1
        part["busy_ms"] += sum(o.seconds for o in runs) * 1e3 / len(passes)
    if spans is not None:
        for part in out.values():
            part["search_self_ms"] = 0.0
        for t, s in zip(tracing.self_times(spans), spans):
            if s[tracing.LAYER] == "search":
                out[part_of[s[tracing.CELL]]]["search_self_ms"] += t * 1e3 / len(passes)
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    config = common.load_config()
    run_dir = common.fresh_dir(common.WORK / f"{workload}-{seed}")
    setup_runs = []
    for rep in range(config["setup_reps"]):
        target = common.fresh_dir(run_dir / f"setup-{rep}")
        started = time.perf_counter()
        subprocess.run([sys.executable, str(common.BENCH_DIR / "prepare.py"), workload,
                        str(seed), str(target)], check=True, cwd=common.ROOT)
        setup_runs.append(time.perf_counter() - started)
    plan = json.loads((target / "plan.json").read_text(encoding="utf-8"))
    common.env_cache(Path(plan["cache"]))
    cli = common.import_program()
    runner = Runner(workload, plan, config, cli)
    peaks_kb, no_op_kb = [], None
    if workload != "cold-build" and not trace:
        no_op_kb = runner.peak_rss_kb(None)  # what every child's peak starts from
        peaks_kb = [runner.peak_rss_kb(op) for op in plan["ops"]]
    plain, traced = measure(runner, plan["ops"], seconds, trace)
    flat = [o for batch in plain for o in batch]
    failures: dict[str, int] = {}
    for o in flat + [o for batch in traced for o in batch]:
        if not o.completed:
            failures[o.why] = failures.get(o.why, 0) + 1
    output_lines = "".join(f"{key} {value}\n" for key, value in sorted(runner.outputs.items()))
    info = {"workload": workload, "seed": seed, "passes": len(plain),
            "ops_per_pass": len(plan["ops"]), "setup_runs_s": setup_runs,
            "failures": failures, "output_sha256": common.sha256(output_lines.encode()),
            "outputs": runner.outputs}
    if workload == "verify-files":
        info["inputs_sha256"] = common.sha256("".join(
            f"{Path(op['path']).name} {common.sha256(Path(op['path']).read_bytes())}\n"
            for op in sorted(plan["ops"], key=lambda op: op["path"])).encode())
    if trace:
        plain_s = sum(o.seconds for batch in plain for o in batch)
        traced_s = sum(o.seconds for batch in traced for o in batch)
        metrics = tracing.layer_metrics(runner.spans, len(traced))
        busy_ms = traced_s * 1e3 / len(traced)
        metrics["trace.busy_ms"] = busy_ms
        metrics["verify.arcs_share"] = metrics["verify.arcs_ms"] / busy_ms
        metrics["trace.overhead_ratio"] = traced_s / plain_s - 1.0
        metrics["serialize.bytes_in"] = sum(op.get("bytes", 0) for op in plan["ops"])
        units = {m["name"]: m["unit"] for m in json.loads(
            (common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]}
        spans_path = common.WORK / f"spans-{workload}-{seed}.json"
        spans_path.write_text(json.dumps(runner.spans), encoding="utf-8")
        info["spans"] = str(spans_path.relative_to(common.ROOT))
        counted = [o for batch in traced for o in batch]
        if workload == "cold-build":
            info["parts"] = part_breakdown(plan["ops"], traced, runner.spans)
    else:
        if workload == "cold-build":
            peaks_kb = [o.rss_kb for o in plain[0]]
        metrics, extra = end_to_end(plain, peaks_kb, statistics.median(setup_runs))
        info.update(extra)
        if no_op_kb is not None:
            info["peak_rss_mb_no_op"] = no_op_kb / 1024
        if workload == "cold-build":
            info["parts"] = part_breakdown(plan["ops"], plain)
        units = UNITS
        counted = flat
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    correct = all(o.correct for o in flat) and all(o.correct for b in traced for o in b)
    shutil.rmtree(run_dir)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": len(counted),
        "failed": sum(1 for o in counted if not o.completed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, so no peak or cache carries over."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=common.ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"error: {workload} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            print(f"{workload:13s} {name:24s} {metric['value']:14.6g} {metric['unit']}")
            combined["metrics"][f"{workload}.{name}"] = metric
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="cycleframe benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (common.SRC / "cycleframe" / "__init__.py").is_file():
        print(f"error: no cycleframe package under {common.SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
