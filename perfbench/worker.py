"""Build one cell from a cold cache in a fresh process.

Usage: python3 perfbench/worker.py '<request json>'

The request names the cell, an empty cache directory this process may use,
whether to trace, and the recorded SHA-256 of the cell's output (or null).
The worker prints one `DONE {...}` line as soon as the build returns, so the
caller can hold it to a deadline, then one `RESULT {...}` line after the
untimed correctness check.  SIGTERM stops the build: the worker then reports
the interrupted build (and its spans) as `DONE {"deadline": true}`.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402


class Deadline(BaseException):
    """Raised inside the build when the caller's deadline passes."""


def _on_term(signum, frame):
    raise Deadline()


def _emit(tag: str, obj: dict) -> None:
    sys.stdout.write(f"{tag} {json.dumps(obj)}\n")
    sys.stdout.flush()


def main(request: dict) -> int:
    cell = tuple(request["cell"])
    cache = Path(request["cache"])
    common.env_cache(cache)
    cli = common.import_program()
    tracer = None
    if request.get("trace"):
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.cell = common.cell_id(cell)
        tracer.install()
    entries_before = sorted(os.listdir(cache))
    signal.signal(signal.SIGTERM, _on_term)
    deadline = False
    code, data = None, b""
    started = time.perf_counter()
    try:
        code, data, _err = common.run_cli(cli, common.build_argv(cell))
        seconds = time.perf_counter() - started
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
    except Deadline:
        seconds = time.perf_counter() - started
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        deadline = True
    if tracer is not None:
        tracer.uninstall()
    _emit("DONE", {"seconds": seconds, "deadline": deadline, "exit": code})
    digest = common.sha256(data) if data else None
    matches = digest is not None and digest == request.get("expect_sha")
    correct = code == 0 and not deadline and (
        matches or common.reverify(data, cell))
    _emit("RESULT", {
        "exit": code,
        "sha256": digest,
        "bytes": len(data),
        "digest_matches": matches,
        "correct": correct,
        "cache_entries_before": entries_before,
        "cache_entries_after": sorted(os.listdir(cache)) if cache.is_dir() else [],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans if tracer is not None else None,
    })
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main(json.loads(sys.argv[1])))
    except common.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)
