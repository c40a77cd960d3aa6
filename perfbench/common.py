"""Pieces shared by the benchmark harness, the cold-cell worker and the census.

The program under test is imported from the checkout's `src/` directory; the
benchmark never installs it.  Every operation goes through the `cycleframe`
command line entry point in-process, so the bytes a user would get are the
bytes the benchmark checks.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import selectors
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
CONFIG_PATH = BENCH_DIR / "workloads.json"
CENSUS_PATH = BENCH_DIR / "census.json"
# A worker whose deadline passed gets GRACE_S to report its interrupted build;
# one that finished its build gets AFTER_S for the untimed correctness check.
GRACE_S = 10.0
AFTER_S = 170.0


class ProgramMissing(RuntimeError):
    """The checkout holds no `src/cycleframe` package to benchmark."""


def import_program():
    """Import the package from the checkout, never from site-packages."""
    if not (SRC / "cycleframe" / "__init__.py").is_file():
        raise ProgramMissing(f"no cycleframe package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cycleframe
    if Path(cycleframe.__file__).resolve().parent != (SRC / "cycleframe").resolve():
        raise ProgramMissing(f"cycleframe was imported from {cycleframe.__file__}")
    from cycleframe import cli
    return cli


def load_config() -> dict:
    return json.loads(CONFIG_PATH.read_text(encoding="utf-8"))


def load_census() -> list[dict]:
    return json.loads(CENSUS_PATH.read_text(encoding="utf-8"))["cells"]


def host_edges(cell) -> int:
    """Edges of (K_u x K_g)(lambda), counted with multiplicity."""
    lam, _k, u, g = cell
    return lam * u * (u - 1) * g * (g - 1) // 2


def cell_id(cell) -> str:
    return "({},{},{},{})".format(*cell)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fresh_dir(path: Path) -> Path:
    """An empty directory at `path`, removing whatever was there."""
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


class _Sink(io.TextIOBase):
    """Stands in for stdout/stderr: keeps text and the binary `buffer`."""

    def __init__(self):
        super().__init__()
        self.buffer = io.BytesIO()
        self.text = io.StringIO()

    def write(self, s: str) -> int:
        return self.text.write(s)


def run_cli(cli, argv: list[str]) -> tuple[int, bytes, str]:
    """Run `cycleframe <argv>` in-process; return (exit code, stdout bytes, stderr)."""
    out, err = _Sink(), _Sink()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.buffer.getvalue(), err.text.getvalue()


def build_argv(cell) -> list[str]:
    lam, k, u, g = cell
    return ["build", "--lambda", str(lam), "--k", str(k), "--u", str(u), "--g", str(g),
            "-o", "-"]


def reverify(data: bytes, cell) -> bool:
    """Parse emitted bytes and check them with the program's own verifier."""
    from cycleframe import serialize
    from cycleframe.verify import verify_arcs
    try:
        params, dec = serialize.decomposition_from_obj(json.loads(data))
    except (ValueError, KeyError, TypeError):
        return False
    if (params.lam, params.k, params.u, params.g) != tuple(cell):
        return False
    return bool(verify_arcs(dec, params))


def env_cache(path: Path) -> None:
    """Point the program's block cache at a directory the benchmark owns."""
    os.environ["CYCLEFRAME_CACHE"] = str(path)


def run_worker(request: dict, deadline: float) -> dict:
    """Run worker.py on one request, holding its build to `deadline` seconds.

    Returns the worker's DONE and RESULT records (either may be missing when
    the worker had to be killed), the peak RSS of the worker and whether the
    deadline was missed.  The worker is always reaped before returning.
    """
    WORK.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(request)]
    with open(WORK / "worker-stderr.log", "wb") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, cwd=ROOT)
    started = time.perf_counter()
    records: dict[str, dict] = {}
    buf = b""
    missed = False
    stage_end = started + deadline
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    try:
        while "RESULT" not in records:
            left = stage_end - time.perf_counter()
            if left <= 0 or not sel.select(timeout=left):
                if "DONE" not in records and not missed:
                    missed = True  # stop the build, let the worker report it
                    proc.send_signal(signal.SIGTERM)
                    stage_end = time.perf_counter() + GRACE_S
                    continue
                proc.kill()
                break
            chunk = os.read(proc.stdout.fileno(), 1 << 20)
            if not chunk:
                break
            buf += chunk
            while b"\n" in buf:
                line, buf = buf.split(b"\n", 1)
                tag, _, body = line.decode().partition(" ")
                if tag in ("DONE", "RESULT"):
                    records[tag] = json.loads(body)
                    if tag == "DONE" and not missed:
                        stage_end = time.perf_counter() + AFTER_S
    finally:
        sel.close()
        if "RESULT" not in records:
            proc.kill()  # harmless if it already exited: it is not reaped yet
        _pid, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = status
        proc.stdout.close()
    return {"done": records.get("DONE"), "result": records.get("RESULT"),
            "missed": missed, "wall": time.perf_counter() - started,
            "maxrss_kb": usage.ru_maxrss}
