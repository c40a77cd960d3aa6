"""The benchmark never lets a build see a block cache it did not create.

Run from the root of a checkout:  python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import common  # noqa: E402
import run  # noqa: E402


def _search_backed_cell():
    """The smallest census cell whose cold build writes a cache entry."""
    built = [r for r in common.load_census()
             if r["outcome"] == "built" and r["cache_entries"] and r["seconds"] < 2]
    return min(built, key=lambda r: (r["seconds"], r["cell"]))


def _runner(tmp_path, monkeypatch):
    monkeypatch.setattr(common, "WORK", tmp_path / "work")
    plan = {"cold_root": str(tmp_path / "cold"), "ops": []}
    return run.Runner("cold-build", plan, {"deadline_s": 60}, cli=None)


def test_cold_cells_each_start_from_an_empty_cache(tmp_path, monkeypatch):
    rec = _search_backed_cell()
    op = {"cell": rec["cell"], "expect_sha": rec["sha256"], "edges": rec["host_edges"],
          "part": "built"}
    runner = _runner(tmp_path, monkeypatch)
    seen = []
    real = common.run_worker

    def spy(request, deadline):
        out = real(request, deadline)
        seen.append(out["result"])
        return out

    monkeypatch.setattr(common, "run_worker", spy)
    first, second = runner.run(op), runner.run(op)
    assert first.completed and first.correct, first.why
    assert second.completed and second.correct, second.why
    assert [r["cache_entries_before"] for r in seen] == [[], []]
    # the first build did write the entry the second one must not see
    assert all(r["cache_entries_after"] for r in seen)
    assert all(r["digest_matches"] for r in seen)


def test_a_cold_cell_that_finds_an_entry_fails(tmp_path, monkeypatch):
    rec = _search_backed_cell()
    op = {"cell": rec["cell"], "expect_sha": rec["sha256"], "edges": rec["host_edges"],
          "part": "built"}
    runner = _runner(tmp_path, monkeypatch)
    assert runner.run(op).completed
    # a set-up that forgot to empty the cache would hand the next cell a warm one
    monkeypatch.setattr(common, "fresh_dir", lambda path: path)
    stale = runner.run(op)
    assert not stale.completed and not stale.correct
    assert stale.why == "cache entry present before a cold build"


def test_workloads_ignore_the_callers_cache(tmp_path, monkeypatch):
    poisoned = tmp_path / "callers-cache"
    poisoned.mkdir()
    rec = _search_backed_cell()
    monkeypatch.setenv("CYCLEFRAME_CACHE", str(poisoned))
    cache = common.fresh_dir(tmp_path / "own")
    out = common.run_worker({"cell": rec["cell"], "cache": str(cache), "trace": False,
                             "expect_sha": rec["sha256"]}, 60)
    assert out["result"]["correct"]
    assert os.listdir(poisoned) == []
    assert out["result"]["cache_entries_after"]


def test_warm_sweep_set_up_writes_only_its_private_cache(tmp_path, monkeypatch):
    import prepare
    repo_cache = common.ROOT / ".cycleframe-cache"
    before = sorted(os.listdir(repo_cache)) if repo_cache.is_dir() else None
    monkeypatch.setenv("CYCLEFRAME_CACHE", str(tmp_path / "callers-cache"))
    config = common.load_config()
    config["workloads"]["warm-sweep"]["cells"] = 4
    monkeypatch.setattr(common, "load_config", lambda: config)
    plan = prepare.prepare("warm-sweep", 7, tmp_path / "setup")
    assert Path(plan["cache"]) == tmp_path / "setup" / "cache"
    assert not (tmp_path / "callers-cache").exists()
    after = sorted(os.listdir(repo_cache)) if repo_cache.is_dir() else None
    assert after == before
    assert json.loads((tmp_path / "setup" / "plan.json").read_text())["ops"]

