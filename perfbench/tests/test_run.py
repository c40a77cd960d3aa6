"""Which failed operations still leave a benchmark run correct.

Run from the root of a checkout:  python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import common  # noqa: E402
import run  # noqa: E402

CELL = [2, 4, 25, 2]
DEADLINE = {"seconds": 20.0, "deadline": True, "exit": None}
GAVE_UP = {"seconds": 1.0, "deadline": False, "exit": 4}


def _cold_op(tmp_path, monkeypatch, part: str, done: dict) -> run.Op:
    result = {"spans": None, "cache_entries_before": [], "sha256": None, "correct": False}
    monkeypatch.setattr(common, "run_worker", lambda request, deadline: {
        "done": done, "result": result, "missed": done["deadline"], "wall": done["seconds"],
        "maxrss_kb": 1})
    runner = run.Runner("cold-build", {"cold_root": str(tmp_path / "cold")},
                        {"deadline_s": 20}, cli=None)
    return runner.run({"cell": CELL, "expect_sha": None, "edges": 1, "part": part})


@pytest.mark.parametrize("done", [DEADLINE, GAVE_UP], ids=["deadline", "exit"])
@pytest.mark.parametrize("part, correct", [("built", False), ("did_not_finish", True)])
def test_a_cold_failure_is_correct_only_in_the_did_not_finish_part(
        tmp_path, monkeypatch, done, part, correct):
    op = _cold_op(tmp_path, monkeypatch, part, done)
    assert not op.completed and op.edges == 0
    assert op.correct is correct


def test_an_exception_makes_a_warm_operation_incorrect():
    class Broken:
        @staticmethod
        def main(argv):
            raise RuntimeError("boom")

    runner = run.Runner("warm-sweep", {}, {"deadline_s": 20}, cli=Broken)
    op = runner.run({"cell": CELL, "expect_sha": "0" * 64, "edges": 1})
    assert not op.completed and not op.correct and op.why == "exception"
