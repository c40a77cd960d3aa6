"""The outside-in tracer wraps the program's functions and puts them back.

Run from the root of a checkout:  python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import common  # noqa: E402
import tracer  # noqa: E402


def test_tracer_restores_every_name():
    common.import_program()
    from cycleframe import arcs, blocks, cli, compose, graphs, verify
    before = (verify.verify_arcs, blocks.check_partition, compose.check_partition,
              cli.build_arcs, graphs.PartialFactor.build, arcs._BUILDERS_L2["g"])
    with tracer.Tracer() as t:
        assert blocks.check_partition is not before[1]
        assert cli.build_arcs is not before[3]
        assert arcs._BUILDERS_L2["g"] is not before[5]
        t.cell = "probe"
        verify.check_partition(graphs.complete_graph(3), [])
    assert (verify.verify_arcs, blocks.check_partition, compose.check_partition,
            cli.build_arcs, graphs.PartialFactor.build, arcs._BUILDERS_L2["g"]) == before
    assert [s[:2] for s in t.spans] == [["graphs", "complete_graph"],
                                        ["verify", "check_partition"]]
    assert {s[tracer.CELL] for s in t.spans} == {"probe"}


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["cli", "main", 0.0, 10.0, -1, "c", None],
        ["arcs", "build_arcs", 1.0, 9.0, 0, "c", None],
        ["verify", "verify_arcs", 2.0, 8.0, 1, "c", "ok"],
        ["graphs", "tensor_complete", 3.0, 4.0, 2, "c", 12],
        ["search", "distance_array", 8.5, 8.75, 1, "c", "raised"],
    ]
    assert tracer.self_times(spans) == [2.0, 1.75, 5.0, 1.0, 0.25]
    m = tracer.layer_metrics(spans, passes=2)
    assert m["verify.arcs_ms"] == 3000.0  # 6 s over two passes
    assert m["verify.self_ms"] == 2500.0
    assert m["graphs.host_ms"] == 500.0 and m["graphs.host_edges"] == 6
    assert m["search.calls"] == 0.5 and m["search.failed"] == 0.5
    assert m["search.success_ratio"] == 0.0
