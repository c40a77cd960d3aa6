"""`canonical_json_bytes` writes the bytes of a sorted-key, compact
`json.dumps` for every document the program writes or re-encodes."""

from __future__ import annotations

import json

import pytest

from cycleframe import blocks, serialize
from cycleframe.arcs import Params, build_arcs
from cycleframe.graphs import Decomposition, PartialFactor


def dumps_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()


def test_searched_block_payload_and_its_cache_entry(tmp_path, monkeypatch):
    monkeypatch.setenv("CYCLEFRAME_CACHE", str(tmp_path))
    res = blocks.near_cycle_factorization_doubled(4, 9)
    assert res.strategy == blocks.SEARCH
    factors = res.decomposition.factors
    obj = {"factors": [serialize.factor_to_obj(f) for f in factors]}
    assert serialize.canonical_json_bytes(obj) == dumps_bytes(obj)
    [entry] = tmp_path.glob("near_cycle_ku2-*.json")
    assert entry.read_bytes() == dumps_bytes(obj)


def test_json_loaded_document_with_an_edit():
    # list vertices, as perfbench re-encodes an edited file
    p = Params(2, 4, 5, 3)
    obj = json.loads(serialize.canonical_json_bytes(
        serialize.decomposition_to_obj(build_arcs(p), p)))
    cycle = obj["factors"][3]["cycles"][1]
    cycle[2] = [cycle[2][0], (cycle[2][1] + 1) % p.g]
    obj["factors"][0]["cycles"].append(list(cycle))
    assert serialize.canonical_json_bytes(obj) == dumps_bytes(obj)


@pytest.mark.parametrize("tup", [(4, 4, 5, 2), (4, 6, 3, 3)])
def test_document_whose_factors_share_objects(tup):
    # lambda stacking repeats the lambda = 2 factor objects, the zigzag
    # repeats each of its factors: one dict and one text per distinct object
    p = Params(*tup)
    dec = build_arcs(p)
    distinct = len({id(f) for f in dec.factors})
    assert distinct < len(dec.factors)
    obj = serialize.decomposition_to_obj(dec, p)
    assert len({id(f) for f in obj["factors"]}) == distinct
    assert serialize.canonical_json_bytes(obj) == dumps_bytes(obj)


def test_null_hole_and_escaped_provenance():
    full = PartialFactor.build(3, None, [((0, 0), (1, 0), (2, 0))])
    holed = PartialFactor.build(3, 3, [((2, 1), (1, 0), (0, 0))])
    dec = Decomposition((full, holed), ('case "quoted"', "back\\slash é"))
    obj = serialize.decomposition_to_obj(dec, Params(1, 4, 5, 3))
    data = serialize.canonical_json_bytes(obj)
    assert data == dumps_bytes(obj)
    assert b'"hole":null' in data and b"\\u00e9" in data


@pytest.mark.parametrize("vertex", [[0, "1"], [0, 1.5], (None, 0), [0, 1, 2]])
def test_vertex_that_is_not_an_integer_pair_is_refused(vertex):
    obj = {"factors": [{"hole": None, "cycles": [[vertex]]}]}
    with pytest.raises(ValueError):
        serialize.canonical_json_bytes(obj)
