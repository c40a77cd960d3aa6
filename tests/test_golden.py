"""Byte-identity of built decompositions.

Each digest is the SHA-256 of the canonical JSON of one cell, recorded from
a cold-cache build.  The cells cover every case route; every user of the
group spread `blocks.hub_and_groups`: cases a and b (1, 4, 17, 3) and
(1, 12, 17, 9) (case b's Hamilton layer from the ring rows of C_4 x K_3),
the near blocks with odd x (2, 6, 19, 2) and even x (2, 4, 17, 2), case e
(2, 6, 12, 6) and case f (2, 8, 12, 16); the closed-form partial
1-factorization for even x (the frame of (1, 4, 17, 3) and (1, 12, 17, 9)),
lambda stacking, every site of the slot inflation `graphs.inflate_slots`
(case b with q = 3 (1, 12, 5, 9), K_3 x K_ky with odd y (2, 6, 4, 18) and
even y (2, 8, 4, 16), and `cycle_times_blocked` through the plain C_k
layer (2, 6, 4, 8), its Hamilton fallback (2, 6, 4, 4) for the request
(3, 2, 2), and a single slot block (2, 12, 4, 4)), the other call sites of
`graphs.blow_up` and every walk threaded by
`graphs.assemble_from_distances` (the K_2 twist of cases d, e and the
remark, the bipartite distance pairs, the Hamilton halves and the
tripartite doubling of (2, 8, 4, 24)), and the closed-form doubled complete
blocks: the Walecki groups with y = 2 (2, 6, 3, 12) and the mirrored x = 2
near blocks (2, 6, 13, 2), (2, 8, 17, 2) and (2, 10, 21, 2), with
(4, 4, 9, 2) for L = 4, whose mirrored base is the one the search found,
and the fall back of `_abstract_cycle_route` from the blocked splitting to
direct distance rows (2, 10, 16, 12), through the backtracked array
(5, 12, 6), the closed-form odd ring rows of the (3, 5, 5) request of case
h (2, 12, 4, 20), and the remark route through the split (6, 3)
(2, 18, 7, 3); a refactor that changes any output byte fails here.  The bytes
must also be those of a plain sorted-key `json.dumps`, which the encoder
only speeds up.  A block cache entry that an older version wrote may not
change them either.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from cycleframe import blocks
from cycleframe.arcs import Params, build_arcs
from cycleframe.graphs import PartialFactor, complete_graph
from cycleframe.serialize import canonical_json_bytes, decomposition_to_obj, factor_to_obj
from cycleframe.verify import check_partition

GOLDEN = {
    (1, 4, 5, 5): "8e54184ee5a786c370021229e057e916c7b3eb1c613fbf1ad2590e6949d527ec",
    (1, 4, 13, 3): "62b4a8ebe42b60e186a0016709b915ae25e819373a170b59377d0fd386593b46",
    (1, 4, 17, 3): "05ea5087d1402f6bf61829124e6ad197fbae9035b6a227f446437b51a476ae02",
    (1, 12, 5, 9): "8795394748e18ac563ea6a0442ac40482168e55db098b78a8ddea330323e6991",
    (1, 12, 17, 9): "a780c6ed10870d60709582db6a484415d17fa08090a6d3ef68f09178f4a37186",
    (2, 4, 5, 3): "16f54810249d198145803473d9d4c4526c319bc1321cc07dd1af46d8dd7294ce",
    (2, 6, 3, 6): "34a478602347ae2774a67dca0dc6e2bd0d013290b6b2d8616c8f7829f2379867",
    (2, 8, 4, 8): "11b65d666f5a7024fbf1d8ac8815e4a93c63b50ba0b6072e6f4f7987d2945438",
    (2, 8, 4, 16): "763912cb93c9ea95d34cec82fafe18de819cde4fadab468be371a2b7a5093b39",
    (2, 12, 5, 6): "88491961d1d9bc2c3870a93da5dd3598cc691726ac431f599f4ffe3f02a73351",
    (2, 12, 4, 4): "3588405f4a5298428d5814773ad419a1e5941f32c8b74aec954fc0880ea6c0c3",
    (2, 16, 5, 4): "b02f9be228942a5571d8870f00aadd391e850e2e05db6f43fb62dd7f662b8971",
    (2, 6, 3, 3): "debd1c8f57e447ea1278f20f2023bdf0eee52c7c54ae0381e5440d6724826ffa",
    (3, 4, 5, 3): "87e0cd9253656fc6c819c046116790cdcf85c662a94e4574d25850ca865b7969",
    (4, 4, 5, 2): "7efa22f7257b77f86e14e8531ee7b58175695e06de04b61cfb92ab2c5382f8d4",
    (2, 6, 12, 6): "ec3c86385923c523bf4e479ab9db1e5c9d9d8737713e53e920d38eadff4f2607",
    (2, 8, 12, 16): "ce4ee9aa76f6427ab02ec2a5782e5ed7e8c66097a7aab51a511e2db0da975645",
    (2, 6, 4, 18): "370b8150a4d62ac080062c72c1b1d3084e38a5266f680b95f962a71fa831d586",
    (2, 6, 4, 8): "0c303c3d0c7098264cb464ad76eac614a9f4bcd6d50bd278f85f19ddf1dbb67e",
    (2, 6, 4, 4): "c5530895a64ed4796e1873841a1286a87f4ade383766fd67921e550d2baa46d2",
    (2, 8, 4, 24): "dee89c87cb185f30ee214d1580794bfaa0ac2fd86aa9a39d62ff2766dcf2fec8",
    (2, 6, 19, 2): "e355b5523ee1e3ae5b01cf6763a2562a64cbc43372e28f2455a8c3e9d47fd6c4",
    (2, 4, 17, 2): "352ea0e6b519ea893382edbcd991dd6be0e37ee2abffa76858f32a1aa5f26088",
    (2, 6, 3, 12): "3018ac7b28cf5bbc075ce6416ec4d8b3ab80f22c0a37cdc3c65f9ca426294925",
    (2, 6, 13, 2): "9c243120d1ba6bd29d036159f56062a8fb43f8edf38b11372d2a31bb2fefab72",
    (2, 8, 17, 2): "72d9e82a7317edaff765a470b264ea08123def0e4b3aa5021260474cb5d518ff",
    (2, 10, 21, 2): "d1dd40699792ba02319498733a7fde05400e92091fa23ef9e697616aea0b9ef4",
    (4, 4, 9, 2): "6cea0098bd54b75916325aabc149dccac03173f1fefdc7db789cb3f1cdaad753",
    (2, 10, 16, 12): "4e0728cb8d6b50fc11ef06c36a1b36c13ad215e0b998ea56c360377ebce0ea0a",
    (2, 12, 4, 20): "fee08d9a54b3bc006b16c84d664788877e20f0ebf10bce81cb0d3e5f7060b91d",
    (2, 18, 7, 3): "33198c4ef40e44d805136b7bbda995d65314e2e8addb869d46815913edfda39e",
}


@pytest.mark.parametrize("cell", sorted(GOLDEN))
def test_output_bytes_match_recorded_digest(cell):
    p = Params(*cell)
    obj = decomposition_to_obj(build_arcs(p), p)
    data = canonical_json_bytes(obj)
    assert data == (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()
    assert hashlib.sha256(data).hexdigest() == GOLDEN[cell]


def test_an_entry_left_by_an_older_version_is_not_served(tmp_path, monkeypatch):
    # older versions keyed an entry by family and params alone, so this path
    # held whichever (6, 13) near block was built first: here a valid one
    # that is not the mirrored base, the translates of twice that base
    monkeypatch.setenv("CYCLEFRAME_CACHE", str(tmp_path))
    key = json.dumps({"family": "near_cycle_ku2", "params": [6, 13]}, sort_keys=True)
    path = tmp_path / f"near_cycle_ku2-{hashlib.sha256(key.encode()).hexdigest()[:16]}.json"
    doubled = [tuple(2 * v % 13 for v in cyc) for cyc in blocks._mirrored_base(6)]
    other = [PartialFactor.build(6, j, cycles)
             for j, cycles in enumerate(blocks._translates(doubled, 13))]
    assert check_partition(complete_graph(13, 2), other)
    path.write_bytes(canonical_json_bytes({"factors": [factor_to_obj(f) for f in other]}))
    p = Params(2, 6, 13, 2)
    data = canonical_json_bytes(decomposition_to_obj(build_arcs(p), p))
    assert hashlib.sha256(data).hexdigest() == GOLDEN[(2, 6, 13, 2)]
    assert blocks.near_cycle_factorization_doubled(6, 13).decomposition.factors[0] != other[0]
