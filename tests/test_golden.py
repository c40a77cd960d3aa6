"""Byte-identity of built decompositions.

Each digest is the SHA-256 of the canonical JSON of one cell, recorded from
a cold-cache build.  The cells cover every case route, the x > 2 hub-and-
groups assembly of cases a and b, the searched partial 1-factorization,
lambda stacking, every call site of `graphs.blow_up` (case e with x > 2,
odd y of K_3 x K_ky, both branches of `cycle_times_blocked`) and every walk
threaded by `graphs.assemble_from_distances` (the K_2 twist of cases d, e
and the remark, the bipartite distance pairs, the Hamilton halves and the
tripartite doubling of (2, 8, 4, 24)); a refactor that changes any output
byte fails here.
"""

from __future__ import annotations

import hashlib

import pytest

from cycleframe.arcs import Params, build_arcs
from cycleframe.serialize import canonical_json_bytes, decomposition_to_obj

GOLDEN = {
    (1, 4, 5, 5): "8e54184ee5a786c370021229e057e916c7b3eb1c613fbf1ad2590e6949d527ec",
    (1, 4, 13, 3): "62b4a8ebe42b60e186a0016709b915ae25e819373a170b59377d0fd386593b46",
    (1, 4, 17, 3): "5dbae5db287df6cfc9717b8496f6ad48f7b71f5eac645e89cf057087635edf9d",
    (1, 12, 5, 9): "8795394748e18ac563ea6a0442ac40482168e55db098b78a8ddea330323e6991",
    (1, 12, 17, 9): "54044a8c5dee48758b5bf2d2210348813f0ebcb8d1ef4874d96cf37d1d11cdee",
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
    (2, 6, 4, 18): "370b8150a4d62ac080062c72c1b1d3084e38a5266f680b95f962a71fa831d586",
    (2, 6, 4, 8): "0c303c3d0c7098264cb464ad76eac614a9f4bcd6d50bd278f85f19ddf1dbb67e",
    (2, 6, 4, 4): "c5530895a64ed4796e1873841a1286a87f4ade383766fd67921e550d2baa46d2",
    (2, 8, 4, 24): "dee89c87cb185f30ee214d1580794bfaa0ac2fd86aa9a39d62ff2766dcf2fec8",
}


@pytest.mark.parametrize("cell", sorted(GOLDEN))
def test_output_bytes_match_recorded_digest(cell):
    p = Params(*cell)
    data = canonical_json_bytes(decomposition_to_obj(build_arcs(p), p))
    assert hashlib.sha256(data).hexdigest() == GOLDEN[cell]
