"""Canonical JSON for decompositions.

Schema:
    {"params": {"lambda": L, "k": K, "u": U, "g": G},
     "factors": [{"hole": int|null, "cycles": [[[part, slot], ...], ...]}],
     "provenance": ["tag", ...]}

Vertices are 2-element arrays, the program writes cycles in canonical
rotation and sorted within a factor, and the byte encoding is fixed (sorted
keys, compact separators) so identical decompositions serialize identically.
A document is decoded as written, so its cycles may come in any rotation
and order; cache entries are canonicalised when read.
"""

from __future__ import annotations

import json
from typing import Any

from .graphs import Cycle, Decomposition, ParameterError, PartialFactor


def factor_to_obj(factor: PartialFactor) -> dict[str, Any]:
    # json.dumps writes the tuples of a cycle as arrays: no copy is needed
    return {"hole": factor.hole, "cycles": factor.cycles}


def _int(value) -> int:
    if type(value) is not int:  # a JSON float, boolean or string is refused
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _vertex(pair) -> tuple[int, int]:
    p, s = pair
    if type(p) is not int or type(s) is not int:
        raise ValueError(f"expected a vertex of two integers, got {pair!r}")
    return (p, s)


def _decode_cycles(raw) -> tuple[Cycle, ...]:
    """One factor's cycles as tuples of integer pairs, as written.

    A pair that is not two integers goes through `_vertex`, which refuses it.
    """
    return tuple([tuple([(p, s) if type(p) is int and type(s) is int else _vertex([p, s])
                         for p, s in cyc]) for cyc in raw])


def _decode_factor(obj: dict[str, Any]) -> tuple[int | None, tuple[Cycle, ...]]:
    """(hole, cycles) of one factor object, every cycle non-empty."""
    cycles = _decode_cycles(obj["cycles"])
    hole = obj["hole"]
    hole = None if hole is None else _int(hole)
    if not all(cycles):
        raise ParameterError("empty cycle")
    return hole, cycles


def factor_from_obj(obj: dict[str, Any], cycle_length: int) -> PartialFactor:
    """A cached factor, canonicalised: blocks are threaded by cycle position."""
    return PartialFactor.build(cycle_length, *_decode_factor(obj))


def decomposition_to_obj(dec: Decomposition, params) -> dict[str, Any]:
    """The document of `dec`: a factor object that occurs more than once (a
    stacked copy) maps to one dict, which `canonical_json_bytes` encodes once."""
    objs = {id(f): factor_to_obj(f) for f in dec.factors}
    return {
        "params": {"lambda": params.lam, "k": params.k, "u": params.u, "g": params.g},
        "factors": [objs[id(f)] for f in dec.factors],
        "provenance": list(dec.provenance),
    }


def decomposition_from_obj(obj: dict[str, Any]):
    """Returns (params dict, Decomposition) for an ARCS JSON document."""
    from .arcs import Params  # local import: serialize stays dependency-light

    raw = obj["params"]
    params = Params(_int(raw["lambda"]), _int(raw["k"]), _int(raw["u"]), _int(raw["g"]))
    # cycles keep the rotation and order written: verify_arcs depends on neither
    factors = tuple(PartialFactor(params.k, *_decode_factor(f)) for f in obj["factors"])
    provenance = tuple(str(t) for t in obj.get("provenance", ()))
    return params, Decomposition(factors, provenance)


_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class _VertexStrings(dict):
    """Vertex (as a tuple) -> its JSON text, encoded on first use."""

    def __missing__(self, key):
        p, s = _vertex(key)
        text = self[key] = f"[{p},{s}]"
        return text


def _object(texts: dict[str, str]) -> str:
    """A JSON object from its already encoded values, keys sorted."""
    return "{" + ",".join([_dumps(key) + ":" + texts[key] for key in sorted(texts)]) + "}"


def _cycles(cycles, vertex) -> str:
    if not cycles:
        return "[]"
    try:
        rows = [",".join(map(vertex, cyc)) for cyc in cycles]
    except TypeError:  # list vertices, as json.loads gives them, are unhashable
        rows = [",".join(map(vertex, map(tuple, cyc))) for cyc in cycles]
    return "[[" + "],[".join(rows) + "]]"


def canonical_json_bytes(obj: Any) -> bytes:
    """The sorted-key, compact JSON bytes of `obj`, newline-terminated.

    The bytes are those of `json.dumps(obj, sort_keys=True, separators=(",",
    ":"))`.  In a document with a `factors` list (of objects), the cycles of
    each factor are joined from one string per distinct vertex, so their
    vertices must be integer pairs (tuples or lists): a vertex first seen
    with another coordinate type raises ValueError, and as the lookup is by
    value, a float equal to an integer already seen takes the integer's
    text.  A factor object listed more than once is encoded once.  Every
    other value goes through `json.dumps`.
    """
    if not isinstance(obj, dict) or not isinstance(obj.get("factors"), list):
        return (_dumps(obj) + "\n").encode("ascii")
    vertex = _VertexStrings().__getitem__
    distinct = {id(f): f for f in obj["factors"]}
    encoded = {key: _object({name: _cycles(val, vertex) if name == "cycles" else _dumps(val)
                             for name, val in f.items()}) for key, f in distinct.items()}
    texts = {key: _dumps(val) for key, val in obj.items() if key != "factors"}
    texts["factors"] = "[" + ",".join([encoded[id(f)] for f in obj["factors"]]) + "]"
    return (_object(texts) + "\n").encode("ascii")

