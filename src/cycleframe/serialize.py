"""Canonical JSON for decompositions.

Schema:
    {"params": {"lambda": L, "k": K, "u": U, "g": G},
     "factors": [{"hole": int|null, "cycles": [[[part, slot], ...], ...]}],
     "provenance": ["tag", ...]}

Vertices are 2-element arrays, cycles are stored in canonical rotation and
sorted within a factor, and the byte encoding is fixed (sorted keys, compact
separators) so identical decompositions serialize identically.
"""

from __future__ import annotations

import json
from typing import Any

from .graphs import Decomposition, PartialFactor


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


def factor_from_obj(obj: dict[str, Any], cycle_length: int) -> PartialFactor:
    cycles = [tuple(map(_vertex, cyc)) for cyc in obj["cycles"]]
    hole = obj["hole"]
    return PartialFactor.build(cycle_length, None if hole is None else _int(hole), cycles)


def decomposition_to_obj(dec: Decomposition, params) -> dict[str, Any]:
    return {
        "params": {"lambda": params.lam, "k": params.k, "u": params.u, "g": params.g},
        "factors": [factor_to_obj(f) for f in dec.factors],
        "provenance": list(dec.provenance),
    }


def decomposition_from_obj(obj: dict[str, Any]):
    """Returns (params dict, Decomposition) for an ARCS JSON document."""
    from .arcs import Params  # local import: serialize stays dependency-light

    raw = obj["params"]
    params = Params(_int(raw["lambda"]), _int(raw["k"]), _int(raw["u"]), _int(raw["g"]))
    factors = tuple(factor_from_obj(f, params.k) for f in obj["factors"])
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
    return "[[" + "],[".join([",".join(map(vertex, map(tuple, cyc))) for cyc in cycles]) + "]]"


def canonical_json_bytes(obj: Any) -> bytes:
    """The sorted-key, compact JSON bytes of `obj`, newline-terminated.

    The bytes are those of `json.dumps(obj, sort_keys=True, separators=(",",
    ":"))`.  In a document with a `factors` list (of objects), the cycles of
    each factor are joined from one string per distinct vertex, so their
    vertices must be integer pairs (tuples or lists): a vertex first seen
    with another coordinate type raises ValueError, and as the lookup is by
    value, a float equal to an integer already seen takes the integer's
    text.  Every other value goes through `json.dumps`.
    """
    if not isinstance(obj, dict) or not isinstance(obj.get("factors"), list):
        return (_dumps(obj) + "\n").encode("ascii")
    vertex = _VertexStrings().__getitem__
    factors = [_object({key: _cycles(val, vertex) if key == "cycles" else _dumps(val)
                        for key, val in f.items()}) for f in obj["factors"]]
    texts = {key: _dumps(val) for key, val in obj.items() if key != "factors"}
    texts["factors"] = "[" + ",".join(factors) + "]"
    return (_object(texts) + "\n").encode("ascii")

