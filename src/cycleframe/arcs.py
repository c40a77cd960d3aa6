"""Feasibility, case dispatch and the top-level builders.

The dispatcher classifies (lambda, k, u, g) into: infeasible (a counting
necessity fails), open exception (a family the theory leaves unresolved),
a feasible case with a named construction route, or unsupported (satisfies
the necessities but matches no implemented route).  Feasible cases build a
decomposition which is re-verified before being returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import blocks, compose
from .graphs import (ConstructionBugError, Decomposition, ParameterError, PartialFactor,
                     UnsupportedBlockError, assemble_from_distances, blow_up, inflate_slots)
from .verify import verify_arcs

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
OPEN_EXCEPTION = "open_exception"
UNSUPPORTED = "unsupported"


@dataclass(frozen=True)
class Params:
    lam: int
    k: int
    u: int
    g: int

    def __post_init__(self):
        if self.lam < 1:
            raise ParameterError(f"lambda must be >= 1, got {self.lam}")
        if self.k < 4 or self.k % 2 != 0:
            raise ParameterError(f"cycle length must be even >= 4, got {self.k}")
        if self.u < 1 or self.g < 1:
            raise ParameterError(f"u and g must be positive, got ({self.u}, {self.g})")


@dataclass(frozen=True)
class PrimeSplit:
    """k = r*s: a proper split (r, s >= 2), or (k, 1) for case c's
    blow-up through C_k x K_g."""

    r: int
    s: int


@dataclass(frozen=True)
class Feasibility:
    """The verdict and, when feasible, the matched routes: `case` and
    `split` are the route named in `detail`, which builds the single copies
    unless lambda is even with a doubled route; `doubled` is the lambda = 2
    match of the doubled copies (None for lambda = 1 or when there is none)."""

    verdict: str
    detail: str = ""
    case: str | None = None
    split: PrimeSplit | None = None
    doubled: tuple[str, PrimeSplit | None] | None = None

    def __bool__(self) -> bool:
        return self.verdict == FEASIBLE


class ArcsUnavailable(RuntimeError):
    """Raised by build_arcs when the verdict is not feasible."""

    def __init__(self, feasibility: Feasibility):
        super().__init__(f"{feasibility.verdict}: {feasibility.detail}")
        self.feasibility = feasibility


def _factorize(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _omega(n: int) -> int:
    return len(_factorize(n))


def _splits(k: int) -> list[PrimeSplit]:
    """Proper splits k = r*s (r, s >= 2), ordered by ascending r; divisors
    are only tried up to sqrt(k), so this takes O(sqrt(k)) steps."""
    small = [r for r in range(2, math.isqrt(k) + 1) if k % r == 0]
    large = [k // r for r in reversed(small) if r * r != k]
    return [PrimeSplit(r, k // r) for r in small + large]


def expected_counts(p: Params) -> tuple[int, int, int]:
    """(total factors, factors per hole, edges per factor)."""
    return (p.lam * p.u * (p.g - 1) // 2,
            p.lam * (p.g - 1) // 2,
            p.g * (p.u - 1))


# ---------------------------------------------------------------------------
# Feasibility


def _even_lambda_exception(k: int, u: int, g: int) -> str | None:
    if k % 4 == 0:
        if u == 8:
            return "(2s,4t,8)"
        if k == 4 and u % 4 == 0:
            return "(2s,4,4x)"
        if u % 4 == 2:
            return "(2s,4t,4x+2)"
    else:
        if u == 8:
            return "(8,4s+2)"
        if u % 4 == 2:
            return "(4t+2,4s+2)"
        if k == 6 and u % 4 == 0 and g % 6 == 0 and (g // 6) % 2 == 0:
            return "(4t,6y,6)"
    return None


def _odd_lambda_exception(k: int, u: int, g: int) -> str | None:
    if k % 4 != 0:
        return None
    if u == 2 * k + 1:
        return "(2x+1,4t,8t+1,y)"
    for sp in _splits(k):
        r, s = sp.r, sp.s
        if r % 2 == 0 and s >= 3 and s % 2 == 1 and u == 2 * r + 1 and g % s == 0:
            return "(2x+1,rs,2r+1,sy)"
    return None


def _match_lambda1(k: int, u: int, g: int) -> tuple[str, PrimeSplit | None] | None:
    if g % 2 == 0:
        return None
    if k % 4 == 0 and u % k == 1 and u > k and g >= 3 and (u - 1) // k != 2:
        return ("a", None)
    for sp in _splits(k):
        r, s = sp.r, sp.s
        if (r % 4 == 0 and s >= 3 and s % 2 == 1 and u % r == 1 and u > r
                and (u - 1) // r != 2 and g % (2 * s) == s):
            return ("b", sp)
    return None


def _match_lambda2(k: int, u: int, g: int) -> tuple[str, PrimeSplit | None] | None:
    if u % k == 1 and u > k:
        return ("c", None)
    if u % 2 == 1 and g % k == 0:
        return ("d", None)
    if u % 4 == 0 and g % k == 0 and u // 4 != 2:
        y = g // k
        if y % 2 == 1 and k >= 6:
            return ("e", None)
        if y % 2 == 0 and y >= 2 and k > 6:
            return ("f", None)
    splits = _splits(k)
    for sp in splits:
        r, s = sp.r, sp.s
        if (r % 2 == 0 and s >= 3 and s % 2 == 1
                and u % r == 1 and u > r and g % (2 * s) == 0):
            return ("g", sp)
    for sp in splits:
        r, s = sp.r, sp.s
        if (r % 2 == 1 and r >= 3 and s % 2 == 0 and u % r == 1 and u > r
                and g % s == 0 and g % 4 != 2):
            return ("h", sp)
    for sp in splits:
        r, s = sp.r, sp.s
        if (r % 2 == 0 and s % 2 == 0 and u % r == 1 and u > r and g % s == 0
                and _omega(r) >= 2 and _omega(s) >= 2):
            return ("i", sp)
    if k % 4 == 2:
        for sp in splits:
            r, s = sp.r, sp.s
            if (r % 2 == 0 and s >= 3 and s % 2 == 1 and u % r == 1 and u > r
                    and g % (2 * s) == s):
                return ("remark", sp)
    return None


def check_feasibility(p: Params) -> Feasibility:
    """Necessity first, then exception families, then route matching."""
    lam, k, u, g = p.lam, p.k, p.u, p.g
    if u < 3:
        return Feasibility(INFEASIBLE, "u >= 3 is required")
    if g < 2:
        return Feasibility(INFEASIBLE, "g >= 2 is required")
    if (lam * (g - 1)) % 2 != 0:
        return Feasibility(INFEASIBLE, "lambda*(g-1) must be even")
    if (g * (u - 1)) % k != 0:
        return Feasibility(INFEASIBLE, f"g*(u-1) must be divisible by k={k}")
    family = (_odd_lambda_exception if lam % 2 else _even_lambda_exception)(k, u, g)
    if family:
        return Feasibility(OPEN_EXCEPTION, family)
    # lambda = a*1 + b*2: an odd lambda needs a single copy, an even one
    # prefers doubled copies and falls back to single ones
    doubled = _match_lambda2(k, u, g) if lam > 1 else None
    match = (lam % 2 == 0 and doubled) or _match_lambda1(k, u, g)
    if match is None:
        return Feasibility(UNSUPPORTED, "no implemented construction covers these parameters")
    case, sp = match
    if case == "f" and k % 4 == 2 and k >= 14:
        # distance pairs need k = 0 (mod 4) and the edge search exhausts its budget
        return Feasibility(UNSUPPORTED, f"case f needs a C_{k}-factorization of "
                                        f"K_{{{k},{k}}}, which has no implemented construction")
    return Feasibility(FEASIBLE, f"case {case}", case, sp, doubled)


# ---------------------------------------------------------------------------
# Shared assembly helpers


def _k2_twist(slot_factor: PartialFactor, cycle_length: int) -> PartialFactor:
    """(slot factor) x K_2 on parts {0, 1}, for blowing up along matchings.

    Each slot cycle of (z, 0) vertices is threaded with jump 1 mod 2, so the
    part alternates along it: an even slot cycle gives two cycles, an odd
    one a single cycle of twice its length.
    """
    return PartialFactor.build(cycle_length, None, [
        tuple((h, z) for z, h in cyc) for sc in slot_factor.cycles
        for cyc in assemble_from_distances([z for z, _ in sc], [1] * len(sc), 2)])


def _twisted_near_one_factors(u: int, slot_factors, k: int) -> list[PartialFactor]:
    """Near 1-factors of K_u crossed with the slot factors: each matching
    edge carries the K_2 twist of every slot cycle."""
    twisted = [_k2_twist(sf, k) for sf in slot_factors]
    factors = []
    for mf in blocks.near_one_factorization(u):
        edges = [[(a, 0), (b, 0)] for a, b in mf.edges]
        factors.extend(blow_up(edges, tw, 1, k, mf.missing) for tw in twisted)
    return factors


# ---------------------------------------------------------------------------
# lambda = 2 builders


def build_case_uodd_g0modk_l2(p: Params) -> list[PartialFactor]:
    """Odd u, k | g: near 1-factors of K_u crossed with the C_k-factors of
    K_g(2), each matching edge carrying the K_2 twist of every slot cycle."""
    lam, k, u, g = p.lam, p.k, p.u, p.g
    if u % 2 != 1 or g % k != 0:
        raise ParameterError(f"case d needs odd u and k | g, got ({u}, {g})")
    slot_dec = blocks.ck_factorization_complete_doubled(k // 2, g).decomposition
    return _twisted_near_one_factors(u, slot_dec.factors, k)


def build_case_u4x(p: Params) -> list[PartialFactor]:
    """u = 4x, g = ky: triangles of K_4(2) blown through K_3 x K_g factors;
    for x > 2 `blocks.hub_and_groups` spreads them over x groups with no
    hub, linked by K_{1,1} edges carrying K_2 twists of K_g(2) factors."""
    lam, k, u, g = p.lam, p.k, p.u, p.g
    x, y = u // 4, g // k
    if u % 4 != 0 or g % k != 0 or x == 2:
        raise ParameterError(f"case e/f needs u = 4x (x != 2) and k | g, got ({u}, {g})")
    kky = compose.ck_factorization_k3_times_kky(k, y).factors
    triangles = blocks.near_cycle_factorization_doubled(3, 4).decomposition.factors
    inner = [blow_up([[(q, 0) for q in range(4) if q != tf.hole]], kf, 1, k, tf.hole)
             for tf in triangles for kf in kky]
    if x == 1:
        return inner
    slot_dec = blocks.ck_factorization_complete_doubled(k // 2, g).decomposition
    edge = PartialFactor.build(2, None, [((0, 0), (1, 0))])
    return blocks.hub_and_groups(4, g, u, k, inner, [edge],
                                 [_k2_twist(sf, k) for sf in slot_dec.factors])


def _abstract_cycle_route(r: int, g: int, s: int) -> list[PartialFactor]:
    """C_{rs}-factorization of the abstract C_r x K_g used by the split cases:
    the blocked splitting where it applies (even s), else direct ring rows."""
    try:
        # aligned C_r x K_s holes plus a blown factor layer
        return compose.cycle_times_blocked(r, s, g // s)
    except (ParameterError, UnsupportedBlockError):
        return blocks.ring_factorization(r, g, r * s).decomposition.factors


def build_case_primesplit_l2(p: Params, split: PrimeSplit) -> list[PartialFactor]:
    """k = r*s with u = 1 (mod r): doubled near-C_r-factors of K_u threaded
    through a C_{rs}-factorization of C_r x K_g; case c is the split (k, 1)."""
    lam, k, u, g = p.lam, p.k, p.u, p.g
    r, s = split.r, split.s
    if r * s != k or u % r != 1 or u <= r or g % s != 0:
        raise ParameterError(f"split case needs u = 1 (mod r) and s | g, got ({u}, {g}) for r={r}, s={s}")
    near = blocks.near_cycle_factorization_doubled(r, u).decomposition
    abstract = _abstract_cycle_route(r, g, s)
    return [blow_up(nf.cycles, f, g, k, nf.hole) for nf in near.factors for f in abstract]


def build_case_remark_zigzag(p: Params, split: PrimeSplit) -> list[PartialFactor]:
    """k = 2s with odd s: near 1-factors of K_u crossed with the resolvable
    C_s-factors of K_g, each matching edge carrying the odd-cycle K_2 zigzag;
    the doubled host takes every factor twice."""
    lam, k, u, g = p.lam, p.k, p.u, p.g
    s = split.s
    if 2 * s != k or u % 2 != 1 or g % (2 * s) != s:
        raise ParameterError(f"zigzag case needs odd u and g = s (mod 2s), got ({u}, {g})")
    slot_dec = blocks.cs_factorization_complete_odd(s, g).decomposition
    return [f for f in _twisted_near_one_factors(u, slot_dec.factors, k) for _ in range(2)]


# ---------------------------------------------------------------------------
# lambda = 1 builders


def _hub_and_groups(r: int, t: int, u: int, cycle_length: int, inner) -> list[PartialFactor]:
    """Partial C_L-factorization of K_u x K_t for u = rx+1 (x = 1 or x > 2).

    `inner`, the factors of a partial factorization of K_{r+1} x K_t, is the
    answer for x = 1; larger x spreads it by `blocks.hub_and_groups`, linked
    by the C_r-factors of K_{r/2,r/2} and the C_L-factors of C_r x K_t.
    """
    if u == r + 1:
        return list(inner)
    half = r // 2
    bip = blocks.ck_factorization_bipartite(half, half, r).decomposition.factors
    ring = blocks.ring_factorization(r, t, cycle_length).decomposition.factors
    return blocks.hub_and_groups(r, t, u, cycle_length, inner, bip, ring)


def build_case_l1(p: Params) -> list[PartialFactor]:
    """lambda = 1, u = kx+1, odd g: the alternating threading of
    K_{k+1} x K_g, spread over the x part groups when x > 2."""
    lam, k, u, g = p.lam, p.k, p.u, p.g
    if k % 4 != 0 or u % k != 1 or u <= k or g % 2 != 1:
        raise ParameterError(f"case a needs k = 0 (mod 4), u = 1 (mod k), odd g, got {(k, u, g)}")
    return _hub_and_groups(k, g, u, k, compose.partial_ck_factorization_kplus1_times_t(k, g).factors)


def build_case_primesplit_l1(p: Params, split: PrimeSplit) -> list[PartialFactor]:
    """lambda = 1, k = r*s with r = 0 (mod 4), g = s (mod 2s) odd.

    `inflate_slots`: the g/s slot blocks carry aligned partial C_{rs}-factors
    of K_u x K_s; the cross-block edges form (K_u x K_q) blown by s, factored
    by the lambda = 1 partial C_r-route and the blow-up Hamilton cycles.
    """
    lam, k, u, g = p.lam, p.k, p.u, p.g
    r, s = split.r, split.s
    q = g // s
    block = _hub_and_groups(r, s, u, k, compose.partial_ckt_factorization_kplus1_times_t(r, s).factors)
    outer, lex = [], []
    if q >= 3:
        outer = build_case_l1(Params(1, r, u, q))
        lex = blocks.ring_factorization(r, s, k, lex=True).decomposition.factors
    blown, copies = inflate_slots(outer, lex, sorted(block, key=lambda f: f.hole), u, q, s, k)
    return copies + blown


# ---------------------------------------------------------------------------
# Dispatcher


_BUILDERS_L2 = {
    "c": lambda p, sp: build_case_primesplit_l2(p, PrimeSplit(p.k, 1)),
    "d": lambda p, sp: build_case_uodd_g0modk_l2(p),
    "e": lambda p, sp: build_case_u4x(p),
    "f": lambda p, sp: build_case_u4x(p),
    "g": build_case_primesplit_l2,
    "h": build_case_primesplit_l2,
    "i": build_case_primesplit_l2,
    "remark": lambda p, sp: (build_case_remark_zigzag if sp.r == 2
                             else build_case_primesplit_l2)(p, sp),
}


def build_arcs(p: Params, verify: bool = True) -> Decomposition:
    """Dispatch on the matched case and stack lambda = a*1 + b*2 copies of
    the lambda = 1 and lambda = 2 solutions: as many doubled copies as the
    doubled route allows, else single copies only.  The result is
    re-verified unless verify=False."""
    feas = check_feasibility(p)
    if not feas:
        raise ArcsUnavailable(feas)
    lam, k, u, g = p.lam, p.k, p.u, p.g
    doubles = lam // 2 if feas.doubled else 0
    singles = lam - 2 * doubles
    batches: list[tuple[str, list[PartialFactor]]] = []
    if singles:
        p1 = Params(1, k, u, g)
        base1 = build_case_l1(p1) if feas.case == "a" else build_case_primesplit_l1(p1, feas.split)
        tags = ["single"] if singles == 1 else [f"single copy {i}" for i in range(singles)]
        batches.extend((f"{feas.case}[{tag}]", base1) for tag in tags)
    if doubles:
        case2, split2 = feas.doubled
        base2 = _BUILDERS_L2[case2](Params(2, k, u, g), split2)
        batches.extend((f"{case2}[copy {i}]", base2) for i in range(doubles))
    factors: list[PartialFactor] = []
    provenance: list[str] = []
    for tag, batch in batches:
        factors.extend(batch)
        provenance.extend(f"case {tag}" for _ in batch)
    dec = Decomposition(tuple(factors), tuple(provenance))
    if verify:
        result = verify_arcs(dec, p)
        if not result:
            raise ConstructionBugError(
                f"construction failed verification: {result.reason} {result.path}",
                factor_index=result.path.get("factor"))
    return dec
