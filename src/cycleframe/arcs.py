"""Feasibility, case dispatch and the top-level builders.

The dispatcher classifies (lambda, k, u, g) into: infeasible (a counting
necessity fails), open exception (a family the theory leaves unresolved),
a feasible case with a named construction route, or unsupported (satisfies
the necessities but matches no implemented route).  Feasible cases build a
decomposition which is re-verified before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import blocks, compose
from .graphs import (ConstructionBugError, Decomposition, ParameterError, PartialFactor,
                     assemble_from_distances, blow_up)
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
    primes: tuple[int, ...]
    cut: int

    @property
    def r(self) -> int:
        out = 1
        for p in self.primes[:self.cut]:
            out *= p
        return out

    @property
    def s(self) -> int:
        out = 1
        for p in self.primes[self.cut:]:
            out *= p
        return out


@dataclass(frozen=True)
class Feasibility:
    verdict: str
    detail: str = ""
    case: str | None = None
    split: PrimeSplit | None = None

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
    """Proper two-sided prime splits of k, ordered by ascending r."""
    out = []
    for r in range(2, k):
        if k % r == 0:
            s = k // r
            if s >= 2:
                out.append(PrimeSplit(tuple(sorted(_factorize(r)) + sorted(_factorize(s))),
                                      _omega(r)))
    out.sort(key=lambda sp: sp.r)
    return out


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
    for sp in _splits(k):
        r, s = sp.r, sp.s
        if (r % 2 == 0 and s >= 3 and s % 2 == 1
                and u % r == 1 and u > r and g % (2 * s) == 0):
            return ("g", sp)
    for sp in _splits(k):
        r, s = sp.r, sp.s
        if (r % 2 == 1 and r >= 3 and s % 2 == 0 and u % r == 1 and u > r
                and g % s == 0 and g % 4 != 2):
            return ("h", sp)
    for sp in _splits(k):
        r, s = sp.r, sp.s
        if (r % 2 == 0 and s % 2 == 0 and _omega(r) >= 2 and _omega(s) >= 2
                and u % r == 1 and u > r and g % s == 0):
            return ("i", sp)
    if k % 4 == 2:
        for sp in _splits(k):
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
    if lam % 2 == 0:
        family = _even_lambda_exception(k, u, g)
        if family:
            return Feasibility(OPEN_EXCEPTION, family)
        match = _match_lambda2(k, u, g)
        if match is None:
            return Feasibility(UNSUPPORTED, "no implemented construction covers these parameters")
        case, sp = match
        return Feasibility(FEASIBLE, f"case {case}", case, sp)
    family = _odd_lambda_exception(k, u, g)
    if family:
        return Feasibility(OPEN_EXCEPTION, family)
    match1 = _match_lambda1(k, u, g)
    if match1 is None:
        return Feasibility(UNSUPPORTED, "no implemented construction covers these parameters")
    if lam > 1 and _match_lambda2(k, u, g) is None:
        return Feasibility(UNSUPPORTED,
                           "odd lambda > 1 needs both the single and the doubled route")
    case, sp = match1
    return Feasibility(FEASIBLE, f"case {case}", case, sp)


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


def build_case_u1modk_l2(p: Params) -> list[PartialFactor]:
    """u = 1 (mod k): blow each doubled near-cycle-factor through the g-1
    jump factors of C_k x K_g."""
    lam, k, u, g = p.lam, p.k, p.u, p.g
    if u % k != 1 or u <= k:
        raise ParameterError(f"case c needs u = 1 (mod k), got u={u}")
    near = blocks.near_cycle_factorization_doubled(k, u).decomposition
    abstract = blocks.ck_factorization_cycle_times_complete(k, g).decomposition.factors
    # near-factor vertices are (part, 0), so the blow-up only places parts
    return [blow_up(nf.cycles, f, g, k, nf.hole) for nf in near.factors for f in abstract]


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
    for x > 2 the groups of four parts are joined by a blown partial
    1-factorization whose doubled complete-graph factors ride along."""
    lam, k, u, g = p.lam, p.k, p.u, p.g
    x, y = u // 4, g // k
    if u % 4 != 0 or g % k != 0 or x == 2:
        raise ParameterError(f"case e/f needs u = 4x (x != 2) and k | g, got ({u}, {g})")
    kky = compose.ck_factorization_k3_times_kky(k, y).factors
    triangles = blocks.near_cycle_factorization_doubled(3, 4).decomposition.factors
    factors = []
    if x == 1:
        for tf in triangles:
            parts = [[(q, 0) for q in range(4) if q != tf.hole]]
            factors.extend(blow_up(parts, kf, 1, k, tf.hole) for kf in kky)
        return factors
    matchings = blocks.partial_one_factorization_multipartite(x, 4)
    slot_dec = blocks.ck_factorization_complete_doubled(k // 2, g).decomposition
    twisted = [_k2_twist(sf, k) for sf in slot_dec.factors]
    for i in range(x):
        linking = []
        for mf in (m for m in matchings if m.missing == i):
            edges = [[(a * 4 + ha, 0), (b * 4 + hb, 0)] for ((a, ha), (b, hb)) in mf.edges]
            linking.extend(blow_up(edges, tw, 1, k) for tw in twisted)
        group = []
        for tf in triangles:
            parts = [[(i * 4 + q, 0) for q in range(4) if q != tf.hole]]
            group.extend((i * 4 + tf.hole, blow_up(parts, kf, 1, k)) for kf in kky)
        if len(group) != len(linking):
            raise ConstructionBugError("case e/f pairing is out of balance")
        for (hole, gf), lf in zip(group, linking):
            factors.append(PartialFactor.build(k, hole, list(gf.cycles) + list(lf.cycles)))
    return factors


def _abstract_cycle_route(r: int, g: int, s: int) -> list[PartialFactor]:
    """C_{rs}-factorization of the abstract C_r x K_g used by the split cases."""
    if s % 2 == 1:
        return blocks.ck_factorization_cycle_times_complete(r, g, s).decomposition.factors
    try:
        # aligned C_r x K_s holes plus a blown factor layer
        return compose.cycle_times_blocked(r, s, g // s)
    except (ParameterError, blocks.search.UnsupportedBlockError):
        return blocks.ck_factorization_cycle_times_complete(r, g, s).decomposition.factors


def build_case_primesplit_l2(p: Params, split: PrimeSplit) -> list[PartialFactor]:
    """k = r*s with u = 1 (mod r): doubled near-C_r-factors of K_u threaded
    through a C_{rs}-factorization of C_r x K_g."""
    lam, k, u, g = p.lam, p.k, p.u, p.g
    r, s = split.r, split.s
    if r * s != k or u % r != 1 or u <= r or g % s != 0:
        raise ParameterError(f"split case needs u = 1 (mod r) and s | g, got ({u}, {g}) for r={r}, s={s}")
    if r == 2:
        # doubled near 1-factors instead of near cycles: this split only
        # fires with 2s | g, where it is the odd-u route verbatim
        return build_case_uodd_g0modk_l2(p)
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


def _hub_and_groups(r: int, t: int, u: int, cycle_length: int,
                    inner, abstract) -> list[PartialFactor]:
    """Partial C_L-factorization of K_u x K_t for u = rx+1 (x = 1 or x > 2).

    `inner(r, t)` is a partial factorization of K_{r+1} x K_t, the answer
    for x = 1.  For x > 2 each of the x part groups carries a copy of it
    around the shared hub part u-1, and a blown partial 1-factorization
    links the groups through `abstract(r, t)`, a factorization of C_r x K_t.
    Each link factor inflates a K_2 matching edge to a complete bipartite
    block of size r/2 carrying a C_r-factorization.  Group factors pair with
    link factors hole by hole; the factors of all groups missing the hub
    merge.
    """
    x = (u - 1) // r
    if x == 2:
        raise ParameterError("x = 2 belongs to the open exception family")
    if x == 1:
        return list(inner(r, t).factors)
    matchings = blocks.partial_one_factorization_multipartite(x, 2)
    abstract_factors = abstract(r, t).factors
    inner_factors = inner(r, t).factors
    half = r // 2
    bip = blocks.ck_factorization_bipartite(half, half, r).decomposition.factors
    hub = u - 1
    per_hole = (t - 1) // 2
    factors = []
    hub_batches: list[list[PartialFactor]] = [[] for _ in range(per_hole)]
    for i in range(x):
        linking = []
        for mf in (m for m in matchings if m.missing == i):
            for bf in bip:
                link = [tuple(((a * r + ha * half + z) if side == 0
                               else (b * r + hb * half + z), 0) for (side, z) in cyc)
                        for ((a, ha), (b, hb)) in mf.edges for cyc in bf.cycles]
                linking.extend(blow_up(link, f, t, cycle_length) for f in abstract_factors)
        part_map = [i * r + w for w in range(r)] + [hub]
        group = []
        hub_here = []
        for f in inner_factors:
            mapped = blow_up([[(q, 0) for q in part_map]], f, 1, cycle_length, part_map[f.hole])
            (hub_here if mapped.hole == hub else group).append(mapped)
        for idx, f in enumerate(hub_here):
            hub_batches[idx].append(f)
        if len(group) != len(linking) or len(hub_here) != per_hole:
            raise ConstructionBugError("hub-and-groups pairing is out of balance")
        for gf, lf in zip(group, linking):
            factors.append(PartialFactor.build(cycle_length, gf.hole,
                                               list(gf.cycles) + list(lf.cycles)))
    for batch in hub_batches:
        cycles = []
        for f in batch:
            cycles.extend(f.cycles)
        factors.append(PartialFactor.build(cycle_length, hub, cycles))
    return factors


def _cycle_times_complete(r: int, t: int) -> Decomposition:
    return blocks.ck_factorization_cycle_times_complete(r, t).decomposition


def build_case_l1(p: Params) -> list[PartialFactor]:
    """lambda = 1, u = kx+1, odd g: the alternating threading of
    K_{k+1} x K_g, spread over the x part groups when x > 2."""
    lam, k, u, g = p.lam, p.k, p.u, p.g
    if k % 4 != 0 or u % k != 1 or u <= k or g % 2 != 1:
        raise ParameterError(f"case a needs k = 0 (mod 4), u = 1 (mod k), odd g, got {(k, u, g)}")
    return _hub_and_groups(k, g, u, k, compose.partial_ck_factorization_kplus1_times_t,
                           _cycle_times_complete)


def build_case_primesplit_l1(p: Params, split: PrimeSplit) -> list[PartialFactor]:
    """lambda = 1, k = r*s with r = 0 (mod 4), g = s (mod 2s) odd.

    The g/s slot blocks carry aligned partial C_{rs}-factorizations of
    K_u x K_s; the cross-block edges form (K_u x K_q) blown by s, factored
    by the lambda = 1 partial C_r-route and the blow-up Hamilton cycles.
    """
    lam, k, u, g = p.lam, p.k, p.u, p.g
    r, s = split.r, split.s
    q = g // s
    block = _hub_and_groups(r, s, u, k, compose.partial_ckt_factorization_kplus1_times_t,
                            compose.ckt_factorization_cycle_times_t)
    copies = [[(pp, b) for pp in range(u)] for b in range(q)]
    factors = [blow_up(copies, bf, s, k, bf.hole) for bf in sorted(block, key=lambda f: f.hole)]
    if q >= 3:
        outer = _hub_and_groups(r, q, u, r, compose.partial_ck_factorization_kplus1_times_t,
                                _cycle_times_complete)
        lex = blocks.lex_cycle_factorization(r, s).decomposition.factors
        factors.extend(blow_up(of.cycles, lf, s, k, of.hole) for of in outer for lf in lex)
    return factors


# ---------------------------------------------------------------------------
# Dispatcher


_BUILDERS_L2 = {
    "c": lambda p, sp: build_case_u1modk_l2(p),
    "d": lambda p, sp: build_case_uodd_g0modk_l2(p),
    "e": lambda p, sp: build_case_u4x(p),
    "f": lambda p, sp: build_case_u4x(p),
    "g": build_case_primesplit_l2,
    "h": build_case_primesplit_l2,
    "i": build_case_primesplit_l2,
}


def _build_lambda2(p: Params, case: str, split: PrimeSplit | None) -> list[PartialFactor]:
    if case == "remark":
        if split.r == 2:
            return build_case_remark_zigzag(p, split)
        return build_case_primesplit_l2(p, split)
    return _BUILDERS_L2[case](p, split)


def _build_lambda1(p: Params, case: str, split: PrimeSplit | None) -> list[PartialFactor]:
    if case == "a":
        return build_case_l1(p)
    return build_case_primesplit_l1(p, split)


def build_arcs(p: Params, verify: bool = True) -> Decomposition:
    """Dispatch on the matched case; for lambda > 2 stack copies of the
    lambda <= 2 solutions.  The result is re-verified unless verify=False."""
    feas = check_feasibility(p)
    if not feas:
        raise ArcsUnavailable(feas)
    lam, k, u, g = p.lam, p.k, p.u, p.g
    batches: list[tuple[str, list[PartialFactor]]] = []
    if lam % 2 == 0:
        base = _build_lambda2(Params(2, k, u, g), feas.case, feas.split)
        for copy in range(lam // 2):
            batches.append((f"{feas.case}[copy {copy}]", base))
    else:
        base1 = _build_lambda1(Params(1, k, u, g), feas.case, feas.split)
        batches.append((f"{feas.case}[single]", base1))
        if lam > 1:
            case2, split2 = _match_lambda2(k, u, g)
            base2 = _build_lambda2(Params(2, k, u, g), case2, split2)
            for copy in range((lam - 1) // 2):
                batches.append((f"{case2}[copy {copy}]", base2))
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
