"""Elementary factorization providers.

Each provider returns its factorization as a verified decomposition of an
explicit host graph.  Where a closed form is classical (rotational near
1-factorizations and the even-x frame of partial ones, Walecki cycles,
distance threading, the group spread of K_{r+1} and K_4 blocks, mirrored
rotational bases, the perfect 1-factorization of the Walecki remainder) it
is built directly; this covers the doubled complete blocks of even cycle
length.  Where only existence is cited, a deterministic bounded
backtracking search fills the gap and the result is cached on disk keyed
by the request.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from . import search, serialize
from .graphs import (ConstructionBugError, Decomposition, DegenerateCycleError,
                     ExceptionalCase, MultiGraph, ParameterError,
                     PartialFactor, assemble_from_distances, blow_up,
                     complete_graph, edge_key, multipartite_complete,
                     trace_two_regular)
from .verify import check_partition

CACHE_ENV = "CYCLEFRAME_CACHE"
DEFAULT_CACHE_DIR = ".cycleframe-cache"

EXPLICIT = "explicit"
SEARCH = "search"
CACHED = "cached"


@dataclass(frozen=True)
class BlockResult:
    decomposition: Decomposition
    strategy: str


@dataclass(frozen=True)
class MatchingFactor:
    """A (near / partial) 1-factor: `missing` is the uncovered vertex or part."""

    missing: int | None
    edges: tuple[tuple, ...]


def _cache_path(family: str, params: tuple, tag: str) -> Path:
    blob = json.dumps({"family": family, "params": list(params), "tag": tag}, sort_keys=True)
    digest = hashlib.sha256(blob.encode("ascii")).hexdigest()[:16]
    return Path(os.environ.get(CACHE_ENV, DEFAULT_CACHE_DIR)) / f"{family}-{digest}.json"


def _finish(host: MultiGraph, factors, strategy: str, tag: str) -> BlockResult:
    dec = Decomposition(tuple(factors), tuple(tag for _ in factors))
    result = check_partition(host, dec.factors)
    if not result:
        raise ConstructionBugError(f"block {tag} failed verification: {result.reason} {result.path}")
    return BlockResult(dec, strategy)


def _searched(family: str, params: tuple, host: MultiGraph, cycle_length: int,
              holes, tag: str, first=None) -> BlockResult:
    """One factor per entry of `holes`, found behind the cache.

    An entry is keyed by family, params and `tag`, so one that another
    construction wrote is never served.  It holds only the factor list,
    read back at `cycle_length` and verified; one that fails is rebuilt
    (and deleted if it can be), one that cannot be read is a miss.
    `first()`, when given, is a constructive attempt returning the cycles
    of each factor or raising UnsupportedBlockError; otherwise (or then)
    the edge search fills each factor over every vertex outside its hole
    part (None: the whole host).  The cache only saves time: a failed
    write or delete does not fail the build, and a failed write leaves no
    temporary file behind where it can remove one.
    """
    path = _cache_path(family, params, tag)
    try:
        obj = json.loads(path.read_text(encoding="ascii"))
        factors = [serialize.factor_from_obj(f, cycle_length) for f in obj["factors"]]
        if [f.hole for f in factors] != list(holes):
            raise ValueError(f"cache entry for {family} {params} has the wrong holes")
        return _finish(host, factors, CACHED, tag)
    except OSError:
        pass  # missing or unreadable: a miss
    except (ValueError, KeyError, TypeError, IndexError, RecursionError,
            ConstructionBugError):
        with contextlib.suppress(OSError):
            path.unlink(missing_ok=True)
    raw = None
    if first is not None:
        try:
            raw = first()
        except search.UnsupportedBlockError:
            pass
    if raw is None:
        raw = search.decompose_into_factors(host, holes, cycle_length)
    factors = [PartialFactor.build(cycle_length, hole, cycles)
               for hole, cycles in zip(holes, raw)]
    result = _finish(host, factors, SEARCH, tag)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    except OSError:
        return result
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(serialize.canonical_json_bytes(
                {"factors": [serialize.factor_to_obj(f) for f in factors]}))
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
    return result


def _as_factor(cycle_length: int, hole: int | None, int_cycles) -> PartialFactor:
    """Lift cycles of integer vertices into the (part, slot=0) vertex space."""
    return PartialFactor.build(cycle_length, hole,
                               [tuple((v, 0) for v in cyc) for cyc in int_cycles])


# ---------------------------------------------------------------------------
# 1-factorizations


def near_one_factorization(u: int) -> list[MatchingFactor]:
    """Rotational near 1-factorization of K_u for odd u.

    Factor m misses vertex m and pairs m+j with m-j (mod u).
    """
    if u < 3 or u % 2 == 0:
        raise ParameterError(f"near 1-factorization needs odd u >= 3, got {u}")
    factors = []
    for m in range(u):
        edges = tuple(sorted(tuple(sorted(((m + j) % u, (m - j) % u)))
                             for j in range(1, (u - 1) // 2 + 1)))
        factors.append(MatchingFactor(m, edges))
    return _check_matchings(factors, lambda e: 1, u * (u - 1) // 2,
                            lambda m: set(range(u)) - {m})


def partial_one_factorization_multipartite(u: int, g: int) -> list[MatchingFactor]:
    """Hole-aligned partial 1-factorization of K_u (x) K̄_g.

    Returns u*g matchings, g of them missing each part, in order of the
    missing part.  Each base matching over vertices (part, level) is blown
    through the s distance matchings of K_{s,s}: odd u takes the rotational
    near 1-factors on level 0 with s = g; even u (forcing even g) takes
    `_even_frame` on levels {0, 1} with s = g/2.
    """
    if u < 3:
        raise ParameterError("partial 1-factorization needs u >= 3")
    if (g * (u - 1)) % 2 != 0:
        raise ParameterError(f"partial 1-factorization needs g(u-1) even, got u={u}, g={g}")
    if u % 2 == 1:
        bases = [(near.missing, [((a, 0), (b, 0)) for a, b in near.edges])
                 for near in near_one_factorization(u)]
        size = g
    else:
        bases, size = _even_frame(u - 1), g // 2
    factors = [MatchingFactor(missing, tuple(sorted(
        edge_key((a, ha * size + z), (b, hb * size + (z + d) % size))
        for (a, ha), (b, hb) in edges for z in range(size))))
        for missing, edges in bases for d in range(size)]
    host = multipartite_complete(u, g, 1)
    return _check_matchings(factors, host.multiplicity, host.edge_count(),
                            lambda hole: {v for v in host.vertices() if v[0] != hole})


def _even_frame(n: int) -> list[tuple[int, list]]:
    """Partial 1-factorization of K_{n+1} (x) K̄_2 for odd n, two per part.

    Parts are Z_n plus the fixed part n (∞), and slots are levels {0, 1}.
    B0 and B1 miss part 0 and are translated by every m in Z_n (∞ fixed):
    together they use each pure difference on each level once and each of
    the four ∞-orbits once, and B1's mixed differences -2c (c ∉ {0, ±1})
    cover every nonzero mixed difference but ±2.  The two matchings
    missing ∞ take the mixed differences +2 and -2.
    """
    inf, half = n, (n - 1) // 2
    b0 = ([((j, 0), (-j, 0)) for j in range(2, half + 1)]
          + [((j, 1), (-j, 1)) for j in range(1, half + 1)]
          + [((inf, 0), (1, 0)), ((inf, 1), (-1, 0))])
    b1 = ([((-1, 0), (1, 0)), ((inf, 0), (1, 1)), ((inf, 1), (-1, 1))]
          + [((c, 0), (-c, 1)) for c in range(2, n - 1)])

    def shift(v, m):
        return v if v[0] == inf else ((v[0] + m) % n, v[1])

    bases = [(m, [(shift(a, m), shift(b, m)) for a, b in base])
             for m in range(n) for base in (b0, b1)]
    return bases + [(inf, [((a, 0), ((a + d) % n, 1)) for a in range(n)]) for d in (2, -2)]


def _check_matchings(factors, multiplicity, total: int, span_of):
    """Each factor a matching on `span_of(missing)`; no edge used more often
    than `multiplicity(edge)`, and `total` edges in all: an exact partition."""
    used: Counter = Counter()
    for f in factors:
        covered = [v for e in f.edges for v in e]
        if len(covered) != len(set(covered)):
            raise ConstructionBugError("matching factor repeats a vertex")
        if set(covered) != span_of(f.missing):
            raise ConstructionBugError("matching factor span mismatch")
        for a, b in f.edges:
            e = (a, b) if a < b else (b, a)
            used[e] += 1
            if used[e] > multiplicity(e):
                raise ConstructionBugError(f"matching factors over-cover edge {e}")
    if sum(used.values()) != total:
        raise ConstructionBugError("matching factors do not partition the host")
    return factors


# ---------------------------------------------------------------------------
# Walecki machinery


def _walecki_zigzag(modulus: int) -> list[int]:
    """Zigzag path 0, 1, -1, 2, -2, ... using every vertex of Z_modulus."""
    path = [0]
    j = 1
    while len(path) < modulus:
        path.append(j % modulus)
        if len(path) < modulus:
            path.append((-j) % modulus)
        j += 1
    return path


def walecki_hamilton_cycles(k: int, rotations: int) -> list[tuple[int, ...]]:
    """First `rotations` Walecki Hamilton cycles of K_k (inf = k-1); for odd
    k, (k-1)/2 rotations decompose K_k."""
    modulus = k - 1
    base = _walecki_zigzag(modulus)
    return [tuple([k - 1] + [(v + j) % modulus for v in base]) for j in range(rotations)]


def walecki_split(k: int):
    """K_k = (k/2 - 2) Hamilton cycles + a cubic remainder (k even >= 6).

    The remainder is the last Walecki cycle plus the leftover perfect
    matching, returned as three perfect matchings: the cycle's even-position
    edges, its odd-position edges and the leftover, as (cycles, matchings).
    Over Z_{k-1} they pair x with c - x for c = -3, -2, -1, each adding the
    edge from inf to the fixed point; two of these reflections compose to a
    translation by 1 or 2, which generates Z_{k-1}, so any two matchings
    form one Hamilton cycle: a perfect 1-factorization of the remainder.
    """
    if k < 6 or k % 2 != 0:
        raise ParameterError(f"walecki split needs even k >= 6, got {k}")
    cycles = walecki_hamilton_cycles(k, k // 2 - 1)
    used: Counter = Counter()
    for cyc in cycles:
        for i in range(k):
            used[tuple(sorted((cyc[i], cyc[(i + 1) % k])))] += 1
    leftover = [e for e in itertools.combinations(range(k), 2) if used[e] == 0]
    if any(m > 1 for m in used.values()) or len(leftover) != k // 2:
        raise ConstructionBugError("walecki split did not tile K_k")
    last = cycles[-1]
    halves = [sorted(tuple(sorted((last[i], last[(i + 1) % k]))) for i in range(parity, k, 2))
              for parity in (0, 1)]
    return cycles[:-1], halves + [leftover]


def hamilton_decomposition_complete_odd(t: int) -> list[tuple[int, ...]]:
    """Hamilton decomposition of K_t for odd t (inf = t-1), (t-1)/2 cycles."""
    if t < 3 or t % 2 == 0:
        raise ParameterError(f"odd complete Hamilton decomposition needs odd t >= 3, got {t}")
    return walecki_hamilton_cycles(t, (t - 1) // 2)


# ---------------------------------------------------------------------------
# Near cycle factorizations of doubled complete graphs


def kplus1_near_factor_cycles(k: int):
    """The explicit near C_k-factors of K_{k+1}(2), vertices 0..k-1 plus k.

    Entry order and cycle orientation follow the i, i+1, i-1, i+2, ...
    zigzag; entry i misses i + k/2, the final entry is the rim cycle missing
    the hub vertex k.  Downstream distance threading relies on exactly these
    orientations.
    """
    if k < 4 or k % 2 != 0:
        raise ParameterError(f"near C_k-factors of K_(k+1)(2) need even k >= 4, got {k}")
    *path, far = _walecki_zigzag(k)
    return ([((i + far) % k, tuple((i + v) % k for v in path) + (k,)) for i in range(k)]
            + [(k, tuple(range(k)))])


def _translates(base, n: int) -> list[list[tuple]]:
    """The n translates of a rotational base over Z_n, translate j missing j."""
    return [[tuple(((v + j) % n, 0) for v in cyc) for cyc in base] for j in range(n)]


def _mirrored_base(cycle_len: int) -> list[tuple[int, ...]]:
    """Rotational base of a near C_L-factorization of K_{2L+1}(2), even L.

    The L-cycle A visits 1, .., L signed so that it holds one vertex of each
    pair {b, -b} of Z_{2L+1}: b is positive iff b is odd below L/2 or even
    from L/2 on.  Steps between opposite signs have class 2b+1, and over b
    = 1..L-1 these would be the classes 2..L once each.  The two equal-sign
    steps are (L/2-1, L/2), of class 1 where 2b+1 = L-1, and the closing
    (L, 1), of class L-1.  So A uses every class once, and A with -A
    partitions the nonzero residues using each class twice.
    """
    n = 2 * cycle_len + 1
    half = cycle_len // 2
    cycle = tuple(b if (b % 2 == 1) == (b < half) else n - b for b in range(1, cycle_len + 1))
    return [cycle, tuple(n - v for v in cycle)]


def near_cycle_factorization_doubled(cycle_len: int, u: int) -> BlockResult:
    """Near C_L-factorization of K_u(2) into u factors, factor i missing vertex i.

    Even L: u = L+1 is the zigzag; u = Lx+1 with x > 2 spreads the zigzag
    over x groups by `hub_and_groups`, each group link a Hamilton cycle of
    K_{L/2,L/2}(2).  Otherwise the factors are the translates of a
    rotational base over Z_u: `_mirrored_base` for even L (x = 2), a
    searched one for odd L.
    """
    if cycle_len < 3:
        raise ParameterError(f"cycle length must be >= 3, got {cycle_len}")
    if u < cycle_len + 1 or (u - 1) % cycle_len != 0:
        raise ParameterError(
            f"near C_{cycle_len}-factorization of K_u(2) needs u = 1 (mod {cycle_len}), got {u}")
    host = complete_graph(u, 2)
    x = (u - 1) // cycle_len
    if cycle_len % 2 == 0 and x != 2:
        inner = [_as_factor(cycle_len, missing, [cyc])
                 for missing, cyc in kplus1_near_factor_cycles(cycle_len)]
        if x == 1:
            return _finish(host, inner, EXPLICIT, "near_cycle_zigzag")
        identity = [_as_factor(cycle_len, None, [range(cycle_len)])]
        factors = hub_and_groups(cycle_len, 1, u, cycle_len, inner,
                                 _doubled_bipartite_hamiltons(cycle_len // 2), identity)
        return _finish(host, sorted(factors, key=lambda f: f.hole), EXPLICIT,
                       "near_cycle_hub_and_groups")

    if cycle_len % 2 == 0:
        tag, base = "near_cycle_mirrored", lambda: _mirrored_base(cycle_len)
    else:
        tag, base = "near_cycle_rotational", lambda: search.rotational_base(u, cycle_len)
    return _searched("near_cycle_ku2", (cycle_len, u), host, cycle_len, range(u), tag,
                     lambda: _translates(base(), u))


# ---------------------------------------------------------------------------
# Group spreads of K_{r+1} and K_4 blocks


def _doubled_bipartite_hamiltons(n: int) -> list[PartialFactor]:
    """K_{n,n}(2) as n Hamilton cycles: cycle d steps d forward, d+1 back."""
    return [PartialFactor.build(2 * n, None, assemble_from_distances((0, 1), (d, -(d + 1)), n))
            for d in range(n)]


def _on_matching(edges, link: PartialFactor, r: int) -> list[tuple]:
    """The cycles of `link`, a factor of K_{h,h} (2h vertices), placed on
    every matching edge ((a, ha), (b, hb)) of levels in groups of r: (0, z)
    goes to vertex a*r + ha*h + z and (1, z) to vertex b*r + hb*h + z."""
    h = sum(map(len, link.cycles)) // 2
    return [tuple(((a * r + ha * h + z) if side == 0 else (b * r + hb * h + z), 0)
                  for side, z in cyc)
            for ((a, ha), (b, hb)) in edges for cyc in link.cycles]


def hub_and_groups(r: int, t: int, u: int, cycle_length: int,
                   inner, links, abstract) -> list[PartialFactor]:
    """Partial C_L-factorization over u = rx or rx+1 parts of t slots, x > 2.

    `inner` partially factors the same host on r parts, plus the hub part r
    when u = rx+1: K_{r+1} x K_t for cases a and b, K_{r+1}(2) with t = 1
    for the near block, (K_4 x K_t)(2) with no hub for cases e and f.  Each
    of the x groups of r parts carries a copy, around the shared hub part
    u-1 if there is one.  A blown partial 1-factorization of K_x (x) K̄_{r/h}
    links the groups: each matching edge joins two levels of h parts and
    carries every factor of `links`, all of K_{h,h} (the C_r-factors of
    K_{r/2,r/2}, doubled for the near block, or the edge K_{1,1}), whose
    cycles of parts inflate through every factor of `abstract` (of C_r x K_t,
    the identity C_r, or K_2 twists).  Group factors pair with link factors
    hole by hole; the factors of all groups that miss the hub merge.
    """
    x = u // r
    if x < 3:
        raise ParameterError(f"hub-and-groups needs x > 2 part groups, got x = {x}")
    matchings = partial_one_factorization_multipartite(x, 2 * r // sum(map(len, links[0].cycles)))
    hub = u - 1
    per_hole = sum(f.hole == r for f in inner)
    factors = []
    hub_batches: list[list[PartialFactor]] = [[] for _ in range(per_hole)]
    for i in range(x):
        linking = []
        for mf in (m for m in matchings if m.missing == i):
            for lf in links:
                link = _on_matching(mf.edges, lf, r)
                linking.extend(blow_up(link, f, t, cycle_length) for f in abstract)
        part_map = [i * r + w for w in range(r)] + [hub]
        group = []
        hub_here = []
        for f in inner:
            mapped = blow_up([[(q, 0) for q in part_map]], f, 1, cycle_length, part_map[f.hole])
            (hub_here if f.hole == r else group).append(mapped)
        for idx, f in enumerate(hub_here):
            hub_batches[idx].append(f)
        if len(group) != len(linking) or len(hub_here) != per_hole:
            raise ConstructionBugError("hub-and-groups pairing is out of balance")
        for gf, lf in zip(group, linking):
            factors.append(PartialFactor.build(cycle_length, gf.hole,
                                               list(gf.cycles) + list(lf.cycles)))
    factors.extend(PartialFactor.build(cycle_length, hub, [c for f in batch for c in f.cycles])
                   for batch in hub_batches)
    return factors


# ---------------------------------------------------------------------------
# Cycle factorizations of complete (doubled / simple) graphs


def ck_factorization_complete_doubled(m: int, u: int) -> BlockResult:
    """C_{2m}-factorization of K_u(2) into u-1 factors (u = 2my).

    Each group of 2m vertices carries the Walecki double cover, and factor j
    of every group merges into one.  For y > 1 a 1-factorization of K_{2y}
    links the 2y half-groups of m vertices: the rotational near
    1-factorization of K_{2y-1} plus ∞, labelled so that its factor 0 pairs
    the two halves of each group.  The Walecki cycles cover that factor's
    edges, so it is dropped; each edge of the others carries the m Hamilton
    cycles of K_{m,m}(2).
    """
    cycle_len = 2 * m
    if m < 2:
        raise ParameterError(f"half cycle length must be >= 2, got {m}")
    if u % cycle_len != 0 or u < cycle_len:
        raise ParameterError(
            f"C_{cycle_len}-factorization of K_u(2) needs u = 0 (mod {cycle_len}), got {u}")
    host = complete_graph(u, 2)
    y = u // cycle_len
    factors = [PartialFactor.build(cycle_len, None, [tuple((grp * cycle_len + v, 0) for v in cyc)
                                                     for grp in range(y)])
               for cyc in walecki_hamilton_cycles(cycle_len, cycle_len - 1)]
    if y > 1:
        def half(v: int) -> tuple[int, int]:  # ∞ = 2y-1 is half 1 of group 0
            return (v, 0) if v < y else (2 * y - 1 - v, 1)

        links = _doubled_bipartite_hamiltons(m)
        for mf in near_one_factorization(2 * y - 1)[1:]:
            edges = [(half(a), half(b)) for a, b in mf.edges + ((mf.missing, 2 * y - 1),)]
            factors.extend(PartialFactor.build(cycle_len, None, _on_matching(edges, lf, cycle_len))
                           for lf in links)
    return _finish(host, factors, EXPLICIT, "walecki_groups")


def cs_factorization_complete_odd(s: int, g: int) -> BlockResult:
    """C_s-factorization of K_g (simple) for odd s >= 3, g = s (mod 2s)."""
    if s < 3 or s % 2 == 0:
        raise ParameterError(f"resolvable odd cycle factorization needs odd s >= 3, got {s}")
    if g % (2 * s) != s:
        raise ParameterError(f"C_{s}-factorization of K_g needs g = {s} (mod {2 * s}), got {g}")
    host = complete_graph(g, 1)
    if g == s:
        factors = [_as_factor(s, None, [cyc])
                   for cyc in hamilton_decomposition_complete_odd(s)]
        return _finish(host, factors, EXPLICIT, "odd_complete_hamilton")

    return _searched("cs_factor_kg", (s, g), host, s, [None] * ((g - 1) // 2),
                     "odd_cycle_resolvable")


# ---------------------------------------------------------------------------
# Bipartite and product hosts


def bipartite_host(n: int) -> MultiGraph:
    return MultiGraph(2, n, {(0, 1): 1}, False)


def ck_factorization_bipartite(m: int, n: int, kk: int) -> BlockResult:
    """C_kk-factorization of K_{n,n} into n/2 factors."""
    if m != n or n % 2 != 0 or n < 2:
        raise ParameterError(f"bipartite cycle factorization needs m = n even, got ({m}, {n})")
    if kk < 4 or kk % 2 != 0 or (2 * n) % kk != 0:
        raise ParameterError(f"cycle length {kk} must be even >= 4 and divide 2n = {2 * n}")
    if (m, n, kk) == (6, 6, 6):
        raise ExceptionalCase("K_{6,6} has no C_6-factorization")
    host = bipartite_host(n)
    w = 2 * n // kk
    if (kk // 2) % 2 == 0:
        # Pair the distance classes along each w-step chain; a pair (d, d+w)
        # yields one factor of w cycles stepping d forward and d+w back.
        factors = []
        for c in range(w):
            chain = [(c + i * w) % n for i in range(kk // 2)]
            for i in range(0, len(chain), 2):
                d1, d2 = chain[i], chain[i + 1]
                factors.append(PartialFactor.build(
                    kk, None, assemble_from_distances((0, 1), (d1, -d2), n)))
        return _finish(host, factors, EXPLICIT, "bipartite_distance_pairs")

    return _searched("ck_factor_knn", (n, kk), host, kk, [None] * (n // 2), "bipartite_search")


def _ring(m: int) -> Counter:
    """Part pairs of the cycle C_m on parts 0..m-1 (m = 2 doubles its one pair)."""
    return Counter(tuple(sorted((p, (p + 1) % m))) for p in range(m))


def cycle_times_complete_host(kk: int, m: int) -> MultiGraph:
    """C_kk x K_m: the ring blow-up without its slot-aligned pairs."""
    return MultiGraph(kk, m, _ring(kk), True)


def cycle_lex_host(m: int, n: int) -> MultiGraph:
    """C_m (x) K̄_n: every slot pair of ring-adjacent parts."""
    return MultiGraph(m, n, _ring(m), False)


def ring_factorization(m: int, n: int, cycle_len: int, lex: bool = False) -> BlockResult:
    """C_cycle_len-factorization of C_m x K_n (n-1 factors), or with `lex`
    of C_m (x) K̄_n (n factors).

    Distance-array route: one slot jump per ring position and factor, each
    position using every allowed jump (0 too with `lex`) exactly once, each
    row sum s chosen so gcd(s, n) = m*n/cycle_len fixes the cycle length.
    Where no array is found the edge search fills the gap.
    """
    if m < 3 or n < (1 if lex else 2) or cycle_len < m or cycle_len % m or n % (cycle_len // m):
        raise ParameterError(f"ring factorization got (m={m}, n={n}, cycle_len={cycle_len})")
    if not lex and m % 2 == 1 and n % 4 == 2 and cycle_len < m * n:
        raise ParameterError(
            f"odd ring {m} with part size {n} = 2 (mod 4) is outside the cited result")
    host = (cycle_lex_host if lex else cycle_times_complete_host)(m, n)
    try:
        rows = search.distance_array(m, n, m * n // cycle_len, include_zero=lex)
    except search.UnsupportedBlockError:  # not every instance is uniform
        return _searched("ring", (m, n, cycle_len, int(lex)), host, cycle_len,
                         [None] * (n if lex else n - 1), "ring_search")
    factors = [PartialFactor.build(cycle_len, None, assemble_from_distances(range(m), row, n))
               for row in rows]
    return _finish(host, factors, EXPLICIT, "ring_rows")


# ---------------------------------------------------------------------------
# Cubic blow-ups and tripartite blocks


def _thread_k3_over_p1f(k: int, one_factors):
    """Per-edge distance threading of G x K_3 over a perfect 1-factorization.

    Factor m lives on the Hamilton cycle G minus L_m; the two factors sharing
    an edge take complementary distances, and each factor's oriented distance
    sum must vanish mod 3 so its cycles close after k steps.  The bits are the
    lexicographically first that close all three sums: each of the 3k/2
    edges takes distance 1 unless the sums mod 3 that the edges after it can
    add would then not close them.
    """
    all_edges = sorted({e for lf in one_factors for e in lf})
    if len(all_edges) != sum(map(len, one_factors)):
        raise ParameterError("the 1-factors share an edge")
    hams = []
    for m in range(3):
        removed = set(one_factors[m])
        cyc = trace_two_regular([e for e in all_edges if e not in removed])
        if len(cyc) != 1 or sorted(cyc[0]) != list(range(k)):
            raise ParameterError(f"1-factor {m} does not leave a Hamilton cycle on 0..{k - 1}")
        hams.append(cyc[0])
    # the two factors through each edge, with the edge's direction in each
    owners: dict[tuple[int, int], list[tuple[int, bool]]] = {e: [] for e in all_edges}
    for m, ham in enumerate(hams):
        for p in range(k):
            a, b = ham[p], ham[(p + 1) % k]
            owners[(a, b) if a < b else (b, a)].append((m, a < b))

    def oriented(n: int, forward: bool) -> int:
        return n if forward else 3 - n

    def step(sums, e, n):
        (mi, fi), (mj, fj) = owners[e]
        out = list(sums)
        out[mi] = (out[mi] + oriented(n, fi)) % 3
        out[mj] = (out[mj] + oriented(3 - n, fj)) % 3
        return tuple(out)

    # reach[j]: the sums the last j edges can add; once all 27, so for more
    reach = [{(0, 0, 0)}]
    while len(reach) <= len(all_edges) and len(reach[-1]) < 27:
        reach.append({step(r, all_edges[-len(reach)], n) for r in reach[-1] for n in (1, 2)})
    sums, choice = (0, 0, 0), {}
    for i, e in enumerate(all_edges):
        rest = len(all_edges) - 1 - i
        for n in (1, 2):
            after = step(sums, e, n)
            if rest >= len(reach) or tuple(-s % 3 for s in after) in reach[rest]:
                break
        else:
            raise ConstructionBugError(f"no threading bits close the K_3 blow-up at k = {k}")
        sums, choice[e] = after, n
    factors = []
    for m, ham in enumerate(hams):
        dv = []
        for p in range(k):
            a, b = ham[p], ham[(p + 1) % k]
            e = (a, b) if a < b else (b, a)
            n = choice[e] if owners[e][0][0] == m else 3 - choice[e]
            dv.append(oriented(n, a < b))
        cycles = assemble_from_distances(ham, dv, 3)
        if any(len(c) != k for c in cycles):
            raise ConstructionBugError(f"threaded K_3 blow-up factor {m} has a cycle not of length {k}")
        factors.append(PartialFactor.build(k, None, cycles))
    return factors


def cubic_times_k3_factorization(k: int, one_factors) -> BlockResult:
    """Three C_k-factors of G x K_3, G the union of three perfect matchings
    of order k any two of which form a Hamilton cycle (`walecki_split`)."""
    if k == 4:
        raise ExceptionalCase("(k, m) = (4, 3) is the excluded cubic blow-up")
    if k < 6 or k % 2 != 0:
        raise ParameterError(f"cubic blow-up needs even k >= 6, got {k}")
    one_factors = [sorted(tuple(sorted(e)) for e in lf) for lf in one_factors]
    host = MultiGraph(k, 3, dict.fromkeys((e for lf in one_factors for e in lf), 1), True)
    return _finish(host, _thread_k3_over_p1f(k, one_factors), EXPLICIT, "cubic_blowup_p1f")


def ct_factorization_tripartite(t: int) -> BlockResult:
    """C_t-factorization of K_{t,t,t} into t factors.

    For t = 0 (mod 4) with t >= 8 the factorization doubles up recursively:
    K_{t,t,t} is the half-size tripartite graph with every slot split in two,
    and each half-size factor cycle blows up into the two Hamilton factors of
    its doubled ring: the threading of the m positions over two slots with
    an odd jump sum.  Remaining cases go to the bounded search.
    """
    if t == 2:
        raise DegenerateCycleError("C_2 factors are not cycles")
    if t < 3:
        raise ParameterError(f"tripartite factorization needs t >= 3, got {t}")
    host = multipartite_complete(3, t, 1)
    if t >= 8 and t % 4 == 0:
        m = t // 2
        base = ct_factorization_tripartite(m).decomposition.factors
        rings = [PartialFactor.build(t, None, assemble_from_distances(
            range(m), [flip] * (m - 1) + [1 - flip], 2)) for flip in (0, 1)]
        factors = [blow_up(bf.cycles, ring, 2, t) for bf in base for ring in rings]
        return _finish(host, factors, EXPLICIT, "tripartite_doubling")

    return _searched("ct_factor_kttt", (t,), host, t, [None] * t, "tripartite_search")
