"""Composition engines over the elementary blocks.

These build the mid-level factorizations the case builders stack: partial
cycle factorizations of K_{k+1} x K_t by distance threading over the zigzag
near-factors, Hamilton splittings of C_k x K_t for odd part size, cycle
factorizations of K_3 x K_{ky}, and the blocked splittings of C_k x K_s.

Every product construction here works by explicit index arithmetic on
(part, slot) vertices; nothing is ever contracted, so the verifier can check
each output against its host directly.
"""

from __future__ import annotations

from . import blocks
from .graphs import (ConstructionBugError, Decomposition, ExceptionalCase,
                     MultiGraph, ParameterError, PartialFactor,
                     assemble_from_distances, blow_up, tensor_complete)
from .verify import check_partition


def _finish(host: MultiGraph, factors, tag: str) -> Decomposition:
    dec = Decomposition(tuple(factors), tuple(tag for _ in factors))
    result = check_partition(host, dec.factors)
    if not result:
        raise ConstructionBugError(f"{tag} failed verification: {result.reason} {result.path}")
    return dec


def transpose_factor(factor: PartialFactor) -> PartialFactor:
    cycles = [tuple((s, p) for (p, s) in cyc) for cyc in factor.cycles]
    return PartialFactor.build(factor.cycle_length, factor.hole, cycles)


# ---------------------------------------------------------------------------
# Partial C_k-factorization of K_{k+1} x K_t (k = 0 mod 4, t odd)


def partial_ck_factorization_kplus1_times_t(k: int, t: int) -> Decomposition:
    """Thread alternating distances (r, t-r) along each zigzag near-factor.

    Odd-indexed near-factors start with r, even-indexed start with t-r, and
    the rim factor starts with r; each threading misses the part its
    near-factor misses, giving (k+1)(t-1)/2 partial C_k-factors that
    partition K_{k+1} x K_t exactly once.
    """
    if k < 4 or k % 4 != 0:
        raise ParameterError(f"this threading needs k = 0 (mod 4), got {k}")
    if t < 3 or t % 2 == 0:
        raise ParameterError(f"this threading needs odd t >= 3, got {t}")
    host = tensor_complete(k + 1, t, 1)
    entries = blocks.kplus1_near_factor_cycles(k)
    factors = []
    for index, (missing, cyc) in enumerate(entries):
        hub = index == k  # the rim entry, missing the hub part
        for r in range(1, (t - 1) // 2 + 1):
            starts_with_r = hub or index % 2 == 1
            first, second = (r, t - r) if starts_with_r else (t - r, r)
            dv = [first if pos % 2 == 0 else second for pos in range(k)]
            factors.append(PartialFactor.build(k, missing, assemble_from_distances(cyc, dv, t)))
    return _finish(host, factors, "kplus1_alternating_threading")


# ---------------------------------------------------------------------------
# Hamilton splitting of C_k x K_t for odd t, and its halves


def _cycle_times_t_half(part_cycle, slot_ham, use_reversed: bool):
    """One Hamilton factor of (part cycle) x (ordered slot cycle).

    Between consecutive slot classes the part index steps by +1 on even slot
    positions and -1 on odd ones (reversed swaps the two), which closes into
    a single cycle through every vertex because the slot cycle has odd
    length.  The steps are threaded along the slot cycle over Z_k, then
    (slot, x) is placed at (part_cycle[x], slot).
    """
    k = len(part_cycle)
    t = len(slot_ham)
    steps = [1 if (j % 2 == 0) != use_reversed else -1 for j in range(t)]
    cycles = [tuple((part_cycle[x], s) for s, x in cyc)
              for cyc in assemble_from_distances(slot_ham, steps, k)]
    if len(cycles) != 1 or len(cycles[0]) != k * t:
        raise ConstructionBugError("half factor is not a single Hamilton cycle")
    return cycles


def ckt_factorization_cycle_times_t(k: int, t: int) -> Decomposition:
    """C_{kt}-factorization of C_k x K_t (k even >= 4, t odd >= 3).

    K_t splits into (t-1)/2 Hamilton cycles; each contributes the two
    mirror-image step patterns, for t-1 Hamilton factors in all.
    """
    if k < 4 or k % 2 != 0 or t < 3 or t % 2 == 0:
        raise ParameterError(f"needs even k >= 4 and odd t >= 3, got ({k}, {t})")
    host = blocks.cycle_times_complete_host(k, t)
    part_cycle = tuple(range(k))
    factors = []
    for ham in blocks.hamilton_decomposition_complete_odd(t):
        for use_reversed in (False, True):
            cycles = _cycle_times_t_half(part_cycle, ham, use_reversed)
            factors.append(PartialFactor.build(k * t, None, cycles))
    return _finish(host, factors, "cycle_times_odd_hamilton")


def partial_ckt_factorization_kplus1_times_t(k: int, t: int) -> Decomposition:
    """Partial C_{kt}-factorization of K_{k+1} x K_t (k even, t odd).

    Each zigzag near-factor contributes the forward halves of its blown-up
    Hamilton splitting, the rim factor contributes the reversed halves; a
    part pair sits in two of these products with matched traversal, so the
    halves mesh into an exact cover.  (k+1)(t-1)/2 factors, one Hamilton
    cycle each.
    """
    if k < 4 or k % 2 != 0 or t < 3 or t % 2 == 0:
        raise ParameterError(f"needs even k >= 4 and odd t >= 3, got ({k}, {t})")
    host = tensor_complete(k + 1, t, 1)
    slot_hams = blocks.hamilton_decomposition_complete_odd(t)
    factors = []
    for index, (missing, cyc) in enumerate(blocks.kplus1_near_factor_cycles(k)):
        hub = index == k
        for ham in slot_hams:
            cycles = _cycle_times_t_half(cyc, ham, use_reversed=hub)
            factors.append(PartialFactor.build(k * t, missing, cycles))
    return _finish(host, factors, "kplus1_hamilton_halves")


# ---------------------------------------------------------------------------
# C_k-factorization of K_3 x K_{ky}


def triangle_factorization_k3_times_ky(y: int) -> list[PartialFactor]:
    """Triangle factors of K_3 x K_y for odd y: jumps (j, j, -2j)."""
    if y < 3 or y % 2 == 0:
        raise ParameterError(f"triangle factorization needs odd y >= 3, got {y}")
    factors = []
    for j in range(1, y):
        cycles = assemble_from_distances((0, 1, 2), (j, j, -2 * j), y)
        if any(len(c) != 3 for c in cycles):
            raise ConstructionBugError("triangle row produced wrong cycle length")
        factors.append(PartialFactor.build(3, None, cycles))
    return factors


def _k3_times_kk_base(k: int) -> list[PartialFactor]:
    """C_k-factors of K_3 x K_k via the Walecki split of the slot side.

    Built transposed (k parts of size 3): each free Hamilton cycle carries
    two alternating threadings, the cubic remainder goes through its
    1-factorization threading, then everything is flipped back.
    """
    hams, cubic = blocks.walecki_split(k)
    transposed = []
    for ham in hams:
        for r in (1, 2):
            dv = [r if pos % 2 == 0 else 3 - r for pos in range(k)]
            transposed.append(PartialFactor.build(k, None, assemble_from_distances(ham, dv, 3)))
    transposed.extend(blocks.cubic_times_k3_factorization(k, cubic).decomposition.factors)
    return [transpose_factor(f) for f in transposed]


def ck_factorization_k3_times_kky(k: int, y: int) -> Decomposition:
    """C_k-factorization of K_3 x K_{ky} into ky-1 factors.

    y = 1 comes straight from the Walecki split.  Larger y splits the slots
    into y blocks: the y aligned copies of K_3 x K_k fill the holes, and the
    cross-block edges form the blow-up of K_3 x K_y, factored through
    triangles (odd y) or through Hamilton-cycle matchings and complete
    bipartite blocks (even y, k > 6).
    """
    if k < 6 or k % 2 != 0 or y < 1:
        raise ParameterError(f"K_3 x K_(ky) factorization needs even k >= 6, y >= 1, got ({k}, {y})")
    if y % 2 == 0 and k == 6:
        raise ExceptionalCase("k = 6 with even y is an open blow-up family")
    host = tensor_complete(3, k * y, 1)
    base = _k3_times_kk_base(k)
    if y == 1:
        return _finish(host, base, "k3_slotside_walecki")
    factors = []
    if y % 2 == 1:
        ttt = blocks.ct_factorization_tripartite(k).decomposition.factors
        for tri_factor in triangle_factorization_k3_times_ky(y):
            factors.extend(blow_up(tri_factor.cycles, level, k, k) for level in ttt)
    else:
        bip = blocks.ck_factorization_bipartite(k, k, k).decomposition.factors
        hams = blocks.hamilton_decomp_cycle_times_complete(3, y).decomposition.factors
        for ham in hams:
            cyc = ham.cycles[0]
            length = len(cyc)
            for parity in (0, 1):
                # side 0 of a bipartite block is the smaller endpoint
                matching = [sorted((cyc[i], cyc[(i + 1) % length]))
                            for i in range(parity, length, 2)]
                factors.extend(blow_up(matching, level, k, k) for level in bip)
    # hole blocks: each base factor repeated across all y slot blocks
    copies = [[(p, b) for p in range(3)] for b in range(y)]
    factors.extend(blow_up(copies, base_factor, k, k) for base_factor in base)
    return _finish(host, factors, "k3_blocked_blowup")


# ---------------------------------------------------------------------------
# C_{kt}-factorization of C_k x K_s


def cycle_times_blocked(k: int, block: int, num_blocks: int) -> list[PartialFactor]:
    """C_{k*block}-factors of C_k x K_{block*num_blocks} for even block size.

    Slot blocks are filled by the Hamilton decomposition of C_k x K_block;
    cross-block edges are the blow-up of C_k x K_{num_blocks}, whose plain
    C_k-factors inflate through the Hamilton decomposition of C_k (x) K̄_block.
    """
    if block % 2 != 0:
        raise ParameterError("blocked splitting needs an even block size")
    factors = []
    if num_blocks >= 2:
        try:
            lex = blocks.lex_cycle_factorization(k, block).decomposition.factors
            outer = blocks.ck_factorization_cycle_times_complete(k, num_blocks).decomposition.factors
            factors.extend(blow_up(outer_factor.cycles, lex_factor, block, k * block)
                           for outer_factor in outer for lex_factor in lex)
        except ParameterError:
            # odd k with num_blocks = 2 (mod 4) has no plain C_k-factor layer;
            # blow the Hamilton cycles of C_k x K_num_blocks instead, cutting
            # them back to length k*block inside the lexicographic inflation
            if block % num_blocks != 0:
                raise
            hams = blocks.hamilton_decomp_cycle_times_complete(k, num_blocks).decomposition.factors
            lex = blocks.lex_cycle_factorization(k * num_blocks, block,
                                                 num_blocks).decomposition.factors
            factors.extend(blow_up(ham.cycles, lex_factor, block, k * block)
                           for ham in hams for lex_factor in lex)
    pten = blocks.hamilton_decomp_cycle_times_complete(k, block).decomposition.factors
    copies = [[(p, b) for p in range(k)] for b in range(num_blocks)]
    factors.extend(blow_up(copies, hole_factor, block, k * block) for hole_factor in pten)
    return factors
