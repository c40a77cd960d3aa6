"""Acceptance suite: one criterion per test, one pass/fail line each.

All checks are exact combinatorial equalities; nothing here is tolerant.
Run with -s to see the per-criterion report lines.
"""

from __future__ import annotations

import itertools
import random
import time
from collections import Counter

import pytest

from cycleframe import blocks
from cycleframe.arcs import Params, build_arcs, check_feasibility, expected_counts
from cycleframe.cli import main as cli_main
from cycleframe.graphs import Decomposition, PartialFactor
from cycleframe.verify import brute_force_arcs, verify_arcs
from multisets import edge_multiset

SWEEP = [(2, 4, 5, 2), (2, 4, 5, 3), (2, 4, 5, 6), (1, 4, 5, 3), (1, 4, 13, 3),
         (2, 6, 7, 2), (2, 6, 3, 6), (2, 4, 3, 4), (2, 6, 4, 6), (2, 8, 4, 8),
         (1, 12, 5, 3), (3, 4, 5, 3), (4, 4, 5, 2)]


def _report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


@pytest.fixture(scope="module")
def built():
    out = {}
    for tup in SWEEP:
        p = Params(*tup)
        started = time.perf_counter()
        dec = build_arcs(p)
        out[tup] = (dec, time.perf_counter() - started)
    return out


def test_criterion_1_counting_identity(built):
    for tup, (dec, _) in built.items():
        p = Params(*tup)
        total, per_hole, per_factor = expected_counts(p)
        assert len(dec.factors) == total, tup
        holes = Counter(f.hole for f in dec.factors)
        assert all(holes[x] == per_hole for x in range(p.u)), tup
        for f in dec.factors:
            assert sum(len(c) for c in f.cycles) == per_factor, tup
    _report(1, f"counting identity exact on all {len(built)} sweep instances")


def test_criterion_2_end_to_end_sweep(built, tmp_path):
    for tup, (dec, elapsed) in built.items():
        p = Params(*tup)
        assert verify_arcs(dec, p), tup
        assert elapsed < 10.0, (tup, elapsed)
        out = tmp_path / ("-".join(map(str, tup)) + ".json")
        code = cli_main(["build", "--lambda", str(p.lam), "--k", str(p.k),
                         "--u", str(p.u), "--g", str(p.g), "-o", str(out)])
        assert code == 0, tup
        assert cli_main(["verify", str(out)]) == 0, tup
    _report(2, f"build+verify exit 0 for all {len(built)} instances, each < 10 s")


def test_criterion_3_exception_gating(tmp_path):
    expected = {(2, 4, 8, 4): "(2s,4t,8)", (2, 4, 8, 8): "(2s,4t,8)",
                (2, 4, 4, 4): "(2s,4,4x)", (2, 6, 6, 6): "(4t+2,4s+2)"}
    for tup, family in expected.items():
        feas = check_feasibility(Params(*tup))
        assert feas.verdict == "open_exception" and feas.detail == family, tup
        out = tmp_path / "never.json"
        code = cli_main(["build", "--lambda", str(tup[0]), "--k", str(tup[1]),
                         "--u", str(tup[2]), "--g", str(tup[3]), "-o", str(out)])
        assert code == 3 and not out.exists(), tup
    _report(3, "all exception families gated, no files written")


def test_criterion_4_necessity_rejection():
    checks = {(1, 4, 5, 4): "lambda*(g-1) must be even",
              (1, 4, 6, 3): "g*(u-1) must be divisible by k=4",
              (2, 4, 2, 4): "u >= 3 is required"}
    for tup, reason in checks.items():
        feas = check_feasibility(Params(*tup))
        assert feas.verdict == "infeasible" and feas.detail == reason, tup
    _report(4, "necessity violations rejected with their named condition")


def _single_edit(dec, p, rng):
    """One random single edit: move/delete/duplicate a cycle's worth of
    edges, tweak one vertex, or relabel one hole."""
    factors = list(dec.factors)
    fi = rng.randrange(len(factors))
    f = factors[fi]
    op = rng.choice(("delete", "duplicate", "move", "tweak", "relabel"))
    cycles = list(f.cycles)
    if op == "delete":
        cycles.pop(rng.randrange(len(cycles)))
        factors[fi] = PartialFactor(f.cycle_length, f.hole, tuple(cycles))
    elif op == "duplicate":
        cycles.append(cycles[rng.randrange(len(cycles))])
        factors[fi] = PartialFactor(f.cycle_length, f.hole, tuple(cycles))
    elif op == "move":
        fj = (fi + 1 + rng.randrange(len(factors) - 1)) % len(factors)
        moved = cycles.pop(rng.randrange(len(cycles)))
        factors[fi] = PartialFactor(f.cycle_length, f.hole, tuple(cycles))
        g = factors[fj]
        factors[fj] = PartialFactor(g.cycle_length, g.hole, tuple(list(g.cycles) + [moved]))
    elif op == "tweak":
        ci = rng.randrange(len(cycles))
        cyc = list(cycles[ci])
        vi = rng.randrange(len(cyc))
        part, slot = cyc[vi]
        cyc[vi] = (part, (slot + 1 + rng.randrange(p.g - 1)) % p.g)
        cycles[ci] = tuple(cyc)
        factors[fi] = PartialFactor(f.cycle_length, f.hole, tuple(cycles))
    else:
        hole = (f.hole + 1 + rng.randrange(p.u - 1)) % p.u
        factors[fi] = PartialFactor(f.cycle_length, hole, f.cycles)
    return Decomposition(tuple(factors), dec.provenance)


def test_criterion_5_verifier_soundness(built):
    bases = SWEEP[:4]
    rng = random.Random(0xC0FFEE)
    caught = 0
    for tup in bases:
        p = Params(*tup)
        dec = built[tup][0]
        for _ in range(1000):
            mutated = _single_edit(dec, p, rng)
            result = verify_arcs(mutated, p)
            assert not result, (tup, "mutation slipped through")
            caught += 1
    _report(5, f"{caught} random single edits across {len(bases)} bases all caught")


def test_criterion_6_oracle_cross_check():
    for tup in [(2, 4, 5, 2), (1, 4, 5, 3)]:
        p = Params(*tup)
        out = brute_force_arcs(p, budget=10_000_000)
        assert out.status == "found", tup
        assert verify_arcs(out.decomposition, p), tup
    _report(6, "exact-cover oracle found verified systems for both probes")


def test_criterion_7_block_unit_properties():
    for u in range(3, 16, 2):
        fs = blocks.near_one_factorization(u)
        union = Counter()
        for f in fs:
            union.update(f.edges)
        assert sorted(f.missing for f in fs) == list(range(u))
        assert union == Counter({(i, j): 1 for i, j in itertools.combinations(range(u), 2)})
    for k in range(4, 13, 2):
        dec = blocks.near_cycle_factorization_doubled(k, k + 1).decomposition
        union = edge_multiset(dec.factors)
        assert set(union.values()) == {2} and len(union) == (k + 1) * k // 2
    for k in range(6, 17, 2):
        hams, one_factors = blocks.walecki_split(k)
        union = Counter(e for lf in one_factors for e in lf)
        for cyc in hams:
            union.update(tuple(sorted((cyc[i], cyc[(i + 1) % k]))) for i in range(k))
        assert union == Counter({e: 1 for e in itertools.combinations(range(k), 2)})
    for k, t in [(4, 3), (6, 3), (4, 5)]:
        res = blocks.ring_factorization(k, t, k * t)
        assert res.strategy == blocks.EXPLICIT
        dec = res.decomposition
        assert len(dec.factors) == t - 1
        assert all(len(f.cycles) == 1 and f.cycle_length == k * t for f in dec.factors)
    _report(7, "near 1-factors, doubled zigzags, walecki splits and Hamilton "
               "splittings all exact")


def test_criterion_8_determinism(tmp_path):
    args = ["build", "--lambda", "2", "--k", "8", "--u", "4", "--g", "8"]
    first, second = tmp_path / "run1.json", tmp_path / "run2.json"
    assert cli_main(args + ["-o", str(first)]) == 0   # warms every block cache
    assert cli_main(args + ["-o", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    args = ["build", "--lambda", "2", "--k", "4", "--u", "9", "--g", "2"]
    third, fourth = tmp_path / "run3.json", tmp_path / "run4.json"
    assert cli_main(args + ["-o", str(third)]) == 0
    assert cli_main(args + ["-o", str(fourth)]) == 0
    assert third.read_bytes() == fourth.read_bytes()
    _report(8, "consecutive warm-cache builds byte-identical")
