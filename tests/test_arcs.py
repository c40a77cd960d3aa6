from __future__ import annotations

from collections import Counter

import pytest

from cycleframe import arcs, graphs
from cycleframe.arcs import (_BUILDERS_L2, ArcsUnavailable, Params, PrimeSplit,
                             _match_lambda1, _splits, build_arcs, build_case_l1,
                             build_case_primesplit_l1, build_case_primesplit_l2,
                             build_case_u4x, build_case_uodd_g0modk_l2,
                             check_feasibility, expected_counts)
from cycleframe.verify import verify_arcs


def feasib(*tup):
    return check_feasibility(Params(*tup))


# ---------------------------------------------------------------------------
# Feasibility and exceptions


def test_necessity_rejections_name_the_condition():
    assert feasib(1, 4, 5, 4).detail == "lambda*(g-1) must be even"
    assert feasib(1, 4, 6, 3).detail.startswith("g*(u-1)")
    assert feasib(2, 4, 2, 4).detail.startswith("u >=")
    assert feasib(2, 4, 5, 1).detail.startswith("g >=")


def test_exception_families():
    assert feasib(2, 4, 8, 4).detail == "(2s,4t,8)"
    assert feasib(2, 4, 8, 8).detail == "(2s,4t,8)"
    assert feasib(2, 4, 4, 4).detail == "(2s,4,4x)"
    assert feasib(2, 4, 6, 4).detail == "(2s,4t,4x+2)"
    assert feasib(2, 6, 6, 6).detail == "(4t+2,4s+2)"
    assert feasib(2, 6, 8, 6).detail == "(8,4s+2)"
    assert feasib(2, 6, 4, 12).detail == "(4t,6y,6)"
    assert feasib(1, 4, 9, 3).detail == "(2x+1,4t,8t+1,y)"
    assert feasib(3, 4, 9, 3).detail == "(2x+1,4t,8t+1,y)"
    assert feasib(1, 12, 9, 3).detail == "(2x+1,rs,2r+1,sy)"
    for tup in [(2, 4, 8, 4), (2, 4, 4, 4), (2, 6, 6, 6)]:
        assert feasib(*tup).verdict == "open_exception"


def test_case_assignments():
    assert feasib(1, 4, 5, 3).detail == "case a"
    assert feasib(1, 4, 13, 3).detail == "case a"
    assert feasib(1, 12, 5, 3).detail == "case b"
    assert feasib(2, 4, 5, 2).detail == "case c"
    assert feasib(2, 6, 3, 6).detail == "case d"
    assert feasib(2, 6, 4, 6).detail == "case e"
    assert feasib(2, 8, 4, 8).detail == "case e"
    assert feasib(2, 8, 12, 16 // 2).detail in ("case e", "case h")  # g = 8, y = 1
    assert feasib(2, 12, 5, 6).detail == "case g"
    assert feasib(2, 6, 4, 4).detail == "case h"
    assert feasib(2, 6, 3, 3).detail == "case remark"
    assert feasib(3, 4, 5, 3).detail == "case a"


def test_unsupported_cases_are_reported_not_built():
    for tup in [(2, 6, 4, 2), (2, 8, 5, 4), (2, 4, 3, 6), (1, 6, 7, 3)]:
        f = feasib(*tup)
        assert f.verdict == "unsupported"
        with pytest.raises(ArcsUnavailable):
            build_arcs(Params(*tup))


@pytest.mark.parametrize("lam", [2, 3, 4])
def test_single_route_cells_stack_single_copies(lam):
    # (k, u, g) = (12, 5, 3) has the lambda = 1 route b and no doubled route,
    # so every lambda is lambda single copies of the case b system
    p = Params(lam, 12, 5, 3)
    assert feasib(lam, 12, 5, 3).detail == "case b"
    dec = build_arcs(p)
    assert verify_arcs(dec, p)
    single = build_arcs(Params(1, 12, 5, 3))
    assert dec.factors == single.factors * lam
    assert dec.provenance == tuple(f"case b[single copy {i}]"
                                   for i in range(lam) for _ in single.factors)


def test_no_cell_with_a_single_route_is_unsupported():
    # lambda single copies of a lambda = 1 system are a lambda-fold system,
    # so only an exception family may refuse such a cell
    for k in range(4, 17, 2):
        for u in range(3, 34):
            for g in range(3, 25, 2):
                if _match_lambda1(k, u, g) is None:
                    continue
                for lam in range(1, 6):
                    assert feasib(lam, k, u, g).verdict in ("feasible", "open_exception")


def test_expected_counts_formulas():
    assert expected_counts(Params(2, 4, 5, 2)) == (5, 1, 8)
    assert expected_counts(Params(1, 4, 5, 3)) == (5, 1, 12)
    assert expected_counts(Params(2, 6, 3, 6)) == (15, 5, 12)


def test_prime_splits():
    sps = _splits(12)
    assert [(sp.r, sp.s) for sp in sps] == [(2, 6), (3, 4), (4, 3), (6, 2)]


def test_splits_match_the_full_divisor_scan():
    for k in range(1, 3000):
        assert _splits(k) == [PrimeSplit(r, k // r) for r in range(2, k) if k % r == 0]


def test_huge_cycle_length_is_answered_at_once():
    # the splits of k come from its divisors up to sqrt(k), so this answers at once
    f = feasib(2, 2 * 10**12, 3, 10**12)
    assert f.verdict == "unsupported"


# ---------------------------------------------------------------------------
# Builders against the independent verifier


def assert_valid(p, factors):
    dec = graphs.Decomposition(tuple(factors), tuple("t" for _ in factors))
    result = verify_arcs(dec, p)
    assert result, (result.reason, result.path)


@pytest.mark.parametrize("tup", [(2, 4, 5, 2), (2, 4, 5, 3), (2, 6, 7, 2), (2, 4, 9, 2)])
def test_build_case_u1modk(tup):
    p = Params(*tup)
    assert feasib(*tup).case == "c" and feasib(*tup).split is None
    factors = _BUILDERS_L2["c"](p, None)
    assert len(factors) == p.u * (p.g - 1)
    assert_valid(p, factors)


@pytest.mark.parametrize("tup", [(2, 4, 3, 4), (2, 6, 3, 6), (2, 4, 5, 4), (2, 6, 5, 6)])
def test_build_case_uodd(tup):
    p = Params(*tup)
    factors = build_case_uodd_g0modk_l2(p)
    assert len(factors) == p.u * (p.g - 1)
    assert_valid(p, factors)


@pytest.mark.parametrize("tup", [(2, 6, 4, 6), (2, 8, 4, 8), (2, 6, 12, 6), (2, 8, 12, 16)])
def test_build_case_u4x(tup):
    p = Params(*tup)
    factors = build_case_u4x(p)
    assert len(factors) == p.u * (p.g - 1)
    assert_valid(p, factors)


def test_build_case_u4x_rejects_x2():
    with pytest.raises(graphs.ParameterError):
        build_case_u4x(Params(2, 6, 8, 6))


@pytest.mark.parametrize("tup,r,s", [((2, 12, 5, 6), 4, 3), ((2, 6, 4, 4), 3, 2)])
def test_build_case_primesplit_l2(tup, r, s):
    p = Params(*tup)
    split = next(sp for sp in _splits(p.k) if (sp.r, sp.s) == (r, s))
    factors = build_case_primesplit_l2(p, split)
    assert len(factors) == p.u * (p.g - 1)
    assert_valid(p, factors)


@pytest.mark.parametrize("tup", [(1, 4, 5, 3), (1, 4, 13, 3), (1, 4, 5, 5), (1, 8, 9, 3)])
def test_build_case_l1(tup):
    p = Params(*tup)
    factors = build_case_l1(p)
    assert len(factors) == p.u * (p.g - 1) // 2
    assert_valid(p, factors)


def test_build_case_l1_rejects_x2():
    with pytest.raises(graphs.ParameterError):
        build_case_l1(Params(1, 4, 9, 3))


@pytest.mark.parametrize("tup,r,s", [((1, 12, 5, 3), 4, 3), ((1, 12, 13, 3), 4, 3),
                                     ((1, 12, 5, 9), 4, 3)])
def test_build_case_primesplit_l1(tup, r, s):
    p = Params(*tup)
    split = next(sp for sp in _splits(p.k) if (sp.r, sp.s) == (r, s))
    factors = build_case_primesplit_l1(p, split)
    assert len(factors) == p.u * (p.g - 1) // 2
    assert_valid(p, factors)


def test_build_case_primesplit_l1_rejects_x2():
    split = next(sp for sp in _splits(12) if (sp.r, sp.s) == (4, 3))
    with pytest.raises(graphs.ParameterError):
        build_case_primesplit_l1(Params(1, 12, 9, 3), split)


# ---------------------------------------------------------------------------
# Dispatcher


def test_build_arcs_end_to_end_and_counts():
    for tup in [(2, 4, 5, 2), (1, 4, 5, 3), (2, 6, 3, 3), (2, 6, 4, 4)]:
        p = Params(*tup)
        dec = build_arcs(p)
        total, per_hole, per_factor = expected_counts(p)
        assert len(dec.factors) == total
        holes = Counter(f.hole for f in dec.factors)
        assert all(holes[x] == per_hole for x in range(p.u))
        assert all(sum(len(c) for c in f.cycles) == per_factor for f in dec.factors)
        assert len(dec.provenance) == len(dec.factors)


def test_lambda_scaling_even():
    p = Params(4, 4, 5, 2)
    dec = build_arcs(p)
    assert len(dec.factors) == 10
    base = build_arcs(Params(2, 4, 5, 2))
    assert dec.factors[:5] == base.factors
    assert dec.factors[5:] == base.factors


def test_lambda_scaling_odd():
    p = Params(3, 4, 5, 3)
    dec = build_arcs(p)
    assert len(dec.factors) == 15
    single = build_arcs(Params(1, 4, 5, 3))
    doubled = build_arcs(Params(2, 4, 5, 3))
    assert dec.factors == single.factors + doubled.factors


@pytest.mark.parametrize("tup,case,doubled", [
    ((2, 12, 5, 6), "g", ("g", PrimeSplit(4, 3))),  # doubled copies only
    ((3, 4, 5, 3), "a", ("c", None)),  # a single copy and a doubled one
    ((2, 12, 5, 3), "b", None),  # no doubled route: single copies
])
def test_build_arcs_matches_each_route_once(tup, case, doubled, monkeypatch):
    # build_arcs reads the routes from check_feasibility and matches none again
    calls = Counter()
    for name in ("_match_lambda1", "_match_lambda2"):
        def spy(*args, _real=getattr(arcs, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(arcs, name, spy)
    feas = feasib(*tup)
    assert (feas.case, feas.doubled) == (case, doubled)
    calls.clear()
    assert build_arcs(Params(*tup)).factors
    assert calls and max(calls.values()) == 1


def test_build_arcs_raises_for_nonfeasible():
    with pytest.raises(ArcsUnavailable) as err:
        build_arcs(Params(2, 4, 8, 4))
    assert err.value.feasibility.verdict == "open_exception"


def test_dispatcher_totality_full_grid():
    # every verdict over the whole dispatch range is definite (no crash)
    for lam in (1, 2, 3, 4):
        for k in (4, 6, 8, 12):
            for u in range(3, 26):
                for g in range(2, 13):
                    f = check_feasibility(Params(lam, k, u, g))
                    assert f.verdict in ("feasible", "infeasible",
                                         "open_exception", "unsupported")
                    if f.verdict == "feasible":
                        assert f.case is not None


def test_build_succeeds_on_every_feasible_midrange_cell():
    # attempted iff feasible, and every attempt verifies (u, g capped to keep
    # the run quick; the full range is exercised by the CLI table test)
    for lam in (1, 2, 3):
        for k in (4, 6, 8, 12):
            for u in range(3, 14):
                for g in range(2, 9):
                    p = Params(lam, k, u, g)
                    f = check_feasibility(p)
                    if f.verdict == "feasible":
                        dec = build_arcs(p)
                        assert len(dec.factors) == expected_counts(p)[0]
                    else:
                        with pytest.raises(ArcsUnavailable):
                            build_arcs(p)


def test_params_validation():
    with pytest.raises(graphs.ParameterError):
        Params(0, 4, 5, 2)
    with pytest.raises(graphs.ParameterError):
        Params(1, 5, 5, 2)
    with pytest.raises(graphs.ParameterError):
        Params(1, 2, 5, 2)
