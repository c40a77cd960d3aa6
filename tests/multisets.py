"""Edge multisets of claimed factors, for tests that compare exact covers."""

from __future__ import annotations

from collections import Counter

from cycleframe.graphs import edge_key


def edge_multiset(factors) -> Counter:
    """Every cycle edge of `factors`, normalized, counted with multiplicity."""
    return Counter(edge_key(cyc[i - 1], cyc[i])
                   for f in factors for cyc in f.cycles for i in range(len(cyc)))
