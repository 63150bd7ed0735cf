"""Reference cross-check of two arc chains, used by the tests."""

import math
from typing import Iterable

from relaydde.arcs import ExpArc, _tie


def chains_equal(a: Iterable[ExpArc], b: Iterable[ExpArc],
                 lo: float, hi: float, tol: float = 1e-10) -> bool:
    """Whether two chains agree as functions on [lo, hi].

    Compares (c, k) arc data on every subinterval of the merged breakpoint
    grid, with k re-anchored to the subinterval start; exact representation
    makes this a finite check.
    """
    lo_in, hi_in = lo + _tie(lo), hi - _tie(hi)
    sa = [x for x in a if x.t_end > lo_in and x.t_start < hi_in]
    sb = [x for x in b if x.t_end > lo_in and x.t_start < hi_in]
    if not sa or not sb:
        return False
    pts = sorted({lo, hi}
                 | {p for x in sa for p in (x.t_start, x.t_end) if lo < p < hi}
                 | {p for x in sb for p in (x.t_start, x.t_end) if lo < p < hi})
    ia = ib = 0
    tie_right = _tie(pts[0])
    for left, right in zip(pts[:-1], pts[1:]):
        tie_left, tie_right = tie_right, _tie(right)
        if right - left <= tie_right:
            continue
        left_in = left + tie_left
        while ia < len(sa) - 1 and sa[ia].t_end <= left_in:
            ia += 1
        while ib < len(sb) - 1 and sb[ib].t_end <= left_in:
            ib += 1
        aa, bb = sa[ia], sb[ib]
        if aa.t_start > left_in or bb.t_start > left_in:
            return False
        ka = aa.k * math.exp(-(left - aa.t_start))
        kb = bb.k * math.exp(-(left - bb.t_start))
        scale = max(1.0, abs(aa.c), abs(bb.c), abs(ka), abs(kb))
        if abs(aa.c - bb.c) > tol * scale or abs(ka - kb) > tol * scale:
            return False
    return True
