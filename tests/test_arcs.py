import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaydde import (ExpArc, History, IdenticallyZeroHistory, NonTransversalArc,
                      ValidationError)
from relaydde.arcs import TIE_EPS


def test_arc_zero_example():
    z = ExpArc(0.0, 2.0, -0.8, 1.8).crossing(0.0)
    assert z is not None
    assert math.isclose(z, math.log(2.25), rel_tol=0, abs_tol=1e-15)


def test_arc_zero_none_when_signs_agree():
    assert ExpArc(0.0, 5.0, 0.4, 0.6).crossing(0.0) is None


def test_arc_zero_excludes_start_boundary():
    # zero sits exactly at t_start = 1, outside the open lower bound
    assert ExpArc(1.0, 1.1, 0.5, -0.5).crossing(0.0) is None


def test_arc_zero_identically_zero_raises():
    with pytest.raises(NonTransversalArc):
        ExpArc(0.0, 1.0, 0.0, 0.0).crossing(0.0)


def test_arc_zero_constant_nonzero():
    assert ExpArc(0.0, 1.0, 0.7, 0.0).crossing(0.0) is None


def _bisect(f, lo, hi):
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if (flo < 0) == (fm < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


@given(c=st.floats(0.05, 3.0), k=st.floats(0.05, 3.0),
       sign=st.booleans(), span=st.floats(0.5, 20.0))
@settings(max_examples=300)
def test_arc_zero_matches_bisection(c, k, sign, span):
    # opposite signs of c and k admit a crossing iff it lands inside the span
    arc = ExpArc(0.0, span, c if sign else -c, -k if sign else k)
    z = arc.crossing(0.0)
    t_root = math.log(-arc.k / arc.c) if -arc.k / arc.c > 0 else None
    if z is None:
        assert t_root is None or not 1e-12 < t_root <= span - 1e-12
        return
    ref = _bisect(arc.value, max(0.0, z - 0.5), min(span, z + 0.5))
    assert abs(z - ref) < 1e-10
    eps = min(0.01, (span - z) / 2, z / 2)
    assert arc.value(z - eps) * arc.value(z + eps) < 0


def test_arc_span_validation():
    with pytest.raises(ValidationError):
        ExpArc(1.0, 1.0, 0.5, 0.5)


def test_level_crossing():
    arc = ExpArc(0.0, 5.0, 1.0, -1.0)   # rises from 0 toward 1
    t = arc.crossing(0.5)
    assert t is not None and math.isclose(arc.value(t), 0.5, abs_tol=1e-14)
    assert arc.crossing(1.5) is None    # above the asymptote


def test_crossing_rules():
    # x = 1 - 2 e^{-t} crosses 0 at ln 2
    t = math.log(2.0)
    tie = TIE_EPS * max(1.0, t)
    assert ExpArc(0.0, 5.0, 1.0, -2.0).crossing() == t
    # within a tie of t_end, on either side: the junction's, not the arc's
    for end in (t + 0.5 * tie, t - 0.5 * tie):
        assert ExpArc(0.0, end, 1.0, -2.0).crossing() is None
    assert ExpArc(0.0, t - 2 * tie, 1.0, -2.0).crossing() is None
    assert ExpArc(0.0, t + 2 * tie, 1.0, -2.0).crossing() == t
    # x = 1 - (1 + d) e^{-(t - 3)} crosses 0 at 3 + log(1 + d); tie(3) = 3e-13
    for d in (0.0, 1.5e-13):   # at t_start, or within a tie above it
        assert ExpArc(3.0, 5.0, 1.0, -(1.0 + d)).crossing() is None
    arc = ExpArc(3.0, 5.0, 1.0, -(1.0 + 6e-13))   # two ties inside
    assert arc.crossing() == 3.0 + math.log(1.0 + 6e-13)
    # r <= 0: no crossing, including the constant arc off the level
    assert ExpArc(0.0, 5.0, 1.0, 2.0).crossing() is None
    assert ExpArc(0.0, 5.0, 0.7, 0.0).crossing() is None
    # on the level: never attained, unless the arc is identically zero
    assert ExpArc(0.0, 5.0, 0.5, 1.0).crossing(0.5) is None
    assert ExpArc(0.0, 5.0, 0.5, 0.0).crossing(0.5) is None
    with pytest.raises(NonTransversalArc):
        ExpArc(0.0, 5.0, 0.0, 0.0).crossing(0.0)


def test_history_validation():
    with pytest.raises(ValidationError) as exc:
        History((ExpArc(-1.0, -0.5, 1.0, 0.0), ExpArc(-0.5, 0.0, 2.0, 0.0)))
    assert exc.value.clause == "history_continuity"
    with pytest.raises(IdenticallyZeroHistory):
        History((ExpArc(-1.0, 0.0, 0.0, 0.0),))
    with pytest.raises(IdenticallyZeroHistory):
        History.constant(0.0, 1.0)
    with pytest.raises(ValidationError):
        History((ExpArc(-1.0, -0.2, 1.0, 0.0),))   # does not reach 0


def test_history_zeros_and_z0():
    hist = History.constant(1.0, 1.0)
    assert hist.zeros() == []
    assert hist.is_z0()

    # one interior sign change at ln(2) - 1... solve 1 - 2 e^{-(t+1)} = 0
    hist = History((ExpArc(-1.0, 0.0, 1.0, -2.0),))
    zs = hist.zeros()
    assert len(zs) == 1 and math.isclose(zs[0], math.log(2.0) - 1.0, abs_tol=1e-14)
    assert hist.is_z0()

    # grazing contact at an interior breakpoint: falls to 0, rises back
    down = ExpArc(-2.0, -1.0, -1.0, math.exp(1.0))    # ends at -1 + e*e^{-1} = 0
    up = ExpArc(-1.0, 0.0, 1.0, -1.0)                 # starts at 0, rises to 1 - 1/e
    hist = History((down, up))
    assert hist.value(-1.0) == pytest.approx(0.0, abs=1e-15)
    zs = hist.zeros()
    assert len(zs) == 1 and math.isclose(zs[0], -1.0, abs_tol=1e-12)
    assert not hist.is_z0()                           # zero without sign change
    assert hist.branch_markers((0.0,)) == []          # grazing schedules no switch


def test_history_branch_markers_sign_change():
    hist = History((ExpArc(-1.0, 0.0, 1.0, -2.0),))
    markers = hist.branch_markers((0.0,))
    assert len(markers) == 1
    t, branch = markers[0]
    assert math.isclose(t, math.log(2.0) - 1.0, abs_tol=1e-14)
    assert branch == 1   # moved upward across 0


@pytest.mark.parametrize("c,k", [(math.nan, 0.0), (math.inf, 0.0), (1.0, math.nan),
                                 (0.5, -math.inf)])
def test_history_rejects_non_finite_arcs(c, k):
    # NaN also fails no continuity comparison, so it needs its own gate
    for hist in (lambda: History((ExpArc(-1.0, 0.0, c, k),)),
                 lambda: History((ExpArc(-1.0, -0.5, 1.0, 0.0), ExpArc(-0.5, 0.0, c, k)))):
        with pytest.raises(ValidationError) as exc:
            hist()
        assert exc.value.clause == "history_finite"
    with pytest.raises(ValidationError) as exc:
        History.constant(c + k, 1.0)     # the arc's start value, not finite
    assert exc.value.clause == "history_finite"


def _three_arc_history() -> History:
    """A continuous three-arc history on [-1.5, 0]."""
    first = ExpArc(-1.5, -0.9, 0.3, 0.7)
    second = ExpArc(-0.9, -0.35, -0.45, first.end_value + 0.45)
    return History((first, second, ExpArc(-0.35, 0.0, 0.9, second.end_value - 0.9)))


def test_history_value_takes_the_earlier_arc_at_every_arc_end():
    hist = _three_arc_history()
    arcs = hist.arcs
    assert hist.value(-1.5).hex() == arcs[0].value(-1.5).hex()
    for arc in arcs:
        assert hist.value(arc.t_end).hex() == arc.value(arc.t_end).hex(), arc
    # the later arc gives other bits at a breakpoint, so a switch to it shows
    assert any(b.value(a.t_end) != a.value(a.t_end) for a, b in zip(arcs, arcs[1:]))


def test_history_value_tie_tolerance_at_the_span_ends():
    hist = _three_arc_history()
    first, last = hist.arcs[0], hist.arcs[-1]
    # within TIE_EPS * max(1, |t|) outside [-tau, 0]: the end values
    assert hist.value(-1.5 - 0.5 * TIE_EPS * 1.5) == first.start_value
    assert hist.value(0.5 * TIE_EPS) == last.end_value
    assert hist.value(-0.5 * TIE_EPS) == last.value(-0.5 * TIE_EPS)
    for t in (-1.5 - 10 * TIE_EPS * 1.5, 10 * TIE_EPS, -2.0, 0.5, math.nan):
        with pytest.raises(ValidationError) as err:
            hist.value(t)
        assert err.value.clause == "chain_domain", t
