import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from relaydde import History, evolve
from relaydde import _csv
from relaydde._csv import BLOCK, csv_text


def _reference(header, columns):
    """The per-value f-string text csv_text must reproduce byte for byte."""
    rows = zip(*(c.tolist() if c.dtype.kind == "f" else c.astype(str).tolist()
                 for c in columns))
    return "\n".join([header, *(",".join(v if isinstance(v, str) else f"{v:.17g}"
                                         for v in row) for row in rows)])


def _check(values):
    v = np.asarray(values, dtype=np.float64)
    got = csv_text("v", [v])
    want = _reference("v", [v])
    if got != want:
        bad = [(float(x), g, w) for x, g, w in
               zip(v.tolist(), got.split("\n")[1:], want.split("\n")[1:]) if g != w]
        raise AssertionError(f"{len(bad)} values differ, e.g. {bad[:5]}")


def _count_fallbacks(monkeypatch):
    calls = {"format": 0}

    def counting(x, spec):
        calls["format"] += 1
        return format(x, spec)
    monkeypatch.setattr(_csv, "format", counting, raising=False)
    return calls


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(width=64), min_size=1, max_size=64))
def test_bytes_equal_format_on_any_double(xs):
    _check(xs)


def test_bytes_equal_format_on_random_bit_patterns():
    rng = np.random.default_rng(2024)
    _check(rng.integers(0, 2 ** 64, 100_000, dtype=np.uint64).view(np.float64))
    # the same mantissas at the exponents of everyday values
    scale = 10.0 ** rng.integers(-8, 20, 100_000)
    _check(rng.standard_normal(100_000) * scale)
    # short decimals, whose digit strings end in zeros
    _check(np.round(rng.random(100_000) * 2000 - 1000, 6))


def test_edge_values():
    fixed_to_exp = 9.9999999999999995e-05
    _check([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
            1.7976931348623157e308, -1.7976931348623157e308, math.inf, -math.inf, math.nan,
            1e16, 1e17, 99999999999999999.0, 9999999999999998.0, 1e16 - 2, 1e17 - 16,
            fixed_to_exp, np.nextafter(fixed_to_exp, 1.0), -fixed_to_exp,
            1e-4, 1e-5, 0.1, 1.0, -1.0, 10.0, 1e22, 1e23, 1e100, 1e-100, 1e-270, 1e290,
            np.nextafter(1e-270, 0.0), np.nextafter(1e290, 0.0)])


def test_ties_round_half_even(monkeypatch):
    """n / 2^j with n odd has j decimals ending in 5: with 18 significant
    digits, rounding to 17 is an exact tie, which format() decides."""
    rng = np.random.default_rng(5)
    values = []
    for lead_digits in range(-2, 16):      # decimal exponent of the value, plus one
        j = 18 - lead_digits
        lo = 10.0 ** (lead_digits - 1) * 2.0 ** j
        n = rng.integers(int(lo), int(lo * 10), 200) | 1
        ties = n / 2.0 ** j
        assert all(len(f"{x:.25f}".rstrip("0").replace(".", "").lstrip("0")) == 18
                   for x in ties[:5].tolist()), lead_digits
        values.extend(ties.tolist())
    values = np.array(values)
    calls = _count_fallbacks(monkeypatch)
    _check(values)
    _check(-values)
    assert calls["format"] == 2 * values.size


def test_powers_of_ten_and_neighbours():
    """Every power of ten the kernel's table holds, and the doubles nearest
    the powers beyond it."""
    powers = np.array([float(10 ** k) if k >= 0 else 1 / 10 ** -k for k in range(-323, 309)])
    _check(np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
                           -powers]))


def test_no_fallback_on_a_plain_trajectory(monkeypatch, p1):
    traj = evolve(p1, History.constant(1.0, 1.0), 1000.0)
    ts = np.linspace(-1.0, 1000.0, 100_000)
    xs = traj.sample(ts)
    calls = _count_fallbacks(monkeypatch)
    got = csv_text("t,x", (ts, xs))
    assert calls["format"] == 0
    assert got == _reference("t,x", (ts, xs))
    calls["format"] = 0
    _check([0.0, math.nan])
    assert calls["format"] == 2


def test_block_boundaries():
    rng = np.random.default_rng(11)
    for n in (0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3):
        a = rng.standard_normal(n)
        b = rng.random(n) * 1e-6
        case = np.array(["RNRN", "FPFP", "FNRP"], dtype="S")[rng.integers(0, 3, n)]
        cols = (a, case, b)
        got = csv_text("a,case,b", cols)
        assert got == _reference("a,case,b", cols), n
        assert got.count("\n") == n
