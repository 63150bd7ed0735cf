"""Exact ``.17g`` CSV text from float64 columns, computed with numpy.

``csv_text(header, columns)`` returns exactly the text of

    "\\n".join([header, *(",".join(f"{v:.17g}" for v in row) for row in rows)])

without one ``format`` call per value. For a double ``v`` with decimal
exponent ``k`` the 17 significant digits are ``D = round(|v|·10^(16−k))``:

* ``|v|·10^p`` is formed in double-double arithmetic, as Dekker's error-free
  product of ``|v|`` with the double nearest ``10^p`` plus ``|v|`` times the
  double nearest the remainder. For ``0 <= p <= 22`` the power is exact and so
  is the product; elsewhere the error is below 1e-14 in units of the last
  digit.
* ``k`` starts as ``floor(log10|v|)`` and moves by one when the product lies
  outside ``[1e16, 1e17)``; a ``D`` that rounds up to ``10^17`` becomes
  ``10^16`` with ``k + 1``, as ``format`` does.
* A value the kernel cannot certify is formatted by ``format(v, ".17g")``:
  zero, a value outside ``[1e-270, 1e290)`` (subnormals and non-finite
  values included), and a value whose scaled fraction lies within
  ``_MARGIN`` of one half, where round-half-even needs the exact tie.

The text is laid out by a table indexed by (exponent class, kept digits) that
lists, for each output byte, the source byte it takes: the sign, one of the 17
digits, an exponent digit or a constant. Trailing zeros and the NUL padding
are dropped by one boolean compress. Rows are processed in blocks of
``BLOCK`` so that the intermediates stay small.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence

import numpy as np

#: rows per block: every intermediate array is O(BLOCK)
BLOCK = 4096

_WIDTH = 24                   # the longest text, "-1.2345678901234567e-308"
_LO, _HI = 1e-270, 1e290      # |v| the kernel formats; k in [-270, 289]
_K_MIN, _K_MAX = -272, 291    # k after the +-1 corrections and the carry
_MARGIN = 1e-9                # fraction this close to 1/2: left to format()
_SPLIT = 134217729.0          # 2**27 + 1, Veltkamp's splitting constant

# source columns of the layout gather: sign, 17 digits, the three digits of
# |k|, then constants
_SIGN, _DIG, _EXP = 0, 1, 18
_NUL, _DOT, _ZERO, _E, _PLUS, _MINUS = range(21, 27)
_CONST = np.frombuffer(b"\0.0e+-\0", dtype=np.uint8)
_NCOL = 28                    # even: digits 1..16 are 2-byte aligned pairs
_N_FIXED = 21                 # classes 0..20: fixed notation, k = -4..16


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = _SPLIT * x
    hi = c - (c - x)
    return hi, x - hi


@functools.cache
def _powers() -> tuple[np.ndarray, ...]:
    """For k = _K_MIN.._K_MAX: the double nearest 10^(16-k), its two Veltkamp
    halves and the double nearest the remainder, from integer arithmetic on
    the first call."""
    head, tail = [], []
    for p in range(16 - _K_MIN, 16 - _K_MAX - 1, -1):
        if p >= 0:
            n = 10 ** p
            h = float(n)
            tail.append(float(n - int(h)))
        else:
            d = 10 ** -p
            h = 1 / d                          # int / int rounds correctly
            num, den = h.as_integer_ratio()
            tail.append((den - num * d) / (d * den))
        head.append(h)
    head = np.array(head)
    return (head, *_split(head), np.array(tail))


@functools.cache
def _layouts() -> tuple[np.ndarray, ...]:
    """For k = _K_MIN.._K_MAX: the layout class and the ASCII digits of |k|;
    and the templates, one row per (class, kept digits)."""
    ks = range(_K_MIN, _K_MAX + 1)
    cls = np.array([k + 4 if -4 <= k <= 16 else
                    _N_FIXED + 2 * (k >= 0) + (abs(k) >= 100) for k in ks], dtype=np.intp)
    exp = np.array([[48 + abs(k) // 100, 48 + abs(k) // 10 % 10, 48 + abs(k) % 10]
                    for k in ks], dtype=np.uint8)
    templates = np.array([_layout(c, nd) for c in range(_N_FIXED + 4)
                          for nd in range(1, 18)], dtype=np.intp)
    return cls, exp, templates


def _layout(cls: int, nd: int) -> list[int]:
    """Source columns of the text of a value of class ``cls`` with ``nd``
    significant digits kept, NUL-padded to _WIDTH."""
    digits = [_DIG + i for i in range(nd)]
    if cls < _N_FIXED:
        k = cls - 4
        if k >= 0:                # digits past nd are '0' in the source
            cols = [_DIG + i for i in range(k + 1)]
            if nd > k + 1:
                cols += [_DOT, *digits[k + 1:]]
        else:
            cols = [_ZERO, _DOT, *[_ZERO] * (-k - 1), *digits]
    else:
        positive, three = divmod(cls - _N_FIXED, 2)
        cols = digits[:1] + ([_DOT, *digits[1:]] if nd > 1 else [])
        cols += [_E, _PLUS if positive else _MINUS]
        cols += [_EXP, _EXP + 1, _EXP + 2] if three else [_EXP + 1, _EXP + 2]
    cols = [_SIGN, *cols]
    return cols + [_NUL] * (_WIDTH - len(cols))


#: the text of 0..99 as two bytes, the first in the low half
_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), dtype="<u2")
#: trailing zeros of the text of 0..99
_PAIR_ZEROS = np.array([2] + [1 - bool(i % 10) for i in range(1, 100)])


def _scaled(a: np.ndarray, k: np.ndarray):
    """``a·10^(16-k)`` as an unevaluated sum hi + lo, hi the rounded product."""
    head, head_hi, head_lo, tail = _powers()
    i = k - _K_MIN
    t, t_hi, t_lo = head[i], head_hi[i], head_lo[i]
    hi = a * t
    a_hi, a_lo = _split(a)
    err = ((a_hi * t_hi - hi) + a_hi * t_lo + a_lo * t_hi) + a_lo * t_lo
    return hi, err + a * tail[i]


def _format(v: np.ndarray) -> np.ndarray:
    """The .17g text of each value as a (len(v), _WIDTH) NUL-padded byte matrix."""
    cls_of, exp_of, templates = _layouts()
    a = np.abs(v)
    ok = (a >= _LO) & (a < _HI)
    a = np.where(ok, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.intp)
    hi, lo = _scaled(a, k)
    # log10 can land one decade off next to a power of ten
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    high = hi >= 1e17
    if low.any() or high.any():
        j = np.flatnonzero(low | high)
        k[j] += np.where(low[j], -1, 1)
        hi[j], lo[j] = _scaled(a[j], k[j])
    whole = np.floor(lo)
    frac = lo - whole
    ok &= np.abs(frac - 0.5) >= _MARGIN
    d = hi.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    k += carry

    # D = 10^16·lead + 10^8·x[0] + x[1] with both halves below 10^8, so the
    # 2-digit groups and the trailing zeros come from uint32 arithmetic
    upper = d // 10 ** 8
    lead = upper // 10 ** 8
    x = np.empty((2, v.size), dtype=np.uint32)
    x[0] = upper - lead * 10 ** 8
    x[1] = d - upper * 10 ** 8
    src = np.empty((v.size, _NCOL), dtype=np.uint8)
    src[:, _SIGN] = np.signbit(v) * 45
    src[:, _DIG] = lead + 48
    pairs = src.view("<u2")
    zeros = np.zeros((2, v.size), dtype=np.intp)    # trailing zeros per half
    all_zero = np.ones((2, v.size), dtype=bool)     # every group so far is 00
    for j in range(4):
        q = x // 100
        r = x - 100 * q
        pairs[:, 4 - j] = np.take(_PAIRS, r[0])
        pairs[:, 8 - j] = np.take(_PAIRS, r[1])
        zeros += all_zero * np.take(_PAIR_ZEROS, r)
        all_zero &= r == 0
        x = q
    kept = 17 - zeros[1] - all_zero[1] * zeros[0]
    src[:, _NUL:] = _CONST
    i = k - _K_MIN
    cls = cls_of[i]
    e = np.flatnonzero(cls >= _N_FIXED)          # exponent notation
    src[e, _EXP:_EXP + 3] = exp_of[i[e]]
    rows = np.take(templates, cls * 17 + kept - 1, axis=0)
    rows += np.arange(0, v.size * _NCOL, _NCOL)[:, None]
    out = src.ravel()[rows]

    bad = np.flatnonzero(~ok)
    if bad.size:
        text = [format(b, ".17g") for b in v[bad].tolist()]
        out[bad] = np.array(text, dtype=f"S{_WIDTH}").view(np.uint8).reshape(-1, _WIDTH)
    return out


def csv_text(header: str, columns: Sequence[np.ndarray]) -> str:
    """Header line plus one line per row, without a final newline.

    Each column is a float64 array, written as ``.17g``, or a bytes (``S``)
    array, written as is. All columns have the same length.
    """
    cols = [np.ascontiguousarray(c) for c in columns]
    n = len(cols[0])
    # the text goes straight into one buffer sized for the widest rows: a
    # list of per-block strings joined at the end would hold it twice
    head = header.encode()
    row = sum(c.itemsize if c.dtype.kind == "S" else _WIDTH for c in cols) + len(cols)
    buf = np.empty(len(head) + n * row, dtype=np.uint8)
    buf[:len(head)] = np.frombuffer(head, dtype=np.uint8)
    end = len(head)
    for lo in range(0, n, BLOCK):
        texts = [c[lo:lo + BLOCK].view(np.uint8).reshape(-1, c.itemsize)
                 if c.dtype.kind == "S" else _format(c[lo:lo + BLOCK]) for c in cols]
        # each row is "\n" + the columns joined by ","
        line = np.full((texts[0].shape[0], row), 44, dtype=np.uint8)
        line[:, 0] = 10
        at = 1
        for t in texts:
            line[:, at:at + t.shape[1]] = t
            at += t.shape[1] + 1
        flat = line.ravel()
        kept = flat[flat != 0]
        buf[end:end + kept.size] = kept
        end += kept.size
    return str(buf[:end].data, "ascii")
