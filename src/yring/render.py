"""Exact ``'%.17g'`` rendering of float arrays, vectorised.

`csv_rows(values)` returns, byte for byte, what
``"".join(",".join("%.17g" % v for v in row) + "\\n" for row in values.tolist())``
returns, without a call into CPython's dtoa for each value.

The 17 significant digits of a value x are N = round(|x| * 10**(16 - X)),
X = floor(log10 |x|).  Each 10**s is held as a double-double H + L (L the
rounded remainder 10**s - H, zero where H is exact), built from Python
integers.  Dekker's split gives |x| * H exactly as p + e (Dekker,
Numer. Math. 18, 224, 1971), and |x| * L is added to e; the table of powers
follows the manner of Ryu (Adams, PLDI 2018).  The product is accurate to
better than 1e-14, so N is decided unless the product lies within _MARGIN of
a rounding tie.  Where L is zero the product is exact, and the tie goes to
the even neighbour as in CPython, since p >= 1e16 > 2**53 is even.  A value
outside the table, a value that is not finite and a value that is not
decided send its whole row to ``'%.17g'``.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

#: Dekker's splitting constant for doubles, 2**27 + 1.
_SPLIT = 134217729.0

#: Decades served by the table: 10**_X_LOW <= |x| < 10**(_X_HIGH + 1).  Far
#: enough inside the double range that no split or product of _digits
#: overflows, and that the low half of a split stays a normal number.
_X_LOW, _X_HIGH = -280, 289
_LOW, _HIGH = 10.0 ** _X_LOW, 10.0 ** (_X_HIGH + 1)
#: Powers 10**s for every s that 16 - X takes: the bounds above are doubles,
#: not powers of ten, so X reaches one decade past them, and an estimate of X
#: one more.
_S_LOW, _S_HIGH = 16 - (_X_HIGH + 2), 16 - (_X_LOW - 2)
#: Distance from a rounding tie below which an inexact product is not trusted.
#: Its error is below 1e-14 (three half-ulps of 2**-106 relative at 1e17, plus
#: a rounding of the low part); the margin leaves five decades to spare.
_MARGIN = 1e-9
#: One value's slot, 32 bytes, read as four little-endian words:
#:   0: sign, "0.000" prefix (5 bytes), leading digit, point;
#:   1-2: the other 16 digits, in four groups of four;
#:   3: exponent ("e-05", "e+100"), separator, two spare bytes.
#: Bytes a value does not use stay NUL and are dropped at the end.
_SLOT = 32
_SEPARATOR = 29


class _Tables(NamedTuple):
    high: np.ndarray  # H: 10**s rounded to a double, indexed by s - _S_LOW
    low: np.ndarray  # L: 10**s - H, rounded
    high_hi: np.ndarray  # Dekker split of H
    high_lo: np.ndarray
    quads: np.ndarray  # ASCII of 0000..9999, one '<u4' each, then the same
    #                    without trailing zeros (NUL in their place)
    prefixes: np.ndarray  # word 0 with "0.000"[:n] in bytes 1-5, for n = 0..5
    tails: np.ndarray  # word 3 from X = _X_LOW - 1 on; the last entry for fixed notation


@functools.cache
def _tables() -> _Tables:
    """Built on the first render, so commands that print no CSV never pay for it."""
    high, low = [], []
    for s in range(_S_LOW, _S_HIGH + 1):
        num, den = 10 ** max(s, 0), 10 ** max(-s, 0)
        h = num / den  # correctly rounded
        m, d = h.as_integer_ratio()
        high.append(h)
        low.append((num * d - m * den) / (den * d))  # the exact remainder, rounded
    h = np.array(high)
    c = h * _SPLIT
    h_hi = c - (c - h)
    i = np.arange(10_000)
    digits = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1).astype(np.uint8)
    kept = np.logical_or.accumulate(digits[:, ::-1] != 0, axis=1)[:, ::-1]  # up to the last nonzero
    quads = np.concatenate([digits + ord("0"), (digits + ord("0")) * kept]).view("<u4").ravel()
    prefixes = [b"\0" + b"0.000"[:n].ljust(7, b"\0") for n in range(6)]
    tails = [f"e{x:+03d}".encode().ljust(5, b"\0") for x in range(_X_LOW - 1, _X_HIGH + 2)]
    tails.append(b"\0" * 5)
    return _Tables(h, np.array(low), h_hi, h - h_hi, quads,
                   np.frombuffer(b"".join(prefixes), "<u8"),
                   np.frombuffer(b"".join(t + b",\0\0" for t in tails), "<u8"))


def _round17(t: _Tables, a: np.ndarray, x: np.ndarray):
    """N = round(a * 10**(16 - x)), whether N is undecided, and whether x is too high or low."""
    s = (16 - _S_LOW) - x
    h, lo_h, hh, hl = t.high[s], t.low[s], t.high_hi[s], t.high_lo[s]
    p = a * h
    c = a * _SPLIT
    ah = c - (c - a)
    al = a - ah
    lo = (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * lo_h
    r = np.rint(lo)
    n = p.astype(np.int64) + r.astype(np.int64)
    undecided = (np.abs(lo - r) > 0.5 - _MARGIN) & (lo_h != 0)  # exact ties are decided
    # A product within _MARGIN of 10**16 or 10**17 is not a miss: either
    # exponent then gives the same text, as the rounding carries.
    too_high = (p - 1e16) + lo < -_MARGIN
    too_low = (p - 1e17) + lo > _MARGIN
    return n, undecided, too_high, too_low


def _digits(t: _Tables, a: np.ndarray):
    """17-digit N, decimal exponent X and an undecided mask for positive a within the table."""
    x = np.floor(np.log10(a)).astype(np.int64)  # one off next to a power of ten
    n, undecided, too_high, too_low = _round17(t, a, x)
    wrong = np.flatnonzero(too_high | too_low)
    if len(wrong):
        x[wrong] += too_low[wrong].astype(np.int64) - too_high[wrong]
        n[wrong], undecided[wrong], still_high, still_low = _round17(t, a[wrong], x[wrong])
        undecided[wrong] |= still_high | still_low
    carry = n == 10**17  # rounded up into the next decade
    n[carry] = 10**16
    x += carry
    return n, x, undecided


def _slots(t: _Tables, v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write each value of v into its row of out (len(v), _SLOT); True where not decided."""
    a = np.abs(v)
    zero = a == 0
    fast = (a >= _LOW) & (a < _HIGH)
    n, x, undecided = _digits(t, np.where(fast, a, 1.0))
    undecided |= ~(fast | zero)
    n[zero] = 0
    x[zero] = 0

    # The 17 digits: a leading one and four groups of four.  A group after
    # which every group is zero comes from the second half of `quads`, so
    # trailing zeros are NUL.  (numpy's // by a constant is fast, its % is not.)
    high = n // 10**8
    low = (n - high * 10**8).astype(np.uint32)
    high = high.astype(np.uint32)
    lead = high // 10**8
    high -= lead * 10**8
    groups = np.empty((len(n), 4), np.uint32)
    groups[:, 0], groups[:, 2] = high // 10**4, low // 10**4
    groups[:, 1], groups[:, 3] = high - groups[:, 0] * 10**4, low - groups[:, 2] * 10**4
    zero_after = np.empty((len(n), 4), bool)
    zero_after[:, 3] = True
    zero_after[:, 2] = groups[:, 3] == 0
    zero_after[:, 1] = low == 0
    zero_after[:, 0] = zero_after[:, 1] & (groups[:, 1] == 0)
    # Gathered into a contiguous array, then stored: faster than a gather
    # straight into the strided slot view.
    out.view("<u4")[:, 2:6] = np.take(t.quads, groups + zero_after * np.uint32(10_000))

    # %g: fixed notation for -4 <= X < 17, else d.ddde+XX; below 1, fixed
    # notation starts with "0." and -X-1 zeros, and has no other point.
    fixed = (x >= -4) & (x < 17)
    below_one = fixed & (x < 0)
    point = ((high | low) != 0) & ~below_one
    head = t.prefixes[np.where(below_one, 1 - x, 0)]
    head |= np.signbit(v) * np.uint64(ord("-"))
    head |= (lead.astype(np.uint64) + ord("0")) << 48
    head |= point * np.uint64(ord(".") << 56)
    out.view("<u8")[:, 0] = head
    out.view("<u8")[:, 3] = t.tails[np.where(fixed, -1, x - (_X_LOW - 1))]

    # From 10 up, fixed notation keeps every integer digit, zeros included,
    # and the point moves: these few values are laid out again.
    wide = np.flatnonzero(fixed & (x > 0))
    if len(wide):
        full = np.zeros((len(wide), 18), np.uint8)
        full[:, 0] = out[wide, 6]
        full[:, 1:17] = t.quads[groups[wide]].view(np.uint8)
        shifted = np.zeros((len(wide), 19), np.uint8)  # NUL, then digits without trailing zeros
        shifted[:, 1] = out[wide, 6]
        shifted[:, 2:18] = out[wide, 8:24]
        integer = x[wide, None] + 1
        fraction = np.take_along_axis(shifted, integer + 1, axis=1) != 0
        columns = np.arange(18)
        out[wide, 6:24] = np.where(columns < integer, full,
                                   np.where(columns == integer, fraction * ord("."), shifted[:, :18]))
    return undecided


def _text(buf: np.ndarray) -> str:
    return buf.tobytes().translate(None, b"\0").decode("ascii")


def csv_rows(values: np.ndarray) -> str:
    """Rows of values as comma-separated ``'%.17g'`` cells, one line per row."""
    values = np.asarray(values, dtype=float)
    rows, cols = values.shape
    buf = np.empty((rows, cols * _SLOT), np.uint8)
    undecided = _slots(_tables(), values.ravel(), buf.reshape(rows * cols, _SLOT))
    buf[:, _SEPARATOR - _SLOT] = ord("\n")  # in place of the last separator
    text, start = [], 0
    for row in np.flatnonzero(undecided.reshape(rows, cols).any(axis=1)).tolist():
        text += [_text(buf[start:row]), ",".join(["%.17g" % v for v in values[row].tolist()])]
        text.append("\n")
        start = row + 1
    text.append(_text(buf[start:]))
    return "".join(text)
