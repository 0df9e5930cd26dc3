"""The CSV text of float64 rows, each value as ``"%.17g" % v`` writes it.

:func:`format_rows` is the number formatter of
:func:`avgdyn.scenarios.emit_csv`.  ``%.17g`` writes a finite value with
1e-4 <= |v| < 1e16 in fixed notation: its 17 significant digits, correctly
rounded half-even, with trailing zeros and a bare point dropped.  Those
values, and zeros, are formatted here in numpy, one pass per step over a run
of rows.  Every other value (0 < |v| < 1e-4, |v| >= 1e16, nan and +-inf) is
formatted by ``%`` itself.

The digits.  With e = floor(log10|v|), they are D = |v| * 10**(16 - e)
rounded half-even to an integer (:func:`_seventeen_digits`).  log10 can be
one off next to a power of ten; D then falls outside [10**16, 10**17), and
those values take the next exponent and are rounded again.  Both steps rest
on the largest double below each power of ten P in the domain lying at
least 8.3e-17 P below it, more than the 5e-17 P at which |v| * 10**(16 - e)
rounds across 10**16 or 10**17: so D is in range exactly when e is right,
and no rounding carries D to 10**17.

The layout.  The integer part is floor|v|: the largest double below an
integer N > 10**e lies at least N * 2**-53 below it, more than the
5e-17 * 10**e at which rounding D would carry into the integer part.  The
fraction's digits are D's last 16 - e, or -e - 1 zeros and all of D when
e < 0.  Each value is laid out in 4-byte lanes (sign, integer part, point,
fraction, separator) from a table of every group of 4 digits, with NUL
wherever a character is dropped, and one mask drops the NULs.
"""

from __future__ import annotations

import functools
import sys
from collections.abc import Iterator

import numpy as np

# Values per numpy pass, the CSV writer's only chunk: its temporaries stay in
# cache, and writing a record of any length holds one pass's text at a time.
PASS_VALUES = 4 * 1024


def _lane(text: bytes) -> int:
    """Up to 4 bytes of text, NUL padded, as the value of one uint32 lane."""
    return int.from_bytes(text.ljust(4, b"\0"), sys.byteorder)


_MINUS, _COMMA, _NEWLINE = _lane(b"-"), _lane(b","), _lane(b"\n")
# the point and the zeros after it of a value below 1, by exponent -4 ... -1,
# or of one at least 1
_POINT = np.array([_lane(b".000"), _lane(b".00"), _lane(b".0"), _lane(b"."), _lane(b".")])
# offsets of the four kinds of _digit_lanes()
_FULL, _LEAD, _UNIT, _TRAIL = 0, 10_000, 20_000, 30_000
# 10**m, m = 0 ... 20, exact doubles, and their Veltkamp halves (2**27 + 1
# splits a double into two of 26 bits); taken in Python floats, which round
# as float64 does
_SPLIT = 2.0**27 + 1.0
_POW10 = [float(10**m) for m in range(21)]
_POW10_HI = [_SPLIT * p - (_SPLIT * p - p) for p in _POW10]
_POW10_LO = np.array([p - hi for p, hi in zip(_POW10, _POW10_HI)])
_POW10, _POW10_HI = np.array(_POW10), np.array(_POW10_HI)
_POW10_INT = np.array([10**m for m in range(18)], dtype=np.int64)


@functools.cache
def _digit_lanes() -> np.ndarray:
    """Each number 0 ... 9999 as 4 ASCII digits in one lane, in four kinds
    of 10 000: every digit, leading zeros NUL, leading zeros but the units
    digit NUL, trailing zeros NUL.  Built on first use, so a process that
    writes no CSV neither builds nor holds it."""
    n = np.arange(10_000)[:, None]
    place = 10 ** np.arange(3, -1, -1)  # thousands first
    chars = (n // place % 10 + ord("0")).astype(np.uint8)
    lead = n >= place
    trail = n % (10 * place) != 0
    return np.concatenate([chars, chars * lead, chars * (lead | (place == 1)),
                           chars * trail]).view(np.uint32).ravel()


def _seventeen_digits(a: np.ndarray, e: np.ndarray) -> np.ndarray:
    """a * 10**(16 - e) rounded half-even to an integer, exactly, for
    1e-4 <= a < 1e16 and 16 - e in [0, 20]; a = 0 gives 0.

    10**m is an exact double for m <= 22, so Dekker's two-product (Numer.
    Math. 18, 224 (1971)) writes the exact product as p + err, with
    p = fl(a * 10**m) and |err| <= ulp(p) / 2.  Where the product is at
    least 2**53, p is an even integer, so p + rint(err) is the product
    rounded half-even, and the sum is taken in int64.
    """
    m = 16 - e
    p = a * _POW10.take(m)
    scaled = _SPLIT * a
    a_hi = scaled - (scaled - a)
    a_lo = a - a_hi
    s_hi, s_lo = _POW10_HI.take(m), _POW10_LO.take(m)
    err = ((a_hi * s_hi - p) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo
    return p.astype(np.int64) + np.rint(err).astype(np.int64)


def _groups(v: np.ndarray, count: int) -> list[np.ndarray]:
    """Non-negative integers below 10**(4 * count) as their groups of 4
    decimal digits, most significant first."""
    groups = []
    for _ in range(count - 1):
        q = v // 10_000
        groups.append(v - q * 10_000)
        v = q
    return [v, *groups[::-1]]


def format_rows(rows: np.ndarray) -> Iterator[bytes]:
    """CSV text of a 2-D float64 array: each value as ``"%.17g" % v``
    writes it, ``,`` between the values of a row and ``\\n`` after each.
    Yields the text of one pass of whole rows, about PASS_VALUES values,
    at a time."""
    rows = np.asarray(rows, dtype=np.float64)
    step = max(1, PASS_VALUES // rows.shape[1])
    return (_format_pass(rows[i:i + step]) for i in range(0, len(rows), step))


def _format_pass(rows: np.ndarray) -> bytes:
    """:func:`format_rows` of at least one row, in one numpy pass."""
    x = rows.ravel()
    n = x.size
    a = np.abs(x)
    fast = a >= 1e-4
    fast &= a < 1e16
    a[~fast] = 0.0
    e = np.floor(np.log10(a, out=np.zeros(n), where=fast)).astype(np.intp)
    d = _seventeen_digits(a, e)
    off = np.flatnonzero(fast & ((d < 10**16) | (d >= 10**17)))
    if off.size:
        e[off] += np.where(d[off] < 10**16, -1, 1)
        d[off] = _seventeen_digits(a[off], e[off])
    whole = np.floor(a).astype(np.int64)
    # the fraction's digits, then zeros to 17 digits
    fraction = ((d - whole * _POW10_INT.take(np.minimum(16 - e, 17)))
                * _POW10_INT.take(np.maximum(e + 1, 0)))
    n_whole = (len(str(whole.max())) + 3) // 4
    digits = _digit_lanes()
    lanes = np.empty((n, n_whole + 8), np.uint32)
    lanes[:, 0] = np.signbit(x) * _MINUS
    for j, group in enumerate(_groups(whole, n_whole), start=1):
        higher = whole >= 10 ** (4 * (n_whole + 1 - j))
        lanes[:, j] = digits.take(group + np.where(higher, _FULL,
                                                    _UNIT if j == n_whole else _LEAD))
    head, *groups = _groups(fraction, 5)
    lower_zero = np.ones(n, bool)  # every digit after the group is 0
    for j, group in zip(range(-2, -6, -1), reversed(groups)):
        lanes[:, j] = digits.take(group + lower_zero * _TRAIL)
        lower_zero &= group == 0
    lanes[:, -6] = digits.take(head + np.where(lower_zero, _LEAD, _UNIT))
    lower_zero &= head == 0
    lanes[:, -7] = ~lower_zero * _POINT.take(np.minimum(e, 0) + 4)
    lanes[:, -1] = _COMMA
    lanes[rows.shape[1] - 1::rows.shape[1], -1] = _NEWLINE
    other = np.flatnonzero(~fast & (x != 0))
    if other.size:
        # one % for them all, each value padded with spaces to the 24 bytes
        # its longest text takes, "-2.2250738585072014e-308"
        text = np.frombuffer(b"%-24.17g" * other.size % tuple(x[other].tolist()), np.uint8)
        lanes[other, :-1] = 0
        lanes[other, :6] = np.where(text == ord(" "), 0, text).view(np.uint32).reshape(-1, 6)
    chars = lanes.view(np.uint8).ravel()
    return chars[chars != 0].tobytes()
