"""Exact integer recurrences and closed formulas for inscribed minimal counts.

Binomial convention: C(n, r) = 0 whenever r < 0, n < 0 or r > n. The
alternating sums below rely on this out-of-range behaviour.

All *_volume functions take the geometric volume n; the internal shift to the
series exponent n + 2 is applied here, once.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .core import checked_count


def binom(n: int, r: int) -> int:
    """Binomial coefficient with out-of-range arguments mapped to 0."""
    if r < 0 or n < 0 or r > n:
        return 0
    return checked_count(math.comb(n, r))


def trinom(a: int, b: int, c: int) -> int:
    """Trinomial coefficient (a+b+c)! / (a! b! c!); 0 if any argument < 0."""
    if a < 0 or b < 0 or c < 0:
        return 0
    return checked_count(math.comb(a + b + c, a) * math.comb(b + c, b))


def p2d_corner(b: int, k: int) -> int:
    """2D corner-polyominoes in a b x k rectangle: 2*C(b+k-2, b-1) - 1."""
    _require_positive(b=b, k=k)
    return checked_count(2 * binom(b + k - 2, b - 1) - 1)


def p2d_corner_rec(b: int, k: int) -> int:
    """Recurrence form of ``p2d_corner``; kept as an independent cross-check."""
    _require_positive(b=b, k=k)

    @lru_cache(maxsize=None)
    def rec(i: int, j: int) -> int:
        if i == 1 or j == 1:
            return 1
        return 1 + rec(i, j - 1) + rec(i - 1, j)

    return checked_count(rec(b, k))


def p2d_min(b: int, k: int) -> int:
    """All minimal-area inscribed 2D polyominoes in a b x k rectangle."""
    _require_positive(b=b, k=k)
    if b == 1 or k == 1:
        return 1  # only the full rod; the closed form needs b, k >= 2
    return checked_count(8 * binom(b + k - 2, b - 1) + 2 * (b + k) - 3 * b * k - 8)


@lru_cache(maxsize=None)
def p3d_corner_rec(b: int, k: int, h: int) -> int:
    """3D corner-polyomino count by the recurrence (memoized on the raw triple)."""
    _require_positive(b=b, k=k, h=h)
    if b == 1 or k == 1 or h == 1:
        return checked_count(2 * trinom(b - 1, k - 1, h - 1) - 1)
    value = (
        1
        + 2 * binom(b + k - 2, b - 1)
        + 2 * binom(b + h - 2, b - 1)
        + 2 * binom(k + h - 2, k - 1)
        - 6
        + p3d_corner_rec(b - 1, k, h)
        + p3d_corner_rec(b, k - 1, h)
        + p3d_corner_rec(b, k, h - 1)
    )
    return checked_count(value)


def binom_gen(n: int, r: int) -> int:
    """Generalized binomial: falling factorial over r!, defined for negative n.

    Zero only for r < 0. The alternating sum in the closed corner-count
    formula reaches negative upper indices and only agrees with the
    recurrence under this convention (checked for all b, k, h <= 10).
    """
    if r < 0:
        return 0
    num = 1
    for t in range(r):
        num *= n - t
    return checked_count(num // math.factorial(r))


def p3d_corner_closed(b: int, k: int, h: int) -> int:
    """Closed-form 3D corner-polyomino count (alternating binomial sum)."""
    _require_positive(b=b, k=k, h=h)
    total = 4 * binom(b + h - 2, h - 1) * binom(b + k + h - 3, b + h - 2)
    for i in range(h - 1):
        total += (
            (-1) ** i
            * binom_gen(b + h - 4 - 2 * i, h - 2 - i)
            * binom(b + k + h - 4 - i, b + h - 3 - 2 * i)
        )
    total -= 2 * (
        binom(b + h - 2, b - 1) + binom(b + k - 2, k - 1) + binom(k + h - 2, h - 1)
    )
    total += 3 - (1 + (-1) ** h) // 2
    return checked_count(total)


def sc_prism(b: int, k: int, h: int) -> int:
    """Skew crosses inscribed in a b x k x h prism (triple binomial sum)."""
    if b < 3 or k < 3 or h < 3:
        raise ValueError(f"sc_prism requires b,k,h >= 3, got {(b, k, h)}")
    total = 0
    for i in range(b + k - 5):
        for r in range(i + 1):
            for j in range(b - 2 - r):
                total += (
                    binom(b, 3 + r + j) * binom(k, 3 + i + j - r) * binom(h, 3 + i)
                )
    return checked_count(64 * total)


def _exact(numerator: int, denominator: int) -> int:
    value, remainder = divmod(numerator, denominator)
    if remainder:
        raise ArithmeticError(f"formula value is not an integer: {numerator}/{denominator}")
    return checked_count(value)


def sc_volume(n: int) -> int:
    """Skew crosses of volume n, all prisms combined.

    With m = n + 2: 2^(m+2) (m^2 - 27m + 194)
    - 8 (m^5/15 + 11m^3/3 + 12m^2 + 844m/15 + 96), computed over 15.
    """
    _require_positive(n=n)
    if n < 7:  # series is 64 x^9 / ((1-2x)^3 (1-x)^6); volume n <-> x^(n+2)
        return 0
    m = n + 2
    poly = m**5 + 55 * m**3 + 180 * m**2 + 844 * m + 1440
    return _exact(15 * 2 ** (m + 2) * (m * m - 27 * m + 194) - 8 * poly, 15)


def p2dx2d_volume(n: int) -> int:
    """2Dx2D polyominoes of volume n, all prisms combined.

    With m = n + 2: 3 * 2^(m+2) (m - 15) + 3m^6/40 - 33m^5/40 + 65m^4/8
    - 183m^3/8 + 544m^2/5 + 147m/10 + 234, computed over 40.
    """
    _require_positive(n=n)
    if n < 6:  # series is 6 x^8 (1+2x)^2 / ((1-2x)^2 (1-x)^7)
        return 0
    m = n + 2
    poly = 3 * m**6 - 33 * m**5 + 325 * m**4 - 915 * m**3 + 4352 * m**2 + 588 * m + 9360
    return _exact(120 * 2 ** (m + 2) * (m - 15) + poly, 40)


def diag_volume(n: int) -> int:
    """Diagonal polyominoes of volume n (degenerate prisms included).

    With m = n + 2: 121 * 3^m / 48 - 2^m (45m - 411) - (53m^5/120 - 15m^4/8
    + 823m^3/24 - 6m^2 + 22711m/60 + 4995/16), computed over 240.
    """
    _require_positive(n=n)
    m = n + 2
    poly = 106 * m**5 - 450 * m**4 + 8230 * m**3 - 1440 * m**2 + 90844 * m + 74925
    return _exact(605 * 3**m - 240 * 2**m * (45 * m - 411) - poly, 240)


def p3dmin_volume(n: int) -> int:
    """All minimal inscribed polycubes of volume n, over every prism shape.

    121 * 3^(n+1) / 16 + 2^(n+2) (4n^2 - 125n + 741) + 3n^6/40 - 9n^5/10
    - 7n^4/2 - 133n^3/2 - 1931n^2/5 - 31727n/20 - 47739/16, computed over 80.
    """
    _require_positive(n=n)
    num = 605 * 3 ** (n + 1) + 80 * 2 ** (n + 2) * (4 * n * n - 125 * n + 741)
    num += 6 * n**6 - 72 * n**5 - 280 * n**4 - 5320 * n**3 - 30896 * n**2 - 126908 * n
    return _exact(num - 238695, 80)


def p3dmin_thickness2(b: int, k: int) -> int:
    """Minimal inscribed polycubes in a 2 x b x k prism."""
    if b < 2 or k < 2:
        raise ValueError(f"p3dmin_thickness2 requires b,k >= 2, got {(b, k)}")
    value = (
        (16 * binom(b + k - 2, b - 1) - 4 * (b + k)) * (2 * b + 2 * k - 3)
        + 4 * (b - 2) * (k - 2)
        + (16 * (b + k - 2) - 12 * b * k) * (b + k - 1)
    )
    return checked_count(value)


def p3dmin_thickness3(b: int, k: int) -> int:
    """Minimal inscribed polycubes in a 3 x b x k prism."""
    if b < 2 or k < 2:
        raise ValueError(f"p3dmin_thickness3 requires b,k >= 2, got {(b, k)}")
    value = (
        8 * (b**3 + k**3)
        - 12 * (b**3 * k + b * k**3)
        - 24 * b**2 * k**2
        - 46 * (b**2 + k**2)
        + 41 * (b**2 * k + b * k**2)
        - 93 * k * b
        + 58 * (b + k)
        - 8
        + 4 * binom(b + k - 2, b - 1) * (4 * b + 4 * k - 1) * (2 * b + 2 * k - 3)
    )
    return checked_count(value)


def _require_positive(**kwargs: int) -> None:
    for name, value in kwargs.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
