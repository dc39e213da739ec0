"""Truncated three-variable power series and the generating-function catalog.

Coefficients are exact integers on a dense grid indexed by the exponents of
(x, y, z), i.e. by prism dimensions (b, k, h). A catalog entry is built from
rational functions whose numerators carry every monomial factor, each expanded
on the bounds asked for by division: forward substitution, cheap because every
denominator is a short polynomial with unit constant term. Only Diag multiplies
series (Stair * bracket^2 on the cube, the corner squares on planes): a product
packs each operand once into signed two's-complement slots of one ``int``
(Kronecker substitution), multiplies once and unpacks once.

Every denominator is a product of (1 - u), (1 - u - v) and (1 - x - y - z),
so with two sides s1, s2 fixed a family count is a polynomial of degree
s1 + s2 - 2 in the third side h for h >= 2 (Stanley, *Enumerative
Combinatorics* vol. 1, Cor. 4.3.1; checked against the grid for every family,
short sides up to 10, h up to 60). ``family_min`` reads a prism whose longest
side exceeds s1 + s2 off that polynomial: it costs the two shorter sides.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Mapping

from .core import checked_count
from .formulas import p2d_min, trinom

Bounds = tuple[int, int, int]
Terms = Mapping[tuple[int, int, int], int]


class BoundsMismatchError(ValueError):
    pass


class NonUnitConstantTermError(ValueError):
    pass


class InsufficientBoundsError(ValueError):
    pass


class TruncatedSeries:
    """Dense grid of exact coefficients for exponents 0..Bx, 0..By, 0..Bz."""

    __slots__ = ("bounds", "_c")

    def __init__(self, bounds: Bounds, coeffs: list[int] | None = None):
        bx, by, bz = bounds
        if bx < 0 or by < 0 or bz < 0:
            raise ValueError(f"bounds must be non-negative: {bounds}")
        n = (bx + 1) * (by + 1) * (bz + 1)
        if coeffs is None:
            coeffs = [0] * n
        elif len(coeffs) != n:
            raise ValueError("coefficient grid does not match bounds")
        self.bounds = (bx, by, bz)
        self._c = coeffs

    # -- construction -----------------------------------------------------

    @classmethod
    def from_terms(cls, terms: Terms, bounds: Bounds) -> "TruncatedSeries":
        s = cls(bounds)
        bx, by, bz = bounds
        for (i, j, l), v in terms.items():
            if 0 <= i <= bx and 0 <= j <= by and 0 <= l <= bz:
                s._c[s._idx(i, j, l)] += v
        return s

    @classmethod
    def one(cls, bounds: Bounds) -> "TruncatedSeries":
        return cls.from_terms({(0, 0, 0): 1}, bounds)

    def copy(self) -> "TruncatedSeries":
        return TruncatedSeries(self.bounds, list(self._c))

    # -- access ------------------------------------------------------------

    def _idx(self, i: int, j: int, l: int) -> int:
        _, by, bz = self.bounds
        return (i * (by + 1) + j) * (bz + 1) + l

    def coeff(self, b: int, k: int, h: int) -> int:
        bx, by, bz = self.bounds
        if not (0 <= b <= bx and 0 <= k <= by and 0 <= h <= bz):
            raise IndexError(f"({b},{k},{h}) outside bounds {self.bounds}")
        return self._c[self._idx(b, k, h)]

    def items(self) -> Iterator[tuple[tuple[int, int, int], int]]:
        bx, by, bz = self.bounds
        pos = 0
        for i in range(bx + 1):
            for j in range(by + 1):
                for l in range(bz + 1):
                    v = self._c[pos]
                    pos += 1
                    if v:
                        yield (i, j, l), v

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncatedSeries)
            and self.bounds == other.bounds
            and tuple(self._c) == tuple(other._c)
        )

    def __repr__(self) -> str:
        nz = sum(1 for v in self._c if v)
        return f"TruncatedSeries(bounds={self.bounds}, nonzero={nz})"

    # -- ring operations ----------------------------------------------------

    def _check_bounds(self, other: "TruncatedSeries") -> None:
        if self.bounds != other.bounds:
            raise BoundsMismatchError(f"{self.bounds} != {other.bounds}")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_bounds(other)
        return TruncatedSeries(self.bounds, [a + b for a, b in zip(self._c, other._c)])

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_bounds(other)
        return TruncatedSeries(self.bounds, [a - b for a, b in zip(self._c, other._c)])

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.bounds, [-a for a in self._c])

    def scale(self, factor: int) -> "TruncatedSeries":
        return TruncatedSeries(self.bounds, [factor * a for a in self._c])

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_bounds(other)
        return _kronecker_mul(self, other)

    def div(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Quotient q with q * other == self within bounds."""
        self._check_bounds(other)
        c0 = other._c[0]
        if c0 not in (1, -1):
            raise NonUnitConstantTermError(f"constant term {c0} is not a unit")
        # a term x^a y^b z^c reads the quotient a fixed flat offset back
        dterms = [(e, v, self._idx(*e)) for e, v in other.items() if e != (0, 0, 0)]
        bx, by, bz = self.bounds
        qc = [0] * len(self._c)
        pos = 0
        for i in range(bx + 1):
            for j in range(by + 1):
                for l in range(bz + 1):
                    acc = self._c[pos]
                    for (a, b, c), v, off in dterms:
                        if a <= i and b <= j and c <= l:
                            acc -= v * qc[pos - off]
                    qc[pos] = acc if c0 == 1 else -acc
                    pos += 1
        return TruncatedSeries(self.bounds, qc)

    def div_terms(self, terms: Terms) -> "TruncatedSeries":
        return self.div(TruncatedSeries.from_terms(terms, self.bounds))

    # -- reshaping -----------------------------------------------------------

    def crop(self, bounds: Bounds) -> "TruncatedSeries":
        bx, by, bz = bounds
        if any(n > o for n, o in zip(bounds, self.bounds)):
            raise InsufficientBoundsError(f"cannot crop {self.bounds} to {bounds}")
        out = TruncatedSeries(bounds)
        for i in range(bx + 1):
            for j in range(by + 1):
                for l in range(bz + 1):
                    out._c[out._idx(i, j, l)] = self._c[self._idx(i, j, l)]
        return out

    def permute(self, perm: Bounds) -> "TruncatedSeries":
        """Relabel variables: new axis t reads exponents from old axis perm[t]."""
        if sorted(perm) != [0, 1, 2]:
            raise ValueError(f"not a permutation: {perm}")
        old = self.bounds
        nb = (old[perm[0]], old[perm[1]], old[perm[2]])
        out = TruncatedSeries(nb)
        for e, v in self.items():
            out._c[out._idx(e[perm[0]], e[perm[1]], e[perm[2]])] = v
        return out


# -- Kronecker-substitution multiplication ---------------------------------


def _kronecker_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """One ``int`` product of the operands packed as signed slots of
    W = 8 * width_bytes bits.

    A negative coefficient is written in two's complement, which reads 2^W
    too much, so it borrows one from the slot above. Every slot of the
    product is a signed coefficient below 2^(W-1) in size: adding 2^(W-1) to
    each makes them all non-negative, and they unpack without carries.
    """
    bx, by, bz = a.bounds
    sy, sz = 2 * by + 1, 2 * bz + 1  # padded strides so digit groups never carry
    nslots = (2 * bx + 1) * sy * sz

    max_a = max((abs(v) for v in a._c), default=0)
    max_b = max((abs(v) for v in b._c), default=0)
    if max_a == 0 or max_b == 0:
        return TruncatedSeries(a.bounds)
    nterms = min(sum(1 for v in a._c if v), sum(1 for v in b._c if v))
    width_bits = max_a.bit_length() + max_b.bit_length() + nterms.bit_length() + 2
    width_bytes = (width_bits + 7) // 8

    def pack(s: TruncatedSeries) -> int:
        slots = bytearray(nslots * width_bytes)
        # one byte more: on 0 x 0 x 0 bounds the top slot's borrow lands past the end
        borrows = bytearray(nslots * width_bytes + 1)
        for (i, j, l), v in s.items():
            off = ((i * sy + j) * sz + l) * width_bytes
            slots[off : off + width_bytes] = v.to_bytes(width_bytes, "little", signed=True)
            if v < 0:
                borrows[off + width_bytes] = 1
        return int.from_bytes(slots, "little") - int.from_bytes(borrows, "little")

    pa = pack(a)
    pb = pa if b is a else pack(b)
    bias = int.from_bytes((bytes(width_bytes - 1) + b"\x80") * nslots, "little")
    raw = (pa * pb + bias).to_bytes(nslots * width_bytes, "little")
    half = 1 << (8 * width_bytes - 1)
    rows = [(i * sy + j) * sz for i in range(bx + 1) for j in range(by + 1)]
    offsets = [(row + l) * width_bytes for row in rows for l in range(bz + 1)]
    coeffs = [int.from_bytes(raw[off : off + width_bytes], "little") - half for off in offsets]
    return TruncatedSeries(a.bounds, coeffs)


# -- generating-function catalog --------------------------------------------
#
# Every builder works on the bounds it is given, which need not be cubic, so
# an entry symmetric in (x, y, z) sums its per-axis pieces over the three
# axes. A monomial factor goes into the numerator of a rational piece. Only
# Diag multiplies series, in Stair * bracket^2 on the cube and in the corner
# squares on planes; every other entry is expanded by division only.

ONE = (0, 0, 0)
AXES = (0, 1, 2)


def _e(*axes: int) -> tuple[int, int, int]:
    """Exponent vector of the product of the variables of ``axes``."""
    return (axes.count(0), axes.count(1), axes.count(2))


def _den(*axes: int) -> Terms:
    """The denominator 1 minus the sum of the variables of ``axes``."""
    return {ONE: 1, **{_e(a): -1 for a in axes}}


def _others(axis: int) -> tuple[int, int]:
    return tuple(t for t in AXES if t != axis)


def _times(terms: Iterable[tuple[tuple[int, int, int], int]], mono: Bounds) -> dict:
    """The terms multiplied by the monomial with exponent vector ``mono``."""
    return {tuple(a + m for a, m in zip(e, mono)): v for e, v in terms}


def _rat(bounds: Bounds, num: Terms, dens: Iterable[Terms]) -> TruncatedSeries:
    """Expand num / prod(dens) within ``bounds``; every denominator has unit
    constant term."""
    s = TruncatedSeries.from_terms(num, bounds)
    for d in dens:
        s = s.div_terms(d)
    return s


def _build_tripod(bounds: Bounds) -> TruncatedSeries:
    return _rat(bounds, {(2, 2, 2): 1}, [_den(0), _den(1), _den(2)])


def _build_stair(bounds: Bounds) -> TruncatedSeries:
    return _rat(bounds, {(1, 1, 1): 1}, [_den(0, 1, 2)])


def _hook_bracket(bounds: Bounds) -> TruncatedSeries:
    """1 + (Tripod + Deg2 + 2Dhook)/xyz, with the 1/xyz in each numerator."""
    # Tripod/xyz = xyz / ((1-x)(1-y)(1-z))
    hooks = TruncatedSeries.one(bounds) + _rat(bounds, {(1, 1, 1): 1}, [_den(a) for a in AXES])
    for u in AXES:
        v, w = _others(u)
        # Deg2/xyz with the pilar along u: [2/(1-v-w) - 2/((1-v)(1-w))] * u/(1-u)
        # = 2xyz / ((1-u)(1-v)(1-w)(1-v-w))
        hooks += _rat(bounds, {(1, 1, 1): 2}, [_den(u), _den(v), _den(w), _den(v, w)])
        # 2Dhook/xyz in the vw plane: vw / ((1-v)(1-w))
        hooks += _rat(bounds, {_e(v, w): 1}, [_den(v), _den(w)])
    return hooks


def _build_pc(bounds: Bounds) -> TruncatedSeries:
    """Stair * bracket = xyz * bracket / (1-x-y-z)."""
    return _rat(bounds, _times(_hook_bracket(bounds).items(), (1, 1, 1)), [_den(0, 1, 2)])


def _two_diag(bounds: Bounds, w: int) -> TruncatedSeries:
    """(1/uv) * corner(u, v)^2 * w/(1-w)^2: the pilar runs along w."""
    u, v = _others(w)
    # corner/uv = 2/(1-u-v) - 1/((1-u)(1-v)) = (1-u-v+2uv) / ((1-u)(1-v)(1-u-v));
    # it has no w terms, so it is squared on its own plane
    plane = tuple(0 if t == w else n for t, n in enumerate(bounds))
    half = _rat(plane, {ONE: 1, _e(u): -1, _e(v): -1, _e(u, v): 2}, [_den(u), _den(v), _den(u, v)])
    return _rat(bounds, _times((half * half).items(), (1, 1, 1)), [_den(w), _den(w)])


_CROSS_NUM = {  # x^2y^2z^2 (2-x)(2-y)(2-z), multiplied out
    (2, 2, 2): 8, (3, 2, 2): -4, (2, 3, 2): -4, (2, 2, 3): -4,
    (3, 3, 2): 2, (3, 2, 3): 2, (2, 3, 3): 2, (3, 3, 3): -1,
}


def _build_diag(bounds: Bounds) -> TruncatedSeries:
    bracket = _hook_bracket(bounds)
    one_diag = _build_stair(bounds) * bracket * bracket
    two_diag = _two_diag(bounds, 0) + _two_diag(bounds, 1) + _two_diag(bounds, 2)
    # Cross3D: fx fy fz with fu = (2u^2 - u^3)/(1-u)^2 = u^2 (2-u)/(1-u)^2
    cross = _rat(bounds, _CROSS_NUM, [_den(a) for a in AXES for _ in range(2)])
    return one_diag.scale(4) - two_diag.scale(2) + cross.scale(3)


def _build_p2dx2d(bounds: Bounds) -> TruncatedSeries:
    """2Dx2D polyominoes: 2 * blue * yellow * SH per shared axis v of a plane pair,
    with {u, w} the other axes. Blue = 2 * (uv corners of u-extent >= 2) -
    u^2v/((1-u)(1-v)) = u^2v (1-u+3v) / ((1-u)(1-v)(1-u-v)), yellow is blue with w
    for u, and the skew hook SH = uw/((1-u)(1-v)(1-w)). The pair, symmetric in u, w:
    2u^3v^2w^3 (1-u+3v)(1-w+3v) / ((1-u)^2 (1-v)^3 (1-w)^2 (1-u-v)(1-v-w))."""
    total = TruncatedSeries(bounds)
    for v in AXES:
        u, w = _others(v)
        # 2(1-u+3v)(1-w+3v), multiplied out
        factor = {ONE: 2, _e(u): -2, _e(w): -2, _e(v): 12, _e(u, w): 2, _e(u, v): -6,
                  _e(v, w): -6, _e(v, v): 18}
        dens = [_den(t) for t in (u, u, v, v, v, w, w)] + [_den(u, v), _den(v, w)]
        total += _rat(bounds, _times(factor.items(), _e(u, u, u, v, v, w, w, w)), dens)
    return total


_SC_DENS = (_den(0, 1), _den(0, 2), _den(1, 2)) + tuple(
    _den(a) for a in AXES for _ in range(2)
)

# SCa and SCb share SC's denominator. The published numerators carry
# x^3y^3z^3 [(1-x+y)(1-x+z) + (1-y+x)(1-y+z) + (1-z+x)(1-z+y)], which multiplies
# out to x^3y^3z^3 (3 + x^2 + y^2 + z^2 - xy - xz - yz). SCa is 16 times that,
# the published sign corrected so SCa + SCb == SC and the cube-diagonal values
# match the reference table (48 at n = 3); SCb is SC's 64 x^3y^3z^3 minus SCa.
_SCA_NUM = {
    (3, 3, 3): 48, (5, 3, 3): 16, (3, 5, 3): 16, (3, 3, 5): 16,
    (4, 4, 3): -16, (4, 3, 4): -16, (3, 4, 4): -16,
}
_SCB_NUM = {  # 16 x^3y^3z^3 (1 - x^2 - y^2 - z^2 + xy + xz + yz)
    (3, 3, 3): 16, (5, 3, 3): -16, (3, 5, 3): -16, (3, 3, 5): -16,
    (4, 4, 3): 16, (4, 3, 4): 16, (3, 4, 4): 16,
}


def _build_sca(bounds: Bounds) -> TruncatedSeries:
    return _rat(bounds, _SCA_NUM, _SC_DENS)


def _build_scb(bounds: Bounds) -> TruncatedSeries:
    return _rat(bounds, _SCB_NUM, _SC_DENS)


def _build_sc(bounds: Bounds) -> TruncatedSeries:
    return _rat(bounds, {(3, 3, 3): 64}, _SC_DENS)


_CATALOG: dict[str, Callable[[Bounds], TruncatedSeries]] = {
    "Tripod": _build_tripod,
    "Stair": _build_stair,
    "Pc": _build_pc,
    "Diag": _build_diag,
    "P2Dx2D": _build_p2dx2d,
    "SCa": _build_sca,
    "SCb": _build_scb,
    "SC": _build_sc,
}

#: The family entries, with the smallest sorted (b, k, h) at which each family
#: is nonempty. The raw coefficients are already 0 below these floors, except
#: Diag's on prisms with a side of 1, which ``family_min`` corrects.
GF_VALIDITY: dict[str, tuple[int, int, int]] = {
    "Diag": (2, 2, 2),
    "SC": (3, 3, 3),
    "SCa": (3, 3, 3),
    "SCb": (3, 3, 3),
    "P2Dx2D": (2, 3, 3),
}

#: ``verify --max-dim`` 2, 3, 4 and 7 each read 13 distinct (name, bounds) expansions.
_EXPAND_CACHE_SIZE = 64


class UnknownSeriesError(KeyError):
    pass


def catalog_names() -> list[str]:
    return sorted(_CATALOG)


@lru_cache(maxsize=_EXPAND_CACHE_SIZE)
def expand(name: str, bounds: Bounds) -> TruncatedSeries:
    """Expand the named catalog generating function within ``bounds``.

    The builder works on ``bounds`` as given, so a thin prism costs only its
    own grid; ``family_min`` asks for a long prism's grid only up to the sum
    of its two shorter sides.
    """
    try:
        builder = _CATALOG[name]
    except KeyError:
        raise UnknownSeriesError(name) from None
    s = builder(bounds)
    for v in s._c:
        checked_count(v)
    s._c = tuple(s._c)  # every caller gets this grid: it must not change
    return s


def family_min(name: str, b: int, k: int, h: int, bounds: Bounds | None = None) -> int:
    """Minimal inscribed polycubes of one ``GF_VALIDITY`` family in a b x k x h prism.

    The count is the series coefficient, read from the expansion on ``bounds``
    (default: the prism itself). Each family's coefficient is already 0 below
    its ``GF_VALIDITY`` floor. A prism with a side of length 1 holds only the
    2D (or 1D) minimal polyominoes, which count as diagonal; the 3D
    inclusion-exclusion is not valid there, so Diag takes ``p2d_min``. The
    other families are 0 there, and are not expanded.

    Without ``bounds``, a prism whose longest side s3 exceeds m = s1 + s2 is
    read off the polynomial in s3 (module docstring): the grid is expanded
    with that side cut to m, and its m - 1 values at 2..m are extended by
    Newton's forward differences, f(s3) = sum_j D^j f(2) * C(s3 - 2, j).

    Diag's count is at least ``4 * trinom(b - 1, k - 1, h - 1)``, so past the
    127-bit cap it raises ``CountOverflowError`` before expanding anything.
    Every monotone lattice path between two opposite corners is a diagonal
    minimal polycube, a chain in its space diagonal's order, and with every
    side >= 2 no inscribed set is a chain in two of the four orders. Two cells
    comparable in both differ only on the axes where the orders agree, or only
    on the others. Cells p at x = 0 and q at x = b - 1 differ on x, so they
    agree on the axes w of the other kind; a third cell r off their plane
    along w differs from both on w, so it agrees with both on x, which p and q
    do not. The other families can count fewer shapes, and take no bound.
    """
    if name not in GF_VALIDITY:
        raise UnknownSeriesError(name)
    if b < 1 or k < 1 or h < 1:
        raise ValueError(f"dimensions must be >= 1: {(b, k, h)}")
    s1, s2, s3 = sorted((b, k, h))
    if s1 == 1:
        return p2d_min(s2, s3) if name == "Diag" else 0
    if name == "Diag":
        checked_count(4 * trinom(b - 1, k - 1, h - 1))  # the paths: raises past the cap
    dims, m = (b, k, h), s1 + s2
    if bounds is not None or s3 <= m:
        return expand(name, dims if bounds is None else bounds).coeff(b, k, h)
    a = dims.index(s3)
    grid = expand(name, dims[:a] + (m,) + dims[a + 1 :])
    values = [grid.coeff(*dims[:a], t, *dims[a + 1 :]) for t in range(2, m + 1)]
    count = 0
    for j in range(m - 1):  # values[0] is the j-th forward difference at 2
        count += values[0] * math.comb(s3 - 2, j)
        values = [q - p for p, q in zip(values, values[1:])]
    return checked_count(count)


def total_min(b: int, k: int, h: int, bounds: Bounds | None = None) -> int:
    """Total minimal inscribed polycubes in a b x k x h prism via the series;
    Diag comes first, so its overflow bound raises before any expansion."""
    return checked_count(
        sum(family_min(name, b, k, h, bounds) for name in ("Diag", "P2Dx2D", "SC"))
    )


def to_csv(s: TruncatedSeries) -> str:
    """One row per nonzero coefficient: header 'b,k,h,coefficient'."""
    lines = ["b,k,h,coefficient"]
    lines += [f"{i},{j},{l},{v}" for (i, j, l), v in s.items()]
    return "\n".join(lines) + "\n"
