"""Degree-d places of a curve as Frobenius orbits over GF(q^d).

A degree-d place is stored as the orbit of one point under the q-power
Frobenius together with the minimal polynomial D(x) of its x-coordinate
over GF(q).  Places accepted by :func:`find_place` are *regular*: the orbit
and its negation are 2d pairwise distinct points and D(x) is irreducible of
degree exactly d, which is what the Riemann-Roch linear algebra downstream
relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .curves import Curve, Point, _sort_key
from .gf2 import ExtFieldContext, TABLE_LIMIT, ValidationError, elem_to_hex

FIND_PLACE_LIMIT = 1 << 20  # q^d cap for scans over the extension


@dataclass(frozen=True)
class PlaceD:
    """A degree-d place: Frobenius orbit plus x-minimal polynomial.

    dpoly holds GF(q) coefficients low-to-high (monic, length d+1);
    orbit[i+1] is the coordinatewise q-Frobenius of orbit[i].
    """

    d: int
    orbit: tuple[Point, ...]
    dpoly: tuple[int, ...]

    @property
    def representative(self) -> Point:
        return self.orbit[0]

    def serialize(self) -> dict:
        return {
            "d": self.d,
            "dpoly": [elem_to_hex(c) for c in self.dpoly],
            "representative": self.representative.serialize(),
        }


@dataclass(frozen=True)
class PlaceCountReport:
    d: int
    q: int
    t: int
    formula: int
    enumerated: int | None = None

    @property
    def consistent(self) -> bool:
        return self.enumerated is None or self.enumerated == self.formula


# ----------------------------------------------------------------------
# Counting formula (zeta-function side).

def moebius(k: int) -> int:
    mu = 1
    p = 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            mu = -mu
        p += 1 if p == 2 else 2
    if k > 1:
        mu = -mu
    return mu


def waring_power_sum(q: int, t: int, r: int) -> int:
    """Closed form for S_r = alpha_1^r + alpha_2^r via Waring's formula."""
    s = 0
    for i in range(r // 2 + 1):
        c = (math.factorial(r - i - 1) * r) // (math.factorial(r - 2 * i) * math.factorial(i))
        s += (-1) ** (r - i) * c * t ** (r - 2 * i) * q**i
    return s


def frobenius_power_sums(q: int, t: int, r_max: int) -> list[int]:
    """S_1..S_r_max where alpha_1 + alpha_2 = -t and alpha_1*alpha_2 = q."""
    if t * t > 4 * q:
        raise ValidationError(f"|t|={abs(t)} exceeds 2*sqrt(q)")
    s = [2, -t]
    for r in range(2, r_max + 1):
        s.append(-t * s[r - 1] - q * s[r - 2])
    return s[1:]


def count_places_formula(q: int, t: int, d: int) -> int:
    """B_d, the number of degree-d places of a curve with q+1+t points."""
    if d < 1:
        raise ValidationError("degree must be positive")
    s = [2] + frobenius_power_sums(q, t, d)
    total = 0
    for r in range(1, d + 1):
        if d % r == 0:
            total += moebius(d // r) * (q**r + 1 - s[r])
    b, rem = divmod(total, d)
    if rem:
        raise AssertionError("place count is not an integer; implementation bug")
    return b


# ----------------------------------------------------------------------
# Orbit machinery over GF(q^d).

def point_frobenius(ext: ExtFieldContext, P: Point) -> Point:
    if P.is_infinity:
        return P
    return Point(ext.frobenius_q(P.x), ext.frobenius_q(P.y))


def frobenius_orbit(ext: ExtFieldContext, P: Point) -> tuple[Point, ...]:
    orbit = [P]
    R = point_frobenius(ext, P)
    while R != P:
        orbit.append(R)
        R = point_frobenius(ext, R)
    return tuple(orbit)


def _ensure_tables(ext: ExtFieldContext) -> None:
    if ext.q <= TABLE_LIMIT:
        ext.build_tables()


def enumerate_places_deg_d(curve: Curve, ext: ExtFieldContext, d: int) -> list[tuple[Point, ...]]:
    """Oracle: all size-d Frobenius orbits of E(GF(q^d)), irregular included.

    Each orbit is rotated so its smallest (x, y) point comes first; the list
    is sorted by that representative.
    """
    if ext.q > FIND_PLACE_LIMIT:
        raise ValidationError(f"q^d = 2^{ext.n} exceeds the enumeration cap")
    assert ext.d == d
    _ensure_tables(ext)
    seen: set[Point] = set()
    orbits = []
    for P in curve.points_over(ext):
        if P.is_infinity or P in seen:
            continue
        orbit = frobenius_orbit(ext, P)
        seen.update(orbit)
        if len(orbit) == d:
            k = min(range(d), key=lambda i: _sort_key(orbit[i]))
            orbits.append(orbit[k:] + orbit[:k])
    orbits.sort(key=lambda o: _sort_key(o[0]))
    return orbits


def _min_poly_coeffs(curve: Curve, ext: ExtFieldContext, xs: list[int]) -> tuple[int, ...]:
    """Expand prod (x - x_i) over the extension and decode into GF(q)."""
    poly = [1]
    for xi in xs:
        nxt = [0] * (len(poly) + 1)
        for i, c in enumerate(poly):
            nxt[i + 1] ^= c
            nxt[i] ^= ext.mul(c, xi)
        poly = nxt
    return tuple(ext.decode(c) for c in poly)


def _build_place(curve: Curve, ext: ExtFieldContext, R: Point, d: int) -> PlaceD | None:
    """PlaceD for R if its orbit is a regular degree-d place, else None."""
    xs = [R.x]
    for _ in range(d - 1):
        xs.append(ext.frobenius_q(xs[-1]))
    if len(set(xs)) != d or ext.frobenius_q(xs[-1]) != xs[0]:
        return None  # x does not generate a degree-d extension
    orbit = frobenius_orbit(ext, R)
    if len(orbit) != d:
        return None
    negs = {curve.neg(P, ext) for P in orbit}
    if negs & set(orbit):
        return None  # self-negating or orbit meets its own negation
    return PlaceD(d=d, orbit=orbit, dpoly=_min_poly_coeffs(curve, ext, xs))


def find_place(curve: Curve, ext: ExtFieldContext, d: int) -> PlaceD:
    """First regular degree-d place in x-integer scan order.

    Requires gcd(d, N) = 1 so that translates of the place stay pairwise
    distinct (the construction's hypothesis).
    """
    if math.gcd(d, curve.N) != 1:
        raise ValidationError(f"gcd(d={d}, N={curve.N}) != 1")
    if ext.q > FIND_PLACE_LIMIT:
        raise ValidationError(f"q^d = 2^{ext.n} exceeds the search cap")
    assert ext.d == d and ext.base is curve.ctx
    _ensure_tables(ext)
    a1, a2, a3, a4, a6 = curve.coeffs_in(ext)
    m = ext.mul
    for x in ext.elements():
        c = m(a1, x) ^ a3
        u = m(x, m(x, x)) ^ m(a2, m(x, x)) ^ m(a4, x) ^ a6
        for y in ext.solve_quadratic(c, u):
            place = _build_place(curve, ext, Point(x, y), d)
            if place is not None:
                return place
    raise SearchExhaustedPlace(f"no regular degree-{d} place found (q={curve.ctx.q}, t={curve.t})")


class SearchExhaustedPlace(RuntimeError):
    """No regular place exists at this size (not observed at desk scale)."""


def translate_place(curve: Curve, place: PlaceD, j: int, P: Point, ext: ExtFieldContext) -> PlaceD:
    """The place moved by the translation Q -> Q + [j]P (pointwise)."""
    T = curve.scalar_mul(j % curve.N, P)
    if T.is_infinity:
        return place
    Te = Point(ext.embed(T.x), ext.embed(T.y))
    orbit = tuple(curve.add(R, Te, ext) for R in place.orbit)
    xs = [R.x for R in orbit]
    return PlaceD(d=place.d, orbit=orbit, dpoly=_min_poly_coeffs(curve, ext, xs))
