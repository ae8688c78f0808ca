"""Degree-d places of a curve as Frobenius orbits over GF(q^d).

A degree-d place is stored as the orbit of one point under the q-power
Frobenius together with the minimal polynomial D(x) of its x-coordinate
over GF(q).  Places accepted by :func:`find_place` are *regular*: the orbit
and its negation are 2d pairwise distinct points and D(x) is irreducible of
degree exactly d, which is what the Riemann-Roch linear algebra downstream
relies on.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from operator import or_, xor

from .curves import INFINITY, Curve, Point, _sort_key
from .gf2 import ExtFieldContext, GF2Solver, ValidationError, elem_to_hex, factorize, linear_map


class PlaceD(namedtuple("PlaceD", "d orbit dpoly")):
    """A degree-d place: Frobenius orbit plus x-minimal polynomial.

    dpoly holds GF(q) coefficients low-to-high (monic, length d+1);
    orbit, a tuple of Points, has orbit[i+1] the coordinatewise q-Frobenius of orbit[i].
    """

    __slots__ = ()

    @property
    def representative(self) -> Point:
        return self.orbit[0]

    def serialize(self) -> dict:
        return {
            "d": self.d,
            "dpoly": [elem_to_hex(c) for c in self.dpoly],
            "representative": self.representative.serialize(),
        }


# ----------------------------------------------------------------------
# Counting formula (zeta-function side).

def moebius(k: int) -> int:
    f = factorize(k)
    return 0 if max(f.values(), default=1) > 1 else (-1) ** len(f)


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


# The place oracle: the size-d Frobenius orbits of E(GF(q^d)), found from
# field arithmetic alone.  It never uses the zeta-function side above (N,
# t, the power sums or Moebius inversion), so it can check that side.  The
# x values of a point orbit form one q-Frobenius orbit of x, so:
#   * O, x in a proper subfield GF(q^e), e | d, and x0 in GF(q), the one x
#     the sweep misses: their orbits are followed with frobenius_orbit.
#   * any other x has an x-orbit of size d, and c = a1*x + a3 != 0.  Its
#     fibre y^2 + c*y = u holds 2 points if Tr(u/c^2) = 0 and none if it is
#     1: one trace sequence gives Tr(u/c^2) for all these x at once.

def _fibre_zeros(curve: Curve, ext: ExtFieldContext) -> tuple[int, int, int, int]:
    """(gamma, b, x0, zeros): each x but x0 is b*gamma^L + x0 for one L < q^d - 1,
    and bit L of zeros is set when Tr(u/c^2) = 0 and x is in no proper subfield.

    Tr(a*gamma^L) over all L, with a = sum c_i*gamma^i, is the XOR of the
    windows at the set bits of c of s_k = Tr(gamma^k), held as one int.  So
    is s's own window at K, from a = gamma^K: 2m bits of s double until they
    span a period and m bits more.  If a1 != 0, gamma^L is c and u/c^2 =
    A*c + B + C/c + D/c^2, so Tr(u/c^2) = Tr(A*c) + Tr(B) + Tr((C + sqrt(D))/c).
    If a1 = 0, gamma^L is x: Tr(u/a3^2) = Tr(x^3/a3^2) + Tr(a6/a3^2) +
    Tr((sqrt(a2)/a3 + a4/a3^2)*x).  1/c and x^3 take reversed and 3-decimated windows.
    """
    a1, a2, a3, a4, a6 = curve.coeffs_in(ext)
    gamma, mul, sqrt, m, order = ext.primitive_element(), ext.mul, ext.sqrt, ext.n, ext.q - 1
    coords = GF2Solver([ext.pow(gamma, i) for i in range(m)]).lookup(m)

    def traces(s: int, a: int, width: int) -> int:  # bit j: Tr(a*gamma^j)
        c = coords(a)
        return functools.reduce(xor, (s >> i for i in range(m) if c >> i & 1), 0) & (1 << width) - 1

    s, known = sum(ext.trace(ext.pow(gamma, k)) << k for k in range(2 * m)), 2 * m
    while known < order + m:
        s |= traces(s, ext.pow(gamma, known), known - m + 1) << known
        known += known - m + 1

    def window(a: int, e: int) -> int:  # bit L: Tr(a*gamma^(e*L)), e in (1, -1, 3)
        bits = format(traces(s, a, order), f"0{order}b")[::-1]  # bits[k]: Tr(a*gamma^k)
        return int((bits[0] + bits[:0:-1] if e == -1 else (bits * e)[::e])[::-1], 2)

    if a1:
        b = ext.inv(a1)
        x0, b2 = mul(b, a3), mul(b, b)  # x = b*c + x0: A = b^3, B = b^2*(x0 + a2),
        x02 = mul(x0, x0)                # C = b*(x0^2 + a4), D = u(x0)
        D = mul(x0 ^ a2, x02) ^ mul(a4, x0) ^ a6
        f = window(mul(b, b2), 1) ^ window(mul(b, x02 ^ a4) ^ sqrt(D), -1)
        const = mul(b2, x0 ^ a2)
    else:
        b, x0, k = 1, 0, ext.inv(mul(a3, a3))
        f = window(k, 3) ^ window(mul(sqrt(a2), ext.inv(a3)) ^ mul(a4, k), 1)
        const = mul(a6, k)
    walked = functools.reduce(or_, (  # bits L with gamma^L in GF(q^e): the multiples of p
        int(("0" * (p - 1) + "1") * (order // p), 2) for p in (
            order // (ext.base.q ** e - 1) for e in range(1, ext.d) if ext.d % e == 0)), 0)
    zeros = (f if ext.trace(const) else ~f) & ~walked & (1 << order) - 1
    return gamma, b, x0, zeros


def _walked_orbits(curve: Curve, ext: ExtFieldContext, x0: int) -> list[tuple[Point, ...]]:
    """The size-d point orbits over x0 and the proper subfields, and (O,) when d = 1."""
    es = [e for e in range(1, ext.d) if ext.d % e == 0]
    xs, seen, orbits = set().union([x0], *map(ext.subfield, es)), set(), []
    for P in (INFINITY, *curve.iter_points(ext, xs)):
        if P not in seen:
            orbit = frobenius_orbit(ext, P)
            seen.update(orbit)
            if len(orbit) == ext.d:
                orbits.append(orbit)
    return orbits


def count_place_orbits(curve: Curve, ext: ExtFieldContext, d: int) -> int:
    """Oracle: the number of size-d Frobenius orbits of E(GF(q^d)).

    Counts what :func:`enumerate_places_deg_d` lists, without building the
    points: the swept x carry 2 points per zero of Tr(u/c^2), d to an orbit.
    """
    assert ext.d == d
    _, _, x0, zeros = _fibre_zeros(curve, ext)
    return len(_walked_orbits(curve, ext, x0)) + 2 * zeros.bit_count() // d


def enumerate_places_deg_d(curve: Curve, ext: ExtFieldContext, d: int) -> list[tuple[Point, ...]]:
    """Oracle: all size-d Frobenius orbits of E(GF(q^d)), irregular included.

    Each orbit is rotated so its smallest (x, y) point comes first; the list
    is sorted by that representative.  Over the swept x, y is solved for at
    the least L of each orbit L*q^i of zeros, with gamma^L a running product.
    """
    assert ext.d == d
    gamma, b, x0, zeros = _fibre_zeros(curve, ext)
    order, qis = ext.q - 1, [ext.base.q ** i for i in range(1, d)]
    xs, g, times_gamma = [], 1, linear_map([ext.mul(1 << i, gamma) for i in range(ext.n)])
    for L, bit in enumerate(format(zeros, f"0{order}b")[::-1]):
        if bit == "1" and all(L < L * qi % order for qi in qis):
            xs.append(ext.mul(b, g) ^ x0)
        g = times_gamma(g)
    orbits = _walked_orbits(curve, ext, x0)
    for P in curve.iter_points(ext, xs):
        orbit = [P]  # the x-orbit has size d, so the point orbit does
        while len(orbit) < d:
            orbit.append(point_frobenius(ext, orbit[-1]))
        orbits.append(tuple(orbit))
    for j, orbit in enumerate(orbits):
        keys = list(map(_sort_key, orbit))
        k = keys.index(min(keys))
        orbits[j] = orbit[k:] + orbit[:k]
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
    orbit = frobenius_orbit(ext, R)
    xs = [P.x for P in orbit]
    if len(set(xs)) != d:
        return None  # x lies in a proper subfield of GF(q^d)
    # -F^i(R) has the x of F^i(R), so with d distinct x, -F^i(R) = F^j(R)
    # forces i = j: the orbit meets its negation only if R = -R
    if curve.neg(R, ext) == R:
        return None
    return PlaceD(d=d, orbit=orbit, dpoly=_min_poly_coeffs(curve, ext, xs))


def find_place(curve: Curve, ext: ExtFieldContext, d: int) -> PlaceD:
    """First regular degree-d place in (x, y) point order.

    Requires gcd(d, N) = 1 so that translates of the place stay pairwise
    distinct (the construction's hypothesis).
    """
    if math.gcd(d, curve.N) != 1:
        raise ValidationError(f"gcd(d={d}, N={curve.N}) != 1")
    assert ext.d == d and ext.base is curve.ctx
    for R in curve.iter_points(ext):
        place = _build_place(curve, ext, R, d)
        if place is not None:
            return place
    raise SearchExhaustedPlace(f"no regular degree-{d} place found (q={curve.ctx.q}, t={curve.t})")


class SearchExhaustedPlace(RuntimeError):
    """No regular place exists at this size (not observed at desk scale)."""
