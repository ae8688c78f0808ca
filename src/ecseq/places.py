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
from operator import xor

from .curves import INFINITY, Curve, Point, _sort_key
from .gf2 import ExtFieldContext, ValidationError, elem_to_hex


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
# x values of a point orbit form one q-Frobenius orbit of x, so the sweep
# goes by x:
#   * x whose x-orbit has size d: one leader per x-orbit.  The fibre over
#     it, y^2 + c*y = u, has k points: 1 if c = 0, else 2 if Tr(u/c^2) = 0
#     and none if it is 1.  They lie in k distinct point orbits of size d.
#   * x in a proper subfield GF(q^e), e | d (few), and O: their orbits are
#     followed point by point with frobenius_orbit.

def _leader_fibres(curve: Curve, ext: ExtFieldContext) -> list[tuple[int, int, int]]:
    """(x, c, u) for one x of each size-d x-orbit whose fibre y^2 + c*y = u
    is nonempty; the fibre holds 1 point if c = 0, else 2.

    With x = gamma^L, the q-Frobenius multiplies L by q modulo q^d - 1, so
    the leader is the L below each L*q^i, 0 < i < d (an L equal to one of
    them has a shorter x-orbit).  The fibre test is Tr(u/c^2) = 0, as in
    FieldContext.solve_quadratic, in log-table arithmetic: the oracle alone
    builds and reads the extension's log/exp tables.
    """
    ext.build_tables()
    exp, log, order = ext._exp, ext._log, ext.q - 1
    logs = range(order)
    for i in range(1, ext.d):
        qi = ext.base.q ** i
        logs = [L for L in logs if L < L * qi % order]
    a1, a2, a3, a4, a6 = curve.coeffs_in(ext)

    def times(a: int, k: int) -> list[int]:  # a * x^k for every leader x
        if not a:
            return [0] * len(logs)
        return [exp[(k * L + log[a]) % order] for L in logs]

    cs = times(a1, 1)
    us = map(xor, map(xor, times(1, 3), times(a2, 2)), times(a4, 1))
    tm = ext.trace_mask
    out = []
    for L, c, u in zip(logs, cs, us):
        c ^= a3
        u ^= a6
        if not c or not u or not (exp[(log[u] - 2 * log[c]) % order] & tm).bit_count() & 1:
            out.append((exp[L], c, u))
    return out


def _subfield_orbits(curve: Curve, ext: ExtFieldContext) -> list[tuple[Point, ...]]:
    """The size-d point orbits over x in the proper subfields of GF(q^d),
    and (O,) when d = 1."""
    ext.build_tables()
    d, order = ext.d, ext.q - 1
    logs = {L for e in range(1, d) if d % e == 0
            for L in range(0, order, order // (ext.base.q ** e - 1))}
    seen: set[Point] = set()
    orbits = []
    for P in (INFINITY, *curve.iter_points(ext, [0, *(ext._exp[L] for L in logs)])):
        if P not in seen:
            orbit = frobenius_orbit(ext, P)
            seen.update(orbit)
            if len(orbit) == d:
                orbits.append(orbit)
    return orbits


def count_place_orbits(curve: Curve, ext: ExtFieldContext, d: int) -> int:
    """Oracle: the number of size-d Frobenius orbits of E(GF(q^d)).

    Counts what :func:`enumerate_places_deg_d` lists, without building the
    points: each x-orbit leader adds its fibre size.
    """
    assert ext.d == d
    return (len(_subfield_orbits(curve, ext))
            + sum(1 if c == 0 else 2 for _, c, _ in _leader_fibres(curve, ext)))


def enumerate_places_deg_d(curve: Curve, ext: ExtFieldContext, d: int) -> list[tuple[Point, ...]]:
    """Oracle: all size-d Frobenius orbits of E(GF(q^d)), irregular included.

    Each orbit is rotated so its smallest (x, y) point comes first; the list
    is sorted by that representative.  y is solved for only over x-orbit
    leaders with a nonempty fibre.
    """
    assert ext.d == d
    orbits = _subfield_orbits(curve, ext)
    for x, c, u in _leader_fibres(curve, ext):
        for y in ext.solve_quadratic(c, u):
            orbit = [Point(x, y)]  # the x-orbit has size d, so the point orbit does
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
