"""Riemann-Roch space L(Q) = F_q (+) V in common-denominator form.

Every function is represented as N(x, y) / D(x) with D the place's
x-minimal polynomial and N a combination of the pole-order-bounded
monomials x^i y^j (j <= 1, 2i + 3j <= 2d).  D's divisor is
orbit + neg(orbit) - 2d*O, so requiring N to vanish at the negated
representative (the conjugate conditions follow for free) carves out
exactly L(Q) as a d-dimensional GF(q)-nullspace.  Those conditions are
GF(2)-linear in the coefficient bits, so :class:`gf2.GF2Solver` solves them.
"""

from __future__ import annotations

from collections import namedtuple

from .curves import Curve, Point
from .gf2 import ExtFieldContext, FieldContext, GF2Solver, elem_to_hex
from .places import PlaceD


def monomials_L2dO(d: int) -> list[tuple[int, int]]:
    """Exponent pairs (i, j) with j <= 1 and 2i + 3j <= 2d, by pole order."""
    if d < 2:
        raise ValueError("degree must be at least 2")
    mons = [(i, j) for j in (0, 1) for i in range(d + 1) if 2 * i + 3 * j <= 2 * d]
    mons.sort(key=lambda ij: (2 * ij[0] + 3 * ij[1], ij[1]))
    assert len(mons) == 2 * d
    return mons


class CurveFunction(namedtuple("CurveFunction", "d coeffs dpoly")):
    """Numerator coefficients (aligned with monomials_L2dO(d)) over D(x)."""

    __slots__ = ()

    def serialize(self) -> dict:
        mons = monomials_L2dO(self.d)
        return {
            "monomials": [[i, j, elem_to_hex(c)] for (i, j), c in zip(mons, self.coeffs) if c],
            "dpoly": [elem_to_hex(c) for c in self.dpoly],
        }


class RRSpace(namedtuple("RRSpace", "place full_basis V_basis")):
    """L(Q) of a PlaceD as CurveFunction tuples; full_basis[0] is the constant 1."""

    __slots__ = ()


class IrregularPlaceError(RuntimeError):
    """Nullspace dimension != d: the place is unusable for the construction."""


# -- GF(q) row reduction ------------------------------------------------

def _reduce_row(ctx: FieldContext, row: list[int], echelon: list[tuple[int, list[int]]]) -> list[int]:
    for lead, base in echelon:
        if row[lead]:
            f = row[lead]
            row = [r ^ ctx.mul(f, b) for r, b in zip(row, base)]
    return row


def _normalize(ctx: FieldContext, row: list[int]) -> tuple[int, list[int]]:
    lead = next(i for i, v in enumerate(row) if v)
    inv = ctx.inv(row[lead])
    return lead, [ctx.mul(inv, v) for v in row]


# -- basis construction ---------------------------------------------------

def _dpoly_vector(dpoly: tuple[int, ...], mons: list[tuple[int, int]]) -> list[int]:
    vec = [0] * len(mons)
    for i, c in enumerate(dpoly):
        vec[mons.index((i, 0))] = c
    return vec


def rr_basis(curve: Curve, ext: ExtFieldContext, place: PlaceD) -> RRSpace:
    """Basis of L(Q) split as the constant 1 plus the complement V.

    L(Q) is the GF(2) nullspace of N(-R) = 0 read back as GF(q) vectors; V
    is that nullspace row-reduced against D's vector over GF(q).
    """
    ctx = curve.ctx
    d = place.d
    mons = monomials_L2dO(d)
    negR = curve.neg(place.representative, ext)
    vals = [ext.mul(ext.pow(negR.x, i), ext.pow(negR.y, j)) for i, j in mons]
    # N(-R) = 0 is GF(2)-linear in the bits of the c_k: column k*n + b is
    # embed(2^b) * m_k(-R).  A null combo led by column (k, 0) is the reduced
    # GF(q) basis vector of free column k (1 there, 0 at the other free ones).
    n = ctx.n
    cols = [ext.mul(ext.embed(1 << b), v) for v in vals for b in range(n)]
    nullspace = [[(combo >> k * n) & ctx.q - 1 for k in range(len(mons))]
                 for combo in GF2Solver(cols).null_combos
                 if (combo.bit_length() - 1) % n == 0]
    if len(nullspace) != d:
        raise IrregularPlaceError(
            f"nullspace dimension {len(nullspace)} != d={d}; irregular place")
    dvec = _dpoly_vector(place.dpoly, mons)
    # row-reduce the nullspace against D's vector so V complements the constants
    echelon = [_normalize(ctx, list(dvec))]
    v_rows = []
    for vec in nullspace:
        red = _reduce_row(ctx, list(vec), echelon)
        if any(red):
            entry = _normalize(ctx, red)
            echelon.append(entry)
            v_rows.append(entry[1])
    mk = lambda vec: CurveFunction(d=d, coeffs=tuple(vec), dpoly=place.dpoly)
    return RRSpace(place=place,
                   full_basis=(mk(dvec),) + tuple(mk(v) for v in v_rows),
                   V_basis=tuple(mk(v) for v in v_rows))


# -- evaluation -----------------------------------------------------------

def eval_function(curve: Curve, z: CurveFunction, P: Point) -> int:
    """z(P) for a rational point P (including the infinity place)."""
    ctx = curve.ctx
    mons = monomials_L2dO(z.d)
    if P.is_infinity:
        # only x^d can match D's pole order 2d at O; D is monic
        return z.coeffs[mons.index((z.d, 0))]
    num = 0
    for (i, j), c in zip(mons, z.coeffs):
        if c:
            num ^= ctx.mul(c, ctx.mul(ctx.pow(P.x, i), ctx.pow(P.y, j)))
    den = 0
    for c in reversed(z.dpoly):
        den = ctx.mul(den, P.x) ^ c
    return ctx.div(num, den)
