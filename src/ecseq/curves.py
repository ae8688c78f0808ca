"""Weierstrass curves over GF(2^n): group law, counting, cyclicity, search.

A curve is the long Weierstrass model y^2 + a1*x*y + a3*y = x^3 + a2*x^2 +
a4*x + a6 with coefficients in the base field.  Points may live over the
base field or over an extension; group-law methods take the field context
the coordinates belong to (curve coefficients are embedded as needed).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .gf2 import (
    MAX_DEGREE,
    MIN_DEGREE,
    ExtFieldContext,
    FieldContext,
    ValidationError,
    elem_to_hex,
    factorize,
    make_field,
)


@dataclass(frozen=True)
class Point:
    """Affine point or the infinity place O (x is None)."""

    x: int | None = None
    y: int | None = None

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def serialize(self):
        if self.is_infinity:
            return "O"
        return {"x": elem_to_hex(self.x), "y": elem_to_hex(self.y)}


INFINITY = Point()


def _sort_key(P: Point) -> tuple[int, int]:
    return (-1, -1) if P.is_infinity else (P.x, P.y)


class SearchExhaustedError(RuntimeError):
    """No cyclic curve found in the swept model family."""


class Curve:
    """Smooth long-Weierstrass curve over GF(2^n) with cached point count."""

    def __init__(self, ctx: FieldContext, a1: int, a2: int, a3: int, a4: int, a6: int):
        self.ctx = ctx
        self.a1, self.a2, self.a3, self.a4, self.a6 = a1, a2, a3, a4, a6
        if self._discriminant() == 0:
            raise ValidationError("singular curve")
        self.N = 1 + sum(1 for _ in self.iter_points())
        self.t = self.N - ctx.q - 1
        if self.t * self.t > 4 * ctx.q:
            raise AssertionError("Serre bound violated; counting bug")

    def _discriminant(self) -> int:
        m = self.ctx.mul
        a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
        b2 = m(a1, a1)
        b4 = m(a1, a3)
        b6 = m(a3, a3)
        b8 = m(b2, a6) ^ m(a1, m(a3, a4)) ^ m(a2, b6) ^ m(a4, a4)
        # char-2 reduction of -b2^2*b8 - 8*b4^3 - 27*b6^2 + 9*b2*b4*b6
        return m(m(b2, b2), b8) ^ m(b6, b6) ^ m(b2, m(b4, b6))

    # -- coordinate fields ------------------------------------------------

    def coeffs_in(self, fld: FieldContext) -> tuple[int, int, int, int, int]:
        coeffs = (self.a1, self.a2, self.a3, self.a4, self.a6)
        if fld is self.ctx:
            return coeffs
        assert isinstance(fld, ExtFieldContext) and fld.base is self.ctx
        return tuple(map(fld.embed, coeffs))

    # -- point predicates --------------------------------------------------

    def on_curve(self, P: Point, fld: FieldContext | None = None) -> bool:
        if P.is_infinity:
            return True
        fld = fld or self.ctx
        a1, a2, a3, a4, a6 = self.coeffs_in(fld)
        m = fld.mul
        x, y = P.x, P.y
        lhs = m(y, y) ^ m(a1, m(x, y)) ^ m(a3, y)
        rhs = m(x, m(x, x)) ^ m(a2, m(x, x)) ^ m(a4, x) ^ a6
        return lhs == rhs

    # -- group law ----------------------------------------------------------

    def neg(self, P: Point, fld: FieldContext | None = None) -> Point:
        if P.is_infinity:
            return P
        fld = fld or self.ctx
        a1, _, a3, _, _ = self.coeffs_in(fld)
        return Point(P.x, P.y ^ fld.mul(a1, P.x) ^ a3)

    def add(self, P: Point, Q: Point, fld: FieldContext | None = None) -> Point:
        fld = fld or self.ctx
        if P.is_infinity:
            return Q
        if Q.is_infinity:
            return P
        a1, a2, a3, a4, _ = self.coeffs_in(fld)
        m = fld.mul
        x1, y1, x2, y2 = P.x, P.y, Q.x, Q.y
        if x1 == x2:
            if y1 != y2:  # Q = -P
                return INFINITY
            den = m(a1, x1) ^ a3
            if den == 0:  # P is its own negative
                return INFINITY
            lam = fld.div(m(x1, x1) ^ a4 ^ m(a1, y1), den)
            x3 = m(lam, lam) ^ m(a1, lam) ^ a2
        else:
            lam = fld.div(y1 ^ y2, x1 ^ x2)
            x3 = m(lam, lam) ^ m(a1, lam) ^ a2 ^ x1 ^ x2
        y3 = m(lam, x1 ^ x3) ^ y1 ^ m(a1, x3) ^ a3
        return Point(x3, y3)

    def scalar_mul(self, k: int, P: Point, fld: FieldContext | None = None) -> Point:
        fld = fld or self.ctx
        if k < 0:
            k, P = -k, self.neg(P, fld)
        R = INFINITY
        while k:
            if k & 1:
                R = self.add(R, P, fld)
            P = self.add(P, P, fld)
            k >>= 1
        return R

    # -- point enumeration ---------------------------------------------------

    def iter_points(self, fld: FieldContext | None = None,
                    xs: Iterable[int] | None = None) -> Iterator[Point]:
        """The affine points with coordinates in fld, lazily, in (x, y) order;
        only those over xs (in its order) when given."""
        fld = fld or self.ctx
        a1, a2, a3, a4, a6 = self.coeffs_in(fld)
        m = fld.mul
        for x in fld.elements() if xs is None else xs:
            c = m(a1, x) ^ a3
            u = m(x, m(x, x)) ^ m(a2, m(x, x)) ^ m(a4, x) ^ a6
            for y in fld.solve_quadratic(c, u):
                yield Point(x, y)

    def serialize(self) -> dict:
        out = self.ctx.serialize()
        out.update(
            a1=elem_to_hex(self.a1), a2=elem_to_hex(self.a2), a3=elem_to_hex(self.a3),
            a4=elem_to_hex(self.a4), a6=elem_to_hex(self.a6), N=self.N, t=self.t,
        )
        return out

    def __repr__(self) -> str:
        return (f"Curve(n={self.ctx.n}, a=({self.a1},{self.a2},{self.a3},"
                f"{self.a4},{self.a6}), N={self.N})")


# ----------------------------------------------------------------------
# Admissible traces and curve search.

def special_traces(n: int) -> list[int]:
    """The even admissible traces: 0 and +/-sqrt(q) or +/-sqrt(2q)."""
    q = 1 << n
    s = math.isqrt(q << n % 2)
    return [-s, 0, s]


def admissible_t(n: int) -> list[int]:
    """All traces t for which a cyclic curve with N = q+1+t exists."""
    if not MIN_DEGREE <= n <= MAX_DEGREE:
        raise ValidationError(f"n={n} outside supported range [{MIN_DEGREE}, {MAX_DEGREE}]")
    q = 1 << n
    ts = set(special_traces(n))
    bound = math.isqrt(4 * q)
    for t in range(-bound, bound + 1):
        if t % 2 != 0:
            ts.add(t)
    return sorted(ts)


@dataclass(frozen=True)
class CurveSearchSpec:
    """Target (n, t) for the deterministic cyclic-curve sweep."""

    n: int
    t: int

    @property
    def model_family(self) -> str:
        return "ordinary" if self.t % 2 else "supersingular"

    def validate(self) -> None:
        if self.t not in admissible_t(self.n):
            raise ValidationError(f"t={self.t} is not admissible for n={self.n}")


def point_order(curve: Curve, P: Point, factored_N: dict[int, int]) -> int:
    o = curve.N
    for p in factored_N:
        while o % p == 0:
            if curve.scalar_mul(o // p, P).is_infinity:
                o //= p
            else:
                break
    return o


def is_cyclic(curve: Curve) -> tuple[bool, Point | None]:
    """Whether the rational-point group is cyclic; witness generator if so.

    It is Z/n1 x Z/n2 with n2 | gcd(n1, q - 1): it is not cyclic iff for a
    prime ell with ell^2 | N and ell | q - 1, the Sylow subgroup (generated
    by the [N/ell^v]P) has no point of order ell^v.  The witness is the
    order-N point with the smallest (x, y), the first from iter_points.
    """
    factored = factorize(curve.N)
    for ell, v in factored.items():
        if v > 1 and (curve.ctx.q - 1) % ell == 0:
            size, sylow, points = ell**v, {INFINITY}, curve.iter_points()
            while len(sylow) < size:  # join the next [N/ell^v]P to the subgroup
                R = curve.scalar_mul(curve.N // size, next(points))
                while new := {curve.add(S, R) for S in sylow} - sylow:
                    sylow |= new
            if all(curve.scalar_mul(size // ell, S).is_infinity for S in sylow):
                return False, None
    for P in curve.iter_points():
        if point_order(curve, P, factored) == curve.N:
            return True, P
    return curve.N == 1, None


def _ordinary_models(ctx: FieldContext, N: int) -> Iterator[tuple[int, ...]]:
    """y^2 + xy = x^3 + a2 x^2 + a6 (a6 != 0) with N points, in (a2, a6) lex order.

    2 + 2*h0 points at Tr(a2) = 0, else 2 + 2*(q-1-h0), where h0 counts the
    x != 0 with Tr(x) = Tr(sqrt(a6)/x).  With x = sqrt(a6)*y that is
    cnt[sqrt(a6)] - 1, cnt the agreements of g(y) = Tr(1/y), g(0) = 0.
    """
    q = ctx.q
    cnt = ctx.trace_agreements([ctx.trace(ctx.inv(y)) if y else 0 for y in ctx.elements()])
    h0 = [cnt[ctx.sqrt(a6)] - 1 for a6 in range(1, q)]
    hits = ([a6 for a6, h in enumerate(h0, 1) if 2 + 2 * h == N],
            [a6 for a6, h in enumerate(h0, 1) if 2 + 2 * (q - 1 - h) == N])
    for a2 in range(q):
        for a6 in hits[ctx.trace(a2)]:
            yield (1, a2, 0, 0, a6)


def _supersingular_models(ctx: FieldContext, N: int) -> Iterator[tuple[int, ...]]:
    """y^2 + a3 y = x^3 + a4 x + a6 (a3 != 0) with N points, in (a3, a4, a6) lex order.

    With w = a3^-2: 1 + 2*cnt0 points at Tr(w*a6) = 0, else 1 + 2*(q-cnt0),
    where cnt0 = #{x : Tr(w*x^3) = Tr(w*a4*x)} = cnt[w*a4]: one transform per a3.
    """
    q, mul, trace = ctx.q, ctx.mul, ctx.trace
    for a3 in range(1, q):
        w = ctx.inv(mul(a3, a3))
        cnt = ctx.trace_agreements([trace(mul(w, ctx.pow(x, 3))) for x in ctx.elements()])
        for a4 in range(q):
            cnt0 = cnt[mul(w, a4)]
            if N - 1 not in (2 * cnt0, 2 * (q - cnt0)):
                continue
            for a6 in range(q):
                h = cnt0 if trace(mul(w, a6)) == 0 else q - cnt0
                if 1 + 2 * h == N:
                    yield (0, 0, a3, a4, a6)


def search_cyclic_curve(spec: CurveSearchSpec) -> tuple[Curve, Point]:
    """First cyclic curve (lexicographic coefficient order) with N = q+1+t.

    Odd t sweeps ordinary models, even t supersingular ones.  Both count
    points by the Walsh identity #{x : f(x) = Tr(c*x)} = (q + sum_x
    (-1)^(f(x) + Tr(c*x))) / 2 (FieldContext.trace_agreements), checked by
    Curve's direct count.
    """
    spec.validate()
    ctx = make_field(spec.n)
    N = ctx.q + 1 + spec.t
    models = _ordinary_models if spec.t % 2 else _supersingular_models
    for coeffs in models(ctx, N):
        curve = Curve(ctx, *coeffs)
        assert curve.N == N  # a wrong transform fails here
        ok, gen = is_cyclic(curve)
        if ok:
            return curve, gen
    raise SearchExhaustedError(
        f"no cyclic {spec.model_family} curve with N={N} over GF(2^{ctx.n})")


def ordered_points(curve: Curve, P: Point) -> list[Point]:
    """[O, P, [2]P, ..., [N-1]P]; requires P of order N."""
    pts = [INFINITY]
    R = P
    for _ in range(curve.N - 1):
        if R.is_infinity:  # order of P properly divides N
            raise ValidationError("generator order does not equal the point count")
        pts.append(R)
        R = curve.add(R, P)
    if not R.is_infinity:
        raise ValidationError("generator order does not equal the point count")
    return pts
