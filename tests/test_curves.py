"""Curve group law, point counting, admissible traces, cyclic search."""

import math
import random

import pytest

from conftest import cached_curve
from ecseq.curves import (Curve, CurveSearchSpec, INFINITY, Point,
                          admissible_t, is_cyclic, ordered_points, point_order,
                          search_cyclic_curve, special_traces)
from ecseq.gf2 import ValidationError, factorize, make_ext, make_field
from oracles import rational_points


def test_admissible_traces_small():
    # q=8: odd |t| <= 5, plus 0 and +/-sqrt(16)=4
    assert admissible_t(3) == [-5, -4, -3, -1, 0, 1, 3, 4, 5]
    assert special_traces(4) == [-4, 0, 4]
    assert special_traces(5) == [-8, 0, 8]
    with pytest.raises(ValidationError):
        admissible_t(1)


def test_search_spec_validation():
    with pytest.raises(ValidationError):
        CurveSearchSpec(3, 2).validate()  # even t that is not special
    CurveSearchSpec(3, 4).validate()
    assert CurveSearchSpec(3, 3).model_family == "ordinary"
    assert CurveSearchSpec(3, 4).model_family == "supersingular"


def test_singular_curve_rejected():
    ctx = make_field(3)
    with pytest.raises(ValidationError):
        Curve(ctx, 1, 0, 0, 0, 0)  # ordinary model needs a6 != 0
    with pytest.raises(ValidationError):
        Curve(ctx, 0, 0, 0, 1, 1)  # supersingular model needs a3 != 0


def test_point_count_matches_enumeration():
    rng = random.Random(0)
    for n in (3, 4):
        ctx = make_field(n)
        for _ in range(10):
            a2, a6 = rng.randrange(ctx.q), rng.randrange(1, ctx.q)
            curve = Curve(ctx, 1, a2, 0, 0, a6)
            assert curve.N == len(rational_points(curve))
            assert abs(curve.t) <= math.isqrt(4 * ctx.q)


@pytest.mark.parametrize("n,t", [(3, 4), (4, 1), (4, -4), (6, 8)])
def test_group_law(n, t):
    curve, gen = cached_curve(n, t)
    pts = [INFINITY, *curve.iter_points()]
    rng = random.Random(n)
    sample = [pts[rng.randrange(len(pts))] for _ in range(12)]
    for P in sample:
        assert curve.add(P, curve.neg(P)).is_infinity
        assert curve.add(P, INFINITY) == P
        for Q in sample:
            R = curve.add(P, Q)
            assert curve.on_curve(R)
            assert R == curve.add(Q, P)
            for S in sample[:4]:
                assert curve.add(curve.add(P, Q), S) == curve.add(P, curve.add(Q, S))


def test_scalar_mul_is_group_power():
    curve, gen = cached_curve(3, 4)
    acc = INFINITY
    for k in range(2 * curve.N):
        assert curve.scalar_mul(k, gen) == acc
        acc = curve.add(acc, gen)
    assert curve.scalar_mul(curve.N, gen).is_infinity
    assert curve.scalar_mul(-1, gen) == curve.neg(gen)


def test_smallest_instance_pinned():
    curve, gen = cached_curve(3, 4)
    assert curve.N == 13
    assert (curve.a1, curve.a2, curve.a3, curve.a4, curve.a6) == (0, 0, 1, 1, 1)
    assert gen == Point(2, 0)
    assert point_order(curve, gen, factorize(curve.N)) == 13


def test_is_cyclic_agrees_with_group_exponent():
    # oracle: the group is cyclic iff lcm of all point orders equals N
    noncyclic_n = set()
    # n=4, a2=8: N=18 gives Z/3 x Z/6; n=6: the N=72 curves are Z/3 x Z/24
    for n, a2s in ((4, range(9)), (6, range(2))):
        ctx = make_field(n)
        for a2, a6 in ((a2, a6) for a2 in a2s for a6 in range(1, ctx.q)):
            curve = Curve(ctx, 1, a2, 0, 0, a6)
            factored = factorize(curve.N)
            exponent = 1
            for P in curve.iter_points():
                exponent = math.lcm(exponent, point_order(curve, P, factored))
            ok, gen = is_cyclic(curve)
            assert ok == (exponent == curve.N)
            if ok:
                assert point_order(curve, gen, factored) == curve.N
            else:
                noncyclic_n.add(n)
    assert noncyclic_n == {4, 6}  # the sweep exercises both outcomes in both fields


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_search_succeeds_for_all_admissible(n):
    for t in admissible_t(n):
        curve, gen = search_cyclic_curve(CurveSearchSpec(n, t))
        assert curve.t == t and curve.N == (1 << n) + 1 + t
        assert point_order(curve, gen, factorize(curve.N)) == curve.N


def _models_in_lex_order(q, t):
    """The documented sweep: ordinary (a2, a6 != 0), supersingular (a3 != 0, a4, a6)."""
    if t % 2:
        return ((1, a2, 0, 0, a6) for a2 in range(q) for a6 in range(1, q))
    return ((0, 0, a3, a4, a6) for a3 in range(1, q) for a4 in range(q) for a6 in range(q))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_search_returns_first_cyclic_model_in_lex_order(n):
    # brute-force reference: direct point count and the (x, y)-ordered
    # point sweep, with no count table or transform
    ctx = make_field(n)
    for t in admissible_t(n):
        N = ctx.q + 1 + t
        for coeffs in _models_in_lex_order(ctx.q, t):
            curve = Curve(ctx, *coeffs)
            if curve.N != N:
                continue
            factored = factorize(N)
            gens = [P for P in curve.iter_points()
                    if point_order(curve, P, factored) == N]
            if gens:
                break
        else:
            raise AssertionError(f"no cyclic model for n={n} t={t}")
        got, gen = search_cyclic_curve(CurveSearchSpec(n, t))
        assert (got.a1, got.a2, got.a3, got.a4, got.a6) == coeffs
        assert gen == gens[0]


def test_ordered_points_bijection():
    curve, gen = cached_curve(4, 1)
    pts = ordered_points(curve, gen)
    assert len(pts) == curve.N
    assert pts[0].is_infinity
    assert set(pts) == {INFINITY, *curve.iter_points()}


def test_ordered_points_rejects_low_order_point():
    curve, gen = cached_curve(4, 1)  # N = 18
    low = curve.scalar_mul(2, gen)   # order 9
    with pytest.raises(ValidationError):
        ordered_points(curve, low)


def test_group_law_consistent_with_extension():
    curve, gen = cached_curve(3, 4)
    ext = make_ext(curve.ctx, 2)
    pts = [INFINITY, *curve.iter_points()][:8]
    for P in pts:
        for Q in pts:
            R = curve.add(P, Q)
            Pe = P if P.is_infinity else Point(ext.embed(P.x), ext.embed(P.y))
            Qe = Q if Q.is_infinity else Point(ext.embed(Q.x), ext.embed(Q.y))
            Re = curve.add(Pe, Qe, ext)
            if R.is_infinity:
                assert Re.is_infinity
            else:
                assert Re == Point(ext.embed(R.x), ext.embed(R.y))
