"""Function-space linear algebra: dimension, constants, evaluation."""

import itertools

import pytest

from conftest import cached_curve, cached_instance
from ecseq.family import enumerate_V
from ecseq.gf2 import make_ext
from ecseq.places import PlaceD, _build_place, enumerate_places_deg_d
from ecseq.rrspace import (CurveFunction, check_sum_nonconstant, eval_function,
                           monomials_L2dO, rr_basis)


def test_monomials():
    assert monomials_L2dO(2) == [(0, 0), (1, 0), (0, 1), (2, 0)]
    assert monomials_L2dO(3) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (3, 0)]
    with pytest.raises(ValueError):
        monomials_L2dO(1)


@pytest.mark.parametrize("n,t,d", [(3, 4, 2), (3, 4, 3), (4, -1, 3), (4, -4, 2)])
def test_basis_shape_and_constant(n, t, d):
    curve, P, ext, place, space = cached_instance(n, t, d)
    assert len(space.full_basis) == d
    assert len(space.V_basis) == d - 1
    pts = curve.points_over()
    const = space.full_basis[0]
    for pt in pts:
        assert eval_function(curve, const, pt) == 1
    # V basis functions take at least two values: never constant
    for z in space.V_basis:
        vals = {eval_function(curve, z, pt) for pt in pts}
        assert len(vals) >= 2


@pytest.mark.parametrize("n,t,d", [(3, 4, 2), (3, 4, 3)])
def test_numerators_vanish_on_negated_orbit(n, t, d):
    curve, P, ext, place, space = cached_instance(n, t, d)
    mons = monomials_L2dO(d)
    for z in space.full_basis:
        for R in place.orbit:
            S = curve.neg(R, ext)
            acc = 0
            for (i, j), c in zip(mons, z.coeffs):
                if c:
                    acc ^= ext.mul(ext.embed(c),
                                   ext.mul(ext.pow(S.x, i), ext.pow(S.y, j)))
            assert acc == 0


def test_dimension_over_all_regular_places():
    curve, P = cached_curve(3, 4)
    for d in (2, 3):
        ext = make_ext(curve.ctx, d)
        regular = 0
        for orbit in enumerate_places_deg_d(curve, ext, d):
            place = _build_place(curve, ext, orbit[0], d)
            if place is None:
                continue
            regular += 1
            space = rr_basis(curve, ext, place)
            assert len(space.full_basis) == d
        assert regular > 0


@pytest.mark.parametrize("n,t,d", [(3, 4, 2), (3, 4, 3)])
def test_sum_of_distinct_v_functions_nonconstant(n, t, d):
    curve, P, ext, place, space = cached_instance(n, t, d)
    zs = enumerate_V(curve.ctx, space)
    for z1, z2 in itertools.combinations(zs, 2):
        assert check_sum_nonconstant(curve.ctx, z1, z2)
    for z in zs:
        assert not check_sum_nonconstant(curve.ctx, z, z)


def test_eval_at_infinity_reads_leading_coefficient():
    curve, P, ext, place, space = cached_instance(3, 4, 2)
    mons = monomials_L2dO(2)
    lead = mons.index((2, 0))
    for z in space.full_basis:
        assert eval_function(curve, z, curve.points_over()[0]) == z.coeffs[lead]


def test_serialization_roundtrips_coefficients():
    curve, P, ext, place, space = cached_instance(3, 4, 2)
    z = space.V_basis[0]
    blob = z.serialize()
    assert set(blob) == {"monomials", "dpoly"}
    assert len(blob["dpoly"]) == 3
