"""Function-space linear algebra: dimension, constants, evaluation."""

from operator import xor

import pytest

from conftest import cached_instance
from ecseq.curves import INFINITY
from ecseq.rrspace import CurveFunction, eval_function, monomials_L2dO
from oracles import enumerate_V, function_values, sum_is_constant


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
    const, *vals = function_values(curve, space.full_basis)
    assert set(const) == {1}
    # V basis functions take at least two values: never constant
    for v in vals:
        assert len(set(v)) >= 2


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


@pytest.mark.parametrize("n,t,d", [(3, 4, 2), (3, 4, 3)])
def test_sum_of_distinct_v_functions_nonconstant(n, t, d):
    curve, P, ext, place, space = cached_instance(n, t, d)
    # z + z = 0 and z + (z + 1) = 1 are constant; distinct pairs are
    # criterion 6's, which covers both instances
    one = space.full_basis[0].coeffs
    for z in enumerate_V(curve.ctx, space):
        z1 = CurveFunction(d=d, coeffs=tuple(map(xor, z.coeffs, one)), dpoly=z.dpoly)
        v, v1 = function_values(curve, [z, z1])
        assert sum_is_constant(v, v) and sum_is_constant(v, v1)


def test_eval_at_infinity_reads_leading_coefficient():
    curve, P, ext, place, space = cached_instance(3, 4, 2)
    mons = monomials_L2dO(2)
    lead = mons.index((2, 0))
    for z in space.full_basis:
        assert eval_function(curve, z, INFINITY) == z.coeffs[lead]


def test_serialization_roundtrips_coefficients():
    curve, P, ext, place, space = cached_instance(3, 4, 2)
    z = space.V_basis[0]
    blob = z.serialize()
    assert set(blob) == {"monomials", "dpoly"}
    assert len(blob["dpoly"]) == 3
