"""Shared cached constructions so expensive instances are built once."""

from __future__ import annotations

import functools
import random

from ecseq.curves import CurveSearchSpec, search_cyclic_curve
from ecseq.family import build_family
from ecseq.gf2 import make_ext, make_field
from ecseq.places import find_place
from ecseq.rrspace import rr_basis


@functools.lru_cache(maxsize=None)
def cached_curve(n: int, t: int):
    """(curve, generator) for the deterministic sweep at (n, t)."""
    return search_cyclic_curve(CurveSearchSpec(n, t))


@functools.lru_cache(maxsize=None)
def cached_instance(n: int, t: int, d: int):
    """(curve, P, ext, place, space): the pieces build_family passes to gen_family."""
    ext = make_ext(make_field(n), d)
    curve, P = cached_curve(n, t)
    place = find_place(curve, ext, d)
    return curve, P, ext, place, rr_basis(curve, ext, place)


cached_family = functools.lru_cache(maxsize=None)(build_family)


def serre_breaking_family():
    """The (9, 32, 2) family with plane 8 (row 255) replaced by a seeded
    sequence that follows itself at shift 7 with flip probability 0.3, so
    the rows stay the span of their planes and break the Serre form only
    at row 255, u in {7, 538}, while every |A_u| stays within the family bound."""
    fam = cached_family(9, 32, 2)
    rng = random.Random(1)
    seq = [rng.randrange(2) for _ in range(7)]
    for j in range(7, fam.N):
        seq.append(seq[j - 7] ^ (rng.random() < 0.3))
    planes = list(fam.planes)
    planes[8] = sum(b << j for j, b in enumerate(seq))
    return fam._replace(planes=tuple(planes))

