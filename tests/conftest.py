"""Shared cached constructions so expensive instances are built once."""

from __future__ import annotations

import functools

from ecseq.curves import CurveSearchSpec, search_cyclic_curve
from ecseq.family import build_instance, gen_family


@functools.lru_cache(maxsize=None)
def cached_curve(n: int, t: int):
    """(curve, generator) for the deterministic sweep at (n, t)."""
    return search_cyclic_curve(CurveSearchSpec(n, t))


# (curve, P, ext, place, space) — the full pipeline minus bit output
cached_instance = functools.lru_cache(maxsize=None)(build_instance)


@functools.lru_cache(maxsize=None)
def cached_family(n: int, t: int, d: int):
    curve, P, ext, place, space = cached_instance(n, t, d)
    return gen_family(curve, P, space, ext)
