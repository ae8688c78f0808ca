"""Shared cached constructions so expensive instances are built once."""

from __future__ import annotations

import dataclasses
import functools
import random

from ecseq.analysis import rotate
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


def serre_breaking_family():
    """The (9, 32, 2) family with row 300 replaced by a seeded sequence
    that follows itself at shift 7 with flip probability 0.3, so it
    breaks the Serre form only at u in {7, 538} while every |A_u| stays
    within the family bound."""
    fam = cached_family(9, 32, 2)
    rng = random.Random(1)
    seq = [rng.randrange(2) for _ in range(7)]
    for j in range(7, fam.N):
        seq.append(seq[j - 7] ^ (rng.random() < 0.3))
    bits = list(fam.bits)
    bits[300] = sum(b << j for j, b in enumerate(seq))
    return dataclasses.replace(fam, bits=bits)


def brute_lc(s: int, N: int) -> int:
    """Minimal ell such that some lambda with lambda_0 = lambda_ell = 1
    satisfies sum_i lambda_i s_{i+u} = 0 for all cyclic shifts u."""
    for ell in range(1, N + 1):
        for mid in range(1 << max(ell - 1, 0)):
            lam = 1 | (mid << 1) | (1 << ell)
            rec = 0
            for i in range(ell + 1):
                if (lam >> i) & 1:
                    rec ^= 1 << (ell - i) % N
            if all(((rec & rotate(s, u, N)).bit_count() & 1) == 0
                   for u in range(N)):
                return ell
    return N
