"""Sequence family generation s_{i,j} = Tr(z_i(P_j)) and the ECSEQ v1 file.

A family is its n(d-1) bit planes: row m, an int with bit j = s_{m,j}, is the XOR
of the planes that the bits of m + 1 select, so plane k is row 2^k - 1.  The
file packs each row MSB-first and pads the last byte with zeros.  A file is
valid only as format_family(build_family(n, t, d)) for the n, t, d in its header.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple

from .curves import (Curve, CurveSearchSpec, Point, admissible_t, ordered_points,
                     search_cyclic_curve)
from .gf2 import (MAX_DEGREE, MAX_EXT_DEGREE, MIN_DEGREE, ExtFieldContext,
                  ValidationError, make_ext, make_field, require_degree, span)
from .places import find_place
from .rrspace import RRSpace, eval_function, rr_basis


class FormatError(ValueError):
    """Malformed ECSEQ file."""


def family_sizes(n: int) -> dict[tuple[int, int], tuple[int, int]]:
    """Every family that generate builds and read_family accepts over GF(2^n), as
    {(t, d): (N, M)}: t admissible, d in {2, 3}, q^d within the extension cap and
    gcd(d, N) = 1, where N = q + 1 + t and M = q^(d-1) - 1; empty for n out of range."""
    ts = admissible_t(n) if MIN_DEGREE <= n <= MAX_DEGREE else []
    return {(t, d): ((1 << n) + 1 + t, (1 << n * (d - 1)) - 1) for t in ts for d in (2, 3)
            if n * d <= MAX_EXT_DEGREE and math.gcd(d, (1 << n) + 1 + t) == 1}


def require_family(n: int, t: int, d: int) -> None:
    require_degree(n)  # so only an n in range is pointed at `ecseq admissible`
    if (t, d) not in family_sizes(n):
        raise ValidationError(f"no family for n={n} t={t} d={d}; see `ecseq admissible --n {n}`")


class SequenceFamily(namedtuple("SequenceFamily", "n t d N planes provenance", defaults=({},))):
    """A family over GF(2^n) held as its bit planes, from which M and the rows derive.
    The default provenance is one shared dict, which nothing mutates."""

    __slots__ = ()

    @property
    def q(self) -> int:
        return 1 << self.n

    @property
    def M(self) -> int:
        return (1 << len(self.planes)) - 1

    @property
    def bits(self) -> list[int]:
        """The M rows, span(planes)[1:]: bits[i] bit j = s_{i,j}; computed on
        each access, so a caller that reads it more than once binds it."""
        return span(self.planes)[1:]


def build_family(n: int, t: int, d: int) -> SequenceFamily:
    """The family generate writes for (n, t, d): the first cyclic curve with
    N = 2^n + 1 + t and its generator P, the degree-d extension, the first
    regular degree-d place and the traces of L(Q)'s basis.  Raises
    ValidationError, before any search, for q^d over the extension cap or a
    (t, d) that family_sizes(n) does not list.
    """
    ext = make_ext(make_field(n), d)
    require_family(n, t, d)
    curve, P = search_cyclic_curve(CurveSearchSpec(n, t))
    return gen_family(curve, P, rr_basis(curve, ext, find_place(curve, ext, d)), ext)


def gen_family(curve: Curve, P: Point, space: RRSpace,
               ext: ExtFieldContext) -> SequenceFamily:
    """The family's bit planes with regeneration provenance.

    Tr(c * b(P_j)) is GF(2)-linear in c, so the rows are the GF(2) span of
    n*(d-1) bit planes Tr(x^i * b_k(P_j)).  Row m is the XOR of the planes
    selected by the bits of m + 1, whose base-q digits are the coefficients
    of row m's function over V_basis, most significant first: bit p selects
    bit i = p % n of the coefficient c_k of V_basis[k], k = d-2 - p // n.
    """
    ctx = curve.ctx
    pts = ordered_points(curve, P)
    mul, trace = ctx.mul, ctx.trace
    planes = []
    for b in reversed(space.V_basis):
        vals = [eval_function(curve, b, pt) for pt in pts]
        for i in range(ctx.n):
            planes.append(sum(trace(mul(1 << i, v)) << j for j, v in enumerate(vals)))
    prov = {
        "field": ctx.serialize(),
        "ext_field": ext.serialize(),
        "curve": curve.serialize(),
        "generator": P.serialize(),
        "place": space.place.serialize(),
        "V_basis": [b.serialize() for b in space.V_basis],
    }
    return SequenceFamily(n=ctx.n, t=curve.t, d=space.place.d, N=curve.N,
                          planes=tuple(planes), provenance=prov)


# ----------------------------------------------------------------------
# ECSEQ v1 serialization.

_HEADER = "ECSEQ v1 n={} t={} d={} N={} M={}"
_REVERSED_BITS = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _pack_row(row: int, N: int) -> bytes:
    """Bit j of row becomes bit j of the MSB-first byte string."""
    return row.to_bytes((N + 7) // 8, "little").translate(_REVERSED_BITS)


def format_family(family: SequenceFamily) -> bytes:
    """The ECSEQ v1 file: header, provenance, then one hex row per line."""
    return "".join(ln + "\n" for ln in [
        _HEADER.format(family.n, family.t, family.d, family.N, family.M),
        json.dumps(family.provenance, sort_keys=True, separators=(",", ":")),
        *(_pack_row(row, family.N).hex() for row in family.bits)]).encode()


def write_family(family: SequenceFamily, path) -> bytes:
    """Writes format_family(family) to path and returns those bytes."""
    with open(path, "wb") as fh:
        fh.write(data := format_family(family))
    return data


def read_family(path) -> SequenceFamily:
    with open(path, "rb") as fh:
        return parse_family(fh.read())


def parse_family(data: bytes) -> SequenceFamily:
    """The family that an ECSEQ v1 file's header names, rebuilt by build_family;
    FormatError unless data is exactly format_family's bytes for it."""
    header = data.split(b"\n", 1)[0]
    if not header.startswith(b"ECSEQ v1 "):
        raise FormatError("missing ECSEQ v1 header")
    try:
        fields = dict(kv.split("=") for kv in header.decode().split()[2:])
        n, t, d = (int(fields[key]) for key in "ntd")
    except (KeyError, ValueError) as exc:
        raise FormatError(f"bad ECSEQ header: {exc}") from exc
    if (t, d) not in (sizes := family_sizes(n)):
        raise FormatError(f"n={n} t={t} d={d} is not a family generate builds")
    if header != _HEADER.format(n, t, d, *sizes[t, d]).encode():  # before any construction
        raise FormatError("line 1 differs from format_family's bytes for this family")
    family = build_family(n, t, d)
    if (want := format_family(family)) != data:
        pairs = zip(data.splitlines(True) + [None], want.splitlines(True) + [None])
        line = next(k for k, (a, b) in enumerate(pairs, 1) if a != b)
        raise FormatError(f"line {line} differs from format_family's bytes for this family")
    return family
