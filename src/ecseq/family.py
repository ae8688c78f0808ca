"""Sequence family generation s_{i,j} = Tr(z_i(P_j)) and the ECSEQ v1 file.

Rows are stored as Python ints with bit j (1 << j) holding s_{i,j}; the
on-disk format packs each row MSB-first and pads the last byte with zeros.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .curves import (Curve, CurveSearchSpec, Point, admissible_t, ordered_points,
                     search_cyclic_curve)
from .gf2 import (MAX_DEGREE, MAX_EXT_DEGREE, MIN_DEGREE, ExtFieldContext,
                  ValidationError, make_ext, make_field, span)
from .places import PlaceD, find_place
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
    if (t, d) not in family_sizes(n):
        raise ValidationError(f"no family for n={n} t={t} d={d}; see `ecseq admissible --n {n}`")


@dataclass
class SequenceFamily:
    n: int
    t: int
    d: int
    N: int
    M: int
    bits: list[int]  # bits[i] bit j = s_{i,j}
    provenance: dict = field(default_factory=dict)

    @property
    def q(self) -> int:
        return 1 << self.n


def build_instance(n: int, t: int, d: int
                   ) -> tuple[Curve, Point, ExtFieldContext, PlaceD, RRSpace]:
    """The construction up to the function space: (curve, P, ext, place, space).

    The first cyclic curve with N = 2^n + 1 + t and its generator P, the
    degree-d extension, the first regular degree-d place and the basis of
    L(Q).  Raises ValidationError, before any search, for q^d over the
    extension cap or a (t, d) that family_sizes(n) does not list.
    """
    ext = make_ext(make_field(n), d)
    require_family(n, t, d)
    curve, P = search_cyclic_curve(CurveSearchSpec(n, t))
    place = find_place(curve, ext, d)
    return curve, P, ext, place, rr_basis(curve, ext, place)


def gen_family(curve: Curve, P: Point, space: RRSpace,
               ext: ExtFieldContext) -> SequenceFamily:
    """The full M x N bit matrix with regeneration provenance.

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
    bits = span(planes)[1:]
    prov = {
        "field": ctx.serialize(),
        "ext_field": ext.serialize(),
        "curve": curve.serialize(),
        "generator": P.serialize(),
        "place": space.place.serialize(),
        "V_basis": [b.serialize() for b in space.V_basis],
    }
    return SequenceFamily(n=ctx.n, t=curve.t, d=space.place.d, N=curve.N,
                          M=len(bits), bits=bits, provenance=prov)


# ----------------------------------------------------------------------
# ECSEQ v1 serialization.

def _pack_row(row: int, N: int) -> bytes:
    """Bit j of row becomes bit j of the MSB-first byte string."""
    nbits = 8 * ((N + 7) // 8)
    return int(format(row, f"0{nbits}b")[::-1], 2).to_bytes(nbits // 8, "big")


def _unpack_row(data: bytes, N: int) -> int:
    """Inverse of _pack_row; bits past N-1 are dropped."""
    bits = format(int.from_bytes(data, "big"), f"0{8 * len(data)}b")
    return int(bits[N - 1::-1], 2)


def write_family(family: SequenceFamily, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"ECSEQ v1 n={family.n} t={family.t} d={family.d} "
                 f"N={family.N} M={family.M}\n")
        fh.write(json.dumps(family.provenance, sort_keys=True,
                            separators=(",", ":")) + "\n")
        for row in family.bits:
            fh.write(_pack_row(row, family.N).hex() + "\n")


def read_family(path) -> SequenceFamily:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"not UTF-8 text: {exc}") from exc
    if not lines or not lines[0].startswith("ECSEQ v1 "):
        raise FormatError("missing ECSEQ v1 header")
    try:
        fields = dict(kv.split("=") for kv in lines[0].split()[2:])
        n, t, d = int(fields["n"]), int(fields["t"]), int(fields["d"])
        N, M = int(fields["N"]), int(fields["M"])
        provenance = json.loads(lines[1])
    except (KeyError, ValueError, IndexError, RecursionError) as exc:
        raise FormatError(f"bad ECSEQ header or provenance: {exc}") from exc
    if not isinstance(provenance, dict):
        raise FormatError("provenance is not a JSON object")
    if family_sizes(n).get((t, d)) != (N, M):
        raise FormatError(f"n={n} t={t} d={d} N={N} M={M} is not a family generate builds")
    if len(lines) != 2 + M:
        raise FormatError(f"expected {M} rows, found {len(lines) - 2}")
    nbytes = (N + 7) // 8
    padding = (1 << -N % 8) - 1  # low bits of the last byte, past bit N-1
    bits = []
    for ln in lines[2:]:
        try:
            raw = bytes.fromhex(ln)
        except ValueError as exc:
            raise FormatError(f"bad hex row: {exc}") from exc
        if raw.hex() != ln:
            raise FormatError("row is not canonical lowercase hex")
        if len(raw) != nbytes:
            raise FormatError("row length does not match N")
        if raw[-1] & padding:
            raise FormatError("nonzero padding bits")
        bits.append(_unpack_row(raw, N))
    return SequenceFamily(n=n, t=t, d=d, N=N, M=M, bits=bits, provenance=provenance)
