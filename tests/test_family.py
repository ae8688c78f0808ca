"""Sequence generation, the shift identity, and the ECSEQ v1 file format."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import cached_family, cached_instance
from ecseq import family
from ecseq.curves import CurveSearchSpec, Point, ordered_points
from ecseq.family import (FormatError, _pack_row, build_family, family_sizes, format_family,
                          parse_family, read_family, write_family)
from ecseq.analysis import corr_bound, family_correlation, family_linear_complexity
from ecseq.gf2 import MIN_DEGREE, GF2Solver, ValidationError, span
from ecseq.rrspace import eval_function
from oracles import enumerate_V, shift_identity_check


def test_smallest_family_shape():
    fam = cached_family(3, 4, 2)
    assert (fam.N, fam.M, fam.q) == (13, 7, 8)
    assert len(fam.bits) == 7
    assert all(0 < row < (1 << 13) for row in fam.bits)
    assert len(set(fam.bits)) == 7  # pairwise distinct sequences


@pytest.mark.parametrize("n, t, d", [(3, 4, 2), (3, 4, 3), (5, -1, 3), (6, 8, 2)])
def test_rows_match_direct_trace_evaluation(n, t, d):
    curve, P, ext, place, space = cached_instance(n, t, d)
    fam = cached_family(n, t, d)
    bits = fam.bits
    assert len(bits) == fam.M == (1 << n * (d - 1)) - 1
    pts = ordered_points(curve, P)
    for i, z in enumerate(enumerate_V(curve.ctx, space)):
        row = 0
        for j, pt in enumerate(pts):
            if curve.ctx.trace(eval_function(curve, z, pt)):
                row |= 1 << j
        assert row == bits[i]


def test_rows_are_trace_linear_in_coefficients():
    # row index i encodes coefficient vector i+1; XOR of rows tracks GF(2)
    # addition of coefficient vectors (trace and evaluation are additive)
    bits = cached_family(3, 4, 2).bits
    for a in range(1, 8):
        for b in range(1, 8):
            if a ^ b:
                assert bits[a - 1] ^ bits[b - 1] == bits[(a ^ b) - 1]


def test_shift_identity_full():
    curve, P, ext, place, space = cached_instance(3, 4, 2)
    fam = cached_family(3, 4, 2)
    assert shift_identity_check(fam, curve, P, space)


def test_shift_identity_d3_sampled():
    curve, P, ext, place, space = cached_instance(3, 4, 3)
    fam = cached_family(3, 4, 3)
    pairs = [(0, 1), (7, 5), (fam.M - 1, fam.N - 1), (30, 0)]
    assert shift_identity_check(fam, curve, P, space, pairs=pairs)


def test_enumerate_v_ordering_and_size():
    curve, P, ext, place, space = cached_instance(3, 4, 3)
    zs = enumerate_V(curve.ctx, space)
    assert len(zs) == 8**2 - 1
    assert len({z.coeffs for z in zs}) == len(zs)
    # first function is the last basis vector (coefficient vector (0, 1))
    assert zs[0].coeffs == space.V_basis[1].coeffs
    assert zs[7].coeffs == space.V_basis[0].coeffs  # vector (1, 0)


@given(st.integers(1, 200), st.data())
def test_pack_unpack_roundtrip(N, data):
    # bit j of the row is bit 7 - j % 8 of byte j // 8, and the padding is zero
    row = data.draw(st.integers(0, (1 << N) - 1))
    packed = _pack_row(row, N)
    assert len(packed) == (N + 7) // 8
    assert sum((packed[j // 8] >> 7 - j % 8 & 1) << j for j in range(8 * len(packed))) == row


def test_file_roundtrip_byte_identical(tmp_path):
    fam = cached_family(3, 4, 2)
    p1, p2 = tmp_path / "a.ecseq", tmp_path / "b.ecseq"
    write_family(fam, p1)
    fam2 = read_family(p1)
    assert fam2.bits == fam.bits
    assert fam2.provenance == fam.provenance
    assert (fam2.n, fam2.t, fam2.d, fam2.N, fam2.M) == (3, 4, 2, 13, 7)
    write_family(fam2, p2)
    assert hashlib.sha256(p1.read_bytes()).digest() == hashlib.sha256(p2.read_bytes()).digest()


def test_header_line_format(tmp_path):
    fam = cached_family(3, 4, 2)
    path = tmp_path / "fam.ecseq"
    write_family(fam, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "ECSEQ v1 n=3 t=4 d=2 N=13 M=7"
    assert len(lines) == 2 + fam.M
    assert all(len(ln) == 4 for ln in lines[2:])  # ceil(13/8)=2 bytes as hex


@pytest.mark.parametrize("mutate", [
    lambda lines: ["BOGUS"] + lines[1:],
    lambda lines: lines[:3],                             # missing rows
    lambda lines: lines[:2] + ["zz" * 2] + lines[3:],    # bad hex
    lambda lines: lines[:2] + ["ff"] + lines[3:],        # short row
    # s_0 flipped in row 2, so the rows are not the span of their planes
    lambda lines: lines[:4] + [f"{int(lines[4], 16) ^ 1 << 15:04x}"] + lines[5:],
])
def test_malformed_files_rejected(tmp_path, mutate):
    fam = cached_family(3, 4, 2)
    path = tmp_path / "fam.ecseq"
    write_family(fam, path)
    broken = tmp_path / "broken.ecseq"
    broken.write_text("\n".join(mutate(path.read_text().splitlines())) + "\n")
    with pytest.raises(FormatError):
        read_family(broken)


@pytest.mark.parametrize("n, t, d", [(n, t, d) for n in range(MIN_DEGREE, 5)
                                     for t, d in family_sizes(n)])
def test_every_small_family_round_trips(n, t, d):
    fam = cached_family(n, t, d)
    assert parse_family(format_family(fam)) == fam
    assert fam.bits == span(fam.planes)[1:]
    assert fam.M == len(fam.bits)


def test_value_types_cannot_be_changed():
    # a family is its planes: no field of it or of any other value type can
    # be rebound, nor the rows derived from the planes, nor an attribute added
    curve, P, ext, place, space = cached_instance(3, 4, 2)
    fam = cached_family(3, 4, 2)
    for value in [P, Point(), CurveSearchSpec(3, 4), place, space, space.V_basis[0], fam,
                  family_correlation(fam), family_linear_complexity(fam)]:
        for name in (*value._fields, "added"):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
    with pytest.raises(AttributeError):
        fam.bits = []


def test_replaced_planes_give_their_span():
    fam = cached_family(3, 4, 2)
    for planes in [fam.planes[:1], fam.planes[::-1], (1, 2, 4, 8)]:
        new = fam._replace(planes=planes)
        assert new.bits == span(planes)[1:] and new.M == (1 << len(planes)) - 1
        assert (new.n, new.N, new.provenance) == (fam.n, fam.N, fam.provenance)
    assert fam.bits == span(fam.planes)[1:]  # the original is unchanged


@given(st.integers(0, 6), st.integers(0, 3), st.characters(exclude_categories=["Cs"]))
def test_any_character_substituted_in_a_row_is_rejected(row, col, char):
    # rows 0..6 of the (3, 4, 2) file, each four hex digits on lines 3..9
    lines = format_family(cached_family(3, 4, 2)).decode().split("\n")
    assume(char != lines[2 + row][col])
    lines[2 + row] = lines[2 + row][:col] + char + lines[2 + row][col + 1:]
    with pytest.raises(FormatError):
        parse_family("\n".join(lines).encode())


@pytest.mark.parametrize("header", [
    "ECSEQ v1 n=3 t=+4 d=2 N=13 M=7",
    "ECSEQ v1 n=\u0663 t=4 d=2 N=13 M=7",   # an Arabic-Indic digit three
    "ECSEQ v1 n=3 t=4 d=2 N=13 M=7 n=3",
    "ECSEQ v1 n=3 = t=4 d=2 N=13 M=7",
    "ECSEQ v1 n=3 t=4 d=2 N=13 M=07",
    "ECSEQ v1 n=3 t=4 d=2 M=7 N=13",
], ids=["plus-sign", "arabic-indic-digit", "repeated-key", "stray-equals", "leading-zero",
        "key-order"])
def test_noncanonical_header_is_rejected_before_construction(monkeypatch, header):
    # each passes int() and names the (3, 4, 2) family, whose rows follow
    lines = format_family(cached_family(3, 4, 2)).decode().split("\n")
    monkeypatch.setattr(family, "build_family", None)
    with pytest.raises(FormatError, match="line 1 differs"):
        parse_family("\n".join([header, *lines[1:]]).encode())


RANK_DEFICIENT = {(2, -3, 3), (2, -2, 2), (2, -1, 3), (3, -5, 3), (3, -4, 2), (3, -4, 3)}


def test_planes_are_independent_but_at_six_vacuous_families():
    # the claimed family size q^(d-1) - 1 needs distinct rows, so independent
    # planes; six small families have dependent ones, hence zero and repeated
    # rows, and a bound >= N that no correlation can break
    deficient = {(n, t, d) for n in range(MIN_DEGREE, 9) for t, d in family_sizes(n)
                 if GF2Solver(list(cached_family(n, t, d).planes)).null_combos}
    assert deficient == RANK_DEFICIENT
    assert all(corr_bound(1 << n, t, d) >= (1 << n) + 1 + t for n, t, d in deficient)
    assert sum(map(len, map(family_sizes, range(MIN_DEGREE, 9)))) == 62


@pytest.mark.parametrize("n, t, d", [(3, 4, 4), (3, 4, 1), (6, -1, 2), (3, 2, 2)])
def test_build_instance_refuses_unlisted_family_before_search(monkeypatch, n, t, d):
    # d outside {2, 3}, gcd(d, N) != 1, inadmissible t: none reaches the search
    assert (t, d) not in family_sizes(n)
    monkeypatch.setattr(family, "search_cyclic_curve", None)
    with pytest.raises(ValidationError, match=f"ecseq admissible --n {n}"):
        build_family(n, t, d)


def test_family_sizes_entries():
    # (t, d) -> (N, M); n*d over the extension cap and n out of range list nothing
    assert family_sizes(6)[(8, 2)] == (73, 63)
    assert family_sizes(6)[(-1, 3)] == (64, 4095)
    assert family_sizes(1) == family_sizes(13) == {}
    assert all(d == 2 for _, d in family_sizes(10)) and family_sizes(11) == {}


def test_pipeline_builds_no_extension_tables():
    # make_ext is cached in this process (and the place oracle builds tables
    # on it), so build, then read the family's bytes back, in a fresh interpreter
    root = Path(__file__).resolve().parents[1]
    code = ("from ecseq.family import build_family, format_family, parse_family\n"
            "from ecseq.gf2 import make_ext, make_field\n"
            "fam = parse_family(format_family(build_family(10, 32, 2)))\n"
            "ext = make_ext(make_field(10), 2)\n"
            "print(ext.q, fam.M, len(ext._exp), len(ext._log))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(root / "src")), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(1 << 20), "1023", "0", "0"]
