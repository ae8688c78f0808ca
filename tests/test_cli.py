"""CLI subcommands, exit codes, and end-to-end determinism."""

import builtins
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import cached_family, serre_breaking_family
from ecseq import analysis, cli, family
from ecseq.cli import main
from ecseq.family import format_family, write_family
from ecseq.gf2 import MAX_DEGREE, MIN_DEGREE


def run(argv):
    return main([str(a) for a in argv])


def test_admissible_lists_expected_rows(tmp_path):
    out = tmp_path / "adm.json"
    assert run(["admissible", "--n", 6, "--out", out]) == 0
    rows = {r["t"]: r for r in json.loads(out.read_text())["rows"]}
    assert rows[8]["d_choices"] == [2, 3]
    assert rows[-1]["d_choices"] == [3]
    assert rows[7]["d_choices"] == []  # N=72 shares factors with 2 and 3
    assert rows[8]["N"] == 73
    # q^3 over the extension cap at n = 7, and q^2 too at n = 11
    assert run(["admissible", "--n", 7, "--out", out]) == 0
    assert not any(3 in r["d_choices"] for r in json.loads(out.read_text())["rows"])
    assert run(["admissible", "--n", 11, "--out", out]) == 0
    assert all(r["d_choices"] == [] for r in json.loads(out.read_text())["rows"])


class _Searched(Exception):
    pass


def _no_search(spec):
    raise _Searched


def test_admissible_lists_exactly_what_generate_accepts(tmp_path, monkeypatch):
    # a listed (t, d) passes generate's validation and reaches the curve
    # search; an unlisted one exits 2 before it
    monkeypatch.setattr(family, "search_cyclic_curve", _no_search)
    out = tmp_path / "adm.json"
    for n in range(MIN_DEGREE, MAX_DEGREE + 1):
        assert run(["admissible", "--n", n, "--out", out]) == 0
        for row in json.loads(out.read_text())["rows"]:
            for d in (1, 2, 3, 4):
                argv = ["generate", "--n", n, "--t", row["t"], "--d", d, "--out", out]
                if d in row["d_choices"]:
                    with pytest.raises(_Searched):
                        run(argv)
                else:
                    assert run(argv) == 2, (n, row["t"], d)


def test_generate_analyze_roundtrip(tmp_path):
    fam = tmp_path / "fam.ecseq"
    rep = tmp_path / "rep.json"
    assert run(["generate", "--n", 3, "--t", 4, "--d", 2, "--out", fam]) == 0
    assert fam.read_text().startswith("ECSEQ v1 n=3 t=4 d=2 N=13 M=7\n")
    assert run(["analyze", fam, "--out", rep]) == 0
    bundle = json.loads(rep.read_text())
    assert bundle["config"] == {"n": 3, "t": 4, "d": 2, "N": 13, "M": 7}
    assert bundle["correlation"]["cor"] <= bundle["correlation"]["bound"] == 29
    assert bundle["correlation"]["mode"] == "exhaustive"
    assert bundle["linear_complexity"]["lc_min"] >= 1
    assert bundle["counting_identities_ok"] is True
    assert len(bundle["family_sha256"]) == 64


def test_analyze_digest_names_the_bytes_it_parsed(tmp_path, monkeypatch):
    # another writer swaps the file for a different family as soon as analyze
    # opens it: the digest and the report must both come from the first bytes
    fam, other, rep = tmp_path / "fam.ecseq", tmp_path / "other.ecseq", tmp_path / "rep.json"
    write_family(cached_family(3, 4, 2), fam)
    write_family(cached_family(4, 4, 2), other)
    first = fam.read_bytes()
    real_open = builtins.open

    def open_then_swap(file, *args, **kwargs):
        fh = real_open(file, *args, **kwargs)
        if file == str(fam) and other.exists():
            os.replace(other, fam)
        return fh

    monkeypatch.setattr(builtins, "open", open_then_swap)
    assert run(["analyze", fam, "--out", rep]) == 0
    monkeypatch.undo()
    assert fam.read_bytes() != first  # the swap happened
    bundle = json.loads(rep.read_text())
    assert bundle["family_sha256"] == hashlib.sha256(first).hexdigest()
    assert bundle["config"]["n"] == 3


def test_analyze_exits_3_on_counting_identity_failure(tmp_path, monkeypatch):
    # a file analyze accepts is a family the construction built, so the
    # failure is patched in: the report is written, then analyze exits 3
    fam, rep = tmp_path / "fam.ecseq", tmp_path / "rep.json"
    write_family(cached_family(3, 4, 2), fam)
    monkeypatch.setattr(analysis, "_serre_holds", lambda *a: False)
    assert run(["analyze", fam, "--out", rep]) == 3
    assert json.loads(rep.read_text())["counting_identities_ok"] is False


def test_analyze_exits_3_on_a_cross_value_outside_the_serre_form(tmp_path, monkeypatch):
    # (7, 16, 2), N = 145: a cross popcount of 22 is C = 101, within the bound
    # 126, but |C + 16| = 117 exceeds the Serre limit 5 * floor(2 * sqrt(128)) = 110
    fam, rep = tmp_path / "fam.ecseq", tmp_path / "rep.json"
    write_family(cached_family(7, 16, 2), fam)
    cross = analysis._cross_transform

    def with_22(planes, N):
        total, first = cross(planes, N)
        return total + Counter({22: 1}), lambda pc: (0, 1, 0) if pc == 22 else first(pc)
    monkeypatch.setattr(analysis, "_cross_transform", with_22)
    assert run(["analyze", fam, "--out", rep]) == 3
    report = json.loads(rep.read_text())
    assert (report["correlation"]["max_cross"], report["counting_identities_ok"]) == (101, False)


def test_analyze_exits_3_on_correlation_bound_failure(tmp_path, capsys, monkeypatch):
    fam = tmp_path / "fam.ecseq"
    write_family(cached_family(3, 4, 2), fam)
    monkeypatch.setattr(analysis, "corr_bound", lambda q, t, d: 0)
    assert run(["analyze", fam]) == 3
    assert "bound assertion failed" in capsys.readouterr().err


@pytest.mark.parametrize("n, t, d", [(3, 4, 2), (5, -1, 3)])
def test_analyze_accepts_a_file_generated_under_another_hash_seed(tmp_path, n, t, d):
    # analyze rebuilds the family from the header and compares bytes, so the
    # construction must not depend on str hashing: one interpreter per command
    root = Path(__file__).resolve().parents[1]
    fam = tmp_path / "fam.ecseq"
    for seed, argv in [("1", ["generate", "--n", n, "--t", t, "--d", d, "--out", fam]),
                       ("2", ["analyze", fam, "--out", tmp_path / "rep.json"])]:
        proc = subprocess.run([sys.executable, "-m", "ecseq.cli", *map(str, argv)],
                              capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=str(root / "src"),
                                       PYTHONHASHSEED=seed))
        assert proc.returncode == 0, proc.stderr


def test_generate_is_deterministic(tmp_path):
    f1, f2 = tmp_path / "a.ecseq", tmp_path / "b.ecseq"
    assert run(["generate", "--n", 3, "--t", 4, "--d", 2, "--out", f1]) == 0
    assert run(["generate", "--n", 3, "--t", 4, "--d", 2, "--out", f2]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_generate_prints_the_digest_of_the_bytes_it_wrote(tmp_path, capsys):
    fam = tmp_path / "fam.ecseq"
    assert run(["generate", "--n", 3, "--t", 4, "--d", 2, "--out", fam]) == 0
    data = fam.read_bytes()
    assert data == family.format_family(cached_family(3, 4, 2))
    assert capsys.readouterr().out.split()[-1] == f"sha256={hashlib.sha256(data).hexdigest()}"


def test_analyze_is_deterministic_modulo_timings(tmp_path):
    fam = tmp_path / "fam.ecseq"
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    run(["generate", "--n", 3, "--t", 4, "--d", 2, "--out", fam])
    assert run(["analyze", fam, "--out", r1]) == 0
    assert run(["analyze", fam, "--out", r2]) == 0
    b1, b2 = json.loads(r1.read_text()), json.loads(r2.read_text())
    b1.pop("timings"), b2.pop("timings")
    assert b1 == b2


def test_validation_exit_codes(tmp_path):
    # gcd(2, 64) != 1
    assert run(["generate", "--n", 6, "--t", -1, "--d", 2,
                "--out", tmp_path / "x.ecseq"]) == 2
    # inadmissible trace
    assert run(["generate", "--n", 3, "--t", 2, "--d", 2,
                "--out", tmp_path / "y.ecseq"]) == 2
    # count-places checks the instance as generate does, --verify or not
    # and its degree lies in [1, MAX_EXT_DEGREE], so B_d stays printable
    for n, t, d in [(-1, 1, 2), (40, 1, 3), (3, 2, 2), (12, 1, 1200), (3, 4, 0)]:
        assert run(["count-places", "--n", n, "--t", t, "--d", d]) == 2


def test_io_exit_codes(tmp_path):
    assert run(["analyze", tmp_path / "missing.ecseq"]) == 4
    bad = tmp_path / "bad.ecseq"
    bad.write_text("not an ecseq file\n")
    assert run(["analyze", bad]) == 4
    bad.write_bytes(b"ECSEQ v1 n=2 t=0 d=2 N=5 M=3\n{}\n\xff\xfe\n")  # not UTF-8
    assert run(["analyze", bad]) == 4


def _family_lines(tmp_path, n, t, d):
    path = tmp_path / "fam.ecseq"
    write_family(cached_family(n, t, d), path)
    return path.read_text().splitlines()


def _relabel_n9(lines):
    return ["ECSEQ v1 n=6 t=8 d=2 N=9 M=63", lines[1]] + [ln[:4] for ln in lines[2:]]


def _set_padding_bit(lines):
    last = int(lines[2][-2:], 16) | 1  # N=13: the last byte's low 3 bits pad
    return lines[:2] + [lines[2][:-2] + f"{last:02x}"] + lines[3:]


def _uppercase_rows(lines):
    rows = [ln.upper() for ln in lines[2:]]
    assert rows != lines[2:]  # some row has a hex letter
    return lines[:2] + rows


def _space_in_row(lines):
    return lines[:2] + [lines[2][:2] + " " + lines[2][2:]] + lines[3:]


def _flip_bit(lines, row):
    # s_0 of the row: the top bit of its first byte
    return lines[:2 + row] + [f"{int(lines[2 + row], 16) ^ 1 << 15:04x}"] + lines[3 + row:]


def _provenance(lines, text):
    return [lines[0], text, *lines[2:]]


def _spaced_provenance(lines):
    return _provenance(lines, json.dumps(json.loads(lines[1]), sort_keys=True))


def _header(lines, edit):
    return [edit(lines[0]), *lines[1:]]


def _foreign_planes(tmp):
    # the (9, 32, 2) header and provenance over one replaced plane, row 255
    return family.format_family(serre_breaking_family()).decode()


def _zero_planes(tmp):
    return "ECSEQ v1 n=3 t=4 d=2 N=13 M=7\n{}\n" + "0000\n" * 7


def _foreign_provenance(tmp):
    return "\n".join(_provenance(_family_lines(tmp, 3, 4, 2), "{}")) + "\n"


def _over_cap_n11():
    # a well-formed n=11 d=2 header (n*d = 22 > MAX_EXT_DEGREE) over random
    # rows with zero padding: generate refuses this instance
    rng = random.Random(0)
    rows = [(rng.randbytes(256) + bytes([rng.randrange(2) << 7])).hex()
            for _ in range(2047)]
    return ["ECSEQ v1 n=11 t=0 d=2 N=2049 M=2047", "{}", *rows]


@pytest.mark.parametrize("forge", [
    # N=1 is impossible for n=2, t=0 (N must be 5)
    lambda tmp: ["ECSEQ v1 n=2 t=0 d=2 N=1 M=2", "{}", "80", "80"],
    # an n=6 t=8 family (N=73) relabelled N=9, rows cut to 2 bytes
    lambda tmp: _relabel_n9(_family_lines(tmp, 6, 8, 2)),
    # a valid n=3 family with a nonzero padding bit in its first row
    lambda tmp: _set_padding_bit(_family_lines(tmp, 3, 4, 2)),
    # rows that bytes.fromhex accepts but that are not canonical lowercase hex
    lambda tmp: _uppercase_rows(_family_lines(tmp, 3, 4, 2)),
    lambda tmp: _space_in_row(_family_lines(tmp, 3, 4, 2)),
    lambda tmp: _over_cap_n11(),
    # a valid n=3 family under a provenance too deep for a JSON parser's stack
    lambda tmp: _provenance(_family_lines(tmp, 3, 4, 2), "[" * 200000 + "]" * 200000),
    # ... or is JSON but not an object
    lambda tmp: _provenance(_family_lines(tmp, 3, 4, 2), "5"),
    # a valid n=3 family with a data bit flipped in a plane (row 0) or in a
    # combination of planes (row 2): the rows are no longer their planes' span
    lambda tmp: _flip_bit(_family_lines(tmp, 3, 4, 2), 0),
    lambda tmp: _flip_bit(_family_lines(tmp, 3, 4, 2), 2),
    # a valid n=3 family in text that format_family does not write: JSON with
    # the default separators, a doubled space or an extra field in the
    # header, CRLF line endings, no final newline
    lambda tmp: _spaced_provenance(_family_lines(tmp, 3, 4, 2)),
    lambda tmp: _header(_family_lines(tmp, 3, 4, 2), lambda h: h.replace(" t=", "  t=")),
    lambda tmp: _header(_family_lines(tmp, 3, 4, 2), lambda h: h + " x=1"),
    lambda tmp: [ln + "\r" for ln in _family_lines(tmp, 3, 4, 2)],
    lambda tmp: "\n".join(_family_lines(tmp, 3, 4, 2)),
    # canonical text that is not the family its header names: a replaced
    # plane, zero planes under an empty provenance, an empty provenance
    _foreign_planes,
    _zero_planes,
    _foreign_provenance,
], ids=["impossible-N", "relabelled-N", "padding-bit", "uppercase-hex",
        "space-in-hex", "over-cap-n11", "deep-provenance", "non-object-provenance",
        "flipped-plane-bit", "flipped-combination-bit", "spaced-provenance",
        "doubled-header-space", "extra-header-field", "crlf", "no-final-newline",
        "foreign-planes", "zero-planes", "foreign-provenance"])
def test_malformed_header_or_padding_exits_4(tmp_path, forge):
    forged, text = tmp_path / "forged.ecseq", forge(tmp_path)
    forged.write_text(text if isinstance(text, str) else "\n".join(text) + "\n")
    assert run(["analyze", forged]) == 4


@pytest.mark.parametrize("forge, line", [(_foreign_planes, 258), (_zero_planes, 2),
                                         (_foreign_provenance, 2)],
                         ids=["foreign-planes", "zero-planes", "foreign-provenance"])
def test_canonical_forgery_names_the_line_that_differs(tmp_path, capsys, forge, line):
    forged = tmp_path / "forged.ecseq"
    forged.write_text(forge(tmp_path))
    assert run(["analyze", forged]) == 4
    assert f"line {line} differs from format_family's bytes" in capsys.readouterr().err


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 8), st.integers(0, 40), st.integers(0, 3),
       st.text("0123456789abcdef=+- ntdNM{}:,\"\n\u0663", max_size=4))
@example(0, 15, 0, "+")          # t=+4
@example(0, 11, 1, "\u0663")     # n=3 in an Arabic-Indic digit
@example(0, 29, 0, " n=3")       # a repeated key
@example(0, 12, 0, " =")         # a stray =
@example(1, 0, 1, "")            # the provenance loses its first byte
@example(4, 0, 0, "")            # no mutation: the file analyses cleanly
def test_mutated_file_exits_0_2_or_4_never_3(line, pos, cut, text):
    # one edit of the (3, 4, 2) file: header, provenance or one of its rows;
    # a malformed file is never reported as a bound failure, nor raises
    lines = format_family(cached_family(3, 4, 2)).decode().split("\n")
    lines[line] = lines[line][:pos] + text + lines[line][pos + cut:]
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()):
        path = Path(tmp) / "fam.ecseq"
        path.write_bytes("\n".join(lines).encode())
        assert run(["analyze", path, "--out", Path(tmp) / "report.json"]) in (0, 2, 4)


@pytest.mark.parametrize("k", [0, -3])
def test_sampled_below_one_exits_2(tmp_path, capsys, k):
    fam = tmp_path / "fam.ecseq"
    write_family(cached_family(3, 4, 2), fam)
    assert run(["analyze", fam, "--sampled", k]) == 2
    assert "below 1" in capsys.readouterr().err


def test_reproduce_table_sampled_below_one_exits_2(tmp_path, capsys):
    out = tmp_path / "t2.json"
    assert run(["reproduce-table", "--table", 2, "--n", 4, "--sampled", -5,
                "--out", out]) == 2
    assert "below 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["abc", "-5", "1.5", " 7",
                                   pytest.param("9" * 5000, id="5000-digits")])
def test_bad_budget_env_exits_2(tmp_path, capsys, monkeypatch, value):
    fam = tmp_path / "fam.ecseq"
    write_family(cached_family(3, 4, 2), fam)
    monkeypatch.setenv("ECSEQ_BUDGET_MS", value)
    assert run(["analyze", fam]) == 2
    err = capsys.readouterr().err
    assert "not a non-negative integer" in err
    if len(value) == 5000:
        assert len(err) < 200


def test_count_places_verify(tmp_path, capsys):
    out = tmp_path / "places.json"
    assert run(["count-places", "--n", 3, "--t", 4, "--d", 2,
                "--verify", "--out", out]) == 0
    blob = json.loads(out.read_text())
    assert blob["formula"] == blob["enumerated"] == 26
    assert blob["consistent"] is True
    assert run(["count-places", "--n", 6, "--t", 8, "--d", 3, "--out", out]) == 0
    assert json.loads(out.read_text())["enumerated"] is None
    # degree 1: the rational points, O included
    assert run(["count-places", "--n", 3, "--t", 4, "--d", 1,
                "--verify", "--out", out]) == 0
    assert json.loads(out.read_text())["enumerated"] == 13


def test_count_places_verify_cap(tmp_path):
    # q^d = 2^24 over the extension cap
    assert run(["count-places", "--n", 8, "--t", 16, "--d", 3, "--verify"]) == 2


def test_generate_over_extension_cap_exits_2(tmp_path, capsys):
    # q^d = 2^22 and 2^21 (N = 130 is coprime to 3, but admissible does not
    # list d = 3 at n = 7): rejected before the curve search runs
    out = tmp_path / "fam.ecseq"
    for n, t, d in [(11, 1, 2), (7, 1, 3)]:
        assert run(["generate", "--n", n, "--t", t, "--d", d, "--out", out]) == 2
        assert "exceeds the cap" in capsys.readouterr().err
        assert not out.exists()


def test_reproduce_table_refuses_unbuildable_row_first(tmp_path, capsys, monkeypatch):
    # q^3 = 2^21 is over the extension cap at n = 7: exit 2 before the
    # n = 4 row is built
    calls = []
    monkeypatch.setattr(cli, "build_family", lambda *a: calls.append(a))
    assert run(["reproduce-table", "--table", 2, "--n", 4, "--n", 7]) == 2
    assert "no family for n=7" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("table", [2, 3])
@pytest.mark.parametrize("n", [-3, 0, 1, 13, 1000])
def test_reproduce_table_n_out_of_range_exits_2(tmp_path, capsys, table, n):
    # refused with the field's range message before any trace is computed,
    # and not pointed at `ecseq admissible`, which refuses such an n too
    out = tmp_path / "t.json"
    assert run(["reproduce-table", "--table", table, "--n", n, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err == f"error: n={n} outside supported range [{MIN_DEGREE}, {MAX_DEGREE}]\n"
    assert not out.exists()


def test_reproduce_table2_small(tmp_path):
    out = tmp_path / "t2.json"
    assert run(["reproduce-table", "--table", 2, "--n", 4, "--out", out]) == 0
    row = json.loads(out.read_text())["rows"][0]
    assert row["q"] == 16 and row["t"] == -1
    assert row["N"] == 16 and row["M"] == 255
    assert row["observed_cor"] <= row["bound"] == 7 * 8 + 1


def test_exhaustive_over_default_budget(tmp_path, capsys, monkeypatch):
    # d=3 q=64: ~553 M lane operations, estimated ~158 s, over the default budget
    monkeypatch.delenv("ECSEQ_BUDGET_MS", raising=False)
    fam = tmp_path / "fam.ecseq"
    write_family(cached_family(6, -1, 3), fam)
    assert run(["analyze", fam]) == 2
    assert "exceeds the budget" in capsys.readouterr().err
    # reproduce-table asks the same gate and samples the q=512 row instead
    out = tmp_path / "t3.json"
    assert run(["reproduce-table", "--table", 3, "--n", 9, "--sampled", 1000,
                "--out", out]) == 0
    row = json.loads(out.read_text())["rows"][0]
    assert (row["q"], row["mode"]) == (512, "sampled")
    assert row["observed_cor"] <= row["bound"]


def test_forged_full_rank_family_exits_4(tmp_path, capsys, monkeypatch):
    # random rows, canonically packed, under a valid (6, 8, 2) header and
    # provenance are not that family's rows: analyze exits 4 on reading the
    # file, naming row 0 (line 3), before the budget gate or any sweep runs
    real, lines = cached_family(6, 8, 2), _family_lines(tmp_path, 6, 8, 2)
    rng = random.Random(6)
    rows = [family._pack_row(rng.randrange(1 << real.N), real.N).hex() for _ in range(real.M)]
    forged, out = tmp_path / "forged.ecseq", tmp_path / "report.json"
    forged.write_text("\n".join(lines[:2] + rows) + "\n")
    monkeypatch.setattr(analysis, "exhaustive_allowed", None)
    monkeypatch.setattr(analysis, "_cross_transform", None)
    for sampled in [], ["--sampled", 1000]:
        assert run(["analyze", forged, *sampled, "--out", out]) == 4
        assert "line 3 differs from format_family's bytes" in capsys.readouterr().err
        assert not out.exists()


def test_reproduce_table3_small(tmp_path):
    out = tmp_path / "t3.json"
    assert run(["reproduce-table", "--table", 3, "--n", 6, "--out", out]) == 0
    row = json.loads(out.read_text())["rows"][0]
    assert (row["q"], row["t"], row["N"], row["M"]) == (64, 8, 73, 63)
    assert row["observed_cor"] <= row["bound"] == 88
    assert row["reference_cor"] == 39


def test_sweep_bounds_script(capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / "sweep_bounds.py"
    spec = importlib.util.spec_from_file_location("sweep_bounds", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.main(["--max-n", "4"])  # every bound asserted: raises on a failure
    assert capsys.readouterr().out.endswith("\n27 instances, all bounds hold\n")


def test_trace_worker_runs(tmp_path):
    # one traced generate / analyze / count-places --verify pass, reading
    # fam.M, fam.bits and space.full_basis, writes all three outputs
    root = Path(__file__).resolve().parents[1]
    spec = {"n": 3, "t": 4, "d": 2, "sampled": None, "verify_places": True, "seed": 0,
            "run_id": "tier1", "out": str(tmp_path / "trace.json")}
    proc = subprocess.run([sys.executable, str(root / "perfbench" / "trace_worker.py"),
                           json.dumps(spec)], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(root / "src")), timeout=120)
    assert proc.returncode == 0, proc.stderr
    outputs = json.loads((tmp_path / "trace.json").read_text())["outputs"]
    assert sorted(outputs) == ["analyze_s", "count_places_s", "generate_s"]
    assert outputs["generate_s"] == hashlib.sha256(
        family.format_family(cached_family(3, 4, 2))).hexdigest()
    assert outputs["analyze_s"]["config"] == {"n": 3, "t": 4, "d": 2, "N": 13, "M": 7}
    assert outputs["count_places_s"]["consistent"] is True


def test_trace_worker_imports():
    # the traced benchmark run imports names from ecseq and ecseq.analysis
    path = Path(__file__).resolve().parents[1] / "perfbench" / "trace_worker.py"
    spec = importlib.util.spec_from_file_location("trace_worker", path)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)  # runs the imports, not main()
    assert callable(worker.main)


def test_benchmark_setup_probe_runs(monkeypatch):
    # the benchmark's setup_s probe builds one extension and its tables
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("perfbench_run", root / "perfbench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench)  # its dataclasses look it up
    spec.loader.exec_module(bench)  # module body only, not main()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", bench.SETUP_CODE, "3", "2"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_cli_runs_without_numpy(tmp_path):
    # the package promises pure Python: generate and analyze, in a fresh
    # interpreter, import no numpy (installed here, so it would import)
    root = Path(__file__).resolve().parents[1]
    fam, rep = tmp_path / "fam.ecseq", tmp_path / "rep.json"
    code = ("import sys\n"
            "from ecseq.cli import main\n"
            f"assert main(['generate', '--n', '3', '--t', '4', '--d', '2', '--out', {str(fam)!r}]) == 0\n"
            f"assert main(['analyze', {str(fam)!r}, '--out', {str(rep)!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'numpy'))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(root / "src")), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert json.loads(rep.read_text())["counting_identities_ok"] is True


def test_cli_start_up_skips_heavy_imports(tmp_path):
    # every ecseq process pays its imports; under python -S (no site, so
    # nothing preloaded), importing the CLI and running count-places load
    # none of these, and only generate and analyze import hashlib
    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "count.json"
    code = ("import sys\n"
            "heavy = ('dataclasses', 'inspect', 'typing', 'hashlib')\n"
            "from ecseq.cli import main\n"
            "print(sorted(m for m in heavy if m in sys.modules))\n"
            f"assert main(['count-places', '--n', '8', '--t', '16', '--d', '2', '--out', {str(out)!r}]) == 0\n"
            f"assert main(['count-places', '--n', '3', '--t', '4', '--d', '2', '--verify', '--out', {str(out)!r}]) == 0\n"
            "print(sorted(m for m in heavy if m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(root / "src")), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]"]
    assert json.loads(out.read_text())["enumerated"] == 26


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit):
        main(["generate", "--bogus"])
