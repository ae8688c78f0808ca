"""CLI subcommands, exit codes, and end-to-end determinism."""

import importlib.util
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import cached_family, serre_breaking_family
from ecseq import cli, family
from ecseq.cli import main
from ecseq.family import write_family
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
            for d in (2, 3):
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


def test_analyze_exits_3_on_counting_identity_failure(tmp_path):
    fam, rep = tmp_path / "forged.ecseq", tmp_path / "rep.json"
    write_family(serre_breaking_family(), fam)
    assert run(["analyze", fam, "--sampled", 1000, "--out", rep]) == 3
    assert json.loads(rep.read_text())["counting_identities_ok"] is False


def test_generate_is_deterministic(tmp_path):
    f1, f2 = tmp_path / "a.ecseq", tmp_path / "b.ecseq"
    assert run(["generate", "--n", 3, "--t", 4, "--d", 2, "--out", f1]) == 0
    assert run(["generate", "--n", 3, "--t", 4, "--d", 2, "--out", f2]) == 0
    assert f1.read_bytes() == f2.read_bytes()


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


def _provenance(lines, text):
    return [lines[0], text, *lines[2:]]


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
    # a valid n=3 family whose provenance overflows the JSON parser's stack
    lambda tmp: _provenance(_family_lines(tmp, 3, 4, 2), "[" * 200000 + "]" * 200000),
    # ... or is JSON but not an object
    lambda tmp: _provenance(_family_lines(tmp, 3, 4, 2), "5"),
], ids=["impossible-N", "relabelled-N", "padding-bit", "uppercase-hex",
        "space-in-hex", "over-cap-n11", "deep-provenance", "non-object-provenance"])
def test_malformed_header_or_padding_exits_4(tmp_path, forge):
    forged = tmp_path / "forged.ecseq"
    forged.write_text("\n".join(forge(tmp_path)) + "\n")
    assert run(["analyze", forged]) == 4


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


def test_zero_row_rejected(tmp_path, capsys):
    forged = tmp_path / "zero.ecseq"
    forged.write_text("ECSEQ v1 n=3 t=4 d=2 N=13 M=7\n{}\n" + "0000\n" * 7)
    assert run(["analyze", forged]) == 2
    assert "zero sequence" in capsys.readouterr().err


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
    monkeypatch.setattr(cli, "build_instance", lambda *a: calls.append(a))
    assert run(["reproduce-table", "--table", 2, "--n", 4, "--n", 7]) == 2
    assert "no family for n=7" in capsys.readouterr().err
    assert calls == []


def test_reproduce_table2_small(tmp_path):
    out = tmp_path / "t2.json"
    assert run(["reproduce-table", "--table", 2, "--n", 4, "--out", out]) == 0
    row = json.loads(out.read_text())["rows"][0]
    assert row["q"] == 16 and row["t"] == -1
    assert row["N"] == 16 and row["M"] == 255
    assert row["observed_cor"] <= row["bound"] == 7 * 8 + 1


def test_exhaustive_over_default_budget(tmp_path, capsys, monkeypatch):
    # d=3 q=64: ~537 M pair-shifts, estimated ~150 s, over the default budget
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


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit):
        main(["generate", "--bogus"])
