#!/usr/bin/env python3
"""Benchmark of the ecseq CLI on three instances of the paper's Tables 2-3.

    python3 perfbench/run.py --workload exhaustive-q256 --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40     # every workload in turn

Run it from anywhere inside a source checkout: it locates the checkout from
its own path, compiles ``src/ecseq`` to bytecode (the "build"), and drives
``python -m ecseq.cli`` as child processes, one at a time, timing each from
outside.  Every output is compared with the references pinned in
``references.json``; a mismatch or a non-zero exit counts as a failed
command and makes this script exit 1.

``--trace 0`` reports the end-to-end metrics (medians of interleaved group
means of the run's samples; each sample is a child's wall time less the
time the hypervisor stole from its vCPU).  ``--trace 1`` instead runs
``trace_worker.py`` -- the same command sequence as library calls inside
one fresh interpreter, with a span around every public call -- and reports
per-layer self times and work counts, plus the tracing overhead against
untraced CLI sequences run alongside.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"
WORKER = HERE / "trace_worker.py"
SCRATCH = ROOT / ".perfbench_tmp"   # per-run work directories, removed on exit
TRACE_OUT = ROOT / ".perfbench_out"  # span dumps of traced runs

DEFAULT_SEED = 0     # the CLI's own default; references are pinned for it
MIN_ROUNDS = 2       # untraced rounds per run, whatever --seconds says
SLOT_S = 1.0         # within a round, each command repeats until it has run this long
MIN_TRACED = 2       # traced runs per --trace 1 run, so work counts can be compared
STARTUP_PROBES = 3   # cli.startup_s samples before each traced run
RUN_LIMIT_S = 170    # every child is killed once the run has lasted this long
GROUPS = 3           # a metric is the median of this many interleaved group means

SETUP_CODE = ("import sys, ecseq; "
              "ecseq.make_ext(ecseq.make_field(int(sys.argv[1])), int(sys.argv[2]))"
              ".build_tables()")

# Keys of the analyze report that a sampled run's --seed changes.
SEEDED_CORRELATION_KEYS = ("histogram", "max_cross", "cor", "cross_witness", "seed")


@dataclass(frozen=True)
class Workload:
    n: int
    t: int
    d: int
    sampled: int | None   # analyze --sampled K; None runs the exhaustive sweep
    verify_places: bool   # count-places --verify (brute-force orbit enumeration)


# Why each workload is here is recorded in BENCHMARK.json and NOTES.md.
WORKLOADS = {
    "exhaustive-q256": Workload(8, 16, 2, None, False),      # Table 3, q=256
    "sampled-q1024": Workload(10, 32, 2, 200_000, False),    # Table 3, q=1024
    "d3-q64": Workload(6, -1, 3, 200_000, True),             # Table 2, q=64
}

CLI_METRICS = ("generate_s", "analyze_s", "count_places_s")
END_TO_END_UNITS = {"wall_s": "s", "generate_s": "s", "analyze_s": "s",
                    "count_places_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def cpu_ticks() -> list[tuple[int, int, int]]:
    """(busy, idle, stolen) clock ticks of each vCPU since boot, from /proc/stat.

    Stolen ticks are those in which the vCPU was ready to run and the
    hypervisor ran something else.  Empty where /proc/stat cannot be read.
    """
    try:
        with open("/proc/stat") as f:
            rows = [line.split() for line in f if line[:3] == "cpu" and line[3].isdigit()]
        return [(sum(int(r[i]) for i in (1, 2, 3, 6, 7)), int(r[4]) + int(r[5]), int(r[8]))
                for r in rows]
    except (OSError, IndexError, ValueError):
        return []


def stolen_s(before: list, after: list) -> float:
    """Seconds stolen between two cpu_ticks() readings from the vCPUs that were busy.

    Each vCPU's stolen ticks are weighted by the share of its other ticks
    that were busy: an idle vCPU accrues steal too, but that delays nothing.
    The sum is divided by the number of busy vCPUs (at least one), so a
    child running on several vCPUs loses their mean.
    """
    stolen = busy = 0.0
    for (b0, i0, s0), (b1, i1, s1) in zip(before, after):
        share = (b1 - b0) / max(1, b1 - b0 + i1 - i0)
        stolen += (s1 - s0) * share
        busy += share
    return stolen / max(1.0, busy) / os.sysconf("SC_CLK_TCK")


class Run:
    """Children, failures and timings of one benchmark run."""

    def __init__(self, workdir: Path, references: dict):
        self.workdir = workdir
        self.references = references
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.wall = self.stolen = 0.0   # over all children, for the report
        self.env = {k: v for k, v in os.environ.items() if k != "ECSEQ_BUDGET_MS"}
        self.env.update(PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1",
                        PYTHONHASHSEED="0")

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)

    def child(self, label: str, argv: list[str]) -> tuple[float, int, bool]:
        """Run one child to completion: (seconds, ru_maxrss KiB, exited 0).

        The seconds are the child's wall time less the time the hypervisor
        stole from the vCPU it ran on (see stolen_s).  The resource usage
        comes from wait4 on this child alone, never from RUSAGE_CHILDREN,
        which would mix in every earlier child.
        """
        self.attempted += 1
        with open(self.workdir / "stderr.txt", "w+b") as err:
            ticks, t0 = cpu_ticks(), time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=self.workdir,
                                    env=self.env, stdout=subprocess.DEVNULL,
                                    stderr=err)
            killer = threading.Timer(max(1.0, RUN_LIMIT_S - self.elapsed()), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
            stolen = min(stolen_s(ticks, cpu_ticks()), wall)
            self.wall += wall
            self.stolen += stolen
            proc.returncode = os.waitstatus_to_exitcode(status)
            if proc.returncode != 0:
                err.seek(0)
                tail = err.read().decode(errors="replace").strip().splitlines()[-1:]
                self.fail(f"{label}: exit {proc.returncode} {' '.join(tail)}")
        return wall - stolen, usage.ru_maxrss, proc.returncode == 0


# ----------------------------------------------------------------------
# The command sequence and its reference checks.

def cli_commands(w: Workload, seed: int, workdir: Path) -> list[tuple[str, list[str], Path]]:
    """(metric, argv after the interpreter, output file) for each CLI command."""
    fam, rep, cnt = workdir / "family.ecseq", workdir / "report.json", workdir / "count.json"
    size = ["--n", str(w.n), "--t", str(w.t), "--d", str(w.d)]
    analyze = ["-m", "ecseq.cli", "analyze", str(fam), "--seed", str(seed), "--out", str(rep)]
    if w.sampled is not None:
        analyze += ["--sampled", str(w.sampled)]
    count = ["-m", "ecseq.cli", "count-places", *size, "--out", str(cnt)]
    if w.verify_places:
        count.append("--verify")
    return [("generate_s", ["-m", "ecseq.cli", "generate", *size, "--out", str(fam)], fam),
            ("analyze_s", analyze, rep),
            ("count_places_s", count, cnt)]


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def analyze_view(report: dict, seed: int) -> dict:
    """An analyze report as compared at this seed.

    For a seed other than the default, a sampled report drops the fields
    the seed changes and keeps the number of correlation values in its
    histogram, which the seed does not change.
    """
    corr = dict(report.get("correlation") or {})
    if seed != DEFAULT_SEED and corr.get("mode") == "sampled":
        corr["histogram_total"] = sum(corr.get("histogram", {}).values())
        for k in SEEDED_CORRELATION_KEYS:
            corr.pop(k, None)
    return {**report, "correlation": corr}


def pinned_part(got, want):
    """``got`` restricted to the keys ``want`` has, at every level.

    Fields a later version adds to its output (the CLI's timings, say) do
    not count; every pinned field must still be there, unchanged.
    """
    if isinstance(got, dict) and isinstance(want, dict):
        return {k: pinned_part(got.get(k), v) for k, v in want.items()}
    return got


def command_output(metric: str, path: Path):
    """What a command wrote, in the form the references pin."""
    if metric == "generate_s":
        return file_sha256(path)
    return json.loads(path.read_text())


def check_output(run: Run, name: str, seed: int, metric: str, got) -> bool:
    """Count the command as failed when its output differs from the reference."""
    ref = run.references[name]
    if metric == "generate_s":
        want = ref["family_sha256"]
    elif metric == "analyze_s":
        got, want = analyze_view(got, seed), analyze_view(ref["analyze"], seed)
    else:
        want = ref["count_places"]
    ok = pinned_part(got, want) == want
    if not ok:
        run.fail(f"{name} {metric}: output differs from the pinned reference")
    return ok


def cli_round(run: Run, name: str, seed: int, slot: float,
              setup: bool) -> dict[str, list[float]] | None:
    """[setup probe,] generate, analyze, count-places; outputs checked.

    The first pass runs every command once; further passes repeat, in the
    same order, each command that has run for less than ``slot`` seconds
    in this round.  Short commands thus collect many samples, taken on both
    sides of the long ones.  Returns the samples by metric and the round's
    peak RSS, or None at the first failure.
    """
    w = WORKLOADS[name]
    steps = cli_commands(w, seed, run.workdir)
    if setup:
        steps.insert(0, ("setup_s", ["-c", SETUP_CODE, str(w.n), str(w.d)], None))
    got: dict[str, list[float]] = {metric: [] for metric, _, _ in steps}
    rss = 0
    pending = steps
    while pending:
        for metric, argv, out in pending:
            if out is not None:
                out.unlink(missing_ok=True)
            wall, maxrss, ok = run.child(f"{name} {metric}", argv)
            if not ok:
                return None
            if out is not None:
                if not check_output(run, name, seed, metric, command_output(metric, out)):
                    return None
                rss = max(rss, maxrss)
            got[metric].append(wall)
        pending = [step for step in steps if sum(got[step[0]]) < slot]
    got["peak_rss_mb"] = [rss / 1024]
    return got


# ----------------------------------------------------------------------
# Untraced and traced runs.

def keep_going(run: Run, seconds: int, rounds: list[float], minimum: int) -> bool:
    """Start another round until --seconds is reached, give or take half a round."""
    if run.failed:
        return False
    if len(rounds) < minimum:
        return True
    return run.elapsed() + statistics.median(rounds) / 2 <= seconds


def median_of_means(samples: list[float]) -> float:
    """Median over GROUPS interleaved groups (sample i in group i mod GROUPS)
    of each group's mean.

    The host's throughput switches between a fast and a slow phase that
    last seconds, and a short command's samples come in bursts within one
    phase.  The plain median of such samples jumps between the phases; each
    group mean here spans every burst of the run, and the median over the
    groups still discards one outlying group.
    """
    groups = [samples[i::GROUPS] for i in range(min(GROUPS, len(samples)))]
    return statistics.median(statistics.fmean(g) for g in groups)


def untraced(run: Run, name: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """Repeat rounds for --seconds; each metric is a median of group means."""
    samples: dict[str, list[float]] = {}
    rounds: list[float] = []
    while keep_going(run, seconds, rounds, MIN_ROUNDS):
        t0 = time.perf_counter()
        got = cli_round(run, name, seed, SLOT_S, setup=True)
        if got is None:
            return {}, {}
        for k, v in got.items():
            samples.setdefault(k, []).extend(v)
        rounds.append(time.perf_counter() - t0)
    values = {k: median_of_means(v) for k, v in samples.items()}
    values["wall_s"] = sum(values[k] for k in CLI_METRICS)
    return values, {k: len(v) for k, v in samples.items()}


def traced_once(run: Run, name: str, seed: int) -> tuple[float, dict] | None:
    """One fresh interpreter running trace_worker.py; (wall, its JSON result)."""
    w = WORKLOADS[name]
    result = run.workdir / "trace.json"
    result.unlink(missing_ok=True)
    spec = {"n": w.n, "t": w.t, "d": w.d, "sampled": w.sampled,
            "verify_places": w.verify_places, "seed": seed,
            "run_id": f"{name}-{seed}-{run.attempted}", "out": str(result)}
    wall, _, ok = run.child(f"{name} traced", [str(WORKER), json.dumps(spec)])
    if not ok:
        return None
    data = json.loads(result.read_text())
    for metric, got in data["outputs"].items():
        if not check_output(run, name, seed, metric, got):
            return None
    return wall, data


def self_times(spans: list[dict]) -> dict[str, float]:
    """Sum over each span name of duration minus the time its children cover.

    Spans come from one thread, so a span's children never overlap and their
    durations can simply be subtracted.
    """
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    totals: dict[str, float] = {}
    for s in spans:
        totals[s["name"]] = totals.get(s["name"], 0.0) + own[s["id"]]
    return totals


# per-layer time metric -> the span names whose self times it sums
LAYER_SPANS = {
    "gf2.setup_s": ("gf2.make_field", "gf2.make_ext", "gf2.build_tables"),
    "curves.search_s": ("curves.search_cyclic_curve",),
    "places.find_s": ("places.find_place",),
    "places.count_s": ("places.count_places_formula", "places.enumerate_places_deg_d"),
    "rrspace.basis_s": ("rrspace.rr_basis",),
    "family.gen_s": ("family.gen_family",),
    "family.write_s": ("family.write_family",),
    "family.read_s": ("family.read_family",),
    "analysis.correlation_s": ("analysis.family_correlation",),
    "analysis.lc_s": ("analysis.family_linear_complexity",),
    "analysis.identity_s": ("analysis.counting_identity_check",),
}
PER_LAYER_UNITS = {
    **{k: "s" for k in LAYER_SPANS},
    "gf2.ext_elements": "count", "curves.models_swept": "count",
    "places.x_scanned": "count", "places.orbits": "count", "rrspace.dim": "count",
    "family.bits": "count", "family.bytes": "B",
    "analysis.pair_shifts": "count", "analysis.pair_shifts_per_s": "1/s",
    "analysis.budget_est_ms": "ms", "analysis.lc_rows": "count",
    "analysis.identity_probes": "count",
    "cli.startup_s": "s", "trace.total_s": "s", "trace.overhead_s": "s",
}


def traced(run: Run, name: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """Alternate traced workers with startup probes and untraced CLI rounds.

    An untraced round (each command once) runs after the first traced run
    and after every second one after that, for the tracing overhead.
    """
    layer: dict[str, list[float]] = {k: [] for k in LAYER_SPANS}
    startup, totals, walls = [], [], []
    counts, spans = None, []
    rounds: list[float] = []
    while keep_going(run, seconds, rounds, MIN_TRACED):
        t0 = time.perf_counter()
        for _ in range(STARTUP_PROBES):
            wall, _, ok = run.child(f"{name} startup", ["-c", "import ecseq"])
            if ok:
                startup.append(wall)
        got = traced_once(run, name, seed)
        if got is None:
            break
        total, data = got
        totals.append(total)
        spans += data["spans"]
        own = self_times(data["spans"])
        for metric, names in LAYER_SPANS.items():
            layer[metric].append(sum(own.get(s, 0.0) for s in names))
        if counts is None:
            counts = data["counts"]
        elif data["counts"] != counts:
            run.fail(f"{name}: work counts differ between traced runs")
        if len(walls) < (len(totals) + 1) // 2:
            cli = cli_round(run, name, seed, 0.0, setup=False)
            if cli is None:
                break
            walls.append(sum(cli[k][0] for k in CLI_METRICS))
        rounds.append(time.perf_counter() - t0)
    TRACE_OUT.mkdir(exist_ok=True)
    (TRACE_OUT / f"spans_{name}_{seed}.json").write_text(json.dumps(spans))
    if run.failed or not (startup and totals and walls):
        return {}, {}
    metrics = {k: statistics.median(v) for k, v in layer.items()}
    metrics.update(counts)
    metrics["analysis.pair_shifts_per_s"] = (counts["analysis.pair_shifts"]
                                             / metrics["analysis.correlation_s"])
    metrics["cli.startup_s"] = statistics.median(startup)
    metrics["trace.total_s"] = statistics.median(totals)
    metrics["trace.overhead_s"] = metrics["trace.total_s"] - statistics.median(walls)
    return metrics, {"traced": len(totals), "untraced": len(walls), "startup": len(startup)}


# ----------------------------------------------------------------------

def build() -> None:
    """Byte-compile the package once, so that no child pays for compilation."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "ecseq")],
                   check=True, stdout=subprocess.DEVNULL)


def bench(name: str, seed: int, seconds: int, trace: bool) -> bool:
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=SCRATCH))
    try:
        run = Run(workdir, json.loads(REFERENCES.read_text()))
        if trace:
            values, n = traced(run, name, seed, seconds)
            units = PER_LAYER_UNITS
        else:
            values, n = untraced(run, name, seed, seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = run.failed == 0 and set(values) == set(units)
    for problem in run.problems:
        print(f"FAILED {problem}")
    print(f"# {name} seed={seed} trace={int(trace)} samples={n} "
          f"error_rate={run.failed}/{run.attempted} "
          f"stolen={run.stolen:.2f}s of {run.wall:.2f}s in children")
    for k in units:
        if k in values:
            print(f"{k:28s} {values[k]:14.6g} {units[k]}")
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units if k in values},
    }))
    return correct


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="seed of the sampled analyses (references are pinned for 0)")
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # On SIGTERM, unwind like Ctrl-C: the running child is killed and reaped
    # and the work directory removed.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    if not (SRC / "ecseq" / "__init__.py").is_file() or not REFERENCES.is_file():
        print(f"error: no ecseq sources under {SRC}", file=sys.stderr)
        return 2
    build()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = [bench(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
