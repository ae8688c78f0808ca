"""One traced pass over a workload's generate / analyze / count-places.

    python3 perfbench/trace_worker.py '{"n": 8, "t": 16, "d": 2, "sampled": null,
        "verify_places": false, "seed": 0, "run_id": "x", "out": "trace.json"}'

run.py starts this in a fresh interpreter (with ``src`` on PYTHONPATH), so
the field-context caches and the ordinary-curve count table start cold, as
they do for the CLI; unlike the CLI, the three commands then share one
process and its warm caches.  Each public library call the CLI makes gets a
span (name, start, end, parent, run id) kept in memory; the spans, the work
counts and the command outputs are written to ``out`` as JSON at the end.

Work counts come from the inputs and results, not from counters inside the
library, so several of them measure the size of the input rather than the
work a layer did: ``gf2.ext_elements`` is q^d, ``curves.models_swept`` is
the returned model's position in the documented lexicographic sweep,
``places.x_scanned`` is the representative's x + 1 (find_place scans x in
integer order), ``rrspace.dim`` is the basis length and ``family.bits`` is
M*N.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from contextlib import contextmanager

from ecseq import (CurveSearchSpec, count_places_formula, counting_identity_check,
                   enumerate_places_deg_d, family_correlation,
                   family_linear_complexity, find_place, gen_family, make_ext,
                   make_field, read_family, rr_basis, search_cyclic_curve,
                   write_family)
from ecseq.analysis import _OPS_PER_MS  # the budget gate's throughput constant

# counting_identity_check probes every (row, delay) up to this N and a fixed
# number of random ones above it (its defaults, which the CLI uses).
IDENTITY_EXHAUSTIVE_N, IDENTITY_SAMPLES = 300, 10_000


class Tracer:
    """Spans of one run, kept in memory until the run ends."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "run": self.run_id,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


def sweep_position(curve) -> int:
    """1-based position of the curve in search_cyclic_curve's sweep order.

    Ordinary models y^2 + xy = x^3 + a2 x^2 + a6 run over (a2, a6 != 0);
    supersingular ones y^2 + a3 y = x^3 + a4 x + a6 over (a3 != 0, a4, a6).
    """
    q = curve.ctx.q
    if curve.t % 2:
        return curve.a2 * (q - 1) + curve.a6
    return ((curve.a3 - 1) * q + curve.a4) * q + curve.a6 + 1


def generate(tr: Tracer, spec: dict, path: str, counts: dict) -> str:
    n, t, d = spec["n"], spec["t"], spec["d"]
    with tr.span("gf2.make_field"):
        ctx = make_field(n)
    with tr.span("gf2.make_ext"):
        ext = make_ext(ctx, d)
    with tr.span("gf2.build_tables"):
        ext.build_tables()
    with tr.span("curves.search_cyclic_curve"):
        curve, P = search_cyclic_curve(CurveSearchSpec(n, t))
    with tr.span("places.find_place"):
        place = find_place(curve, ext, d)
    with tr.span("rrspace.rr_basis"):
        space = rr_basis(curve, ext, place)
    with tr.span("family.gen_family"):
        fam = gen_family(curve, P, space, ext)
    with tr.span("family.write_family"):
        write_family(fam, path)
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    counts.update({
        "gf2.ext_elements": ext.q,
        "curves.models_swept": sweep_position(curve),
        "places.x_scanned": place.representative.x + 1,
        "rrspace.dim": len(space.full_basis),
        "family.bits": fam.M * fam.N,
        "family.bytes": os.path.getsize(path),
    })
    return digest


def analyze(tr: Tracer, spec: dict, path: str, counts: dict) -> dict:
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    with tr.span("family.read_family"):
        fam = read_family(path)
    with tr.span("analysis.family_correlation"):
        corr = family_correlation(fam, sampled=spec["sampled"], seed=spec["seed"])
    with tr.span("analysis.family_linear_complexity"):
        lc = family_linear_complexity(fam)
    with tr.span("analysis.counting_identity_check"):
        identities_ok = counting_identity_check(fam)
    M, N = fam.M, fam.N
    cross = M * (M - 1) // 2 * N if corr.mode == "exhaustive" else corr.samples
    counts.update({
        "analysis.pair_shifts": M * (N - 1) + cross,
        "analysis.budget_est_ms": (M * (M - 1) // 2 + M) * N / _OPS_PER_MS,
        "analysis.lc_rows": sum(1 for s in fam.bits if s),
        "analysis.identity_probes": (M * (N - 1) if N <= IDENTITY_EXHAUSTIVE_N
                                     else IDENTITY_SAMPLES),
    })
    # the CLI's report bundle, without the path and timings it also carries
    return {
        "family_sha256": digest,
        "config": {"n": fam.n, "t": fam.t, "d": fam.d, "N": N, "M": M},
        "correlation": corr.as_dict(),
        "linear_complexity": lc.as_dict(),
        "counting_identities_ok": identities_ok,
    }


def count_places(tr: Tracer, spec: dict, counts: dict) -> dict:
    n, t, d = spec["n"], spec["t"], spec["d"]
    q = 1 << n
    with tr.span("places.count_places_formula"):
        formula = count_places_formula(q, t, d)
    enumerated = None
    if spec["verify_places"]:
        with tr.span("curves.search_cyclic_curve"):
            curve, _ = search_cyclic_curve(CurveSearchSpec(n, t))
        with tr.span("gf2.make_ext"):
            ext = make_ext(curve.ctx, d)
        with tr.span("places.enumerate_places_deg_d"):
            enumerated = len(enumerate_places_deg_d(curve, ext, d))
    counts["places.orbits"] = enumerated or 0
    return {"d": d, "q": q, "t": t, "formula": formula, "enumerated": enumerated,
            "consistent": enumerated is None or enumerated == formula}


def main() -> None:
    spec = json.loads(sys.argv[1])
    tr = Tracer(spec["run_id"])
    counts: dict = {}
    path = os.path.join(os.path.dirname(spec["out"]), "traced.ecseq")
    outputs = {}
    with tr.span("cmd.generate"):
        outputs["generate_s"] = generate(tr, spec, path, counts)
    with tr.span("cmd.analyze"):
        outputs["analyze_s"] = analyze(tr, spec, path, counts)
    with tr.span("cmd.count-places"):
        outputs["count_places_s"] = count_places(tr, spec, counts)
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump({"spans": tr.spans, "counts": counts, "outputs": outputs}, fh)


if __name__ == "__main__":
    main()
