"""Write references.json: each workload's CLI outputs at the default seed.

    python3 perfbench/pin_references.py

Run it only on the commit whose outputs become the reference; every later
benchmark run must reproduce them (family files byte for byte, reports
apart from timings and the file path).
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import DEFAULT_SEED, REFERENCES, SCRATCH, WORKLOADS, Run, build, cli_commands, command_output


def main() -> int:
    build()
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="pin-", dir=SCRATCH))
    refs = {}
    try:
        run = Run(workdir, {})
        for name, w in WORKLOADS.items():
            out = {}
            for metric, argv, path in cli_commands(w, DEFAULT_SEED, workdir):
                if not run.child(f"{name} {argv[2]}", argv)[2]:
                    print("\n".join(run.problems), file=sys.stderr)
                    return 1
                out[metric] = command_output(metric, path)
            report = {k: v for k, v in out["analyze_s"].items()
                      if k not in ("timings", "family_file")}
            refs[name] = {"family_sha256": out["generate_s"], "analyze": report,
                          "count_places": out["count_places_s"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCES.write_text(json.dumps(refs, sort_keys=True, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
