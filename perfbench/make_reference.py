"""Write reference/<workload>.json: canonical `full` outputs for a seed table.

Run from the root of a checkout, at the commit whose outputs become the
reference:

    python3 perfbench/make_reference.py [--workload NAME ...]

Each seed runs once, in a fresh worker process. The files
record what that commit computed; run.py checks later runs against them.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import sys
import time
from pathlib import Path

import reference
import run
import workloads

SEEDS = [s for run_seed in (workloads.DEFAULT_SEED, *range(12))
         for s in workloads.instance_seeds(run_seed)]
NUMBER_LIST = re.compile(r"\[\s*(-?[0-9][-+0-9.eE]*(?:,\s*-?[0-9][-+0-9.eE]*)*)\s*\]")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=workloads.NAMES)
    args = parser.parse_args()
    root = Path.cwd()
    reference.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in args.workload or workloads.NAMES:
        work = run.HERE / "_work" / f"reference-{name}-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        path = reference.REFERENCE_DIR / f"{name}.json"
        kept = reference.load(name) if path.exists() else {}
        outputs = {str(s): kept[str(s)] for s in SEEDS if str(s) in kept}
        try:
            for seed in SEEDS:
                if str(seed) in outputs:
                    continue
                raw, threads = workloads.workload(name, seed)
                config = work / "config.json"
                config.write_text(json.dumps(raw), encoding="utf-8")
                worker = run.Runner(root, work, time.monotonic() + 600.0).start([(seed, config)], threads)
                r = worker["calls"][0] if "calls" in worker else worker
                if "error" in r:
                    print(f"{name} seed {seed}: {r['error']}", file=sys.stderr)
                    return 1
                outputs[str(seed)] = r["outputs"]
                print(f"{name} seed {seed}: full_s {r['wall_s']:.3f} verdict {r['outputs']['verdict']}",
                      flush=True)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        payload = {
            "workload": name,
            "tolerance": {"rel": reference.REL, "abs": reference.ABS},
            "environment": run.environment(root, workloads.workload(name, 0)[1]),
            "outputs": outputs,
        }
        text = json.dumps(payload, indent=1, sort_keys=True)
        # one line per list of numbers keeps the file readable and small
        text = NUMBER_LIST.sub(lambda m: "[" + ", ".join(v.strip() for v in m.group(1).split(",")) + "]", text)
        path.write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
