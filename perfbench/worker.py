"""The workload process of one benchmark run.

run.py starts one fresh worker per run. The worker imports `viability` from
this checkout's src/, resolves the configs and prints "ready" (run.py times
set-up up to that line). It then calls `cli_runner.run` in process, alternating
between the run's instances, until --seconds have passed, and prints one JSON
line with every call's timings and canonical outputs. After each `full` call
it runs each stage through its own subcommand as often as --repeat says, so
short stages get enough timed samples. No call starts after --seconds have
passed. With --trace 1 every untraced call is followed by a traced call on
the same instance, and two traced `simulate` calls (threads 1 and 2) end the
run; the spans of each traced call are kept in memory and written when the
worker ends. After each call the worker samples the machine's speed
(calibration.py) for 3% of the call's time.
"""

import argparse
import itertools
import json
import resource
import shutil
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from viability import cli_runner  # noqa: E402
from viability.errors import ConfigError, ViabilityError  # noqa: E402

import calibration  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def call(seed, config, out, subcommand, threads, traced) -> tuple[dict, tracing.Tracer]:
    """One timed `cli_runner.run`, wrapped for stage timing or full tracing."""
    tracer = tracing.Tracer()
    tracer.install(tracing.TRACED if traced else tracing.stage_targets())
    rec = {"seed": seed, "subcommand": subcommand, "threads": threads, "trace": traced}
    start = time.perf_counter()
    try:
        _, code = cli_runner.run(config, subcommand, out_dir=out, threads=threads)
    except ConfigError:
        code = 3
    except ViabilityError:
        code = 4
    except Exception:  # a crash is a failed operation; the run goes on
        code = None
        rec["error"] = traceback.format_exc(limit=5)
    finally:
        rec["wall_s"] = time.perf_counter() - start
        tracer.uninstall()
    totals = tracer.totals()
    rec["stages"] = {m: totals.get(name, 0.0) for m, (_, name) in tracing.STAGES.items()}
    rec["code"] = code
    if code in (3, 4):
        rec["error"] = f"exit code {code}"
    elif code is not None:
        with open(Path(out) / "report.json", encoding="utf-8") as fh:
            rec["outputs"] = reference.canonical(json.load(fh))
    shutil.rmtree(out, ignore_errors=True)
    return rec, tracer


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--instance", nargs=2, action="append", metavar=("SEED", "CONFIG"),
                        required=True, help="an instance's config seed and config file")
    parser.add_argument("--out", required=True, help="scratch directory for reports")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--repeat", nargs=2, action="append", default=[], metavar=("SUBCOMMAND", "N"),
                        help="stand-alone calls of a stage after each untraced `full` call")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import viability

    src = Path(viability.__file__).resolve().parent
    if src != ROOT / "src" / "viability":
        print(f"imported viability from {src}, not from this checkout", file=sys.stderr)
        return 2
    instances = [(int(seed), config) for seed, config in args.instance]
    resolved = {seed: cli_runner.load_config(config) for seed, config in instances}
    print("ready", flush=True)
    if args.setup_only:
        return 0

    main_thread = threading.main_thread().ident
    out = Path(args.out)
    calls, spans = [], []

    def timed(i, subcommand, threads, traced):
        seed, config = instances[i % len(instances)]
        rec, tracer = call(seed, config, out / str(len(calls)), subcommand, threads, traced)
        rec["calibration_s"] = calibration.samples_for(rec["wall_s"])
        rec["scheduled_path_steps"] = workloads.scheduled_path_steps(resolved[seed])
        rec["probe_points"] = resolved[seed]["probe"]["n_points"]
        if traced:
            rec["spans_file"] = str(out / f"spans{len(calls)}.json")
            spans.append((rec["spans_file"], tracer))
        calls.append(rec)
        return rec

    schedule = [sub for sub, n in args.repeat for _ in range(int(n))]
    begin = time.perf_counter()

    def over():
        return time.perf_counter() - begin >= args.seconds

    for i in itertools.count():
        first = timed(i, "full", args.threads, False)
        if args.trace:
            timed(i, "full", args.threads, True)
        elif "error" not in first:
            for sub in schedule:
                if over():
                    break
                timed(i, sub, args.threads, False)
        if over():
            break
    if args.trace:
        for threads in (1, 2):
            timed(0, "simulate", threads, True)
    for path, tracer in spans:
        tracer.dump(path, main_thread)
    result = {
        "calls": calls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
