"""Benchmark of `viability full`: end-to-end timings, or per-layer spans.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ellipse2d_ou --seed 7 --seconds 30 --trace 0

A run starts one fresh worker process (worker.py). It imports the package
from src/, resolves the configs of the run's two instances and calls
`cli_runner.run(cfg, "full")` in process, alternating instances, until
--seconds have passed. Every end-to-end metric is the median over those
calls; set-up is timed on the worker and on three set-up-only workers. With
--trace 1, traced and untraced calls alternate and the per-layer metrics come
from the traced calls' spans. Every call's outputs are checked against
reference/ (see reference.py). The last line of standard output is one JSON
object; a result file with the environment and every sample goes to
perfbench/_results/. Times are rescaled to a fixed machine speed, sampled
during the run (see calibration.py); the result file keeps the raw ones.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import calibration
import reference
import tracing
import workloads

HERE = Path(__file__).resolve().parent
MIN_SETUP_SAMPLES = 4  # the worker's own set-up plus three set-up-only workers
SETUP_CALIBRATION_SAMPLES = 5  # machine-speed samples taken before each worker starts
RUN_BUDGET_S = 170.0  # every worker is killed by then, inside the 180 s limit
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

UNIT_SUFFIXES = (  # metric-name suffix -> unit, first match wins
    (".calls", "count"), ("_mb", "MB"), ("us_per_call", "us"), ("ns_per_scheduled_path_step", "ns"),
    ("_p50", "ms"), ("_p90", "ms"), ("_s", "s"), ("", "ratio"),
)


def unit(metric: str) -> str:
    return next(u for suffix, u in UNIT_SUFFIXES if metric.endswith(suffix))


class Runner:
    """Starts the worker processes of one benchmark run, one at a time."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.root, self.work, self.deadline = root, work, deadline
        self.env = {**os.environ, **PINNED_THREADS, "PYTHONPATH": str(root / "src")}
        self.count = 0
        self.calibration: list[float] = []

    def start(self, instances, threads=1, seconds=0.0, trace=False, repeats=None, setup_only=False) -> dict:
        """Run one worker to completion. Returns its result with setup_s, or
        {"error": ...} when it failed, was killed at the deadline or printed
        no result."""
        self.count += 1
        cmd = [sys.executable, str(HERE / "worker.py"), "--out", str(self.work / f"out{self.count}"),
               "--threads", str(threads), "--seconds", str(seconds), "--trace", str(int(trace))]
        for seed, config in instances:
            cmd += ["--instance", str(seed), str(config)]
        for sub, n in (repeats or {}).items():
            cmd += ["--repeat", sub, str(n)]
        if setup_only:
            cmd.append("--setup-only")
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return {"error": "no time left in the run budget"}
        self.calibration += [calibration.sample() for _ in range(SETUP_CALIBRATION_SAMPLES)]
        with open(self.work / f"stderr{self.count}.txt", "w+", encoding="utf-8") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True,
                                    env=self.env, cwd=self.root)
            killer = threading.Timer(remaining, proc.kill)
            killer.start()
            try:
                first = proc.stdout.readline()
                setup_s = time.perf_counter() - start
                rest = proc.stdout.read()
                proc.wait()
            finally:
                killer.cancel()
                if proc.returncode is None:  # interrupted: stop the worker before leaving
                    proc.kill()
                    proc.wait()
                proc.stdout.close()
            err.seek(0)
            stderr = err.read()[-2000:]
        if first.strip() != "ready" or proc.returncode != 0:
            return {"error": f"worker exited {proc.returncode}: {stderr}"}
        if setup_only:
            return {"setup_s": setup_s}
        try:
            result = json.loads(rest.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return {"error": f"worker printed no result: {rest[-500:]!r} {stderr}"}
        result["setup_s"] = setup_s
        return result


def _percentile(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(spans_file: str, probe_points: int, path_steps: int) -> tuple[dict, dict]:
    """Per-layer metrics of one traced run, plus the full per-span-name table."""
    spans, main = tracing.load_spans(spans_file)
    tracing.link_threads(spans, main)
    selfs = tracing.self_times(spans)
    by_id = {s["id"]: s for s in spans}
    table: dict = {}
    for s in spans:
        row = table.setdefault(s["name"], {"calls": 0, "self_s": 0.0, "durations": []})
        row["calls"] += 1
        row["self_s"] += selfs[s["id"]]
        row["durations"].append(s["end"] - s["start"])
    empty = {"calls": 0, "self_s": 0.0, "durations": []}

    def calls(name):
        return table.get(name, empty)["calls"]

    def self_s(name):
        return table.get(name, empty)["self_s"]

    def wall(name):
        return sum(table.get(name, empty)["durations"])

    proj = "geometry.project_to_boundary"
    eta = "mollifier.eta_with_derivatives"
    eta_ms = [1e3 * d for d in table.get(eta, empty)["durations"]] or [0.0]
    probe_projections = sum(
        1 for s in spans
        if s["name"] == proj and tracing.has_ancestor(s, "generator_probe.shell_sign_check", by_id)
    )
    m = {
        f"{proj}.calls": calls(proj),
        f"{proj}.self_s": self_s(proj),
        f"{proj}.us_per_call": 1e6 * self_s(proj) / max(1, calls(proj)),
        f"{proj}.calls_per_probe_point": probe_projections / probe_points,
        "geometry.signed_boundary_distance_batch.calls": calls("geometry.signed_boundary_distance_batch"),
        "geometry.signed_distance.self_s": self_s("geometry.signed_boundary_distance")
        + self_s("geometry.signed_boundary_distance_batch"),
        "geometry.sample_offset_boundary.self_s": self_s("geometry.sample_offset_boundary"),
        "geometry.offset_membership.calls": calls("geometry.offset_membership"),
        f"{eta}.calls": calls(eta),
        f"{eta}.self_s": self_s(eta),
        f"{eta}.ms_per_call_p50": statistics.median(eta_ms),
        f"{eta}.ms_per_call_p90": _percentile(eta_ms, 0.9),
        "generator_probe.apply_generator.calls": calls("generator_probe.apply_generator"),
        "generator_probe.apply_generator.self_s": self_s("generator_probe.apply_generator"),
        "generator_probe.default_shell_tolerance.self_s": self_s("generator_probe.default_shell_tolerance"),
        "sde_model.sigma.calls": calls("sde_model.sigma"),
        "sde_model.sigma.self_s": self_s("sde_model.sigma"),
        "theorem_checker.condition2_profile.self_s": self_s("theorem_checker.condition2_profile"),
        "theorem_checker.condition3_profile.self_s": self_s("theorem_checker.condition3_profile"),
        "theorem_checker.condition3_value.calls": calls("theorem_checker.condition3_value"),
        "sde_model.check_regularity.self_s": self_s("sde_model.check_regularity"),
        "sde_model.diffusion_jacobian.calls": calls("sde_model.diffusion_jacobian"),
        "mc_simulator.exit_probability.self_s": self_s("mc_simulator.exit_probability")
        + self_s("mc_simulator._simulate_block"),
        "mc_simulator.ns_per_scheduled_path_step": 1e9 * wall("mc_simulator.exit_probability") / path_steps,
        "mc_simulator.signed_level.calls": calls("mc_simulator.signed_level"),
        "mc_simulator.signed_level.self_s": self_s("mc_simulator.signed_level"),
        "seeds.path_generator.calls": calls("seeds.path_generator"),
        "seeds.path_generator.self_s": self_s("seeds.path_generator"),
        "cli_runner.run.self_s": self_s("cli_runner.run"),
    }
    full = wall("cli_runner.run")
    summary = {
        name: {"calls": row["calls"], "self_s": row["self_s"], "self_share_of_full": row["self_s"] / full}
        for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"])
    }
    return m, summary


def environment(root: Path, threads: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
        "threads": {"viability --threads": threads, **PINNED_THREADS},
    }


def _git_commit(root: Path) -> str:
    """HEAD of the checkout's own .git, if it has one (read, not searched for)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every stage (smoke test); outputs are not in the reference")
    args = parser.parse_args()
    # A run stopped from outside still stops its worker and removes its
    # scratch files: SIGTERM unwinds through the `finally` blocks.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))

    root = Path.cwd()
    if not (root / "src" / "viability" / "cli_runner.py").is_file():
        print(f"no src/viability under {root}: run from the root of a checkout", file=sys.stderr)
        return 2
    t_begin = time.monotonic()
    table = None if args.tiny else reference.load(args.workload)
    work = HERE / "_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    instances = []
    for seed in workloads.instance_seeds(args.seed):
        raw, threads = workloads.workload(args.workload, seed, tiny=args.tiny)
        config = work / f"config-{seed}.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        instances.append((seed, config))
    runner = Runner(root, work, t_begin + RUN_BUDGET_S)
    results = HERE / "_results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"

    try:
        worker = runner.start(instances, threads, args.seconds, bool(args.trace),
                              workloads.REPEATS[args.workload])
        if "error" in worker:
            print(worker["error"], file=sys.stderr)
            return 1
        calls = worker["calls"]
        for c in calls:
            if "error" not in c:
                bad = reference.check(c["seed"], c["outputs"], table)
                if bad:
                    c["error"] = "; ".join(bad[:5])
        setups = [worker["setup_s"]]
        probes = [] if args.trace else [runner.start(instances, setup_only=True)
                                        for _ in range(MIN_SETUP_SAMPLES - 1)]
        setups += [p["setup_s"] for p in probes if "error" not in p]
        problems = [r["error"] for r in calls + probes if "error" in r]
        failed = len(problems)

        ok = [c for c in calls if "error" not in c]
        digests: dict = {}
        for c in ok:
            for part in reference.STAGE_PARTS:
                if part in c["outputs"]:
                    digests.setdefault(f"{c['seed']}/{part}", set()).add(reference.digest(c["outputs"][part]))
        if any(len(d) > 1 for d in digests.values()):
            problems.append("outputs differ between runs of the same instance")
        full_runs = [c for c in ok if c["subcommand"] == "full" and not c["trace"]]
        stage_runs = {m: [c for c in ok if not c["trace"] and c["subcommand"] in ("full", sub)]
                      for m, (sub, _) in tracing.STAGES.items()}
        if not full_runs or (args.trace and len(ok) < len(calls)):
            print("too few successful runs for the metrics: " + "; ".join(problems[:3]), file=sys.stderr)
            return 1

        extra = {}
        if args.trace:
            traced = [c for c in ok if c["subcommand"] == "full" and c["trace"]]
            per_run = [layer_metrics(c["spans_file"], c["probe_points"], c["scheduled_path_steps"])
                       for c in traced]
            values = {k: statistics.median([m[k] for m, _ in per_run]) for k in per_run[0][0]}
            sim = {c["threads"]: c["stages"]["simulate_s"] for c in ok if c["subcommand"] == "simulate"}
            values["mc_simulator.thread_speedup"] = sim[1] / sim[2]
            values["trace.overhead_frac"] = (
                statistics.median([c["wall_s"] for c in traced])
                / statistics.median([c["wall_s"] for c in full_runs]) - 1.0
            )
            extra["layers"] = per_run[0][1]
            shutil.copy(traced[0]["spans_file"], results / f"{name}-spans.json")
        else:
            raw = {
                "setup_s": statistics.median(setups),
                "full_s": statistics.median([c["wall_s"] for c in full_runs]),
                **{m: statistics.median([c["stages"][m] for c in v]) for m, v in stage_runs.items()},
            }
            run_scale = calibration.factor([x for c in calls if not c["trace"] for x in c["calibration_s"]])
            for c in ok:
                c["scale"] = calibration.call_factor(c["wall_s"], c["calibration_s"], run_scale)
            values = {
                "setup_s": raw["setup_s"] * calibration.factor(runner.calibration),
                "full_s": statistics.median([c["wall_s"] * c["scale"] for c in full_runs]),
                **{m: statistics.median([c["stages"][m] * c["scale"] for c in v]) for m, v in stage_runs.items()},
                "peak_rss_mb": worker["peak_rss_mb"],
            }
            extra.update(setup_samples=setups, raw_times_s=raw, run_scale=run_scale,
                         setup_calibration_s=runner.calibration)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {k: {"value": v, "unit": unit(k)} for k, v in values.items()}
    summary = {
        "correct": not problems,
        "attempted": len(calls) + len(probes),
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "environment": environment(root, threads),
        "in_reference": {seed: table is not None and str(seed) in table for seed, _ in instances},
        "output_digests": {k: sorted(d) for k, d in digests.items()},
        "problems": problems,
        "peak_rss_mb": worker["peak_rss_mb"],
        "calls": [{k: v for k, v in c.items() if k != "outputs"} for c in calls],
        **extra,
        "summary": summary,
    }
    (results / f"{name}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    for k, m in metrics.items():
        measured = f"  (measured {extra['raw_times_s'][k]:.6g} s)" if k in extra.get("raw_times_s", {}) else ""
        print(f"{args.workload:18s} {k:52s} {m['value']:>14.6g} {m['unit']}{measured}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
