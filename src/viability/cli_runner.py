"""Command-line entry point and machine-readable run reports.

One JSON configuration file declares the model, the domain, and the parameter
groups for the checker, the shell probe, and the simulator. The report echoes
the fully resolved configuration, so a report alone suffices to reproduce the
run. The probe and the simulator run on every CPU of the affinity mask (see
sharding) with the same outputs for any count.

Each stage (check, probe, simulate) returns its report sections, its decision
(0 supports invariance, 1 refutes it, 2 inconclusive) and its CSV side files.
A one-stage subcommand exits with its stage's decision, named in VERDICTS.
`full` reads check and simulate, not the probe: 2 (inconclusive) while either
condition is undecided, else 0 only when invariance is both predicted and
observed, 1 otherwise. Exit code 3 is a configuration error, 4 a numerical one.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import time
from dataclasses import asdict, fields
from importlib import metadata
from pathlib import Path

import numpy as np

from . import generator_probe, geometry, mc_simulator, mollifier, sde_model, theorem_checker
from .errors import ConfigError, ViabilityError
from .theorem_checker import CheckerConfig

# CheckerConfig holds the checker defaults; the root seed feeds its seed.
# Tuples are echoed as JSON lists.
CHECK_DEFAULTS = {
    f.name: list(f.default) if isinstance(f.default, tuple) else f.default
    for f in fields(CheckerConfig)
    if f.name != "seed"
}
PROBE_DEFAULTS = {
    "eps": 0.1,
    "n_points": 200,
    "tol_shell_factor": 1.0,
    "time": 0.0,
}
SIM_DEFAULTS = {
    "x0": None,  # domain center when omitted
    "T": 1.0,
    "dt": 1e-3,
    "n_paths": 2000,
    "seed": None,  # the root seed when omitted
    "dt_list": None,
    "p_max": 1e-3,
}
QUAD_DEFAULTS = {
    "nodes_per_axis": mollifier.DEFAULT_NODES_PER_AXIS,
    "qmc_points": mollifier.DEFAULT_QMC_POINTS,
}

# (section, key) -> least value of each count; a None section is the root.
COUNTS = {
    (None, "seed"): 0,
    ("check", "samples_per_eps"): 1,
    ("check", "regularity_pairs"): 1,
    ("probe", "n_points"): 1,
    ("sim", "n_paths"): 1,
    ("sim", "seed"): 0,
    ("quad", "nodes_per_axis"): 4,
    ("quad", "qmc_points"): 1,
}
# section -> key -> the range of each real parameter, as a test and its words;
# sim.T and sim.dt also meet the simulator's own rule, applied in resolve_config
ANY = (lambda v: True, "a number")
NONNEGATIVE = (lambda v: v >= 0, ">= 0")
POSITIVE = (lambda v: v > 0, "positive")
REALS = {
    "check": {"delta_abs": NONNEGATIVE, "delta_margin": NONNEGATIVE, "p_min": POSITIVE,
              "lipschitz_L": POSITIVE},
    "probe": {"eps": POSITIVE, "tol_shell_factor": NONNEGATIVE, "time": ANY},
    "sim": {"T": ANY, "dt": ANY, "p_max": (lambda v: 0 <= v <= 1, "in [0, 1]")},
}
# lists of reals, checked when set; model and domain parameters are reals or
# nested lists of reals, apart from these counts
REAL_LISTS = (("check", "eps_grid"), ("check", "time_grid"), ("sim", "x0"), ("sim", "dt_list"))
INTEGER_PARAMS = ("dimension", "p")


def _is_number(value) -> bool:
    """An int or float that is finite as a float, not a bool. Python's json
    reads NaN and Infinity, which are not JSON numbers (RFC 8259), and reads
    integers of any size."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _is_reals(value) -> bool:
    """A finite number or a (nested) list of them."""
    if isinstance(value, list):
        return all(_is_reals(item) for item in value)
    return _is_number(value)


def _check_declaration(section: str, decl, tag: str):
    """Value types of a model or domain declaration; the tag key names the
    family or kind. The keys are left to the builder: an unknown family or
    kind, or a key its builder does not take, fails in the builder call. A
    null is left to the builder too, which treats it as absent or rejects it."""
    if not isinstance(decl, dict):
        raise ConfigError(f"section {section!r} must be a mapping")
    for key, value in decl.items():
        if key == tag or value is None:
            continue
        if key in INTEGER_PARAMS:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{section}.{key} must be an integer, got {value!r}")
        elif not _is_reals(value):
            raise ConfigError(
                f"{section}.{key} must be a finite number or a list of them, got {value!r}"
            )


def _merge_section(raw: dict, name: str, defaults: dict) -> dict:
    section = dict(defaults)
    user = raw.get(name, {})
    if not isinstance(user, dict):
        raise ConfigError(f"section {name!r} must be a mapping")
    unknown = set(user) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown keys in section {name!r}: {sorted(unknown)}")
    section.update(user)
    return section


def resolve_config(raw: dict) -> dict:
    """Validate a raw configuration mapping and fill in every default."""
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be a mapping")
    for required in ("model", "domain"):
        if required not in raw:
            raise ConfigError(f"missing required section {required!r}")

    cfg = {
        "model": raw["model"],
        "domain": raw["domain"],
        "seed": raw.get("seed", 12345),
        "check": _merge_section(raw, "check", CHECK_DEFAULTS),
        "probe": _merge_section(raw, "probe", PROBE_DEFAULTS),
        "sim": _merge_section(raw, "sim", SIM_DEFAULTS),
        "quad": _merge_section(raw, "quad", QUAD_DEFAULTS),
        "output": _merge_section(raw, "output", {"dir": "."}),
    }
    if cfg["sim"]["seed"] is None:
        cfg["sim"]["seed"] = cfg["seed"]

    # JSON has one number type per kind; a bool is not a number here.
    for (section, key), least in COUNTS.items():
        value = cfg[key] if section is None else cfg[section][key]
        name = key if section is None else f"{section}.{key}"
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        if value < least:
            raise ConfigError(f"{name} must be >= {least}")
    for section, ranges in REALS.items():
        for key, (in_range, words) in ranges.items():
            value = cfg[section][key]
            if not _is_number(value):
                raise ConfigError(f"{section}.{key} must be a finite number, got {value!r}")
            if not in_range(value):
                raise ConfigError(f"{section}.{key} must be {words}, got {value!r}")
    if not isinstance(cfg["output"]["dir"], str):
        raise ConfigError(f"output.dir must be a string, got {cfg['output']['dir']!r}")
    for section, key in REAL_LISTS:
        value = cfg[section][key]
        if value is not None and not (
            isinstance(value, list) and value and all(map(_is_number, value))
        ):
            raise ConfigError(
                f"{section}.{key} must be a nonempty list of finite numbers, got {value!r}"
            )
    _check_declaration("model", cfg["model"], "family")
    _check_declaration("domain", cfg["domain"], "kind")

    try:
        model = sde_model.from_config(cfg["model"])
        domain = geometry.from_config(cfg["domain"])
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad model or domain declaration: {exc}") from exc
    if model.dimension != domain.dimension:
        raise ConfigError(
            f"model dimension {model.dimension} != domain dimension {domain.dimension}"
        )

    sim = cfg["sim"]
    if sim["x0"] is None:
        sim["x0"] = [float(v) for v in domain.center]
    elif len(sim["x0"]) != domain.dimension:
        raise ConfigError(
            f"sim.x0 has {len(sim['x0'])} entries, the domain dimension is {domain.dimension}"
        )
    try:  # the library's own rules, which the runs apply again
        theorem_checker._validate_grid(cfg["check"]["eps_grid"])
        mc_simulator._n_steps(sim["T"], sim["dt"])
        if sim["dt_list"] is not None:
            mc_simulator._check_dt_list(sim["T"], sim["dt_list"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"check.eps_grid, sim.T, sim.dt or sim.dt_list: {exc}") from exc
    return cfg


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return resolve_config(raw)


@functools.cache
def _scipy_version() -> str:
    """scipy's version for the report, read once and without importing scipy."""
    return metadata.version("scipy")


def _package_version() -> str:
    try:
        return metadata.version("artifact")
    except metadata.PackageNotFoundError:
        return "unknown"


def check(model, domain, cfg):
    """The condition sweep. Every check key is a CheckerConfig field, cast to
    its default's type. Decides 0 when invariance is predicted, 1 when a
    condition fails or the regularity spot check refutes, else 2."""
    cast = {f.name: type(f.default) for f in fields(CheckerConfig)}
    checker_cfg = CheckerConfig(
        seed=int(cfg["seed"]), **{k: cast[k](v) for k, v in cfg["check"].items()}
    )
    conditions = theorem_checker.theorem1_report(model, domain, checker_cfg)
    if conditions.invariance_predicted:
        decision = 0
    elif (
        theorem_checker.VERDICT_FAILS in (conditions.cond2_verdict, conditions.cond3_verdict)
        or (conditions.regularity is not None and not conditions.regularity.passed)
    ):
        decision = 1
    else:
        decision = 2
    files = {}
    if conditions.cond2_sup:
        files["cond_profile.csv"] = [["eps", "cond2_sup", "cond2_ratio", "cond3_sup"]] + [
            [repr(float(e)), repr(float(s2)), repr(float(r2)), repr(float(s3))]
            for e, s2, r2, s3 in zip(
                conditions.eps_grid,
                conditions.cond2_sup,
                conditions.cond2_ratio,
                conditions.cond3_sup,
            )
        ]
        # zero sups have no logarithm; those cells are left empty
        files["plot_cond2_loglog.csv"] = [["log10_eps", "log10_cond2_sup"]] + [
            [repr(float(np.log10(e))), "" if s2 <= 0.0 else repr(float(np.log10(s2)))]
            for e, s2 in zip(conditions.eps_grid, conditions.cond2_sup)
        ]
    return {"conditions": asdict(conditions)}, decision, files


def probe(model, domain, cfg):
    """The shell sign check. Decides 0 when the sign holds on every point, else 1."""
    settings = cfg["probe"]
    result = generator_probe.shell_sign_check(
        model,
        domain,
        float(settings["eps"]),
        float(settings["time"]),
        int(settings["n_points"]),
        int(cfg["seed"]),
        tol_shell_factor=float(settings["tol_shell_factor"]),
        nodes_per_axis=int(cfg["quad"]["nodes_per_axis"]),
        qmc_points=int(cfg["quad"]["qmc_points"]),
    )
    section = {
        k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in asdict(result).items()
    }
    section["n_points"] = len(result.points)
    rows = [["distance", "generator_value"]] + [
        [repr(float(d)), repr(float(v))] for d, v in zip(result.distances, result.values)
    ]
    return {"shell_probe": section}, 0 if result.passed else 1, {"plot_shell_profile.csv": rows}


def simulate(model, domain, cfg):
    """The exit estimates, one per dt. Decides 0 when the finest dt's exit
    fraction is at most sim.p_max, else 1."""
    sim = cfg["sim"]
    estimates = mc_simulator.dt_convergence_study(
        model,
        domain,
        sim["x0"],
        float(sim["T"]),
        [float(d) for d in sim["dt_list"] or [sim["dt"]]],
        int(sim["n_paths"]),
        int(sim["seed"]),
    )
    sections = {"exit": asdict(estimates[-1])}
    if len(estimates) > 1:
        sections["exit_estimates"] = [asdict(e) for e in estimates]
    rows = [["dt", "n_paths", "p_hat", "ci_low", "ci_high"]] + [
        [repr(float(e.dt)), e.n_paths, repr(float(e.p_hat)),
         repr(float(e.ci_low)), repr(float(e.ci_high))]
        for e in estimates
    ]
    decision = 0 if estimates[-1].p_hat <= float(sim["p_max"]) else 1
    return sections, decision, {"exit.csv": rows}


# the stages each subcommand runs, in order
STAGES = {
    "check": (check,),
    "probe": (probe,),
    "simulate": (simulate,),
    "full": (check, probe, simulate),
}
# a single-stage subcommand's verdict, indexed by its stage's decision
VERDICTS = {
    "check": ("invariance_predicted", "not_predicted", "inconclusive"),
    "probe": ("shell_sign_ok", "shell_sign_violated"),
    "simulate": ("no_exit_observed", "exit_observed"),
}
# full's verdict by (predicted, observed) once both conditions are decided
FULL_VERDICTS = {
    (True, True): "invariance_predicted_and_observed",
    (True, False): "predicted_not_observed",
    (False, True): "not_predicted_observed",
    (False, False): "not_predicted_not_observed",
}


def _full_verdict(conditions: dict, simulate_decision: int) -> tuple[str, int]:
    """inconclusive (2) while either condition is undecided, else the
    (predicted, observed) verdict: 0 when both, 1 otherwise."""
    undecided = theorem_checker.VERDICT_INCONCLUSIVE
    if undecided in (conditions["cond2_verdict"], conditions["cond3_verdict"]):
        return "inconclusive", 2
    predicted = conditions["invariance_predicted"]
    observed = simulate_decision == 0
    return FULL_VERDICTS[predicted, observed], 0 if predicted and observed else 1


def run(
    config_path,
    subcommand: str,
    out_dir=None,
    seed_override: int | None = None,
    threads: int = 1,
) -> tuple[dict, int]:
    """Execute a pipeline and write report.json plus CSV side files.

    Returns the report dict and the process exit code. threads has no
    effect; it is kept because the benchmark worker (perfbench/worker.py)
    passes it.
    """
    if subcommand not in STAGES:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    cfg = load_config(config_path)
    if seed_override is not None:  # checked like a configured seed
        sim = dict(cfg["sim"], seed=seed_override)
        cfg = resolve_config(dict(cfg, seed=seed_override, sim=sim))
    model = sde_model.from_config(cfg["model"])
    domain = geometry.from_config(cfg["domain"])

    out = Path(out_dir if out_dir is not None else cfg["output"]["dir"])
    out.mkdir(parents=True, exist_ok=True)

    report: dict = {
        "subcommand": subcommand,
        "config": {k: v for k, v in cfg.items() if k != "output"},
        "versions": {
            "artifact": _package_version(),
            "numpy": np.__version__,
            "scipy": _scipy_version(),
        },
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    }
    decisions = {}
    side_files = {}
    for stage in STAGES[subcommand]:
        sections, decisions[stage.__name__], files = stage(model, domain, cfg)
        report.update(sections)
        side_files.update(files)

    if subcommand == "full":
        verdict, code = _full_verdict(report["conditions"], decisions["simulate"])
    else:
        code = decisions[subcommand]
        verdict = VERDICTS[subcommand][code]
    report["verdict"] = verdict
    report["exit_code"] = code

    for name, rows in side_files.items():
        with open(out / name, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
    report["files"] = sorted(["report.json", *side_files])
    report["omitted"] = sorted({"cond_profile.csv", "exit.csv"} - set(side_files))

    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report, code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="viability",
        description="Numerical invariance checks for Ito diffusions on smooth domains",
    )
    parser.add_argument("subcommand", choices=STAGES)
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--out", default=None, help="output directory (default from config)")
    parser.add_argument("--seed", type=int, default=None, help="override every configured seed")
    args = parser.parse_args(argv)

    try:
        _, code = run(
            args.config,
            args.subcommand,
            out_dir=args.out,
            seed_override=args.seed,
        )
        return code
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3
    except ViabilityError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
