"""Command-line entry point and machine-readable run reports.

One JSON configuration file declares the model, the domain, and the parameter
groups for the checker, the shell probe, and the simulator. The report echoes
the fully resolved configuration, so a report alone suffices to reproduce the
run. The check and the probe run in the calling thread, the simulator on
every CPU of the process's affinity mask with the same outputs for any count;
`--threads` is still accepted and has no effect, so it is absent from the
echo and reports do not depend on it (the timestamp field aside).

Exit codes: 0 when the requested checks pass (for `full`, invariance is both
predicted and observed), 1 on a definite failure, 2 when inconclusive, 3 on a
configuration error, 4 on a runtime numerical error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import asdict, fields
from importlib import metadata
from pathlib import Path

import numpy as np
import scipy

from . import generator_probe, geometry, mc_simulator, mollifier, sde_model, theorem_checker
from .errors import ConfigError, ViabilityError
from .theorem_checker import CheckerConfig

SUBCOMMANDS = ("check", "probe", "simulate", "full")

VERDICT_BOTH = "invariance_predicted_and_observed"
VERDICT_PRED_ONLY = "predicted_not_observed"
VERDICT_OBS_ONLY = "not_predicted_observed"
VERDICT_NEITHER = "not_predicted_not_observed"
VERDICT_INCONCLUSIVE = "inconclusive"

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
REALS = {
    "check": ("delta_abs", "delta_margin", "p_min", "lipschitz_L"),
    "probe": ("eps", "tol_shell_factor", "time"),
    "sim": ("T", "dt", "p_max"),
}
# lists of reals, checked when set; model and domain parameters are reals or
# nested lists of reals, apart from these counts
REAL_LISTS = (("check", "eps_grid"), ("check", "time_grid"), ("sim", "x0"), ("sim", "dt_list"))
INTEGER_PARAMS = ("dimension", "p")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_reals(value) -> bool:
    """A JSON number or a (nested) list of them."""
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
                f"{section}.{key} must be a number or a list of numbers, got {value!r}"
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
    for section, keys in REALS.items():
        for key in keys:
            value = cfg[section][key]
            if not _is_number(value):
                raise ConfigError(f"{section}.{key} must be a number, got {value!r}")
    if not isinstance(cfg["output"]["dir"], str):
        raise ConfigError(f"output.dir must be a string, got {cfg['output']['dir']!r}")
    for section, key in REAL_LISTS:
        value = cfg[section][key]
        if value is not None and not (
            isinstance(value, list) and value and all(map(_is_number, value))
        ):
            raise ConfigError(f"{section}.{key} must be a nonempty list of numbers, got {value!r}")
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

    if cfg["probe"]["eps"] <= 0:
        raise ConfigError("probe.eps must be positive")

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


def _package_version() -> str:
    try:
        return metadata.version("artifact")
    except metadata.PackageNotFoundError:
        return "unknown"


def _probe_dict(result) -> dict:
    return {
        "eps": result.eps,
        "n_points": int(result.points.shape[0]),
        "points": result.points.tolist(),
        "distances": result.distances.tolist(),
        "region_tags": list(result.region_tags),
        "values": result.values.tolist(),
        "min_value": result.min_value,
        "tolerance_used": result.tolerance_used,
        "passed": result.passed,
        "seed": result.seed,
    }


def _run_check(model, domain, cfg):
    """Every check key is a CheckerConfig field, cast to its default's type."""
    cast = {f.name: type(f.default) for f in fields(CheckerConfig)}
    checker_cfg = CheckerConfig(
        seed=int(cfg["seed"]), **{k: cast[k](v) for k, v in cfg["check"].items()}
    )
    return theorem_checker.theorem1_report(model, domain, checker_cfg)


def _run_probe(model, domain, cfg):
    probe = cfg["probe"]
    return generator_probe.shell_sign_check(
        model,
        domain,
        float(probe["eps"]),
        float(probe["time"]),
        int(probe["n_points"]),
        int(cfg["seed"]),
        tol_shell_factor=float(probe["tol_shell_factor"]),
        nodes_per_axis=int(cfg["quad"]["nodes_per_axis"]),
        qmc_points=int(cfg["quad"]["qmc_points"]),
    )


def _run_simulate(model, domain, cfg):
    sim = cfg["sim"]
    return mc_simulator.dt_convergence_study(
        model,
        domain,
        sim["x0"],
        float(sim["T"]),
        [float(d) for d in sim["dt_list"] or [sim["dt"]]],
        int(sim["n_paths"]),
        int(sim["seed"]),
    )


def _verdict(conditions, estimates, p_max: float) -> str:
    if conditions is None or estimates is None:
        return VERDICT_INCONCLUSIVE
    if (
        conditions.cond2_verdict == theorem_checker.VERDICT_INCONCLUSIVE
        or conditions.cond3_verdict == theorem_checker.VERDICT_INCONCLUSIVE
    ):
        return VERDICT_INCONCLUSIVE
    predicted = bool(conditions.invariance_predicted)
    observed = estimates[-1].p_hat <= p_max
    if predicted and observed:
        return VERDICT_BOTH
    if predicted:
        return VERDICT_PRED_ONLY
    if observed:
        return VERDICT_OBS_ONLY
    return VERDICT_NEITHER


def _csv_rows(path: Path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def emit_plot_data(report: dict, out_dir) -> list[str]:
    """Write plot-ready CSV files for the profiles present in a report.

    Zero sups have no logarithm; those cells are left empty. Returns the
    written file names.
    """
    out = Path(out_dir)
    written = []
    cond = report.get("conditions")
    if cond and cond.get("cond2_sup"):
        rows = []
        for eps, sup in zip(cond["eps_grid"], cond["cond2_sup"]):
            log_sup = "" if sup <= 0.0 else repr(float(np.log10(sup)))
            rows.append([repr(float(np.log10(eps))), log_sup])
        _csv_rows(out / "plot_cond2_loglog.csv", ["log10_eps", "log10_cond2_sup"], rows)
        written.append("plot_cond2_loglog.csv")
    probe = report.get("shell_probe")
    if probe:
        rows = [
            [repr(float(d)), repr(float(v))]
            for d, v in zip(probe["distances"], probe["values"])
        ]
        _csv_rows(out / "plot_shell_profile.csv", ["distance", "generator_value"], rows)
        written.append("plot_shell_profile.csv")
    return written


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
    if subcommand not in SUBCOMMANDS:
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
            "scipy": scipy.__version__,
        },
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    }

    conditions = None
    probe_result = None
    estimates = None

    if subcommand in ("check", "full"):
        conditions = _run_check(model, domain, cfg)
        report["conditions"] = asdict(conditions)
    if subcommand in ("probe", "full"):
        probe_result = _run_probe(model, domain, cfg)
        report["shell_probe"] = _probe_dict(probe_result)
    if subcommand in ("simulate", "full"):
        estimates = _run_simulate(model, domain, cfg)
        report["exit"] = asdict(estimates[-1])
        if len(estimates) > 1:
            report["exit_estimates"] = [asdict(e) for e in estimates]

    p_max = float(cfg["sim"]["p_max"])
    if subcommand == "full":
        verdict = _verdict(conditions, estimates, p_max)
        code = {VERDICT_BOTH: 0, VERDICT_INCONCLUSIVE: 2}.get(verdict, 1)
    elif subcommand == "check":
        if conditions.invariance_predicted:
            verdict, code = "invariance_predicted", 0
        elif (
            theorem_checker.VERDICT_FAILS
            in (conditions.cond2_verdict, conditions.cond3_verdict)
            or (conditions.regularity is not None and not conditions.regularity.passed)
        ):
            verdict, code = "not_predicted", 1
        else:
            verdict, code = "inconclusive", 2
    elif subcommand == "probe":
        verdict = "shell_sign_ok" if probe_result.passed else "shell_sign_violated"
        code = 0 if probe_result.passed else 1
    else:
        observed = estimates[-1].p_hat <= p_max
        verdict = "no_exit_observed" if observed else "exit_observed"
        code = 0 if observed else 1
    report["verdict"] = verdict
    report["exit_code"] = code

    files = ["report.json"]
    omitted = []
    if conditions is not None and conditions.cond2_sup:
        rows = [
            [repr(float(e)), repr(float(s2)), repr(float(r2)), repr(float(s3))]
            for e, s2, r2, s3 in zip(
                conditions.eps_grid,
                conditions.cond2_sup,
                conditions.cond2_ratio,
                conditions.cond3_sup,
            )
        ]
        _csv_rows(
            out / "cond_profile.csv",
            ["eps", "cond2_sup", "cond2_ratio", "cond3_sup"],
            rows,
        )
        files.append("cond_profile.csv")
    else:
        omitted.append("cond_profile.csv")

    if estimates is not None:
        rows = [
            [repr(float(e.dt)), e.n_paths, repr(float(e.p_hat)),
             repr(float(e.ci_low)), repr(float(e.ci_high))]
            for e in estimates
        ]
        _csv_rows(out / "exit.csv", ["dt", "n_paths", "p_hat", "ci_low", "ci_high"], rows)
        files.append("exit.csv")
    else:
        omitted.append("exit.csv")

    files.extend(emit_plot_data(report, out))
    report["files"] = sorted(files)
    report["omitted"] = sorted(omitted)

    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report, code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="viability",
        description="Numerical invariance checks for Ito diffusions on smooth domains",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--out", default=None, help="output directory (default from config)")
    parser.add_argument("--seed", type=int, default=None, help="override every configured seed")
    # kept so that scripts passing --threads still run instead of exiting 2
    parser.add_argument("--threads", type=int, default=1, help="accepted and ignored")
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
