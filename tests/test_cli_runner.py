"""End-to-end tests for the command-line runner and its report files."""

import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy

from viability import cli_runner
from viability.errors import ConfigError
from viability.theorem_checker import CheckerConfig


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def rotational_config(**overrides):
    cfg = {
        "model": {"family": "rotational", "spin": 1.0, "inward_rate": 1.0},
        "domain": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
        "seed": 12345,
        "check": {"samples_per_eps": 40},
        "probe": {"n_points": 25},
        "sim": {"x0": [0.5, 0.0], "T": 0.5, "dt": 0.01, "n_paths": 150},
    }
    cfg.update(overrides)
    return cfg


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def strip_timestamp(text: str) -> str:
    return "\n".join(
        line for line in text.splitlines() if '"timestamp"' not in line
    )


def test_full_pipeline_rotational(tmp_path):
    config = write_config(tmp_path, rotational_config())
    report, code = cli_runner.run(config, "full", out_dir=tmp_path)
    assert code == 0
    assert report["verdict"] == "invariance_predicted_and_observed"
    assert report["conditions"]["invariance_predicted"] is True
    assert report["exit"]["n_exits"] == 0
    assert sorted(report["files"]) == [
        "cond_profile.csv",
        "exit.csv",
        "plot_cond2_loglog.csv",
        "plot_shell_profile.csv",
        "report.json",
    ]
    assert report["omitted"] == []
    for name in report["files"]:
        assert (tmp_path / name).exists()
    on_disk = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert on_disk["verdict"] == report["verdict"]


def test_check_subcommand_refutes_normal_noise(tmp_path):
    config = write_config(
        tmp_path,
        {
            "model": {"family": "brownian", "dimension": 1},
            "domain": {"kind": "ball", "center": [0.0], "radius": 1.0},
            "check": {"samples_per_eps": 10},
        },
    )
    report, code = cli_runner.run(config, "check", out_dir=tmp_path)
    assert code == 1
    assert report["verdict"] == "not_predicted"
    assert report["conditions"]["cond2_verdict"] == "fails"
    assert "exit.csv" in report["omitted"]
    assert not (tmp_path / "exit.csv").exists()


def test_probe_subcommand_flags_outward_drift(tmp_path):
    config = write_config(
        tmp_path,
        {
            "model": {"family": "linear", "A": [[1.0, 0.0], [0.0, 1.0]]},
            "domain": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
            "probe": {"n_points": 25},
        },
    )
    report, code = cli_runner.run(config, "probe", out_dir=tmp_path)
    assert code == 1
    assert report["verdict"] == "shell_sign_violated"
    rows = read_rows(tmp_path / "plot_shell_profile.csv")
    assert rows[0] == ["distance", "generator_value"]
    assert len(rows) == 1 + 25


def test_simulate_subcommand_frozen_paths(tmp_path):
    config = write_config(
        tmp_path,
        {
            "model": {"family": "linear", "A": [[0.0, 0.0], [0.0, 0.0]]},
            "domain": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
            "sim": {"T": 0.1, "dt": 0.01, "n_paths": 20},
        },
    )
    report, code = cli_runner.run(config, "simulate", out_dir=tmp_path)
    assert code == 0
    assert report["verdict"] == "no_exit_observed"
    assert report["exit"]["p_hat"] == 0.0
    assert "cond_profile.csv" in report["omitted"]
    rows = read_rows(tmp_path / "exit.csv")
    assert rows[0] == ["dt", "n_paths", "p_hat", "ci_low", "ci_high"]
    assert len(rows) == 2


def test_simulate_dt_list_emits_all_estimates(tmp_path):
    config = write_config(
        tmp_path,
        {
            "model": {"family": "rotational"},
            "domain": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
            "sim": {
                "x0": [0.5, 0.0],
                "T": 0.2,
                "n_paths": 50,
                "dt_list": [0.02, 0.01],
            },
        },
    )
    report, code = cli_runner.run(config, "simulate", out_dir=tmp_path)
    assert code == 0
    assert len(report["exit_estimates"]) == 2
    assert report["exit"] == report["exit_estimates"][-1]
    rows = read_rows(tmp_path / "exit.csv")
    assert len(rows) == 3
    assert float(rows[1][0]) == 0.02 and float(rows[2][0]) == 0.01


def test_report_echoes_resolved_config(tmp_path):
    config = write_config(tmp_path, rotational_config())
    report, _ = cli_runner.run(config, "check", out_dir=tmp_path)
    echoed = report["config"]
    # defaults are filled in, the worker count is not part of run semantics
    assert echoed["check"]["delta_abs"] == 0.05
    assert echoed["check"]["samples_per_eps"] == 40
    assert echoed["sim"]["p_max"] == 1e-3
    assert echoed["quad"]["nodes_per_axis"] == 24
    assert "threads" not in json.dumps(echoed)
    assert "output" not in echoed
    # the echo itself resolves to the same configuration
    rerun = cli_runner.resolve_config(
        {k: v for k, v in echoed.items() if k != "quad"} | {"quad": echoed["quad"]}
    )
    assert {k: rerun[k] for k in echoed} == echoed


def test_check_keys_are_the_checker_fields_but_seed():
    # the check stage passes every check key to CheckerConfig, and the root seed
    # feeds the one field that is not a key
    fields = {f.name for f in dataclasses.fields(CheckerConfig)}
    assert set(cli_runner.CHECK_DEFAULTS) == fields - {"seed"}


def test_seed_override_applies_everywhere(tmp_path):
    config = write_config(tmp_path, rotational_config())
    report, _ = cli_runner.run(config, "simulate", out_dir=tmp_path, seed_override=777)
    assert report["config"]["seed"] == 777
    assert report["config"]["sim"]["seed"] == 777
    assert report["exit"]["seed"] == 777


def test_sim_seed_defaults_to_root_seed(tmp_path):
    config = write_config(tmp_path, rotational_config(seed=4242))
    report, _ = cli_runner.run(config, "simulate", out_dir=tmp_path)
    assert report["config"]["sim"]["seed"] == 4242
    assert report["exit"]["seed"] == report["config"]["seed"] == 4242
    explicit = rotational_config(seed=4242)
    explicit["sim"]["seed"] = 99
    config = write_config(tmp_path, explicit, name="explicit.json")
    report, _ = cli_runner.run(config, "simulate", out_dir=tmp_path)
    assert report["exit"]["seed"] == 99


def test_reports_identical_across_runs_and_threads(tmp_path):
    config = write_config(tmp_path, rotational_config())
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    cli_runner.run(config, "full", out_dir=dirs[0], threads=1)
    cli_runner.run(config, "full", out_dir=dirs[1], threads=1)
    cli_runner.run(config, "full", out_dir=dirs[2], threads=3)
    texts = [
        strip_timestamp((d / "report.json").read_text(encoding="utf-8")) for d in dirs
    ]
    assert texts[0] == texts[1]
    assert texts[0] == texts[2]
    for name in ("cond_profile.csv", "exit.csv", "plot_shell_profile.csv"):
        assert (dirs[0] / name).read_bytes() == (dirs[2] / name).read_bytes()


def test_loglog_plot_leaves_zero_sups_empty(tmp_path):
    # the contraction family has exactly zero tangency sups at every eps
    config = write_config(
        tmp_path,
        {
            "model": {"family": "ou_inward", "dimension": 2, "rate": 1.0},
            "domain": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
            "check": {"samples_per_eps": 10},
        },
    )
    report, code = cli_runner.run(config, "check", out_dir=tmp_path)
    assert code == 0
    rows = read_rows(tmp_path / "plot_cond2_loglog.csv")
    assert rows[0] == ["log10_eps", "log10_cond2_sup"]
    assert all(row[1] == "" for row in rows[1:])


def test_cond_profile_rows_match_eps_grid(tmp_path):
    config = write_config(tmp_path, rotational_config())
    report, _ = cli_runner.run(config, "check", out_dir=tmp_path)
    rows = read_rows(tmp_path / "cond_profile.csv")
    assert rows[0] == ["eps", "cond2_sup", "cond2_ratio", "cond3_sup"]
    grid = report["config"]["check"]["eps_grid"]
    assert len(rows) == 1 + len(grid)
    assert [float(r[0]) for r in rows[1:]] == [float(e) for e in grid]


def test_main_refuses_threads(tmp_path):
    # run() keeps threads for the benchmark worker; the command line has no
    # such option, so argparse exits 2
    config = write_config(tmp_path, rotational_config())
    with pytest.raises(SystemExit) as exc:
        cli_runner.main(["check", "--config", config, "--threads", "2"])
    assert exc.value.code == 2


def test_main_exit_codes_for_bad_configs(tmp_path):
    # zero dt
    bad_dt = write_config(
        tmp_path,
        rotational_config(sim={"dt": 0.0, "T": 1.0}),
        name="bad_dt.json",
    )
    assert cli_runner.main(["simulate", "--config", bad_dt, "--out", str(tmp_path)]) == 3
    # unknown section key
    unknown = write_config(
        tmp_path,
        rotational_config(check={"samples": 5}),
        name="unknown.json",
    )
    assert cli_runner.main(["check", "--config", unknown, "--out", str(tmp_path)]) == 3
    # a seed override is checked like a configured seed
    good = write_config(tmp_path, rotational_config(), name="good.json")
    assert cli_runner.main(["check", "--config", good, "--seed", "-1"]) == 3
    # dimension mismatch
    mismatch = write_config(
        tmp_path,
        {
            "model": {"family": "brownian", "dimension": 3},
            "domain": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
        },
        name="mismatch.json",
    )
    assert cli_runner.main(["check", "--config", mismatch, "--out", str(tmp_path)]) == 3
    # a linear model's c must have one entry per coordinate, not broadcast
    short_c = write_config(
        tmp_path,
        {
            "model": {"family": "linear", "A": [[-1.0, 0.0], [0.0, -1.0]], "c": [0.5]},
            "domain": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
        },
        name="short_c.json",
    )
    assert cli_runner.main(["check", "--config", short_c, "--out", str(tmp_path)]) == 3
    # unreadable and unparsable files
    assert (
        cli_runner.main(
            ["check", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path)]
        )
        == 3
    )
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    assert cli_runner.main(["check", "--config", str(broken), "--out", str(tmp_path)]) == 3


def test_main_exit_code_for_runtime_error(tmp_path):
    # a start point outside the domain is a numerical runtime failure, not a
    # configuration one
    config = write_config(
        tmp_path,
        rotational_config(sim={"x0": [5.0, 0.0], "T": 0.1, "dt": 0.01, "n_paths": 5}),
    )
    assert cli_runner.main(["simulate", "--config", config, "--out", str(tmp_path)]) == 4


def test_invalid_configs_raise_config_error(tmp_path):
    with pytest.raises(ConfigError):
        cli_runner.resolve_config({"model": {"family": "rotational"}})
    with pytest.raises(ConfigError):
        cli_runner.resolve_config(
            {
                "model": {"family": "rotational"},
                "domain": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
                "check": {"eps_grid": [0.05, 0.1, 0.2]},
            }
        )
    with pytest.raises(ConfigError):
        cli_runner.resolve_config(
            {
                "model": {"family": "nope"},
                "domain": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
            }
        )
    with pytest.raises(ConfigError):
        cli_runner.run("unused.json", "teleport")


@pytest.mark.parametrize(
    "section,values",
    [
        ("check", {"eps_grid": [0.2, 0.1]}),
        ("check", {"eps_grid": [0.2, 0.1, -0.05]}),
        ("sim", {"T": 0.5, "dt": 1.0}),
        ("sim", {"T": -1.0, "dt": 0.01}),
        ("sim", {"T": 0.5, "dt": 0.1, "dt_list": []}),
        ("sim", {"T": 0.5, "dt": 0.1, "dt_list": [0.1, 0.1]}),
        ("sim", {"T": 0.5, "dt": 0.1, "dt_list": [0.1, -0.1]}),
        # a dt_list step longer than the horizon
        ("sim", {"T": 0.5, "dt": 0.1, "dt_list": [1.0, 0.1]}),
        # the CLI never samples an initial cloud, so the key is unknown
        ("probe", {"initial_cloud": {"kind": "point", "x": [0.0, 0.0]}}),
        # counts are JSON integers and real parameters JSON numbers, not bools
        ("check", {"samples_per_eps": "40"}),
        ("probe", {"eps": "0.1"}),
        ("seed", "abc"),
        ("sim", {"x0": [0.5, 0.0], "T": 0.5, "dt": 0.01, "n_paths": 10.5}),
        ("probe", {"n_points": True}),
        ("sim", {"x0": [0.5, 0.0], "T": True, "dt": 0.01}),
        ("seed", -1),
        # list-valued keys hold JSON numbers; x0 has one per dimension
        ("sim", {"x0": [0.5, 0.0, 0.0], "T": 0.5, "dt": 0.01}),
        ("sim", {"x0": "ab", "T": 0.5, "dt": 0.01}),
        ("check", {"time_grid": "ab"}),
        ("check", {"time_grid": []}),
        ("check", {"eps_grid": ["0.2", "0.1", "0.05"]}),
        # model and domain parameters are JSON numbers too
        ("model", {"family": "rotational", "spin": "1.0", "inward_rate": 1.0}),
        ("domain", {"kind": "ball", "center": [0.0, 0.0], "radius": "1"}),
        ("domain", {"kind": "ball", "center": [0.0, True], "radius": 1.0}),
        # a key the family or kind does not take, such as a typo
        ("model", {"family": "brownian", "dimension": 2, "scael": 2.0}),
        ("domain", {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0, "radus": 3}),
        # the keys are the builder's arguments: a missing one, or one it does
        # not take, fails in the builder call, and a null dimension fails there
        ("model", {"family": "brownian", "scale": 1.0}),
        ("model", {"family": "ou_inward", "dimension": None}),
        ("model", {"family": "rotational", "dimension": 2}),
        ("domain", {"kind": "ellipsoid", "center": [0.0, 0.0], "semiaxes": [1.0, 1.0],
                    "radius": 1.0}),
        ("domain", {"kind": "ball", "center": [0.0, 0.0]}),
        # a vector parameter is a list: a scalar or a null one is rejected,
        # and an ellipsoid has one semiaxis per center coordinate
        ("domain", {"kind": "ball", "center": 1.0, "radius": 1.0}),
        ("domain", {"kind": "ball", "center": None, "radius": 1.0}),
        ("domain", {"kind": "ellipsoid", "center": [0.0, 0.0], "semiaxes": 1.5}),
        ("domain", {"kind": "ellipsoid", "center": [0.0, 0.0], "semiaxes": [1.0, 1.0, 1.0]}),
        # the output section is a mapping whose one key, dir, is a string
        ("output", "out"),
        ("output", {"dir": 5}),
        ("output", {"dri": "x"}),
        # a decision parameter outside its range exits 3 instead of deciding
        ("check", {"delta_margin": -1.0}),
        ("check", {"delta_abs": -0.1}),
        ("check", {"p_min": 0.0}),
        ("check", {"lipschitz_L": -1.0}),
        ("check", {"lipschitz_L": 0.0}),
        ("probe", {"tol_shell_factor": -1.0}),
        ("probe", {"eps": 0.0}),
        ("sim", {"x0": [0.5, 0.0], "T": 0.5, "dt": 0.01, "p_max": -1.0}),
        ("sim", {"x0": [0.5, 0.0], "T": 0.5, "dt": 0.01, "p_max": 1.5}),
        # Python's json reads NaN and Infinity, which are not JSON numbers
        ("domain", {"kind": "ball", "center": [0.0, 0.0], "radius": float("nan")}),
        ("domain", {"kind": "ball", "center": [float("nan"), 0.0], "radius": 1.0}),
        ("domain", {"kind": "ellipsoid", "center": [0.0, 0.0], "semiaxes": [float("inf"), 1.0]}),
        ("model", {"family": "rotational", "spin": float("nan"), "inward_rate": 1.0}),
        ("sim", {"x0": [float("nan"), 0.0], "T": 0.5, "dt": 0.01}),
        ("sim", {"x0": [0.5, 0.0], "T": float("inf"), "dt": 0.01}),
        ("check", {"eps_grid": [0.2, 0.1, float("nan")]}),
        ("probe", {"time": float("-inf")}),
        # and integers of any size, which overflow a float
        ("sim", {"x0": [0.5, 0.0], "T": 10**400, "dt": 0.01}),
        ("domain", {"kind": "ball", "center": [0.0, 0.0], "radius": 10**400}),
    ],
)
def test_bad_section_values_are_config_errors(tmp_path, section, values):
    cfg = rotational_config(**{section: values})
    with pytest.raises(ConfigError):
        cli_runner.resolve_config(cfg)
    config = write_config(tmp_path, cfg)
    assert cli_runner.main(["full", "--config", config, "--out", str(tmp_path)]) == 3


def test_ellipsoid_domain_full_run(tmp_path):
    config = write_config(
        tmp_path,
        {
            "model": {"family": "ou_inward", "dimension": 2, "rate": 1.0},
            "domain": {
                "kind": "ellipsoid",
                "center": [0.0, 0.0],
                "semiaxes": [1.0, 0.7],
            },
            "check": {"samples_per_eps": 20},
            "probe": {"n_points": 10},
            "sim": {"T": 0.2, "dt": 0.01, "n_paths": 40},
        },
    )
    report, code = cli_runner.run(config, "full", out_dir=tmp_path)
    assert code == 0
    assert report["verdict"] == "invariance_predicted_and_observed"


def test_quad_qmc_points_reaches_the_probe(tmp_path):
    # above 3 dimensions eta is a quasi-random estimate over quad.qmc_points
    # nodes, so a smaller node count must change the probed generator values
    cfg = {
        "model": {"family": "brownian", "dimension": 4, "scale": 1.0},
        "domain": {"kind": "ball", "center": [0.0] * 4, "radius": 1.0},
        "seed": 5,
        "probe": {"n_points": 3},
    }
    values = []
    for name, quad in (("default", {}), ("small", {"qmc_points": 256})):
        config = write_config(tmp_path, cfg | {"quad": quad}, name=f"{name}.json")
        report, _ = cli_runner.run(config, "probe", out_dir=tmp_path / name)
        values.append(report["shell_probe"]["values"])
    assert report["config"]["quad"]["qmc_points"] == 256
    assert values[0] != values[1]
    with pytest.raises(ConfigError):
        cli_runner.resolve_config(cfg | {"quad": {"qmc_points": 0}})



BALL_2D = {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0}
BROWNIAN_1D = {
    "model": {"family": "brownian", "dimension": 1},
    "domain": {"kind": "ball", "center": [0.0], "radius": 1.0},
    "check": {"samples_per_eps": 10},
}
# outward drift, no noise: condition 2 holds, condition 3 fails
EXPANSION = {"model": {"family": "linear", "A": [[1.0, 0.0], [0.0, 1.0]]}, "domain": BALL_2D}
# no drift, no noise: condition 3 sits at zero, within no margin
FROZEN = {"model": {"family": "linear", "A": [[0.0, 0.0], [0.0, 0.0]]}, "domain": BALL_2D}
ROTATIONAL = {
    "model": {"family": "rotational", "spin": 1.0, "inward_rate": 1.0},
    "domain": BALL_2D,
}


@pytest.mark.parametrize(
    "cfg,subcommand,code,verdict",
    [
        # condition 2 fails and condition 3 is undecided: check refutes,
        # while full is inconclusive whatever the simulator sees
        pytest.param(BROWNIAN_1D, "check", 1, "not_predicted", id="brownian-check"),
        pytest.param(BROWNIAN_1D, "full", 2, "inconclusive", id="brownian-full"),
        pytest.param(EXPANSION | {"sim": {"T": 0.1}}, "full", 1, "not_predicted_observed",
                     id="expansion-from-center-full"),
        pytest.param(EXPANSION | {"sim": {"x0": [0.5, 0.0], "T": 1.0}}, "full", 1,
                     "not_predicted_not_observed", id="expansion-off-center-full"),
        pytest.param(FROZEN, "check", 2, "inconclusive", id="frozen-check"),
        pytest.param(FROZEN, "full", 2, "inconclusive", id="frozen-full"),
        # Euler steps of 0.05 from 0.95 overshoot the boundary on some paths
        pytest.param(
            ROTATIONAL | {"sim": {"x0": [0.95, 0.0], "T": 0.5, "dt": 0.05, "n_paths": 50}},
            "full", 1, "predicted_not_observed", id="rotational-coarse-full",
        ),
        # both conditions hold, but the Lipschitz spot check refutes regularity
        pytest.param(ROTATIONAL | {"check": {"lipschitz_L": 1e-6}}, "check", 1,
                     "not_predicted", id="rotational-tiny-lipschitz-check"),
        pytest.param(ROTATIONAL | {"check": {"lipschitz_L": 1e-6}}, "full", 1,
                     "not_predicted_observed", id="rotational-tiny-lipschitz-full"),
    ],
)
def test_verdicts_by_subcommand(tmp_path, cfg, subcommand, code, verdict):
    config = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    report, got = cli_runner.run(config, subcommand, out_dir=out)
    assert (got, report["exit_code"], report["verdict"]) == (code, code, verdict)
    assert report["files"] == sorted(path.name for path in out.iterdir())


# Two leaky models (ROADMAP item 1) whose noise has a nonvanishing normal part
# on the boundary, so condition 2 must not hold. The first is the linear
# family with a constant normal noise 0.04, whose sup/eps grows 0.2 -> 1.6
# over the eps grid; no path exits, so full refutes the prediction. The
# second is the rotational family on a disk off its centre, whose normal
# noise on the boundary is 0.002 sin(theta); its sweep decides nothing.
LEAKY_LINEAR = {
    "model": {"family": "linear", "A": [[-0.01, 0.0], [0.0, -0.01]], "d": [[0.04, 0.0], [0.0, 0.04]]},
    "domain": BALL_2D,
    "check": {"samples_per_eps": 40, "regularity_pairs": 40},
    "probe": {"n_points": 40},
    "sim": {"x0": [0.0, 0.0], "T": 1.0, "dt": 0.01, "n_paths": 2000, "p_max": 0.01},
}
LEAKY_ROTATIONAL = {
    "model": {"family": "rotational", "spin": 0.1, "inward_rate": 1.0},
    "domain": {"kind": "ball", "center": [0.02, 0.0], "radius": 1.0},
    "probe": {"n_points": 40},
}


@pytest.mark.parametrize(
    "cfg,code,verdict,cond2",
    [
        pytest.param(LEAKY_LINEAR, 1, "not_predicted_observed", "fails", id="leaky-linear"),
        pytest.param(LEAKY_ROTATIONAL, 2, "inconclusive", "inconclusive", id="leaky-rotational"),
    ],
)
def test_leaky_models_are_not_called_invariant(tmp_path, cfg, code, verdict, cond2):
    config = write_config(tmp_path, cfg)
    assert cli_runner.main(["full", "--config", config, "--out", str(tmp_path)]) == code
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert report["verdict"] == verdict
    assert report["conditions"]["cond2_verdict"] == cond2
    assert report["conditions"]["invariance_predicted"] is False
    assert report["exit"]["n_exits"] == 0


def test_importing_the_cli_leaves_scipy_unimported(tmp_path):
    """The report reads scipy's version from the installed metadata, so
    importing the CLI does not import scipy, and the version is scipy's own."""
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", "import sys, viability.cli_runner; print('scipy' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, check=False,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
    report, _ = cli_runner.run(write_config(tmp_path, rotational_config()), "check", out_dir=tmp_path)
    assert report["versions"]["scipy"] == scipy.__version__
