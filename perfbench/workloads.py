"""The benchmark's workloads: one `viability full` configuration each.

Every configuration sets `seed` and `sim.seed` explicitly from the seed the
benchmark is given, so a run never falls back on a seed default. The reasons
for each workload are in NOTES.md; the short form is in `WHY`.
"""

from __future__ import annotations

DEFAULT_SEED = 20260821  # the README config's seed

# A run alternates between INSTANCES problem instances made from its seed.
# The ellipse probe's cost depends on how its probe windows overlap: at 20
# points the distinct lattice nodes it projects ranged from about 10,100 to
# 12,900 between seeds. A run that averages two instances halves that variance.
INSTANCES = 2
INSTANCE_STRIDE = 1_000_000

WHY = {
    "ball2d_rotational": "README config at 16384 paths and 2 threads: the EM loop leads, no path exits",
    "ellipse2d_ou": "2-D ellipsoid with ou_inward, 10 probe points: per-node boundary projection in the probe leads",
    "ball3d_brownian": "3-D ball with brownian: dense 3-D lattice in the probe, 40% exits over a dt study",
}
NAMES = tuple(WHY)

# Stand-alone `check`, `probe` and `simulate` calls made after each untraced
# `full` call, so that short stages get enough timed samples. A stage under
# 1 s inside `full` gets about 1 s of extra calls; ellipse2d_ou's 1.35 s
# check, timed in only four `full` calls per run, gets one. The schedule is
# fixed, so every commit makes the same calls. Stage times (check / probe /
# simulate) at the commit that added the benchmark: ball2d_rotational
# 0.14 / 0.15 / 3.5 s, ellipse2d_ou 1.35 / 5.4 / 0.6 s, ball3d_brownian
# 0.2 / 1.35 / 3.3 s.
REPEATS = {
    "ball2d_rotational": {"check": 6, "probe": 6},
    "ellipse2d_ou": {"check": 1, "simulate": 1},
    "ball3d_brownian": {"check": 5},
}


def instance_seeds(seed: int) -> list[int]:
    """Config seeds of the instances a run with this seed alternates between."""
    return [int(seed) + k * INSTANCE_STRIDE for k in range(INSTANCES)]


def workload(name: str, seed: int, tiny: bool = False) -> tuple[dict, int]:
    """The raw configuration and the thread count for one workload run.

    tiny shrinks every stage so a smoke test finishes in seconds; the timed
    and traced runs never use it.
    """
    seed = int(seed)
    if name == "ball2d_rotational":
        cfg = {
            "model": {"family": "rotational", "spin": 1.0, "inward_rate": 1.0},
            "domain": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
            "check": {"eps_grid": [0.2, 0.1, 0.05, 0.025], "samples_per_eps": 200},
            "probe": {"eps": 0.1, "n_points": 200},
            "sim": {"x0": [0.5, 0.0], "T": 1.0, "dt": 0.001, "n_paths": 16384},
            "quad": {"nodes_per_axis": 24},
        }
        threads = 2
    elif name == "ellipse2d_ou":
        cfg = {
            "model": {"family": "ou_inward", "dimension": 2, "rate": 1.0},
            "domain": {"kind": "ellipsoid", "center": [0.0, 0.0], "semiaxes": [1.5, 1.0]},
            "probe": {"n_points": 10},
            "sim": {},
        }
        threads = 1
    elif name == "ball3d_brownian":
        cfg = {
            "model": {"family": "brownian", "dimension": 3, "scale": 1.0},
            "domain": {"kind": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0},
            "sim": {"T": 0.25, "dt_list": [0.004, 0.002, 0.001], "n_paths": 8192},
        }
        threads = 1
    else:
        raise KeyError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    cfg["seed"] = seed
    cfg["sim"]["seed"] = seed
    if tiny:
        cfg["check"] = {**cfg.get("check", {}), "samples_per_eps": 8, "regularity_pairs": 8}
        cfg["probe"] = {**cfg.get("probe", {}), "n_points": 2}
        cfg["sim"].update({"T": 0.05, "n_paths": 4100})
        if "dt_list" in cfg["sim"]:
            cfg["sim"]["dt_list"] = [0.01, 0.005, 0.0025]
        else:
            cfg["sim"]["dt"] = 0.01
    return cfg, threads


def scheduled_path_steps(resolved: dict) -> int:
    """Path-steps the simulate stage schedules for a resolved configuration:
    n_paths times max(1, round(T / dt)) for each dt, before any path exits."""
    sim = resolved["sim"]
    dts = sim["dt_list"] or [sim["dt"]]
    return sum(sim["n_paths"] * max(1, int(round(sim["T"] / dt))) for dt in dts)
