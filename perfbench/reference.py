"""What a run's outputs are checked against.

`canonical` keeps the parts of report.json that state results: each stage
verdict, the exit code, the condition profiles and the regularity estimate,
the probe values and distances, and every exit estimate. The reference files
under reference/ hold these for a table of seeds, taken at the commit that
added the benchmark. They record what that commit computed, not what it
should compute (see NOTES.md).
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Floats match when |a - b| <= REL * max(|a|, |b|) + ABS. ABS only admits
# rounding-level noise around zero (condition-2 sups of tangential noise are
# about 1e-16); for any |value| >= 1e-6 the test is at least as tight as REL.
REL = 1e-9
ABS = 1e-15

_COND_KEYS = ("cond2_verdict", "cond3_verdict", "invariance_predicted",
              "cond2_sup", "cond2_ratio", "cond3_sup", "errors")
_REG_KEYS = ("lipschitz_estimate", "growth_estimate", "passed")
_PROBE_KEYS = ("passed", "min_value", "tolerance_used", "n_points", "values", "distances")
_EXIT_KEYS = ("dt", "n_paths", "n_exits", "n_nonfinite", "p_hat", "ci_low", "ci_high")
STAGE_PARTS = ("conditions", "shell_probe", "exit")


def canonical(report: dict) -> dict:
    out = {
        "subcommand": report["subcommand"],
        "verdict": report["verdict"],
        "exit_code": report["exit_code"],
    }
    cond = report.get("conditions")
    if cond is not None:
        out["conditions"] = {k: cond[k] for k in _COND_KEYS}
        reg = cond.get("regularity")
        out["conditions"]["regularity"] = (
            None if reg is None else {k: reg[k] for k in _REG_KEYS}
        )
    probe = report.get("shell_probe")
    if probe is not None:
        out["shell_probe"] = {k: probe[k] for k in _PROBE_KEYS}
        tags: dict = {}
        for t in probe["region_tags"]:
            tags[t] = tags.get(t, 0) + 1
        out["shell_probe"]["region_tags"] = tags
    if "exit" in report:
        estimates = report.get("exit_estimates") or [report["exit"]]
        out["exit"] = [{k: e[k] for k in _EXIT_KEYS} for e in estimates]
    return out


def digest(outputs: dict) -> str:
    """sha256 of the canonical outputs; equal digests mean bit-identical outputs."""
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _is_number(v) -> bool:
    return isinstance(v, float) or (isinstance(v, int) and not isinstance(v, bool))


def compare(ref, got, path: str = "") -> list[str]:
    """Mismatches between two canonical outputs: strings, booleans and
    integers exactly, floats within REL and ABS."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if set(ref) != set(got):
            return [f"{path}: keys {sorted(set(ref) ^ set(got))} differ"]
        return [m for k in sorted(ref) for m in compare(ref[k], got[k], f"{path}.{k}")]
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{path}: length {len(got)} != {len(ref)}"]
        return [m for i, (a, b) in enumerate(zip(ref, got)) for m in compare(a, b, f"{path}[{i}]")]
    if (isinstance(ref, float) or isinstance(got, float)) and _is_number(ref) and _is_number(got):
        if abs(ref - got) <= REL * max(abs(ref), abs(got)) + ABS:
            return []
        return [f"{path}: {got!r} != {ref!r}"]
    if type(ref) is not type(got) or ref != got:
        return [f"{path}: {got!r} != {ref!r}"]
    return []


def invariant_failures(outputs: dict) -> list[str]:
    """Properties every successful run has, whatever the seed."""
    bad = []
    if outputs["exit_code"] in (3, 4):
        bad.append(f"exit code {outputs['exit_code']}")
    cond = outputs.get("conditions")
    if cond is not None and cond["errors"]:
        bad.append(f"checker errors {cond['errors']}")
    probe = outputs.get("shell_probe")
    if probe is not None:
        if set(probe["region_tags"]) != {"in_shell_K3eps"}:
            bad.append(f"off-shell probe points {probe['region_tags']}")
        if not all(math.isfinite(v) for v in probe["values"]):
            bad.append("non-finite probe value")
    for e in outputs.get("exit", []):
        if e["n_nonfinite"]:
            bad.append(f"{e['n_nonfinite']} non-finite paths at dt={e['dt']}")
        if not 0.0 <= e["ci_low"] <= e["p_hat"] <= e["ci_high"] <= 1.0:
            bad.append(f"exit interval out of order at dt={e['dt']}")
    return bad


def load(workload: str) -> dict:
    """Seed (as a string) -> canonical `full` outputs for one workload."""
    path = REFERENCE_DIR / f"{workload}.json"
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["outputs"]


def check(seed: int, outputs: dict, table: dict | None) -> list[str]:
    """All reasons these outputs are wrong; empty when they are right.

    A `check`, `probe` or `simulate` run is checked against the matching
    part of the `full` reference of the same seed: the stages are the same
    computations with the same seeds.
    """
    bad = invariant_failures(outputs)
    ref = (table or {}).get(str(seed))
    if ref is not None:
        if outputs["subcommand"] == "full":
            bad += compare(ref, outputs)
        else:
            bad += [m for part in STAGE_PARTS if part in outputs
                    for m in compare(ref[part], outputs[part], f".{part}")]
    return bad
