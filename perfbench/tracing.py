"""Spans recorded around the package's functions from outside the package.

A wrapper is swapped into the module attribute that the caller looks up at
call time (for example `geometry.project_to_boundary`, which generator_probe,
mollifier and theorem_checker all reach through the module, or
`mc_simulator.signed_level`, the name mc_simulator imported). Nothing under
src/ is edited. Spans stay in memory as (id, name, start, end, parent, thread)
and are written once, when the worker ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
from bisect import bisect_right
from collections import defaultdict
from time import perf_counter

# metric -> (the subcommand that runs only that stage, the stage's entry
# point). In an untraced call the entry points are the only wrapped
# functions, and each is entered at most a few times per call.
STAGES = {
    "check_s": ("check", "theorem_checker.theorem1_report"),
    "probe_s": ("probe", "generator_probe.shell_sign_check"),
    "simulate_s": ("simulate", "mc_simulator.exit_probability"),
}

# (module, attribute, span name). The attribute is the name the caller
# resolves, the span name is the layer it belongs to.
TRACED = (
    ("cli_runner", "run", "cli_runner.run"),
    ("theorem_checker", "theorem1_report", "theorem_checker.theorem1_report"),
    ("theorem_checker", "condition2_profile", "theorem_checker.condition2_profile"),
    ("theorem_checker", "condition3_profile", "theorem_checker.condition3_profile"),
    ("theorem_checker", "condition3_value", "theorem_checker.condition3_value"),
    ("sde_model", "check_regularity", "sde_model.check_regularity"),
    ("sde_model", "diffusion_jacobian", "sde_model.diffusion_jacobian"),
    ("sde_model", "sigma", "sde_model.sigma"),
    ("geometry", "sample_offset_boundary", "geometry.sample_offset_boundary"),
    ("geometry", "offset_membership", "geometry.offset_membership"),
    ("geometry", "signed_boundary_distance", "geometry.signed_boundary_distance"),
    ("geometry", "signed_boundary_distance_batch", "geometry.signed_boundary_distance_batch"),
    ("geometry", "project_to_boundary", "geometry.project_to_boundary"),
    ("mollifier", "eta_with_derivatives", "mollifier.eta_with_derivatives"),
    ("generator_probe", "shell_sign_check", "generator_probe.shell_sign_check"),
    ("generator_probe", "apply_generator", "generator_probe.apply_generator"),
    ("generator_probe", "default_shell_tolerance", "generator_probe.default_shell_tolerance"),
    ("mc_simulator", "exit_probability", "mc_simulator.exit_probability"),
    # A block of paths, wrapped so that the EM work done on pool threads has
    # a span there; its self time is reported as part of exit_probability.
    ("mc_simulator", "_simulate_block", "mc_simulator._simulate_block"),
    ("mc_simulator", "signed_level", "mc_simulator.signed_level"),
    ("mc_simulator", "path_generator", "seeds.path_generator"),
)


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._swapped: list[tuple] = []

    def wrap(self, name, fn):
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent, threading.get_ident()))

        return traced

    def install(self, targets):
        """Swap a wrapper into each (module, attribute, span name) target."""
        for module, attr, name in targets:
            mod = importlib.import_module(f"viability.{module}")
            original = getattr(mod, attr)
            self._swapped.append((mod, attr, original))
            setattr(mod, attr, self.wrap(name, original))

    def uninstall(self):
        """Put back every function that install swapped out."""
        while self._swapped:
            mod, attr, original = self._swapped.pop()
            setattr(mod, attr, original)

    def totals(self) -> dict:
        """Summed span durations by span name."""
        out = defaultdict(float)
        for _, name, start, end, _, _ in self.spans:
            out[name] += end - start
        return dict(out)

    def dump(self, path, main_thread: int):
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[s[0], index[s[1]], s[2], s[3], s[4], s[5]] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"main_thread": main_thread, "names": names, "spans": rows}, fh)


def stage_targets():
    return [(*q.split("."), q) for _, q in STAGES.values()]


def load_spans(path) -> tuple[list[dict], int]:
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    names = raw["names"]
    spans = [
        {"id": r[0], "name": names[r[1]], "start": r[2], "end": r[3], "parent": r[4], "thread": r[5]}
        for r in raw["spans"]
    ]
    return spans, raw["main_thread"]


def link_threads(spans: list[dict], main_thread: int) -> None:
    """Give each root span of a pool thread the main-thread span it ran under.

    Pool work starts with an empty stack, so its outermost span has no parent.
    Its parent is the innermost main-thread span whose interval contains it;
    main-thread spans nest, so that is the latest-starting one that does.
    """
    main = sorted((s for s in spans if s["thread"] == main_thread), key=lambda s: s["start"])
    starts = [s["start"] for s in main]
    for s in spans:
        if s["parent"] is not None or s["thread"] == main_thread:
            continue
        for j in range(bisect_right(starts, s["start"]) - 1, -1, -1):
            if main[j]["end"] >= s["end"]:
                s["parent"] = main[j]["id"]
                break


def self_times(spans: list[dict]) -> dict:
    """Span id -> duration minus the union of its child spans' intervals.

    Children on another thread count too: a stage that hands its paths to a
    pool is busy only for the part of its interval no block covers, and each
    block's own self time is charged on its own thread.
    """
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s["id"], ())):
            lo, hi = max(lo, s["start"]), min(hi, s["end"])
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def has_ancestor(span: dict, name: str, by_id: dict) -> bool:
    parent = span["parent"]
    while parent is not None:
        p = by_id[parent]
        if p["name"] == name:
            return True
        parent = p["parent"]
    return False
