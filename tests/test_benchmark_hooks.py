"""The names the benchmark under perfbench/ reaches in the package.

perfbench/tracing.py wraps functions by (module, attribute) with getattr at
run time, and perfbench/worker.py calls cli_runner.run with out_dir= and
threads=. Removing or renaming any of them breaks the benchmark while every
other test still passes, so they are checked here.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

from viability import cli_runner

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists(tracing):
    names = [(module, attr) for module, attr, _ in tracing.TRACED]
    names += [tuple(entry.split(".")) for _, entry in tracing.STAGES.values()]
    assert names
    for module, attr in names:
        found = getattr(importlib.import_module(f"viability.{module}"), attr, None)
        assert callable(found), f"viability.{module}.{attr}"


def test_run_takes_what_the_benchmark_worker_passes():
    params = inspect.signature(cli_runner.run).parameters
    assert {"out_dir", "threads"} <= set(params)
    assert callable(cli_runner.load_config)
