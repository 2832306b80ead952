"""Tests for the one row split of every forked stage (sharding.split_rows)."""

import numpy as np
import pytest

from conftest import _assert_no_child_left, _on_cpus, forking
from viability import sharding


@forking
@pytest.mark.parametrize("least", [1, 32])
@pytest.mark.parametrize("m", [0, 1, 2, 5, 31, 64, 100])
@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
def test_split_rows_cuts_contiguous_ranges_in_row_order(monkeypatch, cpus, m, least):
    """The ranges cover range(m) once, in order, one per CPU but none under
    least rows; the caller runs the first, a forked child each later one, and
    both arrays of run come back concatenated in row order."""
    forks = _on_cpus(monkeypatch, cpus)
    in_caller = []

    def run(a, b):
        in_caller.append((a, b))  # a child's append stays in the child
        return np.arange(a, b), np.array([[a, b]])

    rows, bounds = sharding.split_rows(run, m, least)
    k = max(1, min(cpus, m // least))
    assert rows.tobytes() == np.arange(m).tobytes()
    assert bounds.tolist() == [[j * m // k, (j + 1) * m // k] for j in range(k)]
    assert in_caller == [tuple(bounds[0])]
    assert len(forks) == k - 1
    _assert_no_child_left()
