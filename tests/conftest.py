"""Shared pytest plumbing: collects acceptance verdict lines and prints them
after the run, outside of output capture."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from unshuffle.model import HEADLINE_LENGTHS, ModelParams, headline_counts, make_rng
from unshuffle.partitions import row_stats
from unshuffle.perms import BlockStructure

acceptance_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


def load_bench_module(name, monkeypatch):
    """``bench/<name>.py`` loaded as a module; the benchmark is not a package."""
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", Path(__file__).resolve().parents[1] / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def row_partition(row):
    """Oracle: the columns grouped by their value in one corpus row, each
    part a tuple of column indices, parts ordered by their first column."""
    groups = {}
    for col, value in enumerate(row.tolist()):
        groups.setdefault(value, []).append(col)
    return tuple(tuple(cols) for cols in groups.values())


def perm_counts_arg(counts):
    """A {block permutation: column count} mapping as a 1-based
    ``--perm-counts`` spec, in the mapping's order."""
    return ";".join(",".join(str(a + 1) for a in sigma) + f"={count}"
                    for sigma, count in counts.items())


def headline_params(q, seed, factor=1):
    """The acceptance criteria's six-block model: the headline pool drawn
    from ``make_rng(10_000 + seed)``, column counts times ``factor``."""
    counts = headline_counts(make_rng(10_000 + seed), factor)
    return ModelParams(q=q, blocks=BlockStructure(HEADLINE_LENGTHS),
                       num_messages=sum(counts.values()), noise_fraction=0.5,
                       shuffle=counts, restricted_prefix=True, seed=seed)


def column_sigmas(truth):
    """Oracle: each column's block-level permutation, as a list of tuples."""
    return [truth.sigmas[i] for i in truth.perm_index.tolist()]


def assert_row_stats_match_unique_loop(values):
    """Oracle for ``row_stats``, row by row with ``np.unique``."""
    # [DERIVED] the size is the number of distinct values; the middle keeps
    # the dtype; the middle's count, taken as the outlier repair takes it,
    # never exceeds the top count; where one value fills more than half the
    # row, or the row has at most two entries, the middle is the smallest
    # top value and the count its count.
    sizes, middle = row_stats(values)
    counts = np.count_nonzero(values == middle[:, None], axis=1)
    n_cols = values.shape[1]
    assert middle.dtype == values.dtype
    for row in range(len(values)):
        uniq, cnt = np.unique(values[row], return_counts=True)
        assert sizes[row] == len(uniq)
        best = int(np.argmax(cnt))  # first maximum: the smallest value on ties
        assert counts[row] <= cnt[best]
        if 2 * cnt[best] > n_cols or n_cols <= 2:
            assert (middle[row], counts[row]) == (uniq[best], cnt[best])
