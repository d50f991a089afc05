"""Shared pytest plumbing: collects acceptance verdict lines and prints them
after the run, outside of output capture."""

acceptance_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


def row_partition(row):
    """Oracle: the columns grouped by their value in one corpus row, each
    part a tuple of column indices, parts ordered by their first column."""
    groups = {}
    for col, value in enumerate(row.tolist()):
        groups.setdefault(value, []).append(col)
    return tuple(tuple(cols) for cols in groups.values())


def column_sigmas(truth):
    """Oracle: each column's block-level permutation, as a list of tuples."""
    return [truth.sigmas[i] for i in truth.perm_index.tolist()]
