"""Guard against regrowth: every name the package exports has a caller in
the library itself or in the acceptance criteria, not only in unit tests;
rows are sorted only by ``partitions.row_stats`` and the solvers' columns
rotated only by ``perms.rotate_columns``; the block budget is written out
once, in ``perms``; the headline model's multiplicities are written out
only in ``model.py`` and its two kept copies; and the benchmark tracer
still finds the names it wraps, and its counters still read what the
solvers pass and return."""

import ast
from pathlib import Path

from conftest import load_bench_module

from unshuffle.cli import cli_main

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "unshuffle"


def loaded_names(path):
    """(enclosing top-level definition or None, name) for every name and
    attribute a module reads; imports alone do not count."""
    for stmt in ast.parse(path.read_text()).body:
        owner = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                yield owner, node.id
            elif isinstance(node, ast.Attribute):
                yield owner, node.attr


def test_every_export_has_a_caller():
    exported = {alias.asname or alias.name
                for node in ast.parse((SRC / "__init__.py").read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    used = {name for path in SRC.glob("*.py") if path.name != "__init__.py"
            for owner, name in loaded_names(path) if owner != name}
    used |= {name for _, name in loaded_names(TESTS / "test_acceptance.py")}
    assert sorted(exported - used) == []


def called_names(name):
    """The function or method name of every call a module makes."""
    return {getattr(node.func, "attr", getattr(node.func, "id", None))
            for node in ast.walk(ast.parse((SRC / name).read_text()))
            if isinstance(node, ast.Call)}


def test_rows_are_sorted_only_in_partitions():
    # The solvers and the Monte Carlo read partition sizes and row modes
    # from partitions.row_stats; a second row sort beside it is a regrowth.
    for name in ("multi_block.py", "two_block.py", "probs.py"):
        assert "sort" not in called_names(name), name


def test_columns_are_rotated_only_in_perms():
    # Both solvers realign their columns through perms.rotate_columns; a
    # roll or a concatenation of shifted halves beside it is a regrowth.
    # scoring and probs keep their 1-D rolls of masks.
    for name in ("multi_block.py", "two_block.py"):
        assert not {"roll", "concatenate"} & called_names(name), name


def test_block_budget_is_written_out_once():
    # Every blocked kernel reads perms.BLOCK_ENTRIES (model imports it from
    # there); a second 2 ** 18 beside it is a budget that can drift apart.
    found = [path.name for path in SRC.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.BinOp) and ast.unparse(node) == "2 ** 18"]
    assert found == ["perms.py"]


def test_headline_multiplicities_are_written_out_only_where_kept():
    # The headline model lives in model.py.  test_acceptance.py keeps its own
    # copy as an independent oracle and bench/workloads.py the benchmark's;
    # test_model.py checks both against model.py.  A fourth copy is a regrowth.
    run = ", ".join(map(str, [16] + [8] * 2 + [4] * 4))
    root = TESTS.parent
    paths = [*SRC.glob("*.py"), *TESTS.glob("*.py"), *(root / "bench").glob("*.py")]
    assert sorted(str(path.relative_to(root)) for path in paths if run in path.read_text()) \
        == ["bench/workloads.py", "src/unshuffle/model.py", "tests/test_acceptance.py"]


# Names bench/spans.py wraps that the library no longer has; the benchmark
# reports them absent, and its next change drops or repoints them.
STALE_TRACER_NAMES = {
    "probs.generate", "two_block.apply_unshuffle", "multi_block.apply_unshuffle",
    "cli.two_valued_rows", "probs.row_partition", "probs.estimate_conserved_rows",
    "multi_block.compose",
}


def test_tracer_finds_every_wrapped_name_but_the_stale_ones(monkeypatch, tmp_path):
    # A renamed or removed call site would silently zero a per-layer metric,
    # and a changed signature would break a counter only in traced runs.
    spans = load_bench_module("spans", monkeypatch)
    m_block, two_block = tmp_path / "m.bin", tmp_path / "two.bin"
    with spans.Tracer() as tracer:
        assert cli_main(["--seed", "4", "gen", "--q", "256", "--lengths", "5,7,8",
                         "--n", "40", "--lambda", "0.3",
                         "--perm-counts", "1,2,3=14;2,3,1=10;3,1,2=8;1,3,2=8",
                         "--restricted-prefix", "--out", str(m_block)]) == 0
        written = tracer.counters["corpus_io.bytes_written"]
        report = tmp_path / "report.json"
        assert cli_main(["unshuffle", str(m_block), "--record-len", "20",
                         "--truth", f"{m_block}.truth.json",
                         "--json-report", str(report)]) == 0
        # The report's bytes, and only they, count as written by this call.
        assert tracer.counters["corpus_io.bytes_written"] - written == report.stat().st_size > 0
        assert cli_main(["--seed", "1", "gen", "--q", "3", "--lengths", "40,60",
                         "--n", "80", "--lambda", "0.5", "--nu", "0.3",
                         "--out", str(two_block)]) == 0
        assert cli_main(["unshuffle2", str(two_block), "--record-len", "100"]) == 0
    assert set(tracer.absent) <= STALE_TRACER_NAMES
    # The two-block layers are reached through the names unshuffle2 calls.
    assert {"two_block.estimate_swapped_columns", "two_block.estimate_conserved_rows",
            "two_block.align_cyclic"} <= {span.name for span in tracer.spans}
    # The report is written through the wrapped name, so corpus_io.sidecar_s
    # counts its time.
    assert [span.metric for span in tracer.spans
            if span.name == "cli.write_report"] == ["corpus_io.sidecar_s"]
    assert tracer.counters["multi_block.rounds"] > 0
    assert tracer.counters["multi_block.columns_aligned"] > 0
