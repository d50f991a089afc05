"""Spans around calls into the layers of ``unshuffle``, recorded from outside.

A :class:`Tracer` replaces module attributes (the public names a module
calls) with wrappers that record a span per call: name, layer metric, start,
end, parent span and root span.  Spans are kept in memory;
:meth:`Tracer.layer_totals` turns them into per-metric self times (duration
minus the time covered by child spans) and :meth:`Tracer.write` saves them
once the run ends.  A wrapped name that no longer exists is recorded as
absent and skipped, so a refactor that removes or renames it does not stop
the run.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path


@dataclass(slots=True)
class Span:
    span_id: int
    parent: int | None
    root: int          # id of the top-level span: one per CLI call
    name: str
    metric: str
    start: float
    end: float = 0.0


def _size(path) -> int:
    path = Path(path)
    if path.is_dir():
        return sum(p.stat().st_size for p in path.iterdir() if p.is_file())
    return path.stat().st_size


def _files(path) -> int:
    path = Path(path)
    return sum(1 for p in path.iterdir() if p.is_file()) if path.is_dir() else 1


# Counters recorded at a wrapped boundary: fn(args, result) -> {counter: n}.
def _count_generate(args, result):
    return {"model.generate_calls": 1,
            "model.symbols_generated": int(result[0].values.size)}


def _count_load_corpus(args, result):
    return {"corpus_io.bytes_read": _size(args[0].source),
            "corpus_io.files_read": _files(args[0].source)}


def _count_write_corpus(args, result):
    return {"corpus_io.bytes_written": _size(args[1].source)}


def _count_written(path_index):
    def count(args, result):
        return {"corpus_io.bytes_written": _size(args[path_index])}
    return count


def _count_load_truth(args, result):
    return {"corpus_io.bytes_read": _size(args[0]), "corpus_io.files_read": 1}


def _count_rows(args, result):
    return {"partitions.rows_scanned": int(args[0].n_rows)}


def _count_one_row(args, result):
    return {"partitions.rows_scanned": 1}


def _count_columns(args, result):
    return {"multi_block.columns_aligned": int(args[0].n_cols)}


def _count_round(args, result):
    return {"multi_block.rounds": 1, "multi_block.advancing_rounds": int(result > 0)}


def _count_compose(args, result):
    return {"perms.compose_calls": 1}


def _count_trials(args, result):
    return {"probs.trials": int(args[2])}


# (module, attribute, metric the span's self time goes to, counter function).
# Names are wrapped where they are called, so e.g. ``cli.generate`` is the
# ``generate`` that ``unshuffle.cli`` looks up at run time.
WRAPPED = (
    ("cli", "generate", "model.generate_s", _count_generate),
    ("probs", "generate", "model.generate_s", _count_generate),
    ("two_block", "apply_unshuffle", "model.apply_unshuffle_s", None),
    ("multi_block", "apply_unshuffle", "model.apply_unshuffle_s", None),
    ("cli", "load_corpus", "corpus_io.load_s", _count_load_corpus),
    ("cli", "write_corpus", "corpus_io.write_s", _count_write_corpus),
    ("cli", "write_truth", "corpus_io.sidecar_s", _count_written(2)),
    ("cli", "load_truth", "corpus_io.sidecar_s", _count_load_truth),
    ("cli", "write_report", "corpus_io.sidecar_s", _count_written(1)),
    ("cli", "partition_profile", "partitions.profile_s", _count_rows),
    ("cli", "two_valued_rows", "partitions.two_valued_rows_s", _count_rows),
    ("two_block", "two_valued_rows", "partitions.two_valued_rows_s", _count_rows),
    ("probs", "row_partition", "partitions.row_partition_s", _count_one_row),
    ("two_block", "estimate_swapped_columns", "two_block.swapped_vote_s", None),
    ("two_block", "estimate_conserved_rows", "two_block.conserved_rows_s", None),
    ("probs", "estimate_conserved_rows", "two_block.conserved_rows_s", None),
    ("two_block", "align_cyclic", "two_block.align_cyclic_s", None),
    ("cli", "unshuffle2", "two_block.self_s", None),
    ("multi_block", "weighted_shift_align", "multi_block.shift_search_s",
     _count_columns),
    ("multi_block", "detect_block_boundary", "multi_block.boundary_s",
     _count_round),
    ("cli", "unshuffle_m", "multi_block.self_s", None),
    ("multi_block", "compose", "perms.compose_s", _count_compose),
    ("cli", "monte_carlo", "probs.self_s", _count_trials),
    ("cli", "two_block_recovery", "scoring.check_s", None),
    ("cli", "m_block_recovery", "scoring.check_s", None),
)

ROOT_METRIC = "cli.self_s"


class Tracer:
    """Records spans while installed; restores every wrapped name on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[Span] = []
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        self.absent = []
        for module_name, attr, metric, counter in WRAPPED:
            module = importlib.import_module(f"unshuffle.{module_name}")
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(f"{module_name}.{attr}", metric,
                                             original, counter))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _open(self, name: str, metric: str) -> Span:
        span_id = len(self.spans)
        if self._stack:
            parent, root = self._stack[-1].span_id, self._stack[-1].root
        else:
            parent, root = None, span_id
        span = Span(span_id, parent, root, name, metric, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, metric, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name, metric)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                for key, value in counter(args, result).items():
                    self.counters[key] += value
            return result
        return wrapper

    def root(self, name: str, fn, *args):
        """Run ``fn(*args)`` as a top-level span charged to ``cli``."""
        span = self._open(name, ROOT_METRIC)
        try:
            return fn(*args)
        finally:
            self._close(span)

    def layer_totals(self) -> tuple[dict, float]:
        """Per-metric self-time sums and the summed root-span time."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        totals = defaultdict(float)
        root_time = 0.0
        for span in self.spans:
            duration = span.end - span.start
            totals[span.metric] += duration - child_time[span.span_id]
            if span.parent is None:
                root_time += duration
        return totals, root_time

    def write(self, path: Path) -> None:
        """All spans as CSV, times in seconds from the first span's start."""
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as handle:
            handle.write("span,parent,root,name,metric,start_s,end_s\n")
            for s in self.spans:
                parent = "" if s.parent is None else s.parent
                handle.write(f"{s.span_id},{parent},{s.root},{s.name},{s.metric},"
                             f"{s.start - origin:.9f},{s.end - origin:.9f}\n")

