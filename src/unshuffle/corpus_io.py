"""Corpus (de)serialization, ground-truth sidecars, and run reports.

Corpora live on disk as raw binary: fixed-length records concatenated in a
single file, or one file per record in a directory (read in lexicographic
filename order).  Symbols are little-endian words of 1, 2, or 4 bytes, so
the alphabet is 256 ** word_bytes.  Ground truth and reports are JSON.
"""

from __future__ import annotations

import itertools
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .model import GroundTruth, ShuffledCorpus
from .perms import BlockStructure, from_one_line, to_one_line

WORD_DTYPES = {1: "<u1", 2: "<u2", 4: "<u4"}


class MalformedCorpusError(ValueError):
    pass


class EmptyCorpusError(ValueError):
    pass


@dataclass(frozen=True)
class CorpusSpec:
    source: Path
    record_len: int
    word_bytes: int = 1

    def __post_init__(self):
        object.__setattr__(self, "source", Path(self.source))
        if self.record_len < 1:
            raise ValueError("record length must be positive")
        if self.word_bytes not in WORD_DTYPES:
            raise ValueError(f"word size must be one of {sorted(WORD_DTYPES)}")

    @property
    def q(self) -> int:
        return 256 ** self.word_bytes

    @property
    def record_bytes(self) -> int:
        return self.record_len * self.word_bytes


def _atomic_write(path: Path, data) -> None:
    """Write any bytes-like object (a C-contiguous array included) to
    ``path`` through a temporary file in the same directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_records(path: Path, spec: CorpusSpec) -> np.ndarray:
    """The records of one file as a writable (count, L) array in the word
    dtype, read straight into it: no intermediate bytes object."""
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        if size % spec.record_bytes:
            raise MalformedCorpusError(
                f"{path}: {size} bytes is not a multiple of the "
                f"{spec.record_bytes}-byte record length")
        records = np.empty((size // spec.record_bytes, spec.record_len),
                           dtype=WORD_DTYPES[spec.word_bytes])
        if handle.readinto(records) != size:
            raise MalformedCorpusError(f"{path}: file shrank while being read")
    return records


def load_corpus(spec: CorpusSpec) -> ShuffledCorpus:
    """Read records as corpus columns, in file order (directories: sorted by
    filename).  The values are the ``.T`` view of the writable (N, L) record
    array in the file's own word dtype: each column lies contiguous, as in
    the file, and nothing is transposed on load."""
    src = spec.source
    if src.is_dir():
        files = sorted(p for p in src.iterdir() if p.is_file())
        if not files:
            raise EmptyCorpusError(f"no record files in {src}")
        records = []
        for path in files:
            recs = _read_records(path, spec)
            if recs.shape[0] != 1:
                raise MalformedCorpusError(
                    f"{path}: expected exactly one record, found {recs.shape[0]}")
            records.append(recs[0])
        records = np.stack(records)
    else:
        records = _read_records(src, spec)
        if not records.size:
            raise EmptyCorpusError(f"{src} is empty")
    return ShuffledCorpus(values=records.T, q=spec.q)


def write_corpus(corpus: ShuffledCorpus, spec: CorpusSpec) -> None:
    """Bit-exact inverse of :func:`load_corpus` (single-file layout).  The
    values may have any integer dtype and layout; a corpus whose records
    already lie contiguous in the word dtype is written without a copy."""
    if corpus.q > spec.q:
        raise ValueError(
            f"alphabet {corpus.q} does not fit {spec.word_bytes}-byte words")
    _atomic_write(spec.source, np.ascontiguousarray(
        corpus.values.T, dtype=WORD_DTYPES[spec.word_bytes]))


def word_bytes_for(q: int) -> int:
    for wb in sorted(WORD_DTYPES):
        if q <= 256 ** wb:
            return wb
    raise ValueError(f"alphabet size {q} exceeds 4-byte words")


def _json_indented(items, indent: str, brackets: str = "[]") -> str:
    """How ``json.dumps(..., indent=2)`` lays out a list (or, with brackets
    "{}", an object) nested at ``indent``, given its items already encoded."""
    if not items:
        return brackets
    pad = "\n" + indent + "  "
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + indent + brackets[1]


def _json_text(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` nested at ``indent``,
    for a document whose dict keys are strings (others are a TypeError): a
    list of plain ints is formatted in one pass; ints, strings, booleans and
    None as ``json.dumps`` writes them, without its per-call set-up; and
    every other leaf by ``json.dumps``, whose compact form of a leaf is the
    indented one."""
    if type(value) is int:
        return str(value)
    if isinstance(value, str):
        return json.encoder.encode_basestring_ascii(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    inner = indent + "  "
    if isinstance(value, dict):
        if not all(isinstance(key, str) for key in value):
            raise TypeError("JSON object keys must be strings")
        quote = json.encoder.encode_basestring_ascii
        return _json_indented([f"{quote(key)}: {_json_text(value[key], inner)}"
                               for key in sorted(value)], indent, "{}")
    if isinstance(value, (list, tuple)):
        if set(map(type, value)) <= {int}:
            return _json_indented(list(map(str, value)), indent)
        return _json_indented([_json_text(item, inner) for item in value], indent)
    return json.dumps(value)


def write_truth(truth: GroundTruth, q: int, path) -> None:
    """The sidecar, byte for byte as ``json.dumps(doc, indent=2)`` writes it;
    every value is an int or a flat list of ints, so the layout is built
    directly, each distinct permutation formatted once."""
    perms = [_json_indented(list(map(str, to_one_line(p))), "    ") for p in truth.sigmas]
    fields = {
        "q": str(q),
        "block_lengths": _json_indented(list(map(str, truth.blocks.lengths)), "  "),
        "template": _json_indented(list(map(str, truth.template.tolist())), "  "),
        "noise_loci": _json_indented(list(map(str, (truth.noise_loci + 1).tolist())), "  "),
        "column_perms": _json_indented([perms[i] for i in truth.perm_index.tolist()], "  "),
    }
    text = _json_indented([f'"{key}": {value}' for key, value in fields.items()],
                          "", "{}")
    _atomic_write(Path(path), text.encode())


def _ints(values, dtype=np.int64) -> np.ndarray:
    """A JSON list of integers as an array; any other entry (bools too) is a TypeError."""
    if not isinstance(values, list) or set(map(type, values)) - {int}:
        raise TypeError("expected a list of integers")
    return np.fromiter(values, dtype=dtype, count=len(values))


def _distinct_rows(rows: np.ndarray) -> tuple:
    """``np.unique(rows, axis=0, return_inverse=True)`` of a 2-D integer
    array: its distinct rows in lexicographic order, and each row's index
    among them.  One lexsort, then a mask of where each run of equal rows
    starts."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    starts = np.ones(len(rows), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return ordered[starts], inverse


def load_truth(path) -> tuple:
    """Returns (GroundTruth, q), with ``sigmas`` sorted as the generator sorts
    them.  A document without the sidecar's fields, with an entry that is not
    a JSON integer, whose template, noise loci or permutations do not fit its
    block lengths, whose template leaves [0, q), or whose noise loci do not
    increase strictly, raises ValueError."""
    doc = json.loads(Path(path).read_text())
    try:
        q = int(_ints([doc["q"]])[0])
        blocks = BlockStructure(tuple(_ints(doc["block_lengths"]).tolist()))
        template = _ints(doc["template"])
        noise_loci = _ints(doc["noise_loci"], np.intp) - 1
        rows = doc["column_perms"]
        row_lengths = set(map(len, rows))
        entries = _ints(list(itertools.chain.from_iterable(rows)))
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed truth sidecar {path}: {exc!r}") from exc
    if (row_lengths - {blocks.block_count} or template.shape != (blocks.total,)
            or not np.all((noise_loci >= 0) & (noise_loci < blocks.total))):
        raise ValueError(f"malformed truth sidecar {path}: template, noise loci "
                         f"or permutations do not fit block lengths {blocks.lengths}")
    if not (np.all((template >= 0) & (template < q)) and np.all(np.diff(noise_loci) > 0)):
        raise ValueError(f"malformed truth sidecar {path}: template values must lie "
                         f"in [0, {q}) and noise loci must increase strictly")
    distinct, perm_index = _distinct_rows(entries.reshape(len(rows), blocks.block_count))
    return GroundTruth(template=template, noise_loci=noise_loci,
                       sigmas=tuple(map(from_one_line, distinct.tolist())),
                       perm_index=perm_index, blocks=blocks), q


@dataclass(frozen=True)
class Report:
    command: str
    params: dict
    result: dict
    diagnostics: dict = field(default_factory=dict)
    success: bool = True
    seed: Optional[int] = None

    def to_json(self) -> str:
        """Exactly ``json.dumps(vars(self), indent=2, sort_keys=True)``; every
        dict key in the report must be a string."""
        return _json_text(vars(self))


def write_report(report: Report, path) -> None:
    _atomic_write(Path(path), report.to_json().encode())
