"""Corpus (de)serialization, ground-truth sidecars, and run reports.

Corpora live on disk as raw binary: fixed-length records concatenated in a
single file, or one file per record in a directory (read in lexicographic
filename order).  Symbols are little-endian words of 1, 2, or 4 bytes, so
the alphabet is 256 ** word_bytes.  Ground truth and reports are JSON.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field, asdict
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


def _records_from_bytes(raw: bytes, spec: CorpusSpec, origin: str) -> np.ndarray:
    if len(raw) % spec.record_bytes:
        raise MalformedCorpusError(
            f"{origin}: {len(raw)} bytes is not a multiple of the "
            f"{spec.record_bytes}-byte record length")
    count = len(raw) // spec.record_bytes
    words = np.frombuffer(raw, dtype=WORD_DTYPES[spec.word_bytes])
    return words.reshape(count, spec.record_len)


def load_corpus(spec: CorpusSpec) -> ShuffledCorpus:
    """Read records as corpus columns, in file order (directories: sorted by
    filename)."""
    src = spec.source
    if src.is_dir():
        files = sorted(p for p in src.iterdir() if p.is_file())
        if not files:
            raise EmptyCorpusError(f"no record files in {src}")
        records = []
        for path in files:
            recs = _records_from_bytes(path.read_bytes(), spec, str(path))
            if recs.shape[0] != 1:
                raise MalformedCorpusError(
                    f"{path}: expected exactly one record, found {recs.shape[0]}")
            records.append(recs[0])
        matrix = np.stack(records)
    else:
        raw = src.read_bytes()
        if not raw:
            raise EmptyCorpusError(f"{src} is empty")
        matrix = _records_from_bytes(raw, spec, str(src))
    return ShuffledCorpus(values=matrix.T.astype(np.int64), q=spec.q)


def write_corpus(corpus: ShuffledCorpus, spec: CorpusSpec) -> None:
    """Bit-exact inverse of :func:`load_corpus` (single-file layout)."""
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


def write_truth(truth: GroundTruth, q: int, path) -> None:
    """The sidecar, byte for byte as ``json.dumps(doc, indent=2)`` writes it;
    every value is an int or a flat list of ints, so the layout is built
    directly, each distinct permutation once."""
    perms = {p: _json_indented(list(map(str, to_one_line(p))), "    ")
             for p in set(truth.column_perms)}
    fields = {
        "q": str(q),
        "block_lengths": _json_indented(list(map(str, truth.blocks.lengths)), "  "),
        "template": _json_indented(list(map(str, truth.template.tolist())), "  "),
        "noise_loci": _json_indented([str(l + 1) for l in truth.noise_loci], "  "),
        "column_perms": _json_indented([perms[p] for p in truth.column_perms], "  "),
    }
    text = _json_indented([f'"{key}": {value}' for key, value in fields.items()],
                          "", "{}")
    _atomic_write(Path(path), text.encode())


def load_truth(path) -> tuple:
    """Returns (GroundTruth, q)."""
    doc = json.loads(Path(path).read_text())
    rows = list(map(tuple, doc["column_perms"]))
    perms = {row: from_one_line(row) for row in set(rows)}
    truth = GroundTruth(
        template=np.array(doc["template"], dtype=np.int64),
        noise_loci=tuple(l - 1 for l in doc["noise_loci"]),
        column_perms=tuple(map(perms.__getitem__, rows)),
        blocks=BlockStructure(tuple(doc["block_lengths"])),
    )
    return truth, int(doc["q"])


@dataclass(frozen=True)
class Report:
    command: str
    params: dict
    result: dict
    diagnostics: dict = field(default_factory=dict)
    success: bool = True
    seed: Optional[int] = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Report":
        return cls(**json.loads(text))


def write_report(report: Report, path) -> None:
    _atomic_write(Path(path), report.to_json().encode())
