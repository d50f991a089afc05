"""The three benchmark workloads: what a job runs and what it must produce.

A job is a short sequence of CLI calls, each an ``argv`` list for
``unshuffle.cli.cli_main``.  Every job gets its own seed, derived from the
benchmark seed and the job index, so one benchmark seed fixes every input.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Headline six-block setup of the source paper (restricted prefix, L=82):
# 31 distinct block permutations with these column multiplicities (N=80).
HEADLINE_LENGTHS = (11, 11, 12, 12, 16, 20)
HEADLINE_MULT = [16, 8, 8, 4, 4, 4, 4] + [2] * 8 + [1] * 16

# verify_prob: the criterion-6 two-block settings and the criterion-8 prefix
# settings of the acceptance tests.
MC_TRIALS = 1000
MC_TWO_BLOCK = ["--q", "3", "--lengths", "4,6", "--n", "20", "--lambda", "0.5",
                "--nu", "0.3"]
MC_PREFIX = ["--q", "16", "--lengths", "2,3,4,5", "--n", "16", "--lambda", "0",
             "--perm-counts", "1,2,3,4=4;2,3,4,1=4;3,4,1,2=4;4,1,2,3=4"]


def run_cli(argv: list) -> tuple:
    """``cli_main(argv)`` with its printed output captured: (exit code,
    stderr text).  Stdout is discarded but still written, as users see it."""
    from unshuffle.cli import cli_main
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, err.getvalue()


def job_seed(seed: int, index: int) -> int:
    return seed * 1_000_000 + index


@dataclass
class Job:
    """CLI calls run in order, stopping at the first non-zero exit."""

    calls: list                 # argv lists
    symbols: int                # L*N symbols the job solves or generates
    trials: int                 # recovery trials (solvers) or Monte Carlo trials,
                                # spread evenly over the calls
    key: str                    # report flag that must be true: "recovered"
                                # or "agrees"
    out: Path | None = None     # aligned corpus, checked for out_bytes bytes
    out_bytes: int = 0
    label: str = ""             # scale label used when reporting failures
    scratch: list = field(default_factory=list)  # files removed before the job

    def reports(self, calls=None) -> list:
        """The ``--json-report`` paths of ``calls`` (default: every call)."""
        return [Path(argv[argv.index("--json-report") + 1])
                for argv in (self.calls if calls is None else calls)
                if "--json-report" in argv]


def six_block_counts(seed: int, factor: int) -> str:
    """Headline permutation pool with multiplicities times ``factor``, as a
    1-based ``--perm-counts`` spec."""
    rng = np.random.default_rng((seed, 0))
    pool, seen = [], set()
    while len(pool) < len(HEADLINE_MULT):
        sigma = tuple(int(a) for a in rng.permutation(len(HEADLINE_LENGTHS)))
        if sigma not in seen:
            seen.add(sigma)
            pool.append(sigma)
    return ";".join(",".join(str(a + 1) for a in sigma) + f"={m * factor}"
                    for sigma, m in zip(pool, HEADLINE_MULT))


def _m_block_gen(seed: int, q: int, mult_factor: int, out: Path) -> list:
    return ["--seed", str(seed), "gen", "--q", str(q),
            "--lengths", ",".join(map(str, HEADLINE_LENGTHS)),
            "--n", str(sum(HEADLINE_MULT) * mult_factor), "--lambda", "0.5",
            "--perm-counts", six_block_counts(seed, mult_factor),
            "--restricted-prefix", "--out", str(out)]


def _solve(command: str, corpus: Path, record_len: int, word_bytes: int,
           truth: Path, work: Path) -> list:
    return [command, str(corpus), "--record-len", str(record_len),
            "--word-bytes", str(word_bytes), "--truth", str(truth),
            "--out", str(work / "aligned.bin"),
            "--json-report", str(work / "report.json")]


class Workload:
    name = ""
    pool = 1            # distinct jobs per run; the timed loop repeats them
    cycle = 1           # jobs per round of the timed loop
    guarded = False     # whether the RNG-contract guard applies

    work: Path          # set before each set-up

    def job(self, seed: int, index: int, warmup: bool = False) -> Job:
        raise NotImplementedError

    def scale(self) -> dict:
        raise NotImplementedError

    def gen_call(self, seed: int) -> list:
        """The ``gen`` call of the first job (guarded workloads only)."""
        return self.job(seed, 0).calls[0]


class TwoBlockBulk(Workload):
    name = "two_block_bulk"
    pool = 14
    guarded = True
    Q, LENGTHS, N = 3, (400, 600), 4000

    def job(self, seed, index, warmup=False):
        n = self.N // 10 if warmup else self.N
        js = job_seed(seed, index)
        w = self.work
        record_len = sum(self.LENGTHS)
        gen = ["--seed", str(js), "gen", "--q", str(self.Q),
               "--lengths", ",".join(map(str, self.LENGTHS)), "--n", str(n),
               "--lambda", "0.5", "--nu", "0.3", "--out", str(w / "corpus.bin")]
        analyze = ["analyze", str(w / "corpus.bin"), "--record-len",
                   str(record_len), "--out", str(w / "profile.csv")]
        solve = _solve("unshuffle2", w / "corpus.bin", record_len, 1,
                       w / "corpus.bin.truth.json", w)
        return Job(calls=[gen, analyze, solve], symbols=record_len * n,
                   trials=1, key="recovered",
                   out=w / "aligned.bin", out_bytes=record_len * n,
                   label=f"N={n}",
                   scratch=[w / "aligned.bin", w / "report.json",
                            w / "profile.csv"])

    def scale(self):
        return {"q": self.Q, "L": sum(self.LENGTHS), "N": self.N, "M": 2,
                "word_bytes": 1}


class MBlockMany(Workload):
    """Six-block restricted-prefix jobs: ``gen`` then ``unshuffle``."""

    name = "m_block_many"
    pool = 42
    cycle = 3
    guarded = True
    Q = 256
    FACTORS = (1, 5, 15)    # multiplicities: N = 80, 400, 1200 in equal thirds

    def job(self, seed, index, warmup=False):
        factor = 1 if warmup else self.FACTORS[index % len(self.FACTORS)]
        w = self.work
        record_len = sum(HEADLINE_LENGTHS)
        n = sum(HEADLINE_MULT) * factor
        gen = _m_block_gen(job_seed(seed, index), self.Q, factor, w / "corpus.bin")
        solve = _solve("unshuffle", w / "corpus.bin", record_len, 1,
                       w / "corpus.bin.truth.json", w)
        return Job(calls=[gen, solve], symbols=record_len * n, trials=1,
                   key="recovered", out=w / "aligned.bin", out_bytes=record_len * n,
                   label=f"L={record_len},N={n}",
                   scratch=[w / "aligned.bin", w / "report.json"])

    def scale(self):
        return {"q": self.Q, "L": sum(HEADLINE_LENGTHS),
                "N": [sum(HEADLINE_MULT) * f for f in self.FACTORS], "M": 6,
                "word_bytes": 1}


class VerifyProb(Workload):
    name = "verify_prob"
    pool = 14

    def job(self, seed, index, warmup=False):
        trials = 100 if warmup else MC_TRIALS
        js = str(job_seed(seed, index))
        w = self.work
        calls, reports = [], []
        for event, flags in (("l0_exact", MC_TWO_BLOCK),
                             ("l1_exact", MC_TWO_BLOCK),
                             ("prefix_partition", MC_PREFIX)):
            reports.append(w / f"{event}.json")
            calls.append(["--seed", js, "verify-prob", event, *flags,
                          "--trials", str(trials),
                          "--json-report", str(reports[-1])])
        symbols = trials * (2 * 10 * 20 + 14 * 16)
        return Job(calls=calls, symbols=symbols, trials=3 * trials,
                   key="agrees", label=f"trials={trials}",
                   scratch=list(reports))

    def scale(self):
        return {"l0_l1": {"q": 3, "L": 10, "N": 20, "M": 2, "word_bytes": 1},
                "prefix_partition": {"q": 16, "L": 14, "N": 16, "M": 4,
                                     "word_bytes": 1},
                "trials_per_event": MC_TRIALS}


WORKLOADS = {w.name: w for w in (TwoBlockBulk, MBlockMany, VerifyProb)}


def report_flag(path: Path, key: str):
    """The ``key`` flag of a JSON report (under ``diagnostics`` for solver
    reports, ``result`` for verify-prob), or None when absent."""
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    for section in ("diagnostics", "result"):
        if key in doc.get(section, {}):
            return doc[section][key]
    return None
