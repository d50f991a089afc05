"""Golden outputs of the CLI for fixed seeds.

The hashes pin the generator's RNG stream (the ``gen`` corpus and truth
sidecar) and the solvers' outputs byte for byte, so a refactor that claims
the same outputs has to reproduce exactly these.
"""

import hashlib
import json

import numpy as np
import pytest
from conftest import perm_counts_arg

from unshuffle.cli import cli_main
from unshuffle.model import HEADLINE_LENGTHS, HEADLINE_MULT, headline_counts


def run(*argv):
    return cli_main([str(a) for a in argv])


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def report_digest(path) -> str:
    """Hash of a report's result and diagnostics (its params hold paths)."""
    report = json.loads(path.read_text())
    body = {"success": report["success"], "result": report["result"],
            "diagnostics": report["diagnostics"]}
    return digest(json.dumps(body, sort_keys=True).encode())


def checked_exit(code, path) -> int:
    """The exit code, once the report at ``path`` agrees with it."""
    assert json.loads(path.read_text())["success"] == (code == 0)
    return code


def word_flags(word_bytes):
    """``--word-bytes`` for every call, or nothing for the CLI's default."""
    return () if word_bytes is None else ("--word-bytes", word_bytes)


def two_block_outputs(tmp_path, seed, q, lengths, n, lam, nu, word_bytes=None):
    corpus = tmp_path / "corpus.bin"
    truth = tmp_path / "corpus.bin.truth.json"
    record_len = sum(int(x) for x in lengths.split(","))
    words = word_flags(word_bytes)
    assert run("--seed", seed, "gen", "--q", q, "--lengths", lengths,
               "--n", n, "--lambda", lam, "--nu", nu, *words,
               "--out", corpus) == 0
    profile = tmp_path / "profile.csv"
    analyze_report = tmp_path / "analyze.json"
    assert run("analyze", corpus, "--record-len", record_len, *words,
               "--out", profile, "--json-report", analyze_report) == 0
    aligned = tmp_path / "aligned.bin"
    solve_report = tmp_path / "unshuffle2.json"
    code = run("unshuffle2", corpus, "--record-len", record_len, *words,
               "--truth", truth, "--out", aligned,
               "--json-report", solve_report)
    return {"corpus": digest(corpus.read_bytes()),
            "truth": digest(truth.read_bytes()),
            "profile_csv": digest(profile.read_bytes()),
            "analyze": report_digest(analyze_report),
            "aligned": digest(aligned.read_bytes()),
            "unshuffle2": report_digest(solve_report),
            "unshuffle2_exit": checked_exit(code, solve_report)}


def m_block_outputs(tmp_path, seed, perm_counts):
    corpus = tmp_path / "m.bin"
    truth = tmp_path / "m.bin.truth.json"
    assert run("--seed", seed, "gen", "--q", 256, "--lengths", "5,7,8",
               "--n", 40, "--lambda", 0.3, "--perm-counts", perm_counts,
               "--restricted-prefix", "--out", corpus) == 0
    aligned = tmp_path / "aligned.bin"
    solve_report = tmp_path / "unshuffle.json"
    code = run("unshuffle", corpus, "--record-len", 20, "--truth", truth,
               "--out", aligned, "--json-report", solve_report)
    return {"corpus": digest(corpus.read_bytes()),
            "truth": digest(truth.read_bytes()),
            "aligned": digest(aligned.read_bytes()),
            "unshuffle": report_digest(solve_report),
            "unshuffle_exit": checked_exit(code, solve_report)}


# The headline six-block setup (restricted prefix, q=256, L=82) with its
# column multiplicities scaled by ``factor``: N = 80 * factor.
def six_block_counts(seed, factor):
    """The headline pool drawn from ``seed``, as a 1-based ``--perm-counts``
    spec with the multiplicities times ``factor``."""
    return perm_counts_arg(headline_counts(np.random.default_rng((seed, 0)), factor))


def six_block_outputs(tmp_path, seed, factor, q=256, word_bytes=None):
    corpus = tmp_path / "m.bin"
    truth = tmp_path / "m.bin.truth.json"
    words = word_flags(word_bytes)
    assert run("--seed", seed, "gen", "--q", q, "--lengths", ",".join(map(str, HEADLINE_LENGTHS)),
               "--n", sum(HEADLINE_MULT) * factor, "--lambda", 0.5,
               "--perm-counts", six_block_counts(seed, factor),
               "--restricted-prefix", *words, "--out", corpus) == 0
    aligned = tmp_path / "aligned.bin"
    solve_report = tmp_path / "unshuffle.json"
    code = run("unshuffle", corpus, "--record-len", 82, *words, "--truth", truth,
               "--out", aligned, "--json-report", solve_report)
    report = json.loads(solve_report.read_text())
    return {"corpus": digest(corpus.read_bytes()),
            "truth": digest(truth.read_bytes()),
            "aligned": digest(aligned.read_bytes()),
            "unshuffle": report_digest(solve_report),
            "trace": digest(json.dumps(report["diagnostics"]["trace"]).encode()),
            "failure_reason": report["result"]["failure_reason"],
            "unshuffle_exit": checked_exit(code, solve_report)}


# Monte Carlo settings of acceptance criteria 6 (two-block) and 8 (prefix).
MC_TWO_BLOCK = ("--q", 3, "--lengths", "4,6", "--n", 20, "--lambda", 0.5,
                "--nu", 0.3)
MC_PREFIX = ("--q", 16, "--lengths", "2,3,4,5", "--n", 16, "--lambda", 0,
             "--perm-counts", "1,2,3,4=4;2,3,4,1=4;3,4,1,2=4;4,1,2,3=4")


def verify_prob_outputs(tmp_path, seed, event, flags=MC_TWO_BLOCK, trials=2000):
    report = tmp_path / "prob.json"
    code = run("--seed", seed, "verify-prob", event, *flags,
               "--trials", trials, "--json-report", report)
    return {"verify_prob": report_digest(report),
            "verify_prob_exit": checked_exit(code, report)}


def distinguished_prefix_outputs(tmp_path, seed):
    """``gen`` with a distinguished prefix: at q=5 and M=4 the block-start
    values are redrawn several times before they are pairwise distinct."""
    corpus = tmp_path / "d.bin"
    truth = tmp_path / "d.bin.truth.json"
    assert run("--seed", seed, "gen", "--q", 5, "--lengths", "3,4,5,6",
               "--n", 30, "--lambda", 0.4,
               "--perm-counts", "1,2,3,4=12;2,1,4,3=10;4,3,2,1=8",
               "--distinguished-prefix", "--out", corpus) == 0
    return {"corpus": digest(corpus.read_bytes()),
            "truth": digest(truth.read_bytes())}


def sync_demo_outputs(tmp_path, seed):
    """``sync-demo`` at its default instance; the report holds no paths, so
    its bytes are hashed whole."""
    report = tmp_path / "sync.json"
    code = run("--seed", seed, "sync-demo", "--json-report", report)
    return {"sync_demo": digest(report.read_bytes()),
            "sync_demo_exit": checked_exit(code, report)}


CASES = {
    "two_block_seed1": (two_block_outputs, (1, 3, "40,60", 80, 0.5, 0.3)),
    "two_block_seed2": (two_block_outputs, (2, 4, "30,50", 120, 0.5, 0.4)),
    # Few columns: many competing bipartitions and a likely failed recovery.
    "two_block_seed3": (two_block_outputs, (3, 3, "5,7", 10, 0.6, 0.5)),
    # 2-byte words holding values above 255, so the uint16 path is pinned.
    "two_block_words2": (two_block_outputs, (9, 1000, "40,60", 80, 0.5, 0.3, 2)),
    "m_block_seed4": (m_block_outputs, (4, "1,2,3=14;2,3,1=10;3,1,2=8;1,3,2=8")),
    "m_block_seed5": (m_block_outputs, (5, "1,2,3=20;3,1,2=12;2,1,3=8")),
    # Both recover.  At N=1200 a noise row shows about 254 of q=256 values,
    # fewer than ceil(N/4) = 300, so the noise threshold is E/2 = 126 there.
    "six_block_n400": (six_block_outputs, (1_000_001, 5)),
    "six_block_n1200": (six_block_outputs, (1_000_002, 15)),
    # q=4096 in 2-byte words: the six-block solver on uint16 values.
    "six_block_words2": (six_block_outputs, (1_000_003, 5, 4096, 2)),
    "verify_p_n": (verify_prob_outputs, (6, "p_n")),
    "verify_p_2": (verify_prob_outputs, (6, "p_2")),
    "verify_l0_exact": (verify_prob_outputs, (7, "l0_exact", MC_TWO_BLOCK, 1000)),
    "verify_l1_exact": (verify_prob_outputs, (7, "l1_exact", MC_TWO_BLOCK, 1000)),
    "verify_prefix": (verify_prob_outputs, (7, "prefix_partition", MC_PREFIX, 1000)),
    "distinguished_prefix": (distinguished_prefix_outputs, (8,)),
    "sync_demo_seed5": (sync_demo_outputs, (5,)),
}

GOLDEN = {
    "m_block_seed4": {
        "corpus": "d2a86a3d1e95977a",
        "truth": "52a8908138ef82fe",
        "aligned": "cdbe76d3cc258baf",
        "unshuffle": "0fa5a876fe5082f3",
        "unshuffle_exit": 0,
    },
    "m_block_seed5": {
        "corpus": "d034f3ee2701d8c7",
        "truth": "382f16e19c4f0809",
        "aligned": "afbb804ac53090fb",
        "unshuffle": "4a484f92094f84df",
        "unshuffle_exit": 0,
    },
    "six_block_n400": {
        "corpus": "791e03f503c0c63f",
        "truth": "912ce01a42013765",
        "aligned": "56830aab201578c9",
        "unshuffle": "1ca01096bf3a7ed7",
        "trace": "82bdb215bdd0d7ad",
        "failure_reason": None,
        "unshuffle_exit": 0,
    },
    "six_block_n1200": {
        "corpus": "6d4bc75bc57b0895",
        "truth": "f8e07ad10b5d6f23",
        "aligned": "9d9cbf6a357e2d55",
        "unshuffle": "c060f20c8e9ed6c2",
        "trace": "8f00c8e29eb301b9",
        "failure_reason": None,
        "unshuffle_exit": 0,
    },
    "two_block_seed1": {
        "corpus": "0fd3b8a6dcc54779",
        "truth": "124f45d9c436cb2e",
        "profile_csv": "1ec54ff13274d09f",
        "analyze": "f978a79e960aa146",
        "aligned": "7f3128725c96a156",
        "unshuffle2": "3428bb165772de4f",
        "unshuffle2_exit": 0,
    },
    "two_block_seed2": {
        "corpus": "27be3db54eafb46a",
        "truth": "2036a4a813008555",
        "profile_csv": "e16b743ca05dda8c",
        "analyze": "3bd1904a54c3b7a9",
        "aligned": "f65aa7b903388bb4",
        "unshuffle2": "23b45534d26e5182",
        "unshuffle2_exit": 0,
    },
    "two_block_seed3": {
        "corpus": "b597231fe9ee1712",
        "truth": "2ee37f93a4a6578e",
        "profile_csv": "3393854fb43d68a4",
        "analyze": "180f5900295de830",
        "aligned": "2ebf4817392d659e",
        # The report says "success": false, as its exit code does.
        "unshuffle2": "774f8e68331606cd",
        "unshuffle2_exit": 1,
    },
    "two_block_words2": {
        "corpus": "23a5cb20a631cdf4",
        "truth": "429f4a3cc5f0b6ef",
        "profile_csv": "84d175b39477c71d",
        "analyze": "134eafcb3ef73745",
        "aligned": "ae8934bc5f98c9f6",
        "unshuffle2": "0853cd28b67f7135",
        "unshuffle2_exit": 0,
    },
    "six_block_words2": {
        "corpus": "78340da18b7d683f",
        "truth": "7a433a6635c9522a",
        "aligned": "737645aceb1062fe",
        "unshuffle": "40c654179a89bd8f",
        "trace": "b748843036d87c0c",
        "failure_reason": None,
        "unshuffle_exit": 0,
    },
    "verify_p_2": {
        # closed_form 0.21181472843235885, with p_2's side splits in log space.
        "verify_prob": "992e58d9cfeba617",
        "verify_prob_exit": 0,
    },
    "verify_p_n": {
        "verify_prob": "e22e3118aa5c18cd",
        "verify_prob_exit": 0,
    },
    "verify_l0_exact": {
        "verify_prob": "a0bf9fd9e06e2718",
        "verify_prob_exit": 0,
    },
    "verify_l1_exact": {
        "verify_prob": "c88ce6bccf68d190",
        "verify_prob_exit": 0,
    },
    "verify_prefix": {
        "verify_prob": "2509a472e4c31afd",
        "verify_prob_exit": 0,
    },
    "distinguished_prefix": {
        "corpus": "e4a45460e0551a9b",
        "truth": "58a7d0b6ab165760",
    },
    "sync_demo_seed5": {
        "sync_demo": "9287be2249d09dae",
        "sync_demo_exit": 0,
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_outputs(tmp_path, name):
    build, args = CASES[name]
    assert build(tmp_path, *args) == GOLDEN[name]
