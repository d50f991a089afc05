"""Acceptance suite: the ten headline checks, one pass/fail line each.

Verdict lines are collected by the conftest terminal-summary hook so they
appear at the end of a plain ``pytest -v`` run, outside output capture.
"""

import sys
import time
from contextlib import contextmanager

from conftest import acceptance_lines

import numpy as np
import pytest

from unshuffle.model import ModelParams, ShuffledCorpus, generate, make_rng
from unshuffle.multi_block import unshuffle_m
from unshuffle.partitions import partition_profile
from unshuffle.perms import (
    BlockStructure,
    all_perms,
    apply_perm,
    block_permutation,
    coherent_block_permutation,
    compose,
    from_one_line,
    invert,
    random_perm,
    to_one_line,
)
from unshuffle.probs import (
    gap_decay,
    monte_carlo,
    prefix_partition_prob,
)
from unshuffle.scoring import m_block_recovery, two_block_recovery
from unshuffle.sync import (
    PotentialAssignment,
    SyncInstance,
    brute_force_sync,
    objective_pairwise,
    objective_trace,
    objective_with_global_relabel,
    realigned_corpus,
    sample_sync_instance,
)
from unshuffle.two_block import unshuffle2


def _say(line):
    acceptance_lines.append(line)
    print(line, file=sys.__stdout__, flush=True)  # visible under -s


@contextmanager
def criterion(num, description):
    start = time.time()
    try:
        yield
    except BaseException:
        _say(f"[FAIL] criterion {num:2d}: {description}")
        raise
    _say(f"[PASS] criterion {num:2d}: {description} ({time.time() - start:.1f}s)")


def test_criterion_01_worked_algebra_examples():
    with criterion(1, "worked block/coherent permutation examples, exact"):
        blocks = BlockStructure((4, 3, 3, 2))
        sigma = from_one_line((4, 2, 1, 3))
        assert to_one_line(block_permutation(sigma, blocks)) == \
            (9, 10, 11, 12, 4, 5, 6, 1, 2, 3, 7, 8)
        assert to_one_line(coherent_block_permutation(sigma, blocks)) == \
            (11, 12, 5, 6, 7, 1, 2, 3, 4, 8, 9, 10)


def test_criterion_02_inverse_identities():
    with criterion(2, "inverse identities over all sigma, M <= 4, "
                      "100 random block structures"):
        rng = make_rng(1000)
        checked = 0
        while checked < 100:
            m = int(rng.integers(1, 5))
            lengths = tuple(int(x) for x in rng.integers(1, 9, size=m))
            blocks = BlockStructure(lengths)
            for sigma in all_perms(m):
                sinv = invert(sigma)
                assert invert(block_permutation(sigma, blocks)) == \
                    block_permutation(sinv, blocks.permuted(sinv))
                assert coherent_block_permutation(sigma, blocks) == \
                    invert(block_permutation(sinv, blocks))
            checked += 1


def test_criterion_03_two_block_reproduction():
    with criterion(3, "two-block recovery >= 90/100 at q=3, L=100, N=80"):
        blocks = BlockStructure((40, 60))
        hits = 0
        for seed in range(100):
            params = ModelParams(q=3, blocks=blocks, num_messages=80,
                                 noise_fraction=0.5, shuffle=0.3, seed=seed)
            corpus, truth = generate(params)
            hits += two_block_recovery(unshuffle2(corpus), truth)
        assert hits >= 90, f"only {hits}/100 exact recoveries"


def _all_arrangement_corpus(lengths):
    blocks = BlockStructure(lengths)
    template = np.arange(blocks.total, dtype=np.int64)
    cols = [apply_perm(coherent_block_permutation(s, blocks), template)
            for s in all_perms(blocks.block_count)]
    return ShuffledCorpus(values=np.column_stack(cols), q=blocks.total), blocks


def test_criterion_04_partition_profile_maxima():
    with criterion(4, "partition profile maxima 12 and 30, symmetry, "
                      "subset-sum recurrence"):
        for lengths, expected_max in [((3, 5, 6, 7), 12),
                                      ((6, 9, 11, 12, 13), 30)]:
            corpus, blocks = _all_arrangement_corpus(lengths)
            sizes = partition_profile(corpus).tolist()
            assert max(sizes) == expected_max
            # profile symmetric under row reversal
            assert sizes == sizes[::-1]
            # growth bounded along the subset sums (size at row 0 taken as 0)
            m = blocks.block_count
            sums = blocks.subset_sums()
            def profile_at(l):
                return 0 if l == 0 else sizes[l - 1]
            for j in range(len(sums) - 1):
                assert profile_at(sums[j + 1]) <= m + profile_at(sums[j])
            assert max(sizes) < m * 2 ** (m - 1)


def _six_block_params(q, seed):
    blocks = BlockStructure((11, 11, 12, 12, 16, 20))
    rng = make_rng(10_000 + seed)
    pool, seen = [], set()
    while len(pool) < 31:
        sigma = tuple(int(a) for a in rng.permutation(6))
        if sigma not in seen:
            seen.add(sigma)
            pool.append(sigma)
    mult = [16, 8, 8, 4, 4, 4, 4] + [2] * 8 + [1] * 16
    return ModelParams(q=q, blocks=blocks, num_messages=80,
                       noise_fraction=0.5, shuffle=dict(zip(pool, mult)),
                       restricted_prefix=True, seed=seed)


def test_criterion_05_six_block_reproduction():
    with criterion(5, "six-block recovery >= 45/50 at q=256; failures "
                      "appear at q=64"):
        hits = 0
        for seed in range(50):
            corpus, truth = generate(_six_block_params(256, seed))
            hits += m_block_recovery(unshuffle_m(corpus), truth)
        assert hits >= 45, f"only {hits}/50 perfect reconstructions"
        low_q_failures = 0
        for seed in range(10):
            corpus, truth = generate(_six_block_params(64, seed))
            result = unshuffle_m(corpus)
            low_q_failures += (not result.success) or (result.block_count != 6)
        assert low_q_failures >= 1, "expected at least one failure at q=64"


def test_criterion_06_closed_forms_monte_carlo():
    with criterion(6, "two-value and conserved-row closed forms within "
                      "3 sigma of Monte Carlo"):
        params = ModelParams(q=3, blocks=BlockStructure((4, 6)),
                             num_messages=20, noise_fraction=0.5, shuffle=0.3,
                             seed=101)
        for event in ("p_n", "p_2"):
            report = monte_carlo(event, params, 100_000)
            assert report.agrees, report
        for event in ("l0_exact", "l1_exact"):
            report = monte_carlo(event, params, 10_000)
            assert report.agrees, report


def test_criterion_07_gap_trend():
    with criterion(7, "two-value excess shrinks by the predicted factor "
                      "(10x slack) as N doubles"):
        diffs = {}
        for n in (10, 20):
            params = ModelParams(q=4, blocks=BlockStructure((5, 5)),
                                 num_messages=n, noise_fraction=0.5,
                                 shuffle=0.5, seed=123)
            # identical seeds pair the two estimates on the same draws
            rep_n = monte_carlo("p_n", params, 200_000)
            rep_2 = monte_carlo("p_2", params, 200_000)
            diffs[n] = rep_2.mc_estimate - rep_n.mc_estimate
        predicted_ratio = gap_decay(4, 10, 0.5)
        assert diffs[20] <= 10 * predicted_ratio * diffs[10], diffs


def test_criterion_08_prefix_partition():
    with criterion(8, "first-row partition frequency matches the birthday "
                      "closed form; distinguished prefix is exact"):
        counts = {(0, 1, 2, 3): 4, (1, 2, 3, 0): 4,
                  (2, 3, 0, 1): 4, (3, 0, 1, 2): 4}
        params = ModelParams(q=16, blocks=BlockStructure((2, 3, 4, 5)),
                             num_messages=16, noise_fraction=0.0,
                             shuffle=counts, seed=42)
        report = monte_carlo("prefix_partition", params, 10_000)
        assert report.agrees, report
        assert report.closed_form == pytest.approx(
            prefix_partition_prob(16, 4)[0])

        params_d = ModelParams(q=16, blocks=BlockStructure((2, 3, 4, 5)),
                               num_messages=16, noise_fraction=0.25,
                               shuffle=counts, distinguished_prefix=True,
                               seed=7)
        report_d = monte_carlo("prefix_partition", params_d, 1_000)
        assert report_d.mc_estimate == 1.0, report_d


def test_criterion_09_sync_objective():
    with criterion(9, "objective identities, gauge invariance, brute-force "
                      "synchronization"):
        rng = make_rng(2000)
        for _ in range(100):
            m = int(rng.integers(1, 4))
            lengths = tuple(int(x) for x in rng.integers(1, 4, size=m))
            blocks = BlockStructure(lengths)
            n_cols = int(rng.integers(2, 5))
            cols = rng.integers(0, 5, size=(blocks.total, n_cols), dtype=np.int64)
            instance = SyncInstance(columns=cols, q=5, blocks=blocks)
            assignment = PotentialAssignment(
                tuple(random_perm(m, rng) for _ in range(n_cols)))
            pair = objective_pairwise(assignment, instance)
            assert pair == pytest.approx(objective_trace(assignment, instance),
                                         abs=1e-9)
            gauge = random_perm(blocks.total, rng)
            assert objective_with_global_relabel(assignment, instance, gauge) \
                == pytest.approx(pair, abs=1e-9)
        hits = 0
        for seed in range(20):
            trial_rng = make_rng(seed)
            instance, _, _ = sample_sync_instance(
                BlockStructure((2, 3, 4)), q=17, n_cols=4, rng=trial_rng)
            aligned = realigned_corpus(instance, brute_force_sync(instance))
            hits += bool(np.all(aligned.values == aligned.values[:, :1]))
        assert hits == 20, f"brute force synchronized only {hits}/20 trials"


def test_criterion_10_oracle_equivalence():
    with criterion(10, "iterative solver matches the exhaustive per-column "
                       "realignment oracle on noiseless instances"):
        families = [
            (1, [(4,), (12,)]),
            (2, [(1, 2), (2, 2), (3, 4), (5, 7), (6, 6), (1, 11)]),
            (3, [(1, 2, 3), (2, 3, 4), (3, 4, 5), (2, 2, 2), (4, 4, 4),
                 (1, 1, 2), (2, 4, 6)]),
        ]
        q = 17
        for m, length_list in families:
            for lengths in length_list:
                blocks = BlockStructure(lengths)
                assert blocks.total <= 12
                template = np.arange(blocks.total, dtype=np.int64)
                sigmas = list(all_perms(m))[:6]
                cols = np.column_stack(
                    [apply_perm(coherent_block_permutation(s, blocks), template)
                     for s in sigmas])
                corpus = ShuffledCorpus(values=cols, q=q)

                # oracle: per column, exhaustively pick the arrangement whose
                # inverse realigns the column to the template
                oracle_perms = []
                for j, true_sigma in enumerate(sigmas):
                    found = None
                    for sigma in all_perms(m):
                        inv = invert(coherent_block_permutation(sigma, blocks))
                        if np.array_equal(apply_perm(inv, cols[:, j]), template):
                            found = inv
                            break
                    assert found is not None
                    oracle_perms.append(found)

                result = unshuffle_m(corpus)
                assert result.success, (lengths, result.failure_reason)
                assert sorted(result.lengths) == sorted(lengths)
                aligned = result.aligned.values
                # all columns land in one frame ...
                assert np.all(aligned == aligned[:, :1])
                # ... which is a relabeling of the oracle's frame (the
                # template itself), by one common position permutation
                assert sorted(aligned[:, 0].tolist()) == template.tolist()
                frames = {compose(invert(p), result.column_perms[j])
                          for j, p in enumerate(oracle_perms)}
                assert len(frames) == 1
