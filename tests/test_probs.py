"""Closed-form probabilities and the Monte Carlo verification harness."""

import itertools
import math
from fractions import Fraction

import pytest
from conftest import column_sigmas, row_partition
from hypothesis import assume, given, settings, strategies as st

from unshuffle.model import ModelParams, generate, make_rng
from unshuffle.partitions import row_stats
from unshuffle.perms import BlockStructure, all_perms
from unshuffle.probs import (
    CHUNK_SYMBOLS,
    MC_EVENTS,
    _conserved_hits,
    _prefix_hits,
    _report,
    gap_decay,
    l_sets_exact_prob,
    monte_carlo,
    occupancy,
    p2_closed,
    p_n_closed,
    prefix_partition_closed,
    prefix_partition_prob,
)


def test_noiseless_collapse():
    # [DERIVED] with no noise, a row is two-valued exactly when the template
    # value changes under the shift, which happens with probability 1 - 1/q,
    # and then the bipartition is necessarily the correct one.
    for q in (2, 3, 5, 16):
        assert p_n_closed(q, 10, 0.0, 0.5) == pytest.approx(1 - 1 / q)
        assert p2_closed(q, 10, 0.0, 0.5) == pytest.approx(1 - 1 / q)


def test_p2_dominates_p_n():
    for q in (2, 3, 4, 8):
        for n in (4, 10, 20):
            for lam in (0.0, 0.2, 0.5, 0.9):
                for nu in (0.25, 0.5, 0.75):
                    assert p2_closed(q, n, lam, nu) >= p_n_closed(q, n, lam, nu) - 1e-15


def test_large_n_asymptote():
    # [DERIVED] correction terms vanish like q**(1-n); at N=200 only the
    # noiseless-pair term survives at double precision.
    value = p_n_closed(3, 200, 0.5, 0.5)
    assert abs(value - (1 - 1 / 3) * 0.25) < 1e-6


def test_closed_form_validation():
    with pytest.raises(ValueError):
        p_n_closed(1, 10, 0.5, 0.5)
    with pytest.raises(ValueError):
        p_n_closed(3, 10, 0.5, 0.0)   # no swapped columns
    with pytest.raises(ValueError):
        p2_closed(3, 10, 0.5, 1.0)    # no unswapped columns
    with pytest.raises(ValueError):
        gap_decay(2, 10, 0.5)
    # The conserved-row forms take the same side rule: no -32.0 for an
    # empty side, and no (0.0, 0.0) for a one-symbol alphabet.
    for q, nu in ((3, 0.0), (3, 1.0), (1, 0.5)):
        with pytest.raises(ValueError):
            l_sets_exact_prob(q, 20, 10, 0.5, nu)


@pytest.mark.parametrize("n", [1028, 2000, 2100, 5000])
def test_p2_stays_finite_when_a_side_is_wide(n):
    # 2**(c - 1) for a side of c columns overflows past c = 1024; the split
    # of a side is taken in log space, so p_2 stays a probability.
    for q in (2, 3, 256):
        for lam in (0.0, 0.5, 1.0):
            for nu in (0.3, 0.5):
                p2, pn = p2_closed(q, n, lam, nu), p_n_closed(q, n, lam, nu)
                assert math.isfinite(p2) and pn - 1e-15 <= p2 <= 1.0, (q, lam, nu)


def p2_exact(q, n0, n1, lam):
    """p_2 in exact rational arithmetic, with each side's split count
    2**(c - 1) - 1 written as an integer."""
    lam = Fraction(lam)
    bar = 1 - lam
    pw = [Fraction(1, q ** c) for c in range(n0 + n1)]  # q**-c
    split0, split1 = ((2 ** (c - 1) - 1) * pw[c - 1] for c in (n0, n1))
    p_n = bar ** 2 + bar * lam * (pw[n1 - 1] + pw[n0 - 1]) + lam ** 2 * pw[n0 + n1 - 2]
    extra = ((bar * lam + lam ** 2 * pw[n0 - 1]) * split1
             + (lam * bar + lam ** 2 * pw[n1 - 1]) * split0 + lam ** 2 * split0 * split1)
    return (1 - Fraction(1, q)) * (p_n + 2 * extra)


def test_p2_matches_exact_arithmetic():
    for q in (2, 3, 4, 7):
        for n in (2, 3, 5, 10, 40, 120):
            for lam in (0.0, 0.2, 0.5, 1.0):
                for nu in (0.1, 0.3, 0.5, 0.8):
                    n1 = math.ceil(nu * n)
                    if not 0 < n1 < n:
                        continue
                    assert p2_closed(q, n, lam, nu) == pytest.approx(
                        float(p2_exact(q, n - n1, n1, lam)), rel=0, abs=1e-12)


def test_gap_decay_values():
    assert gap_decay(4, 10, 0.5) == pytest.approx(2.0 ** -5)
    assert gap_decay(4, 20, 0.5) == pytest.approx(2.0 ** -10)
    assert gap_decay(6, 10, 0.3) == pytest.approx(3.0 ** -3)


def test_l_sets_exact_prob():
    # [DERIVED] each of the k noise loci stays detectable unless all columns
    # on a side happen to agree there: miss probability q**(1-side size).
    p0, p1 = l_sets_exact_prob(3, 20, 10, 0.5, 0.3)
    assert p0 == pytest.approx((1 - 3.0 ** -13) ** 5)
    assert p1 == pytest.approx((1 - 3.0 ** -5) ** 5)


def test_prefix_partition_prob():
    exact, approx = prefix_partition_prob(16, 4)
    assert exact == pytest.approx((15 / 16) * (14 / 16) * (13 / 16))
    assert approx == pytest.approx(math.exp(-16 / 32))
    assert prefix_partition_prob(3, 5)[0] == 0.0
    with pytest.raises(ValueError):
        prefix_partition_prob(4, 0)


@pytest.mark.parametrize("q, n", [(2, 2), (3, 5), (7, 5), (256, 80), (256, 1200),
                                  (4096, 400)])
def test_occupancy_matches_monte_carlo(q, n):
    trials = 2000
    counts = row_stats(make_rng(q * n).integers(0, q, size=(trials, n)))[0]
    mean, sd = occupancy(q, n)
    assert abs(counts.mean() - mean) <= 4 * sd / math.sqrt(trials)
    assert counts.std() == pytest.approx(sd, rel=0.1)


def test_occupancy_exact_values():
    # [DERIVED] two fair bits: one or two distinct values, equally likely.
    assert occupancy(2, 2) == (1.5, 0.5)
    assert occupancy(17, 1) == (pytest.approx(1.0), pytest.approx(0.0, abs=1e-6))
    # With q much larger than n the variance is about the expected number
    # of colliding pairs, C(n, 2)/q, far below double precision near 1.
    assert occupancy(2 ** 32, 80)[1] == pytest.approx(math.sqrt(80 * 79 / 2 / 2 ** 32),
                                                      rel=1e-6)
    assert occupancy(4, 0) == (0.0, 0.0)
    for q, n in ((1, 5), (4, -1)):
        with pytest.raises(ValueError):
            occupancy(q, n)


def stirling2(r, s):
    """Stirling number of the second kind via the standard recurrence."""
    if r < 0 or s < 0:
        raise ValueError("negative arguments")
    if s > r:
        return 0
    row = [1] + [0] * s  # S(0, 0) = 1
    for _ in range(r):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, s + 1)]
    return row[s]


def test_stirling2_values():
    # [DERIVED] standard table
    assert stirling2(4, 2) == 7
    assert [stirling2(5, s) for s in range(6)] == [0, 1, 15, 25, 10, 1]
    assert stirling2(0, 0) == 1
    assert stirling2(3, 5) == 0
    with pytest.raises(ValueError):
        stirling2(-1, 2)


def test_two_value_correction_identity():
    # [DERIVED] (2**(r-1) - 1)(q - 1) q**(1-r) equals the count of ways to
    # split r columns into two nonempty labelled groups with two distinct
    # values: S(r,2) * C(q,2) * 2! / q**r.
    for r in range(2, 11):
        for q in range(3, 9):
            lhs = (2 ** (r - 1) - 1) * (q - 1) * q ** (1 - r)
            rhs = stirling2(r, 2) * math.comb(q, 2) * 2 / q ** r
            assert lhs == pytest.approx(rhs)


def params_for(event):
    return ModelParams(q=3, blocks=BlockStructure((4, 6)), num_messages=20,
                       noise_fraction=0.5, shuffle=0.3, seed=17)


@pytest.mark.parametrize("event", ["p_n", "p_2"])
def test_mc_two_value_agrees(event):
    report = monte_carlo(event, params_for(event), 20_000)
    assert report.agrees
    assert report.trials == 20_000


@pytest.mark.parametrize("event", ["l0_exact", "l1_exact"])
def test_mc_conserved_agrees(event):
    report = monte_carlo(event, params_for(event), 2_000)
    assert report.agrees


def test_mc_prefix_partition_agrees():
    counts = {(0, 1, 2, 3): 4, (1, 2, 3, 0): 4, (2, 3, 0, 1): 4, (3, 0, 1, 2): 4}
    params = ModelParams(q=16, blocks=BlockStructure((2, 3, 4, 5)),
                         num_messages=16, noise_fraction=0.0, shuffle=counts,
                         seed=42)
    report = monte_carlo("prefix_partition", params, 2_000)
    assert report.agrees
    # With no noise loci the exact form is the birthday product, bit for bit.
    assert report.closed_form == prefix_partition_prob(16, 4)[0]


def test_agreement_takes_exact_binomial_tails():
    # [DERIVED] At the verify_prob bench settings (1000 trials) one miss of
    # l0_exact (closed form 0.9999969) has probability 0.31%, above half of
    # the two-sided level 0.0027, so it agrees; 3 normal standard errors
    # (5.6e-5 each) failed it.  712 hits of prefix_partition against 0.6665
    # (3.05 errors) have an upper tail of 0.11% and still fail.
    p0, _ = l_sets_exact_prob(3, 20, 10, 0.5, 0.3)
    assert _report("l0_exact", p0, 999, 1000).agrees
    assert not _report("l0_exact", p0, 998, 1000).agrees
    closed, _ = prefix_partition_prob(16, 4)
    assert not _report("prefix_partition", closed, 712, 1000).agrees
    assert _report("prefix_partition", closed, 711, 1000).agrees
    # A certain event fails on any miss, an impossible one on any hit.
    assert _report("prefix_partition", 1.0, 1000, 1000).agrees
    assert not _report("prefix_partition", 1.0, 999, 1000).agrees
    assert _report("p_n", 0.0, 0, 100).agrees
    assert not _report("p_n", 0.0, 1, 100).agrees


@pytest.mark.parametrize("p", [0.03, 0.5, 0.6665, 0.97, 0.9999969])
def test_agreement_matches_the_tail_sums(p):
    # Oracle: each tail summed term by term from math.comb; a count agrees
    # unless the tail beyond it on its side of the mean is below 0.00135.
    trials = 200
    pmf = [math.comb(trials, j) * p ** j * (1 - p) ** (trials - j) for j in range(trials + 1)]
    for hits in range(trials + 1):
        tail = sum(pmf[hits:]) if hits > trials * p else sum(pmf[:hits + 1])
        assert _report("p_n", p, hits, trials).agrees == (tail >= 0.0027 / 2), hits


def test_mc_determinism_and_serialization():
    r1 = monte_carlo("p_n", params_for("p_n"), 5_000)
    r2 = monte_carlo("p_n", params_for("p_n"), 5_000)
    assert r1 == r2
    assert r1.event == "p_n"
    assert r1.trials == 5_000


def test_mc_input_validation():
    with pytest.raises(ValueError):
        monte_carlo("p_n", params_for("p_n"), 10)
    with pytest.raises(ValueError):
        monte_carlo("unknown", params_for("p_n"), 1_000)
    assert set(MC_EVENTS) == {"p_n", "p_2", "l0_exact", "l1_exact",
                              "prefix_partition"}


@pytest.mark.parametrize("event", ["l0_exact", "l1_exact", "prefix_partition"])
def test_monte_carlo_sets_the_model_up_once_and_builds_no_truths(monkeypatch, event):
    # The trials span several chunks of about CHUNK_SYMBOLS symbols.
    from unshuffle import model
    built = []
    set_up = model.Sampler.__init__
    monkeypatch.setattr(model.Sampler, "__init__",
                        lambda self, params: built.append(set_up(self, params)))
    monkeypatch.setattr(model.Batch, "truth",
                        lambda self, t: pytest.fail("a per-trial ground truth was built"))
    if event == "prefix_partition":
        params = ModelParams(q=5, blocks=BlockStructure((2, 3, 4)), num_messages=12,
                             noise_fraction=0.3, shuffle={(0, 1, 2): 6, (2, 0, 1): 6},
                             seed=4)
    else:
        params = params_for(event)
    trials = chunk_trials(params, 1, chunks=4)
    assert monte_carlo(event, params, trials).trials == trials
    assert len(built) == 1


# The per-trial Monte Carlo loops the batched events replaced, kept as the
# oracle: one generated corpus per trial, tested one row set at a time.
def conserved_hits_oracle(side, params, trials, rng):
    from unshuffle.two_block import estimate_conserved_rows
    length = params.blocks.total
    hits = 0
    for _ in range(trials):
        corpus, truth = generate(params, rng)
        rows0, rows1 = (mask.nonzero()[0].tolist()
                        for mask in estimate_conserved_rows(corpus, truth.swapped))
        noise_free = sorted(set(range(length)) - set(truth.noise_loci.tolist()))
        if side == 0:
            hits += rows0 == noise_free
        else:
            first_len = params.blocks.lengths[0]
            expected = sorted((l - first_len) % length for l in noise_free)
            hits += rows1 == expected
    return hits


def prefix_hits_oracle(params, trials, rng):
    hits = 0
    for _ in range(trials):
        corpus, truth = generate(params, rng)
        observed = frozenset(map(frozenset, row_partition(corpus.values[0])))
        by_first_block = {}
        for col, sigma in enumerate(column_sigmas(truth)):
            by_first_block.setdefault(sigma[0], []).append(col)
        induced = frozenset(frozenset(cols) for cols in by_first_block.values())
        hits += observed == induced
    return hits


def chunk_trials(params, extra, chunks=1):
    """A trial count ``extra`` trials past the boundary of the batched
    events' first ``chunks`` chunks (of about CHUNK_SYMBOLS symbols)."""
    step = max(1, CHUNK_SYMBOLS // (params.blocks.total * params.num_messages))
    return chunks * step + extra


@settings(max_examples=40, deadline=None)
@given(side=st.sampled_from([0, 1]),
       q=st.integers(2, 5), lengths=st.tuples(st.integers(2, 8), st.integers(2, 8)),
       n=st.integers(8, 20), lam=st.sampled_from([0.0, 0.2, 0.5, 1.0]),
       nu=st.sampled_from([0.1, 0.3, 0.5, 0.8]), restricted=st.booleans(),
       extra=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
def test_batched_conserved_rows_match_per_trial_loop(side, q, lengths, n, lam, nu,
                                                     restricted, extra, seed):
    params = ModelParams(q=q, blocks=BlockStructure(lengths), num_messages=n,
                         noise_fraction=lam, shuffle=nu, restricted_prefix=restricted)
    assume(0 < params.shuffled_count < n)
    assume(params.noise_count <= sum(lengths) - 2 * restricted)
    trials = chunk_trials(params, extra)
    closed, hits = _conserved_hits(params, trials, make_rng(seed), side)
    assert closed == l_sets_exact_prob(q, n, sum(lengths), lam, nu)[side]
    assert hits == conserved_hits_oracle(side, params, trials, make_rng(seed))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), q=st.integers(2, 6), m=st.integers(1, 4),
       lam=st.sampled_from([0.0, 0.3, 1.0]), prefix=st.sampled_from(["", "restricted", "distinguished"]),
       extra=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
def test_batched_prefix_partition_matches_per_trial_loop(data, q, m, lam, prefix,
                                                         extra, seed):
    lengths = data.draw(st.tuples(*[st.integers(1, 5)] * m))
    sigmas = data.draw(st.lists(st.sampled_from(list(all_perms(m))), min_size=1,
                                max_size=5, unique=True))
    counts = {s: data.draw(st.integers(2, 8)) for s in sigmas}
    assume(sum(lengths) * sum(counts.values()) >= 48)  # chunks of at most 341 trials
    assume(prefix != "distinguished" or q >= m)
    params = ModelParams(q=q, blocks=BlockStructure(lengths),
                         num_messages=sum(counts.values()), noise_fraction=lam,
                         shuffle=counts, restricted_prefix=prefix == "restricted",
                         distinguished_prefix=prefix == "distinguished")
    assume(params.noise_count <= sum(lengths) - (m if prefix else 0))
    trials = chunk_trials(params, extra)
    closed, hits = _prefix_hits(params, trials, make_rng(seed), None)
    assert closed == prefix_partition_closed(params)
    assert hits == prefix_hits_oracle(params, trials, make_rng(seed))


def prefix_enumeration(params):
    """The first-row event's probability by enumerating every noise-locus
    set the generator can draw, in exact arithmetic: each is equally
    likely; a noisy start shared by c columns needs them to agree
    (1 / q**(c-1)), and the groups' values must then be pairwise distinct."""
    q = params.q
    columns = {}
    for sigma, count in params.perm_counts().items():
        columns[sigma[0]] = columns.get(sigma[0], 0) + count
    if params.distinguished_prefix:
        return Fraction(1)
    birthday = Fraction(1)
    for i in range(len(columns)):
        birthday *= Fraction(q - i, q)
    starts = params.blocks.block_starts
    allowed = [l for l in range(params.blocks.total)
               if not (params.restricted_prefix and l in starts)]
    total, sets = Fraction(0), 0
    for loci in itertools.combinations(allowed, params.noise_count):
        weight = Fraction(1)
        for block, count in columns.items():
            if starts[block] in loci:
                weight /= q ** (count - 1)
        total += weight
        sets += 1
    return birthday * total / sets


@settings(max_examples=80, deadline=None)
@given(data=st.data(), q=st.integers(2, 6), m=st.integers(1, 4),
       lam=st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]),
       prefix=st.sampled_from(["", "restricted", "distinguished"]))
def test_prefix_partition_closed_matches_enumeration(data, q, m, lam, prefix):
    lengths = data.draw(st.tuples(*[st.integers(1, 4)] * m))
    sigmas = data.draw(st.lists(st.sampled_from(list(all_perms(m))), min_size=1,
                                max_size=5, unique=True))
    counts = {s: data.draw(st.integers(1, 4)) for s in sigmas}
    assume(prefix != "distinguished" or q >= m)
    params = ModelParams(q=q, blocks=BlockStructure(lengths),
                         num_messages=sum(counts.values()), noise_fraction=lam,
                         shuffle=counts, restricted_prefix=prefix == "restricted",
                         distinguished_prefix=prefix == "distinguished")
    assume(params.noise_count <= sum(lengths) - (m if prefix else 0))
    assert prefix_partition_closed(params) == \
        pytest.approx(float(prefix_enumeration(params)), rel=1e-12, abs=1e-300)

