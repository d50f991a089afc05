"""Closed-form probabilities for the two-block and prefix analyses, plus a
seeded Monte Carlo harness that checks each formula against simulation.

Count conventions: the swapped-column count and the noise-locus count are
the exact integer counts the generator realizes (``model.realized_count``:
ceil of fraction times size); the closed forms take them as exponents.  One
rule, ``_sides``, gives every two-block form and simulation its two side
counts, and rejects q < 2 or an empty side before any power is taken.
Powers like q**(1 - count), and p_2's split of a side of c columns,
(2**(c - 1) - 1) q**(1 - c) = (q/2)**(1 - c) - q**(1 - c), are computed
via exp/log, so none overflows at large N or underflows inside a difference.

``monte_carlo`` looks its event up in one table, ``_EVENTS`` (the source of
``MC_EVENTS``): each row names a counter, which returns the closed form and
the number of trials in which the event happened, and the form or side it
counts (0 or 1 for p_n/p_2 and for l0/l1, None for the prefix event).  A
new event is one more row.  The two-value formulas treat the noise
membership of a position and of its shifted image as independent events of
probability lambda; their counter simulates exactly that single-row
experiment.  (A fixed noise-locus count of ceil(lambda * L) introduces an
O(1/L) dependence between the two memberships that the formulas ignore.)
The conserved-row and prefix events are simulated on full generated
corpora, where the formulas are exact.  Conserved rows come from the
two-block solver's ``two_block.side_conserved`` and partition sizes from
``partitions.row_stats``, so each check tests the code the solvers run.
Each such run sets the model up once (a ``model.Sampler``) and draws its
corpora trial by trial in the generator's RNG order, as arrays; their
assembly and the event test are batched, a chunk of about 2**14 symbols
(``CHUNK_SYMBOLS``) at a time, and no per-trial ground truth is built.

An estimate agrees with its closed form unless the exact binomial tail
beyond it, on its side of the mean, holds less than half of a two-sided
level of 0.0027 (``AGREEMENT_LEVEL``, that of 3 normal standard errors).
The test is discrete, so a correct model fails it at most that often and
less often near 0 or 1.  At the settings of the ``verify_prob`` benchmark
workload (1000 trials each) the false-alarm rates are 4.9e-6 for
``l0_exact`` (closed form 0.9999969, where a single miss agrees), 0.0015
for ``l1_exact`` (0.9796) and 0.0023 for ``prefix_partition`` (0.6665), so
one pool of 14 jobs of these three checks fails on a correct model about
5.2% of the time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .model import ModelParams, Sampler, make_rng, realized_count
from .partitions import row_stats
from .perms import identity
from .two_block import side_conserved


def _qpow(q: float, exponent: float) -> float:
    """q ** exponent in log space: 0.0 on underflow, ``inf`` on overflow."""
    try:
        return math.exp(exponent * math.log(q))
    except OverflowError:
        return math.inf


def _sides(q: int, n: int, swap_frac: float) -> tuple:
    """The realized (unswapped, swapped) column counts of a two-block model."""
    if q < 2:
        raise ValueError("alphabet size must be >= 2")
    n1 = realized_count(swap_frac, n)
    if not 0 < n1 < n:
        raise ValueError("swapped fraction must leave both sides nonempty")
    return n - n1, n1


def p_n_closed(q: int, n: int, noise_frac: float, swap_frac: float) -> float:
    """Probability that one row takes exactly two values whose inverse images
    are the swapped/unswapped column sets."""
    n0, n1 = _sides(q, n, swap_frac)
    lam = noise_frac
    lam_bar = 1.0 - lam
    body = (lam_bar ** 2
            + lam_bar * lam * (_qpow(q, 1 - n1) + _qpow(q, 1 - n0))
            + lam ** 2 * _qpow(q, 2 - n))
    return (1.0 - 1.0 / q) * body


def p2_closed(q: int, n: int, noise_frac: float, swap_frac: float) -> float:
    """Probability that one row takes exactly two values, any bipartition."""
    n0, n1 = _sides(q, n, swap_frac)
    lam = noise_frac
    lam_bar = 1.0 - lam
    split0, split1 = (_qpow(q / 2, 1 - c) - _qpow(q, 1 - c) for c in (n0, n1))
    extra = ((lam_bar * lam + lam ** 2 * _qpow(q, 1 - n0)) * split1
             + (lam * lam_bar + lam ** 2 * _qpow(q, 1 - n1)) * split0
             + lam ** 2 * split0 * split1)
    return p_n_closed(q, n, noise_frac, swap_frac) + 2.0 * (1.0 - 1.0 / q) * extra


def gap_decay(q: int, n: int, swap_frac: float) -> float:
    """Decay scale (q/2) ** (-N * min(swap, 1 - swap)) of the excess of
    two-valued rows over correctly-bipartitioned ones."""
    if q <= 2:
        raise ValueError("decay bound is vacuous for alphabet size <= 2")
    return (q / 2.0) ** (-n * min(swap_frac, 1.0 - swap_frac))


def l_sets_exact_prob(q: int, n: int, length: int,
                      noise_frac: float, swap_frac: float) -> tuple:
    """Probabilities, given the swapped set is known exactly, that the two
    conserved-row sets identify the noise-free loci exactly."""
    k = realized_count(noise_frac, length)
    return tuple((1.0 - _qpow(q, 1 - c)) ** k for c in _sides(q, n, swap_frac))


def prefix_partition_prob(q: int, k: int) -> tuple:
    """Probability that k independently uniform symbols are pairwise
    distinct (exact birthday product), with the e**(-k^2/2q) approximation."""
    if k < 1:
        raise ValueError("need at least one realized value")
    if k > q:
        return 0.0, math.exp(-k * k / (2.0 * q))
    exact = 1.0
    for i in range(k):
        exact *= 1.0 - i / q
    return exact, math.exp(-k * k / (2.0 * q))


def occupancy(q: int, n: int) -> tuple:
    """Exact mean and standard deviation of the number of distinct values
    among n uniform draws from q symbols; (1 - 2/q)**n - a**2, a = (1 - 1/q)**n,
    is taken as a**2 expm1(n log(1 - 1/(q - 1)**2)) to keep its precision."""
    if q < 2 or n < 0:
        raise ValueError("need an alphabet of at least 2 and a nonnegative draw count")
    a = math.exp(n * math.log1p(-1.0 / q))
    pair = -a * a if q == 2 else a * a * math.expm1(n * math.log1p(-1.0 / (q - 1) ** 2))
    variance = q * a * -math.expm1(n * math.log1p(-1.0 / q)) + q * (q - 1) * pair
    return q * (1.0 - a), math.sqrt(max(variance, 0.0))


def prefix_partition_closed(params: ModelParams) -> float:
    """Exact probability that row 0 splits the columns as their first blocks
    do, in the model ``params`` describes.

    Let r be the number of distinct first blocks, c_m the number of columns
    that start with block m, and k the number of noise loci.  With a
    distinguished prefix the event is certain; with a restricted prefix the
    r start values are independent and uniform, so it is the birthday
    product B(q, r).  Otherwise a start that is a noise locus must give all
    of its c_m columns one common value (probability q**(1 - c_m)), and the
    k loci meet a given set S of the r starts with the hypergeometric
    probability C(L - r, k - |S|) / C(L, k):

        B(q, r) * sum_S C(L - r, k - |S|) / C(L, k) * prod_{m in S} q**(1 - c_m).

    The sum over S runs by |S| through the elementary symmetric polynomials
    of the q**(1 - c_m); with no noise loci it is exactly 1."""
    columns = {}
    for sigma, count in params.perm_counts().items():
        columns[sigma[0]] = columns.get(sigma[0], 0) + count
    r = len(columns)
    if params.distinguished_prefix:
        return 1.0
    birthday, _ = prefix_partition_prob(params.q, r)
    if params.restricted_prefix:
        return birthday
    length, k = params.blocks.total, params.noise_count
    # elementary[j]: sum over the j-subsets S of the starts of the product.
    elementary = [1.0] + [0.0] * r
    for c in columns.values():
        x = _qpow(params.q, 1 - c)
        for j in range(r, 0, -1):
            elementary[j] += elementary[j - 1] * x
    total = sum(math.comb(length - r, k - j) / math.comb(length, k) * elementary[j]
                for j in range(min(r, k) + 1))
    return birthday * total


@dataclass(frozen=True)
class ProbReport:
    event: str
    closed_form: float
    mc_estimate: float
    mc_stderr: float
    trials: int
    agrees: bool


# Two-sided level of the agreement test: that of 3 normal standard errors.
AGREEMENT_LEVEL = 0.0027


def _far_out(hits: int, trials: int, p: float) -> bool:
    """Whether ``hits`` of ``trials`` lies so far out that the binomial tail
    beyond it, on its side of the mean ``trials * p``, holds less than half
    of ``AGREEMENT_LEVEL``.  The tail's terms are summed from ``hits``
    outward, each from the last, until the sum passes that half or a term
    reaches 0 (past the last count, or below the smallest float)."""
    if p <= 0.0 or p >= 1.0:
        return hits != trials * p  # an impossible or a certain event
    upper = hits > trials * p
    odds = p / (1.0 - p) if upper else (1.0 - p) / p
    term = math.exp(math.lgamma(trials + 1) - math.lgamma(hits + 1)
                    - math.lgamma(trials - hits + 1)
                    + hits * math.log(p) + (trials - hits) * math.log1p(-p))
    tail, j = 0.0, hits
    while term > 0.0:
        tail += term
        if tail >= AGREEMENT_LEVEL / 2:
            return False
        term *= ((trials - j) / (j + 1) if upper else j / (trials - j + 1)) * odds
        j += 1 if upper else -1
    return True


def _report(event: str, closed: float, hits: int, trials: int) -> ProbReport:
    est = hits / trials
    # The reported standard error is the binomial one under the closed form
    # (the null hypothesis); the verdict takes the exact binomial tails, so
    # a near-certain event is not failed on a single miss.
    p = min(max(closed, 0.0), 1.0)
    stderr = math.sqrt(max(p * (1.0 - p), 1e-12) / trials)
    return ProbReport(event=event, closed_form=closed, mc_estimate=est,
                      mc_stderr=stderr, trials=trials,
                      agrees=not _far_out(hits, trials, p))


def _simulate_two_value_rows(q, n, noise_frac, swap_frac, trials, rng):
    """Vectorized single-row experiment: independent noise membership for the
    position and its shifted image, exact column counts per side.  Returns
    the p_n and the p_2 outcomes, the two-value counter's forms 0 and 1."""
    n0, n1 = _sides(q, n, swap_frac)
    noisy0 = rng.random(trials) < noise_frac
    noisy1 = rng.random(trials) < noise_frac
    base0 = rng.integers(0, q, size=trials)
    base1 = rng.integers(0, q, size=trials)
    vals0 = np.where(noisy0[:, None],
                     (base0[:, None] + rng.integers(0, q, size=(trials, n0))) % q,
                     base0[:, None])
    vals1 = np.where(noisy1[:, None],
                     (base1[:, None] + rng.integers(0, q, size=(trials, n1))) % q,
                     base1[:, None])
    corpora = np.concatenate([vals0, vals1], axis=1)[:, None]  # one row each
    swapped = (np.arange(n) >= n0)[None]
    both = side_conserved(corpora, ~swapped) & side_conserved(corpora, swapped)
    correct = both[:, 0] & (vals0[:, 0] != vals1[:, 0])
    return correct, row_stats(corpora[:, 0])[0] == 2


# Symbols per Monte Carlo chunk: enough trials per batch to spread its fixed
# cost (81 at the criterion-6 settings), few enough to keep the chunk small.
CHUNK_SYMBOLS = 2 ** 14


def _chunks(sampler, trials, rng):
    """Generated trials, about ``CHUNK_SYMBOLS`` symbols per chunk, as
    batches; a trial larger than that is a chunk of its own."""
    params = sampler.params
    step = max(1, CHUNK_SYMBOLS // (params.blocks.total * params.num_messages))
    for start in range(0, trials, step):
        yield sampler.batch(min(step, trials - start), rng)


def _two_value_hits(params, trials, rng, form):
    """p_n (form 0) or p_2 (form 1): its closed form, and the number of
    single-row trials in which it happens."""
    args = (params.q, params.num_messages, params.noise_fraction, float(params.shuffle))
    closed = (p_n_closed, p2_closed)[form](*args)
    return closed, int(np.count_nonzero(_simulate_two_value_rows(*args, trials, rng)[form]))


def _conserved_hits(params, trials, rng, side):
    """l0_exact (side 0) or l1_exact (side 1): its closed form, and the number
    of generated corpora in which that side's conserved rows, in its own
    frame, are exactly the noise-free loci."""
    closed = l_sets_exact_prob(params.q, params.num_messages, params.blocks.total,
                               params.noise_fraction, float(params.shuffle))[side]
    sampler = Sampler(params)
    # Per sigma: does it swap the blocks?  Gathered through each column's index.
    swaps = np.array([sigma != identity(2) for sigma in sampler.sigmas])
    hits = 0
    for batch in _chunks(sampler, trials, rng):
        # The two-block solver's rule on the columns of this side.
        conserved = side_conserved(batch.values, swaps[batch.perm_index] == side)
        noise_free = np.ones(conserved.shape, dtype=bool)
        np.put_along_axis(noise_free, batch.loci, False, axis=1)
        # The swapped columns start with the second block.
        noise_free = np.roll(noise_free, -side * params.blocks.lengths[0], axis=1)
        hits += int(np.count_nonzero((conserved == noise_free).all(axis=1)))
    return closed, hits


def _prefix_hits(params, trials, rng, _):
    """prefix_partition: its closed form, and the number of generated corpora
    whose row 0 splits the columns as their first blocks do."""
    closed = prefix_partition_closed(params)
    sampler = Sampler(params)
    first_of = np.array([sigma[0] for sigma in sampler.sigmas])
    # Every trial realizes the same multiset of permutations, so the same
    # number of distinct first blocks.
    realized = len(set(first_of.tolist()))
    hits = 0
    for batch in _chunks(sampler, trials, rng):
        # Row 0 splits the columns as their first blocks do iff the two
        # partitions and their common refinement have equally many parts.
        row0 = batch.values[:, 0]
        first_block = first_of[batch.perm_index]
        parts = row_stats(row0)[0]
        same = ((parts == realized)
                & (parts == row_stats(first_block * params.q + row0)[0]))
        hits += int(np.count_nonzero(same))
    return closed, hits


# Each event's counter, and the form or side it counts (two-block events only).
_EVENTS = {
    "p_n": (_two_value_hits, 0),
    "p_2": (_two_value_hits, 1),
    "l0_exact": (_conserved_hits, 0),
    "l1_exact": (_conserved_hits, 1),
    "prefix_partition": (_prefix_hits, None),
}
MC_EVENTS = tuple(_EVENTS)


def monte_carlo(event: str, params: ModelParams, trials: int,
                rng: Optional[np.random.Generator] = None) -> ProbReport:
    """Estimate the named event frequency and compare with its closed form."""
    if trials < 100:
        raise ValueError("too few trials for a meaningful standard error")
    if event not in _EVENTS:
        raise ValueError(f"unknown event {event!r}; expected one of {MC_EVENTS}")
    counter, index = _EVENTS[event]
    if index is not None and isinstance(params.shuffle, Mapping):
        raise ValueError(f"{event} needs a two-block swapped fraction, "
                         "not permutation counts")
    closed, hits = counter(params, trials, make_rng(params.seed) if rng is None else rng, index)
    return _report(event, closed, hits, trials)
