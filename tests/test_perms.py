"""Permutation algebra: conventions, operad composition, block permutations."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from unshuffle.perms import (
    BlockStructure,
    SizeMismatchError,
    all_coherent_block_permutations,
    all_perms,
    apply_perm,
    block_permutation,
    check_perm,
    coherent_block_permutation,
    compose,
    from_one_line,
    identity,
    invert,
    is_perm,
    operad_compose,
    random_perm,
    to_one_line,
)


def one_based(*images):
    return from_one_line(images)


def test_identity_and_invert():
    assert identity(4) == (0, 1, 2, 3)
    p = (2, 0, 3, 1)
    assert compose(p, invert(p)) == identity(4)
    assert compose(invert(p), p) == identity(4)
    assert invert(invert(p)) == p


def test_is_perm_and_check_perm():
    assert is_perm((1, 0, 2))
    assert not is_perm((0, 0, 2))
    assert not is_perm((0, 1, 3))
    with pytest.raises(ValueError):
        check_perm((0, 2))


def test_apply_convention():
    # apply_perm(p, v)[a] == v[p[a]]
    p = (2, 0, 1)
    v = np.array([10, 20, 30])
    assert apply_perm(p, v).tolist() == [30, 10, 20]
    assert apply_perm(p, (10, 20, 30)) == (30, 10, 20)


def test_apply_matches_matrix_action():
    # [DERIVED] rho(p)[a, b] = delta(b, p[a]); rho(p) @ v realizes apply_perm.
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = random_perm(5, rng)
        v = rng.integers(0, 100, size=5)
        rho = np.zeros((5, 5))
        rho[np.arange(5), list(p)] = 1.0
        assert np.array_equal(rho @ v, apply_perm(p, v).astype(float))


def test_compose_convention():
    # apply(compose(p, q), v) == apply(q, apply(p, v))
    rng = np.random.default_rng(1)
    for _ in range(20):
        p = random_perm(6, rng)
        q = random_perm(6, rng)
        v = rng.integers(0, 50, size=6)
        assert np.array_equal(apply_perm(compose(p, q), v),
                              apply_perm(q, apply_perm(p, v)))


def perms_of(n):
    return st.permutations(list(range(n))).map(tuple)


@given(data=st.data(), n=st.integers(1, 12))
def test_invert_compose_identities(data, n):
    p, q, r = (data.draw(perms_of(n)) for _ in range(3))
    e = identity(n)
    assert compose(p, invert(p)) == compose(invert(p), p) == e
    assert invert(invert(p)) == p
    assert compose(p, e) == compose(e, p) == p
    assert compose(compose(p, q), r) == compose(p, compose(q, r))
    assert invert(compose(p, q)) == compose(invert(q), invert(p))
    v = np.arange(100, 100 + n)
    assert np.array_equal(apply_perm(compose(p, q), v), apply_perm(q, apply_perm(p, v)))
    assert np.array_equal(apply_perm(invert(p), apply_perm(p, v)), v)


def test_one_line_round_trip():
    p = one_based(3, 1, 2)
    assert p == (2, 0, 1)
    assert to_one_line(p) == (3, 1, 2)


def test_block_structure_basics():
    blocks = BlockStructure((4, 3, 3, 2))
    assert blocks.total == 12
    assert blocks.block_count == 4
    assert blocks.block_starts == (0, 4, 7, 10)
    assert blocks.permuted((1, 0, 2, 3)).lengths == (3, 4, 3, 2)
    with pytest.raises(ValueError):
        BlockStructure((3, 0, 2))


def test_worked_block_permutation_example():
    # [DERIVED] reference worked example: four blocks of lengths (4,3,3,2), outer permutation
    # (4,2,1,3) in 1-based one-line form.
    blocks = BlockStructure((4, 3, 3, 2))
    sigma = one_based(4, 2, 1, 3)
    got = block_permutation(sigma, blocks)
    assert to_one_line(got) == (9, 10, 11, 12, 4, 5, 6, 1, 2, 3, 7, 8)


def test_worked_coherent_example():
    # [DERIVED] same data, coherent variant.
    blocks = BlockStructure((4, 3, 3, 2))
    sigma = one_based(4, 2, 1, 3)
    got = coherent_block_permutation(sigma, blocks)
    assert to_one_line(got) == (11, 12, 5, 6, 7, 1, 2, 3, 4, 8, 9, 10)


def test_two_block_small_examples():
    # [DERIVED] lengths (2,3), swap (2,1): the plain block permutation sends
    # a length-5 word abcde to deabc; the coherent one is the cyclic shift
    # by the first block length, sending abcde to cdeab.
    blocks = BlockStructure((2, 3))
    swap = (1, 0)
    assert to_one_line(block_permutation(swap, blocks)) == (4, 5, 1, 2, 3)
    assert to_one_line(coherent_block_permutation(swap, blocks)) == (3, 4, 5, 1, 2)
    v = np.array(list(b"abcde"))
    assert np.array_equal(apply_perm(coherent_block_permutation(swap, blocks), v),
                          np.roll(v, -2))
    assert bytes(apply_perm(block_permutation(swap, blocks), v).tolist()) == b"deabc"
    assert bytes(apply_perm(coherent_block_permutation(swap, blocks), v).tolist()) == b"cdeab"


def test_operad_identity_inners_is_block_permutation():
    rng = np.random.default_rng(2)
    for _ in range(30):
        m = int(rng.integers(1, 5))
        lengths = tuple(int(x) for x in rng.integers(1, 6, size=m))
        blocks = BlockStructure(lengths)
        sigma = random_perm(m, rng)
        inners = [identity(n) for n in lengths]
        assert operad_compose(sigma, inners) == block_permutation(sigma, blocks)


def test_operad_rejects_mismatched_inners():
    with pytest.raises(SizeMismatchError):
        operad_compose((1, 0), [identity(2)])


def test_operad_inner_permutations_act_within_blocks():
    # [DERIVED] identity outer permutation, inner reversal of each block.
    lengths = (2, 3)
    inners = [(1, 0), (2, 1, 0)]
    got = operad_compose(identity(2), inners)
    v = np.array(list(b"abcde"))
    assert bytes(apply_perm(got, v).tolist()) == b"baedc"


def test_inverse_identities_property_suite():
    # Both inverse identities, all outer permutations up to M=4, randomized
    # block lengths.
    rng = np.random.default_rng(3)
    for m in range(1, 5):
        for _ in range(10):
            lengths = tuple(int(x) for x in rng.integers(1, 7, size=m))
            blocks = BlockStructure(lengths)
            for sigma in all_perms(m):
                sinv = invert(sigma)
                assert invert(block_permutation(sigma, blocks)) == \
                    block_permutation(sinv, blocks.permuted(sinv))
                assert coherent_block_permutation(sigma, blocks) == \
                    invert(block_permutation(sinv, blocks))


def test_all_coherent_block_permutations_count():
    blocks = BlockStructure((2, 3, 4))
    cbps = dict(all_coherent_block_permutations(blocks))
    assert len(cbps) == 6
    assert cbps[identity(3)] == identity(9)


def test_subset_sums():
    blocks = BlockStructure((3, 5, 6, 7))
    sums = blocks.subset_sums()
    assert len(sums) == 16
    assert sums[0] == 0 and sums[-1] == 21
    assert sums == tuple(sorted(sums))
