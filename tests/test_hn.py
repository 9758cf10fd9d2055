import math
import tracemalloc

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from opencat import experiments, metaplectic, quantizer
from opencat.errors import ConfigError
from opencat.hn import (dft_sector, fold_parity, parity_defect, planck, sector_basis,
                        sector_embedding, torus_rep_array, unfold_parity)
from opencat.metaplectic import OMEGA_S, _chirp, _run_steps, apply_word, quantize_word

from helpers import (chirp_diagonal, dft_matrix, dft_sectors_oracle, fold_matrix, fold_pairs,
                     multiset_distance, unfold_q)


def test_planck_values():
    assert planck(100) == pytest.approx(0.00159155, abs=1e-8)
    assert planck(1) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-15)
    assert planck(64) * 2.0 * math.pi * 64 == pytest.approx(1.0, rel=1e-15)


def test_planck_rejects_nonpositive():
    with pytest.raises(ConfigError, match="dimension N = 0 must be positive"):
        planck(0)
    with pytest.raises(ConfigError, match="dimension N = -3 must be positive"):
        planck(-3)


def test_dft_small_cases():
    out = dft_matrix(2) @ np.array([1.0, 0.0])
    assert np.allclose(out, [1 / math.sqrt(2), 1 / math.sqrt(2)])
    out4 = dft_matrix(4) @ np.array([1.0, 1.0, 1.0, 1.0])
    assert np.allclose(out4, [2.0, 0.0, 0.0, 0.0], atol=1e-14)
    # the kernel sign: e^{-2 pi i m k / N} at N = 4 sends e_1 to powers of -i
    assert np.allclose(dft_matrix(4)[:, 1], [0.5, -0.5j, -0.5, 0.5j], atol=1e-15)
    # at N = 2 both basis vectors are fixed by parity: the even block is F
    assert np.array_equal(dft_sector(2, 1), dft_matrix(2)) and dft_sector(2, -1).shape == (0, 0)
    # at N = 4 the odd sector is (e_1 - e_3)/sqrt(2), which F sends to -i times itself
    assert np.allclose(dft_sector(4, -1), [[-1j]], atol=1e-15)
    # the opposite kernel sign reaches the map only through quantize_word's sign=+1,
    # which passes conj(F) to the word: S_INV then quantizes to conj(omega) times that kernel
    s_inv = quantize_word([("S_INV",)], 4, sign=1)
    assert np.allclose(s_inv * OMEGA_S, dft_matrix(4).conj(), atol=1e-15)
    assert np.allclose((s_inv * OMEGA_S)[:, 1], [0.5, 0.5j, -0.5, -0.5j], atol=1e-15)


@pytest.mark.parametrize("n", [2, 4, 96, 768])
def test_dft_symmetric_bitwise(n):
    # apply_word and op_left_separable use F_s^dag = conj(F_s), which needs
    # each sector block to equal its transpose exactly
    for parity in (1, -1):
        f = dft_sector(n, parity)
        assert np.array_equal(f, f.T)


def test_dft_sector_is_built_fresh_and_read_only():
    # no cache: each call builds a new block, which the caller holds and passes on
    assert metaplectic.dft_sector is experiments.dft_sector is dft_sector
    # perfbench/tracing.py calls cache_info() on any dft_matrix bound there
    assert not hasattr(quantizer, "dft_matrix") and not hasattr(metaplectic, "dft_matrix")
    block = dft_sector(8, 1)
    assert dft_sector(8, 1) is not block and np.array_equal(dft_sector(8, 1), block)
    assert not block.flags.writeable and not dft_sector(8, -1).flags.writeable


@pytest.mark.parametrize("n", [2, 3, 16, 65, 256, 1024])
def test_dft_unitary(n):
    f = dft_matrix(n)
    assert np.abs(f.conj().T @ f - np.eye(n)).max() < 1e-13
    if n % 2 == 0:
        for f_s in map(dft_sector, (n, n), (1, -1)):
            assert np.abs(f_s.conj().T @ f_s - np.eye(len(f_s))).max(initial=0.0) < 1e-13


def test_dft_norm_preserved():
    rng = np.random.default_rng(3)
    for f in map(dft_sector, (128, 128), (1, -1)):
        v = rng.standard_normal(len(f)) + 1j * rng.standard_normal(len(f))
        assert np.linalg.norm(f @ v) == pytest.approx(np.linalg.norm(v), abs=1e-13)
        assert np.allclose(f.conj().T @ (f @ v), v, atol=1e-13)


@pytest.mark.parametrize("n", [4, 32, 100])
def test_dft_order_four(n):
    for f in map(dft_sector, (n, n), (1, -1)):
        assert np.abs(np.linalg.matrix_power(f, 4) - np.eye(len(f))).max() < 1e-12


@pytest.mark.parametrize("n", [2, 4, 16, 32, 96, 130])
def test_dft_sectors_match_folded_oracle(n):
    even, odd = dft_sector(n, 1), dft_sector(n, -1)
    even_o, odd_o, _ = fold_matrix(dft_matrix(n))
    assert even.shape == (n // 2 + 1,) * 2 and odd.shape == (n // 2 - 1,) * 2
    assert np.abs(even - even_o).max() <= 1e-15
    assert n == 2 or np.abs(odd - odd_o).max() <= 1e-15


@pytest.mark.parametrize("n", [2, 4, 6, 96, 768, 2048])
def test_dft_sectors_bitwise_match_oracle(n):
    # cos and sin over half of each block, mirrored, round every entry as the
    # complex exponentials on the full blocks do; 1/N is inexact at N = 768
    even_o, odd_o, _ = dft_sectors_oracle(n)
    assert np.array_equal(dft_sector(n, 1), even_o) and np.array_equal(dft_sector(n, -1), odd_o)


@settings(max_examples=40, deadline=None)
@given(h=st.integers(1, 256))
def test_dft_sector_bitwise_matches_oracle_on_random_even_n(h):
    # each sector is built in its own passes, the odd one from its row 1,
    # so its chunk edges fall elsewhere than the even one's
    n = 2 * h
    even_o, odd_o, _ = dft_sectors_oracle(n)
    assert np.array_equal(dft_sector(n, 1), even_o) and np.array_equal(dft_sector(n, -1), odd_o)


def test_dft_sectors_cold_build_memory():
    # a pass holds temporaries of a few rows and mirrors its rows into the
    # columns as it goes, so a cold build of one sector peaks close to that
    # one block
    n = 512
    for parity in (1, -1):
        block = (n // 2 + parity) ** 2 * 16
        tracemalloc.start()
        try:
            dft_sector(n, parity)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * block


def test_dft_sectors_reject_odd_and_nonpositive_n():
    for parity in (1, -1):
        with pytest.raises(ConfigError, match="dimension N = 7 must be even"):
            dft_sector(7, parity)
        with pytest.raises(ConfigError, match="dimension N = 0 must be positive"):
            dft_sector(0, parity)


@settings(max_examples=40, deadline=None)
@given(h=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_fold_parity_round_trip(h, seed):
    n = 2 * h
    rng = np.random.default_rng(seed)
    par = -np.arange(n) % n
    b = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    a = b + b[np.ix_(par, par)]
    even, odd, defect = fold_matrix(a)
    assert (even.shape, odd.shape) == ((h + 1, h + 1), (h - 1, h - 1))
    assert defect < 1e-15
    assert np.abs(unfold_parity(even, odd) - a).max() < 1e-14
    # the sectors carry the whole spectrum
    assert multiset_distance(np.concatenate([np.linalg.eigvals(even),
                                             np.linalg.eigvals(odd)]),
                             np.linalg.eigvals(a)) < 1e-10
    # a diagonal folds to the diagonals of its matrix's sectors
    d = rng.uniform(-1, 1, n)
    d = d + d[par]
    even_m, odd_m, _ = fold_matrix(np.diag(d))
    assert parity_defect(d) == 0.0
    assert np.allclose(fold_parity(d, 1), np.diag(even_m), atol=1e-15)
    assert np.allclose(fold_parity(d, -1), np.diag(odd_m), atol=1e-15)
    # a part that is odd under parity is what the fold drops, and measures
    assert fold_matrix(a + (b - b[np.ix_(par, par)]))[2] > 1e-3 or n == 2
    assert parity_defect(d + np.arange(n)) > 1e-3 or n == 2


def assert_folds_bitwise(d):
    # the fold from the basis against the pairwise formula, on the float view
    even, odd, defect = fold_pairs(d)
    assert np.array_equal(fold_parity(d, 1).view(float), even.view(float))
    assert np.array_equal(fold_parity(d, -1).view(float), odd.view(float))
    assert parity_defect(d) == defect


@settings(max_examples=60, deadline=None)
@given(h=st.integers(1, 256), seed=st.integers(0, 2**32 - 1),
       letter=st.integers(-3, 3).filter(lambda b: b != 0).map(lambda b: ("U", b)))
def test_fold_parity_bitwise_matches_pairwise_formula(h, seed, letter):
    # a fixed point's entry is (d + d) * 0.5, exactly d; the U chirp the
    # word reads is the full chirp, and its fold into the sector the block
    # letters run in is the pairwise fold
    n = 2 * h
    rng = np.random.default_rng(seed)
    assert_folds_bitwise(rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
    chirp = chirp_diagonal(letter, n)
    assert_folds_bitwise(chirp)
    assert np.array_equal(_chirp(letter, n).view(float), chirp.view(float))
    for parity, folded in zip((1, -1), fold_pairs(chirp)):
        assert np.array_equal(fold_parity(_chirp(letter, n), parity).view(float),
                              folded.view(float))


@pytest.mark.parametrize("n", [2, 4, 10])
def test_sector_basis_gives_the_fold(n):
    # row s of q is sector basis vector s, even then odd, in the basis e_m
    h = n // 2
    q = np.zeros((n, n))
    start = 0
    for parity in (1, -1):
        index, partner, weight = sector_basis(n, parity)
        rows = start + np.arange(len(index))
        q[rows, partner] = parity * weight
        q[rows, index] = weight
        start += len(index)
    assert start == n
    assert np.abs(q @ q.T - np.eye(n)).max() < 1e-15
    a = np.random.default_rng(n).uniform(-1, 1, (n, n))
    even, odd, _ = fold_matrix(a)
    folded = q @ a @ q.T
    assert np.abs(folded[:h + 1, :h + 1] - even).max() < 1e-14
    assert np.abs(folded[h + 1:, h + 1:] - odd).max(initial=0.0) < 1e-14
    for parity in (1, -1):
        with pytest.raises(ConfigError, match=f"dimension N = {n + 1} must be even"):
            sector_basis(n + 1, parity)


@pytest.mark.parametrize("n", [2, 4, 6, 64, 130])
def test_unfold_parity_bitwise_matches_q_oracle(n):
    # each entry of Q^T B Q has one nonzero product, weight[j] B weight[k],
    # so the gather through the embedding gives the dense products' bits
    rng = np.random.default_rng(n)
    even, odd = ((rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size)))
                 for size in (n // 2 + 1, n // 2 - 1))
    assert np.array_equal(unfold_parity(even, odd).view(float), unfold_q(even, odd).view(float))


@pytest.mark.parametrize("n", [2, 4, 10, 64])
def test_sector_embedding_agrees_with_sector_basis(n):
    # e_j's place and weight are where basis vector s carries e_j, entry by
    # entry: weight[s] at index[s], parity weight[s] at partner[s], and an
    # odd-sector fixed point, which no vector carries, weight 0
    for parity in (1, -1):
        index, partner, weight = sector_basis(n, parity)
        place, signed = sector_embedding(n, parity)
        assert place.shape == signed.shape == (n,)
        carried = np.zeros(n, dtype=bool)
        for s, (j, k, w) in enumerate(zip(index, partner, weight)):
            assert place[j] == place[k] == s
            assert signed[j] == w and signed[k] == (w if j == k else parity * w)
            carried[[j, k]] = True
        assert not signed[~carried].any()
        assert set(np.flatnonzero(~carried)) == (set() if parity == 1 else {0, n // 2})


@pytest.mark.parametrize("n", [2, 4, 6, 64])
def test_sector_rows_unfold_and_fold_back(n):
    # the word's executor unfolds blocks of rows to N entries through the
    # embedding and folds them back through the basis: with no step between,
    # the rows come back, float rows as complex, over several blocks of
    # rows, and N = 2's empty odd sector writes nothing
    rng = np.random.default_rng(n)
    for parity in (1, -1):
        size = n // 2 + parity
        for x in (rng.standard_normal((21, size)) + 1j * rng.standard_normal((21, size)),
                  np.eye(size)):
            out = np.zeros((len(x), size), dtype=complex)
            _run_steps(x, [], 1.0, n, parity, slice(None), out)
            assert np.abs(out - x).max(initial=0.0) <= 4e-16 * np.abs(x).max(initial=0.0)
    rows = np.empty((3, 0))
    assert apply_word(rows, [("U", 1), ("S_INV",)], None, 2, -1).shape == (3, 0)


def test_torus_rep():
    xs = np.array([0.75, -0.5, 3.0, 0.5, 0.49])
    assert np.array_equal(torus_rep_array(xs)[1:4], [-0.5, 0.0, -0.5])
    assert np.allclose(torus_rep_array(xs), [-0.25, -0.5, 0.0, -0.5, 0.49])
