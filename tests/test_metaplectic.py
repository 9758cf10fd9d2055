from dataclasses import replace
import functools
import math
import tracemalloc
from unittest import mock

from hypothesis import assume, example, given, settings, strategies as st
import numpy as np
import pytest

import opencat.experiments as experiments
import opencat.metaplectic as metaplectic
from opencat.catmap import ARNOLD, CatMap
from opencat.errors import ConfigError, NumericError
from opencat.hn import dft_sector, torus_rep_array
from opencat.metaplectic import (OMEGA_S, _lower, apply_word, egorov_residual, factor_sl2z,
                                 letter_matrix, phase_factor, quantize_map, quantize_word,
                                 word_matrix)
from opencat.quantizer import cutoff_profile, cutoff_symbol, op_weyl_sector
from opencat.experiments import cutoff_sectors
from opencat.eigensolver import eigenvalues, sort_by_modulus

from helpers import (NONTRAP_SPEC, TRAPPED_SPEC, built, chirp_diagonal, dense_operator,
                     dft_sectors_oracle, fold_matrix, fold_pairs, multiset_distance, open_sectors,
                     shear, shear_map, shear_word, spectrum)


def quantize_generator(letter, n, sign=-1):
    """Reference closed-form unitary of a single letter, DFT kernel sign `sign`."""
    if n % 2:
        raise ConfigError(f"dimension N = {n} must be even")
    kind = letter[0]
    m = np.arange(n)
    f = np.exp(sign * 2j * np.pi * np.outer(m, m) / n) / math.sqrt(n)
    f_inv = f.conj().T
    if kind == "S_INV":
        return np.conj(OMEGA_S) * f
    if kind == "U":
        d = np.exp(-1j * math.pi * letter[1] * m * m / n)
        return f @ (d[:, None] * f_inv)
    if kind == "PAR":
        p = np.zeros((n, n))
        p[(n - np.arange(n)) % n, np.arange(n)] = 1.0
        return p
    raise ValueError(f"unknown letter {letter!r}")


# dft_sector builds afresh on every call; the FFT letter test reuses the
# blocks of the sizes it runs in every example
cached_dft_sector = functools.lru_cache(maxsize=16)(dft_sector)


def sector_dft(n, parity, sign=-1):
    """The sector's DFT block for apply_word, with kernel sign `sign`: conj(F) for +1."""
    f = dft_sector(n, parity)
    return f.conj() if sign == 1 else f


def quantize_word_dense(word, n, sign=-1):
    """Reference word product: identity times each letter's matrix in turn."""
    u = np.eye(n, dtype=complex)
    for letter in word:
        u = u @ quantize_generator(letter, n, sign)
    return u


def assert_alphabet_word(m):
    # every letter is S_INV, U(b) with b != 0 or PAR, and the word's product is m
    word = factor_sl2z(m)
    for letter in word:
        assert letter in (("S_INV",), ("PAR",)) or (letter[0] == "U" and len(letter) == 2
                                                     and letter[1] != 0), letter
    assert word_matrix(word) == m


@pytest.mark.parametrize("m", [ARNOLD, CatMap(0, -1, 1, 0), CatMap(-1, 0, 0, -1),
                               CatMap(2, 3, 1, 2), CatMap(-2, -1, -1, -1),
                               CatMap(1, 0, 5, 1), CatMap(7, 12, 4, 7), CatMap(1, 0, 0, 1),
                               CatMap(1, 7, 0, 1), CatMap(-1, 3, 0, -1)])
def test_factorization_reproduces_matrix(m):
    assert_alphabet_word(m)


def test_factor_single_s():
    word = factor_sl2z(CatMap(0, -1, 1, 0))
    assert word_matrix(word) == CatMap(0, -1, 1, 0)


@settings(max_examples=300, deadline=None)
@given(shears=st.lists(shear, min_size=2, max_size=6), negate=st.booleans())
def test_factorization_uses_the_three_letters(shears, negate):
    # the factorization writes only the letters the quantizer knows, over
    # products of shears of both trace signs, hyperbolic or not
    assert_alphabet_word(shear_map(shears, negate))


@pytest.mark.parametrize("bad", [("S",), ("L", 1)])
def test_letters_outside_the_alphabet_are_rejected(bad):
    # S and L(c) are words, not letters: letter_matrix and apply_word
    # raise on them, and apply_word leaves its rows as they were, even
    # after an S_INV
    with pytest.raises(ValueError):
        letter_matrix(bad)
    n = 8
    f = dft_sector(n, 1)
    x = np.random.default_rng(1).standard_normal((3, len(f))) + 0j
    for word in ([bad], [("S_INV",), bad], [("U", 1), ("S_INV",), bad, ("PAR",)]):
        buf = x.copy()
        with pytest.raises(ValueError):
            apply_word(buf, word, f, n, 1)
        assert np.array_equal(buf, x)


@pytest.mark.parametrize("bad", [("S",), ("L", 1)])
def test_lowering_rejects_letters_outside_the_alphabet(bad):
    # the letters are written down once, in the steps both executors run:
    # a letter outside the alphabet is an error there, not a parity sign,
    # wherever it stands in the word and in either sector
    for word in ([bad], [("U", 1), bad, ("S_INV",)]):
        for parity in (1, -1):
            with pytest.raises(ValueError, match="unknown letter"):
                _lower(word, 8, parity)


def test_generator_examples():
    s_inv = quantize_word([("S_INV",)], 2)
    assert np.allclose(s_inv, np.exp(1j * math.pi / 4) * np.array([[1, 1], [1, -1]]) / math.sqrt(2),
                       atol=1e-14)
    par = quantize_word([("PAR",)], 4)
    expect = np.zeros((4, 4))
    expect[0, 0] = expect[2, 2] = expect[1, 3] = expect[3, 1] = 1.0
    assert np.allclose(par, expect)
    # L(c)'s word PAR, S_INV, U(-c), S_INV is i times the chirp e^{i pi c m^2 / N}
    l1 = quantize_word(shear_word([("L", 1)]), 2)
    assert np.allclose(l1, 1j * np.diag([1.0, 1j]), atol=1e-14)
    l2 = quantize_word(shear_word([("L", 2)]), 4)
    assert np.allclose(l2, 1j * np.diag([1.0, 1j, 1.0, 1j]), atol=1e-14)


def test_odd_dimension_rejected():
    with pytest.raises(ConfigError, match="dimension N = 5 must be even"):
        quantize_word([("S_INV",)], 5)
    with pytest.raises(ConfigError, match="dimension N = 7 must be even"):
        quantize_map(ARNOLD, 7)


@pytest.mark.parametrize("n", [32, 64])
def test_map_unitary(n):
    u = quantize_map(ARNOLD, n)
    assert np.abs(u.conj().T @ u - np.eye(n)).max() < 1e-10


@pytest.mark.parametrize("letter", [("U", 16), ("S_INV",), ("U", 1), ("U", -2),
                                    ("U", 3), ("U", 33), ("PAR",)])
@pytest.mark.parametrize("kl", [(1, 0), (0, 1)])
def test_generator_egorov_pins_conventions(letter, kl):
    # at N = 16 U(16)'s chirp coefficient is -N, the end of its reduced
    # range, and U(33) is U(1) one period 2N on
    assert egorov_residual([letter], [kl], 16) < 1e-12


def test_egorov_arnold_cos_pair():
    # cos 2 pi x + cos 2 pi xi is a sum of the four plane waves (+-1, 0),
    # (0, +-1), and Egorov is linear in the symbol
    freqs = ((1, 0), (-1, 0), (0, 1), (0, -1))
    assert egorov_residual(factor_sl2z(ARNOLD), freqs, 32) < 1e-8


def test_egorov_identity_word():
    assert egorov_residual([], [(1, 0)], 16) < 1e-13


def test_egorov_constant_symbol():
    assert egorov_residual(factor_sl2z(ARNOLD), [(0, 0)], 16) < 1e-12


def test_s_squared_is_parity_up_to_phase():
    s = quantize_word([("S_INV",)], 16)
    par = quantize_word([("PAR",)], 16)
    ratio = (s @ s)[0, 0] / par[0, 0]
    assert abs(abs(ratio) - 1.0) < 1e-12
    assert np.abs(s @ s - ratio * par).max() < 1e-10


def test_projective_inverse():
    u = quantize_map(ARNOLD, 64)
    v = quantize_map(CatMap(ARNOLD.d, -ARNOLD.b, -ARNOLD.c, ARNOLD.a), 64)
    prod = u @ v
    theta = prod[0, 0]
    assert abs(abs(theta) - 1.0) < 1e-9
    assert np.abs(prod - theta * np.eye(64)).max() < 1e-9


def test_word_independent_moduli():
    n = 64
    chi = dense_operator(built(cutoff_sectors(TRAPPED_SPEC, n), n), n)
    w1 = factor_sl2z(ARNOLD)
    w2 = shear_word([("U", 1), ("L", 1)])
    assert word_matrix(w2) == ARNOLD and w2 != w1
    m1 = np.abs(sort_by_modulus(np.linalg.eigvals(chi @ quantize_word(w1, n)))[:4])
    m2 = np.abs(sort_by_modulus(np.linalg.eigvals(chi @ quantize_word(w2, n)))[:4])
    assert np.abs(m1 - m2).max() < 1e-9


def test_chi_m_vs_m_chi_spectrum():
    n = 64
    chi = dense_operator(built(cutoff_sectors(TRAPPED_SPEC, n), n), n)
    u = quantize_map(ARNOLD, n)
    d = multiset_distance(np.linalg.eigvals(chi @ u), np.linalg.eigvals(u @ chi))
    assert d < 1e-8


def test_phase_mode_preserves_moduli():
    n = 64
    chi = dense_operator(built(cutoff_sectors(TRAPPED_SPEC, n), n), n)
    u_plain = quantize_map(ARNOLD, n)
    u_norm = u_plain * phase_factor(sort_by_modulus(eigenvalues(chi @ u_plain))[0])
    m_plain = np.abs(sort_by_modulus(np.linalg.eigvals(chi @ u_plain)))
    m_norm = np.abs(sort_by_modulus(np.linalg.eigvals(chi @ u_norm)))
    assert np.abs(m_plain - m_norm).max() < 1e-12
    vals = sort_by_modulus(np.linalg.eigvals(chi @ u_norm))
    assert vals[0].imag == pytest.approx(0.0, abs=1e-12)
    assert vals[0].real > 0


def test_phase_factor_from_eigenvalues():
    vals = np.array([0.1, -0.5j, 0.2 + 0.1j])
    lead = sort_by_modulus(vals)[0]
    assert lead == -0.5j
    assert phase_factor(lead) == pytest.approx(1j, abs=1e-15)
    assert (vals * phase_factor(lead))[1] == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(NumericError, match="cannot fix the global phase"):
        phase_factor(sort_by_modulus(np.zeros(4))[0])


@settings(max_examples=60, deadline=None)
@given(word=st.lists(shear, min_size=2, max_size=4),
       n=st.integers(2, 32).map(lambda h: 2 * h),
       kl=st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
def test_egorov_exact_on_random_hyperbolic_maps(word, n, kl):
    m = shear_map(word)
    assume(abs(m.a + m.d) > 2)
    # the factorization's word and the drawn shears' word quantize the
    # same map
    assert egorov_residual(factor_sl2z(m), [kl], n) < 1e-8
    assert egorov_residual(shear_word(word), [kl], n) < 1e-8
    # the opposite DFT sign breaks Egorov for S^-1 and for S = -I S^-1 at O(1)
    for letters in ([("S_INV",)], [("PAR",), ("S_INV",)]):
        assert egorov_residual(letters, [(1, 0), (0, 1)], n, sign=1) >= 1.0


@settings(max_examples=40, deadline=None)
@given(word=st.lists(shear, min_size=2, max_size=4), n=st.sampled_from([32, 48, 64]))
def test_word_independent_moduli_on_random_hyperbolic_maps(word, n):
    m = shear_map(word)
    assume(abs(m.a + m.d) > 2)
    # the drawn shears' word and the factorization's word quantize the same
    # map up to a global phase, which leaves the moduli unchanged
    with mock.patch.object(experiments, "factor_sl2z", lambda _: shear_word(word)):
        drawn = np.abs(sort_by_modulus(spectrum(m, TRAPPED_SPEC, n))[:4])
    factored = np.abs(sort_by_modulus(spectrum(m, TRAPPED_SPEC, n))[:4])
    assert np.abs(drawn - factored).max() < 1e-8


BENCHMARK_MAPS = [CatMap(2, 1, 1, 1), CatMap(1, 1, 1, 2), CatMap(2, -1, -1, 1),
                  CatMap(1, -1, -1, 2)]


@pytest.mark.parametrize("m", BENCHMARK_MAPS)
@pytest.mark.parametrize("n", [2, 4, 64])
def test_quantize_word_bitwise_matches_dense(m, n):
    word = factor_sl2z(m)
    assert np.abs(quantize_word(word, n) - quantize_word_dense(word, n)).max() <= 1e-12


any_letter = st.one_of(st.sampled_from([("S_INV",), ("PAR",)]),
                       st.integers(-3, 3).map(lambda b: ("U", b)))


@settings(max_examples=60, deadline=None)
@given(word=st.lists(any_letter, max_size=5),
       n=st.integers(1, 16).map(lambda h: 2 * h), sign=st.sampled_from([-1, 1]))
def test_quantize_word_bitwise_matches_dense_on_random_words(word, n, sign):
    fast = quantize_word(word, n, sign)
    assert fast.dtype == complex
    assert np.abs(fast - quantize_word_dense(word, n, sign)).max() <= 1e-12


@settings(max_examples=80, deadline=None)
@given(word=st.lists(any_letter, max_size=6),
       n=st.integers(1, 32).map(lambda h: 2 * h), sign=st.sampled_from([-1, 1]),
       rows=st.integers(1, 80), seed=st.integers(0, 2**32 - 1))
def test_apply_word_matches_dense_product(word, n, sign, rows, seed):
    # each sector's rows times the word match those rows times the sector
    # block of the dense word
    rng = np.random.default_rng(seed)
    blocks = fold_matrix(quantize_word_dense(word, n, sign))[:2]
    for parity, block in zip((1, -1), blocks):
        size = len(block)
        x = rng.uniform(-1, 1, (rows, size)) + 1j * rng.uniform(-1, 1, (rows, size))
        buf = x.copy()
        out = apply_word(buf, word, sector_dft(n, parity, sign), n, parity)
        assert out.shape == (rows, size)
        assert np.abs(out - x @ block).max(initial=0.0) <= 1e-12
        # the rows it was given are only read
        assert np.array_equal(buf, x)


@settings(max_examples=60, deadline=None)
@given(word=st.lists(shear, min_size=2, max_size=4),
       n=st.sampled_from([2, 4, 16, 32, 96]), sign=st.sampled_from([-1, 1]))
def test_sector_word_matches_dense_on_random_hyperbolic_maps(word, n, sign):
    m = shear_map(word)
    assume(abs(m.a + m.d) > 2)
    # the two sector unitaries, unfolded, are the dense product of the
    # letters, for the drawn shears' word and for the factorization's
    for w in (shear_word(word), factor_sl2z(m)):
        assert np.abs(quantize_word(w, n, sign) - quantize_word_dense(w, n, sign)).max() <= 1e-12


def assert_word_folds(word, n):
    # the part of each factor that couples the parity sectors, which the fold
    # drops, is the unreduced phases' roundoff: the DFT's, whose blocks equal
    # the oracle's bit for bit, about 5.4e-16 N, and a chirp's, whose phase
    # pi coef m^2 / N reaches pi |coef| N with coef reduced into [-N, N)
    for letter in word:
        if letter[0] == "U":
            coef = (letter[1] + n) % (2 * n) - n
            assert fold_pairs(chirp_diagonal(letter, n))[2] <= 1e-15 * n * max(1, abs(coef))
    assert dft_sectors_oracle(n)[2] <= 1e-15 * n


@settings(max_examples=40, deadline=None)
@given(word=st.lists(shear, min_size=2, max_size=4), n=st.integers(1, 128).map(lambda h: 2 * h))
def test_word_factors_commute_with_parity_on_random_words(word, n):
    assert_word_folds(shear_word(word) + factor_sl2z(shear_map(word)), n)


@pytest.mark.parametrize("m", BENCHMARK_MAPS)
@pytest.mark.parametrize("n", [512, 1024, 2048])
def test_word_factors_commute_with_parity_on_benchmark_maps(m, n):
    assert_word_folds(factor_sl2z(m), n)


@settings(max_examples=80, deadline=None)
@given(head=st.lists(any_letter, max_size=4), tail=st.lists(st.just(("PAR",)), max_size=3),
       n=st.one_of(st.integers(1, 16).map(lambda h: 2 * h), st.just(260)),
       sign=st.sampled_from([-1, 1]), rows=st.integers(1, 8), data=st.data())
def test_apply_word_narrowed_columns_match_full_product(head, tail, n, sign, rows, data):
    # the last Fourier letter forms only the requested run of columns and
    # the PAR letters after it act on them alone; a word of PAR letters
    # alone narrows x first.  The run may be empty or full, and
    # N = 260 adds a sector wider than the small ones
    word = head + tail
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    for parity, size in ((1, n // 2 + 1), (-1, n // 2 - 1)):
        start = data.draw(st.integers(0, size))
        cols = slice(start, data.draw(st.integers(start, size)))
        x = rng.uniform(-1, 1, (rows, size)) + 1j * rng.uniform(-1, 1, (rows, size))
        f = sector_dft(n, parity, sign)
        full = apply_word(x.copy(), word, f, n, parity)
        out = apply_word(x.copy(), word, f, n, parity, cols=cols)
        assert out.shape == (rows, cols.stop - cols.start)
        assert np.abs(out - full[:, cols]).max(initial=0.0) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(shears=st.lists(shear, min_size=2, max_size=4), negate=st.booleans(),
       h=st.integers(1, 200), data=st.data())
def test_fft_letter_matches_block_letter(shears, negate, h, data):
    # without a block (f None) the word runs as full-space steps, row FFTs
    # and chirps; it gives the block's product within 1e-12 for the factor
    # word of a random hyperbolic map of either trace sign, on both sectors
    # and a random run of columns.  Every example runs N = 2 (an empty odd
    # sector), 4, 6, 130 and 768 beside the drawn N.  The rows have unit
    # norm and the letters are unitary, so the bound is relative to them
    m = shear_map(shears, negate)
    assume(abs(m.a + m.d) > 2)
    word = factor_sl2z(m)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    for n in (2, 4, 6, 130, 768, 2 * h):
        for parity in (1, -1):
            size = n // 2 + parity
            start = data.draw(st.integers(0, size))
            cols = slice(start, data.draw(st.integers(start, size)))
            assert_steps_match_letters(word, n, parity, cols, rng)


def step_names(steps):
    """A lowered word's steps by name: "F", "F^dag" or "chirp"."""
    return [step if isinstance(step, str) else "chirp" for step in steps]


def assert_steps_match_letters(word, n, parity, cols, rng):
    # five unit rows through the word: full-space steps against block letters
    size = n // 2 + parity
    x = rng.uniform(-1, 1, (5, size)) + 1j * rng.uniform(-1, 1, (5, size))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    block = apply_word(x, word, cached_dft_sector(n, parity), n, parity, cols)
    fft = apply_word(x, word, None, n, parity, cols)
    assert fft.shape == block.shape == (5, cols.stop - cols.start)
    assert np.abs(fft - block).max(initial=0.0) <= 1e-12


@settings(max_examples=80, deadline=None)
@given(word=st.lists(any_letter, max_size=8), h=st.integers(4, 80),
       seed=st.integers(0, 2**32 - 1))
@example(word=[], h=4, seed=0)
@example(word=[("PAR",)], h=4, seed=1)
@example(word=[("PAR",), ("PAR",), ("PAR",)], h=5, seed=2)
@example(word=[("S_INV",), ("U", 1)], h=4, seed=3)
@example(word=[("U", 2), ("S_INV",), ("PAR",), ("U", -1)], h=6, seed=4)
@example(word=[("U", 1), ("U", -3), ("S_INV",), ("S_INV",)], h=7, seed=5)
@example(word=[("U", 0), ("PAR",), ("U", 3), ("S_INV",)], h=8, seed=6)
@example(word=[("S_INV",), ("S_INV",), ("PAR",), ("S_INV",), ("S_INV",)], h=5, seed=7)
@example(word=factor_sl2z(CatMap(3, 2, 4, 3)), h=32, seed=8)
def test_full_space_steps_match_block_letters_on_any_word(word, h, seed):
    # any string of letters, not only a hyperbolic map's factor word: the
    # lowering collapses any two adjacent transforms, F^dag F (U then
    # S_INV or U) to 1 and F F (S_INV then S_INV or U) to the sector's
    # sign, and folds those signs, the PAR signs and conj(omega) into one
    # scalar, and the steps give the block letters' product within 1e-12
    # on both sectors and a random run of columns, at N = 2, 4 and 6 and
    # at the drawn N.  No two transforms stay adjacent, so a word without
    # U runs one transform or none
    rng = np.random.default_rng(seed)
    for n in (2, 4, 6, 2 * h):
        for parity in (1, -1):
            size = n // 2 + parity
            start = int(rng.integers(0, size + 1))
            cols = slice(start, int(rng.integers(start, size + 1)))
            assert_steps_match_letters(word, n, parity, cols, rng)
            names = step_names(_lower(word, n, parity)[0])
            assert names.count("chirp") == sum(letter[0] == "U" for letter in word)
            assert all("chirp" in pair for pair in zip(names, names[1:]))
            assert (names == []) == ("chirp" not in names and word.count(("S_INV",)) % 2 == 0)


@pytest.mark.parametrize("m", BENCHMARK_MAPS)
def test_benchmark_words_lower_to_three_transforms(m):
    # every benchmark word, Arnold's (m0) among them, is U(b), S_INV,
    # (PAR), U(b'): U ends in F^dag and S_INV starts with F, so that pair
    # cancels and the word runs three transforms where its letters run five
    word = factor_sl2z(m)
    assert [letter[0] for letter in word if letter[0] != "PAR"] == ["U", "S_INV", "U"]
    for n in (64, 768):
        for parity in (1, -1):
            steps, scalar = _lower(word, n, parity)
            assert step_names(steps) == ["F", "chirp", "F", "chirp", "F^dag"]
            assert scalar == np.conj(OMEGA_S) * parity ** word.count(("PAR",))


def test_witness_word_lowers_to_two_transforms():
    # verify's time-reversal witness [3, 2, 4, 3] is S_INV, U(-2) three
    # times, S_INV and PAR: its letters run ten transforms.  The first two
    # are F F, the sector's sign (F^2 = P), and each later F^dag F
    # cancels, so it runs two.  The signs of that F F and of PAR cancel,
    # leaving conj(omega)^4 = -1 in both sectors
    word = factor_sl2z(CatMap(3, 2, 4, 3))
    assert [letter[0] for letter in word] == ["S_INV", "U"] * 3 + ["S_INV", "PAR"]
    for n in (64, 768):
        for parity in (1, -1):
            steps, scalar = _lower(word, n, parity)
            assert step_names(steps) == ["chirp", "F", "chirp", "F", "chirp"]
            assert abs(scalar + 1) < 1e-15


def test_apply_word_allocates_no_dft_sized_array():
    # neither F^dag nor a copy of a sector block is materialized: on a few
    # rows the word's peak allocation stays below one sector block, and
    # narrowed to the trapped cutoff's live columns, one run of indices,
    # it stays below F[:, live], which is a view of F.  The block and the
    # rows are made before the measurement
    n = 512
    word = factor_sl2z(ARNOLD) + [("S_INV",)]
    assert {letter[0] for letter in word} == {"S_INV", "U", "PAR"}
    f = dft_sector(n, 1)
    live = cutoff_sectors(TRAPPED_SPEC, n)[1][0][1]
    assert 0 < live.stop - live.start < n // 2 + 1
    x = np.random.default_rng(0).standard_normal((8, n // 2 + 1)).astype(complex)
    for cols, bound in ((slice(None), n // 2 + 1), (live, live.stop - live.start)):
        buf = x.copy()
        tracemalloc.start()
        try:
            apply_word(buf, word, f, n, 1, cols=cols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (n // 2 + 1) * bound * 16


@pytest.mark.parametrize("first", [[("PAR",), ("S_INV",)], [("S_INV",)], [("U", 2)],
                                   shear_word([("L", -1)]), [("PAR",)], None])
def test_apply_word_works_in_place(first):
    # the word only reads the rows it is given, whichever letters come
    # first (S = -I S^-1 and L(-1) among them), with the DFT block and
    # as full-space steps (f None): a read-only x and a read-only view of the
    # DFT block's rows both give their product and stay as they were.  A
    # letter outside the alphabet raises before any product, which with a
    # block that is not an array would raise TypeError, and the empty word
    # (first None) returns the view x[:, cols]
    n = 32
    rng = np.random.default_rng(7)
    for parity, size in ((1, n // 2 + 1), (-1, n // 2 - 1)):
        f = dft_sector(n, parity)
        before = f.tobytes()
        for word in (first + [("U", 1), ("S_INV",), ("PAR",)] if first else [],
                     first or []):
            block = fold_matrix(quantize_word_dense(word, n))[0 if parity == 1 else 1]
            for cols, dft in ((slice(None), f), (slice(2, 7), f), (slice(2, 7), None)):
                x = rng.standard_normal((9, size)) + 1j * rng.standard_normal((9, size))
                kept = x.copy()
                x.flags.writeable = False
                out = apply_word(x, word, dft, n, parity, cols=cols)
                assert np.array_equal(x, kept)
                assert np.abs(out - (kept @ block)[:, cols]).max() <= 1e-12
                assert np.shares_memory(out, x) == (not word)
                rows = apply_word(f[1:], word, dft, n, parity, cols=cols)
                assert np.abs(rows - (f[1:] @ block)[:, cols]).max() <= 1e-12
                assert f.tobytes() == before
                with pytest.raises(ValueError):
                    apply_word(x, word + [("S",)], object(), n, parity, cols=cols)


@pytest.mark.parametrize("word", [[], [("PAR",)], factor_sl2z(ARNOLD),
                                  factor_sl2z(ARNOLD) + [("S_INV",), ("PAR",)],
                                  shear_word([("L", -1)])])
def test_apply_word_writes_its_product_over_its_rows(word, monkeypatch):
    # out=x gives, bit for bit, the product of the word on a copy of x,
    # with the DFT block and as full-space steps (f None), on rows that
    # span several panels and blocks of full-space rows: each block of
    # rows is read before it is written
    monkeypatch.setattr(metaplectic, "_ROW_PANEL", 7)
    monkeypatch.setattr(metaplectic, "_FULL_ROWS", 5)
    n = 64
    rng = np.random.default_rng(11)
    for parity, size in ((1, n // 2 + 1), (-1, n // 2 - 1)):
        for dft in (dft_sector(n, parity), None):
            x = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
            want = apply_word(x.copy(), word, dft, n, parity)
            assert apply_word(x, word, dft, n, parity, out=x) is x
            assert x.tobytes() == want.tobytes()


@pytest.mark.parametrize("quant", ["left", "weyl"])
def test_open_operator_lowers_the_word_once_per_sector(quant, monkeypatch):
    # apply_word runs all of a sector's rows and lowers the word once per
    # call: at N = 768 the Weyl sectors' 385 and 383 rows, seven and six
    # 64-row panels, are lowered once each; the left route runs the block
    # letters and lowers nothing
    n = 768
    lower, calls = metaplectic._lower, []

    def counted(word, n, parity):
        calls.append(parity)
        return lower(word, n, parity)

    monkeypatch.setattr(metaplectic, "_lower", counted)
    for sector in cutoff_sectors(replace(NONTRAP_SPEC, quantization=quant), n)[1]:
        experiments.build_open_operator(ARNOLD, sector, n)
    assert calls == ([1, -1] if quant == "weyl" else [])


def test_steps_in_place_hold_one_buffer_of_rows():
    # the word written in place over the Weyl sector block at N = 768
    # unfolds _FULL_ROWS rows at a time straight into one N-wide buffer:
    # its extra peak is 0.39 MB here (0.45 MB with np.take's mode="raise",
    # which buffers its out), under 2.75 buffers (0.54 MB), and 0.71 MB
    # with each block's rows gathered into a temporary first
    n = 768
    block = op_weyl_sector(cutoff_symbol(replace(NONTRAP_SPEC, quantization="weyl")), n, 1)
    word = factor_sl2z(ARNOLD)
    tracemalloc.start()
    try:
        apply_word(block, word, None, n, 1, out=block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.75 * metaplectic._FULL_ROWS * n * 16


def test_open_spectrum_holds_one_sector_and_one_buffer():
    # a cold build at N = 512, one sector at a time: its DFT block, the
    # live x live block and the panel of rows the word is on (two panels
    # during a shear), then the factor once the panels are gone.  The
    # bracket, one DFT block + the live block + the factor + two 64-row
    # panels, counts the factor and the panels together, which are never
    # held at once: the peak is 0.87 of it here.  The word run in place on
    # a copy of the live rows, with a panel copy and a copy of the block
    # out of it, peaked at 1.00
    n = 512
    h = n // 2
    live = cutoff_sectors(TRAPPED_SPEC, n)[1][0][1]
    bound = ((h + 1) ** 2 + 2 * (live.stop - live.start) ** 2 + 2 * 64 * (h + 1)) * 16
    tracemalloc.start()
    try:
        spectrum(ARNOLD, TRAPPED_SPEC, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.95 * bound


def test_weyl_open_spectrum_holds_two_sector_blocks():
    # on the Weyl route the word writes its product in place over the
    # symbol's sector block, and no DFT block is built: the word runs as
    # full-space steps on one 16-row buffer N wide.  At N = 512
    # open_spectrum peaks under 1.25 x (one sector block, one panel of
    # live columns and the buffer), 1.81 MB, at 1.53 MB measured here;
    # with each 64-row panel's live columns a new array it peaked at 1.60
    # MB.  The word letter by letter, two 64-row panels N wide per Fourier
    # letter, peaked at 2.37 MB, with the DFT block beside the symbol block
    # at 2.61 MB, and a word on its own copy of the symbol block, with the
    # block kept alive, at 3.67 MB
    n = 512
    h = n // 2
    cutoff = cutoff_sectors(replace(NONTRAP_SPEC, quantization="weyl"), n)
    bound = ((h + 1) ** 2 + 64 * (h + 1) + 16 * n) * 16
    tracemalloc.start()
    try:
        experiments.open_spectrum(ARNOLD, cutoff, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * bound


def test_sweeps_hold_one_sector_at_a_time():
    # the sweeps solve for their top modes by Arnoldi on each live block,
    # which is freed before the next sector is built: at N = 512 the left
    # trapped sweep peaks at 0.87 of open_spectrum's bracket above, as
    # open_spectrum does, and the Weyl nontrapping sweep at 1.10 of the
    # Weyl bracket.  With the previous sector's block alive through the next
    # build they peaked at 0.94 and 1.82
    n = 512
    h = n // 2
    live = cutoff_sectors(TRAPPED_SPEC, n)[1][0][1]
    left = ((h + 1) ** 2 + 2 * (live.stop - live.start) ** 2 + 2 * 64 * (h + 1)) * 16
    weyl = ((h + 1) ** 2 + 64 * (h + 1) + 16 * n) * 16
    for sweep, bound in ((lambda: experiments.trapped_sweep(ARNOLD, TRAPPED_SPEC, [n]), 0.9 * left),
                         (lambda: experiments.nontrapping_sweep(
                             ARNOLD, replace(NONTRAP_SPEC, quantization="weyl"), [n]), 1.25 * weyl)):
        tracemalloc.start()
        try:
            sweep()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


@pytest.mark.parametrize("spec", [TRAPPED_SPEC, NONTRAP_SPEC])
@pytest.mark.parametrize("quant", ["left", "weyl"])
@pytest.mark.parametrize("n", [64, 128])
def test_open_operator_matches_dense_product(spec, quant, n, monkeypatch):
    word = factor_sl2z(ARNOLD)
    routed = replace(spec, quantization=quant)
    sectors = open_sectors(ARNOLD, routed, n)
    dense = (dense_operator(built(cutoff_sectors(routed, n), n), n)
             @ quantize_word_dense(word, n))
    # each sector is the live x live block of the folded dense product, and
    # the product's other rows in the sector are zero
    for (live, block), oracle in zip(sectors, fold_matrix(dense)[:2]):
        assert np.abs(block - oracle[live, live]).max() <= 1e-12
        assert not np.delete(oracle, np.arange(len(oracle))[live], axis=0).any()
    # split into panels of at most 7 rows, and on the Weyl route into
    # blocks of 7 full-space rows, every panel lands on its own rows
    monkeypatch.setattr(metaplectic, "_ROW_PANEL", 7)
    monkeypatch.setattr(metaplectic, "_FULL_ROWS", 7)
    for (live, block), oracle in zip(open_sectors(ARNOLD, routed, n), fold_matrix(dense)[:2]):
        assert len(metaplectic._panels(live.stop - live.start)) > 1
        assert np.abs(block - oracle[live, live]).max() <= 1e-12
    if quant == "left":
        # row m carries the factor f(x_m) of the left symbol f(x) f(xi); the
        # profile is even, so a pair of rows j, -j is live or dead together
        dead = cutoff_profile(spec)(torus_rep_array(np.arange(n) / n)) == 0
        assert dead.any() and not dead.all()
        assert not dense[dead].any()
        assert dense[~dead].any(axis=1).all()
        even, odd = sectors
        assert len(even[1]) + len(odd[1]) == np.count_nonzero(~dead)
