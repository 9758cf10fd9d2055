import math

import numpy as np
import pytest

from opencat import metaplectic, quantizer
from opencat.errors import NonPositiveN
from opencat.hn import dft_matrix, planck, torus_rep_array
from opencat.metaplectic import OMEGA_S, apply_word


def test_planck_values():
    assert planck(100) == pytest.approx(0.00159155, abs=1e-8)
    assert planck(1) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-15)
    assert planck(64) * 2.0 * math.pi * 64 == pytest.approx(1.0, rel=1e-15)


def test_planck_rejects_nonpositive():
    with pytest.raises(NonPositiveN):
        planck(0)
    with pytest.raises(NonPositiveN):
        planck(-3)


def test_dft_small_cases():
    out = dft_matrix(2) @ np.array([1.0, 0.0])
    assert np.allclose(out, [1 / math.sqrt(2), 1 / math.sqrt(2)])
    out4 = dft_matrix(4) @ np.array([1.0, 1.0, 1.0, 1.0])
    assert np.allclose(out4, [2.0, 0.0, 0.0, 0.0], atol=1e-14)
    # the kernel sign: e^{-2 pi i m k / N} at N = 4 sends e_1 to powers of -i
    assert np.allclose(dft_matrix(4)[:, 1], [0.5, -0.5j, -0.5, 0.5j], atol=1e-15)
    # the opposite kernel sign reaches the map only through apply_word's sign=+1,
    # which takes conj(F): S_INV then quantizes to conj(omega) times that kernel
    s_inv = apply_word(np.eye(4, dtype=complex), [("S_INV",)], 4, sign=1)
    assert np.allclose(s_inv * OMEGA_S, dft_matrix(4).conj(), atol=1e-15)
    assert np.allclose((s_inv * OMEGA_S)[:, 1], [0.5, 0.5j, -0.5, -0.5j], atol=1e-15)


@pytest.mark.parametrize("n", [2, 4, 96, 768])
def test_dft_symmetric_bitwise(n):
    # apply_word and op_left_separable use F^dag = conj(F), which needs F = F^T exactly
    f = dft_matrix(n)
    assert np.array_equal(f, f.T)


def test_dft_cache_holds_one_matrix():
    # perfbench/tracing.py counts DFT cache hits and misses through cache_info()
    assert quantizer.dft_matrix is metaplectic.dft_matrix is dft_matrix
    dft_matrix(6)
    before = dft_matrix.cache_info()
    assert dft_matrix(6) is dft_matrix(6)
    after = dft_matrix.cache_info()
    assert (after.hits, after.misses) == (before.hits + 2, before.misses)
    dft_matrix(8)
    assert dft_matrix.cache_info().maxsize == 1
    assert dft_matrix.cache_info().currsize == 1


@pytest.mark.parametrize("n", [2, 3, 16, 65, 256, 1024])
def test_dft_unitary(n):
    f = dft_matrix(n)
    assert np.abs(f.conj().T @ f - np.eye(n)).max() < 1e-13


def test_dft_norm_preserved():
    rng = np.random.default_rng(3)
    v = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    f = dft_matrix(128)
    assert np.linalg.norm(f @ v) == pytest.approx(np.linalg.norm(v), abs=1e-13)
    assert np.allclose(f.conj().T @ (f @ v), v, atol=1e-13)


@pytest.mark.parametrize("n", [4, 32, 100])
def test_dft_order_four(n):
    f = dft_matrix(n)
    assert np.abs(np.linalg.matrix_power(f, 4) - np.eye(n)).max() < 1e-12


def test_torus_rep():
    xs = np.array([0.75, -0.5, 3.0, 0.5, 0.49])
    assert np.array_equal(torus_rep_array(xs)[1:4], [-0.5, 0.0, -0.5])
    assert np.allclose(torus_rep_array(xs), [-0.25, -0.5, 0.0, -0.5, 0.49])
