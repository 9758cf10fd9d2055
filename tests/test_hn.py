import math

import numpy as np
import pytest

from opencat.errors import NonPositiveN
from opencat.hn import dft_matrix, planck, torus_rep_array


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
    out = dft_matrix(2, -1) @ np.array([1.0, 0.0])
    assert np.allclose(out, [1 / math.sqrt(2), 1 / math.sqrt(2)])
    out4 = dft_matrix(4, -1) @ np.array([1.0, 1.0, 1.0, 1.0])
    assert np.allclose(out4, [2.0, 0.0, 0.0, 0.0], atol=1e-14)
    # the kernel sign: e^{-2 pi i m k / N} at N = 4 sends e_1 to powers of -i
    assert np.allclose(dft_matrix(4, -1)[:, 1], [0.5, -0.5j, -0.5, 0.5j], atol=1e-15)
    assert np.allclose(dft_matrix(4, 1), dft_matrix(4, -1).conj(), atol=1e-15)


@pytest.mark.parametrize("n", [2, 3, 16, 65, 256, 1024])
def test_dft_unitary(n):
    f = dft_matrix(n, -1)
    assert np.abs(f.conj().T @ f - np.eye(n)).max() < 1e-13


def test_dft_norm_preserved():
    rng = np.random.default_rng(3)
    v = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    f = dft_matrix(128, -1)
    assert np.linalg.norm(f @ v) == pytest.approx(np.linalg.norm(v), abs=1e-13)
    assert np.allclose(f.conj().T @ (f @ v), v, atol=1e-13)


@pytest.mark.parametrize("n", [4, 32, 100])
def test_dft_order_four(n):
    f = dft_matrix(n, -1)
    assert np.abs(np.linalg.matrix_power(f, 4) - np.eye(n)).max() < 1e-12


def test_torus_rep():
    xs = np.array([0.75, -0.5, 3.0, 0.5, 0.49])
    assert np.array_equal(torus_rep_array(xs)[1:4], [-0.5, 0.0, -0.5])
    assert np.allclose(torus_rep_array(xs), [-0.25, -0.5, 0.0, -0.5, 0.49])
