from dataclasses import replace

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from opencat.catmap import ARNOLD
from opencat.eigensolver import eigenvalues, match_distance, sort_by_modulus
from opencat.errors import NumericError
import opencat.experiments as experiments

from helpers import (TRAPPED_SPEC, char_poly_coeffs, char_poly_roots, live_operator,
                     multiset_distance, open_sectors, operator_sectors, spectrum)

ARNOLD_MATRIX = np.array([[2.0, 1.0], [1.0, 1.0]])


def test_diagonal():
    s = eigenvalues(np.diag([1.0, 2.0, 3.0]))
    assert isinstance(s, np.ndarray) and s.shape == (3,)
    assert np.allclose(sorted(s.real), [1, 2, 3], atol=1e-12)


def test_rotation():
    s = eigenvalues(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert multiset_distance(s, np.array([1j, -1j])) < 1e-12


def test_arnold_matrix_eigenvalues():
    s = eigenvalues(ARNOLD_MATRIX)
    expect = np.array([(3 + np.sqrt(5)) / 2, (3 - np.sqrt(5)) / 2])
    assert multiset_distance(s, expect) < 1e-12


def test_nonfinite_rejected():
    with pytest.raises(NumericError, match="matrix contains NaN or Inf"):
        eigenvalues(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_solver_failure_raises(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", fail)
    with pytest.raises(NumericError, match="eigvals failed on a 3x3 matrix: Eigenvalues did not converge"):
        eigenvalues(np.eye(3))


def test_char_poly_coeffs_known():
    # t^2 - 3t + 1 for the Arnold matrix
    c = char_poly_coeffs(ARNOLD_MATRIX)
    assert np.allclose(c, [1.0, -3.0, 1.0], atol=1e-12)


def test_oracle_identity():
    roots = char_poly_roots(np.eye(3))
    assert np.abs(roots - 1.0).max() < 1e-3  # triple root: linear convergence


def test_oracle_companion_of_t2_plus_1():
    comp = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert multiset_distance(char_poly_roots(comp), np.array([1j, -1j])) < 1e-10


def test_multiset_distance_needs_equal_sizes():
    # a solver that drops or adds values fails every oracle comparison;
    # only match_distance matches a shorter list into a longer one
    for a, b in (([1.0], [1.0, 0.5]), ([1.0, 0.5], [1.0])):
        with pytest.raises(ValueError, match="differ in size"):
            multiset_distance(np.array(a), np.array(b))
    assert match_distance(np.array([0.5]), np.array([1.0, 0.5 + 1e-3])) == pytest.approx(1e-3)
    with pytest.raises(ValueError):
        match_distance(np.array([1.0, 0.5]), np.array([1.0]))


def test_oracle_dim_limit():
    with pytest.raises(ValueError):
        char_poly_roots(np.eye(9))


def test_oracle_matches_solver_on_random():
    rng = np.random.default_rng(42)
    for _ in range(100):
        a = rng.uniform(-1, 1, (6, 6)) + 1j * rng.uniform(-1, 1, (6, 6))
        d = multiset_distance(char_poly_roots(a), eigenvalues(a))
        assert d < 1e-6


def test_trace_and_det_consistency():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((50, 50)) + 1j * rng.standard_normal((50, 50))
    vals = eigenvalues(a)
    n = 50
    assert abs(vals.sum() - np.trace(a)) < 1e-9 * (1 + np.abs(a).max() * n)
    det = np.linalg.det(a)
    if abs(det) > 1e-20:
        assert abs(np.prod(vals) / det - 1.0) < 1e-6


def test_power_traces_random():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((50, 50)) / np.sqrt(50)
    vals = eigenvalues(a)
    p = np.eye(50)
    for k in range(1, 6):
        p = p @ a
        lhs, rhs = (vals**k).sum(), np.trace(p)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


def test_power_traces_open_map():
    a = live_operator(open_sectors(ARNOLD, TRAPPED_SPEC, 128), 128)
    vals = spectrum(ARNOLD, TRAPPED_SPEC, 128)
    p = np.eye(128, dtype=complex)
    for k in range(1, 6):
        p = p @ a
        lhs, rhs = (vals**k).sum(), np.trace(p)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


def test_similarity_invariance():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
    q, _ = np.linalg.qr(rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30)))
    b = q.conj().T @ a @ q
    assert multiset_distance(eigenvalues(a), eigenvalues(b)) < 1e-8


def test_hermitian_input_real_output():
    from opencat.quantizer import cutoff_symbol, op_weyl
    sym = cutoff_symbol(replace(TRAPPED_SPEC, k_max=32, grid=256))
    vals = eigenvalues(op_weyl(sym, 64))
    assert np.abs(vals.imag).max() < 1e-10


@settings(max_examples=100, deadline=None)
@given(dead=st.integers(1, 6).flatmap(lambda h: st.lists(st.booleans(), min_size=2 * h,
                                                          max_size=2 * h)),
       seed=st.integers(0, 2**32 - 1))
def test_zero_rows_split_off_exactly(dead, seed):
    rng = np.random.default_rng(seed)
    n = len(dead)
    # open_spectrum works in the parity sectors of an even N, so draw
    # b + PbP, which commutes with parity j -> -j, and a dead pattern closed
    # under it
    par = -np.arange(n) % n
    dead = np.array(dead) | np.array(dead)[par]
    b = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    a = b + b[np.ix_(par, par)]
    a[dead] = 0.0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "build_open_operator", operator_sectors(a, dead))
        vals = spectrum(ARNOLD, TRAPPED_SPEC, n)
    assert vals.shape == (n,)
    assert np.count_nonzero(vals == 0) == sum(dead)
    assert multiset_distance(vals, np.linalg.eigvals(a)) < 1e-8
    if n <= 8:
        # the oracle's root at zero has multiplicity d, so roundoff e in the
        # characteristic polynomial moves it by about e^(1/d)
        d = max(sum(dead), 1)
        assert multiset_distance(vals, char_poly_roots(a)) < 1e-8 ** (1.0 / d)


def test_sort_by_modulus():
    out = sort_by_modulus(np.array([1.0, -2.0, 1j]))
    assert out[0] == -2.0 and out[1] == 1.0 and out[2] == 1j
    tie = sort_by_modulus(np.array([0.5, 0.5]))
    assert np.allclose(tie, [0.5, 0.5])
    tb = sort_by_modulus(np.array([3 + 4j, 5.0 + 0j]))
    assert tb[0] == 5.0 and tb[1] == 3 + 4j


def sort_by_modulus_keyed(values):
    """The former sort: Python's sorted on the key (-|v|, -Re v, -Im v)."""
    vals = np.asarray(values, dtype=complex)
    order = sorted(range(len(vals)),
                   key=lambda i: (-abs(vals[i]), -vals[i].real, -vals[i].imag))
    return vals[order]


@settings(max_examples=200, deadline=None)
@given(parts=st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), max_size=40),
       scale=st.sampled_from([1.0, 0.1, 1e-300, 3.7e5]),
       seed=st.integers(0, 2**32 - 1))
def test_sort_by_modulus_matches_keyed_sort(parts, scale, seed):
    # small integer parts give many exact ties: equal moduli (3+4j, 5, -5j),
    # equal real parts (conjugate pairs) and repeated values.  Rotated copies
    # of random values have moduli equal up to rounding, so the order of
    # those turns on the last bit of the modulus
    vals = np.array([complex(re, im) for re, im in parts], dtype=complex) * scale
    rng = np.random.default_rng(seed)
    noisy = rng.standard_normal(len(vals)) + 1j * rng.standard_normal(len(vals))
    turned = noisy * np.exp(2j * np.pi * rng.uniform(size=len(vals)))
    for v in (vals, np.concatenate([vals, noisy, noisy.conj(), -noisy, turned])):
        got, want = sort_by_modulus(v), sort_by_modulus_keyed(v)
        assert np.array_equal(got.view(float), want.view(float))
