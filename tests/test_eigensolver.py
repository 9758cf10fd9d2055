from dataclasses import replace

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from opencat.catmap import ARNOLD
from opencat.eigensolver import KRYLOV_DIM, arnoldi, eigenvalues, match_distance, sort_by_modulus
from opencat.errors import NumericError
import opencat.experiments as experiments
from opencat.experiments import CHIRP_RATES, TOP_RESIDUAL, start_vector

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


def planted(seed, n, coupling, bulk):
    """Q T Q* with Q a random unitary and T upper triangular: its diagonal, the
    spectrum, is 0.9 * 0.6^j e^{i theta_j} for j < 4 and uniform in |z| < bulk
    after, and its strictly upper part random with norm about 2 coupling."""
    rng = np.random.default_rng(seed)
    diag = rng.uniform(0, bulk, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    diag[:4] = 0.9 * 0.6 ** np.arange(4) * np.exp(2j * np.pi * rng.uniform(size=4))
    t = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1)
    t *= coupling / np.sqrt(n)
    t[np.diag_indices(n)] = diag
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q @ t @ q.conj().T, diag


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(KRYLOV_DIM + 1, 300),
       k=st.integers(1, 4), rate=st.sampled_from(CHIRP_RATES))
def test_arnoldi_finds_planted_top_modes_of_a_non_normal_matrix(seed, n, k, rate):
    # the top 4 planted values are separated from a bulk of radius 0.1, and
    # the triangular coupling makes a far from normal (|a a* - a* a| about
    # 0.5).  Over 90 draws at n = 200 the top 4 came within 7e-11 of the
    # planted values, with residuals up to 2.1e-10; eigvals within 2e-15
    a, diag = planted(seed, n, 0.3, 0.1)
    assert np.linalg.norm(a @ a.conj().T - a.conj().T @ a, 2) > 0.1
    vals, residual = arnoldi(a, k, start_vector(rate, n))
    want = sort_by_modulus(diag)[:k]
    assert len(vals) == k
    assert np.abs(vals - want).max() < 1e-8
    assert np.abs(vals - sort_by_modulus(eigenvalues(a))[:k]).max() < 1e-8
    assert residual < 1e-8


def test_arnoldi_residual_flags_an_unresolved_mode():
    # a bulk of radius 0.3 holds values above the fourth planted one, 0.19,
    # and a coupling of 2 spreads their pseudospectrum: 48 vectors do not
    # resolve the top 4, and the residual says so
    a, diag = planted(26, 200, 2.0, 0.3)
    vals, residual = arnoldi(a, 4, start_vector(CHIRP_RATES[0], 200))
    assert np.abs(vals - sort_by_modulus(eigenvalues(a))[:4]).max() > 1e-2
    assert residual > 1e3 * TOP_RESIDUAL


@pytest.mark.parametrize("n", [1, 2, 17, KRYLOV_DIM])
def test_arnoldi_solves_a_small_matrix_densely(n):
    # at most KRYLOV_DIM rows: the top k of eigenvalues', bit for bit, with
    # residual 0, whatever the start vector
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    for k in (1, 4):
        vals, residual = arnoldi(a, k, rng.standard_normal(n))
        want = sort_by_modulus(eigenvalues(a))[:k]
        assert vals.tobytes() == want.tobytes() and residual == 0.0


def test_arnoldi_on_an_empty_matrix():
    vals, residual = arnoldi(np.zeros((0, 0), dtype=complex), 4, np.zeros(0))
    assert vals.shape == (0,) and residual == 0.0


@pytest.mark.parametrize("n", [KRYLOV_DIM, 2 * KRYLOV_DIM])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_arnoldi_rejects_nonfinite_input(n, bad):
    # the message eigenvalues gives: open_spectrum's docstring relies on the
    # live block's solve rejecting a NaN
    a = np.eye(n, dtype=complex)
    a[n - 1, 0] = bad
    with pytest.raises(NumericError, match="matrix contains NaN or Inf"):
        arnoldi(a, 2, start_vector(CHIRP_RATES[0], n))


def test_arnoldi_stops_on_an_invariant_subspace():
    # a start vector in the span of three eigenvectors closes the basis
    # after three steps (what is left of the fourth vector measured 8e-16
    # of it): the three Ritz values are those eigenvalues, exact, though
    # four were asked for and the matrix has others as large
    n = 100
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    diag = np.linspace(0.9, 0.01, n).astype(complex)
    diag[5:8] = [1.0, -0.5, 0.25j]
    a = q @ np.diag(diag) @ q.conj().T
    start = q[:, 5:8] @ np.array([1.0, 2.0, 3.0])
    vals, residual = arnoldi(a, 4, start)
    assert len(vals) == 3
    assert np.abs(vals - diag[5:8]).max() < 1e-14
    assert residual < 1e-13
    vals, residual = arnoldi(np.zeros((n, n), dtype=complex), 4, start)
    assert vals.tobytes() == np.zeros(1, dtype=complex).tobytes() and residual == 0.0


def test_arnoldi_hessenberg_failure_raises(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    a = np.random.default_rng(1).standard_normal((100, 100)).astype(complex)
    monkeypatch.setattr(np.linalg, "eig", fail)
    with pytest.raises(NumericError, match="eig failed on the 48x48 Hessenberg matrix of a "
                                           "100x100 matrix: Eigenvalues did not converge"):
        arnoldi(a, 2, start_vector(CHIRP_RATES[0], 100))


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
