"""Dense non-Hermitian eigenvalue computation, with an independent oracle.

The production path, eigenvalues(), wraps LAPACK's geev driver (balancing,
Householder reduction to Hessenberg form, shifted QR with deflation) through
numpy and returns the plain array of eigenvalues; non-finite input and a
LAPACK failure raise instead of yielding a partial spectrum.  The oracle
path, for small matrices, is entirely separate: characteristic polynomial by
the Faddeev-LeVerrier recurrence, roots by Durand-Kerner iteration.  The two
must agree; the tests enforce it.
"""

import numpy as np

from .errors import NumericError

ORACLE_MAX_DIM = 8
# Durand-Kerner stops once every residual is below ORACLE_TOL times
# 1 + max |coefficient|, and raises after ORACLE_MAX_SWEEPS sweeps.
ORACLE_MAX_SWEEPS = 500
ORACLE_TOL = 1e-12


def eigenvalues(a: np.ndarray) -> np.ndarray:
    """All eigenvalues of a dense complex matrix, unordered.

    A LAPACK failure raises NumericError; no partial spectrum is returned.
    """
    a = np.asarray(a, dtype=complex)
    if not np.isfinite(a).all():
        raise NumericError("matrix contains NaN or Inf")
    try:
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigvals failed on a {a.shape[0]}x{a.shape[0]} "
                           f"matrix: {exc}") from exc


def char_poly_coeffs(a: np.ndarray) -> np.ndarray:
    """Monic characteristic polynomial coefficients via Faddeev-LeVerrier.

    Returns [1, c1, ..., cn] with p(t) = t^n + c1 t^{n-1} + ... + cn.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    mk = np.array(a)
    for k in range(1, n + 1):
        ck = -np.trace(mk) / k
        coeffs[k] = ck
        if k < n:
            mk = a @ (mk + ck * np.eye(n))
    return coeffs


def durand_kerner(coeffs: np.ndarray) -> np.ndarray:
    """Simultaneous root iteration for a monic polynomial.

    Starts from a slightly rotated circle (radius from the Cauchy bound) so
    no initial guess sits on a symmetry axis of the root set.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    n = len(coeffs) - 1
    if n == 0:
        return np.zeros(0, dtype=complex)
    radius = 1.0 + np.abs(coeffs[1:]).max()
    angles = 2.0 * np.pi * np.arange(n) / n + 0.41
    z = radius * np.exp(1j * angles)
    scale = 1.0 + np.abs(coeffs).max()
    for _ in range(ORACLE_MAX_SWEEPS):
        p = np.polyval(coeffs, z)
        if np.abs(p).max() < ORACLE_TOL * scale:
            return z
        moved = 0.0
        for i in range(n):
            denom = np.prod(z[i] - np.delete(z, i))
            if denom == 0:
                z[i] += 1e-8 * (1 + 1j)
                continue
            step = np.polyval(coeffs, z[i]) / denom
            z[i] -= step
            moved = max(moved, abs(step))
        if moved < 5e-15 * radius:
            return z
    raise NumericError(f"characteristic-polynomial oracle: Durand-Kerner roots "
                       f"did not converge in {ORACLE_MAX_SWEEPS} sweeps")


def char_poly_roots(a: np.ndarray) -> np.ndarray:
    """Oracle eigenvalues for matrices of dimension <= 8."""
    a = np.asarray(a, dtype=complex)
    if a.shape[0] > ORACLE_MAX_DIM:
        raise ValueError(f"oracle limited to dim <= {ORACLE_MAX_DIM}")
    return durand_kerner(char_poly_coeffs(a))


def sort_by_modulus(values: np.ndarray) -> np.ndarray:
    """Descending modulus; ties broken by descending real then imaginary part."""
    vals = np.asarray(values, dtype=complex)
    # hypot is the modulus Python's abs gives, bit for bit; np.abs can differ
    # in the last bit, which would reorder near ties
    modulus = np.hypot(vals.real, vals.imag)
    return vals[np.lexsort((-vals.imag, -vals.real, -modulus))]


def multiset_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Greedy matching metric between two eigenvalue multisets of one size.

    Each value of a (largest modulus first) is paired with the nearest unused
    value of b; the result is the largest paired distance.  Greedy matching is
    stable where a plain co-sorted comparison is not: rounding can reorder
    near-tied values between the two lists.
    """
    if len(a) != len(b):
        raise ValueError("multisets differ in size")
    return match_distance(a, b)


def match_distance(a: np.ndarray, b: np.ndarray) -> float:
    """multiset_distance's greedy metric with a matched into b, which may hold more values."""
    sa = sort_by_modulus(a)
    sb = list(sort_by_modulus(b))
    if len(sa) > len(sb):
        raise ValueError("a has more values than b")
    worst = 0.0
    for va in sa:
        gaps = [abs(va - vb) for vb in sb]
        i = gaps.index(min(gaps))
        worst = max(worst, gaps[i])
        del sb[i]
    return worst
