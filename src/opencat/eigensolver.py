"""Eigenvalues of a dense matrix: all of them (LAPACK), or the few of largest modulus (Arnoldi).

eigenvalues() wraps LAPACK's geev driver (balancing, Householder reduction
to Hessenberg form, shifted QR with deflation) through numpy and returns
the plain array of eigenvalues; non-finite input and a LAPACK failure
raise instead of yielding a partial spectrum.  arnoldi() returns only the
k eigenvalues of largest modulus, as Ritz values from a KRYLOV_DIM-vector
Krylov basis (Saad, Numerical Methods for Large Eigenvalue Problems, 2nd
ed., SIAM 2011, ch. 6), with their worst residual, so that a caller can
tell a converged answer from one that is not.  sort_by_modulus orders a
spectrum and match_distance compares two.
"""

import numpy as np

from .errors import NumericError

# Size of arnoldi's Krylov basis; a matrix with at most this many rows is
# solved densely.  The open operators' top modes are well separated
# (lam^{-(2k+1)/2}, lam = 2.6 on the benchmark's maps), so 48 vectors
# resolve the top 4 of a 1025 x 1025 live block to residuals below 2e-15.
KRYLOV_DIM = 48


def eigenvalues(a: np.ndarray) -> np.ndarray:
    """All eigenvalues of a dense complex matrix, unordered.

    A LAPACK failure raises NumericError; no partial spectrum is returned.
    """
    a = np.asarray(a, dtype=complex)
    _check_finite(a)
    try:
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigvals failed on a {a.shape[0]}x{a.shape[0]} "
                           f"matrix: {exc}") from exc


def arnoldi(a: np.ndarray, k: int, start: np.ndarray):
    """The k eigenvalues of a of largest modulus, in sort_by_modulus order, and their worst residual.

    An unrestarted Arnoldi run from start builds an orthonormal basis of
    the Krylov space span{start, a start, ..., a^47 start}, each new
    vector orthogonalized against the basis twice by classical
    Gram-Schmidt, and the eigenvalues of the small Hessenberg matrix H =
    Q* a Q are the Ritz values.  The residual is the largest over the
    returned Ritz pairs (theta, y) of |a y - theta y| / (|y| |H|_2); |H|_2
    <= |a|_2, so it bounds the backward error from above.  If the basis
    closes early (the space is invariant), the Ritz values are
    eigenvalues of a to roundoff and fewer than k may come back.  A
    failure of the small solve raises NumericError.  A matrix with at
    most KRYLOV_DIM rows is solved densely (eigenvalues): the top k of
    its spectrum, with residual 0.  Non-finite input raises NumericError.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    if n <= KRYLOV_DIM:
        return sort_by_modulus(eigenvalues(a))[:k], 0.0
    _check_finite(a)
    basis = np.empty((KRYLOV_DIM + 1, n), dtype=complex)
    h = np.zeros((KRYLOV_DIM + 1, KRYLOV_DIM), dtype=complex)
    basis[0] = start / np.linalg.norm(start)
    dim = KRYLOV_DIM
    # what is left of a q_j after the projections, at most this fraction of
    # it, is roundoff: the space is invariant
    closed = KRYLOV_DIM * np.finfo(float).eps
    for j in range(KRYLOV_DIM):
        w = a @ basis[j]
        size = np.linalg.norm(w)
        done = basis[:j + 1]
        for _ in range(2):
            c = (done @ w.conj()).conj()
            w -= c @ done
            h[:j + 1, j] += c
        h[j + 1, j] = np.linalg.norm(w)
        if h[j + 1, j].real <= closed * size:
            dim = j + 1
            break
        basis[j + 1] = w / h[j + 1, j].real
    try:
        theta, s = np.linalg.eig(h[:dim, :dim])
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eig failed on the {dim}x{dim} Hessenberg matrix "
                           f"of a {n}x{n} matrix: {exc}") from exc
    top = modulus_order(theta)[:k]
    theta = theta[top]
    y = s[:, top].T @ basis[:dim]
    residual = np.linalg.norm(y @ a.T - theta[:, None] * y, axis=1) / np.linalg.norm(y, axis=1)
    scale = np.linalg.norm(h[:dim + 1, :dim], 2)
    return theta, float(residual.max() / scale) if scale > 0 else 0.0


def _check_finite(a):
    if not np.isfinite(a).all():
        raise NumericError("matrix contains NaN or Inf")


def modulus_order(values: np.ndarray) -> np.ndarray:
    """Indices that sort values by descending modulus, ties by descending real then imaginary part."""
    vals = np.asarray(values, dtype=complex)
    # hypot is the modulus Python's abs gives, bit for bit; np.abs can differ
    # in the last bit, which would reorder near ties
    modulus = np.hypot(vals.real, vals.imag)
    return np.lexsort((-vals.imag, -vals.real, -modulus))


def sort_by_modulus(values: np.ndarray) -> np.ndarray:
    """Descending modulus; ties broken by descending real then imaginary part."""
    vals = np.asarray(values, dtype=complex)
    return vals[modulus_order(vals)]


def match_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Greedy matching metric from the values of a into those of b, which may hold more.

    Each value of a (largest modulus first) is paired with the nearest unused
    value of b; the result is the largest paired distance.  Greedy matching is
    stable where a plain co-sorted comparison is not: rounding can reorder
    near-tied values between the two lists.
    """
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
