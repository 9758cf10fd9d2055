"""Eigenvalues of a dense matrix (LAPACK), sorted by modulus.

eigenvalues() wraps LAPACK's geev driver (balancing, Householder reduction
to Hessenberg form, shifted QR with deflation) through numpy and returns
the plain array of eigenvalues; non-finite input and a LAPACK failure
raise instead of yielding a partial spectrum.  sort_by_modulus orders a
spectrum and match_distance compares two.
"""

import numpy as np

from .errors import NumericError


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


def sort_by_modulus(values: np.ndarray) -> np.ndarray:
    """Descending modulus; ties broken by descending real then imaginary part."""
    vals = np.asarray(values, dtype=complex)
    # hypot is the modulus Python's abs gives, bit for bit; np.abs can differ
    # in the last bit, which would reorder near ties
    modulus = np.hypot(vals.real, vals.imag)
    return vals[np.lexsort((-vals.imag, -vals.real, -modulus))]


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
