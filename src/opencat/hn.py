"""The N-dimensional state space of the quantized torus.

The Planck scale attached to N, the unitary DFT matrix of the package
convention and the torus representative of a position.  All matrices are
plain dense numpy arrays.
"""

from functools import lru_cache
import math

import numpy as np

from .errors import NonPositiveN


def planck(n: int) -> float:
    """Planck scale h = 1/(2 pi N) attached to dimension N."""
    if n < 1:
        raise NonPositiveN(f"n = {n}")
    return 1.0 / (2.0 * math.pi * n)


# A sweep uses one N at a time; at N = 4096 the matrix pins 268 MB.
@lru_cache(maxsize=1)
def dft_matrix(n: int) -> np.ndarray:
    """Unitary DFT matrix with kernel N^{-1/2} exp(-2 pi i m k / N).

    outer(m, m) is symmetric, so F = F^T bit for bit and F^dag = conj(F):
    callers form x F^dag as conj(conj(x) F) and never copy F.
    """
    if n < 1:
        raise NonPositiveN(f"n = {n}")
    m = np.arange(n)
    mat = np.exp(-2j * np.pi * np.outer(m, m) / n) / math.sqrt(n)
    mat.setflags(write=False)
    return mat


def torus_rep_array(x: np.ndarray) -> np.ndarray:
    """Representative of each x mod 1 in [-1/2, 1/2)."""
    r = x - np.floor(x)
    return np.where(r >= 0.5, r - 1.0, r)
