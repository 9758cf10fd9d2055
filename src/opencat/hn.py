"""The N-dimensional state space of the quantized torus.

The Planck scale attached to N, the unitary DFT matrix (its sign is the
Fourier convention, an argument of every caller) and the torus
representative of a position.  All matrices are plain dense numpy arrays.
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


# A sweep uses one N at a time and production passes one sign; the second
# entry holds the other sign (verify --debug-flip-dft) or the previous N.
# At N = 4096 each entry pins 268 MB.
@lru_cache(maxsize=2)
def dft_matrix(n: int, sign: int) -> np.ndarray:
    """Unitary DFT matrix with kernel N^{-1/2} exp(sign * 2 pi i m k / N).

    sign=-1 is the package-wide convention.  Note that flipping the sign
    *everywhere* yields a unitarily equivalent setup (conjugation by parity,
    which commutes with every integer symplectic map); only a sign mismatch
    between the map quantization and the observables is detectable.  The
    sign has no default so that every caller passes it the same way and
    shares one cache entry per N.
    """
    if n < 1:
        raise NonPositiveN(f"n = {n}")
    m = np.arange(n)
    mat = np.exp(sign * 2j * np.pi * np.outer(m, m) / n) / math.sqrt(n)
    mat.setflags(write=False)
    return mat


def torus_rep_array(x: np.ndarray) -> np.ndarray:
    """Representative of each x mod 1 in [-1/2, 1/2)."""
    r = x - np.floor(x)
    return np.where(r >= 0.5, r - 1.0, r)
