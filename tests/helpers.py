"""Cutoff specs, operator helpers and the DFT oracles shared by the test modules."""

import math

from hypothesis import strategies as st
import numpy as np

import opencat.experiments as experiments
from opencat.hn import fold_parity, unfold_parity
from opencat.quantizer import BumpSpec

# The cutoffs of the README's example config and of the benchmark workloads.
TRAPPED_SPEC = BumpSpec("product_bump", 0.10, 0.20)
NONTRAP_SPEC = BumpSpec("annulus_product", 0.15, 0.24)

# A shear letter; words of two or more of them draw random SL(2,Z) maps,
# hyperbolic once their trace exceeds 2 in modulus.
shear = st.tuples(st.sampled_from(["U", "L"]),
                  st.integers(-3, 3).filter(lambda v: v != 0))


def dft_matrix(n):
    """The N x N unitary DFT with kernel N^{-1/2} exp(-2 pi i m k / N).

    The oracle for hn.dft_sectors: the same expression for every entry, with
    m k not reduced mod N.
    """
    m = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(m, m) / n) / math.sqrt(n)


def dft_sectors_oracle(n):
    """hn.dft_sectors from complex exponentials on the full blocks, as (F_even, F_odd, defect).

    Each pass of a few rows evaluates the four kernel values
    exp(-2 pi i p / N) / sqrt(N) at p = j k, j (N - k), (N - j) k and
    (N - j)(N - k) on every column, p not reduced mod N, and adds them in
    the order dft_sectors does.  N must be even.
    """
    h = n // 2
    idx = np.arange(h + 1)
    fixed = (idx == 0) | (idx == h)
    partner = np.where(fixed, idx, n - idx)
    weight = np.where(fixed, 0.5, math.sqrt(0.5))

    def kernel(p):
        return np.exp(-2j * np.pi * p / n) / math.sqrt(n)

    even = np.empty((h + 1, h + 1), dtype=complex)
    odd = np.empty((h - 1, h - 1), dtype=complex)
    cross = 0.0
    for start in range(0, h + 1, 64):
        rows = slice(start, min(start + 64, h + 1))
        j, pj = idx[rows, None], partner[rows, None]
        direct, far = kernel(j * idx), kernel(pj * partner)
        near, back = kernel(j * partner), kernel(pj * idx)
        same, swapped = direct + far, near + back
        even[rows] = (same + swapped) * (weight[rows, None] * weight)
        pairs = ~fixed[rows]
        odd[j[pairs, 0] - 1] = (same - swapped)[pairs, 1:h] * 0.5
        coupling = ((direct - far) + (back - near))[:, 1:h] * weight[rows, None]
        cross = max(cross, np.abs(coupling).max(initial=0.0) * math.sqrt(0.5))
    return even, odd, cross * math.sqrt(n)


def dense_operator(sectors, n):
    """The N x N matrix of a cutoff in the sector form (even, odd, defect) of cutoff_operator.

    Each sector is (live, rows): its rows live are rows, its other rows zero.
    """
    blocks = []
    for (live, rows), size in zip(sectors[:2], (n // 2 + 1, n // 2 - 1)):
        block = np.zeros((size, size), dtype=complex)
        block[live] = rows
        blocks.append(block)
    return unfold_parity(*blocks)


def live_operator(sectors, n):
    """The N x N matrix with each live x live block of build_open_operator in place, zeros elsewhere.

    With its dead rows permuted last a sector of the open operator is
    [[B_LL, B_LD], [0, 0]], so this matrix has the operator's spectrum and
    the traces of its powers.
    """
    blocks = []
    for (live, block), size in zip(sectors[:2], (n // 2 + 1, n // 2 - 1)):
        live = np.arange(size)[live]
        full = np.zeros((size, size), dtype=complex)
        full[np.ix_(live, live)] = block
        blocks.append(full)
    return unfold_parity(*blocks)


def operator_sectors(a, dead=None):
    """An N x N matrix in build_open_operator's form (even, odd, defect).

    dead marks rows of a that are zero, a set closed under parity; a
    sector's live rows are the others, every row when dead is None, and
    its block is the live x live part of the folded matrix.
    """
    n = a.shape[0]
    h = n // 2
    even, odd, defect = fold_parity(a)
    dead = np.zeros(n, dtype=bool) if dead is None else np.asarray(dead)
    live_e, live_o = np.flatnonzero(~dead[:h + 1]), np.flatnonzero(~dead[1:h])
    return ((live_e, even[np.ix_(live_e, live_e)]), (live_o, odd[np.ix_(live_o, live_o)]),
            defect)


def nan_in_dead_column(monkeypatch):
    """Make the left cutoff carry a NaN in its first live even row, at a dead column."""
    quantize = experiments.op_left_separable

    def poisoned(f, g, n):
        (live, rows), odd, defect = quantize(f, g, n)
        rows[0, np.setdiff1d(np.arange(n // 2 + 1), live)[0]] = np.nan
        return (live, rows), odd, defect

    monkeypatch.setattr(experiments, "op_left_separable", poisoned)
