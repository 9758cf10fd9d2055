"""Cutoff specs, operator helpers and the dense DFT oracle shared by the test modules."""

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


def dense_operator(sectors, n):
    """The N x N matrix of a sector operator (even, odd, defect) as the package builds it.

    Each sector is (live, rows): its rows live are rows, its other rows zero.
    """
    blocks = []
    for (live, rows), size in zip(sectors[:2], (n // 2 + 1, n // 2 - 1)):
        block = np.zeros((size, size), dtype=complex)
        block[live] = rows
        blocks.append(block)
    return unfold_parity(*blocks)


def operator_sectors(a, dead=None):
    """An N x N matrix in build_open_operator's form (even, odd, defect).

    dead marks rows of a that are zero, a set closed under parity; a
    sector's live rows are the others, every row when dead is None.
    """
    n = a.shape[0]
    h = n // 2
    even, odd, defect = fold_parity(a)
    dead = np.zeros(n, dtype=bool) if dead is None else np.asarray(dead)
    live_e, live_o = np.flatnonzero(~dead[:h + 1]), np.flatnonzero(~dead[1:h])
    return (live_e, even[live_e]), (live_o, odd[live_o]), defect


def nan_in_dead_column(monkeypatch):
    """Make the left cutoff carry a NaN in its first live even row, at a dead column."""
    quantize = experiments.op_left_separable

    def poisoned(f, g, n):
        (live, rows), odd, defect = quantize(f, g, n)
        rows[0, np.setdiff1d(np.arange(n // 2 + 1), live)[0]] = np.nan
        return (live, rows), odd, defect

    monkeypatch.setattr(experiments, "op_left_separable", poisoned)
