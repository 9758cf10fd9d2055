"""Cutoff specs and operator helpers shared by the test modules."""

from hypothesis import strategies as st
import numpy as np

import opencat.experiments as experiments
from opencat.metaplectic import apply_word
from opencat.quantizer import BumpSpec

# The cutoffs of the README's example config and of the benchmark workloads.
TRAPPED_SPEC = BumpSpec("product_bump", 0.10, 0.20)
NONTRAP_SPEC = BumpSpec("annulus_product", 0.15, 0.24)

# A shear letter; words of two or more of them draw random SL(2,Z) maps,
# hyperbolic once their trace exceeds 2 in modulus.
shear = st.tuples(st.sampled_from(["U", "L"]),
                  st.integers(-3, 3).filter(lambda v: v != 0))


def dense_operator(live, rows, n):
    """The N x N matrix whose rows live are rows and whose other rows are zero."""
    out = np.zeros((n, n), dtype=complex)
    out[live] = rows
    return out


def quantize_word(word, n, sign=-1):
    """The word's unitary: the word applied to the identity."""
    return apply_word(np.eye(n, dtype=complex), word, n, sign)


def nan_in_dead_column(monkeypatch):
    """Make the left cutoff carry a NaN in its first live row, at a dead column."""
    quantize = experiments.op_left_separable

    def poisoned(f, g, n):
        live, rows = quantize(f, g, n)
        rows[0, np.setdiff1d(np.arange(n), live)[0]] = np.nan
        return live, rows

    monkeypatch.setattr(experiments, "op_left_separable", poisoned)
