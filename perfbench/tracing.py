"""Spans and exact counts recorded around opencat's public functions.

The sweep process installs the wrappers before the CLI runs.  Each wrapper
replaces a function at the module attribute its caller looks it up by (a
`from .x import f` binds f in the caller's module), so the program's source
is not touched and a call is traced once.  Spans stay in memory and are
written out with the sweep's report; self times are derived afterwards.
"""

import collections
import functools
import importlib
import inspect
import time

# (module, attribute, span name).  The span name's prefix is the layer: the
# opencat module that defines the function.
TARGETS = (
    ("opencat.cli", "load_config", "cli.parse_config"),
    ("opencat.cli", "cmd_trapped", "cli.cmd_trapped"),
    ("opencat.cli", "cmd_nontrapping", "cli.cmd_nontrapping"),
    ("opencat.cli", "cmd_classical", "cli.cmd_classical"),
    ("opencat.cli", "trapped_sweep", "experiments.trapped_sweep"),
    ("opencat.cli", "nontrapping_sweep", "experiments.nontrapping_sweep"),
    ("opencat.cli", "escape_check", "catmap.escape_check"),
    ("opencat.experiments", "build_open_operator", "experiments.build_open_operator"),
    ("opencat.experiments", "spectrum_report", "experiments.spectrum_report"),
    ("opencat.experiments", "make_trapped_symbol", "quantizer.symbol"),
    ("opencat.experiments", "make_nontrapping_symbol", "quantizer.symbol"),
    ("opencat.experiments", "op_left_separable", "quantizer.op_left"),
    ("opencat.experiments", "op_weyl", "quantizer.op_weyl"),
    ("opencat.experiments", "quantize_word", "metaplectic.quantize_word"),
    ("opencat.experiments", "phase_factor", "metaplectic.phase_factor"),
    ("opencat.experiments", "eigenvalues", "eigensolver.eigenvalues"),
    ("opencat.experiments", "sort_by_modulus", "eigensolver.sort"),
    ("opencat.quantizer", "dft_matrix", "hn.dft_matrix"),
    ("opencat.metaplectic", "dft_matrix", "hn.dft_matrix"),
)

# Full dense diagonalizations, counted wherever they are called from.
DENSE_SOLVERS = ("eig", "eigvals", "eigh", "eigvalsh")

LAYERS = ("cli", "experiments", "quantizer", "metaplectic", "eigensolver",
          "hn", "catmap")


def now() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _dimension(sig, args, kwargs):
    """N of a call: its `n` argument, else the size of its first matrix."""
    try:
        bound = sig.bind_partial(*args, **kwargs).arguments
    except TypeError:
        return None
    if "n" in bound:
        return int(bound["n"])
    for value in bound.values():
        shape = getattr(value, "shape", None)
        if shape:
            return int(shape[0])
    return None


class Recorder:
    """Spans [name, start, end, parent index, N] and counts of one sweep."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.missing = []
        self._stack = []

    def span(self, fn, name):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            n = _dimension(sig, args, kwargs)
            if n is None and parent is not None:
                n = self.spans[parent][4]
            idx = len(self.spans)
            self.spans.append([name, now(), None, parent, n])
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = now()
        return traced

    def install(self):
        """Wrap every target that exists; record the ones that do not."""
        import numpy.linalg
        wrapped = {}
        for mod_name, attr, name in TARGETS:
            module = importlib.import_module(mod_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            # one wrapper per function object, so the shared DFT cache is
            # counted once whichever module calls it
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self.span(self._counted(fn, name), name)
            setattr(module, attr, wrapped[id(fn)])
        for attr in DENSE_SOLVERS:
            setattr(numpy.linalg, attr, self._tally(getattr(numpy.linalg, attr),
                                                    "eigensolver.dense_solves"))

    def _tally(self, fn, key):
        @functools.wraps(fn)
        def tallied(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return tallied

    def _counted(self, fn, name):
        """Add the exact counts a target carries, if any."""
        counts = self.counts
        if name == "hn.dft_matrix":
            @functools.wraps(fn)
            def dft_matrix(*args, **kwargs):
                misses = fn.cache_info().misses
                mat = fn(*args, **kwargs)
                if fn.cache_info().misses > misses:
                    counts["hn.dft_cache_misses"] += 1
                    counts["hn.dft_cache_mb_computed"] += mat.nbytes / 1e6
                else:
                    counts["hn.dft_cache_hits"] += 1
                return mat
            return dft_matrix
        if name == "metaplectic.quantize_word":
            sig = inspect.signature(fn)

            @functools.wraps(fn)
            def quantize_word(*args, **kwargs):
                word = sig.bind(*args, **kwargs).arguments["word"]
                counts["metaplectic.word_letters"] += len(word)
                return fn(*args, **kwargs)
            return quantize_word
        if name == "catmap.escape_check":
            @functools.wraps(fn)
            def escape_check(*args, **kwargs):
                report = fn(*args, **kwargs)
                counts["catmap.orbits"] += sum(num for _, num, _ in report.per_q)
                return report
            return escape_check
        return fn


def self_times(spans) -> list:
    """Each span's duration minus the time its child spans cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def summarize(spans, t_config):
    """Per-name inclusive times, per-layer self times, and per-N splits.

    Returns {metric: seconds} with keys `<span>_s`, `<span>_s.N<n>`,
    `<layer>.self_s`, `<layer>.self_s.N<n>` and `experiments.build_self_s`
    (+ `.N<n>`).  Layer self times cover the sweep, the spans that start
    after the config is parsed at t_config, so they add up to the time its
    top-level spans take; cli.parse_config is set-up and is reported by its
    inclusive time.
    """
    own = self_times(spans)
    in_sweep = [start >= t_config for _, start, _, _, _ in spans]
    out = collections.defaultdict(float)

    def add(key, n, value):
        out[key] += value
        if n is not None:
            out[f"{key}.N{n}"] += value

    for i, (name, start, end, parent, n) in enumerate(spans):
        add(f"{name}_s", n, end - start)
        if not in_sweep[i]:
            continue
        add(f"{name.split('.')[0]}.self_s", n, own[i])
        if name == "experiments.build_open_operator":
            add("experiments.build_self_s", n, own[i])
    out["sweep_self_sum_s"] = sum(o for o, s in zip(own, in_sweep) if s)
    return dict(out)
