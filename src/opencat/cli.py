"""Command-line front end: run the experiments, write CSV and optional SVG.

Subcommands: trapped, nontrapping, classical, verify.  A JSON config file
carries the experiment description; CSV is the artifact of record (17
significant digits so reruns are diffable), SVG plots are a convenience.
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import hn
from .catmap import CatMap, analyze, escape_check, guard_radius
from .eigensolver import char_poly_roots, eigenvalues, multiset_distance
from .errors import ConfigError, OpenCatError
from .experiments import (MAX_MODES, PARITY_TOL, SYMMETRY_TOL_N64, cutoff_sectors,
                          nontrapping_rows, nontrapping_sweep, open_spectrum,
                          spectrum_gap, trapped_sweep)
from .metaplectic import egorov_residual, factor_sl2z, quantize_map
from .quantizer import BumpSpec, TorusSymbol, cutoff_symbol, op_weyl

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

_CONFIG_KEYS = {"matrix", "n_list", "cutoff", "quantization", "phase",
                "k_count", "k_max", "grid", "out_csv", "out_svg", "seed"}
_CUTOFF_KEYS = {"kind", "r_inner", "r_outer"}


@dataclass
class RunConfig:
    matrix: CatMap
    n_list: list
    cutoff: BumpSpec
    phase: str
    k_count: int | None  # None: trapped_sweep's default
    out_csv: str | None
    out_svg: str | None
    seed: int


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    return parse_config(raw)


def _integer(value, what: str, low: int | None = None) -> int:
    """An integral JSON number, at least low if given, as int; else a ConfigError."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (isinstance(value, float) and not value.is_integer())):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ConfigError(f"{what} must be >= {low}, got {value!r}")
    return int(value)


def _number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    return float(value)


def parse_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in ("matrix", "n_list", "cutoff"):
        if key not in raw:
            raise ConfigError(f"missing config key {key!r}")
    mat = raw["matrix"]
    if not isinstance(mat, list) or len(mat) != 4:
        raise ConfigError("matrix must be 4 integers [a, b, c, d]")
    entries = [_integer(v, "matrix entry") for v in mat]
    if max(abs(v) for v in entries) >= 2**63:  # CatMap.as_array is int64
        raise ConfigError(f"matrix entries must be below 2**63 in magnitude, got {mat}")
    m = CatMap(*entries)
    analyze(m)  # NotHyperbolic for |trace| <= 2
    if not isinstance(raw["n_list"], list):
        raise ConfigError("n_list must be a list of integers")
    n_list = [_integer(n, "n_list entry") for n in raw["n_list"]]
    if not n_list or any(n % 2 or n < 2 for n in n_list):
        raise ConfigError("n_list must be nonempty, even, positive")
    if any(a >= b for a, b in zip(n_list, n_list[1:])):
        raise ConfigError("n_list must be strictly ascending")
    # a shear's int64 phase coef m^2, |coef| <= N and m < N, is exact while N^3 < 2**63
    if n_list[-1] >= 2**21:
        raise ConfigError(f"n_list entries must be below 2**21, got {n_list[-1]}")
    cut = raw["cutoff"]
    if not isinstance(cut, dict) or set(cut) != _CUTOFF_KEYS:
        raise ConfigError(f"cutoff needs exactly keys {sorted(_CUTOFF_KEYS)}")
    # the quantization route's keys default and are checked in BumpSpec
    route = {key: raw[key] if key == "quantization" else _integer(raw[key], key)
             for key in ("quantization", "k_max", "grid") if key in raw}
    spec = BumpSpec(cut["kind"], _number(cut["r_inner"], "r_inner"),
                    _number(cut["r_outer"], "r_outer"), **route)
    phase = raw.get("phase", "leading")
    if phase not in ("none", "leading"):
        raise ConfigError("phase must be 'none' or 'leading'")
    # without k_count, trapped_sweep fits the default to the cutoff's live rows
    k_count = None
    if "k_count" in raw:
        k_count = _integer(raw["k_count"], "k_count")
        if not 1 <= k_count <= MAX_MODES:
            raise ConfigError(f"k_count must be in 1..{MAX_MODES}; higher modes are not "
                              "resolvable at desk scale")
    for key in ("out_csv", "out_svg"):
        if not isinstance(raw.get(key), (str, type(None))):
            raise ConfigError(f"{key} must be a path string")
    return RunConfig(matrix=m, n_list=n_list, cutoff=spec, phase=phase,
                     k_count=k_count, out_csv=raw.get("out_csv"),
                     out_svg=raw.get("out_svg"),
                     seed=_integer(raw.get("seed", 0), "seed", low=0))


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_text(path: str, text: str) -> None:
    """Write one output file; a path that cannot be written is a config error."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}")


def _write_csv(path: str, header: str, rows) -> None:
    _write_text(path, header + "\n" + "".join(",".join(row) + "\n" for row in rows))


# ---------------------------------------------------------------- SVG output

def _svg_document(width, height, body) -> str:
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">\n'
            f'<rect width="{width}" height="{height}" fill="white"/>\n'
            + body + "</svg>\n")


def _polyline(points, color, dashed=False) -> str:
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    dash = ' stroke-dasharray="6,4"' if dashed else ""
    return (f'<polyline fill="none" stroke="{color}" stroke-width="1.5"'
            f'{dash} points="{pts}"/>\n')


_COLORS = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
           "#9467bd", "#8c564b", "#e377c2", "#7f7f7f"]


def _axis_map(vals, lo_px, hi_px):
    vmin, vmax = min(vals), max(vals)
    if vmax == vmin:
        vmax = vmin + 1.0
    return lambda v: lo_px + (v - vmin) / (vmax - vmin) * (hi_px - lo_px)


def write_trapped_svg(path, rows, targets) -> None:
    """Per-k series of Re mu_k against N, dotted horizontal target lines."""
    w, h, pad = 640, 420, 50
    ns = sorted({r.n for r in rows})
    res = [r.re for r in rows] + list(targets)
    xm = _axis_map(ns, pad, w - pad)
    ym = _axis_map(res, h - pad, pad)
    body = ""
    k_count = len(targets)
    for k in range(k_count):
        series = [(xm(r.n), ym(r.re)) for r in rows if r.k == k]
        body += _polyline(series, _COLORS[k % len(_COLORS)])
        body += _polyline([(pad, ym(targets[k])), (w - pad, ym(targets[k]))],
                          _COLORS[k % len(_COLORS)], dashed=True)
    _write_text(path, _svg_document(w, h, body))


def write_nontrapping_svg(path, rows) -> None:
    """Log-log plot of the spectral radius against h."""
    w, h, pad = 640, 420, 50
    pts = [(math.log10(r.h), math.log10(r.top_modulus))
           for r in rows if r.top_modulus > 0]
    if not pts:
        pts = [(0.0, 0.0)]
    xm = _axis_map([p[0] for p in pts], pad, w - pad)
    ym = _axis_map([p[1] for p in pts], h - pad, pad)
    body = _polyline([(xm(x), ym(y)) for x, y in pts], _COLORS[0])
    _write_text(path, _svg_document(w, h, body))


# --------------------------------------------------------------- subcommands

def cmd_trapped(config: RunConfig) -> int:
    rows = trapped_sweep(config.matrix, config.cutoff, config.n_list,
                         k_count=config.k_count,
                         normalize_phase=config.phase == "leading")
    _write_csv(config.out_csv, "N,h,k,re,im,modulus,target,abs_err",
               ([str(r.n), _fmt(r.h), str(r.k), _fmt(r.re), _fmt(r.im),
                 _fmt(r.modulus), _fmt(r.target), _fmt(r.abs_err)]
                for r in rows))
    if config.out_svg:
        write_trapped_svg(config.out_svg, rows,
                          [r.target for r in rows if r.n == config.n_list[0]])
    return EXIT_OK


def cmd_nontrapping(config: RunConfig, synthetic_h2: bool = False) -> int:
    if synthetic_h2:
        rows = nontrapping_rows(config.n_list,
                                [hn.planck(n) ** 2 for n in config.n_list])
    else:
        rows = nontrapping_sweep(config.matrix, config.cutoff, config.n_list)
    _write_csv(config.out_csv, "N,h,top_modulus,slope_vs_prev",
               ([str(r.n), _fmt(r.h), _fmt(r.top_modulus),
                 "" if math.isnan(r.slope_vs_prev) else _fmt(r.slope_vs_prev)]
                for r in rows))
    if config.out_svg:
        write_nontrapping_svg(config.out_svg, rows)
    return EXIT_OK


def cmd_classical(config: RunConfig, q_max: int, radius: float | None) -> int:
    if radius is None:
        radius = guard_radius(analyze(config.matrix))
    report = escape_check(config.matrix, radius, q_max)
    _write_csv(config.out_csv, "q,num_orbits,min_orbit_max_norm,all_escape",
               ([str(q), str(num), _fmt(norm), str(report.all_escape).lower()]
                for q, num, norm in report.per_q))
    print(f"all_escape={str(report.all_escape).lower()} "
          f"(radius={radius:.6g}, q_max={q_max})")
    if report.witness is not None:
        pts = " ".join(f"({p.x_num}/{p.q},{p.y_num}/{p.q})" for p in report.witness)
        print(f"witness orbit: {pts}")
    return EXIT_OK


def _verify_checks(config: RunConfig, sign: int):
    """Yield (name, passed, measure) for the cross-module invariant suite.

    sign is the DFT kernel sign the map is quantized with; the observables
    keep the package convention -1, so sign=+1 must fail the Egorov checks.
    """
    dims = [32, 64, 128]
    for n in dims:
        # the sector blocks the sweeps multiply by; F_s^dag = conj(F_s)
        defect = max(np.abs(np.conj(f) @ f - np.eye(len(f))).max()
                     for f in map(hn.dft_sector, (n, n), (1, -1)))
        yield f"dft_unitary_N{n}", defect < 1e-13, defect
    for n in dims:
        u = quantize_map(config.matrix, n, sign=sign)
        defect = np.abs(u.conj().T @ u - np.eye(n)).max()
        yield f"map_unitary_N{n}", defect < 1e-10, defect
    k = 3
    table = np.zeros((2 * k + 1, 2 * k + 1), dtype=complex)
    table[k + 1, k] = table[k - 1, k] = 0.5
    table[k, k + 1] = table[k, k - 1] = 0.5
    sym = TorusSymbol(table, k)
    word = factor_sl2z(config.matrix)
    for n in (32, 64):
        res = egorov_residual(word, sym, n, sign=sign)
        yield f"egorov_N{n}", res < 1e-8, res
    # Per-generator residuals with single plane waves pin every sign
    # convention; the full-word residual alone can miss a flipped Fourier
    # kernel because the mismatched letters may cancel along the word.
    modes = []
    for k_mode, l_mode in ((1, 0), (0, 1)):
        t = np.zeros((3, 3), dtype=complex)
        t[1 + k_mode, 1 + l_mode] = 1.0
        modes.append(TorusSymbol(t, 1))
    for letter in (("S",), ("S_INV",), ("U", 1), ("L", 1)):
        res = max(egorov_residual([letter], mode, 32, sign=sign) for mode in modes)
        name = letter[0] if len(letter) == 1 else f"{letter[0]}{letter[1]}"
        yield f"egorov_gen_{name}", res < 1e-8, res
    one = np.zeros((3, 3), dtype=complex)
    one[1, 1] = 1.0
    defect = np.abs(op_weyl(TorusSymbol(one, 1), 64) - np.eye(64)).max()
    yield "op_weyl_identity", defect < 1e-13, defect
    a = op_weyl(cutoff_symbol(config.cutoff), 64)
    defect = np.abs(a - a.conj().T).max()
    yield "weyl_hermitian", defect < 1e-11, defect
    # open_spectrum builds and diagonalizes the parity sectors apart; this is
    # the cutoff's parity defect it checks first, for the configured cutoff
    cutoff = cutoff_sectors(config.cutoff, 64)
    defect = cutoff[0]
    yield "parity_commutation", defect < PARITY_TOL, defect
    # reference-free: the open spectra of M and R M R, R = diag(1, -1), are
    # complex conjugates up to the global phase.  The witness is a fixed
    # map that is not symmetric: on a symmetric map such as Arnold's the
    # phase-normalized spectrum is self-conjugate, so a word fault that
    # conjugates it (every U chirp conjugated) leaves the gap at roundoff
    for name, m in (("time_reversal_N64", config.matrix),
                    ("time_reversal_N64_witness", CatMap(3, 2, 4, 3))):
        gap = spectrum_gap(open_spectrum(m, cutoff, 64),
                           np.conj(open_spectrum(CatMap(m.a, -m.b, -m.c, m.d), cutoff, 64)))
        yield name, gap < SYMMETRY_TOL_N64, gap
    rng = np.random.default_rng(config.seed)
    worst = 0.0
    for _ in range(20):
        mat = rng.uniform(-1, 1, (6, 6)) + 1j * rng.uniform(-1, 1, (6, 6))
        worst = max(worst, multiset_distance(char_poly_roots(mat),
                                             eigenvalues(mat)))
    yield "eigensolver_oracle", worst < 1e-6, worst


def cmd_verify(config: RunConfig, flip_dft: bool = False) -> int:
    failures = 0
    for name, passed, measure in _verify_checks(config, sign=1 if flip_dft else -1):
        verdict = "PASS" if passed else "FAIL"
        failures += not passed
        print(f"{verdict}  {name}  ({measure:.3e})")
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opencat",
        description="Spectra of open quantum cat maps on the quantized torus")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("trapped", "nontrapping", "classical", "verify"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run configuration")
        if name == "classical":
            p.add_argument("--q-max", type=int, default=60)
            p.add_argument("--radius", type=float, default=None,
                           help="ball radius in (0, 1/2]; default: guard radius")
        if name == "nontrapping":
            p.add_argument("--synthetic-h2", action="store_true",
                           help="self-test: replace spectral radii with h^2")
        if name == "verify":
            p.add_argument("--debug-flip-dft", action="store_true",
                           help="quantize the map with the opposite DFT sign; "
                                "Egorov checks must FAIL")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.command != "verify" and config.out_csv is None:
            raise ConfigError("out_csv is required")
        if args.command == "trapped":
            return cmd_trapped(config)
        if args.command == "nontrapping":
            return cmd_nontrapping(config, synthetic_h2=args.synthetic_h2)
        if args.command == "classical":
            return cmd_classical(config, q_max=args.q_max, radius=args.radius)
        if args.command == "verify":
            return cmd_verify(config, flip_dft=args.debug_flip_dft)
    except ConfigError as exc:
        # bad input, also an output path that cannot be written; the SVG is
        # written after the CSV, so an SVG failure leaves the CSV in place
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OpenCatError as exc:
        # every other package error is numeric; the sweeps raise before the
        # CSV is written, so none is left behind
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:
        # a config can pass validation and still need more memory than there
        # is, e.g. a DFT block at large N; like the above, before any CSV
        print(f"numeric failure: out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
