"""Command-line front end: run the experiments, write CSV and optional SVG.

Subcommands: trapped, nontrapping, classical, verify.  A JSON config file
carries the experiment description; CSV is the artifact of record (17
significant digits so reruns are diffable), SVG plots are a convenience.
"""

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import hn
from .catmap import CatMap, analyze, escape_check, guard_radius
from .errors import ConfigError, OpenCatError
from .experiments import (PARITY_TOL, SYMMETRY_TOL_N64, cutoff_sectors, nontrapping_sweep,
                          open_spectrum, spectrum_gap, trapped_sweep)
from .metaplectic import apply_word, egorov_residual, factor_sl2z, quantize_map
from .quantizer import BumpSpec, cutoff_profile, cutoff_symbol, op_weyl, plane_wave

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

_CONFIG_KEYS = {"matrix", "n_list", "cutoff", "quantization", "phase",
                "k_count", "k_max", "grid", "out_csv", "out_svg"}
_CUTOFF_KEYS = {"kind", "r_inner", "r_outer"}


@dataclasses.dataclass
class RunConfig:
    matrix: CatMap
    n_list: list
    cutoff: BumpSpec
    k_count: int | None  # None: trapped_sweep's default; trapped_sweep checks it
    out_csv: str | None
    out_svg: str | None


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    return parse_config(raw)


def _integer(value, what: str) -> int:
    """An integral JSON number as int; else a ConfigError."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (isinstance(value, float) and not value.is_integer())):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
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
    # huge entries would overflow analyze's float conversions; the documented
    # bound is 2**63, below which every subcommand runs
    if max(abs(v) for v in entries) >= 2**63:
        raise ConfigError(f"matrix entries must be below 2**63 in magnitude, got {mat}")
    m = CatMap(*entries)
    analyze(m)  # ConfigError for |trace| <= 2
    if not isinstance(raw["n_list"], list):
        raise ConfigError("n_list must be a list of integers")
    n_list = [_integer(n, "n_list entry") for n in raw["n_list"]]
    if not n_list or any(n % 2 or n < 2 for n in n_list):
        raise ConfigError("n_list must be nonempty, even, positive")
    if any(a >= b for a, b in zip(n_list, n_list[1:])):
        raise ConfigError("n_list must be strictly ascending")
    if (largest := n_list[-1]) >= hn.MAX_N:
        raise ConfigError(f"n_list entry {largest} must be below 2**{hn.MAX_N.bit_length() - 1}")
    cut = raw["cutoff"]
    if not isinstance(cut, dict) or set(cut) != _CUTOFF_KEYS:
        raise ConfigError(f"cutoff needs exactly keys {sorted(_CUTOFF_KEYS)}")
    # the quantization route's keys default and are checked in BumpSpec
    route = {key: raw[key] if key == "quantization" else _integer(raw[key], key)
             for key in ("quantization", "k_max", "grid") if key in raw}
    spec = BumpSpec(cut["kind"], _number(cut["r_inner"], "r_inner"),
                    _number(cut["r_outer"], "r_outer"), **route)
    # one phase rule, trapped_sweep's; the key may still name it
    if raw.get("phase", "leading") != "leading":
        raise ConfigError(f"phase must be 'leading', got {raw['phase']!r}")
    # without k_count, trapped_sweep fits the default to the cutoff's live rows
    k_count = _integer(raw["k_count"], "k_count") if "k_count" in raw else None
    for key in ("out_csv", "out_svg"):
        if not isinstance(raw.get(key), (str, type(None))):
            raise ConfigError(f"{key} must be a path string")
    return RunConfig(matrix=m, n_list=n_list, cutoff=spec, k_count=k_count,
                     out_csv=raw.get("out_csv"), out_svg=raw.get("out_svg"))


def _write_text(path: str, text: str) -> None:
    """Write one output file; a path that cannot be written is a config error."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}")


def _cell(value) -> str:
    """A CSV field: true/false, an int as is, NaN empty, another float to 17 digits."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return "" if math.isnan(value) else format(value, ".17g")


def _write_csv(path: str, header: str, rows) -> None:
    _write_text(path, "\n".join([header, *(",".join(map(_cell, row)) for row in rows)]) + "\n")


_COLORS = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
           "#9467bd", "#8c564b", "#e377c2", "#7f7f7f"]


def _write_svg(path: str, series) -> None:
    """Plot each (points, level) of series in its own colour: the points as a solid polyline,
    or a dot when there is one point, then, unless level is None, a dashed horizontal line
    at level.  The axes span all of them."""
    w, h, pad = 640, 420, 50

    def scale(vals, lo_px, hi_px):
        vmin = min(vals)
        span = (max(vals) - vmin) or 1.0
        return lambda v: lo_px + (v - vmin) / span * (hi_px - lo_px)

    xm = scale([x for points, _ in series for x, _ in points], pad, w - pad)
    ym = scale([y for points, _ in series for _, y in points]
               + [level for _, level in series if level is not None], h - pad, pad)
    body = ""
    for i, (points, level) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        lines = [([(xm(x), ym(y)) for x, y in points], "")]
        if len(points) == 1:  # a one-point polyline has no length and draws nothing
            [(x, y)], _ = lines.pop()
            body += f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{color}"/>\n'
        if level is not None:
            lines.append(([(pad, ym(level)), (w - pad, ym(level))], ' stroke-dasharray="6,4"'))
        for pixels, dash in lines:
            pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in pixels)
            body += (f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="1.5"{dash} points="{pts}"/>\n')
    _write_text(path, f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
                      f'viewBox="0 0 {w} {h}">\n<rect width="{w}" height="{h}" fill="white"/>\n'
                      f'{body}</svg>\n')


# --------------------------------------------------------------- subcommands

def cmd_trapped(config: RunConfig) -> int:
    rows = trapped_sweep(config.matrix, config.cutoff, config.n_list, k_count=config.k_count)
    _write_csv(config.out_csv, "N,h,k,re,im,modulus,target,abs_err",
               map(dataclasses.astuple, rows))
    if config.out_svg:
        # per k, Re mu_k against N and the dashed target line
        targets = {r.k: r.target for r in rows}
        _write_svg(config.out_svg, [([(r.n, r.re) for r in rows if r.k == k], target)
                                    for k, target in targets.items()])
    return EXIT_OK


def cmd_nontrapping(config: RunConfig) -> int:
    rows = nontrapping_sweep(config.matrix, config.cutoff, config.n_list)
    _write_csv(config.out_csv, "N,h,top_modulus,slope_vs_prev", map(dataclasses.astuple, rows))
    if config.out_svg:
        # log-log: the radius against h, over the N where it is positive
        pts = [(math.log10(r.h), math.log10(r.top_modulus)) for r in rows if r.top_modulus > 0]
        if pts:
            _write_svg(config.out_svg, [(pts, None)])
        else:
            print(f"no plot written to {config.out_svg}: no spectral radius is positive",
                  file=sys.stderr)
    return EXIT_OK


def cmd_classical(config: RunConfig, q_max: int, radius: float | None) -> int:
    if radius is None:
        radius = guard_radius(analyze(config.matrix))
    report = escape_check(config.matrix, radius, q_max)
    _write_csv(config.out_csv, "q,num_orbits,min_orbit_max_norm,all_escape",
               (row + (report.all_escape,) for row in report.per_q))
    print(f"all_escape={str(report.all_escape).lower()} "
          f"(radius={radius:.6g}, q_max={q_max})")
    if report.witness is not None:
        pts = " ".join(f"({p.x_num}/{p.q},{p.y_num}/{p.q})" for p in report.witness)
        print(f"witness orbit: {pts}")
    return EXIT_OK


def _verify_checks(config: RunConfig, sign: int):
    """Yield (name, passed, measure) for the cross-module invariant suite.

    sign is the DFT kernel sign the map is quantized with; the observables
    keep the package convention -1, so sign=+1 must fail egorov_gen_S_INV,
    and the map's lines too when its word has an odd count of S^-1 letters.
    """
    dims = [32, 64, 128]
    for n in dims:
        # the DFT as the sweeps apply it: the sector blocks the left route
        # multiplies by, and the row FFTs of the Weyl route's word, F in the
        # S^-1 letter (conj(omega) F) and F^dag in U(1) (F chirp F^dag), each
        # letter on the identity
        defect = max(np.abs(u.conj().T @ u - np.eye(len(u))).max()
                     for parity in (1, -1)
                     for u in (hn.dft_sector(n, parity),
                               *(apply_word(np.eye(n // 2 + parity), [letter], None, n, parity)
                                 for letter in (("S_INV",), ("U", 1)))))
        yield f"dft_unitary_N{n}", defect < 1e-13, defect
    for n in dims:
        u = quantize_map(config.matrix, n, sign=sign)
        defect = np.abs(u.conj().T @ u - np.eye(n)).max()
        yield f"map_unitary_N{n}", defect < 1e-10, defect
    # Egorov on e^{2 pi i x} and e^{2 pi i xi}: the map's word, and each letter
    # alone, which sees a flipped DFT that an even count of S^-1 letters hides
    word = factor_sl2z(config.matrix)
    for name, letters, n in (("N32", word, 32), ("N64", word, 64),
                             ("gen_S_INV", [("S_INV",)], 32), ("gen_U1", [("U", 1)], 32)):
        res = egorov_residual(letters, [(1, 0), (0, 1)], n, sign=sign)
        yield f"egorov_{name}", res < 1e-8, res
    defect = np.abs(op_weyl(plane_wave(0, 0), 64) - np.eye(64)).max()
    yield "op_weyl_identity", defect < 1e-13, defect
    chi = op_weyl(cutoff_symbol(config.cutoff), 64)
    defect = np.abs(chi - chi.conj().T).max()
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
    mu = open_spectrum(config.matrix, cutoff, 64)
    for name, m in (("time_reversal_N64", config.matrix),
                    ("time_reversal_N64_witness", CatMap(3, 2, 4, 3))):
        vals = mu if m is config.matrix else open_spectrum(m, cutoff, 64)
        gap = spectrum_gap(vals, np.conj(open_spectrum(CatMap(m.a, -m.b, -m.c, m.d), cutoff, 64)))
        yield name, gap < SYMMETRY_TOL_N64, gap
    # Newton's identities on the program's own spectrum, its zero padding
    # included: sum mu^p = tr B^p for B = chi Mhat formed densely in the full
    # space, apart from the sector split and the live blocks.  chi is the
    # Weyl matrix above on that route, or diag(rho) F^dag diag(rho) F; the
    # map keeps the package sign, so a flipped DFT fails only the Egorov lines
    if config.cutoff.quantization == "left":
        rho = np.diag(cutoff_profile(config.cutoff)(hn.torus_rep_array(np.arange(64) / 64)))
        f = np.fft.fft(np.eye(64), norm="ortho")
        chi = rho @ f.conj().T @ rho @ f
    b = chi @ quantize_map(config.matrix, 64)
    power, worst = np.eye(64), 0.0
    for p in range(1, 5):
        power = power @ b
        trace = np.trace(power)
        worst = max(worst, abs(np.sum(mu ** p) - trace) / max(1.0, abs(trace)))
    yield "eigensolver_power_traces_N64", worst < 1e-10, worst


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
            return cmd_nontrapping(config)
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
