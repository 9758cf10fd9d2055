"""The benchmark's workloads: the config each seed generates and the output checks.

A workload seed picks the map from four trace-3 matrices.  All four have the
same expansion rate lam = phi^2, the same theorem targets and guard radius,
|Q| = 1 and factor words of 3-4 letters, so the seed varies the word and the
orbit structure but not the difficulty.  Only the generated config file (and
the subcommand's own flags) reach the program.
"""

import csv
from dataclasses import dataclass
from pathlib import Path

MATRICES = ([2, 1, 1, 1], [1, 1, 1, 2], [2, -1, -1, 1], [1, -1, -1, 2])

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Relative tolerance on trapped moduli and nontrapping radii.  Between 1 and
# 2 BLAS threads the dense path moves the radii and the k <= 2 moduli by less
# than 2e-10, but the k = 3 modulus at N = 2048, an ill-conditioned
# eigenvalue of a non-normal operator, by 7.4e-8.
RTOL = 1e-6
# Nontrapping slopes are differences of logs of the radii.
SLOPE_ATOL = 1e-6
# |modulus - lam^{-(2k+1)/2}| at the largest N (2048), per k.  The dense
# path gives at most 6.9e-6 (k = 3) over the four maps.
TARGET_ERR_BOUND = 1e-4


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    config: dict
    args: tuple
    why: str

    def n_list(self) -> list:
        return list(self.config["n_list"]) if self.subcommand != "classical" else []


WORKLOADS = {w.name: w for w in (
    Workload(
        name="trapped_left",
        subcommand="trapped",
        config={"n_list": [512, 1024, 2048],
                "cutoff": {"kind": "product_bump", "r_inner": 0.10, "r_outer": 0.20},
                "quantization": "left", "phase": "leading", "k_count": 4},
        args=(),
        why="Default route up to the N = 2048 target: dense M-hat GEMMs, two "
            "diagonalizations per N and the DFT sandwich for chi; op_weyl never "
            "runs, so it is the control for Weyl-band work."),
    Workload(
        name="nontrapping_weyl",
        subcommand="nontrapping",
        config={"n_list": [256, 512, 768],
                "cutoff": {"kind": "annulus_product", "r_inner": 0.15, "r_outer": 0.24},
                "quantization": "weyl"},
        args=(),
        why="op_weyl is 85-90% of the time and only the spectral radius is used, "
            "so banded Weyl and top-k work show here; one diagonalization per N "
            "makes it the control for diagonalize-once."),
    Workload(
        name="classical",
        subcommand="classical",
        config={"n_list": [2],
                "cutoff": {"kind": "product_bump", "r_inner": 0.10, "r_outer": 0.20}},
        args=("--q-max", "160"),
        why="The only workload in catmap: pure-Python O(q^3) orbit loops, no "
            "linear algebra; target of a vectorized escape_check and flat under "
            "every operator change."),
)}


def matrix_index(seed: int) -> int:
    return seed % len(MATRICES)


def make_config(workload: Workload, seed: int, out_csv: str) -> dict:
    return {"matrix": MATRICES[matrix_index(seed)], **workload.config,
            "out_csv": out_csv}


def cli_args(workload: Workload, config_path: str) -> list:
    return [workload.subcommand, "--config", config_path, *workload.args]


def reference_path(workload: Workload, seed: int) -> Path:
    return REFERENCE_DIR / f"{workload.name}-m{matrix_index(seed)}.csv"


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def check_output(workload: Workload, seed: int, csv_path) -> list:
    """Problems found comparing a sweep's CSV with the reference; [] if none."""
    ref_path = reference_path(workload, seed)
    got_text = Path(csv_path).read_text()
    ref_text = ref_path.read_text()
    if workload.subcommand == "classical":
        return [] if got_text == ref_text else ["classical CSV differs from reference"]
    if got_text.splitlines()[:1] != ref_text.splitlines()[:1]:
        return ["CSV header differs from reference"]
    got, ref = _rows(csv_path), _rows(ref_path)
    key = ("N", "k") if workload.subcommand == "trapped" else ("N",)
    if [[r[c] for c in key] for r in got] != [[r[c] for c in key] for r in ref]:
        return [f"CSV {'/'.join(key)} columns differ from reference"]
    problems = []
    if workload.subcommand == "trapped":
        for g, r in zip(got, ref):
            if not _rel(float(g["modulus"]), float(r["modulus"])) <= RTOL:
                problems.append(f"modulus N={g['N']} k={g['k']}: "
                                f"{g['modulus']} vs {r['modulus']}")
        n_top = max(int(r["N"]) for r in ref)
        for g in got:
            err = abs(float(g["modulus"]) - float(g["target"]))
            if int(g["N"]) == n_top and not err <= TARGET_ERR_BOUND:
                problems.append(f"theorem-target error N={n_top} k={g['k']}: "
                                f"{err:.3g} > {TARGET_ERR_BOUND}")
    else:
        for g, r in zip(got, ref):
            if not _rel(float(g["top_modulus"]), float(r["top_modulus"])) <= RTOL:
                problems.append(f"radius N={g['N']}: {g['top_modulus']} vs "
                                f"{r['top_modulus']}")
            if bool(g["slope_vs_prev"]) != bool(r["slope_vs_prev"]) or (
                    r["slope_vs_prev"] and not abs(float(g["slope_vs_prev"])
                                                   - float(r["slope_vs_prev"])) <= SLOPE_ATOL):
                problems.append(f"slope N={g['N']}: {g['slope_vs_prev']} vs "
                                f"{r['slope_vs_prev']}")
    return problems
