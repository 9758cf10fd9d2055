"""opencat benchmark: run the CLI on one workload, time it, check its outputs.

    python3 perfbench/run.py --workload trapped_left --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout; the CLI is imported from ./src.  The
benchmark is a single-process closed loop: one sweep at a time, each in a
fresh interpreter, as a user's invocation would run.  BLAS threads are capped
at nproc and recorded.

--trace 0 measures the end-to-end metrics for --seconds: set-up probes and
full sweeps alternate until the next sweep would overrun.  --trace 1 makes one
untraced sweep and two traced ones (on trapped_left the second is pinned to
one BLAS thread) and reports per-layer times and exact counts.  Every sweep's
CSV is checked against the reference; a failed sweep gives no timing.
--workload all runs every workload in turn.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The full record (environment, per-sweep
figures, spans) is written to perfbench/out/<workload>-seed<seed>-trace<t>/.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from tracing import LAYERS, now, summarize
from workloads import WORKLOADS, check_output, cli_args, make_config, matrix_index

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# A run must end within this many seconds, whatever --seconds says.
HARD_LIMIT_S = 170.0
SETUP_PROBES_PER_SWEEP = 2
# Largest |traced sweep - sum of self times| accepted when the measured
# tracing overhead is smaller than this.
ACCOUNTING_TOL_S = 0.05

END_TO_END = {"setup_s": "s", "sweep_s": "s", "peak_rss_mb": "MB"}

N_VALUES = sorted({n for w in WORKLOADS.values() for n in w.n_list()})
FUNCTION_TIMES = (
    "cli.parse_config_s", "experiments.build_open_operator_s",
    "experiments.build_self_s", "experiments.spectrum_report_s",
    "quantizer.op_weyl_s", "quantizer.op_left_s", "quantizer.symbol_s",
    "metaplectic.quantize_word_s", "metaplectic.phase_factor_s",
    "eigensolver.eigenvalues_s", "eigensolver.sort_s", "catmap.escape_check_s")
# Layers and functions whose spans carry N; each also comes as <name>.N<n>.
PER_N_TIMES = tuple(f"{layer}.self_s" for layer in
                    ("experiments", "quantizer", "metaplectic", "eigensolver", "hn")
                    ) + FUNCTION_TIMES[1:-1]
# Counts that must repeat exactly between runs of the same code and seed.
EXACT_COUNTS = ("eigensolver.dense_solves", "hn.dft_cache_misses",
                "hn.dft_cache_hits", "catmap.orbits", "metaplectic.word_letters")
TRACE_TIMES = ("trace.sweep_s", "trace.untraced_sweep_s", "trace.overhead_s",
               "trace.unattributed_s", "blas1.sweep_s")


def per_layer_units() -> dict:
    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    units.update({name: "s" for name in FUNCTION_TIMES})
    units.update({f"{name}.N{n}": "s" for name in PER_N_TIMES for n in N_VALUES})
    units.update({name: "count" for name in EXACT_COUNTS})
    units["hn.dft_cache_mb_computed"] = "MB"
    units.update({name: "s" for name in TRACE_TIMES})
    return units


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ------------------------------------------------------------- environment

def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def machine_record(threads: int) -> dict:
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), None)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = _read(index / "size")
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"nproc": threads, "cpu_model": model, "caches": caches,
            "git_commit": commit, "src_sha256": src.hexdigest()}


# ------------------------------------------------------------------ sweeps

class Runner:
    """Spawns CLI processes for one workload and seed in its own directory."""

    def __init__(self, workload, seed, trace):
        self.workload, self.seed = workload, seed
        self.threads = len(os.sched_getaffinity(0))
        self.workdir = OUT / f"{workload.name}-seed{seed}-trace{trace}"
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.config_path = self.workdir / "config.json"
        self.config_path.write_text(json.dumps(make_config(workload, seed, "out.csv")))
        self.started = now()
        self.count = 0

    def spawn(self, mode, trace=False, threads=None):
        """Run child.py once; returns (report or None, exit code, spawn time, seconds)."""
        self.count += 1
        report_path = self.workdir / f"{self.count:03d}-{mode}.json"
        threads = str(threads or self.threads)
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        cmd = [sys.executable, str(BENCH / "child.py"), mode, str(report_path),
               "1" if trace else "0", "--",
               *cli_args(self.workload, str(self.config_path))]
        (self.workdir / "out.csv").unlink(missing_ok=True)
        t_spawn = now()
        try:
            proc = subprocess.run(cmd, cwd=self.workdir, env=env, capture_output=True,
                                  text=True, timeout=HARD_LIMIT_S - (t_spawn - self.started))
        except subprocess.TimeoutExpired:
            return None, "timeout", t_spawn, now() - t_spawn
        elapsed = now() - t_spawn
        log = self.workdir / f"{self.count:03d}-{mode}.log"
        log.write_text(proc.stdout + proc.stderr)
        report = json.loads(report_path.read_text()) if report_path.exists() else None
        return report, proc.returncode, t_spawn, elapsed

    def environment(self) -> dict:
        report, rc, _, _ = self.spawn("env")
        if rc != 0 or report is None:
            raise SetupError(f"cannot import opencat from {ROOT / 'src'}")
        if not Path(report["opencat_file"]).resolve().is_relative_to(ROOT / "src"):
            raise SetupError(f"opencat imported from {report['opencat_file']}, "
                             f"not from {ROOT / 'src'}")
        return {**report, **machine_record(self.threads)}

    def setup_probe(self) -> float:
        report, rc, t_spawn, _ = self.spawn("setup")
        if rc != 0 or report is None:
            raise SetupError("the CLI cannot parse the generated config")
        return report["t_config"] - t_spawn

    def sweep(self, trace=False, threads=None) -> dict:
        report, rc, t_spawn, elapsed = self.spawn("sweep", trace, threads)
        record = {"rc": rc, "process_s": elapsed, "threads": threads or self.threads,
                  "traced": trace}
        if rc != 0 or report is None:
            record["problems"] = [f"CLI exit status {rc}"]
            return record
        if "t_config" not in report or not (self.workdir / "out.csv").exists():
            record["problems"] = ["CLI exited 0 without parsing the config or writing the CSV"]
            return record
        record["problems"] = check_output(self.workload, self.seed,
                                          self.workdir / "out.csv")
        record.update(setup_s=report["t_config"] - t_spawn,
                      sweep_s=report["t_end"] - report["t_config"],
                      peak_rss_mb=report["maxrss_kb"] * 1024 / 1e6)
        if trace:
            record.update(layers=summarize(report["spans"], report["t_config"]),
                          counts=report["counts"],
                          untraced_targets=report["untraced_targets"])
        return record


def measure(runner, seconds) -> tuple:
    """End-to-end metrics over --seconds; returns (metrics, sweeps, extra)."""
    setups, sweeps, rounds = [], [], []
    deadline = runner.started + seconds
    while True:
        t0 = now()
        setups += [runner.setup_probe() for _ in range(SETUP_PROBES_PER_SWEEP)]
        record = runner.sweep()
        sweeps.append(record)
        if not record["problems"]:
            setups.append(record["setup_s"])
        rounds.append(now() - t0)
        if record["rc"] == "timeout" or now() + statistics.median(rounds) > deadline:
            break
    good = [r for r in sweeps if not r["problems"]]
    metrics = {"setup_s": statistics.median(setups)}
    if good:
        metrics["sweep_s"] = statistics.median(r["sweep_s"] for r in good)
        metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in good)
    return metrics, sweeps, {"setup_samples": setups}


def trace(runner, seconds) -> tuple:
    """Per-layer metrics from traced sweeps; returns (metrics, sweeps, extra)."""
    untraced = runner.sweep()
    first = runner.sweep(trace=True)
    pinned = runner.workload.name == "trapped_left"
    second = runner.sweep(trace=True, threads=1 if pinned else None)
    sweeps = [untraced, first, second]
    metrics = dict.fromkeys(per_layer_units(), 0.0)
    extra = {}
    if any(r["problems"] for r in sweeps):
        return metrics, sweeps, extra
    metrics.update({k: v for k, v in first["layers"].items() if k in metrics})
    for name in EXACT_COUNTS + ("hn.dft_cache_mb_computed",):
        metrics[name] = first["counts"].get(name, 0)
    overhead = first["sweep_s"] - untraced["sweep_s"]
    unattributed = first["sweep_s"] - first["layers"]["sweep_self_sum_s"]
    metrics.update({"trace.sweep_s": first["sweep_s"],
                    "trace.untraced_sweep_s": untraced["sweep_s"],
                    "trace.overhead_s": overhead,
                    "trace.unattributed_s": unattributed})
    if pinned:
        metrics["blas1.sweep_s"] = second["sweep_s"]
    counts = [{k: r["counts"].get(k, 0) for k in EXACT_COUNTS} for r in (first, second)]
    if counts[0] != counts[1]:
        first["problems"].append(f"exact counts differ between traced sweeps: {counts}")
    if abs(unattributed) > max(abs(overhead), ACCOUNTING_TOL_S):
        first["problems"].append(f"self times miss {unattributed:.4f} s of the traced "
                                 f"sweep, more than the overhead {overhead:.4f} s")
    extra["untraced_targets"] = first["untraced_targets"]
    return metrics, sweeps, extra


def run_workload(workload, seed, seconds, traced) -> dict:
    runner = Runner(workload, seed, int(traced))
    env = runner.environment()
    metrics, sweeps, extra = (trace if traced else measure)(runner, seconds)
    units = per_layer_units() if traced else END_TO_END
    failed = sum(bool(r["problems"]) for r in sweeps)
    result = {
        "correct": failed == 0, "attempted": len(sweeps), "failed": failed,
        "metrics": {k: {"value": metrics.get(k), "unit": u} for k, u in units.items()}}
    record = {"workload": workload.name, "seed": seed,
              "matrix_index": matrix_index(seed), "seconds": seconds,
              "trace": int(traced), "environment": env, "sweeps": sweeps,
              **extra, "result": result}
    (runner.workdir / "result.json").write_text(json.dumps(record, indent=1))
    return record


def print_summary(record):
    res = record["result"]
    env = record["environment"]
    print(f"== {record['workload']} seed {record['seed']} (matrix "
          f"{record['matrix_index']}), {res['attempted']} sweeps, numpy "
          f"{env['numpy']}, {env['blas_name']} {env['blas_version']}, "
          f"BLAS threads {env['blas_threads']}/{env['nproc']}, {env['cpu_model']}")
    if record["trace"]:
        shown = {k: m for k, m in res["metrics"].items() if m["value"]}
    else:
        shown = dict(res["metrics"])
        shown["failed_frac"] = {"value": res["failed"] / res["attempted"], "unit": "1"}
    for name, m in shown.items():
        print(f"  {name:40s} {m['value']!s:>22} {m['unit']}")
    for sweep in record["sweeps"]:
        for problem in sweep["problems"]:
            print(f"  FAILED: {problem}")
    if record.get("untraced_targets"):
        print(f"  not traced (missing): {', '.join(record['untraced_targets'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "opencat" / "cli.py").is_file():
        print(f"no opencat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        records = [run_workload(WORKLOADS[name], args.seed, args.seconds,
                                bool(args.trace)) for name in names]
    except SetupError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    for record in records:
        print_summary(record)
    if len(records) == 1:
        result = records[0]["result"]
    else:
        result = {"correct": all(r["result"]["correct"] for r in records),
                  "attempted": sum(r["result"]["attempted"] for r in records),
                  "failed": sum(r["result"]["failed"] for r in records),
                  "metrics": {f"{r['workload']}.{k}": m for r in records
                              for k, m in r["result"]["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
