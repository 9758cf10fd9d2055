"""One opencat CLI invocation, timed from inside the process.

Usage: child.py {env,setup,sweep} REPORT TRACE -- <opencat CLI arguments>

`sweep` runs `opencat.cli.main` (the `opencat` console script) on the given
arguments and stamps the clock when the config is parsed and when main
returns, after the CSV is written.  `setup` stops after the config is
parsed.  `env` reports versions and BLAS settings.  With TRACE = 1 the
spans of tracing.TARGETS are recorded.  The report is written as JSON to
REPORT; the exit code is the CLI's.
"""

import json
import resource
import sys

from tracing import Recorder, now


def openblas_runtime():
    """Thread count and config string of the OpenBLAS numpy loaded, if any."""
    import ctypes
    import numpy  # noqa: F401  (loads the BLAS library)
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                return get_threads(), get_config().decode()
    return None, None


def env_record():
    import numpy
    import opencat.cli  # also compiles the package once, before any timing
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads, config = openblas_runtime()
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "blas_name": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": threads, "blas_runtime_config": config,
            "opencat_file": opencat.cli.__file__}


def main():
    mode, report_path, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    argv = sys.argv[sys.argv.index("--") + 1:]
    if mode == "env":
        with open(report_path, "w") as fh:
            json.dump(env_record(), fh)
        return 0
    from opencat import cli
    recorder = Recorder()
    if trace:
        recorder.install()
    stamps = {}
    load_config = cli.load_config

    def stamped_load_config(path):
        config = load_config(path)
        stamps["t_config"] = now()
        return config

    cli.load_config = stamped_load_config
    if mode == "setup":
        args = cli.build_parser().parse_args(argv)
        cli.load_config(args.config)
        rc = 0
    else:
        rc = cli.main(argv)
    stamps["t_end"] = now()
    report = {**stamps, "rc": rc,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "spans": recorder.spans, "counts": recorder.counts,
              "untraced_targets": recorder.missing}
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
