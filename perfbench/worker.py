"""One run of one workload in a fresh process; prints one JSON line.

Usage: python3 perfbench/worker.py --workload NAME [--seed N] [--trace 0|1]
[--paths N].  Run from the repository root with ``src`` on PYTHONPATH and
the BLAS thread variables set to 1, as ``perfbench/run.py`` does.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here, the first statement

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def _blas_version() -> str:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--paths", type=int, default=None)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    import numpy as np
    import scipy

    import girsanovlab as gl

    seed = gl.DEFAULT_SEED if args.seed is None else args.seed
    n_paths = args.paths or workload.n_paths
    state = workload.setup(gl, seed, n_paths)
    setup_s = time.perf_counter() - _T0

    from tracer import Tracer

    tracer = Tracer() if args.trace else contextlib.nullcontext()
    output, error = None, None
    t1 = time.perf_counter()
    try:
        with tracer:
            output = workload.run(gl, state)
    except Exception:  # an op that raises is counted as failed, not fatal
        error = traceback.format_exc()
    wall_s = time.perf_counter() - t1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if error is None:
        try:
            ops, info = workload.check(gl, state, output)
        except Exception:  # output the gate cannot read fails the gate
            error = traceback.format_exc()
    if error is not None:
        ops = [{"op": i, "ok": False, "fingerprint": "", "detail": "raised"}
               for i in range(workload.ops)]
        info = {"error": error}
    record = {
        "workload": workload.name,
        "seed": seed,
        "n_paths": n_paths,
        "trace": args.trace,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "paths_per_s": n_paths * workload.replicas * workload.ops / wall_s,
        "ops": ops,
        "info": info,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": _blas_version(),
        },
    }
    if args.trace:
        record["layers"] = tracer.layer_metrics()
        record["spans"] = tracer.spans
        record["wrapped"] = tracer.wrapped
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
