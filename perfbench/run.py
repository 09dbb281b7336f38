"""Benchmark of girsanovlab: one workload, measured for a fixed time.

Usage, from the repository root:

    python3 perfbench/run.py --workload kl-affine --seed 7 --seconds 40 --trace 0
    python3 perfbench/run.py --self-test

Each run of the workload happens in a fresh worker process
(``perfbench/worker.py``), one at a time, with the BLAS thread variables set
to 1, so no cache carries over between runs.  Workers are started while the
next one is expected to end within ``--seconds``; the metrics are the medians
over the workers.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced workers and prints the per-layer metrics of
the traced ones plus the tracing overhead.  Every operation's output fingerprint must be
the same in every worker of a run, traced or not.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record of the run
(environment, per-worker results, fingerprints and spans) is written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "paths_per_s": "1/s", "peak_rss_mb": "MiB"}
#: longest a single worker may take, within the 180 s a run may take
WORKER_TIMEOUT_S = 170.0


class WorkerError(RuntimeError):
    """A worker exited with an error or printed no result."""


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_worker(workload: str, seed, trace: int, paths=None, timeout=WORKER_TIMEOUT_S) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--trace", str(trace)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if paths is not None:
        cmd += ["--paths", str(paths)]
    proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                          text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker for {workload} exited with {proc.returncode}:\n"
                          + proc.stderr[-4000:])
    return json.loads(lines[-1])


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
    }


def summarize(records: list[dict], trace: int) -> dict:
    """The result line: gates, fingerprint agreement and median metrics."""
    ops = [op for r in records for op in r["ops"]]
    failed = sum(not op["ok"] for op in ops)
    prints = {tuple(op["fingerprint"] for op in r["ops"]) for r in records}
    untraced = [r for r in records if not r["trace"]]
    if trace:
        traced = [r for r in records if r["trace"]]
        metrics = {
            name: {"value": statistics.median(r["layers"][name]["value"] for r in traced),
                   "unit": metric["unit"]}
            for name, metric in traced[0]["layers"].items()
        }
        metrics["trace.overhead_s"] = {
            "value": statistics.median(r["wall_s"] for r in traced)
            - statistics.median(r["wall_s"] for r in untraced),
            "unit": "s",
        }
    else:
        metrics = {
            name: {"value": statistics.median(r[name] for r in untraced), "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    return {
        "correct": failed == 0 and len(prints) == 1,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }


def measure(workload: str, seed, seconds: float, trace: int) -> tuple[list, dict]:
    """Run workers while the next one is expected to end within ``seconds``.

    A traced run alternates untraced and traced workers and has at least one
    of each.
    """
    start = time.monotonic()
    env_start = environment()
    records: list[dict] = []
    durations: list[float] = []
    kinds = (0, 1) if trace else (0,)
    while True:
        elapsed = time.monotonic() - start
        enough = len(records) >= len(kinds)
        if enough and elapsed + statistics.median(durations) > seconds:
            break
        kind = kinds[len(records) % len(kinds)]
        timeout = max(WORKER_TIMEOUT_S - elapsed, 1.0)
        records.append(run_worker(workload, seed, kind, timeout=timeout))
        durations.append(time.monotonic() - start - elapsed)
    env = {"start": env_start, "end": environment(), "versions": records[0]["versions"]}
    return records, env


def write_record(workload: str, trace: int, env: dict, records: list, result: dict) -> Path:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"{workload}-seed{records[0]['seed']}-trace{trace}.json"
    path.write_text(json.dumps({"environment": env, "result": result, "workers": records}))
    return path


def self_test() -> int:
    """Every workload at a tiny size, untraced and traced, in a few seconds.

    Asserts that every metric BENCHMARK.json names is emitted with its unit
    and that the traced run reproduces the untraced fingerprints.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    for name, workload in WORKLOADS.items():
        records = [run_worker(name, None, trace, workload.tiny_paths) for trace in (0, 1)]
        for trace in (0, 1):
            result = summarize(records, trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want[trace], f"{name} trace {trace}: {got} != {want[trace]}"
            assert result["attempted"] == 2 * workload.ops, result
            assert all(isinstance(v["value"], float) for v in result["metrics"].values())
        first, second = ([op["fingerprint"] for op in r["ops"]] for r in records)
        assert first == second and all(first), f"{name}: traced fingerprints differ"
        print(f"self-test {name}: {len(want[0])} end-to-end and {len(want[1])} per-layer "
              f"metrics emitted; fingerprints match", file=sys.stderr)
    print("self-test ok")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: girsanovlab.DEFAULT_SEED)")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "girsanovlab" / "__init__.py").is_file():
        print(f"error: no girsanovlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    try:
        records, env = measure(args.workload, args.seed, args.seconds, args.trace)
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = summarize(records, args.trace)
    path = write_record(args.workload, args.trace, env, records, result)
    print(f"{len(records)} workers, python {env['start']['python']}, "
          f"{env['versions']['blas']}, nproc {env['start']['nproc']}, "
          f"loadavg {env['start']['loadavg'][0]:.2f}; record in {path.relative_to(ROOT)}")
    for op in (op for r in records[:1] for op in r["ops"]):
        print(f"  op {op['op']} {'ok' if op['ok'] else 'FAILED'}: {op['detail']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
