"""The benchmark's workloads: inputs from a seed, the timed calls, their gates.

Each workload builds its inputs in ``setup`` (counted in ``setup_s``), makes
its calls in ``run`` (counted in ``wall_s``) and judges every operation in
``check``, which runs after the timed region.  An operation is one grid of a
sweep or one ``run_weights`` call; ``check`` returns one record per
operation with its pass/fail verdict and a sha256 fingerprint of its output.

Gates are sized to hold on any seed at the benchmark's path counts.  The
experiments' own monotone and slope checks are sized for 1e5 paths; they are
reported under ``info`` but do not gate.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

#: |estimate - exact| <= Z_GATE * SE for the Monte Carlo gates
Z_GATE = 5.0

KL_AFFINE_CONFIG = """
[experiment]
name = kl-order-sweep
n_paths = {n_paths}
seed = {seed}
[potential]
kind = gaussian
d = 2
[grid]
T = 0.5
h = 1/8 1/16 1/32 1/64
m = 3 8 24 64
[scheme]
name = DM-ULMC
gamma = 1.0
"""

LOCAL_ERROR_CONFIG = """
[experiment]
name = local-error-sweep
n_paths = {n_paths}
seed = {seed}
[potential]
kind = anisotropic-gaussian
spectrum = 0.5 1.0
[grid]
T = 0.25
h = 1/4 1/8 1/16 1/32
m = 64 128 256 512
[scheme]
name = DM-ULMC
gamma = 1.0
"""


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _op(index: int, ok: bool, fingerprint: str, detail: str) -> dict:
    return {"op": index, "ok": bool(ok), "fingerprint": fingerprint, "detail": detail}


def _rows_by_grid(result) -> dict:
    """CSV data lines of an experiment grouped by the h of their row."""
    lines = result.csv_text.splitlines()[3:]
    groups: dict = {}
    for row, line in zip(result.rows, lines):
        if row.get("h") is not None:
            groups.setdefault(row["h"], []).append(line)
    return groups


def _experiment_info(result) -> dict:
    return {c.label: {"passed": c.passed, "detail": c.detail} for c in result.checks}


def _run_experiment(gl, state):
    return gl.experiments.run_experiment(state["cfg"], threads=1)


# -- kl-affine ---------------------------------------------------------------


def _kl_setup(gl, seed: int, n_paths: int) -> dict:
    return {"cfg": gl.config.load_config(KL_AFFINE_CONFIG.format(n_paths=n_paths, seed=seed))}


def _kl_check(gl, state, result):
    """Per grid: |KL - quadratic_path_kl| <= 5 SE and no rejected path."""
    cfg = state["cfg"]
    mean0, cov0 = gl.divergences.stationary_moments(cfg.potential, kinetic=True)
    lines = _rows_by_grid(result)
    kl_rows = [r for r in result.rows if r.get("h") is not None and r["q"] == 1.0]
    ops = []
    for i, (grid, row) in enumerate(zip(cfg.grids(), kl_rows)):
        maps = gl.affine.step_maps_for_schedule(cfg.scheme, cfg.potential, grid, cfg.gamma)
        exact = gl.affine.quadratic_path_kl(maps, mean0, cov0)
        z = (row["estimate"] - exact) / row["se"]
        ok = np.isfinite(z) and abs(z) <= Z_GATE and row["rejections"] == 0
        detail = (f"h={grid.h:g} m={grid.m}: KL {row['estimate']:.6g} exact {exact:.6g} "
                  f"z={z:+.2f} rejections={row['rejections']}")
        ops.append(_op(i, ok, sha256("\n".join(lines[row["h"]])), detail))
    return ops, _experiment_info(result)


# -- generic-weights ---------------------------------------------------------


def _generic_setup(gl, seed: int, n_paths: int) -> dict:
    potential = gl.potentials.PerturbedQuadratic(
        np.linspace(1.0, 2.0, 8), amplitude=0.1, frequency=1.0)
    d = potential.d
    # the experiments' default start for non-quadratic targets:
    # x ~ N(0, I/alpha), and p ~ N(0, I) on the kinetic route
    cov_x = np.eye(d) / potential.alpha
    cov_z = np.block([[cov_x, np.zeros((d, d))], [np.zeros((d, d)), np.eye(d)]])
    paths = gl.paths
    calls = [
        dict(scheme="mlmc",
             schedule=paths.OverdampedSchedule.deterministic(paths.TimeGrid(0.5, 4, 32)),
             gamma=None, init=("gaussian", np.zeros(d), cov_x)),
        dict(scheme="dmulmc",
             schedule=paths.UnderdampedSchedule.deterministic(paths.TimeGrid(0.5, 4, 8)),
             gamma=1.0, init=("gaussian", np.zeros(2 * d), cov_z)),
    ]
    return {"potential": potential, "calls": calls, "seed": seed, "n_paths": n_paths}


def _generic_run(gl, state):
    return [
        gl.engine.run_weights(
            c["scheme"], state["potential"], schedule=c["schedule"], gamma=c["gamma"],
            n_paths=state["n_paths"], seed=state["seed"], init=c["init"], threads=1)
        for c in state["calls"]
    ]


def _generic_check(gl, state, runs):
    """Per call: |mean(M) - 1| <= 5 SE, every weight finite, no rejection."""
    ops = []
    for i, wr in enumerate(runs):
        logw = wr.log_weight
        finite = bool(np.all(np.isfinite(logw)))
        M = np.exp(logw)
        se = float(np.std(M, ddof=1) / np.sqrt(M.size))
        z = (float(np.mean(M)) - 1.0) / se
        ok = finite and np.isfinite(z) and abs(z) <= Z_GATE and wr.n_rejected == 0
        detail = (f"{wr.scheme}: mean(M)-1 = {np.mean(M) - 1:+.3e} z={z:+.2f} "
                  f"rejected={wr.n_rejected} rho_max={wr.spectral_radius:.3f}")
        ops.append(_op(i, ok, sha256(logw.tobytes()), detail))
    return ops, {}


# -- local-error -------------------------------------------------------------


def _local_setup(gl, seed: int, n_paths: int) -> dict:
    return {"cfg": gl.config.load_config(LOCAL_ERROR_CONFIG.format(n_paths=n_paths, seed=seed))}


def _local_check(gl, state, result):
    """The strong_p slope check, with every error column finite."""
    slope = [c for c in result.checks if c.label.startswith("strong_p")]
    slope_ok = len(slope) == 1 and slope[0].passed
    lines = _rows_by_grid(result)
    ops = []
    for i, row in enumerate(result.rows):
        columns = [v for k, v in row.items() if k.startswith(("strong_", "weak_"))]
        finite = bool(np.all(np.isfinite(columns)))
        detail = (f"h={row['h']:g} m={row['m']}: finite={finite} "
                  f"strong_p slope check {'passed' if slope_ok else 'FAILED'}")
        ops.append(_op(i, finite and slope_ok, sha256("\n".join(lines[row["h"]])), detail))
    return ops, _experiment_info(result)


@dataclass(frozen=True)
class Workload:
    name: str
    n_paths: int
    tiny_paths: int
    ops: int
    #: simulated paths per path index (the local-error sweep couples two replicas)
    replicas: int
    setup: Callable
    run: Callable
    check: Callable


WORKLOADS = {
    w.name: w
    for w in (
        Workload("kl-affine", 8192, 64, 4, 1, _kl_setup, _run_experiment, _kl_check),
        Workload("generic-weights", 128, 8, 2, 1, _generic_setup, _generic_run, _generic_check),
        Workload("local-error", 2048, 64, 4, 2, _local_setup, _run_experiment, _local_check),
    )
}
