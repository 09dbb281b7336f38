"""Deterministic Monte Carlo driver for pathwise weight runs.

Work is partitioned by path index into fixed generation blocks (the RNG's
block size), each block is evaluated independently — affine fast path for
constant-Hessian targets, generic per-path assembly otherwise — and results
are written into preallocated slots by block index.  The partition, the
per-block arithmetic, and the merge order are all functions of the path index
alone, so estimates are bit-identical across thread counts and across runs
with the same seed.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .affine import fast_log_weights, step_maps_for_schedule
from .girsanov import (
    LogWeight,
    block_summary_dmulmc,
    block_summary_mlmc,
    block_summary_ulmc,
    drift_dmulmc,
    drift_mlmc,
    drift_ulmc,
    summary_log_weight,
)
from .integrators import simulate_dmulmc, simulate_mlmc, simulate_ulmc
from .paths import (
    BLOCK_PATHS,
    LABEL_INIT,
    OverdampedSchedule,
    TimeGrid,
    UnderdampedSchedule,
    normal_block,
)
from .potentials import Potential

__all__ = ["WeightRun", "run_weights", "generic_log_weights", "GRAD_QUERIES_PER_STEP"]

#: Gradient evaluations per outer step (midpoint schemes query the midpoint
#: gradient once and reuse it across inner cells).
GRAD_QUERIES_PER_STEP = {"em-ld": 1, "mlmc": 2, "ulmc": 1, "dmulmc": 3}

#: Generic per-path assembly is evaluated in sub-chunks this large to bound
#: the memory of the (chunk, N, m, d, d) Hessian arrays.
_GENERIC_CHUNK = 512


@dataclass(frozen=True)
class WeightRun:
    """Log weights of ``n_paths`` scheme paths, in path-index order."""

    scheme: str
    seed: int
    log_weight: np.ndarray
    invertible: np.ndarray
    spectral_radius: float
    n_negative_det: int
    grad_queries_per_path: int

    @property
    def n_paths(self) -> int:
        return self.log_weight.size

    @property
    def n_rejected(self) -> int:
        return int((~self.invertible).sum())


def _resolve_grid(scheme: str, schedule, grid: TimeGrid | None) -> TimeGrid:
    if schedule is not None:
        return schedule.grid
    if grid is None:
        raise ValueError("need a schedule or a grid")
    return grid


def generic_log_weights(
    scheme: str,
    potential: Potential,
    schedule,
    grid: TimeGrid | None,
    gamma: float | None,
    z0: np.ndarray,
    xi: np.ndarray,
) -> LogWeight:
    """Per-path drift and weight of one batch, any potential.

    The determinant, trace and spectral diagnostic come from each block's
    factors (:class:`~girsanovlab.girsanov.BlockSummary`); the dense blocks
    are never formed.
    """
    d = potential.d
    if scheme in ("em-ld", "mlmc"):
        traj = simulate_mlmc(potential, schedule, z0, xi)
        return summary_log_weight(
            drift_mlmc(potential, traj), block_summary_mlmc(potential, traj), xi
        )
    if scheme == "ulmc":
        g = _resolve_grid(scheme, None, grid)
        traj = simulate_ulmc(potential, g, gamma, z0[:, :d], z0[:, d:], xi)
        return summary_log_weight(
            drift_ulmc(potential, traj), block_summary_ulmc(potential, traj), xi
        )
    if scheme == "dmulmc":
        traj = simulate_dmulmc(potential, schedule, gamma, z0[:, :d], z0[:, d:], xi)
        return summary_log_weight(
            drift_dmulmc(traj), block_summary_dmulmc(potential, traj), xi
        )
    raise ValueError(f"unknown scheme {scheme!r}")


def _init_sampler(init, potential: Potential, kinetic: bool, seed: int):
    """Return (state_dim, draw(block, rows) -> (rows, state_dim)).

    ``init`` is "stationary", ("delta", vector), or ("gaussian", mean, cov).
    Random starts consume the dedicated initialization stream, block-aligned
    with the path stream, so adding paths never perturbs existing ones.
    """
    from .divergences import stationary_moments

    d = potential.d
    zdim = 2 * d if kinetic else d
    if isinstance(init, str) and init == "stationary":
        mean, cov = stationary_moments(potential, kinetic=kinetic)
    elif isinstance(init, tuple) and init[0] == "delta":
        vec = np.asarray(init[1], dtype=float)
        if vec.shape != (zdim,):
            raise ValueError(f"delta start must have shape ({zdim},), got {vec.shape}")

        def draw_delta(block: int, rows: slice) -> np.ndarray:
            n = rows.stop - rows.start
            return np.broadcast_to(vec, (n, zdim)).copy()

        return zdim, draw_delta
    elif isinstance(init, tuple) and init[0] == "gaussian":
        mean = np.asarray(init[1], dtype=float)
        cov = np.asarray(init[2], dtype=float)
    else:
        raise ValueError(f"unknown initial law {init!r}")
    chol = np.linalg.cholesky(cov)

    def draw(block: int, rows: slice) -> np.ndarray:
        normals = normal_block(seed, 1, zdim, block, label=LABEL_INIT)[rows, 0]
        return mean + normals @ chol.T

    return zdim, draw


def run_weights(
    scheme: str,
    potential: Potential,
    *,
    schedule=None,
    grid: TimeGrid | None = None,
    gamma: float | None = None,
    n_paths: int,
    seed: int,
    init="stationary",
    threads: int = 1,
    force_generic: bool = False,
) -> WeightRun:
    """Sample ``n_paths`` scheme paths and evaluate their log weights.

    Noise comes from the path stream of ``seed``; initial states from the
    initialization stream.  Constant-Hessian targets use the affine fast
    path unless ``force_generic``; both routes agree to rounding (tested).
    """
    the_grid = _resolve_grid(scheme, schedule, grid)
    kinetic = scheme in ("ulmc", "dmulmc")
    if kinetic and (gamma is None or not gamma > 0):
        raise ValueError("kinetic schemes need a positive friction gamma")
    if schedule is None:
        if scheme == "em-ld":
            schedule = OverdampedSchedule.zero(the_grid)
        elif scheme == "mlmc":
            schedule = OverdampedSchedule.deterministic(the_grid)
        elif scheme == "dmulmc":
            schedule = UnderdampedSchedule.deterministic(the_grid)
    n_cells, d = the_grid.n_cells, potential.d
    zdim, draw_init = _init_sampler(init, potential, kinetic, seed)

    maps = None
    if potential.is_quadratic and not force_generic:
        maps = step_maps_for_schedule(scheme, potential, schedule or the_grid, gamma)

    def eval_block(block: int) -> tuple:
        lo = block * BLOCK_PATHS
        hi = min(n_paths, lo + BLOCK_PATHS)
        rows = slice(0, hi - lo)
        xi = normal_block(seed, n_cells, d, block)[rows]
        z0 = draw_init(block, rows)
        if maps is not None:
            w = fast_log_weights(maps, z0, xi)
            return block, w.log_weight, w.invertible, int(w.negative_det.sum()), float(
                w.spectral_radius.max()
            )
        logw = np.empty(hi - lo)
        inv = np.empty(hi - lo, dtype=bool)
        neg = 0
        rho = 0.0
        for c0 in range(0, hi - lo, _GENERIC_CHUNK):
            c1 = min(hi - lo, c0 + _GENERIC_CHUNK)
            w = generic_log_weights(
                scheme, potential, schedule, the_grid, gamma, z0[c0:c1], xi[c0:c1]
            )
            logw[c0:c1] = w.log_weight
            inv[c0:c1] = w.invertible
            neg += int(w.negative_det.sum())
            rho = max(rho, float(w.spectral_radius.max()))
        return block, logw, inv, neg, rho

    n_blocks = (n_paths + BLOCK_PATHS - 1) // BLOCK_PATHS
    log_weight = np.empty(n_paths)
    invertible = np.empty(n_paths, dtype=bool)
    n_negative = 0
    rho_max = 0.0
    if threads <= 1:
        results = map(eval_block, range(n_blocks))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(eval_block, range(n_blocks)))
    for block, logw, inv, neg, rho in results:
        lo = block * BLOCK_PATHS
        hi = min(n_paths, lo + BLOCK_PATHS)
        log_weight[lo:hi] = logw
        invertible[lo:hi] = inv
        n_negative += neg
        rho_max = max(rho_max, rho)
    queries = GRAD_QUERIES_PER_STEP[scheme] * the_grid.N
    if scheme == "mlmc" and schedule is not None:
        # a zero midpoint index reuses the start gradient: one query that step
        queries = int(np.sum(np.where(np.asarray(schedule.indices) > 0, 2, 1)))
    return WeightRun(
        scheme=scheme,
        seed=seed,
        log_weight=log_weight,
        invertible=invertible,
        spectral_radius=rho_max,
        n_negative_det=n_negative,
        grad_queries_per_path=queries,
    )
