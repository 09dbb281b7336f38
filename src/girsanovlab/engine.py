"""Deterministic Monte Carlo driver for pathwise weight runs.

Work is partitioned by path index into windows of :func:`window_rows` paths:
the largest power of two, at most ``WINDOW_PATHS``, whose noise fits in
``WINDOW_BYTES``.  So windows tile the RNG's generation blocks, and a
window's noise does not grow with the grid.  Each window reads its own
increments and start states and is evaluated independently — affine fast
path for constant-Hessian targets, generic per-path assembly otherwise — and
the windows' weights are merged in path order.  The partition, the
per-window arithmetic, and the merge order are all functions of the path
index and the grid alone, so estimates are bit-identical across thread counts
and across runs with the same seed.

Every path consumer draws start states from :func:`start_law`, resolved once
per run: path p's start is row p of the seed's initialization stream, as its
increments are row p of the path stream.  The default start law is the
stationary law for
quadratic targets, N(0, H⁻¹) or N(0, diag(H⁻¹, I)) in phase space, and
otherwise x ~ N(0, I/α) with p ~ N(0, I).

The scheme table :data:`SCHEMES` defines each discretization once — its
schedules, simulation, horizon state, drift, step tangent rule, derivative
blocks, affine step keys, gradient query count and step-size bound — and
every scheme-dependent call site in the package goes through it.
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
    derivative_blocks,
    drift_basis_dmulmc,
    drift_dmulmc,
    drift_mlmc,
    drift_ulmc,
    summary_log_weight,
    tangents_dmulmc,
    tangents_mlmc,
    tangents_ulmc,
)
from .integrators import (
    DM_STEP_MARGIN,
    simulate_dmulmc,
    simulate_dmulmc_marginal,
    simulate_mlmc,
    simulate_ulmc,
)
from .paths import (
    LABEL_INIT,
    OverdampedSchedule,
    TimeGrid,
    UnderdampedSchedule,
    noise_matrix,
)
from .potentials import Potential

__all__ = [
    "SCHEDULE_MODES", "SCHEMES", "Scheme", "WeightRun", "WINDOW_BYTES", "WINDOW_PATHS",
    "scheme_for", "start_law", "start_states", "window_rows", "map_windows", "run_weights",
    "generic_log_weights",
]

#: Most paths in one evaluation window of :func:`run_weights` and the
#: local-error sweep.  It divides ``BLOCK_PATHS``, so no window crosses a
#: generation block; grids whose 512-row window holds more than
#: ``WINDOW_BYTES`` of noise get fewer rows (:func:`window_rows`).
WINDOW_PATHS = 512

#: Bytes of noise one evaluation window may hold: rows × values per path × 8.
WINDOW_BYTES = 4 * 2**20

#: Midpoint schedule modes of ``Scheme.schedule``.
SCHEDULE_MODES = ("deterministic", "randomized", "zero")


class Scheme:
    """One discretization, as every scheme-dependent call site needs it.

    ``name`` is the scheme id and ``label`` its user-facing spelling.  A
    schedule-free scheme has ``None`` as its schedule.  The methods call the
    integrator and weight layers through this module's names at call time.

    * ``schedule(grid, mode, seed, stream)``: the midpoint schedule for a
      mode of ``SCHEDULE_MODES``, ValueError for another.  ``midpoint_choice``
      is False when the scheme has one schedule whatever the mode.
    * ``simulate(potential, grid, schedule, gamma, z0, xi)``: the trajectory
      from stacked start states z0 — x, or (x, p) for kinetic schemes —
      and ``endpoint(traj)``, its state at the horizon, shaped like z0.
    * ``advance(potential, grid, schedule, gamma, z0, xi)``: the horizon
      state alone, equal to ``endpoint(simulate(...))``; a scheme overrides
      it where the marginal update is cheaper than the trajectory (DM-ULMC
      skips the inner fixed point, and agrees to 1e-12, tested).
    * ``drift_coordinates(potential, traj)``: (U, G, c), the one stored form
      of a step's drift, flattened to m·d as ψ = U·c with coordinates c
      (B, N, r) and Gram matrix G = UᵀU.  DM-ULMC drifts span r = 2d
      columns; the other schemes return U = G = None, the identity basis
      (c = ψ, r = m·d).  ``drift(potential, traj)`` is ψ, (B, N·m, d).
      ``drift_basis(traj)`` is U alone, read from the trajectory's grid
      without evaluating the drift.
    * ``tangents(potential, traj)``: the one step tangent rule
      (k, dirs, dz0) → (Dc, Dz_h) in drift coordinates, which runs the
      scheme's own integrator step with grad = ∇²V·DX, behind the dense
      ``blocks``, the DM-ULMC ``summary`` and the affine step maps.
    * ``blocks(potential, traj, include_offdiag)``: the dense derivative
      Dψ = U·Dc from the tangent rule, for every scheme (the reference for
      finite differences and dumps: diagonal blocks per step or the whole
      derivative in one forward sweep); ``summary(potential, traj)``, its
      structured block summary, which both weight routes read.
    * ``step_keys(grid, schedule)``: per outer step, the hashable midpoint
      choice that fixes the step's affine maps; ``step_schedule(step_grid,
      key)`` is the one-step schedule of a key.
    * ``grad_queries(grid, schedule)``: gradient evaluations per path in the
      algorithm's marginal updates.
    * ``step_bound(beta, q)``: the largest step size h the weights allow,
      stated as ``bound_rule``; infinite when there is none.
    * ``check_gamma(gamma)``: ValueError unless a kinetic scheme has a
      finite positive friction.
    """

    name = label = bound_rule = ""
    kinetic = midpoint_choice = False

    def schedule(self, grid: TimeGrid, mode: str = "deterministic", seed: int = 0,
                 stream: int = 0):
        if mode not in SCHEDULE_MODES:
            raise ValueError(f"unknown schedule mode {mode!r}: use {' | '.join(SCHEDULE_MODES)}")
        return self._schedule(grid, mode, seed, stream)

    def _schedule(self, grid, mode, seed, stream):
        return None

    def advance(self, potential: Potential, grid: TimeGrid, schedule, gamma, z0, xi):
        return self.endpoint(self.simulate(potential, grid, schedule, gamma, z0, xi))

    def drift_coordinates(self, potential: Potential, traj):
        psi = self.drift(potential, traj)
        return None, None, psi.reshape(psi.shape[0], traj.grid.N, -1)

    def drift_basis(self, traj):
        return None

    def blocks(self, potential: Potential, traj, include_offdiag: bool = False):
        return derivative_blocks(
            traj, self.tangents(potential, traj), include_offdiag, self.drift_basis(traj)
        )

    def step_keys(self, grid: TimeGrid, schedule) -> list:
        return [0] * grid.N

    def step_schedule(self, step_grid: TimeGrid, key):
        return None

    def step_bound(self, beta: float, q: float) -> float:
        return np.inf

    def check_gamma(self, gamma) -> None:
        if self.kinetic and (gamma is None or not 0 < gamma < np.inf):
            raise ValueError(
                f"kinetic schemes need a positive friction gamma that is finite, got {gamma}"
            )


class _MidpointLMC(Scheme):
    name, label, bound_rule = "mlmc", "M-LMC", "1/(beta*q)"
    midpoint_choice = True

    def _schedule(self, grid, mode, seed, stream):
        if mode == "deterministic":
            return OverdampedSchedule.deterministic(grid)
        if mode == "zero":
            return OverdampedSchedule.zero(grid)
        return OverdampedSchedule.randomized(grid, seed, stream)

    def simulate(self, potential, grid, schedule, gamma, z0, xi):
        return simulate_mlmc(potential, schedule, z0, xi)

    def endpoint(self, traj):
        return traj.x[:, -1]

    def drift(self, potential, traj):
        return drift_mlmc(potential, traj)

    def tangents(self, potential, traj):
        return tangents_mlmc(potential, traj)

    def summary(self, potential, traj):
        return block_summary_mlmc(potential, traj)

    def step_keys(self, grid, schedule):
        return [int(i) for i in schedule.indices]

    def step_schedule(self, step_grid, key):
        return OverdampedSchedule(step_grid, np.array([int(key)], dtype=int))

    def grad_queries(self, grid, schedule):
        # a zero midpoint index reuses the start gradient: one query that step
        return int(np.sum(np.where(schedule.indices > 0, 2, 1)))

    def step_bound(self, beta, q):
        return 1.0 / (beta * q) if beta > 0 else np.inf


class _EulerLD(_MidpointLMC):
    """Euler–Maruyama: the overdamped midpoint scheme with τ ≡ 0."""

    name, label, bound_rule = "em-ld", "EM-LD", ""
    midpoint_choice = False

    def _schedule(self, grid, mode, seed, stream):
        return OverdampedSchedule.zero(grid)

    def step_bound(self, beta, q):
        return np.inf


class _Kinetic(Scheme):
    kinetic = True

    def endpoint(self, traj):
        return np.concatenate([traj.x[:, -1], traj.p[:, -1]], axis=-1)


class _FrozenGradientULMC(_Kinetic):
    name, label = "ulmc", "ULMC"

    def simulate(self, potential, grid, schedule, gamma, z0, xi):
        d = potential.d
        return simulate_ulmc(potential, grid, gamma, z0[:, :d], z0[:, d:], xi)

    def drift(self, potential, traj):
        return drift_ulmc(potential, traj)

    def tangents(self, potential, traj):
        return tangents_ulmc(potential, traj)

    def summary(self, potential, traj):
        return block_summary_ulmc(potential, traj)

    def grad_queries(self, grid, schedule):
        return grid.N


class _DoubleMidpointULMC(_Kinetic):
    name, label, bound_rule = "dmulmc", "DM-ULMC", f"{DM_STEP_MARGIN:g}/sqrt(beta*q)"
    midpoint_choice = True

    def _schedule(self, grid, mode, seed, stream):
        if mode == "deterministic":
            return UnderdampedSchedule.deterministic(grid)
        if mode == "zero":
            zeros = np.zeros(grid.N, dtype=int)
            return UnderdampedSchedule(grid, zeros, zeros.copy())
        return UnderdampedSchedule.randomized(grid, seed, stream)

    def simulate(self, potential, grid, schedule, gamma, z0, xi):
        d = potential.d
        return simulate_dmulmc(potential, schedule, gamma, z0[:, :d], z0[:, d:], xi)

    def advance(self, potential, grid, schedule, gamma, z0, xi):
        d = potential.d
        xs, ps = simulate_dmulmc_marginal(potential, schedule, gamma, z0[:, :d], z0[:, d:], xi)
        return np.concatenate([xs[:, -1], ps[:, -1]], axis=-1)

    def drift(self, potential, traj):
        return drift_dmulmc(traj)

    def drift_coordinates(self, potential, traj):
        U, gram = drift_basis_dmulmc(traj)
        return U, gram, np.concatenate([traj.lambda1, traj.lambda2], axis=-1)

    def drift_basis(self, traj):
        return drift_basis_dmulmc(traj)[0]

    def tangents(self, potential, traj):
        return tangents_dmulmc(potential, traj)

    def summary(self, potential, traj):
        return block_summary_dmulmc(potential, traj)

    def step_keys(self, grid, schedule):
        return [(int(a), int(b)) for a, b in zip(schedule.indices_minus, schedule.indices_plus)]

    def step_schedule(self, step_grid, key):
        r_minus, r_plus = key
        return UnderdampedSchedule(
            step_grid, np.array([int(r_minus)], dtype=int), np.array([int(r_plus)], dtype=int)
        )

    def grad_queries(self, grid, schedule):
        return 3 * grid.N

    def step_bound(self, beta, q):
        return DM_STEP_MARGIN / np.sqrt(beta * q) if beta > 0 else np.inf


#: The scheme table, keyed by scheme id.
SCHEMES = {s.name: s for s in (_EulerLD(), _MidpointLMC(), _FrozenGradientULMC(), _DoubleMidpointULMC())}


def scheme_for(name: str) -> Scheme:
    """The table entry of a scheme id; ValueError for an unknown id."""
    try:
        return SCHEMES[name]
    except KeyError:
        raise ValueError(f"unknown scheme {name!r}") from None


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


def _resolve_grid(schedule, grid: TimeGrid | None) -> TimeGrid:
    """The schedule's grid, or ``grid`` without one; ValueError if both are given and differ."""
    if schedule is None:
        if grid is None:
            raise ValueError("need a schedule or a grid")
        return grid
    if grid is not None and grid != schedule.grid:
        raise ValueError(f"grid {grid} differs from the schedule's grid {schedule.grid}")
    return schedule.grid


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
    s = scheme_for(scheme)
    traj = s.simulate(potential, _resolve_grid(schedule, grid), schedule, gamma, z0, xi)
    return summary_log_weight(s.drift(potential, traj), s.summary(potential, traj), xi)


def start_law(potential: Potential, kinetic: bool, init=None):
    """The start law's sampler ``draw(seed, n, start=0)``, resolved once per run.

    ``init`` is None (the default start law) or ("gaussian", mean, cov) with
    mean (z,) and cov (z, z), z = d or 2d; other shapes are a ValueError.
    ``draw`` returns the start states of paths ``start .. start+n−1``, shape
    (n, d) or (n, 2d): path p's start is row p of the seed's initialization
    stream pushed through the law's Cholesky factor, so it depends on
    (seed, p) alone.  The stationary law of a quadratic target costs a
    Hessian, an ``eigh`` and a Cholesky factor, so windowed runs resolve it
    once and draw every window's rows from it.
    """
    d = potential.d
    zdim = 2 * d if kinetic else d
    if init is None and potential.is_quadratic:
        from .divergences import stationary_moments  # divergences imports this module

        mean, cov = stationary_moments(potential, kinetic=kinetic)
    elif init is None:
        mean, cov = np.zeros(zdim), np.eye(zdim)
        cov[:d, :d] /= potential.alpha if potential.alpha > 0 else 1.0
    elif init[0] == "gaussian":
        mean, cov = np.asarray(init[1], dtype=float), np.asarray(init[2], dtype=float)
        if mean.shape != (zdim,) or cov.shape != (zdim, zdim):
            raise ValueError(
                f"a gaussian start law needs mean ({zdim},) and cov ({zdim}, {zdim}), "
                f"got {mean.shape} and {cov.shape}"
            )
    else:
        raise ValueError(f"unknown initial law {init!r}")
    chol = np.linalg.cholesky(cov)

    def draw(seed: int, n: int, start: int = 0) -> np.ndarray:
        normals = noise_matrix(seed, n, 1, zdim, label=LABEL_INIT, start=start)[:, 0]
        return mean + normals @ chol.T

    return draw


def start_states(
    potential: Potential, kinetic: bool, seed: int, n: int, *, start: int = 0, init=None
) -> np.ndarray:
    """Start states of paths ``start .. start+n−1`` under :func:`start_law` (``init``)."""
    return start_law(potential, kinetic, init)(seed, n, start)


def window_rows(values_per_path: int) -> int:
    """Rows per window: the largest power of two ≤ ``WINDOW_PATHS`` whose
    rows × ``values_per_path`` float64 values fit in ``WINDOW_BYTES``, and at
    least 1.  A power of two divides ``BLOCK_PATHS``, so windows tile the
    generation blocks."""
    rows = WINDOW_PATHS
    while rows > 1 and rows * values_per_path * 8 > WINDOW_BYTES:
        rows //= 2
    return rows


def map_windows(eval_window, n_paths: int, threads: int, values_per_path: int) -> list:
    """eval_window(lo, hi) over the windows of paths 0 … n_paths−1, in window order.

    Windows have :func:`window_rows` (``values_per_path``) rows, the last one
    fewer; this is the one place that cuts them, for :func:`run_weights` and
    the local-error sweep.  With ``threads`` > 1 the windows run on a thread
    pool.
    """
    rows = window_rows(values_per_path)
    starts = range(0, n_paths, rows)
    stops = [min(lo + rows, n_paths) for lo in starts]
    if threads <= 1:
        return [eval_window(lo, hi) for lo, hi in zip(starts, stops)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(eval_window, starts, stops))


def run_weights(
    scheme: str,
    potential: Potential,
    *,
    schedule=None,
    grid: TimeGrid | None = None,
    gamma: float | None = None,
    n_paths: int,
    seed: int,
    init=None,
    threads: int = 1,
) -> WeightRun:
    """Sample ``n_paths`` scheme paths and evaluate their log weights.

    Paths are evaluated in the windows of :func:`map_windows`, cut by the
    n_cells·d increments of a path on either route, so that one window's
    noise fits in ``WINDOW_BYTES``: each window draws the increments of its
    own paths, draws its start states from the law :func:`start_law`
    resolves once from ``init``, and yields one
    :class:`~girsanovlab.girsanov.LogWeight`.  A ``grid`` given beside a
    ``schedule`` must be the schedule's own.  Constant-Hessian
    targets take the affine fast path, which agrees with
    :func:`generic_log_weights` to rounding (tested).
    """
    if n_paths < 1:
        raise ValueError(f"need n_paths >= 1, got {n_paths}")
    the_grid = _resolve_grid(schedule, grid)
    s = scheme_for(scheme)
    s.check_gamma(gamma)
    if schedule is None:
        schedule = s.schedule(the_grid)

    maps = None
    if potential.is_quadratic:
        maps = step_maps_for_schedule(scheme, potential, schedule or the_grid, gamma)
    draw_starts = start_law(potential, s.kinetic, init)

    def eval_window(lo: int, hi: int) -> LogWeight:
        xi = noise_matrix(seed, hi - lo, the_grid.n_cells, potential.d, start=lo)
        z0 = draw_starts(seed, hi - lo, start=lo)
        if maps is not None:
            return fast_log_weights(maps, z0, xi)
        return generic_log_weights(scheme, potential, schedule, the_grid, gamma, z0, xi)

    windows = map_windows(eval_window, n_paths, threads, the_grid.n_cells * potential.d)
    return WeightRun(
        scheme=scheme,
        seed=seed,
        log_weight=np.concatenate([w.log_weight for w in windows]),
        invertible=np.concatenate([w.invertible for w in windows]),
        spectral_radius=max(float(w.spectral_radius.max()) for w in windows),
        n_negative_det=sum(int(w.negative_det.sum()) for w in windows),
        grad_queries_per_path=s.grad_queries(the_grid, schedule),
    )
