"""Deterministic Monte Carlo driver for pathwise weight runs.

Work is partitioned by path index into fixed windows of ``WINDOW_PATHS``
paths, which tile the RNG's generation blocks.  Each window reads its own
increments and start states and is evaluated independently — affine fast path
for constant-Hessian targets, generic per-path assembly otherwise — and the
windows' weights are merged in path order.  The partition, the per-window
arithmetic, and the merge order are all functions of the path index alone, so
estimates are bit-identical across thread counts and across runs with the
same seed.

Every path consumer draws start states through :func:`start_states`: path
p's start is row p of the seed's initialization stream, as its increments are
row p of the path stream.  The default start law is the stationary law for
quadratic targets, N(0, H⁻¹) or N(0, diag(H⁻¹, I)) in phase space, and
otherwise x ~ N(0, I/α) with p ~ N(0, I).

The scheme table :data:`SCHEMES` defines each discretization once — its
schedules, simulation, horizon state, drift, derivative blocks, affine step
keys, gradient query count and step-size bound — and every scheme-dependent
call site in the package goes through it.
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
    malliavin_blocks_dmulmc,
    malliavin_blocks_mlmc,
    malliavin_blocks_ulmc,
    summary_log_weight,
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
    "SCHEMES", "Scheme", "WeightRun", "WINDOW_PATHS", "scheme_for", "start_states",
    "run_weights", "generic_log_weights",
]

#: Paths per evaluation window of :func:`run_weights` and the local-error
#: sweep.  It divides ``BLOCK_PATHS``, so no window crosses a generation
#: block, and it bounds the memory of a window's increments and of the
#: generic route's (window, N, m, d, d) Hessian arrays.
WINDOW_PATHS = 512


class Scheme:
    """One discretization, as every scheme-dependent call site needs it.

    ``name`` is the scheme id and ``label`` its user-facing spelling.  A
    schedule-free scheme has ``None`` as its schedule.  The methods call the
    integrator and weight layers through this module's names at call time.

    * ``schedule(grid, mode, seed, stream)``: the midpoint schedule for a
      mode (deterministic | randomized | zero).  ``midpoint_choice`` is
      False when the scheme has one schedule whatever the mode.
    * ``simulate(potential, grid, schedule, gamma, z0, xi)``: the trajectory
      from stacked start states z0 — x, or (x, p) for kinetic schemes —
      and ``endpoint(traj)``, its state at the horizon, shaped like z0.
    * ``advance(potential, grid, schedule, gamma, z0, xi)``: the horizon
      state alone, equal to ``endpoint(simulate(...))``; a scheme overrides
      it where the marginal update is cheaper than the trajectory (DM-ULMC
      skips the inner fixed point, and agrees to 1e-12, tested).
    * ``drift``, the dense derivative ``blocks`` (the reference for finite
      differences and dumps; built from the scheme's one step tangent rule,
      diagonal blocks per step or, with ``include_offdiag``, the whole
      derivative in one forward sweep) and their structured ``summary``
      (both weight routes: per path on the generic route, once per step on
      the affine one) of a trajectory.
    * ``step_keys(grid, schedule)``: per outer step, the hashable midpoint
      choice that fixes the step's affine maps; ``step_schedule(step_grid,
      key)`` is the one-step schedule of a key.
    * ``grad_queries(grid, schedule)``: gradient evaluations per path in the
      algorithm's marginal updates.
    * ``step_bound(beta, q)``: the largest step size h the weights allow,
      stated as ``bound_rule``; infinite when there is none.
    * ``check_gamma(gamma)``: ValueError unless a kinetic scheme has a
      positive friction.
    """

    name = label = bound_rule = ""
    kinetic = midpoint_choice = False

    def schedule(self, grid: TimeGrid, mode: str = "deterministic", seed: int = 0,
                 stream: int = 0):
        return None

    def advance(self, potential: Potential, grid: TimeGrid, schedule, gamma, z0, xi):
        return self.endpoint(self.simulate(potential, grid, schedule, gamma, z0, xi))

    def step_keys(self, grid: TimeGrid, schedule) -> list:
        return [0] * grid.N

    def step_schedule(self, step_grid: TimeGrid, key):
        return None

    def step_bound(self, beta: float, q: float) -> float:
        return np.inf

    def check_gamma(self, gamma) -> None:
        if self.kinetic and (gamma is None or not gamma > 0):
            raise ValueError("kinetic schemes need a positive friction gamma")


class _MidpointLMC(Scheme):
    name, label, bound_rule = "mlmc", "M-LMC", "1/(beta*q)"
    midpoint_choice = True

    def schedule(self, grid, mode="deterministic", seed=0, stream=0):
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

    def blocks(self, potential, traj, include_offdiag=False):
        return malliavin_blocks_mlmc(potential, traj, include_offdiag=include_offdiag)

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

    def schedule(self, grid, mode="deterministic", seed=0, stream=0):
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

    def blocks(self, potential, traj, include_offdiag=False):
        return malliavin_blocks_ulmc(potential, traj, include_offdiag=include_offdiag)

    def summary(self, potential, traj):
        return block_summary_ulmc(potential, traj)

    def grad_queries(self, grid, schedule):
        return grid.N


class _DoubleMidpointULMC(_Kinetic):
    name, label, bound_rule = "dmulmc", "DM-ULMC", f"{DM_STEP_MARGIN:g}/sqrt(beta*q)"
    midpoint_choice = True

    def schedule(self, grid, mode="deterministic", seed=0, stream=0):
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

    def blocks(self, potential, traj, include_offdiag=False):
        return malliavin_blocks_dmulmc(potential, traj, include_offdiag=include_offdiag)

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
    s = scheme_for(scheme)
    traj = s.simulate(potential, _resolve_grid(schedule, grid), schedule, gamma, z0, xi)
    return summary_log_weight(s.drift(potential, traj), s.summary(potential, traj), xi)


def start_states(
    potential: Potential, kinetic: bool, seed: int, n: int, *, start: int = 0, init=None
) -> np.ndarray:
    """Start states of paths ``start .. start+n−1``, shape (n, d) or (n, 2d).

    ``init`` is None (the default start law) or ("gaussian", mean, cov).
    Path p's start is row p of the seed's initialization stream pushed
    through the law's Cholesky factor, so it depends on (seed, p) alone.
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
    else:
        raise ValueError(f"unknown initial law {init!r}")
    normals = noise_matrix(seed, n, 1, zdim, label=LABEL_INIT, start=start)[:, 0]
    return mean + normals @ np.linalg.cholesky(cov).T


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

    Paths are evaluated in windows of ``WINDOW_PATHS``: each window draws the
    increments of its own paths, takes its start states from
    :func:`start_states` with ``init`` (default: the default start law), and
    yields one :class:`~girsanovlab.girsanov.LogWeight`.  Constant-Hessian
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

    def eval_window(lo: int) -> LogWeight:
        n = min(WINDOW_PATHS, n_paths - lo)
        xi = noise_matrix(seed, n, the_grid.n_cells, potential.d, start=lo)
        z0 = start_states(potential, s.kinetic, seed, n, start=lo, init=init)
        if maps is not None:
            return fast_log_weights(maps, z0, xi)
        return generic_log_weights(scheme, potential, schedule, the_grid, gamma, z0, xi)

    starts = range(0, n_paths, WINDOW_PATHS)
    if threads <= 1:
        windows = [eval_window(lo) for lo in starts]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            windows = list(pool.map(eval_window, starts))
    return WeightRun(
        scheme=scheme,
        seed=seed,
        log_weight=np.concatenate([w.log_weight for w in windows]),
        invertible=np.concatenate([w.invertible for w in windows]),
        spectral_radius=max(float(w.spectral_radius.max()) for w in windows),
        n_negative_det=sum(int(w.negative_det.sum()) for w in windows),
        grad_queries_per_path=s.grad_queries(the_grid, schedule),
    )
