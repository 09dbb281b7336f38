"""Deterministic Monte Carlo driver for pathwise weight runs.

Work is partitioned by path index into windows of :func:`window_rows` paths:
the largest power of two, at most ``WINDOW_PATHS``, whose noise fits in
``WINDOW_BYTES``.  So windows tile the RNG's generation blocks, and a
window's noise does not grow with the grid.  One noise walk,
:func:`walk_grids`, serves every path consumer: :func:`run_weights` (one
grid), :func:`sweep_weights` (the KL-order sweep's grids) and the local-error
sweep (its grids over two replicas,
:func:`~girsanovlab.divergences.local_error_sweep`).  It walks the windows
of the grid with the most cells, each one chunk of noise words that every
grid reads, and hands each grid its own windows' batches of paths.  A
coarser grid's batch whose words run past a window is paired, not redrawn:
the window that holds the rest of its words runs it.  The weight runs
evaluate a batch on the affine fast path for constant-Hessian targets and by
generic per-path assembly otherwise, and every caller writes a batch's
results into per-path columns.  The batches, the per-batch arithmetic and
the merge order are all functions of the path index and the grid alone, so
estimates are bit-identical across thread counts, across runs with the same
seed, and whatever other grids share the walk.

Every path consumer takes start states from :func:`start_law`, resolved once
per run: path p's start is row p of the seed's initialization stream, as its
increments are row p of the path stream.  The walk draws each start row
once for all grids and replicas, and each batch maps its own rows.  The
default start law is the stationary law for quadratic targets,
:func:`~girsanovlab.potentials.stationary_moments` of the constant Hessian H:
N(0, H⁻¹), or N(0, diag(H⁻¹, I)) in phase space; otherwise it is
x ~ N(0, I/α) with p ~ N(0, I).

The scheme table :data:`SCHEMES` defines each discretization once — its
schedules, simulation, horizon state, drift coordinates, step tangent rule,
derivative blocks, affine step keys, gradient query count and step-size
bound — and every call site that schedules, simulates or summarises a scheme
goes through it.  Per-scheme thresholds and checks stay keyed by scheme id:
``KL_SLOPE_THRESHOLDS``, ``LOCAL_ERROR_THRESHOLDS``, ``_inner_cells`` and the
config's DM-ULMC m ≥ 2 check; the M-LMC trace diagnostics are called directly,
on a trajectory the table simulates.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .affine import ScheduleMaps, fast_log_weights, step_maps_for_schedule
from .girsanov import (
    LogWeight,
    block_summary_dmulmc,
    block_summary_mlmc,
    block_summary_ulmc,
    derivative_blocks,
    drift_basis_dmulmc,
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
    BLOCK_PATHS,
    LABEL_INIT,
    LABEL_PATH,
    NoiseChunk,
    OverdampedSchedule,
    TimeGrid,
    UnderdampedSchedule,
    noise_matrix,
)
from .potentials import Potential, stationary_moments

__all__ = [
    "SCHEDULE_MODES", "SCHEMES", "Scheme", "StartLaw", "WeightRun", "WINDOW_BYTES", "WINDOW_PATHS",
    "scheme_for", "start_law", "start_states", "window_rows", "walk_grids",
    "sweep_weights", "run_weights", "generic_log_weights",
]

#: Most rows in one window of the noise walk :func:`walk_grids`, whichever
#: of its three callers drives it.  It divides ``BLOCK_PATHS``, so no window
#: crosses a generation block; grids whose 512-row window holds more than
#: ``WINDOW_BYTES`` of noise get fewer rows (:func:`window_rows`).
WINDOW_PATHS = 512

#: Bytes of noise one evaluation window may hold: rows × values per path × 8.
WINDOW_BYTES = 4 * 2**20

#: Midpoint schedule modes of ``Scheme.schedule``.
SCHEDULE_MODES = ("deterministic", "randomized")


class Scheme:
    """One discretization, as every scheme-dependent call site needs it.

    ``name`` is the scheme id and ``label`` its user-facing spelling.  A
    schedule is the one description of a run's time discretization: its
    ``grid`` is the run's TimeGrid, and no method takes a grid beside it.
    The midpoint schemes' schedules hold midpoint indices; ULMC, which has no
    midpoint, has the grid itself as its schedule.  The methods call the
    integrator and weight layers through this module's names at call time.

    * ``schedule(grid, mode, seed, stream)``: the schedule on ``grid`` for a
      mode of ``SCHEDULE_MODES``, ValueError for another.  A midpoint scheme
      names its schedule class in ``schedule_type``, whose ``deterministic``
      and ``randomized`` constructors the modes call; ``midpoint_choice`` is
      False when the scheme has one schedule whatever the mode (EM-LD's
      τ ≡ 0, ULMC's grid).  ``as_schedule(schedule)`` reads a bare TimeGrid
      as ``schedule(grid)``.
    * ``simulate(potential, schedule, gamma, z0, xi)``: the trajectory
      from stacked start states z0 — x, or (x, p) for kinetic schemes —
      and ``endpoint(traj)``, its state at the horizon, shaped like z0.
    * ``advance(potential, schedule, gamma, z0, xi)``: the horizon
      state alone, equal to ``endpoint(simulate(...))``; a scheme overrides
      it where the marginal update is cheaper than the trajectory (DM-ULMC
      skips the inner fixed point, and agrees to 1e-12, tested).
    * ``drift_coordinates(potential, traj)``: (U, G, c), the one stored form
      of a step's drift and the one a scheme defines, flattened to m·d as
      ψ = U·c with coordinates c (B, N, r) and Gram matrix G = UᵀU.  DM-ULMC
      drifts span r = 2d columns, the trajectory's multipliers, and a
      trajectory without them (ULMC's) is a ValueError; the other schemes
      return U = G = None, the identity basis (c = ψ, r = m·d).
      ``drift(potential, traj)`` is ψ, (B, N·m, d), formed from (U, c) here
      for every scheme.  ``drift_basis(traj)`` is U alone, read from the
      trajectory's grid without evaluating the drift.
    * ``tangents(potential, traj)``: the one step tangent rule
      (k, dirs, dz0) → (Dc, Dz_h) in drift coordinates, which runs the
      scheme's own integrator step with grad = ∇²V·DX, behind the dense
      ``blocks``, the DM-ULMC ``summary`` and the affine step maps.
    * ``blocks(potential, traj)``: the dense derivative Dψ = U·Dc from the
      tangent rule, for every scheme (the reference for finite differences
      and dumps): the whole derivative in one forward sweep, with its
      diagonal blocks read off it; ``summary(potential, traj)``, its
      structured block summary, which both weight routes read.
    * ``step_keys(schedule)``: per outer step, the hashable midpoint
      choice that fixes the step's affine maps; ``step_schedule(step_grid,
      key)`` is the one-step schedule of a key.
    * ``grad_queries(schedule)``: gradient evaluations per path in the
      algorithm's marginal updates.
    * ``step_bound(beta, q)``: the largest step size h the weights allow,
      stated as ``bound_rule``; infinite when there is none.
    * ``check_gamma(gamma)``: ValueError unless a kinetic scheme has a
      finite positive friction.
    """

    name = label = bound_rule = ""
    kinetic = midpoint_choice = False
    schedule_type = None

    def schedule(self, grid: TimeGrid, mode: str = "deterministic", seed: int = 0,
                 stream: int = 0):
        if mode not in SCHEDULE_MODES:
            raise ValueError(f"unknown schedule mode {mode!r}: use {' | '.join(SCHEDULE_MODES)}")
        return self._schedule(grid, mode, seed, stream)

    def _schedule(self, grid, mode, seed, stream):
        if self.schedule_type is None:
            return grid
        if mode == "deterministic":
            return self.schedule_type.deterministic(grid)
        return self.schedule_type.randomized(grid, seed, stream)

    def as_schedule(self, schedule):
        return self.schedule(schedule) if isinstance(schedule, TimeGrid) else schedule

    def advance(self, potential: Potential, schedule, gamma, z0, xi):
        return self.endpoint(self.simulate(potential, schedule, gamma, z0, xi))

    def drift(self, potential: Potential, traj):
        U, _, c = self.drift_coordinates(potential, traj)
        psi = c if U is None else c @ U.T  # (B, N, m·d)
        return psi.reshape(psi.shape[0], traj.grid.n_cells, -1)

    def drift_basis(self, traj):
        return None

    def blocks(self, potential: Potential, traj):
        return derivative_blocks(traj, self.tangents(potential, traj), self.drift_basis(traj))

    def step_keys(self, schedule) -> list:
        return [0] * schedule.grid.N

    def step_schedule(self, step_grid: TimeGrid, key):
        return step_grid

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
    schedule_type = OverdampedSchedule

    def simulate(self, potential, schedule, gamma, z0, xi):
        return simulate_mlmc(potential, schedule, z0, xi)

    def endpoint(self, traj):
        return traj.x[:, -1]

    def drift_coordinates(self, potential, traj):
        psi = drift_mlmc(potential, traj)
        return None, None, psi.reshape(psi.shape[0], traj.grid.N, -1)

    def tangents(self, potential, traj):
        return tangents_mlmc(potential, traj)

    def summary(self, potential, traj):
        return block_summary_mlmc(potential, traj)

    def step_keys(self, schedule):
        return [int(i) for i in schedule.indices]

    def step_schedule(self, step_grid, key):
        return OverdampedSchedule(step_grid, np.array([int(key)], dtype=int))

    def grad_queries(self, schedule):
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

    def simulate(self, potential, schedule, gamma, z0, xi):
        d = potential.d
        return simulate_ulmc(potential, schedule, gamma, z0[:, :d], z0[:, d:], xi)

    def drift_coordinates(self, potential, traj):
        psi = drift_ulmc(potential, traj)
        return None, None, psi.reshape(psi.shape[0], traj.grid.N, -1)

    def tangents(self, potential, traj):
        return tangents_ulmc(potential, traj)

    def summary(self, potential, traj):
        return block_summary_ulmc(potential, traj)

    def grad_queries(self, schedule):
        return schedule.grid.N


class _DoubleMidpointULMC(_Kinetic):
    name, label, bound_rule = "dmulmc", "DM-ULMC", f"{DM_STEP_MARGIN:g}/sqrt(beta*q)"
    midpoint_choice = True
    schedule_type = UnderdampedSchedule

    def simulate(self, potential, schedule, gamma, z0, xi):
        d = potential.d
        return simulate_dmulmc(potential, schedule, gamma, z0[:, :d], z0[:, d:], xi)

    def advance(self, potential, schedule, gamma, z0, xi):
        d = potential.d
        xs, ps = simulate_dmulmc_marginal(potential, schedule, gamma, z0[:, :d], z0[:, d:], xi)
        return np.concatenate([xs[:, -1], ps[:, -1]], axis=-1)

    def drift_coordinates(self, potential, traj):
        if traj.lambda1 is None:
            raise ValueError("trajectory carries no interpolation multipliers")
        U, gram = drift_basis_dmulmc(traj)
        return U, gram, np.concatenate([traj.lambda1, traj.lambda2], axis=-1)

    def drift_basis(self, traj):
        return drift_basis_dmulmc(traj)[0]

    def tangents(self, potential, traj):
        return tangents_dmulmc(potential, traj)

    def summary(self, potential, traj):
        return block_summary_dmulmc(potential, traj)

    def step_keys(self, schedule):
        return [(int(a), int(b)) for a, b in zip(schedule.indices_minus, schedule.indices_plus)]

    def step_schedule(self, step_grid, key):
        r_minus, r_plus = key
        return UnderdampedSchedule(
            step_grid, np.array([int(r_minus)], dtype=int), np.array([int(r_plus)], dtype=int)
        )

    def grad_queries(self, schedule):
        return 3 * schedule.grid.N

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
    #: the affine step maps the weights were formed through; None on the generic route
    step_maps: ScheduleMaps | None = None

    @property
    def n_paths(self) -> int:
        return self.log_weight.size

    @property
    def n_rejected(self) -> int:
        return int((~self.invertible).sum())


def generic_log_weights(
    scheme: str,
    potential: Potential,
    schedule,
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
    traj = s.simulate(potential, schedule, gamma, z0, xi)
    return summary_log_weight(s.drift(potential, traj), s.summary(potential, traj), xi)


@dataclass(frozen=True)
class StartLaw:
    """A resolved Gaussian start law N(mean, chol·cholᵀ) over z = d or 2d coordinates.

    ``normals(seed, n, start)`` draws the rows of paths ``start ..
    start+n−1`` of the seed's initialization stream, (n, z), and
    ``states(normals)`` maps rows to start states, ``mean + normals·cholᵀ``;
    calling the law, ``law(seed, n, start)``, does both, so path p's start
    depends on (seed, p) alone.
    """

    mean: np.ndarray
    chol: np.ndarray

    @property
    def zdim(self) -> int:
        return self.mean.size

    def normals(self, seed: int, n: int, start: int = 0) -> np.ndarray:
        """Rows ``start .. start+n−1`` of the seed's initialization stream, (n, z)."""
        return noise_matrix(seed, n, 1, self.zdim, label=LABEL_INIT, start=start)[:, 0]

    def states(self, normals: np.ndarray) -> np.ndarray:
        return self.mean + normals @ self.chol.T

    def __call__(self, seed: int, n: int, start: int = 0) -> np.ndarray:
        return self.states(self.normals(seed, n, start))


def start_law(potential: Potential, kinetic: bool, init=None) -> StartLaw:
    """The start law, resolved once per run: a :class:`StartLaw`.

    ``init`` is None (the default start law) or ("gaussian", mean, cov) with
    finite mean (z,) and symmetric (to 1e-12 relative) positive definite cov
    (z, z), z = d or 2d; anything else is a ValueError.
    Calling the result, ``law(seed, n, start=0)``, returns the start states
    of paths ``start .. start+n−1``, shape (n, d) or (n, 2d): path p's start
    is row p of the seed's initialization stream pushed through the law's
    Cholesky factor, so it depends on (seed, p) alone.  The stationary law of
    a quadratic target costs an ``eigh`` of its constant Hessian and a
    Cholesky factor, so windowed runs resolve it once and map every batch's
    rows through it.
    """
    d = potential.d
    zdim = 2 * d if kinetic else d
    if init is None and potential.is_quadratic:
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
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValueError("a gaussian start law needs finite mean and cov entries")
        if np.abs(cov - cov.T).max() > 1e-12 * np.abs(cov).max():  # Cholesky reads one triangle
            raise ValueError("a gaussian start law needs a symmetric cov")
    else:
        raise ValueError(f"unknown initial law {init!r}")
    try:
        return StartLaw(mean, np.linalg.cholesky(cov))
    except np.linalg.LinAlgError:
        raise ValueError("a start law needs a positive definite cov") from None


def start_states(
    potential: Potential, kinetic: bool, seed: int, n: int, *, start: int = 0
) -> np.ndarray:
    """Start states of paths ``start .. start+n−1`` under the default :func:`start_law`."""
    return start_law(potential, kinetic)(seed, n, start)


def window_rows(values_per_path: int) -> int:
    """Rows per window: the largest power of two ≤ ``WINDOW_PATHS`` whose
    rows × ``values_per_path`` float64 values fit in ``WINDOW_BYTES``, and at
    least 1.  A power of two divides ``BLOCK_PATHS``, so windows tile the
    generation blocks."""
    rows = WINDOW_PATHS
    while rows > 1 and rows * values_per_path * 8 > WINDOW_BYTES:
        rows //= 2
    return rows


def walk_grids(eval_batch, seed: int, cells, n_paths: int, threads: int, streams,
               law: StartLaw, *, replicas: int = 1) -> None:
    """eval_batch(g, first, lo, hi, noise, z0) over every batch of every grid,
    each noise word and start row drawn once: the one noise walk of
    :func:`sweep_weights`, :func:`run_weights` and the local-error sweep.

    Grid g reads rows of ``cells[g]`` cells from each stream of ``streams``,
    pairs (words per cell, Philox label).  Replica k's path p is row
    k·n_paths + p of every stream.  A batch is one of grid g's own windows
    of one replica: ``first`` is its first stream row, [lo, hi) its paths,
    ``noise`` its rows of each stream, (hi − lo, cells[g], words), and
    ``z0`` its paths' start states under ``law``, mapped from their rows of
    the initialization stream.  So a grid's batches, and the bits computed
    from them, do not depend on the other grids.

    The walk cuts the rows of the grid with the most cells into windows of
    :func:`window_rows` rows, the one place that cuts them, run on a thread
    pool when ``threads`` > 1.  Each window draws its words once, as one
    :class:`~girsanovlab.paths.NoiseChunk` per stream, and serves every
    batch whose cells it holds.  A batch inside the window runs on views of
    it.  A batch whose cells run past the window (a coarse grid's batch
    astride two windows, or a replica's batch astride two generation blocks)
    is run by whichever of its windows arrives last: each window copies its
    cells into the batch's buffer, held under a lock until then.  Start rows
    come in pieces of the largest batch's rows, so each batch lies in one
    piece.  A piece is drawn by the first window that needs it and held
    until its last batch has run.  The working set is one chunk (at most
    ``WINDOW_BYTES``), one batch, the buffers of the batches astride the
    chunks in flight, and the start pieces in flight (tested).

    Windows run in order, but the replicas' whole blocks are zipped: with
    n_paths = b·``BLOCK_PATHS`` + r and pairs = b·``BLOCK_PATHS`` / rows,
    slot i·replicas + k runs window k·pairs + i, and the rest follow.  So
    window i runs beside the window b blocks on, which holds the next
    replica's partners of the rows r rows before window i's, and a caller
    that pairs replicas (the local-error sweep) holds a batch for about a
    block's rows at most, not n_paths rows (tested).  eval_batch must write
    only its own paths' results, so that with ``threads`` > 1 nothing
    depends on the threads' order.
    """
    width = sum(words for words, _ in streams)
    top = max(cells, default=1)
    batch_rows = [window_rows(c * width) for c in cells]
    top_rows = window_rows(top * width)
    top_cells = top_rows * top  # the cells of a whole window
    total = replicas * n_paths
    piece_rows = max(batch_rows, default=1)
    # batches left per start piece, to free the piece after its last one
    pending = [
        replicas * sum(-(-(min(lo + piece_rows, n_paths) - lo) // rows) for rows in batch_rows)
        for lo in range(0, n_paths, piece_rows)
    ]
    pieces, held, lock = {}, {}, threading.Lock()

    def run(g: int, first: int, lo: int, hi: int, noise) -> None:
        piece = lo // piece_rows
        at = piece * piece_rows
        with lock:
            if piece not in pieces:
                pieces[piece] = law.normals(seed, min(piece_rows, n_paths - at), at)
            normals = pieces[piece]
        eval_batch(g, first, lo, hi, noise, law.states(normals[lo - at:hi - at]))
        with lock:
            pending[piece] -= 1
            if not pending[piece]:
                del pieces[piece]

    def block_spans(first: int, n: int, c: int) -> list:
        """(block, first cell, end cell) of stream rows first .. first+n−1 in each block."""
        out = []
        while n:
            block, row = divmod(first, BLOCK_PATHS)
            k = min(n, BLOCK_PATHS - row)
            out.append((block, row * c, (row + k) * c))
            first, n = first + k, n - k
        return out

    def serve(g: int, first: int, lo: int, hi: int, chunks) -> None:
        c, head = cells[g], chunks[0]
        spans = block_spans(first, hi - lo, c)
        windows = sum((end - 1) // top_cells - a // top_cells + 1 for _, a, end in spans)
        if windows == 1:
            _, a, end = spans[0]
            run(g, first, lo, hi, [chunk.cells(a, end).reshape(hi - lo, c, -1) for chunk in chunks])
            return
        key = (g, first)
        with lock:
            if key not in held:
                held[key] = [windows, [np.empty((hi - lo, c, words)) for words, _ in streams]]
            entry = held[key]
        offset = 0
        for block, a, end in spans:
            if block == head.block:
                a_in, end_in = max(a, head.lo), min(end, head.hi)
                for buffer, chunk in zip(entry[1], chunks):
                    flat = buffer.reshape(-1, buffer.shape[-1])
                    flat[offset + a_in - a:offset + end_in - a] = chunk.cells(a_in, end_in)
            offset += end - a
        with lock:
            entry[0] -= 1
            done = not entry[0]
            if done:
                del held[key]
        if done:
            run(g, first, lo, hi, entry[1])

    def eval_window(lo: int) -> None:
        chunks = [NoiseChunk(seed, min(top_rows, total - lo), top, words, start=lo, label=label)
                  for words, label in streams]
        base = chunks[0].block * BLOCK_PATHS
        for g, c in enumerate(cells):
            rows = batch_rows[g]
            # the stream rows with a cell in the window
            row_lo = base + chunks[0].lo // c
            row_hi = min(base + -(-chunks[0].hi // c), base + BLOCK_PATHS, total)
            for rep in range(0, total, n_paths):
                p_lo, p_hi = max(row_lo - rep, 0), min(row_hi - rep, n_paths)
                if p_lo >= p_hi:
                    continue
                for b_lo in range(p_lo // rows * rows, p_hi, rows):
                    b_hi = min(b_lo + rows, n_paths)
                    serve(g, rep + b_lo, b_lo, b_hi, chunks)

    starts, pairs = range(0, total, top_rows), n_paths // BLOCK_PATHS * (BLOCK_PATHS // top_rows)
    slots = zip(*(starts[k * pairs:(k + 1) * pairs] for k in range(replicas)))
    order = [lo for slot in slots for lo in slot] + list(starts[replicas * pairs:])
    if threads <= 1:
        for lo in order:
            eval_window(lo)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(eval_window, order))


def sweep_weights(
    scheme: str,
    potential: Potential,
    *,
    schedules,
    gamma: float | None = None,
    n_paths: int,
    seed: int,
    init=None,
    threads: int = 1,
) -> list[WeightRun]:
    """Log weights of the same ``n_paths`` scheme paths on each of ``schedules``.

    One :class:`WeightRun` per schedule, each equal bit for bit to
    :func:`run_weights` on that schedule alone.  Path p of every schedule
    is row p of the seed's path stream, so the schedules' rows are prefixes
    of the same words; :func:`walk_grids` draws each once, and each start row
    once, under the law :func:`start_law` resolves once from ``init``.  The
    maps of a constant-Hessian target are extracted once per schedule, and
    each batch takes the affine fast path (:func:`fast_log_weights`) through
    them, :func:`generic_log_weights` otherwise.  It writes its paths'
    slices of the schedule's (n_paths,) log-weight and invertible columns;
    its ρ maximum and negative-det count go to the batch's own slot.  Each
    run keeps the maps its weights were formed through (``step_maps``), so
    exact functionals of the same grid need not extract them again.
    """
    if n_paths < 1:
        raise ValueError(f"need n_paths >= 1, got {n_paths}")
    s = scheme_for(scheme)
    s.check_gamma(gamma)
    schedules = [s.as_schedule(schedule) for schedule in schedules]
    d = potential.d
    cells = [schedule.grid.n_cells for schedule in schedules]
    maps = [
        step_maps_for_schedule(scheme, potential, schedule, gamma)
        if potential.is_quadratic else None
        for schedule in schedules
    ]
    law = start_law(potential, s.kinetic, init)
    rows = [window_rows(c * d) for c in cells]
    log_weight = [np.empty(n_paths) for _ in schedules]
    invertible = [np.empty(n_paths, dtype=bool) for _ in schedules]
    rho = [np.empty(-(-n_paths // r)) for r in rows]
    negative = [np.empty(-(-n_paths // r), dtype=int) for r in rows]

    def eval_batch(g: int, _first: int, lo: int, hi: int, noise, z0) -> None:
        xi, = noise
        if maps[g] is not None:
            w = fast_log_weights(maps[g], z0, xi)
        else:
            w = generic_log_weights(scheme, potential, schedules[g], gamma, z0, xi)
        log_weight[g][lo:hi] = w.log_weight
        invertible[g][lo:hi] = w.invertible
        rho[g][lo // rows[g]] = w.spectral_radius.max()
        negative[g][lo // rows[g]] = w.negative_det.sum()

    walk_grids(eval_batch, seed, cells, n_paths, threads, ((d, LABEL_PATH),), law)
    return [
        WeightRun(
            scheme=scheme,
            seed=seed,
            log_weight=log_weight[g],
            invertible=invertible[g],
            spectral_radius=float(rho[g].max()),  # a NaN batch maximum propagates
            n_negative_det=int(negative[g].sum()),
            grad_queries_per_path=s.grad_queries(schedule),
            step_maps=maps[g],
        )
        for g, schedule in enumerate(schedules)
    ]


def run_weights(
    scheme: str,
    potential: Potential,
    *,
    schedule,
    gamma: float | None = None,
    n_paths: int,
    seed: int,
    init=None,
    threads: int = 1,
) -> WeightRun:
    """Sample ``n_paths`` scheme paths and evaluate their log weights.

    ``schedule`` is the scheme's schedule, whose grid the paths run on; a
    bare TimeGrid means the scheme's default ``schedule(grid)``.  This is
    :func:`sweep_weights` over one schedule: the walk's windows are then the
    grid's own, cut by the n_cells·d increments of a path so that one
    window's noise fits in ``WINDOW_BYTES``, and each window draws the
    increments and start states of its own paths.  Constant-Hessian targets
    take the affine fast path, which agrees with :func:`generic_log_weights`
    to rounding (tested).
    """
    return sweep_weights(
        scheme, potential, schedules=[schedule], gamma=gamma, n_paths=n_paths, seed=seed,
        init=init, threads=threads,
    )[0]
