"""Langevin discretizations as deterministic maps of (state, noise, schedule).

Schemes (all driven by one :class:`~girsanovlab.paths.NoisePath` on the inner
grid, increments √η·ξ_i):

* ``step_mlmc`` / ``simulate_mlmc`` — overdamped midpoint scheme: one gradient
  at the step start builds the midpoint X⁺ = x₀ − τ∇V(x₀) + √2·B_τ, a second
  at X⁺ drives the whole step, X_t = x₀ − t∇V(X⁺) + √2·B_t.  τ = 0 degenerates
  to one Euler step per outer step (the EM-LD scheme).
* ``step_ulmc`` / ``simulate_ulmc`` — kinetic (underdamped) exponential Euler
  with the gradient frozen at the step start; stochastic integrals ∫E_j dB are
  realized as left-endpoint Itô sums on the inner grid.
* ``step_dmulmc_marginal`` / ``simulate_dmulmc_marginal`` — kinetic
  double-midpoint scheme: explicit midpoints X⁻ (position) and X⁺ (momentum),
  then one exponential step using ∇V(X⁻) in the position line and ∇V(X⁺) in
  the momentum line.  Exactly three gradient evaluations per outer step and
  outer nodes only: the route for callers that need the horizon state alone.
* ``solve_dmulmc_step`` / ``simulate_dmulmc`` — the inner-grid interpolation
  of the double-midpoint scheme: the implicit fixed point for (X̂, λ₁, λ₂)
  whose drift G^opt_t = ∇V(X̂_t) − E₁(t,h)λ₁ − E₂(t,h)λ₂ satisfies the two
  marginal constraints η·Σ_j E₁(jη,h)G^opt_j = E₂(0,h)∇V(X⁺) and
  η·Σ_j E₂(jη,h)G^opt_j = E₃(0,h)∇V(X⁻).  λ is affine in the node
  gradients, so the sweeps run with the multipliers eliminated, one product
  of a memoised table per sweep (:class:`~girsanovlab.kernels.ConstrainedSweep`),
  and λ is formed once after convergence.  The endpoint row of that table
  is zero in exact arithmetic, so the endpoint reproduces the marginal
  update (tested to 1e-12 on quadratic and non-quadratic targets, both
  schedules) and iteration only refines interior nodes; the weights need
  those nodes, a local error does not.  Needs m ≥ 2 inner cells.
* ``ou_endpoint_map`` — the horizon state of the exact Gaussian transitions
  of the continuous dynamics for quadratic potentials, coupled to the same
  increments: each cell draws from the exact conditional law given the
  cell's Brownian increment (conditional mean from the cross-covariance,
  plus an independent residual supplied by the caller; ``ou_cell`` gives
  one cell of either dynamics as matrices (Φ, M, R), from the same two
  block exponentials).  One doubling composition of the cell turns n cells
  into one affine map of (z₀, ξ, residual), for the overdamped state x and
  the kinetic (x, p) alike; applying it is two BLAS products per batch.
  Marginally exact, and synchronously coupled to any scheme sharing the ξ
  array.

Batch convention: states are (B, d), per-step increments (B, m, d), full
horizons (B, N·m, d); single paths pass B = 1.  Trajectory node arrays have
shape (B, N·m + 1, d) with node k·m + n holding X̂_{nη} of outer step k.

The four simulators share one horizon chain, ``_chain``: each hands it a
step closure, and the chain slices ξ per outer step, writes the node arrays,
carries each step's end state into the next, checks it is finite and stacks
the per-step values (X∓, λ, sweep counts).

Each step is written once and shared with its Malliavin derivative.  A step
function takes ``grad(where, x)`` in place of the potential: ``where`` names
the point, "start" (x₀), "plus" (X⁺), "minus" (X⁻) or "nodes" (the fixed
point's left nodes), and arrays carry cells on axis 1 and may carry trailing
tangent axes after d.  The simulators pass ∇V; the tangent rules of
:mod:`girsanovlab.girsanov` pass DX ↦ ∇²V·DX at the path's points, which
runs the linearised step recursion on tangents.

Gradient-query counts live in the scheme table
(:meth:`girsanovlab.engine.Scheme.grad_queries`) and follow the algorithms'
marginal updates: M-LMC 2/step with ∇V(x₀) shared and 1 when τ = 0, ULMC
1/step, DM-ULMC 3/step.  Fixed-point-solver evaluations are weight machinery
and not counted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh, expm

from .kernels import StepKernels
from .paths import OverdampedSchedule, TimeGrid, UnderdampedSchedule
from .potentials import Potential

__all__ = [
    "TrajectoryBlowupError",
    "StepSizeError",
    "UnsupportedPotentialError",
    "OverdampedTrajectory",
    "UnderdampedTrajectory",
    "DmStepSolution",
    "DmWorkspace",
    "step_mlmc",
    "step_ulmc",
    "step_dmulmc_marginal",
    "solve_dmulmc_step",
    "simulate_mlmc",
    "simulate_ulmc",
    "simulate_dmulmc",
    "simulate_dmulmc_marginal",
    "ou_cell",
    "OuEndpointMap",
    "ou_endpoint_map",
]

#: Contraction margin for the implicit interpolation: require h·√β ≤ this.
DM_STEP_MARGIN = 0.5
FIXED_POINT_TOL = 1e-12
FIXED_POINT_MAX_ITERS = 100


class TrajectoryBlowupError(RuntimeError):
    """A simulated state became non-finite."""


class StepSizeError(ValueError):
    """Step size violates the contraction condition of an implicit solve."""


class UnsupportedPotentialError(TypeError):
    """Operation requires a quadratic potential."""


def _batch(x: np.ndarray, d: int, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != d:
        raise ValueError(f"{name} must have shape (B, {d}), got {x.shape}")
    return x


def _batch_noise(xi: np.ndarray, n_cells: int, d: int) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    if xi.ndim == 2:
        xi = xi[None]
    if xi.ndim != 3 or xi.shape[1:] != (n_cells, d):
        raise ValueError(f"increments must have shape (B, {n_cells}, {d}), got {xi.shape}")
    return xi


def _check_finite(x: np.ndarray, step: int, when: str = "after") -> None:
    if not np.all(np.isfinite(x)):
        raise TrajectoryBlowupError(f"state is non-finite {when} step {step}")


@dataclass(frozen=True)
class OverdampedTrajectory:
    """Inner-grid overdamped trajectory with per-step midpoint states.

    ``x`` has shape (B, N·m + 1, d); ``x_plus`` (B, N, d) holds X⁺_k.  The
    grid is the schedule's.
    """

    schedule: OverdampedSchedule
    x: np.ndarray
    x_plus: np.ndarray

    @property
    def grid(self) -> TimeGrid:
        return self.schedule.grid


@dataclass(frozen=True)
class UnderdampedTrajectory:
    """Inner-grid kinetic trajectory; the grid is the schedule's.

    For the double-midpoint scheme, ``x_minus``/``x_plus`` hold the midpoint
    states and ``lambda1``/``lambda2`` the per-step multipliers of the
    interpolation (all (B, N, d)); ``iterations[k]`` counts fixed-point sweeps
    of step k.  The frozen-gradient baseline's schedule is its TimeGrid, and
    it has no midpoints, multipliers or sweeps: those five fields are None.
    """

    gamma: float
    schedule: UnderdampedSchedule | TimeGrid
    x: np.ndarray
    p: np.ndarray
    x_minus: np.ndarray | None = None
    x_plus: np.ndarray | None = None
    lambda1: np.ndarray | None = None
    lambda2: np.ndarray | None = None
    iterations: np.ndarray | None = None

    @property
    def grid(self) -> TimeGrid:
        return self.schedule.grid


# ---------------------------------------------------------------------------
# Overdamped steps
# ---------------------------------------------------------------------------


def _col(e: np.ndarray, like: np.ndarray) -> np.ndarray:
    """Per-node or per-cell coefficients shaped to broadcast along axis 1 of like[:, None]."""
    return e.reshape(-1, *(1,) * (like.ndim - 1))


def step_mlmc(
    grad, x0: np.ndarray, xi: np.ndarray, eta: float, r: int
) -> tuple[np.ndarray, np.ndarray]:
    """One overdamped midpoint step on the inner grid.

    X⁺ = x₀ − rη·∇V(x₀) + √(2η)·Σ_{j<r}ξ_j, then
    X̂_n = x₀ − nη·∇V(X⁺) + √(2η)·Σ_{j<n}ξ_j for n = 0..m, with ∇V from
    ``grad`` at "start" and "plus".

    Returns (nodes (B, m+1, d, …), x_plus (B, d, …)).  ∇V(x₀) is reused as
    the midpoint gradient when r = 0.
    """
    m = xi.shape[1]
    sums = np.zeros((xi.shape[0], m + 1, *xi.shape[2:]))
    np.cumsum(xi, axis=1, out=sums[:, 1:])
    coef = np.sqrt(2.0 * eta)
    g0 = grad("start", x0)
    x_plus = x0 - (r * eta) * g0 + coef * sums[:, r]
    g_plus = g0 if r == 0 else grad("plus", x_plus)
    n_eta = _col(eta * np.arange(m + 1), x0)
    nodes = x0[:, None] - n_eta * g_plus[:, None] + coef * sums
    return nodes, x_plus


# ---------------------------------------------------------------------------
# Kinetic steps
# ---------------------------------------------------------------------------


def _node_noise(K: np.ndarray, xi: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Left-endpoint sums Σ_{j<n} K[n,j]·ξ_j: (B, m, d, …) → (B, K.shape[0], d, …).

    ``out``, a C-contiguous array of the result's shape, receives the sums.
    """
    # one (rows × m)·(m × d…) product per path, on ξ in place: cells stay on
    # axis 1, so no transposed copy of the window is made
    flat_out = None if out is None else out.reshape(xi.shape[0], K.shape[0], -1)
    flat = np.matmul(K, xi.reshape(*xi.shape[:2], -1), out=flat_out)
    return flat.reshape(xi.shape[0], K.shape[0], *xi.shape[2:])


def step_ulmc(
    kern: StepKernels, grad, x0: np.ndarray, p0: np.ndarray, xi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Frozen-gradient exponential Euler step; returns inner node arrays.

    X̂_n = x₀ + E₂(0,nη)p₀ − E₃(0,nη)∇V(x₀) + √(2γη)·Σ_{j<n}E₂(jη,nη)ξ_j and
    the matching momentum line with E₁/E₂, both (B, m+1, d, …).  One
    gradient query, at "start".
    """
    g0 = grad("start", x0)
    c = np.sqrt(2.0 * kern.gamma * kern.eta)
    x_nodes = (
        x0[:, None]
        + _col(kern.e2_0, x0) * p0[:, None]
        - _col(kern.e3_0, x0) * g0[:, None]
        + c * _node_noise(kern.K2, xi)
    )
    p_nodes = (
        _col(kern.e1_0, x0) * p0[:, None]
        - _col(kern.e2_0, x0) * g0[:, None]
        + c * _node_noise(kern.K1, xi)
    )
    return x_nodes, p_nodes


def _dm_midpoints(
    kern: StepKernels,
    grad,
    x0: np.ndarray,
    p0: np.ndarray,
    xi: np.ndarray,
    r_minus: int,
    r_plus: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Explicit midpoint states (X⁻, X⁺), the shared start gradient and the end noise.

    The noise rows K₂[r⁻], K₂[r⁺], K₂[m] and K₁[m] come from
    :meth:`StepKernels.row`, so no (m+1) × m table is built, and contract ξ in
    one stacked product; the end noise (B, 2, d, …) holds c·K₂[m]·ξ and
    c·K₁[m]·ξ.
    """
    g0 = grad("start", x0)
    c = np.sqrt(2.0 * kern.gamma * kern.eta)
    m = kern.m
    rows = np.stack([kern.row(2, r_minus), kern.row(2, r_plus), kern.row(2, m), kern.row(1, m)])
    noise = c * _node_noise(rows, xi)  # (B, 4, d, …)
    x_minus, x_plus = (
        x0 + kern.e2_0[r] * p0 - kern.e3_0[r] * g0 + noise[:, i]
        for i, r in enumerate((r_minus, r_plus))
    )
    return x_minus, x_plus, g0, noise[:, 2:]


def step_dmulmc_marginal(
    kern: StepKernels,
    grad,
    x0: np.ndarray,
    p0: np.ndarray,
    xi: np.ndarray,
    r_minus: int,
    r_plus: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One double-midpoint kinetic step (closed-form marginal update).

    Returns (x_h, p_h, x_minus, x_plus); exactly 3 gradient queries
    (∇V(x₀) shared by both midpoints, then ∇V(X⁻) and ∇V(X⁺)).
    """
    m = kern.m
    x_minus, x_plus, _, end_noise = _dm_midpoints(kern, grad, x0, p0, xi, r_minus, r_plus)
    g_minus = grad("minus", x_minus)
    g_plus = grad("plus", x_plus)
    x_h = x0 + kern.e2_0[m] * p0 - kern.e3_0[m] * g_minus + end_noise[:, 0]
    p_h = kern.e1_0[m] * p0 - kern.e2_0[m] * g_plus + end_noise[:, 1]
    return x_h, p_h, x_minus, x_plus


@dataclass(frozen=True)
class DmStepSolution:
    """Converged inner interpolation of one double-midpoint step.

    The endpoint (x_nodes[:, m], p_nodes[:, m]) is the closed-form marginal
    update in exact arithmetic, and to rounding in floating point (tested to
    1e-12): the multipliers solve the marginal constraints for the final
    drift evaluation by construction, so the fixed point only moves interior
    nodes.
    """

    x_nodes: np.ndarray  # (B, m+1, d)
    p_nodes: np.ndarray
    lam1: np.ndarray  # (B, d)
    lam2: np.ndarray
    x_minus: np.ndarray
    x_plus: np.ndarray
    iterations: int


class DmWorkspace:
    """The sweep buffers of :func:`solve_dmulmc_step`, kept from one step to the next.

    A caller that solves many steps of one shape makes one workspace and
    passes it to every solve, which then fills the same arrays in place
    instead of allocating and faulting them in afresh for each step.
    ``array(name, shape)`` returns the buffer kept under ``name``, made anew
    only when the shape changes: the solver keeps its two iterate buffers
    here and the right-hand side [g; t] of its one product per sweep, the m
    node gradients stacked on the two constraint targets.  A gradient
    oracle writes its "nodes" output into :meth:`gradient_out`, the leading m
    cells of that right-hand side, so the sweep reads it without a copy; an
    oracle that returns an array of its own is copied in.  Every entry is
    written before it is read, so no state passes from one step to the next.
    A workspace belongs to one caller and one thread.
    """

    def __init__(self) -> None:
        self._arrays: dict[str, np.ndarray] = {}

    def array(self, name: str, shape: tuple) -> np.ndarray:
        buf = self._arrays.get(name)
        if buf is None or buf.shape != shape:
            buf = self._arrays[name] = np.empty(shape)
        return buf

    def _rhs(self, grad_shape: tuple) -> np.ndarray:
        """The (B, m+2, …) stack [g; t] for node gradients of shape (B, m, …)."""
        return self.array("rhs", (grad_shape[0], grad_shape[1] + 2, *grad_shape[2:]))

    def gradient_out(self, shape: tuple) -> np.ndarray:
        """Where an oracle may write node gradients of ``shape`` (B, m, …)."""
        return self._rhs(shape)[:, : shape[1]]


def solve_dmulmc_step(
    kern: StepKernels,
    grad,
    x0: np.ndarray,
    p0: np.ndarray,
    xi: np.ndarray,
    r_minus: int,
    r_plus: int,
    tol: float,
    work: DmWorkspace,
) -> DmStepSolution:
    """Solve the implicit inner-grid interpolation of one DM step.

    From the frozen-gradient path, sweeps X ↦ base + M·[g; t], with
    g = grad("nodes", X) on the m left nodes, t the two constraint targets
    and M = ``kern.constrained.x``.  This is the map X ↦ base − η·K₂·G,
    G = g − E₁λ₁ − E₂λ₂, with (λ₁, λ₂) solved from the marginal constraints,
    but with the multipliers eliminated: λ is affine in g, so G = P·g +
    E·σ̂⁻¹·t (:class:`~girsanovlab.kernels.ConstrainedSweep`), and a sweep is
    one product with no multiplier formed in it.  Stops once no entry of X
    moves by more than ``tol``.  Then, once, λ = σ̂⁻¹·(η·Eᵀ·g − t) from the
    last sweep's g, so G meets both constraints to rounding, and the
    momentum nodes from [g; λ].  The sweeps contract under h·√β ≤ 0.5
    (:func:`simulate_dmulmc` checks the bound); StepSizeError if they do not
    converge.  Needs m ≥ 2: with one cell σ̂ is singular (ValueError).

    The sweeps run in place, in the buffers of ``work``: the iterate
    alternates between two buffers of its (B, m+1, d, …) shape, each sweep's
    step landing in the spent iterate, and [g; t] is one (B, m+2, d, …)
    buffer whose target rows are written once per step and whose gradient
    rows the oracle fills (:meth:`DmWorkspace.gradient_out`); λ then
    replaces t there.  So the working set is three node arrays whatever the
    number of sweeps, and a caller that passes one workspace to every step
    allocates them once.  The solution's ``x_nodes`` and ``p_nodes`` are
    then the workspace's iterate buffers, valid until its next solve.  Each
    entry is rounded as by the out-of-place expressions X = base + x·[g; t],
    s = residual·[g; t], (λ₁, λ₂) = ``sigma_hat.solve(s₁, s₂)`` and momentum
    nodes (p·[g; λ] + E₁p₀) + c·K₁ξ, with the tables x, residual and p of
    ``kern.constrained`` (tested).  ``base`` may be unbatched
    ((1, m+1, d, U) for a tangent batch with a fixed start) while the
    iterate is (B, m+1, d, U); the first sweep broadcasts it into the
    iterate's shape.
    """
    m = kern.m
    tables = kern.constrained
    x_minus, x_plus, g0, _ = _dm_midpoints(kern, grad, x0, p0, xi, r_minus, r_plus)
    targets = kern.e2_0[m] * grad("plus", x_plus), kern.e3_0[m] * grad("minus", x_minus)

    c = np.sqrt(2.0 * kern.gamma * kern.eta)
    base = x0[:, None] + _col(kern.e2_0, x0) * p0[:, None] + c * _node_noise(kern.K2, xi)
    x = base - _col(kern.e3_0, x0) * g0[:, None]  # frozen-gradient path
    for it in range(1, FIXED_POINT_MAX_ITERS + 1):
        g = grad("nodes", x[:, :m])
        if it == 1:  # the iterate's shape is g's with one node more
            rhs = work._rhs(g.shape)
            rhs[:, m], rhs[:, m + 1] = targets
            shape = (g.shape[0], m + 1, *g.shape[2:])
            spare, free = work.array("nodes_a", shape), work.array("nodes_b", shape)
        if g.base is not rhs:
            rhs[:, :m] = g
        x_new = _node_noise(tables.x, rhs, out=spare)
        x_new += base
        # the first step lands in the free buffer, later ones in the spent iterate
        step = np.subtract(x_new, x, out=free if it == 1 else x)
        delta = float(np.max(np.abs(step, out=step)))
        x, spare = x_new, step
        if delta <= tol or not np.isfinite(delta):
            break
    if not delta <= tol:
        raise StepSizeError(
            f"implicit interpolation did not converge ({it} sweeps); the step "
            "violates the contraction condition h ~ 1/sqrt(beta)"
        )
    residual = _node_noise(tables.residual, rhs)  # η·Eᵀ·g − t
    lam = rhs[:, m:]  # the targets are spent: [g; t] becomes [g; λ]
    lam[:, 0], lam[:, 1] = kern.sigma_hat.solve(residual[:, 0], residual[:, 1])
    p_nodes = _node_noise(tables.p, rhs, out=spare)
    p_nodes += _col(kern.e1_0, x0) * p0[:, None]
    p_nodes += c * _node_noise(kern.K1, xi)
    return DmStepSolution(
        x_nodes=x,
        p_nodes=p_nodes,
        lam1=lam[:, 0].copy(),
        lam2=lam[:, 1].copy(),
        x_minus=x_minus,
        x_plus=x_plus,
        iterations=it,
    )


# ---------------------------------------------------------------------------
# Full-horizon simulators
# ---------------------------------------------------------------------------


def _chain(grid: TimeGrid, starts: tuple, xi: np.ndarray, step) -> tuple[list, list]:
    """The one loop over outer steps: chain ``step`` across the horizon of ``grid``.

    ``starts`` holds the start state of each line, (x0,) or (x0, p0), each
    (B, d).  ``step(k, state, xi_k)`` advances step k from ``state`` with its
    m cells of ξ and returns (segments, values): per line the step's nodes
    after its start, (B, n, d) with the end state last, and the per-step
    values to keep.  Returns per line the node array (B, N·n + 1, d) that
    begins with the start state, and per value its stack over the steps,
    (B, N, d) for an array and (N,) for a scalar.  Each step's end state,
    read from the line just written (a step's segments may be buffers its
    next call reuses), starts the next; TrajectoryBlowupError names the
    first step whose end position is non-finite.
    """
    m, state, lines, values = grid.m, starts, None, []
    for k in range(grid.N):
        segments, vals = step(k, state, xi[:, k * m : (k + 1) * m])
        if lines is None:
            n = segments[0].shape[1]
            lines = [np.empty((s.shape[0], grid.N * n + 1, *s.shape[2:])) for s in segments]
            for line, s0 in zip(lines, starts):
                line[:, 0] = s0
        for line, seg in zip(lines, segments):
            line[:, k * n + 1 : (k + 1) * n + 1] = seg
        state = tuple(line[:, (k + 1) * n] for line in lines)
        _check_finite(state[0], k)
        values.append(vals)
    stacks = [np.stack(v, axis=1) if np.ndim(v[0]) else np.array(v) for v in zip(*values)]
    return lines, stacks


def simulate_mlmc(
    potential: Potential, schedule: OverdampedSchedule, x0: np.ndarray, xi: np.ndarray
) -> OverdampedTrajectory:
    """Chain overdamped midpoint steps across the horizon."""
    grid = schedule.grid
    x0 = _batch(x0, potential.d, "x0")
    xi = _batch_noise(xi, grid.n_cells, potential.d)
    grad = lambda where, x: potential.gradient(x)  # ∇V at every point

    def step(k, state, xi_k):
        seg, x_plus = step_mlmc(grad, state[0], xi_k, grid.eta, int(schedule.indices[k]))
        return (seg[:, 1:],), (x_plus,)

    (nodes,), (x_plus,) = _chain(grid, (x0,), xi, step)
    return OverdampedTrajectory(schedule=schedule, x=nodes, x_plus=x_plus)


def _kinetic_setup(
    potential: Potential,
    grid: TimeGrid,
    gamma: float,
    x0: np.ndarray,
    p0: np.ndarray,
    xi: np.ndarray,
) -> tuple:
    """Validated inputs and step kernels of a kinetic run."""
    if not (np.isfinite(gamma) and gamma > 0):
        raise ValueError(f"friction must be positive, got {gamma}")
    d = potential.d
    x0 = _batch(x0, d, "x0")
    p0 = _batch(p0, d, "p0")
    xi = _batch_noise(xi, grid.n_cells, d)
    return x0, p0, xi, StepKernels.build(gamma, grid.h, grid.m)


def simulate_ulmc(
    potential: Potential,
    grid: TimeGrid,
    gamma: float,
    x0: np.ndarray,
    p0: np.ndarray,
    xi: np.ndarray,
) -> UnderdampedTrajectory:
    """Chain frozen-gradient exponential Euler steps across the horizon."""
    x0, p0, xi, kern = _kinetic_setup(potential, grid, gamma, x0, p0, xi)
    grad = lambda where, x: potential.gradient(x)  # ∇V at every point

    def step(k, state, xi_k):
        xn, pn = step_ulmc(kern, grad, *state, xi_k)
        return (xn[:, 1:], pn[:, 1:]), ()

    (xs, ps), _ = _chain(grid, (x0, p0), xi, step)
    return UnderdampedTrajectory(gamma=gamma, schedule=grid, x=xs, p=ps)


def simulate_dmulmc(
    potential: Potential,
    schedule: UnderdampedSchedule,
    gamma: float,
    x0: np.ndarray,
    p0: np.ndarray,
    xi: np.ndarray,
) -> UnderdampedTrajectory:
    """Chain interpolated double-midpoint steps (fixed point per step)."""
    grid = schedule.grid
    x0, p0, xi, kern = _kinetic_setup(potential, grid, gamma, x0, p0, xi)
    if kern.h * np.sqrt(max(potential.beta, 0.0)) > DM_STEP_MARGIN:
        raise StepSizeError(
            f"implicit interpolation requires h*sqrt(beta) <= {DM_STEP_MARGIN} "
            f"(h={kern.h}, beta={potential.beta}); reduce the step size"
        )
    grad = lambda where, x: potential.gradient(x)  # ∇V at every point
    work = DmWorkspace()  # one set of sweep buffers for every step

    def step(k, state, xi_k):
        r_minus, r_plus = int(schedule.indices_minus[k]), int(schedule.indices_plus[k])
        sol = solve_dmulmc_step(kern, grad, *state, xi_k, r_minus, r_plus, FIXED_POINT_TOL, work)
        values = (sol.x_minus, sol.x_plus, sol.lam1, sol.lam2, sol.iterations)
        return (sol.x_nodes[:, 1:], sol.p_nodes[:, 1:]), values

    (xs, ps), (x_minus, x_plus, lam1, lam2, iters) = _chain(grid, (x0, p0), xi, step)
    return UnderdampedTrajectory(
        gamma=gamma,
        schedule=schedule,
        x=xs,
        p=ps,
        x_minus=x_minus,
        x_plus=x_plus,
        lambda1=lam1,
        lambda2=lam2,
        iterations=iters,
    )


def simulate_dmulmc_marginal(
    potential: Potential,
    schedule: UnderdampedSchedule,
    gamma: float,
    x0: np.ndarray,
    p0: np.ndarray,
    xi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Chain closed-form marginal updates only (no interpolation solve).

    Returns outer-node arrays (x, p), each (B, N+1, d).
    """
    grid = schedule.grid
    x0, p0, xi, kern = _kinetic_setup(potential, grid, gamma, x0, p0, xi)

    def step(k, state, xi_k):
        def grad(where, x):  # ∇V; X∓ may overflow inside a step that starts finite
            if where != "start":
                _check_finite(x, k, "in")
            return potential.gradient(x)

        r_minus, r_plus = int(schedule.indices_minus[k]), int(schedule.indices_plus[k])
        x, p, _, _ = step_dmulmc_marginal(kern, grad, *state, xi_k, r_minus, r_plus)
        return (x[:, None], p[:, None]), ()

    (xs, ps), _ = _chain(grid, (x0, p0), xi, step)
    return xs, ps


# ---------------------------------------------------------------------------
# Exact Ornstein–Uhlenbeck reference endpoints (quadratic potentials)
# ---------------------------------------------------------------------------


def _require_quadratic(potential: Potential) -> np.ndarray:
    if not potential.is_quadratic:
        raise UnsupportedPotentialError(
            "exact reference flows require a quadratic potential"
        )
    return np.asarray(potential.constant_hessian, dtype=float)


def ou_cell(potential: Potential, gamma: float | None, eta: float):
    """Per-cell transition of the exact flow dz = Az dt + √(2c)·Σ dB for quadratic V.

    ``gamma=None`` is the overdamped dynamics, z = x with A = −H and noise
    √2 on x (c = 1); a friction the kinetic one, z = (x, p) with
    A = [[0, I], [−H, −γI]] and noise √(2γ) on p (c = γ).  Σ selects the
    noise-driven coordinates, the last d of z.  Returns (Phi, mean_coef,
    resid_half): the cell propagator e^{Aη} (z×z), the matrix multiplying ξ
    in the conditional mean given the cell increment (z×d), and a symmetric
    square root of the residual covariance (z×z).  Both dynamics come from
    the same two block exponentials (Van Loan): the cell covariance
    C = ∫₀^η e^{Au}Qe^{Aᵀu}du, Q = 2c·ΣΣᵀ, and J = ∫₀^η e^{Au}du, which
    gives the cross-covariance S = √(2c)·J·Σ with the increment.  The
    overdamped Φ and ξ-coefficient match their per-eigenvalue closed forms
    to 1e-14 relative (tested).  The residual root R, from C − SSᵀ/η,
    cancels in both dynamics: its relative error grows like ε/(λη)² as
    λη → 0 (λ an eigenvalue of H, ε the unit roundoff), with a larger
    constant in the kinetic cell.  For λη ≥ 1e-2 the overdamped R holds to
    1e-10 relative (tested against 40 digits).
    """
    H = _require_quadratic(potential)
    d = H.shape[0]
    if gamma is None:
        A, c = -H, 1.0
    else:
        A, c = np.block([[np.zeros((d, d)), np.eye(d)], [-H, -gamma * np.eye(d)]]), gamma
    z = A.shape[0]
    noisy = slice(z - d, z)
    Q = np.zeros((z, z))
    Q[noisy, noisy] = 2.0 * c * np.eye(d)
    # C = ∫₀^η e^{Au} Q e^{Aᵀu} du via the (1,2) block of a 2z×2z exponential.
    M = np.zeros((2 * z, 2 * z))
    M[:z, :z] = A
    M[:z, z:] = Q
    M[z:, z:] = -A.T
    E = expm(M * eta)
    Phi = E[:z, :z]
    C = E[:z, z:] @ Phi.T
    C = 0.5 * (C + C.T)
    # J = ∫₀^η e^{Au} du from an augmented exponential (robust for singular A).
    M2 = np.zeros((2 * z, 2 * z))
    M2[:z, :z] = A
    M2[:z, z:] = np.eye(z)
    J = expm(M2 * eta)[:z, z:]
    S = np.sqrt(2.0 * c) * J[:, noisy]
    R = C - S @ S.T / eta
    vals, vecs = eigh(0.5 * (R + R.T))
    resid_half = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T
    mean_coef = S / np.sqrt(eta)  # ΔB = √η ξ ⟹ S·ΔB/η = (S/√η)·ξ
    return Phi, mean_coef, resid_half


@dataclass(frozen=True)
class OuEndpointMap:
    """The n-cell exact flow as one affine map of (z₀, ξ, residual).

    The state z is x (z = d) for the overdamped dynamics and the stacked
    (x, p) (z = 2d) for the kinetic one.  With the cell propagator Φ, the
    ξ-coefficient M and the residual root R of :func:`ou_cell`, composing n
    cells gives
    z_n = Φⁿz₀ + Σ_i Φ^{n−1−i}(M·ξ_i + R·r_i).  In row form, for a batch,
    z_n = z₀·(Φⁿ)ᵀ + vec(ξ)·G_ξ + vec(r)·G_r, where block i of ``g_xi``
    (n, d, z) is (Φ^{n−1−i}M)ᵀ and block i of ``g_r`` (n, z, z) is
    (Φ^{n−1−i}R)ᵀ, matching ξ and r flattened cell-major per path.
    """

    phi_n: np.ndarray  # (z, z)
    g_xi: np.ndarray  # (n, d, z)
    g_r: np.ndarray  # (n, z, z)

    def __call__(self, z0: np.ndarray, xi: np.ndarray, residual: np.ndarray) -> np.ndarray:
        """State (B, z) after the n cells; z₀ may be one row for all paths.

        ``xi`` is (B, n, d) and ``residual`` supplies one independent standard
        normal z-vector per cell, (B, n, z).
        """
        n, d, z = self.g_xi.shape
        z0 = _batch(z0, z, "z0")
        xi = _batch_noise(xi, n, d)
        residual = _batch_noise(residual, n, z)
        return (
            z0 @ self.phi_n.T
            + xi.reshape(xi.shape[0], -1) @ self.g_xi.reshape(-1, z)
            + residual.reshape(residual.shape[0], -1) @ self.g_r.reshape(-1, z)
        )


def ou_endpoint_map(
    potential: Potential, gamma: float | None, eta: float, n: int
) -> OuEndpointMap:
    """The exact flow over n cells of width η as an :class:`OuEndpointMap`.

    ``gamma=None`` is the overdamped dynamics, a friction the kinetic one,
    as in :func:`ou_cell`, which builds the cell and is looked up at call
    time.  One cell build, then the powers Φ⁰ … Φⁿ by doubling, about
    log₂ n stacked products with no per-cell loop, stacked against M and R:
    O(n·z³) once.  Applying
    the map costs two BLAS products, (B × n·d) by (n·d × z) and (B × n·z) by
    (n·z × z).  It agrees with composing the cells one by one to 1e-12
    (tested up to n = 4096 for both dynamics).
    """
    Phi, mean_coef, resid_half = ou_cell(potential, gamma, eta)
    # D_k = Φ^k − I for k ≤ n, composed as D_{L+j} = D_L + D_j + D_L·D_j so
    # rounding scales with ‖D_k‖ ≈ kη‖A‖, not with ‖Φ^k‖ ≈ 1
    eye = np.eye(Phi.shape[0])
    dev = np.zeros((n + 1, *Phi.shape))
    filled, step = 1, Phi - eye  # step = D_filled
    while filled <= n:
        take = min(filled, n + 1 - filled)
        head = dev[:take]
        dev[filled : filled + take] = step + head + step @ head
        filled += take
        step = 2.0 * step + step @ step
    late_first = dev[:n][::-1].transpose(0, 2, 1)  # D_{n−1−i}ᵀ for cell i
    return OuEndpointMap(
        phi_n=eye + dev[n],
        g_xi=mean_coef.T + mean_coef.T @ late_first,
        g_r=resid_half.T + resid_half.T @ late_first,
    )
