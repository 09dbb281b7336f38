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
  η·Σ_j E₂(jη,h)G^opt_j = E₃(0,h)∇V(X⁻).  Its endpoint reproduces the
  marginal update (the multipliers solve the constraints by construction,
  tested to 1e-12), so iteration only refines interior nodes; the weights
  need those nodes, a local error does not.  The path and its Malliavin
  derivative share one fixed point, ``interpolation_fixed_point``: the path
  runs it with ∇V, the derivative (in :mod:`girsanovlab.girsanov`) with ∇²V·DX.
* ``exact_ou_endpoint_ld`` / ``exact_ou_endpoint_uld`` — the horizon state of
  the exact Gaussian transitions of the continuous dynamics for quadratic
  potentials, coupled to the same increments: each cell draws from the exact
  conditional law given the cell's Brownian increment (conditional mean from
  the cross-covariance, plus an independent residual supplied by the caller;
  ``ou_cell_ld`` / ``ou_cell_uld`` give one cell).  The cells are composed
  one by one, keeping only the current state.  Marginally exact, and
  synchronously coupled to any scheme sharing the ξ array.

Batch convention: states are (B, d), per-step increments (B, m, d), full
horizons (B, N·m, d); single paths pass B = 1.  Trajectory node arrays have
shape (B, N·m + 1, d) with node k·m + n holding X̂_{nη} of outer step k.

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
    "step_mlmc",
    "step_ulmc",
    "step_dmulmc_marginal",
    "interpolation_fixed_point",
    "solve_dmulmc_step",
    "simulate_mlmc",
    "simulate_ulmc",
    "simulate_dmulmc",
    "simulate_dmulmc_marginal",
    "ou_cell_ld",
    "ou_cell_uld",
    "exact_ou_endpoint_ld",
    "exact_ou_endpoint_uld",
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


def _check_finite(x: np.ndarray, step: int) -> None:
    if not np.all(np.isfinite(x)):
        raise TrajectoryBlowupError(f"state is non-finite after step {step}")


@dataclass(frozen=True)
class OverdampedTrajectory:
    """Inner-grid overdamped trajectory with per-step midpoint states.

    ``x`` has shape (B, N·m + 1, d); ``x_plus`` (B, N, d) holds X⁺_k.
    """

    grid: TimeGrid
    schedule: OverdampedSchedule
    x: np.ndarray
    x_plus: np.ndarray


@dataclass(frozen=True)
class UnderdampedTrajectory:
    """Inner-grid kinetic trajectory.

    For the double-midpoint scheme, ``x_minus``/``x_plus`` hold the midpoint
    states and ``lambda1``/``lambda2`` the per-step multipliers of the
    interpolation (all (B, N, d)); ``iterations[k]`` counts fixed-point sweeps
    of step k.  The frozen-gradient baseline has no midpoints or multipliers
    (``schedule is None``, multipliers zero).
    """

    grid: TimeGrid
    gamma: float
    schedule: UnderdampedSchedule | None
    x: np.ndarray
    p: np.ndarray
    x_minus: np.ndarray | None
    x_plus: np.ndarray | None
    lambda1: np.ndarray
    lambda2: np.ndarray
    iterations: np.ndarray


# ---------------------------------------------------------------------------
# Overdamped steps
# ---------------------------------------------------------------------------


def step_mlmc(
    potential: Potential, x0: np.ndarray, xi: np.ndarray, eta: float, r: int
) -> tuple[np.ndarray, np.ndarray]:
    """One overdamped midpoint step on the inner grid.

    X⁺ = x₀ − rη·∇V(x₀) + √(2η)·Σ_{j<r}ξ_j, then
    X̂_n = x₀ − nη·∇V(X⁺) + √(2η)·Σ_{j<n}ξ_j for n = 0..m.

    Returns (nodes (B, m+1, d), x_plus (B, d)).  ∇V(x₀) is reused as the
    midpoint gradient when r = 0.
    """
    m = xi.shape[-2]
    sums = np.zeros(xi.shape[:-2] + (m + 1, xi.shape[-1]))
    np.cumsum(xi, axis=-2, out=sums[..., 1:, :])
    coef = np.sqrt(2.0 * eta)
    g0 = potential.gradient(x0)
    x_plus = x0 - (r * eta) * g0 + coef * sums[..., r, :]
    g_plus = g0 if r == 0 else potential.gradient(x_plus)
    n_eta = eta * np.arange(m + 1)
    nodes = x0[..., None, :] - n_eta[:, None] * g_plus[..., None, :] + coef * sums
    _check_finite(nodes[..., m, :], m)
    return nodes, x_plus


# ---------------------------------------------------------------------------
# Kinetic steps
# ---------------------------------------------------------------------------


def _node_noise(K: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Left-endpoint sums Σ_{j<n} K[n,j]·ξ_j: (B, m, d, …) → (B, K.shape[0], d, …)."""
    cells = np.moveaxis(xi, 1, 0)
    flat = K @ cells.reshape(cells.shape[0], -1)  # one BLAS product
    return np.moveaxis(flat.reshape(K.shape[0], *cells.shape[1:]), 0, 1)


def step_ulmc(
    kern: StepKernels, potential: Potential, x0: np.ndarray, p0: np.ndarray, xi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Frozen-gradient exponential Euler step; returns inner node arrays.

    X̂_n = x₀ + E₂(0,nη)p₀ − E₃(0,nη)∇V(x₀) + √(2γη)·Σ_{j<n}E₂(jη,nη)ξ_j and
    the matching momentum line with E₁/E₂.  One gradient query.
    """
    g0 = potential.gradient(x0)
    c = np.sqrt(2.0 * kern.gamma * kern.eta)
    x_nodes = (
        x0[:, None, :]
        + kern.e2_0[:, None] * p0[:, None, :]
        - kern.e3_0[:, None] * g0[:, None, :]
        + c * _node_noise(kern.K2, xi)
    )
    p_nodes = (
        kern.e1_0[:, None] * p0[:, None, :]
        - kern.e2_0[:, None] * g0[:, None, :]
        + c * _node_noise(kern.K1, xi)
    )
    return x_nodes, p_nodes


def _dm_midpoints(
    kern: StepKernels,
    potential: Potential,
    x0: np.ndarray,
    p0: np.ndarray,
    xi: np.ndarray,
    r_minus: int,
    r_plus: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Explicit midpoint states (X⁻, X⁺), the shared start gradient and the end noise.

    The noise rows K₂[r⁻], K₂[r⁺], K₂[m] and K₁[m] contract ξ in one stacked
    product; the end noise (B, 2, d) holds c·K₂[m]·ξ and c·K₁[m]·ξ.
    """
    g0 = potential.gradient(x0)
    c = np.sqrt(2.0 * kern.gamma * kern.eta)
    m = kern.m
    rows = np.stack([kern.K2[r_minus], kern.K2[r_plus], kern.K2[m], kern.K1[m]])
    noise = c * _node_noise(rows, xi)  # (B, 4, d)
    x_minus, x_plus = (
        x0 + kern.e2_0[r] * p0 - kern.e3_0[r] * g0 + noise[:, i]
        for i, r in enumerate((r_minus, r_plus))
    )
    return x_minus, x_plus, g0, noise[:, 2:]


def step_dmulmc_marginal(
    kern: StepKernels,
    potential: Potential,
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
    x_minus, x_plus, _, end_noise = _dm_midpoints(kern, potential, x0, p0, xi, r_minus, r_plus)
    g_minus = potential.gradient(x_minus)
    g_plus = potential.gradient(x_plus)
    x_h = x0 + kern.e2_0[m] * p0 - kern.e3_0[m] * g_minus + end_noise[:, 0]
    p_h = kern.e1_0[m] * p0 - kern.e2_0[m] * g_plus + end_noise[:, 1]
    return x_h, p_h, x_minus, x_plus


@dataclass(frozen=True)
class DmStepSolution:
    """Converged inner interpolation of one double-midpoint step.

    The endpoint (x_nodes[:, m], p_nodes[:, m]) equals the closed-form
    marginal update exactly: the multipliers solve the marginal constraints
    for the final drift evaluation by construction, so the fixed point only
    moves interior nodes.
    """

    x_nodes: np.ndarray  # (B, m+1, d)
    p_nodes: np.ndarray
    lam1: np.ndarray  # (B, d)
    lam2: np.ndarray
    x_minus: np.ndarray
    x_plus: np.ndarray
    iterations: int


def interpolation_fixed_point(
    kern: StepKernels, grad, start: np.ndarray, base: np.ndarray, gp: np.ndarray,
    gx: np.ndarray, tol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """One fixed point for the double-midpoint interpolation and its tangents.

    Sweeps X ↦ base − η·K₂·G, G_j = grad(X)_j − E₁(jη,h)λ₁ − E₂(jη,h)λ₂, with
    (λ₁, λ₂) from the 2×2 Gram system, so the marginal constraints
    η·Σ_j E₁(jη,h)G_j = gp and η·Σ_j E₂(jη,h)G_j = gx hold at every sweep.
    ``start`` and ``base`` are (B, m+1, d, …) node arrays with any trailing
    tangent axes and ``grad`` maps X[:, :m] to (B, m, d, …): ∇V for the path,
    DX ↦ ∇²V·DX for its derivative.  Stops once no entry of X moves by more
    than ``tol``; returns (X, λ₁, λ₂, G, sweeps).
    """
    m, eta = kern.m, kern.eta
    tail = (1,) * (start.ndim - 2)  # cell kernels broadcast over (d, …)
    e1, e2 = kern.e1_left.reshape(m, *tail), kern.e2_left.reshape(m, *tail)
    x = start
    for it in range(1, FIXED_POINT_MAX_ITERS + 1):
        g = grad(x[:, :m])
        s1 = eta * np.einsum("j,bj...->b...", kern.e1_left, g)
        s2 = eta * np.einsum("j,bj...->b...", kern.e2_left, g)
        lam1, lam2 = kern.sigma_hat.solve(s1 - gp, s2 - gx)
        g_opt = g - e1 * lam1[:, None] - e2 * lam2[:, None]
        x_new = base - eta * _node_noise(kern.K2, g_opt)
        delta = float(np.max(np.abs(x_new - x)))
        x = x_new
        if delta <= tol:
            return x, lam1, lam2, g_opt, it
        if not np.isfinite(delta):
            break
    raise StepSizeError(
        f"implicit interpolation did not converge ({it} sweeps); the step "
        "violates the contraction condition h ~ 1/sqrt(beta)"
    )


def solve_dmulmc_step(
    kern: StepKernels,
    potential: Potential,
    x0: np.ndarray,
    p0: np.ndarray,
    xi: np.ndarray,
    r_minus: int,
    r_plus: int,
) -> DmStepSolution:
    """Solve the implicit inner-grid interpolation of one DM step.

    :func:`interpolation_fixed_point` with grad = ∇V, from the frozen-gradient
    path; converges to 1e−12 in the grid max-norm under h·√β ≤ 0.5.
    """
    if kern.h * np.sqrt(max(potential.beta, 0.0)) > DM_STEP_MARGIN:
        raise StepSizeError(
            f"implicit interpolation requires h*sqrt(beta) <= {DM_STEP_MARGIN} "
            f"(h={kern.h}, beta={potential.beta}); reduce the step size"
        )
    m, eta = kern.m, kern.eta
    x_minus, x_plus, g0, _ = _dm_midpoints(kern, potential, x0, p0, xi, r_minus, r_plus)
    gx = kern.e3_0[m] * potential.gradient(x_minus)  # constraint targets
    gp = kern.e2_0[m] * potential.gradient(x_plus)

    c = np.sqrt(2.0 * kern.gamma * eta)
    base = (
        x0[:, None, :]
        + kern.e2_0[:, None] * p0[:, None, :]
        + c * _node_noise(kern.K2, xi)
    )
    start = base - kern.e3_0[:, None] * g0[:, None, :]  # frozen-gradient path
    x_nodes, lam1, lam2, g_opt, it = interpolation_fixed_point(
        kern, potential.gradient, start, base, gp, gx, FIXED_POINT_TOL
    )
    p_nodes = (
        kern.e1_0[:, None] * p0[:, None, :]
        - eta * _node_noise(kern.K1, g_opt)
        + c * _node_noise(kern.K1, xi)
    )
    return DmStepSolution(
        x_nodes=x_nodes,
        p_nodes=p_nodes,
        lam1=lam1,
        lam2=lam2,
        x_minus=x_minus,
        x_plus=x_plus,
        iterations=it,
    )


# ---------------------------------------------------------------------------
# Full-horizon simulators
# ---------------------------------------------------------------------------


def simulate_mlmc(
    potential: Potential, schedule: OverdampedSchedule, x0: np.ndarray, xi: np.ndarray
) -> OverdampedTrajectory:
    """Chain overdamped midpoint steps across the horizon."""
    grid = schedule.grid
    x0 = _batch(x0, potential.d, "x0")
    xi = _batch_noise(xi, grid.n_cells, potential.d)
    B, d, m = x0.shape[0], potential.d, grid.m
    nodes = np.empty((B, grid.n_cells + 1, d))
    nodes[:, 0] = x0
    x_plus = np.empty((B, grid.N, d))
    x = x0
    for k in range(grid.N):
        seg, xp = step_mlmc(
            potential, x, xi[:, k * m : (k + 1) * m], grid.eta, int(schedule.indices[k])
        )
        nodes[:, k * m + 1 : (k + 1) * m + 1] = seg[:, 1:]
        x_plus[:, k] = xp
        x = seg[:, m]
        _check_finite(x, k)
    return OverdampedTrajectory(grid=grid, schedule=schedule, x=nodes, x_plus=x_plus)


def _kinetic_setup(
    potential: Potential,
    grid: TimeGrid,
    gamma: float,
    x0: np.ndarray,
    p0: np.ndarray,
    xi: np.ndarray,
    n_nodes: int,
) -> tuple:
    """Validated inputs, step kernels and (x, p) node arrays of a kinetic run.

    The node arrays have ``n_nodes`` nodes per path, the first set to (x0, p0).
    """
    if not (np.isfinite(gamma) and gamma > 0):
        raise ValueError(f"friction must be positive, got {gamma}")
    d = potential.d
    x0 = _batch(x0, d, "x0")
    p0 = _batch(p0, d, "p0")
    xi = _batch_noise(xi, grid.n_cells, d)
    kern = StepKernels.build(gamma, grid.h, grid.m)
    xs = np.empty((x0.shape[0], n_nodes, d))
    ps = np.empty((x0.shape[0], n_nodes, d))
    xs[:, 0], ps[:, 0] = x0, p0
    return x0, p0, xi, kern, xs, ps


def simulate_ulmc(
    potential: Potential,
    grid: TimeGrid,
    gamma: float,
    x0: np.ndarray,
    p0: np.ndarray,
    xi: np.ndarray,
) -> UnderdampedTrajectory:
    """Chain frozen-gradient exponential Euler steps across the horizon."""
    x0, p0, xi, kern, xs, ps = _kinetic_setup(
        potential, grid, gamma, x0, p0, xi, grid.n_cells + 1
    )
    B, d, m = x0.shape[0], potential.d, grid.m
    x, p = x0, p0
    for k in range(grid.N):
        xn, pn = step_ulmc(kern, potential, x, p, xi[:, k * m : (k + 1) * m])
        xs[:, k * m + 1 : (k + 1) * m + 1] = xn[:, 1:]
        ps[:, k * m + 1 : (k + 1) * m + 1] = pn[:, 1:]
        x, p = xn[:, m], pn[:, m]
        _check_finite(x, k)
    zeros = np.zeros((B, grid.N, d))
    return UnderdampedTrajectory(
        grid=grid,
        gamma=gamma,
        schedule=None,
        x=xs,
        p=ps,
        x_minus=None,
        x_plus=None,
        lambda1=zeros,
        lambda2=np.zeros_like(zeros),
        iterations=np.zeros(grid.N, dtype=int),
    )


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
    x0, p0, xi, kern, xs, ps = _kinetic_setup(
        potential, grid, gamma, x0, p0, xi, grid.n_cells + 1
    )
    B, d, m = x0.shape[0], potential.d, grid.m
    x_minus = np.empty((B, grid.N, d))
    x_plus = np.empty((B, grid.N, d))
    lam1 = np.empty((B, grid.N, d))
    lam2 = np.empty((B, grid.N, d))
    iters = np.zeros(grid.N, dtype=int)
    x, p = x0, p0
    for k in range(grid.N):
        sol = solve_dmulmc_step(
            kern,
            potential,
            x,
            p,
            xi[:, k * m : (k + 1) * m],
            int(schedule.indices_minus[k]),
            int(schedule.indices_plus[k]),
        )
        xs[:, k * m + 1 : (k + 1) * m + 1] = sol.x_nodes[:, 1:]
        ps[:, k * m + 1 : (k + 1) * m + 1] = sol.p_nodes[:, 1:]
        x_minus[:, k], x_plus[:, k] = sol.x_minus, sol.x_plus
        lam1[:, k], lam2[:, k] = sol.lam1, sol.lam2
        iters[k] = sol.iterations
        x, p = sol.x_nodes[:, m], sol.p_nodes[:, m]
        _check_finite(x, k)
    return UnderdampedTrajectory(
        grid=grid,
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
    x0, p0, xi, kern, xs, ps = _kinetic_setup(
        potential, grid, gamma, x0, p0, xi, grid.N + 1
    )
    m = grid.m
    x, p = x0, p0
    for k in range(grid.N):
        x, p, _, _ = step_dmulmc_marginal(
            kern,
            potential,
            x,
            p,
            xi[:, k * m : (k + 1) * m],
            int(schedule.indices_minus[k]),
            int(schedule.indices_plus[k]),
        )
        _check_finite(x, k)
        xs[:, k + 1], ps[:, k + 1] = x, p
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


def ou_cell_ld(potential: Potential, eta: float):
    """Per-cell transition of dX = −HX dt + √2 dB over one inner cell.

    Returns (U, phi, mean_coef, resid_sd): eigenvectors of H and, per
    eigenvalue, the decay factor e^{−λη}, the coefficient of ξ in the
    conditional mean given the cell increment, and the residual standard
    deviation.  All elementwise in the eigenbasis.
    """
    H = _require_quadratic(potential)
    lam, U = eigh(H)
    w = lam * eta
    # S = ∫₀^η e^{−λu}du and C = 2∫₀^η e^{−2λu}du, stable as λ→0.
    s = eta * np.where(w == 0.0, 1.0, -np.expm1(-w) / np.where(w == 0.0, 1.0, w))
    cvar = eta * np.where(w == 0.0, 2.0, -np.expm1(-2 * w) / np.where(w == 0.0, 1.0, w))
    phi = np.exp(-w)
    # noise = √2·S·ΔB/η + residual; ΔB = √η ξ ⟹ ξ-coefficient √2 s/√η.
    mean_coef = np.sqrt(2.0) * s / np.sqrt(eta)
    resid_var = np.clip(cvar - 2.0 * s**2 / eta, 0.0, None)
    return U, phi, mean_coef, np.sqrt(resid_var)


def ou_cell_uld(potential: Potential, gamma: float, eta: float):
    """Per-cell transition of the kinetic diffusion for quadratic V.

    Drift matrix A = [[0, I], [−H, −γI]] on z = (x, p), noise √(2γ) on the
    momentum line.  Returns (Phi, mean_coef, resid_half): the cell propagator
    e^{Aη} (2d×2d), the matrix multiplying ξ in the conditional mean given the
    cell increment (2d×d), and a symmetric square root of the residual
    covariance (2d×2d).  Covariances come from a block-matrix exponential.
    """
    H = _require_quadratic(potential)
    d = H.shape[0]
    A = np.zeros((2 * d, 2 * d))
    A[:d, d:] = np.eye(d)
    A[d:, :d] = -H
    A[d:, d:] = -gamma * np.eye(d)
    Q = np.zeros((2 * d, 2 * d))
    Q[d:, d:] = 2.0 * gamma * np.eye(d)
    # C = ∫₀^η e^{Au} Q e^{Aᵀu} du via the (1,2) block of a 4d×4d exponential.
    M = np.zeros((4 * d, 4 * d))
    M[: 2 * d, : 2 * d] = A
    M[: 2 * d, 2 * d :] = Q
    M[2 * d :, 2 * d :] = -A.T
    E = expm(M * eta)
    Phi = E[: 2 * d, : 2 * d]
    C = E[: 2 * d, 2 * d :] @ Phi.T
    C = 0.5 * (C + C.T)
    # J = ∫₀^η e^{Au} du from an augmented exponential (robust for singular A).
    M2 = np.zeros((4 * d, 4 * d))
    M2[: 2 * d, : 2 * d] = A
    M2[: 2 * d, 2 * d :] = np.eye(2 * d)
    J = expm(M2 * eta)[: 2 * d, 2 * d :]
    # Cross-covariance with the increment: S = J·Σ, Σ = [[0], [√(2γ)I]].
    S = np.sqrt(2.0 * gamma) * J[:, d:]
    R = C - S @ S.T / eta
    vals, vecs = eigh(0.5 * (R + R.T))
    resid_half = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T
    mean_coef = S / np.sqrt(eta)  # ΔB = √η ξ ⟹ S·ΔB/η = (S/√η)·ξ
    return Phi, mean_coef, resid_half


def exact_ou_endpoint_ld(
    potential: Potential,
    x0: np.ndarray,
    xi: np.ndarray,
    eta: float,
    residual: np.ndarray,
) -> np.ndarray:
    """Exact overdamped flow for quadratic V after n cells, coupled to ξ.

    ``residual`` supplies one independent standard normal d-vector per cell
    (same shape as ξ, (B, n, d)).  Composes :func:`ou_cell_ld` cell by cell,
    keeping only the current state, and returns the state (B, d) after the
    n cells: it has the exact transition law.
    """
    x0 = _batch(x0, potential.d, "x0")
    xi = _batch_noise(xi, xi.shape[-2], potential.d)
    residual = _batch_noise(residual, xi.shape[1], potential.d)
    U, phi, mean_coef, resid_sd = ou_cell_ld(potential, eta)
    y = x0 @ U  # eigen coordinates (rows)
    for i in range(xi.shape[1]):
        y = phi * y + mean_coef * (xi[:, i] @ U) + resid_sd * (residual[:, i] @ U)
    return y @ U.T


def exact_ou_endpoint_uld(
    potential: Potential,
    gamma: float,
    z0: np.ndarray,
    xi: np.ndarray,
    eta: float,
    residual: np.ndarray,
) -> np.ndarray:
    """Exact kinetic flow for quadratic V after n cells, coupled to ξ.

    ``z0`` stacks (x, p), shape (B, 2d); ``residual`` supplies one independent
    standard normal 2d-vector per cell, shape (B, n, 2d).  Composes
    :func:`ou_cell_uld` cell by cell, keeping only the current state, and
    returns the stacked state (B, 2d) after the n cells.
    """
    d = potential.d
    z = _batch(z0, 2 * d, "z0")
    xi = _batch_noise(xi, xi.shape[-2], d)
    residual = _batch_noise(residual, xi.shape[1], 2 * d)
    Phi, mean_coef, resid_half = ou_cell_uld(potential, gamma, eta)
    for i in range(xi.shape[1]):
        z = z @ Phi.T + xi[:, i] @ mean_coef.T + residual[:, i] @ resid_half.T
    return z
