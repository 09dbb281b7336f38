"""Anticipating-Girsanov machinery for midpoint Langevin discretizations.

Given a simulated trajectory, this module assembles the elementary drift
difference ψ between the scheme's path law and the target diffusion, its
Malliavin derivative ∂ψ_i/∂ξ_j as per-step block matrices, the Skorohod
adjoint δψ, the Carleman–Fredholm log-determinant, and the pathwise
log Radon–Nikodym weight

    log M = log|det₂(I + Dψ)| − δψ − ½Σ‖ψ_i‖²,

where det₂ is the Carleman–Fredholm (trace-removed) determinant and
δψ = Σ⟨ψ_i, ξ_i⟩ − tr(Dψ).  M reweights scheme paths into diffusion paths:
E_P[Z(T(ξ))·M] = E_P[Z] with T(ξ) = ξ + ψ(ξ), so E_P[M] = 1 and
KL(P‖Q) = E_P[−log M].

Drift conventions (left-endpoint cell realization, cells i = 0..m−1 per
outer step, √η elementary scaling):

* overdamped midpoint:  ψ_i = √(η/2)·(∇V(X̂_{iη}) − ∇V(X⁺))
* frozen-gradient kinetic:  ψ_i = √(η/(2γ))·(∇V(X̂_{iη}) − ∇V(x₀))
* double-midpoint kinetic:  ψ_i = √(η/(2γ))·(E₁(iη,h)λ₁ + E₂(iη,h)λ₂)

A step's drift is stored in drift coordinates (``Scheme.drift_coordinates``):
the double-midpoint drift as ψ = U·(λ₁, λ₂) per step, with the basis U of
:func:`drift_basis_dmulmc` and the multipliers the trajectory carries; the
other schemes' drifts as their own coordinates (U = I), which
``drift_mlmc`` and ``drift_ulmc`` return, (B, N·m, d).  ψ itself is formed
from (U, c) in one place, ``Scheme.drift``, and every derivative below is in
the same coordinates.

Derivative structure: each scheme has one tangent rule (``tangents_*``,
``Scheme.tangents``), the derivative of step k's drift coordinates and end
state along directions in its own increments plus a step-start tangent.  The
rule writes no step equation: it runs the scheme's own step function from
:mod:`girsanovlab.integrators` on the tangents with ∇V(X) replaced by
∇²V(X)·DX at the path's points (the step recursion linearised), then
differentiates the drift.  Its three consumers are the dense derivative
(:func:`derivative_blocks`, Dψ = U·Dc, one forward sweep of the tangents that
carries each step's end tangent into the next); the DM-ULMC summary; and the
affine step maps, its value on one zero path per step.  A step's tangent
never sees later increments, so every block above the step diagonal is zero:
the derivative is block lower-triangular, det(I + Dψ) = Π_k det(I + D_k),
and only diagonal blocks carry trace.

Structured evaluation.  The weight needs only the sign of det(I + D_k),
log|det₂(I + D_k)|, tr D_k and the spectral radius ρ(D_k) per block
(:class:`BlockSummary`).  Each scheme's block has a small core that yields
them, never forming the dense (m·d)×(m·d) block, and det₂ is summed from
O(h²) terms rather than formed as log|det| − tr, two O(h) numbers:

* overdamped midpoint: D = L − C·Rᵀ with L[i,j] = η·H_i·1_{j<i},
  C_i = η·(iη·H_i·H⁺ + H⁺) and R = 1_{j<r} ⊗ I_d.  I + L is unit lower
  block-triangular, so by the matrix determinant lemma
  det(I + D) = det(I_d − Ŷ) with Ŷ = Σ_{j<r} Y_j, where (I + L)·Y = C is the
  recurrence Y_i = C_i − η·H_i·Σ_{j<i} Y_j, and tr D = −η·Σ_{i<r}
  tr(iη·H_i·H⁺ + H⁺).  det₂ is a log1p sum over the d eigenvalues of Ŷ plus
  a trace summed inside the recurrence.  D is block lower-triangular across
  the midpoint cell, so ρ(D) is that of its r·d leading cells, estimated
  by 20 power steps there.  The same factors give tr(D²)
  (:func:`trace_square_mlmc`), which the determinant-linearization check
  compares with log det₂;
* frozen-gradient kinetic: D is strictly lower triangular (nilpotent), so
  det(I + D) = 1 and det₂ = tr D = ρ(D) = 0 exactly, with no evaluation;
* double-midpoint kinetic: D = U·Wᵀ with U = √(η/(2γ))·[e₁ ⊗ I_d, e₂ ⊗ I_d]
  (left-endpoint kernels, :func:`drift_basis_dmulmc`; the affine step maps
  store the drift in this basis too) and Wᵀ = ∂(λ₁, λ₂)/∂ξ, so the nonzero
  eigenvalues of D are those of the 2d × 2d core Wᵀ·U, which give det₂, the
  sign and ρ exactly, and tr D = tr(Wᵀ·U).  Wᵀ comes from the path's own
  step solver (:func:`~girsanovlab.integrators.solve_dmulmc_step` with
  grad = ∇²V·DX), run on the 2d columns of U instead of on all m·d noise
  coordinates as the dense block is.  On a diagonal Hessian no coordinate
  couples to another, so the core is d independent 2 × 2 cores: the solver
  runs on 2 directions, each moving every coordinate along one kernel, and
  each core's eigenvalues are taken in closed form instead of by
  ``eigvals``.

The overdamped and double-midpoint summaries and the tangent rules evaluate
∇²V one step at a time and in the potential's factor form
(``Potential.hessian(x, factor=True)``): the diagonal, (B, m, d), of a
separable target, else the dense (B, m, d, d) batch.  Every product by ∇²V
goes through :func:`_hessian_times`, elementwise for a diagonal (d-fold
less work) and a matmul for a dense one, with the same bits.  So their
working set is one step's factors whatever N is.  The double-midpoint
summary is the one place where the diagonal form also changes the
arithmetic (its compact directions and closed-form cores): there the two
forms agree to rounding, not bit for bit.  Both weight routes use these
evaluators: the generic route per path, the affine route once per distinct
step on a zero path.  The dense blocks serve the finite-difference check of
criterion 3 (``fd-malliavin``), block dumps and the tests; their summary
:func:`block_summary_dense` (LU sign, det₂ and ρ from the block's
eigenvalues) is the reference those read.  The trace diagnostics of
:func:`trace_diagnostics_mlmc` assemble their own leading-cell matrices and
do not use them.
Every summary, structured or dense, becomes a weight through the one assembly
:func:`summary_log_weight`, where the invertibility rule is written.

All functions are batched with a leading path axis and are pure; nothing is
shared across paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .integrators import (
    DmWorkspace,
    OverdampedTrajectory,
    UnderdampedTrajectory,
    solve_dmulmc_step,
    step_mlmc,
    step_ulmc,
)
from .kernels import StepKernels
from .potentials import Potential, diagonal_matrices

__all__ = [
    "MalliavinBlocks",
    "LogWeight",
    "TraceDiagnostics",
    "drift_mlmc",
    "drift_ulmc",
    "drift_basis_dmulmc",
    "derivative_blocks",
    "tangents_mlmc", "tangents_ulmc", "tangents_dmulmc",
    "BlockSummary",
    "block_summary_dense",
    "block_summary_mlmc",
    "block_summary_ulmc",
    "block_summary_dmulmc",
    "trace_square_mlmc",
    "carleman_fredholm_logdet",
    "summary_log_weight",
    "trace_diagnostics_mlmc",
    "SPECTRAL_RADIUS_LIMIT",
]

#: Invertibility flag threshold on the per-block spectral-radius estimate.
SPECTRAL_RADIUS_LIMIT = 0.9
#: Stop of the double-midpoint tangent sweeps, finer than the path's 1e-12
#: (``integrators.FIXED_POINT_TOL``).  Path nodes are O(1), so 1e-12 is
#: already a relative accuracy there.  Tangent columns are small: a unit ξ
#: entry moves the nodes by O(h·√η), and the columns of U by less, so the
#: same absolute stop would resolve Dλ
#: coarsely.  The sweeps are linear and contract like the path's; the finer
#: stop costs about one sweep more (5 → 6 at h = 1/4, m = 16, d = 8).
_DERIV_TOL = 1e-14


@dataclass(frozen=True)
class MalliavinBlocks:
    """Per-step derivative blocks ∂ψ_i/∂ξ_j.

    ``full`` is the complete (B, N·m·d, N·m·d) derivative from one forward
    tangent sweep over the horizon: block lower-triangular, with exact zeros
    above its diagonal blocks.  ``diag`` has shape (B, N, m·d, m·d): those
    diagonal (within-step) blocks in cell ordering, each d×d spatial entry
    flattened in place.
    """

    diag: np.ndarray
    full: np.ndarray


@dataclass(frozen=True)
class LogWeight:
    """Pieces of the pathwise log Radon–Nikodym weight, per path.

    ``log_weight = log_cf_det − skorohod − energy``.  ``invertible``: the
    largest per-step ``BlockSummary.rho`` (ρ(D_k), or its power estimate on
    the overdamped midpoint route) is below 0.9 and det₂ is finite; estimators
    exclude other paths and count them as rejections.  ``negative_det`` flags
    paths where some block determinant came out negative despite a passing
    diagnostic — an anomaly counter, expected to stay zero under the scheme
    step bounds.
    """

    log_cf_det: np.ndarray
    skorohod: np.ndarray
    energy: np.ndarray
    spectral_radius: np.ndarray
    invertible: np.ndarray
    negative_det: np.ndarray

    @property
    def log_weight(self) -> np.ndarray:
        return self.log_cf_det - self.skorohod - self.energy


# ---------------------------------------------------------------------------
# Drift realizations
# ---------------------------------------------------------------------------


def _left_nodes(traj_x: np.ndarray, N: int, m: int) -> np.ndarray:
    """(B, N·m+1, d) nodes → (B, N, m, d) left endpoints of every cell."""
    B, _, d = traj_x.shape
    return traj_x[:, :-1].reshape(B, N, m, d)


def drift_mlmc(potential: Potential, traj: OverdampedTrajectory) -> np.ndarray:
    """ψ_i = √(η/2)·(∇V(X̂_{iη}) − ∇V(X⁺_k)) on each cell of each step, (B, N·m, d)."""
    grid = traj.grid
    left = _left_nodes(traj.x, grid.N, grid.m)
    g_nodes = potential.gradient(left)
    g_plus = potential.gradient(traj.x_plus)
    psi = np.subtract(g_nodes, g_plus[:, :, None, :], out=g_nodes)
    psi *= np.sqrt(grid.eta / 2.0)
    return psi.reshape(psi.shape[0], grid.n_cells, -1)


def drift_ulmc(potential: Potential, traj: UnderdampedTrajectory) -> np.ndarray:
    """ψ_i = √(η/(2γ))·(∇V(X̂_{iη}) − ∇V(x_{kh})) for the frozen-gradient scheme, (B, N·m, d)."""
    grid = traj.grid
    left = _left_nodes(traj.x, grid.N, grid.m)
    g_nodes = potential.gradient(left)
    g_start = g_nodes[:, :, :1]  # cell 0 of each step sits at the step start
    psi = np.sqrt(grid.eta / (2.0 * traj.gamma)) * (g_nodes - g_start)
    return psi.reshape(psi.shape[0], grid.n_cells, -1)


def drift_basis_dmulmc(traj: UnderdampedTrajectory) -> tuple[np.ndarray, np.ndarray]:
    """U (m·d, 2d) with ψ = U·(λ₁, λ₂) per step, and its Gram matrix UᵀU.

    U = √(η/(2γ))·[e₁ ⊗ I_d, e₂ ⊗ I_d] on the left-endpoint kernels, so
    UᵀU = σ̂/(2γ) ⊗ I_d with σ̂ the kernels' discrete Gram coefficients;
    ValueError for m = 1, where σ̂ is singular.  That Kronecker form is why
    the DM-ULMC core splits: column (a, i) of U moves coordinate i alone, so
    on a target with a diagonal Hessian, whose tangents couple no
    coordinates, Wᵀ·U is d independent 2 × 2 cores, one per coordinate
    (:func:`block_summary_dmulmc`).
    """
    grid, d = traj.grid, traj.x.shape[2]
    kern = StepKernels.build(traj.gamma, grid.h, grid.m)
    coef = np.sqrt(grid.eta / (2.0 * traj.gamma))
    eye = np.eye(d)
    U = np.concatenate(
        [coef * kern.e1_left[:, None, None] * eye, coef * kern.e2_left[:, None, None] * eye],
        axis=-1,
    )
    sh = kern.sigma_hat
    gram = np.kron(np.array([[sh.s11, sh.s12], [sh.s12, sh.s22]]) / (2.0 * traj.gamma), eye)
    return U.reshape(grid.m * d, 2 * d), gram


# ---------------------------------------------------------------------------
# Malliavin blocks
# ---------------------------------------------------------------------------


def derivative_blocks(
    traj: OverdampedTrajectory | UnderdampedTrajectory, tangents,
    basis: np.ndarray | None = None,
) -> MalliavinBlocks:
    """The dense derivative from a scheme's step tangent rule (``Scheme.blocks``).

    ``tangents(k, dirs, dz0)`` returns (Dc (B, r, U), Dz_h (B, z, U)), the
    tangents of step k's drift coordinates and of its end state (z = d or 2d
    coordinates) along the increment directions ``dirs`` (m, d, U) in its own
    ξ plus the step-start tangents ``dz0`` (B, z, U), or None for a fixed
    start.  ``basis`` U (m·d, r) maps them to Dψ = U·Dc; None is the identity
    basis (Dc = Dψ).  The derivative is one forward sweep along all N·m·d
    entries that carries Dz_h into the next step, and the diagonal blocks are
    read off it.
    """
    N, m, (B, _, d) = traj.grid.N, traj.grid.m, traj.x.shape
    md = m * d
    s = N * md
    entries = np.eye(s).reshape(N, m, d, s)
    full = np.empty((B, s, s))
    diag = np.empty((B, N, md, md))
    dz = None
    for k in range(N):
        Dc, dz = tangents(k, entries[k], dz)
        rows = slice(k * md, (k + 1) * md)
        full[:, rows] = Dc if basis is None else basis @ Dc
        diag[:, k] = full[:, rows, rows]
    return MalliavinBlocks(diag, full)


def _hessian_times(H: np.ndarray, X: np.ndarray, diagonal: bool, out=None) -> np.ndarray:
    """H·X for a ∇²V factor H, ``potential.hessian(x, factor=True)``.

    ``diagonal`` is the potential's ``diagonal_hessian``.  X is columns
    (…, d, U), or a second factor of H's form, and H broadcasts against X's
    leading axes.  A diagonal factor (…, d) multiplies elementwise, d·U
    products per matrix (a diagonal X gives the diagonal of the product); a
    dense factor (…, d, d) is a matmul, d²·U.  The matmul by the dense form
    of a diagonal adds only exact zeros to each product, so both forms give
    the same bits.
    """
    if not diagonal:
        return np.matmul(H, X, out=out)
    return np.multiply(H[..., None] if X.ndim > H.ndim else H, X, out=out)


def _dense(A: np.ndarray, diagonal: bool) -> np.ndarray:
    """A matrix in factor form as a dense (…, d, d) one."""
    return diagonal_matrices(A) if diagonal else A


def _start_tangents(dz0, H_start: np.ndarray, z: int, dirs: np.ndarray):
    """(dz0, H_start), or (1, z, U) and a zero (1, …) factor for a fixed start (None).

    The zero Hessian keeps a fixed start unbatched: no (B, …) array forms
    before the step's own Hessians act.
    """
    if dz0 is None:
        return np.zeros((1, z, dirs.shape[-1])), np.zeros((1, *H_start.shape[1:]))
    return dz0, H_start


def _step_hessians(potential: Potential, traj, k: int) -> np.ndarray:
    """∇²V factors at the m left nodes of step k: (B, m, d) diagonal or (B, m, d, d) dense."""
    m = traj.grid.m
    return potential.hessian(traj.x[:, k * m : (k + 1) * m], factor=True)


def tangents_mlmc(potential: Potential, traj: OverdampedTrajectory):
    """Overdamped midpoint step tangent rule: (Dψ (B, m·d, U), DX_h (B, d, U)).

    :func:`~girsanovlab.integrators.step_mlmc` run on the tangents with
    grad = ∇²V·DX at the path's points, then
    Dψ_i = √(η/2)·(∇²V(X̂_i)·DX̂_i − ∇²V(X⁺)·DX⁺).  With a fixed start the
    block is ∂ψ_i/∂ξ_j = η·[H_i·1_{j<i} − (iη·H_i·H⁺ + H⁺)·1_{j<r}]
    (H_i = ∇²V(X̂_{iη}), H⁺ = ∇²V(X⁺_k)), the 1_{j<r} band carrying the
    anticipating dependence through X⁺.  ``tangents(k, …)`` evaluates step
    k's Hessian factors itself, so one step's node factors (B, m, d), or
    (B, m, d, d) for a dense Hessian, exist at a time, never the whole path's.
    """
    m, eta = traj.grid.m, traj.grid.eta
    diag = potential.diagonal_hessian

    def tangents(k, dirs, dz0):
        H_nodes = _step_hessians(potential, traj, k)
        # x_k is cell 0's left node
        dz0, H_start = _start_tangents(dz0, H_nodes[:, 0], traj.x.shape[2], dirs)
        H = {"start": H_start, "plus": potential.hessian(traj.x_plus[:, k], factor=True)}
        DX, DX_plus = step_mlmc(
            lambda where, X: _hessian_times(H[where], X, diag), dz0, dirs[None], eta,
            int(traj.schedule.indices[k]),
        )
        HpDXp = _hessian_times(H["plus"], DX_plus, diag)
        Dpsi = np.sqrt(eta / 2.0) * (_hessian_times(H_nodes, DX[:, :m], diag) - HpDXp[:, None])
        B, U = len(Dpsi), dirs.shape[-1]
        return Dpsi.reshape(B, -1, U), np.broadcast_to(DX[:, m], (B, DX.shape[2], U))

    return tangents


def tangents_ulmc(potential: Potential, traj: UnderdampedTrajectory):
    """Frozen-gradient kinetic step tangent rule: (Dψ (B, m·d, U), Dz_h (B, 2d, U)).

    :func:`~girsanovlab.integrators.step_ulmc` run on the tangents with
    grad = ∇²V·DX at the step start, then
    Dψ_i = √(η/(2γ))·(∇²V(X̂_i)·DX̂_i − ∇²V(x_k)·DX̂_0).  With a fixed start
    the block is ∂ψ_i/∂ξ_j = η·E₂(jη, iη)·H_i·1_{j<i}: strictly lower in the
    temporal index (the scheme is adapted), so every determinant is exactly
    one.  Step k's node Hessian factors are evaluated inside
    ``tangents(k, …)``, one step at a time.
    """
    grid = traj.grid
    m = grid.m
    B, d = traj.x.shape[0], traj.x.shape[2]
    kern = StepKernels.build(traj.gamma, grid.h, m)
    coef = np.sqrt(grid.eta / (2.0 * traj.gamma))
    diag = potential.diagonal_hessian

    def tangents(k, dirs, dz0):
        H_nodes = _step_hessians(potential, traj, k)
        dz0, H_start = _start_tangents(dz0, H_nodes[:, 0], 2 * d, dirs)
        H = {"start": H_start}
        DX, DP = step_ulmc(kern, lambda where, X: _hessian_times(H[where], X, diag),
                           dz0[:, :d], dz0[:, d:], dirs[None])
        HDX = _hessian_times(H_nodes, DX[:, :m], diag)  # cell 0 is the step start
        Dpsi = coef * (HDX - HDX[:, :1])
        Dz_h = np.concatenate([DX[:, m], DP[:, m]], axis=-2)
        return Dpsi.reshape(B, m * d, -1), np.broadcast_to(Dz_h, (B, 2 * d, dirs.shape[-1]))

    return tangents


def tangents_dmulmc(potential: Potential, traj: UnderdampedTrajectory):
    """Double-midpoint step tangent rule, in drift coordinates.

    Returns (Dλ₁‖Dλ₂ (B, 2d, U), Dz_h (B, 2d, U)) along ``dirs`` (m, d, U),
    directions in step k's ξ, and the step-start tangents ``dz0`` (B, 2d, U)
    of (x₀, p₀), or None for a fixed start; Dz_h holds the tangents of the
    step end (x, p).  The tangents are the path's own
    :func:`~girsanovlab.integrators.solve_dmulmc_step` with grad = ∇²V·DX,
    fixed point included, so the implicit dependence of the multipliers is
    kept, not dropped; Dψ = U·Dλ in the basis of :func:`drift_basis_dmulmc`.
    ``tangents(k, …)`` evaluates step k's node and midpoint Hessian
    factors itself: the working set is one step's node factors, (B, m, d)
    diagonal or (B, m, d, d) dense, plus the sweep's buffers, whatever N
    is.  Those buffers are one
    :class:`~girsanovlab.integrators.DmWorkspace` per rule, which every
    step's sweeps fill in place: the two iterate buffers, (B, m+1, d, U)
    each, and the sweep's right-hand side (B, m+2, d, U), whose leading m
    cells take the ∇²V(X̂)·DX̂ product, written there by the oracle with
    ``_hessian_times(…, out=work.gradient_out(…))``: m·d·U products per
    path and sweep for a diagonal Hessian, m·d²·U for a dense one.  So the
    buffers are allocated and faulted in once per rule, not once per step;
    a rule is made per call and serves one thread.  U is the number of
    directions: the block summary passes 2d (the columns of U) on a dense
    Hessian and 2 on a diagonal one (:func:`_dmulmc_directions`), so there
    the buffers are (B, m+1, d, 2), linear in d.
    """
    if traj.lambda1 is None:
        raise ValueError("trajectory carries no interpolation multipliers")
    grid, sched = traj.grid, traj.schedule
    kern = StepKernels.build(traj.gamma, grid.h, grid.m)
    m, d = grid.m, traj.x.shape[2]
    diag = potential.diagonal_hessian
    work = DmWorkspace()

    def tangents(k, dirs, dz0):
        H_nodes = _step_hessians(potential, traj, k)
        dz0, H_start = _start_tangents(dz0, H_nodes[:, 0], 2 * d, dirs)
        H = {"start": H_start, "minus": potential.hessian(traj.x_minus[:, k], factor=True),
             "plus": potential.hessian(traj.x_plus[:, k], factor=True)}

        def grad(where, X):
            if where != "nodes":
                return _hessian_times(H[where], X, diag)
            # (B, m, …)·(B or 1, m, d, U): the product has X's trailing shape
            out = work.gradient_out((len(H_nodes), *X.shape[1:]))
            return _hessian_times(H_nodes, X, diag, out=out)

        sol = solve_dmulmc_step(
            kern, grad, dz0[:, :d], dz0[:, d:], dirs[None],
            int(sched.indices_minus[k]), int(sched.indices_plus[k]), _DERIV_TOL, work,
        )
        Dz_h = np.concatenate([sol.x_nodes[:, m], sol.p_nodes[:, m]], axis=1)
        return np.concatenate([sol.lam1, sol.lam2], axis=1), Dz_h

    return tangents


# ---------------------------------------------------------------------------
# Block summaries: what the weight needs of each diagonal block
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockSummary:
    """What the weight needs of each diagonal block, without the block.

    All fields are (B, N), per path and step k: ``sign`` of det(I + D_k) (0
    when I + D_k is singular), ``det2`` = log|det₂(I + D_k)| =
    log|det(I + D_k)| − tr(D_k), ``trace`` = tr(D_k), and ``rho``, the
    spectral radius ρ(D_k) that the invertibility rule reads: exact on every
    route but the overdamped midpoint one, where it is a power estimate
    (:func:`block_summary_mlmc`).
    """

    sign: np.ndarray
    det2: np.ndarray
    trace: np.ndarray
    rho: np.ndarray


def _log1p_minus_x(x: np.ndarray) -> np.ndarray:
    """log(1 + x) − x, without cancellation where |x| < 0.01.

    With u = x/(2 + x), log(1 + x) = 2·atanh(u) and x − 2u = x·u, so
    log(1 + x) − x = 2·(atanh(u) − u) − x·u, whose series is cut after u⁹
    (relative truncation below 1e-18 there).  Elsewhere the direct
    difference is within 2e-14 relative.
    """
    u = x / (2.0 + x)
    u2 = u * u
    series = 2.0 * u * u2 * (1 / 3 + u2 * (1 / 5 + u2 * (1 / 7 + u2 / 9))) - x * u
    return np.where(np.abs(x) < 0.01, series, np.log1p(x) - x)


def _spectral_fields(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sign of det(I + D), log|det₂(I + D)|, ρ(D)) from the eigenvalues λ (..., s) of D.

    det₂ = Σ log|1 + λ| − Re λ.  For λ = a + ib and x = |1 + λ|² − 1 =
    a·(2 + a) + b², each term is ½·[(log(1 + x) − x) + |λ|²], two O(|λ|²)
    parts each formed without cancellation, so the sum is accurate to
    O(ε·|λ|²) per term, not the O(ε) of log|det| − tr.  A conjugate pair
    contributes a positive factor |1 + λ|² to the determinant, so only real
    eigenvalues carry sign; λ = −1 gives sign 0.
    """
    a, b = lam.real, lam.imag
    sign = np.where(b == 0.0, np.sign(1.0 + a), 1.0).prod(axis=-1)
    with np.errstate(divide="ignore"):
        det2 = 0.5 * (_log1p_minus_x(a * (2.0 + a) + b * b) + a * a + b * b).sum(axis=-1)
    return sign, det2, np.abs(lam).max(axis=-1)


def block_summary_dense(blocks: MalliavinBlocks) -> BlockSummary:
    """The reference summary of dense blocks: slogdet for the sign, eigvals for det₂ and ρ.

    ``sign`` comes from slogdet(I + D_k), which is exactly zero on an exactly
    singular block; ``det2`` and ``rho`` come from the m·d eigenvalues of
    D_k (:func:`_spectral_fields`), so ``rho`` is ρ(D_k) itself: exactly 0
    on a strictly lower-triangular block, whose eigenvalues LAPACK isolates
    on the diagonal.
    """
    s = blocks.diag.shape[-1]
    sign = np.linalg.slogdet(np.eye(s) + blocks.diag)[0]
    _, det2, rho = _spectral_fields(np.linalg.eigvals(blocks.diag))
    return BlockSummary(sign, det2, np.trace(blocks.diag, axis1=-2, axis2=-1), rho)


def _mlmc_step_factors(potential: Potential, traj: OverdampedTrajectory, k: int):
    """Factors of step k's overdamped midpoint block D = L − C·Rᵀ.

    H_i and C_i = η·(iη·H_i·H⁺ + H⁺), on the band cells i < r_k only: C·Rᵀ
    is zero outside the band, and no summary reads H_i there (ρ(D) is that
    of the leading cells, and their recurrence and traces run over i < r_k).
    Both are in the potential's factor form (``hessian(x, factor=True)``):
    (B, r_k, d) for a diagonal Hessian, where C is a diagonal too, and
    (B, r_k, d, d) for a dense one.
    """
    eta, m = traj.grid.eta, traj.grid.m
    r = int(traj.schedule.indices[k])
    H = potential.hessian(traj.x[:, k * m : k * m + r], factor=True)
    Hp = potential.hessian(traj.x_plus[:, k], factor=True)
    C = _hessian_times(H, Hp[:, None], potential.diagonal_hessian)
    C *= np.expand_dims(eta * np.arange(r), tuple(range(1, C.ndim - 1)))
    C += Hp[:, None]
    C *= eta
    return H, C


def trace_square_mlmc(potential: Potential, traj: OverdampedTrajectory) -> np.ndarray:
    """tr(D²) of each overdamped midpoint block, shape (B, N), from its factors.

    With D = L − C·Rᵀ as in :func:`block_summary_mlmc`, L is strictly lower
    block-triangular, so tr(L²) = 0 and
    tr(D²) = tr((Σ_{i<r} C_i)²) − 2·tr(Σ_{j<r} η·H_j·Σ_{i<j} C_i).
    Cost O(r_k·d³) per path and step for a dense Hessian (the factor
    products), O(r_k·d²) for a diagonal one; agrees with the trace of the
    dense blocks' square to 1e-12 (tested).  The einsums read dense
    (B, r_k, d, d) matrices, so diagonal factors are expanded to them here,
    after the prefix sums.  Steps are taken one at a time: the working set
    is one step's factors, (B, 2·r_k, d, d), whatever N is.
    """
    (B, _, d), N = traj.x.shape, traj.grid.N
    diag = potential.diagonal_hessian
    out = np.empty((B, N))
    for k in range(N):
        H, C = _mlmc_step_factors(potential, traj, k)
        r = C.shape[1]
        H = _dense(H, diag)
        partial = _dense(np.cumsum(C, axis=1), diag)  # Σ_{i≤j} C_i
        banded = partial[:, -1] if r else np.zeros((B, d, d))  # Σ_{i<r} C_i
        cross = np.einsum("bjac,bjca->b", H[:, 1:r], partial[:, :-1])
        out[:, k] = np.einsum("bac,bca->b", banded, banded) - 2.0 * traj.grid.eta * cross
    return out


#: Power steps between normalisations of the M-LMC iterate.
_POWER_RENORM = 4


def _power_estimate_mlmc(H: np.ndarray, C: np.ndarray, eta: float, diagonal: bool) -> np.ndarray:
    """‖D₁₁·v₁₉‖ = ‖v₂₀‖/‖v₁₉‖ after 20 power steps on the r leading cells, (B,).

    (D₁₁·v)_i = (η·H_i)·S_i − C_i·s with S_i = Σ_{j<i} v_j, s = S_{r−1} + v_{r−1}
    and the factors H, C (B, r, …) of :func:`_mlmc_step_factors`, from v₀ =
    ones plus a linear tilt.  On the cell-major (r, B·d) iterate every S_i is
    one product with the strictly lower r × r ones matrix, then come three
    elementwise passes (a matmul each for a dense H) over contiguous η·H and
    C.  Normalised every ``_POWER_RENORM`` steps, its squared norm stays
    finite and normal while ρ and ‖D₁₁‖ lie within 1e±38; overflow reads inf.
    """
    B, r, d = H.shape[:3]
    lower = np.tri(r, r, -1)
    eta_H, C = (np.ascontiguousarray(A.swapaxes(0, 1)) for A in (eta * H, C))  # (r, B, …)
    v = np.ones(r * d) + np.linspace(0.0, 1.0, r * d)
    V = np.broadcast_to((v / np.linalg.norm(v)).reshape(r, 1, d, 1), (r, B, d, 1))
    finite, nrm = np.ones(B, dtype=bool), None
    with np.errstate(over="ignore", invalid="ignore"):  # overflow reads inf below
        for step in range(1, 21):
            S = (lower @ V.reshape(r, B * d)).reshape(r, B, d, 1)
            s = S[-1:] + V[-1:]
            V = _hessian_times(eta_H, S, diagonal, out=S)
            V -= _hessian_times(C, s, diagonal)
            if step % _POWER_RENORM == 0 or step >= 19:
                prev, nrm = nrm, np.sqrt(np.einsum("rbdk,rbdk->b", V, V))
                finite &= np.isfinite(nrm)
                if step < 19:
                    V /= np.where(nrm > 0.0, nrm, 1.0)[:, None, None]
    rho = np.divide(nrm, prev, out=np.zeros(B), where=prev > 0.0)
    return np.where(finite, rho, np.inf)


def block_summary_mlmc(potential: Potential, traj: OverdampedTrajectory) -> BlockSummary:
    """Overdamped midpoint blocks D = L − C·Rᵀ summarised from their factors.

    L[i,j] = η·H_i·1_{j<i}, C_i = η·(iη·H_i·H⁺ + H⁺), R = 1_{j<r} ⊗ I_d.  The
    recurrence Y_i = C_i − η·H_i·Σ_{j<i} Y_j solves (I + L)·Y = C, so with
    Ŷ = Σ_{i<r} Y_i and Ĉ = Σ_{i<r} C_i, det(I + D) = det(I_d − Ŷ),
    tr D = −tr Ĉ and

        det₂ = Σ_{μ ∈ eig Ŷ} [log|1 − μ| + μ] + tr(Ĉ − Ŷ),

    with tr(Ĉ − Ŷ) = η·Σ_{i<r} tr(H_i·Σ_{j<i} Y_j) summed inside the
    recurrence, so neither O(h²) term is a difference of O(h) numbers.  No
    cell j ≥ r reaches a cell i < r, so D is block lower-triangular across
    the midpoint cell with a nilpotent trailing block, and ρ(D) = ρ(D₁₁) on
    the r·d leading cells.  ``rho`` is ‖D₁₁·v₁₉‖ after 20 normalised power
    steps from ones plus a linear tilt, through
    (D₁₁·v)_i = η·H_i·Σ_{j<i} v_j − C_i·Σ_{j<r} v_j: an estimate of ρ, not
    a bound (:func:`_power_estimate_mlmc`).  It applies D₁₁ through the
    step's own factors η·H and C, made cell-major and contiguous once per
    step.  Its iterate is cell-major, (r, B·d), so each power step costs one
    r × r by r × (B·d) product for every exclusive prefix Σ_{j<i} v_j, three
    elementwise passes of r·B·d (η·H_i·S_i, C_i·Σ_{j<r} v_j and their
    difference), and a norm every four steps, with no reduction along the
    cell axis; a dense Hessian makes the two factor products r·B·d² each,
    one batched matmul each.  At r = 0 (EM-LD) every field but the sign is
    exactly zero.
    The factors stay in the potential's form (:func:`_mlmc_step_factors`):
    for a diagonal Hessian every Y_i is diagonal, so the recurrence costs
    O(r·d) per path and step, against O(r·d³) for a dense one, instead of
    O((m·d)³) for the block.  tr D keeps the summation order of an einsum
    over the dense diagonal of C, so a diagonal C is expanded to
    (B, r_k, d, d) for it.  Steps are summarised one at a time, so the
    working set is one step's factors, (B, 2·r_k, d) plus that expansion or
    (B, 2·r_k, d, d), whatever N is.
    """
    N, eta = traj.grid.N, traj.grid.eta
    B = traj.x.shape[0]
    diag = potential.diagonal_hessian
    sign, det2, trace, rho = (np.zeros((B, N)) for _ in range(4))
    for k in range(N):
        H, C = _mlmc_step_factors(potential, traj, k)
        r = C.shape[1]
        prefix = np.zeros((B, *C.shape[2:]))  # Σ_{j<i} Y_j, and Ŷ once i = r
        excess = np.zeros(B)  # tr(Ĉ − Ŷ)
        for i in range(r):
            HY = _hessian_times(H[:, i], prefix, diag)
            excess += (HY if diag else np.diagonal(HY, axis1=-2, axis2=-1)).sum(axis=-1)
            prefix = prefix + (C[:, i] - eta * HY)
        # a diagonal Ŷ's eigenvalues are its entries, in the order LAPACK gives them
        lam = -prefix if diag else np.linalg.eigvals(-prefix)
        sign[:, k], core, _ = _spectral_fields(lam)
        det2[:, k] = core + eta * excess
        # a sum over the compact diagonal, in its own order, moves tr D by an ulp
        trace[:, k] = -np.einsum("biaa->b", _dense(C, diag))
        if r == 0:
            continue
        rho[:, k] = _power_estimate_mlmc(H, C, eta, diag)
    return BlockSummary(sign, det2, trace, rho)


def block_summary_ulmc(potential: Potential, traj: UnderdampedTrajectory) -> BlockSummary:
    """Frozen-gradient kinetic blocks η·E₂(jη, iη)·H_i·1_{j<i}, summarised.

    Strictly lower triangular, hence nilpotent: det(I + D) = 1 and
    det₂ = tr D = ρ(D) = 0 exactly, whatever the Hessians.  So no Hessian,
    kernel table or product is evaluated; ``potential`` is unused.
    """
    shape = (traj.x.shape[0], traj.grid.N)
    return BlockSummary(np.ones(shape), np.zeros(shape), np.zeros(shape), np.zeros(shape))


def _dmulmc_directions(traj: UnderdampedTrajectory, diagonal: bool) -> np.ndarray:
    """The noise directions of the DM-ULMC core, the columns of U.

    All 2d of them, (m, d, 2d), for a dense Hessian.  For a diagonal one
    the tangent system does not couple coordinates, so column (a, i) of U
    moves only coordinate i, and one direction per kernel,
    ``dirs[:, i, a] = √(η/(2γ))·e_a`` for every i, (m, d, 2), carries all d
    of its columns at once: coordinate i of its tangent is column (a, i)'s.
    """
    m, d = traj.grid.m, traj.x.shape[2]
    U = drift_basis_dmulmc(traj)[0].reshape(m, d, 2, d)
    if not diagonal:
        return U.reshape(m, d, 2 * d)
    return np.ascontiguousarray(np.diagonal(U, axis1=1, axis2=3).swapaxes(1, 2))


def _core_spectrum(WtU: np.ndarray, diagonal: bool) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (B, 2d) and trace (B,) of one step's core Wᵀ·U.

    A dense core (B, 2d, 2d) goes to ``eigvals``.  The compact tangents of a
    diagonal Hessian (B, 2d, 2), row (a, i) and direction b, are d
    independent 2 × 2 cores [[p, q], [r, s]], one per coordinate i, whose
    eigenvalues are (p + s)/2 ± √(((p − s)/2)² + q·r): a real pair with
    imaginary part exactly 0 when the discriminant is ≥ 0, else a conjugate
    pair.  The discriminant is not formed as t² − det, which cancels at a
    near-double eigenvalue.  The trace is the sum of the cores' p + s.
    """
    if not diagonal:
        return np.linalg.eigvals(WtU), np.trace(WtU, axis1=-2, axis2=-1)
    B, d = WtU.shape[0], WtU.shape[1] // 2
    p, q, r, s = WtU[:, :d, 0], WtU[:, :d, 1], WtU[:, d:, 0], WtU[:, d:, 1]
    half = 0.5 * (p + s)
    disc = (0.5 * (p - s)) ** 2 + q * r
    root = np.sqrt(np.abs(disc))
    real = disc >= 0.0
    plus_minus = np.array([[1.0], [-1.0]])
    lam = np.empty((B, 2, d), dtype=complex)
    lam.real = half[:, None] + plus_minus * np.where(real, root, 0.0)[:, None]
    lam.imag = plus_minus * np.where(real, 0.0, root)[:, None]
    return lam.reshape(B, 2 * d), (p + s).sum(axis=-1)


def block_summary_dmulmc(potential: Potential, traj: UnderdampedTrajectory) -> BlockSummary:
    """Double-midpoint blocks D = U·Wᵀ summarised from their 2d × 2d core Wᵀ·U.

    U = √(η/(2γ))·[e₁ ⊗ I_d, e₂ ⊗ I_d] and Wᵀ = ∂(λ₁, λ₂)/∂ξ.  The derivative
    fixed point runs on the columns of U as noise directions, giving
    Wᵀ·U, whose eigenvalues are the nonzero eigenvalues of D.  So
    det₂ = Σ log|1 + λ| − λ over them (:func:`_spectral_fields`), with the
    sign of det(I + D), ρ(D) = max|λ| exactly, and tr D = tr(Wᵀ·U).

    The core's form follows the Hessian's (:func:`_dmulmc_directions`,
    :func:`_core_spectrum`).  A dense Hessian runs the fixed point on all 2d
    columns, m·d²·2d products per path and sweep, and takes ``eigvals`` of
    the (B, 2d, 2d) core, O(d³) per step.  A diagonal one couples no
    coordinates, so Wᵀ·U is d independent 2 × 2 cores: the fixed point runs
    on 2 directions, m·d·2 products per path and sweep, and each core's
    eigenvalues come in closed form, O(d) per step.  Both forms feed their
    2d eigenvalues to the one :func:`_spectral_fields`.  Steps are
    summarised one at a time, and :func:`tangents_dmulmc` evaluates each
    step's Hessian factors itself: the working set is one step's factors,
    (B, m, d) diagonal or (B, m, d, d) dense, and the fixed point's
    (B, m+1, d, 2) or (B, m+1, d, 2d) buffers, whatever N is.
    One rule serves every step, so its buffers are made once per call.
    """
    tangents = tangents_dmulmc(potential, traj)
    diag = potential.diagonal_hessian
    dirs = _dmulmc_directions(traj, diag)
    B, N = traj.x.shape[0], traj.grid.N
    sign, det2, trace, rho = (np.empty((B, N)) for _ in range(4))
    for k in range(N):
        lam, trace[:, k] = _core_spectrum(tangents(k, dirs, None)[0], diag)
        sign[:, k], det2[:, k], rho[:, k] = _spectral_fields(lam)
    return BlockSummary(sign, det2, trace, rho)


def carleman_fredholm_logdet(summary: BlockSummary) -> tuple[np.ndarray, np.ndarray]:
    """Σ_k log|det₂(I + D_k)| per path, the sum of the block summaries' ``det2``.

    The full derivative is block lower-triangular, so diagonal blocks carry
    the whole determinant.  Returns (value, negative_det): an exactly singular
    block (sign 0) yields −inf; ``negative_det`` marks paths where some block
    determinant is negative (anomaly under the scheme step bounds).
    """
    sign = summary.sign
    value = np.where(sign == 0.0, -np.inf, summary.det2).sum(axis=-1)
    return value, np.any(sign < 0.0, axis=-1)


def summary_log_weight(psi: np.ndarray, summary: BlockSummary, xi: np.ndarray) -> LogWeight:
    """log M = log_cf_det − δψ − energy: the one weight assembly, for any summary.

    ``psi`` (B, N·m, d) is a scheme's drift (``Scheme.drift``), and
    energy = ½Σ_i‖ψ_i‖².  δψ = Σ_i⟨ψ_i, ξ_i⟩ − Σ_k tr(D_k), mean zero under
    the sampling law.  The summary may be :func:`block_summary_dense` or a
    structured one.
    """
    ito = np.einsum("bid,bid->b", psi, np.asarray(xi, dtype=float))
    return _summary_weight(summary, ito, 0.5 * np.sum(psi**2, axis=(-2, -1)))


def _summary_weight(summary: BlockSummary, ito: np.ndarray, energy: np.ndarray) -> LogWeight:
    """The weight of every route from Σ⟨ψ_i, ξ_i⟩, ½Σ‖ψ_i‖² and the block summaries."""
    return _totals_weight(_summary_totals(summary), ito, energy)


def _summary_totals(summary: BlockSummary) -> tuple[np.ndarray, ...]:
    """Per path: (Σ_k log|det₂(I + D_k)|, some det(I + D_k) < 0, max_k ρ(D_k), Σ_k tr D_k)."""
    log_cf, negative = carleman_fredholm_logdet(summary)
    return log_cf, negative, summary.rho.max(axis=-1), summary.trace.sum(axis=-1)


def _totals_weight(totals, ito: np.ndarray, energy: np.ndarray) -> LogWeight:
    """The weight from :func:`_summary_totals`, repeated over the paths of ``ito``.

    Totals of one row serve a batch whose paths share their blocks (the
    affine route): each path's totals are the same reductions of the same
    values, so repeating them changes no bit.
    """
    n = np.shape(ito)[0]
    log_cf, negative, rho, trace = (t if t.shape[0] == n else t.repeat(n) for t in totals)
    return LogWeight(
        log_cf_det=log_cf,
        skorohod=ito - trace,
        energy=energy,
        spectral_radius=rho,
        invertible=(rho < SPECTRAL_RADIUS_LIMIT) & np.isfinite(log_cf),
        negative_det=negative,
    )


# ---------------------------------------------------------------------------
# Trace diagnostics (overdamped midpoint)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceDiagnostics:
    """Discrete traces of the anticipating block structure and their limits.

    Per path and step, for A = √2·η·∇²V(X̂_i)·1_{j<i} and the rank-one band
    B = √2·η·∇²V(X⁺)·1_{j<r}, both restricted to the leading r×r sub-block:

    * ``tr_a2`` = tr(A²) — exactly zero (strictly lower triangular);
    * ``tr_ba`` = tr(B·A), with limit ``limit_ba`` = 2∫₀^τ t·tr(∇²V(X⁺)∇²V(X_t))dt
      (trapezoid on the trajectory's own nodes);
    * ``tr_b2`` = tr(B²), with limit ``limit_b2`` = 2τ²·tr((∇²V(X⁺))²).
    """

    tr_a2: np.ndarray
    tr_ba: np.ndarray
    tr_b2: np.ndarray
    limit_ba: np.ndarray
    limit_b2: np.ndarray


def trace_diagnostics_mlmc(
    potential: Potential, traj: OverdampedTrajectory
) -> TraceDiagnostics:
    """Compute the discrete block traces and their refinement limits.

    All arrays are (B, N).  Traces are evaluated from the assembled matrices,
    not from closed forms, so they test the block structure itself, and
    their einsums read dense Hessians (``Potential.hessian``), whatever the
    potential's factor form.  Step k's H⁺ and its Hessians at the r_k + 1
    nodes 0..r_k that the traces and the trapezoid read are evaluated inside
    the step loop, none when r_k = 0, so one step's (B, r_k + 1, d, d)
    Hessians exist at a time, never the whole path's.
    """
    grid = traj.grid
    N, m, eta = grid.N, grid.m, grid.eta
    B, d = traj.x.shape[0], traj.x.shape[2]
    root2eta = np.sqrt(2.0) * eta

    tr_a2 = np.zeros((B, N))
    tr_ba = np.zeros((B, N))
    tr_b2 = np.zeros((B, N))
    limit_ba = np.zeros((B, N))
    limit_b2 = np.zeros((B, N))
    lower = np.tri(m, m, -1)
    for k in range(N):
        r = int(traj.schedule.indices[k])
        tau = r * eta
        Hp = potential.hessian(traj.x_plus[:, k])
        limit_b2[:, k] = 2.0 * tau**2 * np.einsum("bac,bca->b", Hp, Hp)
        if r == 0:
            continue
        H_nodes = potential.hessian(traj.x[:, k * m : k * m + r + 1])  # nodes 0..r
        Hi = H_nodes[:, :r]  # (B, r, d, d)
        A = root2eta * np.einsum("ij,biac->biajc", lower[:r, :r], Hi).reshape(
            B, r * d, r * d
        )
        Bmat = root2eta * np.broadcast_to(
            Hp[:, None, :, None, :], (B, r, d, r, d)
        ).reshape(B, r * d, r * d)
        tr_a2[:, k] = np.einsum("bij,bji->b", A, A)
        tr_ba[:, k] = np.einsum("bij,bji->b", Bmat, A)
        tr_b2[:, k] = np.einsum("bij,bji->b", Bmat, Bmat)
        # trapezoid of f(t) = 2t·tr(∇²V(X⁺)∇²V(X_t)) on nodes 0..r, τ's included
        f = 2.0 * (eta * np.arange(r + 1)) * np.einsum("bac,bica->bi", Hp, H_nodes)
        limit_ba[:, k] = np.trapezoid(f, dx=eta, axis=-1)
    return TraceDiagnostics(tr_a2, tr_ba, tr_b2, limit_ba, limit_b2)
