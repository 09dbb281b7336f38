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

Derivative structure: each scheme has one tangent rule (``tangents_*``,
``Scheme.tangents``), the derivative of step k's drift coordinates and end
state along directions in its own increments plus a step-start tangent.  The
rule writes no step equation: it runs the scheme's own step function from
:mod:`girsanovlab.integrators` on the tangents with ∇V(X) replaced by
∇²V(X)·DX at the path's points (the step recursion linearised), then
differentiates the drift.  Its three consumers are the dense derivative, one
forward sweep of the tangents that carries each step's end tangent into the
next; the DM-ULMC summary; and the affine step maps, its value on one zero
path per step.  A step's tangent never sees later increments, so every block
above the step diagonal is zero: the derivative is block lower-triangular,
det(I + Dψ) = Π_k det(I + D_k), and only diagonal blocks carry trace.

Structured evaluation.  The weight needs only sign and log|det(I + D_k)|,
tr D_k and a power-iterate norm per block, and each scheme's block has a
low-rank anticipating part that yields all three from its factors
(:class:`BlockSummary`), never forming the dense (m·d)×(m·d) block:

* overdamped midpoint: D = L − C·Rᵀ with L[i,j] = η·H_i·1_{j<i},
  C_i = η·(iη·H_i·H⁺ + H⁺) and R = 1_{j<r} ⊗ I_d.  I + L is unit lower
  block-triangular, so by the matrix determinant lemma
  det(I + D) = det(I_d − Σ_{j<r} Y_j), where (I + L)·Y = C is the recurrence
  Y_i = C_i − η·H_i·Σ_{j<i} Y_j, and tr D = −η·Σ_{i<r} tr(iη·H_i·H⁺ + H⁺).
  The same factors give tr(D²) (:func:`trace_square_mlmc`), which the
  determinant-linearization check compares with log det₂;
* frozen-gradient kinetic: D is strictly lower triangular (nilpotent), so
  det(I + D) = 1 and tr D = 0 exactly;
* double-midpoint kinetic: D = U·Wᵀ with U = √(η/(2γ))·[e₁ ⊗ I_d, e₂ ⊗ I_d]
  (left-endpoint kernels, :func:`drift_basis_dmulmc`; the affine step maps
  store the drift in this basis too) and Wᵀ = ∂(λ₁, λ₂)/∂ξ, so
  det(I + D) = det(I_{2d} + Wᵀ·U) and tr D = tr(Wᵀ·U).  Wᵀ comes from the
  path's own step solver (:func:`~girsanovlab.integrators.solve_dmulmc_step`
  with grad = ∇²V·DX), run on the 2d columns of U plus the power-iteration
  start vector instead of on all m·d noise coordinates as the dense block is.

The power iterate is the same 20 normalised steps from the same start vector
as on the dense block, through an O(m·d²) matrix-vector product (overdamped,
frozen-gradient) or inside the range of U (double midpoint).  The overdamped
and double-midpoint summaries and the tangent rules evaluate ∇²V one step at
a time, so their working set is one step's (B, m, d, d) Hessians and
factors whatever N is.  Both weight
routes use these evaluators: the generic route per path, the affine route
once per distinct step on a zero path.  The dense blocks serve the
finite-difference checks and trace diagnostics, and their summary
:func:`block_summary_dense` (LU determinant, dense power iterate) is the
reference that block dumps and the tests use.
Every summary, structured or dense, becomes a weight through the one assembly
:func:`summary_log_weight`, where the invertibility rule is written.

All functions are batched with a leading path axis and are pure; nothing is
shared across paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .integrators import (
    OverdampedTrajectory,
    UnderdampedTrajectory,
    solve_dmulmc_step,
    step_mlmc,
    step_ulmc,
)
from .kernels import StepKernels
from .potentials import Potential

__all__ = [
    "DriftRealization",
    "MalliavinBlocks",
    "LogWeight",
    "TraceDiagnostics",
    "drift_mlmc",
    "drift_ulmc",
    "drift_dmulmc",
    "drift_basis_dmulmc",
    "malliavin_blocks_mlmc",
    "malliavin_blocks_ulmc",
    "malliavin_blocks_dmulmc",
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
_POWER_ITERATIONS = 20
#: Stop of the double-midpoint tangent sweeps, finer than the path's 1e-12
#: (``integrators.FIXED_POINT_TOL``).  Path nodes are O(1), so 1e-12 is
#: already a relative accuracy there.  Tangent columns are small: a unit ξ
#: entry moves the nodes by O(h·√η), and the columns of U and the spread
#: power start vector by less, so the same absolute stop would resolve Dλ
#: coarsely.  The sweeps are linear and contract like the path's; the finer
#: stop costs about one sweep more (5 → 6 at h = 1/4, m = 16, d = 8).
_DERIV_TOL = 1e-14


@dataclass(frozen=True)
class DriftRealization:
    """Per-cell elementary drift differences ψ with their energy.

    ``psi`` has shape (B, N·m, d); ``energy`` = ½Σ_i‖ψ_i‖² per path.
    """

    scheme: str
    psi: np.ndarray
    energy: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "energy", 0.5 * np.sum(self.psi**2, axis=(-2, -1)))


@dataclass(frozen=True)
class MalliavinBlocks:
    """Per-step derivative blocks ∂ψ_i/∂ξ_j.

    ``diag`` has shape (B, N, m·d, m·d): diagonal (within-step) blocks in cell
    ordering, each d×d spatial entry flattened in place.  ``full``, when
    assembled, is the complete (B, N·m·d, N·m·d) derivative from one forward
    tangent sweep over the horizon: block lower-triangular, with ``diag`` on
    its diagonal and exact zeros above it.
    """

    scheme: str
    diag: np.ndarray
    full: np.ndarray | None = None


@dataclass(frozen=True)
class LogWeight:
    """Pieces of the pathwise log Radon–Nikodym weight, per path.

    ``log_weight = log_cf_det − skorohod − energy``.  ``invertible``: the
    largest per-step power norm is below 0.9 and det₂ is finite; estimators
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


def drift_mlmc(potential: Potential, traj: OverdampedTrajectory) -> DriftRealization:
    """ψ_i = √(η/2)·(∇V(X̂_{iη}) − ∇V(X⁺_k)) on each cell of each step."""
    grid = traj.grid
    left = _left_nodes(traj.x, grid.N, grid.m)
    g_nodes = potential.gradient(left)
    g_plus = potential.gradient(traj.x_plus)
    psi = np.sqrt(grid.eta / 2.0) * (g_nodes - g_plus[:, :, None, :])
    return DriftRealization("mlmc", psi.reshape(psi.shape[0], grid.n_cells, -1))


def drift_ulmc(potential: Potential, traj: UnderdampedTrajectory) -> DriftRealization:
    """ψ_i = √(η/(2γ))·(∇V(X̂_{iη}) − ∇V(x_{kh})) for the frozen-gradient scheme."""
    grid = traj.grid
    left = _left_nodes(traj.x, grid.N, grid.m)
    g_nodes = potential.gradient(left)
    g_start = g_nodes[:, :, :1]  # cell 0 of each step sits at the step start
    psi = np.sqrt(grid.eta / (2.0 * traj.gamma)) * (g_nodes - g_start)
    return DriftRealization("ulmc", psi.reshape(psi.shape[0], grid.n_cells, -1))


def drift_dmulmc(traj: UnderdampedTrajectory) -> DriftRealization:
    """ψ_i = √(η/(2γ))·(E₁(iη,h)λ_{k,1} + E₂(iη,h)λ_{k,2}) per cell.

    The multipliers must come from a solved interpolation (the trajectory's
    ``lambda1``/``lambda2`` fields).
    """
    if traj.schedule is None:
        raise ValueError("trajectory carries no interpolation multipliers")
    grid = traj.grid
    kern = StepKernels.build(traj.gamma, grid.h, grid.m)
    # (B, N, m, d) = e-kernels (m,) × multipliers (B, N, d)
    comb = (
        kern.e1_left[:, None] * traj.lambda1[:, :, None, :]
        + kern.e2_left[:, None] * traj.lambda2[:, :, None, :]
    )
    psi = np.sqrt(grid.eta / (2.0 * traj.gamma)) * comb
    return DriftRealization("dmulmc", psi.reshape(psi.shape[0], grid.n_cells, -1))


def drift_basis_dmulmc(traj: UnderdampedTrajectory) -> tuple[np.ndarray, np.ndarray]:
    """U (m·d, 2d) with ψ = U·(λ₁, λ₂) per step, and its Gram matrix UᵀU.

    U = √(η/(2γ))·[e₁ ⊗ I_d, e₂ ⊗ I_d] on the left-endpoint kernels, so
    UᵀU = σ̂/(2γ) ⊗ I_d with σ̂ the kernels' discrete Gram coefficients.
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


def _derivative_blocks(
    scheme: str, traj: OverdampedTrajectory | UnderdampedTrajectory, tangents,
    include_offdiag: bool, basis: np.ndarray | None = None,
) -> MalliavinBlocks:
    """The dense derivative from a scheme's step tangent rule.

    ``tangents(k, dirs, dz0)`` returns (Dc (B, r, U), Dz_h (B, z, U)), the
    tangents of step k's drift coordinates and of its end state (z = d or 2d
    coordinates) along the increment directions ``dirs`` (m, d, U) in its own
    ξ plus the step-start tangents ``dz0`` (B, z, U), or None for a fixed
    start.  ``basis`` U (m·d, r) maps them to Dψ = U·Dc; None is the identity
    basis (Dc = Dψ).  The diagonal blocks take every ξ entry of each step with
    a fixed start; the full derivative is one forward sweep along all N·m·d
    entries that carries Dz_h into the next step.
    """
    N, m, (B, _, d) = traj.grid.N, traj.grid.m, traj.x.shape
    md = m * d
    diag = np.empty((B, N, md, md))
    if not include_offdiag:
        increments = np.eye(md).reshape(m, d, md)  # every ξ_j entry
        for k in range(N):
            Dc = tangents(k, increments, None)[0]
            diag[:, k] = Dc if basis is None else basis @ Dc
        return MalliavinBlocks(scheme, diag)
    s = N * md
    entries = np.eye(s).reshape(N, m, d, s)
    full = np.empty((B, s, s))
    dz = None
    for k in range(N):
        Dc, dz = tangents(k, entries[k], dz)
        rows = slice(k * md, (k + 1) * md)
        full[:, rows] = Dc if basis is None else basis @ Dc
        diag[:, k] = full[:, rows, rows]
    return MalliavinBlocks(scheme, diag, full)


def _start_tangents(dz0, H_start: np.ndarray, z: int, dirs: np.ndarray):
    """(dz0, H_start), or (1, z, U) and (1, d, d) zeros for a fixed start (None).

    The zero Hessian keeps a fixed start unbatched: no (B, …) array forms
    before the step's own Hessians act.
    """
    if dz0 is None:
        d = H_start.shape[-1]
        return np.zeros((1, z, dirs.shape[-1])), np.zeros((1, d, d))
    return dz0, H_start


def _step_hessians(potential: Potential, traj, k: int) -> np.ndarray:
    """∇²V at the m left nodes of step k, (B, m, d, d): one step's node Hessians."""
    m = traj.grid.m
    return potential.hessian(traj.x[:, k * m : (k + 1) * m])


def tangents_mlmc(potential: Potential, traj: OverdampedTrajectory):
    """Step tangent rule of :func:`malliavin_blocks_mlmc`: (Dψ (B, m·d, U), DX_h (B, d, U)).

    :func:`~girsanovlab.integrators.step_mlmc` run on the tangents with
    grad = ∇²V·DX at the path's points, then
    Dψ_i = √(η/2)·(∇²V(X̂_i)·DX̂_i − ∇²V(X⁺)·DX⁺).  ``tangents(k, …)``
    evaluates step k's Hessians itself, so one step's (B, m, d, d) node
    Hessians exist at a time, never the whole path's.
    """
    m, eta = traj.grid.m, traj.grid.eta

    def tangents(k, dirs, dz0):
        H_nodes = _step_hessians(potential, traj, k)
        # x_k is cell 0's left node
        dz0, H_start = _start_tangents(dz0, H_nodes[:, 0], traj.x.shape[2], dirs)
        H = {"start": H_start, "plus": potential.hessian(traj.x_plus[:, k])}
        DX, DX_plus = step_mlmc(
            lambda where, X: H[where] @ X, dz0, dirs[None], eta, int(traj.schedule.indices[k])
        )
        HpDXp = H["plus"] @ DX_plus
        Dpsi = np.sqrt(eta / 2.0) * (H_nodes @ DX[:, :m] - HpDXp[:, None])
        B, U = len(Dpsi), dirs.shape[-1]
        return Dpsi.reshape(B, -1, U), np.broadcast_to(DX[:, m], (B, DX.shape[2], U))

    return tangents


def malliavin_blocks_mlmc(
    potential: Potential,
    traj: OverdampedTrajectory,
    include_offdiag: bool = False,
) -> MalliavinBlocks:
    """Exact derivative blocks of the overdamped midpoint drift.

    With a fixed start the block is ∂ψ_i/∂ξ_j = η·[H_i·1_{j<i} −
    (iη·H_i·H⁺ + H⁺)·1_{j<r}] (H_i = ∇²V(X̂_{iη}), H⁺ = ∇²V(X⁺_k)), the
    1_{j<r} band carrying the anticipating dependence through X⁺.
    """
    return _derivative_blocks("mlmc", traj, tangents_mlmc(potential, traj), include_offdiag)


def tangents_ulmc(potential: Potential, traj: UnderdampedTrajectory):
    """Step tangent rule of :func:`malliavin_blocks_ulmc`: (Dψ (B, m·d, U), Dz_h (B, 2d, U)).

    :func:`~girsanovlab.integrators.step_ulmc` run on the tangents with
    grad = ∇²V·DX at the step start, then
    Dψ_i = √(η/(2γ))·(∇²V(X̂_i)·DX̂_i − ∇²V(x_k)·DX̂_0).  Step k's node
    Hessians are evaluated inside ``tangents(k, …)``, one step at a time.
    """
    grid = traj.grid
    m = grid.m
    B, d = traj.x.shape[0], traj.x.shape[2]
    kern = StepKernels.build(traj.gamma, grid.h, m)
    coef = np.sqrt(grid.eta / (2.0 * traj.gamma))

    def tangents(k, dirs, dz0):
        H_nodes = _step_hessians(potential, traj, k)
        dz0, H_start = _start_tangents(dz0, H_nodes[:, 0], 2 * d, dirs)
        H = {"start": H_start}
        DX, DP = step_ulmc(kern, lambda where, X: H[where] @ X, dz0[:, :d], dz0[:, d:], dirs[None])
        HDX = H_nodes @ DX[:, :m]  # cell 0 is the step start
        Dpsi = coef * (HDX - HDX[:, :1])
        Dz_h = np.concatenate([DX[:, m], DP[:, m]], axis=-2)
        return Dpsi.reshape(B, m * d, -1), np.broadcast_to(Dz_h, (B, 2 * d, dirs.shape[-1]))

    return tangents


def malliavin_blocks_ulmc(
    potential: Potential,
    traj: UnderdampedTrajectory,
    include_offdiag: bool = False,
) -> MalliavinBlocks:
    """Derivative blocks of the frozen-gradient kinetic drift.

    With a fixed start ∂ψ_i/∂ξ_j = η·E₂(jη, iη)·H_i·1_{j<i}
    (H_i = ∇²V(X̂_{iη})): strictly lower in the temporal index (the scheme is
    adapted), so every determinant is exactly one.
    """
    return _derivative_blocks("ulmc", traj, tangents_ulmc(potential, traj), include_offdiag)


def tangents_dmulmc(potential: Potential, traj: UnderdampedTrajectory):
    """Step tangent rule of :func:`malliavin_blocks_dmulmc` in drift coordinates.

    Returns (Dλ₁‖Dλ₂ (B, 2d, U), Dz_h (B, 2d, U)) along ``dirs`` (m, d, U),
    directions in step k's ξ, and the step-start tangents ``dz0`` (B, 2d, U)
    of (x₀, p₀), or None for a fixed start; Dz_h holds the tangents of the
    step end (x, p).  The tangents are the path's own
    :func:`~girsanovlab.integrators.solve_dmulmc_step` with grad = ∇²V·DX,
    fixed point included, so the implicit dependence of the multipliers is
    kept.  ``tangents(k, …)`` evaluates step k's node and midpoint Hessians
    itself: the working set is one step's (B, m, d, d) Hessians plus the
    sweep's buffers, whatever N is.
    """
    if traj.schedule is None:
        raise ValueError("trajectory carries no interpolation multipliers")
    grid, sched = traj.grid, traj.schedule
    kern = StepKernels.build(traj.gamma, grid.h, grid.m)
    m, d = grid.m, traj.x.shape[2]

    def tangents(k, dirs, dz0):
        H_nodes = _step_hessians(potential, traj, k)
        dz0, H_start = _start_tangents(dz0, H_nodes[:, 0], 2 * d, dirs)
        H = {"start": H_start, "minus": potential.hessian(traj.x_minus[:, k]),
             "plus": potential.hessian(traj.x_plus[:, k]), "nodes": H_nodes}
        sol = solve_dmulmc_step(
            kern, lambda where, X: H[where] @ X, dz0[:, :d], dz0[:, d:], dirs[None],
            int(sched.indices_minus[k]), int(sched.indices_plus[k]), _DERIV_TOL,
        )
        Dz_h = np.concatenate([sol.x_nodes[:, m], sol.p_nodes[:, m]], axis=1)
        return np.concatenate([sol.lam1, sol.lam2], axis=1), Dz_h

    return tangents


def malliavin_blocks_dmulmc(
    potential: Potential,
    traj: UnderdampedTrajectory,
    include_offdiag: bool = False,
) -> MalliavinBlocks:
    """Derivative blocks of the double-midpoint drift.

    ψ_i is temporally rank-two in (λ₁, λ₂), so step k's tangent is
    Dψ_i = √(η/(2γ))·(E₁(iη,h)·Dλ₁ + E₂(iη,h)·Dλ₂) with the multiplier
    tangents from the exact linear fixed point of :func:`tangents_dmulmc` (the
    implicit dependence of the optimal drift is kept, not dropped).
    """
    return _derivative_blocks(
        "dmulmc", traj, tangents_dmulmc(potential, traj), include_offdiag,
        drift_basis_dmulmc(traj)[0],
    )


# ---------------------------------------------------------------------------
# Block summaries: what the weight needs of each diagonal block
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockSummary:
    """What the weight needs of each diagonal block, without the block.

    All fields are (B, N), per path and step k: ``sign`` and ``logabs`` of
    det(I + D_k), ``trace`` = tr(D_k), and ``power_norm``, the value
    :func:`block_summary_dense` reads on the dense D_k (same start vector,
    same number of steps).
    """

    sign: np.ndarray
    logabs: np.ndarray
    trace: np.ndarray
    power_norm: np.ndarray


def _power_start(s: int) -> np.ndarray:
    """Deterministic unit start vector of the power iterate: ones plus a tilt."""
    v = np.ones(s) + np.linspace(0.0, 1.0, s)
    return v / np.linalg.norm(v)


def _power_norms(matvec, batch: tuple, s: int) -> np.ndarray:
    """‖D·v_{n−1}‖ after n = 20 normalised power steps v_{t+1} = D·v_t/‖D·v_t‖.

    ``matvec(v, out)`` writes the products of the (*batch, s) vectors ``v``
    into ``out`` of the same shape; every block starts from
    :func:`_power_start`, and a zero product keeps the previous vector.  The
    iterate, the product and the squares of the norm are three buffers,
    reused by every step.
    """
    v = np.broadcast_to(_power_start(s), (*batch, s)).copy()
    w = np.empty_like(v)
    sq = np.empty_like(v)
    for _ in range(_POWER_ITERATIONS):
        matvec(v, w)
        # np.linalg.norm's own sum, without its temporary
        nrm = np.sqrt(np.square(w, out=sq).sum(axis=-1))
        np.divide(w, nrm[..., None], out=v, where=nrm[..., None] > 0.0)
    return nrm


def block_summary_dense(blocks: MalliavinBlocks) -> BlockSummary:
    """The reference summary of dense blocks: slogdet(I + D_k), tr D_k, power iterate.

    ``power_norm`` is ‖D_k·v_{n−1}‖ after n = 20 normalised power steps
    v_{t+1} = D_k·v_t/‖D_k·v_t‖ from the fixed start vector v₀ (ones plus a
    linear tilt, so results are reproducible).  When D_k has a single
    dominant eigenvalue this tends to ρ(D_k); it is not a bound on ρ, and it
    is not ρ in general.  A nilpotent block (ρ = 0) reads small but positive
    until n reaches its nilpotency index: a frozen-gradient kinetic block,
    strictly lower triangular in m cells, reads of order 1e-5 at m = 24.
    """
    B, N, s, _ = blocks.diag.shape
    sign, logabs = np.linalg.slogdet(np.eye(s) + blocks.diag)
    trace = np.trace(blocks.diag, axis1=-2, axis2=-1)
    rho = _power_norms(
        lambda v, out: np.einsum("bnij,bnj->bni", blocks.diag, v, out=out), (B, N), s
    )
    return BlockSummary(sign, logabs, trace, rho)


def _batched_matvec(H: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(..., d, d) @ (..., d) → (..., d)."""
    return (H @ v[..., None])[..., 0]


def _mlmc_step_factors(potential: Potential, traj: OverdampedTrajectory, k: int):
    """Factors of step k's overdamped midpoint block D = L − C·Rᵀ.

    H_i (B, m, d, d), H⁺ (B, d, d) and C_i = η·(iη·H_i·H⁺ + H⁺) on the band
    cells i < r_k only, (B, r_k, d, d): C·Rᵀ is zero outside the band.
    """
    eta = traj.grid.eta
    r = int(traj.schedule.indices[k])
    H = _step_hessians(potential, traj, k)
    Hp = potential.hessian(traj.x_plus[:, k])
    C = H[:, :r] @ Hp[:, None]
    C *= eta * np.arange(r)[:, None, None]
    C += Hp[:, None]
    C *= eta
    return H, Hp, C


def trace_square_mlmc(potential: Potential, traj: OverdampedTrajectory) -> np.ndarray:
    """tr(D²) of each overdamped midpoint block, shape (B, N), from its factors.

    With D = L − C·Rᵀ as in :func:`block_summary_mlmc`, L is strictly lower
    block-triangular, so tr(L²) = 0 and
    tr(D²) = tr((Σ_{i<r} C_i)²) − 2·tr(Σ_{j<r} η·H_j·Σ_{i<j} C_i).
    Cost O(m·d³) per step; agrees with the trace of the dense blocks' square
    to 1e-12 (tested).  Steps are taken one at a time: the working set is
    one step's factors, (B, m + 2·r_k, d, d), whatever N is.
    """
    (B, _, d), N = traj.x.shape, traj.grid.N
    out = np.empty((B, N))
    for k in range(N):
        H, _, C = _mlmc_step_factors(potential, traj, k)
        r = C.shape[1]
        partial = np.cumsum(C, axis=1)  # Σ_{i≤j} C_i
        banded = partial[:, -1] if r else np.zeros((B, d, d))  # Σ_{i<r} C_i
        cross = np.einsum("bjac,bjca->b", H[:, 1:r], partial[:, :-1])
        out[:, k] = np.einsum("bac,bca->b", banded, banded) - 2.0 * traj.grid.eta * cross
    return out


def block_summary_mlmc(potential: Potential, traj: OverdampedTrajectory) -> BlockSummary:
    """Overdamped midpoint blocks D = L − C·Rᵀ summarised from their factors.

    L[i,j] = η·H_i·1_{j<i}, C_i = η·(iη·H_i·H⁺ + H⁺), R = 1_{j<r} ⊗ I_d.  The
    recurrence Y_i = C_i − η·H_i·Σ_{j<i} Y_j solves (I + L)·Y = C, so
    det(I + D) = det(I_d − Σ_{j<r} Y_j) and tr D = −Σ_{i<r} tr C_i; the
    power iterate uses (D·v)_i = η·H_i·Σ_{j<i} v_j − C_i·Σ_{j<r} v_j.
    Cost O(m·d³) per step instead of O((m·d)³).  At r = 0 (EM-LD) the
    determinant correction is exactly zero.  Steps are summarised one at a
    time, each from its own factors (:func:`_mlmc_step_factors`), and the
    power products run in buffers of one step's (B, m·d) vectors: the
    working set is one step's (B, m + r_k, d, d) factors, whatever N is.
    """
    grid = traj.grid
    N, m, eta = grid.N, grid.m, grid.eta
    B, d = traj.x.shape[0], traj.x.shape[2]
    i_eta = eta * np.arange(m)[:, None]
    sign, logabs, trace, rho = (np.empty((B, N)) for _ in range(4))
    before = np.zeros((B, m, d))  # Σ_{j<i} v_j; cell 0 stays zero
    shifted = np.empty((B, m, d))
    for k in range(N):
        H, Hp, C = _mlmc_step_factors(potential, traj, k)
        r = C.shape[1]
        prefix = np.zeros((B, d, d))  # Σ_{j<i} Y_j, and Σ_{j<r} Y_j once i = r
        for i in range(r):
            prefix = prefix + (C[:, i] - eta * (H[:, i] @ prefix))
        sign[:, k], logabs[:, k] = np.linalg.slogdet(np.eye(d) - prefix)
        trace[:, k] = -np.einsum("biaa->b", C)

        def matvec(v: np.ndarray, out: np.ndarray) -> None:
            V = v.reshape(B, m, d)
            np.cumsum(V[:, :-1], axis=1, out=before[:, 1:])
            u = _batched_matvec(Hp, V[:, :r].sum(axis=1))  # H⁺·Σ_{j<r} v_j
            np.subtract(before, np.multiply(i_eta, u[:, None], out=shifted), out=shifted)
            w = out.reshape(B, m, d, 1)
            np.matmul(H, shifted[..., None], out=w)
            w -= u[:, None, :, None]
            w *= eta

        rho[:, k] = _power_norms(matvec, (B,), m * d)
    return BlockSummary(sign, logabs, trace, rho)


def block_summary_ulmc(potential: Potential, traj: UnderdampedTrajectory) -> BlockSummary:
    """Frozen-gradient kinetic blocks η·E₂(jη, iη)·H_i·1_{j<i}, summarised.

    Strictly lower triangular, hence nilpotent: det(I + D) = 1 and tr D = 0
    exactly.  Only the power iterate needs the factors, through
    (D·v)_i = η·H_i·Σ_j E₂(jη, iη)·v_j.
    """
    grid = traj.grid
    N, m, eta = grid.N, grid.m, grid.eta
    B, d = traj.x.shape[0], traj.x.shape[2]
    K2 = StepKernels.build(traj.gamma, grid.h, m).K2[:m]
    H = potential.hessian(_left_nodes(traj.x, N, m))

    def matvec(v: np.ndarray, out: np.ndarray) -> None:
        mixed = np.einsum("ij,bnjd->bnid", K2, v.reshape(B, N, m, d))
        np.multiply(eta, _batched_matvec(H, mixed).reshape(B, N, m * d), out=out)

    rho = _power_norms(matvec, (B, N), m * d)
    return BlockSummary(np.ones((B, N)), np.zeros((B, N)), np.zeros((B, N)), rho)


def block_summary_dmulmc(potential: Potential, traj: UnderdampedTrajectory) -> BlockSummary:
    """Double-midpoint blocks D = U·Wᵀ summarised from their rank-2d factors.

    U = √(η/(2γ))·[e₁ ⊗ I_d, e₂ ⊗ I_d] and Wᵀ = ∂(λ₁, λ₂)/∂ξ.  The derivative
    fixed point runs on 2d + 1 noise directions, the columns of U and the
    power start vector v₀, giving Wᵀ·U and Wᵀ·v₀.  Then
    det(I + D) = det(I_{2d} + Wᵀ·U), tr D = tr(Wᵀ·U), and from the first
    product on the power iterate stays in the range of U: D·(U·a) = U·(Wᵀ·U·a).
    Steps are summarised one at a time, and :func:`tangents_dmulmc` evaluates
    each step's Hessians itself: the working set is one step's (B, m, d, d)
    Hessians and the fixed point's (B, m+1, d, 2d+1) buffers, whatever N is.
    """
    tangents = tangents_dmulmc(potential, traj)
    grid = traj.grid
    N, m, eta = grid.N, grid.m, grid.eta
    B, d = traj.x.shape[0], traj.x.shape[2]
    kern = StepKernels.build(traj.gamma, grid.h, m)
    coef = np.sqrt(eta / (2.0 * traj.gamma))

    def times_u(a: np.ndarray) -> np.ndarray:
        """U·a for a (B, 2d) → (B, m·d)."""
        ua = kern.e1_left[:, None] * a[:, None, :d] + kern.e2_left[:, None] * a[:, None, d:]
        return coef * ua.reshape(B, m * d)

    # noise directions (m, d, 2d + 1): the columns of U, then v₀
    dirs = np.concatenate(
        [drift_basis_dmulmc(traj)[0].reshape(m, d, 2 * d), _power_start(m * d).reshape(m, d, 1)],
        axis=-1,
    )
    sign = np.empty((B, N))
    logabs = np.empty((B, N))
    trace = np.empty((B, N))
    rho = np.empty((B, N))
    for k in range(N):
        WT = tangents(k, dirs, None)[0]  # (B, 2d, 2d + 1)
        WtU, a = WT[:, :, : 2 * d], WT[:, :, 2 * d]
        sign[:, k], logabs[:, k] = np.linalg.slogdet(np.eye(2 * d) + WtU)
        trace[:, k] = np.trace(WtU, axis1=-2, axis2=-1)
        # D·v₀ = U·a; each later product is U·(WᵀU·a)/‖U·a‖
        nrm = np.linalg.norm(times_u(a), axis=-1)
        for _ in range(_POWER_ITERATIONS - 1):
            safe = np.where(nrm > 0.0, nrm, 1.0)[:, None]
            a = np.where(nrm[:, None] > 0.0, _batched_matvec(WtU, a) / safe, a)
            nrm = np.linalg.norm(times_u(a), axis=-1)
        rho[:, k] = nrm
    return BlockSummary(sign, logabs, trace, rho)


def carleman_fredholm_logdet(summary: BlockSummary) -> tuple[np.ndarray, np.ndarray]:
    """Σ_k [log|det(I + D_k)| − tr(D_k)] per path, from the block summaries.

    The full derivative is block lower-triangular, so diagonal blocks carry
    the whole determinant.  Returns (value, negative_det): an exactly singular
    block yields −inf; ``negative_det`` marks paths where some block
    determinant is negative (anomaly under the scheme step bounds).
    """
    sign = summary.sign
    value = np.where(sign == 0.0, -np.inf, summary.logabs - summary.trace).sum(axis=-1)
    return value, np.any(sign < 0.0, axis=-1)


def summary_log_weight(
    drift: DriftRealization, summary: BlockSummary, xi: np.ndarray
) -> LogWeight:
    """log M = log_cf_det − δψ − energy: the one weight assembly, for any summary.

    δψ = Σ_i⟨ψ_i, ξ_i⟩ − Σ_k tr(D_k), mean zero under the sampling law.  The
    summary may be :func:`block_summary_dense` or a structured one.
    """
    ito = np.einsum("bid,bid->b", drift.psi, np.asarray(xi, dtype=float))
    return _summary_weight(summary, ito, drift.energy)


def _summary_weight(summary: BlockSummary, ito: np.ndarray, energy: np.ndarray) -> LogWeight:
    """The weight of every route from Σ⟨ψ_i, ξ_i⟩, ½Σ‖ψ_i‖² and the block summaries."""
    log_cf, negative = carleman_fredholm_logdet(summary)
    rho = summary.power_norm.max(axis=-1)
    return LogWeight(
        log_cf_det=log_cf,
        skorohod=ito - summary.trace.sum(axis=-1),
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
    not from closed forms, so they test the block structure itself.  Step k's
    node Hessians and H⁺ are evaluated inside the step loop, so one step's
    (B, m, d, d) Hessians exist at a time, never the whole path's.
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
        H_nodes = _step_hessians(potential, traj, k)
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
        # trapezoid of f(t) = 2t·tr(∇²V(X⁺)∇²V(X_t)) on nodes 0..r
        Ht = H_nodes[:, : r + 1]  # includes the node at τ itself
        f = 2.0 * (eta * np.arange(r + 1)) * np.einsum("bac,bica->bi", Hp, Ht)
        limit_ba[:, k] = np.trapezoid(f, dx=eta, axis=-1)
    return TraceDiagnostics(tr_a2, tr_ba, tr_b2, limit_ba, limit_b2)
