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

Derivative structure: each scheme has one tangent rule, the derivative of
step k's drift and end state along directions in its own increments plus a
step-start tangent.  The dense derivative is one forward sweep of these
tangents over the horizon, carrying each step's end tangent into the next
step.  A step's tangent never sees later increments, so every block above the
step diagonal is zero: the derivative is block lower-triangular,
det(I + Dψ) = Π_k det(I + D_k), and only diagonal blocks carry trace.

Structured evaluation.  The weight needs only sign and log|det(I + D_k)|,
tr D_k and a power-iterate norm per block, and each scheme's block has a
low-rank anticipating part that yields all three from its factors
(:class:`BlockSummary`), never forming the dense (m·d)×(m·d) block:

* overdamped midpoint: D = L − C·Rᵀ with L[i,j] = η·H_i·1_{j<i},
  C_i = η·(iη·H_i·H⁺ + H⁺) and R = 1_{j<r} ⊗ I_d.  I + L is unit lower
  block-triangular, so by the matrix determinant lemma
  det(I + D) = det(I_d − Σ_{j<r} Y_j), where (I + L)·Y = C is the recurrence
  Y_i = C_i − η·H_i·Σ_{j<i} Y_j, and tr D = −η·Σ_{i<r} tr(iη·H_i·H⁺ + H⁺);
* frozen-gradient kinetic: D is strictly lower triangular (nilpotent), so
  det(I + D) = 1 and tr D = 0 exactly;
* double-midpoint kinetic: D = U·Wᵀ with U = √(η/(2γ))·[e₁ ⊗ I_d, e₂ ⊗ I_d]
  (left-endpoint kernels) and Wᵀ = ∂(λ₁, λ₂)/∂ξ, so
  det(I + D) = det(I_{2d} + Wᵀ·U) and tr D = tr(Wᵀ·U).  Wᵀ comes from the
  path's own fixed point (:func:`~girsanovlab.integrators.interpolation_fixed_point`
  with grad = ∇²V·DX), run on the 2d columns of U plus the power-iteration
  start vector instead of on all m·d noise coordinates as the dense block is.

The power iterate is the same 20 normalised steps from the same start vector
as on the dense block, through an O(m·d²) matrix-vector product (overdamped,
frozen-gradient) or inside the range of U (double midpoint).  Both weight
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
    interpolation_fixed_point,
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
    "malliavin_blocks_mlmc",
    "malliavin_blocks_ulmc",
    "malliavin_blocks_dmulmc",
    "BlockSummary",
    "block_summary_dense",
    "block_summary_mlmc",
    "block_summary_ulmc",
    "block_summary_dmulmc",
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


# ---------------------------------------------------------------------------
# Malliavin blocks
# ---------------------------------------------------------------------------


def _derivative_blocks(
    scheme: str, traj: OverdampedTrajectory | UnderdampedTrajectory, tangents,
    include_offdiag: bool,
) -> MalliavinBlocks:
    """The dense derivative from a scheme's step tangent rule.

    ``tangents(k, dirs, dz0)`` returns (Dψ (B, m, d, U), Dz_h (B, z, U)), the
    tangents of step k's drift and of its end state (z = d or 2d coordinates)
    along the increment directions ``dirs`` (m, d, U) in its own ξ plus the
    step-start tangents ``dz0`` (B, z, U), or None for a fixed start.  The diagonal blocks take every ξ
    entry of each step with a fixed start; the full derivative is one forward
    sweep along all N·m·d entries that carries Dz_h into the next step.
    """
    N, m, (B, _, d) = traj.grid.N, traj.grid.m, traj.x.shape
    md = m * d
    diag = np.empty((B, N, md, md))
    if not include_offdiag:
        increments = np.eye(md).reshape(m, d, md)  # every ξ_j entry
        for k in range(N):
            diag[:, k] = tangents(k, increments, None)[0].reshape(B, md, md)
        return MalliavinBlocks(scheme, diag)
    s = N * md
    entries = np.eye(s).reshape(N, m, d, s)
    full = np.empty((B, s, s))
    dz = None
    for k in range(N):
        dpsi, dz = tangents(k, entries[k], dz)
        rows = slice(k * md, (k + 1) * md)
        full[:, rows] = dpsi.reshape(B, md, s)
        diag[:, k] = full[:, rows, rows]
    return MalliavinBlocks(scheme, diag, full)


def malliavin_blocks_mlmc(
    potential: Potential,
    traj: OverdampedTrajectory,
    include_offdiag: bool = False,
) -> MalliavinBlocks:
    """Exact derivative blocks of the overdamped midpoint drift.

    Step k's tangents (H_i = ∇²V(X̂_{iη}), H₀ = ∇²V(x_k), H⁺ = ∇²V(X⁺_k)):

        DX⁺ = DX₀ − τ·H₀·DX₀ + √(2η)·Σ_{j<r}Dξ_j,
        DX̂_n = DX₀ − nη·H⁺·DX⁺ + √(2η)·Σ_{j<n}Dξ_j,
        Dψ_i = √(η/2)·(H_i·DX̂_i − H⁺·DX⁺).

    With a fixed start the block is ∂ψ_i/∂ξ_j = η·[H_i·1_{j<i} −
    (iη·H_i·H⁺ + H⁺)·1_{j<r}], the 1_{j<r} band carrying the anticipating
    dependence through X⁺.
    """
    N, m, eta = traj.grid.N, traj.grid.m, traj.grid.eta
    H_nodes = potential.hessian(_left_nodes(traj.x, N, m))  # (B, N, m, d, d)
    H_plus = potential.hessian(traj.x_plus)  # (B, N, d, d)
    n_eta = eta * np.arange(m + 1)[:, None, None]
    root2eta = np.sqrt(2.0 * eta)

    def tangents(k, dirs, dz0):
        r = int(traj.schedule.indices[k])
        sums = np.zeros((m + 1, *dirs.shape[1:]))  # Σ_{j<n} Dξ_j
        np.cumsum(dirs, axis=0, out=sums[1:])
        DX = root2eta * sums
        DX_plus = DX[r]
        if dz0 is not None:  # H₀ is the Hessian at cell 0's left node, x_k
            DX = DX + dz0[:, None]
            DX_plus = DX[:, r] - (r * eta) * (H_nodes[:, k, 0] @ dz0)
        HpDXp = H_plus[:, k] @ DX_plus
        DX = DX - n_eta * HpDXp[:, None]
        Dpsi = np.sqrt(eta / 2.0) * (H_nodes[:, k] @ DX[:, :m] - HpDXp[:, None])
        return Dpsi, DX[:, m]

    return _derivative_blocks("mlmc", traj, tangents, include_offdiag)


def malliavin_blocks_ulmc(
    potential: Potential,
    traj: UnderdampedTrajectory,
    include_offdiag: bool = False,
) -> MalliavinBlocks:
    """Derivative blocks of the frozen-gradient kinetic drift.

    Step k's tangents (H_i = ∇²V(X̂_{iη}), H₀ = ∇²V(x_k), c = √(2γη)):

        DX̂_n = DX₀ + E₂(0,nη)·DP₀ − E₃(0,nη)·H₀·DX₀ + c·Σ_{j<n}E₂(jη,nη)·Dξ_j,
        DP̂_n = E₁(0,nη)·DP₀ − E₂(0,nη)·H₀·DX₀ + c·Σ_{j<n}E₁(jη,nη)·Dξ_j,
        Dψ_i = √(η/(2γ))·(H_i·DX̂_i − H₀·DX₀).

    With a fixed start ∂ψ_i/∂ξ_j = η·E₂(jη, iη)·H_i·1_{j<i}: strictly lower
    in the temporal index (the scheme is adapted), so every determinant is
    exactly one.
    """
    grid = traj.grid
    N, m, eta = grid.N, grid.m, grid.eta
    B, d = traj.x.shape[0], traj.x.shape[2]
    kern = StepKernels.build(traj.gamma, grid.h, m)
    H_nodes = potential.hessian(_left_nodes(traj.x, N, m))
    coef = np.sqrt(eta / (2.0 * traj.gamma))
    c = np.sqrt(2.0 * traj.gamma * eta)
    e1, e2, e3 = (e[:, None, None] for e in (kern.e1_0, kern.e2_0, kern.e3_0))

    def tangents(k, dirs, dz0):
        DX = c * np.einsum("nj,jcU->ncU", kern.K2, dirs)  # (m+1, d, U)
        DP = c * np.einsum("nj,jcU->ncU", kern.K1, dirs)
        H0Dx0 = 0.0
        if dz0 is not None:  # H₀ is the Hessian at cell 0's left node, x_k
            Dp0 = dz0[:, None, d:]
            H0Dx0 = (H_nodes[:, k, 0] @ dz0[:, :d])[:, None]
            DX = DX + dz0[:, None, :d] + e2 * Dp0 - e3 * H0Dx0
            DP = DP + e1 * Dp0 - e2 * H0Dx0
        Dpsi = coef * (H_nodes[:, k] @ DX[..., :m, :, :] - H0Dx0)
        Dz_h = np.concatenate([DX[..., m, :, :], DP[..., m, :, :]], axis=-2)
        return Dpsi, np.broadcast_to(Dz_h, (B, 2 * d, dirs.shape[-1]))

    return _derivative_blocks("ulmc", traj, tangents, include_offdiag)


def _dm_tangents(
    kern: StepKernels, potential: Potential, traj: UnderdampedTrajectory, k: int,
    dirs: np.ndarray, dz0: np.ndarray | None,
):
    """Tangents of double-midpoint step k along ``dirs`` (m, d, U), directions in its ξ.

    ``dz0`` (B, 2d, U) holds the tangents of the step start (x₀, p₀), or None
    for a fixed start.  The tangents solve the path's own
    :func:`~girsanovlab.integrators.interpolation_fixed_point` with
    grad = ∇²V·DX, so the implicit dependence of the multipliers is kept.
    Returns (Dλ₁, Dλ₂, Dz_h): Dz_h (B, 2d, U) holds the tangents of the step
    end (x, p).
    """
    m, eta = kern.m, kern.eta
    B, d = traj.x.shape[0], traj.x.shape[2]
    c = np.sqrt(2.0 * kern.gamma * eta)
    base = c * np.einsum("nj,jcU->ncU", kern.K2, dirs)  # (m+1, d, U)
    end_p = c * np.tensordot(kern.K1[m], dirs, axes=1)  # (d, U)
    if dz0 is None:
        midpoint = base
    else:
        Dx0, Dp0 = dz0[:, :d], dz0[:, d:]
        base = base + Dx0[:, None] + kern.e2_0[:, None, None] * Dp0[:, None]
        end_p = end_p + kern.e1_0[m] * Dp0
        # the midpoints also carry −E₃(0,rη)·∇V(x₀)
        H0Dx0 = potential.hessian(traj.x[:, k * m]) @ Dx0
        midpoint = base - kern.e3_0[:, None, None] * H0Dx0[:, None]

    def grad_tangent(r: int, x_mid: np.ndarray) -> np.ndarray:
        """∇²V(X_r)·DX_r, the tangents of the gradient at the midpoint X_r."""
        return potential.hessian(x_mid) @ midpoint[..., r, :, :]

    gx = kern.e3_0[m] * grad_tangent(int(traj.schedule.indices_minus[k]), traj.x_minus[:, k])
    gp = kern.e2_0[m] * grad_tangent(int(traj.schedule.indices_plus[k]), traj.x_plus[:, k])
    H_left = potential.hessian(traj.x[:, k * m : (k + 1) * m])
    base = np.broadcast_to(base, (B, *base.shape[-3:]))
    DX, Dlam1, Dlam2, DG, _ = interpolation_fixed_point(
        kern, lambda tangent: H_left @ tangent, base, base, gp, gx, _DERIV_TOL
    )
    DP = end_p - eta * np.einsum("j,bjaU->baU", kern.K1[m], DG)
    return Dlam1, Dlam2, np.concatenate([DX[:, m], DP], axis=1)


def malliavin_blocks_dmulmc(
    potential: Potential,
    traj: UnderdampedTrajectory,
    include_offdiag: bool = False,
) -> MalliavinBlocks:
    """Derivative blocks of the double-midpoint drift.

    ψ_i is temporally rank-two in (λ₁, λ₂), so step k's tangent is
    Dψ_i = √(η/(2γ))·(E₁(iη,h)·Dλ₁ + E₂(iη,h)·Dλ₂) with the multiplier
    tangents from the exact linear fixed point of :func:`_dm_tangents` (the
    implicit dependence of the optimal drift is kept, not dropped).
    """
    if traj.schedule is None:
        raise ValueError("trajectory carries no interpolation multipliers")
    kern = StepKernels.build(traj.gamma, traj.grid.h, traj.grid.m)
    coef = np.sqrt(traj.grid.eta / (2.0 * traj.gamma))

    def tangents(k, dirs, dz0):
        Dlam1, Dlam2, Dz_h = _dm_tangents(kern, potential, traj, k, dirs, dz0)
        # (B, m, d, U): outer product of e-kernels with multiplier tangents
        Dpsi = coef * (
            kern.e1_left[:, None, None] * Dlam1[:, None]
            + kern.e2_left[:, None, None] * Dlam2[:, None]
        )
        return Dpsi, Dz_h

    return _derivative_blocks("dmulmc", traj, tangents, include_offdiag)


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

    ``matvec`` maps (*batch, s) vectors to their products; every block
    starts from :func:`_power_start`, and a zero product keeps the previous
    vector.
    """
    v = np.broadcast_to(_power_start(s), (*batch, s)).copy()
    rho = np.zeros(batch)
    for _ in range(_POWER_ITERATIONS):
        w = matvec(v)
        nrm = np.linalg.norm(w, axis=-1)
        rho = nrm
        safe = np.where(nrm > 0.0, nrm, 1.0)[..., None]
        v = np.where(nrm[..., None] > 0.0, w / safe, v)
    return rho


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
    rho = _power_norms(lambda v: np.einsum("bnij,bnj->bni", blocks.diag, v), (B, N), s)
    return BlockSummary(sign, logabs, trace, rho)


def _batched_matvec(H: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(..., d, d) @ (..., d) → (..., d)."""
    return (H @ v[..., None])[..., 0]


def block_summary_mlmc(potential: Potential, traj: OverdampedTrajectory) -> BlockSummary:
    """Overdamped midpoint blocks D = L − C·Rᵀ summarised from their factors.

    L[i,j] = η·H_i·1_{j<i}, C_i = η·(iη·H_i·H⁺ + H⁺), R = 1_{j<r} ⊗ I_d.  The
    recurrence Y_i = C_i − η·H_i·Σ_{j<i} Y_j solves (I + L)·Y = C, so
    det(I + D) = det(I_d − Σ_{j<r} Y_j) and tr D = −Σ_{i<r} tr C_i; the
    power iterate uses (D·v)_i = η·H_i·Σ_{j<i} v_j − C_i·Σ_{j<r} v_j.
    Cost O(m·d³) per step instead of O((m·d)³).  At r = 0 (EM-LD) the
    determinant correction is exactly zero.
    """
    grid = traj.grid
    N, m, eta = grid.N, grid.m, grid.eta
    B, d = traj.x.shape[0], traj.x.shape[2]
    H = potential.hessian(_left_nodes(traj.x, N, m))  # (B, N, m, d, d)
    Hp = potential.hessian(traj.x_plus)  # (B, N, d, d)
    r = traj.schedule.indices
    band = (np.arange(m)[None, :] < r[:, None]).astype(float)  # (N, m): j < r_k
    i_eta = eta * np.arange(m)
    C = eta * (i_eta[:, None, None] * (H @ Hp[:, :, None]) + Hp[:, :, None])

    prefix = np.zeros((B, N, d, d))  # Σ_{j<i} Y_j
    banded = np.zeros((B, N, d, d))  # Σ_{j<r_k} Y_j
    for i in range(int(r.max(initial=0))):
        Y = C[:, :, i] - eta * (H[:, :, i] @ prefix)
        prefix = prefix + Y
        banded = banded + band[:, i, None, None] * Y
    sign, logabs = np.linalg.slogdet(np.eye(d) - banded)
    trace = -np.einsum("ni,bniaa->bn", band, C)

    def matvec(v: np.ndarray) -> np.ndarray:
        V = v.reshape(B, N, m, d)
        before = np.zeros_like(V)  # Σ_{j<i} v_j
        np.cumsum(V[:, :, :-1], axis=2, out=before[:, :, 1:])
        u = _batched_matvec(Hp, np.einsum("nj,bnjd->bnd", band, V))  # H⁺·Σ_{j<r} v_j
        w = _batched_matvec(H, before - i_eta[:, None] * u[:, :, None]) - u[:, :, None]
        return eta * w.reshape(B, N, m * d)

    rho = _power_norms(matvec, (B, N), m * d)
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

    def matvec(v: np.ndarray) -> np.ndarray:
        mixed = np.einsum("ij,bnjd->bnid", K2, v.reshape(B, N, m, d))
        return eta * _batched_matvec(H, mixed).reshape(B, N, m * d)

    rho = _power_norms(matvec, (B, N), m * d)
    return BlockSummary(np.ones((B, N)), np.zeros((B, N)), np.zeros((B, N)), rho)


def block_summary_dmulmc(potential: Potential, traj: UnderdampedTrajectory) -> BlockSummary:
    """Double-midpoint blocks D = U·Wᵀ summarised from their rank-2d factors.

    U = √(η/(2γ))·[e₁ ⊗ I_d, e₂ ⊗ I_d] and Wᵀ = ∂(λ₁, λ₂)/∂ξ.  The derivative
    fixed point runs on 2d + 1 noise directions, the columns of U and the
    power start vector v₀, giving Wᵀ·U and Wᵀ·v₀.  Then
    det(I + D) = det(I_{2d} + Wᵀ·U), tr D = tr(Wᵀ·U), and from the first
    product on the power iterate stays in the range of U: D·(U·a) = U·(Wᵀ·U·a).
    """
    if traj.schedule is None:
        raise ValueError("trajectory carries no interpolation multipliers")
    grid = traj.grid
    N, m, eta = grid.N, grid.m, grid.eta
    B, d = traj.x.shape[0], traj.x.shape[2]
    kern = StepKernels.build(traj.gamma, grid.h, m)
    coef = np.sqrt(eta / (2.0 * traj.gamma))
    eye = np.eye(d)

    def times_u(a: np.ndarray) -> np.ndarray:
        """U·a for a (B, 2d) → (B, m·d)."""
        ua = kern.e1_left[:, None] * a[:, None, :d] + kern.e2_left[:, None] * a[:, None, d:]
        return coef * ua.reshape(B, m * d)

    # noise directions (m, d, 2d + 1): the columns of U, then v₀
    dirs = np.concatenate(
        [
            coef * kern.e1_left[:, None, None] * eye,
            coef * kern.e2_left[:, None, None] * eye,
            _power_start(m * d).reshape(m, d, 1),
        ],
        axis=-1,
    )
    sign = np.empty((B, N))
    logabs = np.empty((B, N))
    trace = np.empty((B, N))
    rho = np.empty((B, N))
    for k in range(N):
        Dlam1, Dlam2, _ = _dm_tangents(kern, potential, traj, k, dirs, None)
        WT = np.concatenate([Dlam1, Dlam2], axis=1)  # (B, 2d, 2d + 1)
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
    not from closed forms, so they test the block structure itself.
    """
    grid = traj.grid
    N, m, eta = grid.N, grid.m, grid.eta
    B, d = traj.x.shape[0], traj.x.shape[2]
    left = _left_nodes(traj.x, N, m)
    H_nodes = potential.hessian(left)
    H_plus = potential.hessian(traj.x_plus)
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
        Hp = H_plus[:, k]
        limit_b2[:, k] = 2.0 * tau**2 * np.einsum("bac,bca->b", Hp, Hp)
        if r == 0:
            continue
        Hi = H_nodes[:, k, :r]  # (B, r, d, d)
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
        Ht = H_nodes[:, k, : r + 1]  # includes the node at τ itself
        f = 2.0 * (eta * np.arange(r + 1)) * np.einsum("bac,bica->bi", Hp, Ht)
        limit_ba[:, k] = np.trapezoid(f, dx=eta, axis=-1)
    return TraceDiagnostics(tr_a2, tr_ba, tr_b2, limit_ba, limit_b2)
