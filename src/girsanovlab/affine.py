"""Affine step maps for constant-Hessian (quadratic) targets.

Every scheme here is an affine map of its Gaussian inputs when ∇V is affine:
the step endpoint, the interpolation multipliers, and the per-cell drift ψ are
all linear in (start state, inner increments), and the Malliavin block is a
constant matrix.  The linear parts are the derivative, so this module reads
them off the scheme's one step tangent rule (``Scheme.tangents``, the rule
behind the dense blocks) on one zero path per distinct step key, whose
endpoint and drift coordinates are the constant parts.  It then provides:

* exact propagation of step-marginal Gaussian moments, written once and read
  by both exact functionals below,
* a deterministic (Monte-Carlo-free) path KL between scheme and diffusion,
* batched log-weight evaluation at a cost linear in the number of steps,
  whose drift terms are BLAS matrix products and which agrees with the
  generic per-path assembly to 1e-12 (dual-route tested).

Maps are stored in drift coordinates only, ψ = U·c with c affine in the
inputs (``Scheme.drift_coordinates``); no dense drift map is kept.  DM-ULMC
drifts span 2d columns, U = √(η/(2γ))·[e₁ ⊗ I_d, e₂ ⊗ I_d], and c is the
step's multipliers (λ₁, λ₂); the weights then cost O(B·N·m·d²) and the path
KL forms no (m·d)² product.  The other schemes have full-rank blocks and keep
ψ itself as coordinates (U = I), at O(B·N·m²·d²).  The path KL reads both
through one coordinate formula, with G = I for the identity basis.

Each step's derivative block enters only through its block summary (the sign
of det(I + D), log|det₂(I + D)|, tr D and ρ(D)), taken from the scheme's small
core; the dense block is never formed.  Weights and the path KL read those
summaries through girsanov's one weight assembly.

The derivation of E[log M] uses E[δψ] = 0 (Gaussian integration by parts) and
E⟨ψ_i, ξ_i⟩ organized per step, leaving

    KL = Σ_k [ ½ Σ_i E‖ψ_i‖² − log|det₂(I + D_k)| ],  det₂ = det·e^{−tr},

with E‖ψ_i‖² from the propagated state moments.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from . import girsanov
from .girsanov import BlockSummary, LogWeight
from .paths import TimeGrid
from .potentials import Potential

__all__ = [
    "StepMaps",
    "ScheduleMaps",
    "extract_step_maps",
    "step_maps_for_schedule",
    "marginal_moments",
    "quadratic_path_kl",
    "fast_log_weights",
]


@dataclass(frozen=True)
class StepMaps:
    """Affine maps of one scheme step: endpoint, drift, and derivative block.

    State z is x (overdamped, dim d) or (x, p) stacked (kinetic, dim 2d).
    Endpoint: z' = A·z + S·ξ_flat + b.  Drift: the step's cells' drifts,
    flattened to ψ (m·d), are ψ = U·c in drift coordinates
    c = Lz·z + Wt·ξ_flat + l0 (dim r), whose Gram matrix is G = UᵀU.

    * DM-ULMC: c = (λ₁, λ₂), the step's multipliers (r = 2d), and
      U = √(η/(2γ))·[e₁ ⊗ I_d, e₂ ⊗ I_d], so G = σ̂/(2γ) ⊗ I_d
      (:func:`~girsanovlab.girsanov.drift_basis_dmulmc`) and the block
      D = U·Wt has rank 2d.
    * EM-LD, M-LMC, ULMC: full-rank blocks; ``U`` and ``G`` are None, the
      identity basis (c = ψ, r = m·d).

    The dense drift map is U·Lz, U·Wt, U·l0; it is not stored.  The
    constant within-step derivative D = ∂ψ/∂ξ = U·Wt enters through
    ``summary``, its :class:`~girsanovlab.girsanov.BlockSummary` on one path
    and one step (fields of shape (1, 1)).
    """

    d: int
    m: int
    A: np.ndarray  # (z, z)
    S: np.ndarray  # (z, m·d)
    b: np.ndarray  # (z,)
    Lz: np.ndarray  # (r, z)
    Wt: np.ndarray  # (r, m·d)
    l0: np.ndarray  # (r,)
    U: np.ndarray | None  # (m·d, r)
    G: np.ndarray | None  # (r, r)
    summary: BlockSummary

    @property
    def state_dim(self) -> int:
        return self.A.shape[0]

    @property
    def noise_cov(self) -> np.ndarray:
        """Covariance contribution of one step's increments, S·Sᵀ."""
        return self.S @ self.S.T


def extract_step_maps(
    scheme: str, potential: Potential, grid: TimeGrid, r, gamma: float | None = None
) -> StepMaps:
    """The affine maps of one step, from the scheme's step tangent rule.

    ``r`` is the step's key: the midpoint cell index (overdamped) or an
    (r⁻, r⁺) pair (double midpoint); ignored for the frozen-gradient scheme.
    For constant Hessians the endpoint and the drift coordinates (the
    scheme's ``drift_coordinates``) are affine in (start state, increments),
    so the maps are their derivative.  One zero path on the one-step grid
    gives b (its endpoint), l0 (its drift coordinates) and the block summary;
    one call of ``Scheme.tangents`` on it, along the columns [I_z | I_{m·d}]
    (start state, then increments), gives A and Lz, then S and Wt.
    """
    from .engine import scheme_for  # the engine imports this module

    if not potential.is_quadratic:
        raise ValueError("affine step maps require a constant-Hessian potential")
    s = scheme_for(scheme)
    s.check_gamma(gamma)
    d, m = potential.d, grid.m
    zdim = 2 * d if s.kinetic else d
    step_grid = TimeGrid(T=grid.h, N=1, m=m)
    zero = np.zeros((1, zdim)), np.zeros((1, m, d))
    traj = s.simulate(potential, s.step_schedule(step_grid, r), gamma, *zero)
    U, G, coords = s.drift_coordinates(potential, traj)
    cols = np.eye(zdim + m * d)  # start-state directions, then increment entries
    Dc, Dz = s.tangents(potential, traj)(0, cols[zdim:].reshape(m, d, -1), cols[None, :zdim])
    return StepMaps(
        d, m, A=Dz[0, :, :zdim], S=Dz[0, :, zdim:], b=s.endpoint(traj)[0],
        Lz=Dc[0, :, :zdim], Wt=Dc[0, :, zdim:], l0=coords[0, 0], U=U, G=G,
        summary=s.summary(potential, traj),
    )


class ScheduleMaps(tuple):
    """The StepMaps of one schedule, one per outer step (equal step keys share
    one object), with the constants its weights read formed once.

    A tuple, read as the list of maps everywhere; what it adds is formed on
    first use and kept with the maps: the steps' noise operands stacked along
    the steps, so that one stacked ``matmul`` makes every step's own BLAS
    product in :func:`fast_log_weights`, and the totals of the steps' block
    summaries, which every path of the schedule and its path KL share.
    """

    @cached_property
    def noise_operands(self) -> tuple[np.ndarray, ...]:
        """Per step, what ξ_k (B, m·d) is multiplied by, stacked (N, m·d, ·):
        [Wtᵀ | U | Sᵀ] (Wt·ξ, Uᵀ·ξ and S·ξ at once) in a low-rank basis, else
        Wtᵀ and Sᵀ as transposed views, the layout each step's own product reads."""
        if self[0].U is not None:
            return (np.stack([np.concatenate([sm.Wt.T, sm.U, sm.S.T], axis=1) for sm in self]),)
        return tuple(np.stack([getattr(sm, f) for sm in self]).swapaxes(1, 2) for f in ("Wt", "S"))

    @cached_property
    def state_operands(self) -> np.ndarray:
        """The steps' Lzᵀ as transposed views, stacked (N, z, r)."""
        return np.stack([sm.Lz for sm in self]).swapaxes(1, 2)

    @cached_property
    def offsets(self) -> np.ndarray:
        """The steps' l0, stacked (N, 1, r) to broadcast over a batch."""
        return np.stack([sm.l0 for sm in self])[:, None]

    @cached_property
    def grams(self) -> np.ndarray | None:
        """The steps' Gram matrices G stacked (N, r, r); None in the identity basis."""
        return None if self[0].G is None else np.stack([sm.G for sm in self])

    @cached_property
    def summary_totals(self) -> tuple[np.ndarray, ...]:
        """The schedule's one Σ_k log det₂, Σ_k tr D_k and the other weight totals
        (:func:`~girsanovlab.girsanov._summary_totals`) of its steps' summaries, on one row."""
        steps = (np.concatenate([getattr(sm.summary, f.name) for sm in self], axis=-1)
                 for f in fields(BlockSummary))
        return girsanov._summary_totals(BlockSummary(*steps))


def step_maps_for_schedule(
    scheme: str,
    potential: Potential,
    schedule,
    gamma: float | None = None,
) -> ScheduleMaps:
    """One StepMaps per outer step of ``schedule``, deduplicated across equal step keys.

    ``schedule`` is the scheme's schedule (for ULMC its TimeGrid); a bare
    TimeGrid means the scheme's default ``schedule(grid)``, the deterministic
    midpoint schedule of a midpoint scheme.
    """
    from .engine import scheme_for  # the engine imports this module

    s = scheme_for(scheme)
    schedule = s.as_schedule(schedule)
    cache: dict = {}
    out = []
    for key in s.step_keys(schedule):
        if key not in cache:
            cache[key] = extract_step_maps(scheme, potential, schedule.grid, key, gamma)
        out.append(cache[key])
    return ScheduleMaps(out)


def _state_moments(maps: list[StepMaps], mean0: np.ndarray, cov0: np.ndarray):
    """The one moment propagation: the state's exact (mean, cov) at each step
    start, then at the horizon, lazily (z' = A·z + S·ξ + b)."""
    mean, cov = np.asarray(mean0, dtype=float), np.asarray(cov0, dtype=float)
    yield mean, cov
    for sm in maps:
        mean = sm.A @ mean + sm.b
        cov = sm.A @ cov @ sm.A.T + sm.noise_cov
        yield mean, cov


def marginal_moments(
    maps: list[StepMaps], mean0: np.ndarray, cov0: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact Gaussian moments of the scheme marginal after all steps."""
    *_, horizon = _state_moments(maps, mean0, cov0)
    return horizon


def _gram_times(sm: StepMaps, coords: np.ndarray) -> np.ndarray:
    """G·coords, with G = I in the identity basis."""
    return coords if sm.G is None else sm.G @ coords


def quadratic_path_kl(
    maps: list[StepMaps], mean0: np.ndarray, cov0: np.ndarray
) -> float:
    """KL between the scheme path law and the diffusion path law, exactly.

    Deterministic: uses E[δψ] = 0 and the propagated state moments (μ, Σ),
    no sampling.  Per step, with m_c = Lz·μ + l0 the drift coordinates' mean,
    E‖ψ‖² = E[cᵀGc] = m_cᵀG·m_c + Σ(Lz·Σ)∘(G·Lz) + ΣWt∘(G·Wt): one trace form
    for both bases (G = I for the identity basis), so no step forms an
    (m·d)³ product, and a low-rank one no (m·d)² array.  Infinite when some
    step block is exactly singular.  Σ_k log det₂ is the maps' ``summary_totals``.
    """
    maps = maps if isinstance(maps, ScheduleMaps) else ScheduleMaps(maps)
    kl = 0.0
    for sm, (mean, cov) in zip(maps, _state_moments(maps, mean0, cov0)):
        mean_c = sm.Lz @ mean + sm.l0
        kl += 0.5 * float(
            mean_c @ _gram_times(sm, mean_c)
            + np.sum((sm.Lz @ cov) * _gram_times(sm, sm.Lz))
            + np.sum(sm.Wt * _gram_times(sm, sm.Wt))
        )
    return kl - float(maps.summary_totals[0][0])


def fast_log_weights(maps, z0: np.ndarray, xi: np.ndarray) -> LogWeight:
    """Batched log Radon–Nikodym weights through the affine maps.

    ``maps`` is one schedule's StepMaps (a :class:`ScheduleMaps`, or any
    sequence of them), ``z0`` is (B, state_dim) and ``xi`` is (B, N·m, d).
    Per step, the drift coordinates are c = z·Lzᵀ + ξ·Wtᵀ + l0, the Itô term
    is Σ c·(Uᵀξ) and the energy ½ Σ (c·G)·c.  Only the state recursion
    z ← z·Aᵀ + S·ξ + b runs step by step, three small array operations per
    step.  Every other product is one stacked ``matmul`` over the steps,
    which makes the same BLAS product per step as a step loop: ξ by
    [Wtᵀ | U | Sᵀ] (m·d × (4d + z)) for DM-ULMC, of cost O(B·N·m·d²) over
    the horizon, or by Wtᵀ and Sᵀ for the other schemes, whose drifts are
    their own coordinates (U = I), of cost O(B·N·m²·d²); the stored states
    by Lzᵀ; and c by G.  The Itô terms and energies of all steps are formed
    at once, and each path's are added in step order, so every bit is that
    of the step loop (tested); the cost beside the noise products is
    O(B·N·r) with no per-step Python overhead but the recursion's.  The
    determinant, trace and invertibility rule come from the one weight
    assembly, applied to the totals of the steps' block summaries, which the
    maps form once for all batches.  Agrees with the generic per-path
    assembly to 1e-12 for constant-Hessian targets (dual-route tested, every
    scheme).
    """
    maps = maps if isinstance(maps, ScheduleMaps) else ScheduleMaps(maps)
    B, N = z0.shape[0], len(maps)
    md = maps[0].m * maps[0].d
    xis = np.asarray(xi, dtype=float).reshape(B, N, md).swapaxes(0, 1)  # step-major view
    if maps.grams is None:  # identity basis: c = ψ, read against ξ itself
        wt, st = maps.noise_operands
        c, s_xi, u_xi = xis @ wt, xis @ st, xis
    else:
        r = maps[0].l0.size
        prod = xis @ maps.noise_operands[0]
        c, u_xi, s_xi = prod[..., :r].copy(), prod[..., r : 2 * r], prod[..., 2 * r :]
    # the state at each step's start; the horizon state is not needed
    z = np.empty((N, B, z0.shape[1]))
    z[0] = z0
    for k in range(N - 1):
        np.matmul(z[k], maps[k].A.T, out=z[k + 1])
        z[k + 1] += s_xi[k]
        z[k + 1] += maps[k].b
    c += z @ maps.state_operands  # ξ·Wtᵀ + z·Lzᵀ, the sum of either order
    c += maps.offsets
    terms = np.empty((N, 2, B))  # per step: the Itô term and the energy
    terms[:, 0] = _row_dots(c, u_xi)
    terms[:, 1] = _row_dots(c if maps.grams is None else c @ maps.grams, c)
    terms[:, 1] *= 0.5
    total = np.zeros((2, B))
    for term in terms:  # in step order
        total += term
    return girsanov._totals_weight(maps.summary_totals, total[0], total[1])


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Σ_j a[..., j]·b[..., j], bit for bit ``(a * b).sum(-1)``.

    numpy adds fewer than 8 terms in order (its pairwise sum starts at 8), so
    a short last axis, such as DM-ULMC's 2d drift coordinates, is summed
    here term by term over all rows at once, without a reduction per row.
    """
    if a.shape[-1] >= 8:
        return np.sum(a * b, axis=-1)
    out = a[..., 0] * b[..., 0]
    for j in range(1, a.shape[-1]):
        out += a[..., j] * b[..., j]
    return out
