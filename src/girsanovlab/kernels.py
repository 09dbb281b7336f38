"""Exponential-integrator kernels for kinetic Langevin updates.

The underdamped integrators repeatedly need the damping kernel and its first
two running integrals,

    E₁(s, t) = exp(−γ(t−s))
    E₂(s, t) = ∫ₛᵗ E₁(r, t) dr = (1 − e^{−γ(t−s)}) / γ
    E₃(s, t) = ∫ₛᵗ E₂(s, r) dr = ((t−s) + (e^{−γ(t−s)} − 1)/γ) / γ

together with the Gram coefficients of (E₁, E₂) over one step of length h,

    σ₁₁ = ∫₀ʰ E₁(t,h)² dt,   σ₁₂ = ∫₀ʰ E₁(t,h) E₂(t,h) dt,
    σ₂₂ = ∫₀ʰ E₂(t,h)² dt,   Δσ = σ₁₁σ₂₂ − σ₁₂².

All of these degenerate as γ(t−s) → 0 (E₂ → t−s, E₃ → (t−s)²/2, σ₁₁ → h,
σ₁₂ → h²/2, σ₂₂ → h³/3, Δσ → h⁴/12) and the naive formulas cancel
catastrophically there.  Every function below is written in a cancellation-free
form: closed forms in expm1 where those are exact
(σ₁₁ = h·(−expm1(−2w)/2w), σ₁₂ = (h²/2)·(expm1(−w)/w)²) and exact-rational
series below w = 0.35 for the two genuinely cancelling objects
(ψ(w) = w + expm1(−w) for E₃, and ψ(w) − expm1(−w)²/2 for σ₂₂).  Relative
accuracy is ~1e−15 for all w ≥ 0, including w = 0.

Discrete (left-endpoint Riemann) counterparts σ̂ and the per-step kernel tables
used by the integrators live in :class:`StepKernels`, the double-midpoint
fixed point's tables in :class:`ConstrainedSweep`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "e1",
    "e2",
    "e3",
    "SigmaCoefficients",
    "sigma_coefficients",
    "StepKernels",
    "ConstrainedSweep",
]

# Series crossover: below this the series branches are used.  At w = 0.35 the
# direct expm1 forms still retain ~14.5 significant digits, and the truncated
# series are accurate to < 1e−16 relative, so the two branches agree to ~1e−14
# across the seam.
_SERIES_CUTOFF = 0.35

# ψ(w)/w² = Σ_{k≥0} (−w)^k / (k+2)!   (for E₃ = (t−s)²·ψ(w)/w²)
_E3_COEFFS = np.array([(-1.0) ** k / math.factorial(k + 2) for k in range(16)])

# (ψ(w) − (1−e^{−w})²/2) / w³, exact rational Taylor coefficients.
_SIGMA22_COEFFS = np.array(
    [
        1 / 3,
        -1 / 4,
        7 / 60,
        -1 / 24,
        31 / 2520,
        -1 / 320,
        127 / 181440,
        -17 / 120960,
        73 / 2851200,
        -31 / 7257600,
        2047 / 3113510400,
        -1 / 10644480,
        8191 / 653837184000,
        -5461 / 3487131648000,
        4681 / 25406244864000,
    ]
)


def _polyval(coeffs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Horner evaluation of Σ coeffs[k]·w^k (coeffs in ascending order)."""
    acc = np.full_like(w, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc = acc * w + c
    return acc


def _delta(gamma: float, s, t) -> np.ndarray:
    if not (np.isfinite(gamma) and gamma >= 0.0):
        raise ValueError(f"gamma must be finite and >= 0, got {gamma}")
    dt = np.asarray(t, dtype=float) - np.asarray(s, dtype=float)
    if not np.all(np.isfinite(dt)):
        raise ValueError("non-finite time arguments")
    if np.any(dt < 0):
        raise ValueError("kernels require t >= s")
    return dt


def e1(gamma: float, s, t) -> np.ndarray:
    """E₁(s,t) = exp(−γ(t−s)), elementwise over broadcastable s, t."""
    return np.exp(-gamma * _delta(gamma, s, t))


def e2(gamma: float, s, t) -> np.ndarray:
    """E₂(s,t) = (1 − e^{−γ(t−s)})/γ, stable down to γ(t−s) = 0."""
    dt = _delta(gamma, s, t)
    w = gamma * dt
    wsafe = np.where(w > 0, w, 1.0)
    return dt * np.where(w > 0, -np.expm1(-wsafe) / wsafe, 1.0)


def e3(gamma: float, s, t) -> np.ndarray:
    """E₃(s,t) = ((t−s) + (e^{−γ(t−s)} − 1)/γ)/γ, series-stabilized."""
    dt = _delta(gamma, s, t)
    w = gamma * dt
    series = _polyval(_E3_COEFFS, w)
    wsafe = np.where(w >= _SERIES_CUTOFF, w, 1.0)
    direct = (wsafe + np.expm1(-wsafe)) / wsafe**2
    return dt**2 * np.where(w >= _SERIES_CUTOFF, direct, series)


@dataclass(frozen=True)
class SigmaCoefficients:
    """Gram coefficients of a pair of kernels, the 2×2 system [[s11, s12], [s12, s22]].

    For the analytic σ of :func:`sigma_coefficients`, ``delta`` =
    σ₁₁σ₂₂ − σ₁₂² > 0 by strict Cauchy–Schwarz: E₁(·,h) and E₂(·,h) are not
    proportional on [0, h].  The discrete σ̂ of :class:`StepKernels` is the
    Gram matrix of the kernels' m cell values, which with one cell (m = 1)
    are two length-1 vectors: σ̂ is then singular, and ``StepKernels`` refuses
    to build it.
    """

    s11: float
    s12: float
    s22: float
    delta: float

    def solve(self, b1: np.ndarray, b2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Solve [[s11, s12], [s12, s22]] @ (x1, x2) = (b1, b2) elementwise."""
        x1 = self.s22 * b1
        x1 -= self.s12 * b2
        x1 /= self.delta
        x2 = -self.s12 * b1
        x2 += self.s11 * b2
        x2 /= self.delta
        return x1, x2


def sigma_coefficients(gamma: float, h: float) -> SigmaCoefficients:
    """Analytic Gram coefficients over a step of length h.

    Closed forms (verified symbolically):
        σ₁₁ = −expm1(−2w)/(2γ),  σ₁₂ = expm1(−w)²/(2γ²),
        σ₂₂ = (ψ(w) − expm1(−w)²/2)/γ³,   w = γh, ψ(w) = w + expm1(−w),
    each rewritten as (polynomial in h) × (function of w with value 1 at 0).
    """
    if not (np.isfinite(h) and h > 0):
        raise ValueError(f"step size must be positive and finite, got {h}")
    if not (np.isfinite(gamma) and gamma >= 0):
        raise ValueError(f"gamma must be finite and >= 0, got {gamma}")
    w = gamma * h
    if w > 0:
        s11 = h * (-np.expm1(-2 * w) / (2 * w))
        s12 = 0.5 * h**2 * (np.expm1(-w) / w) ** 2
        if w >= _SERIES_CUTOFF:
            g = (w + np.expm1(-w)) - 0.5 * np.expm1(-w) ** 2
            s22 = h**3 * g / w**3
        else:
            s22 = h**3 * _polyval(_SIGMA22_COEFFS, np.asarray(w))
    else:
        s11, s12, s22 = h, h**2 / 2, h**3 / 3
    s11, s12, s22 = float(s11), float(s12), float(s22)
    return SigmaCoefficients(s11, s12, s22, s11 * s22 - s12**2)


@dataclass(frozen=True)
class ConstrainedSweep:
    """The double-midpoint fixed point with its multipliers eliminated.

    A sweep maps the node gradients g (m cells) to the drift
    G = g − E₁λ₁ − E₂λ₂ whose multipliers solve the marginal constraints
    η·Eᵀ·G = t, with E = [e1_left, e2_left] and the targets
    t = (E₂(0,h)·∇V(X⁺), E₃(0,h)·∇V(X⁻)).  λ is affine in g, so
    G = P·g + E·σ̂⁻¹·t with the projector P = I − η·E·σ̂⁻¹·Eᵀ (P·E = 0 and
    Eᵀ·P = 0, as σ̂ = η·EᵀE).  Each table acts along the cell axis of an
    (m+2)-row stack, the m node gradients over two more rows:

    * ``x`` (m+1, m+2) = [M | −η·K₂·E·σ̂⁻¹] on [g; t], M = −η·K₂·P: the
      nodes X = base + x·[g; t].  Row m of M is −η·e2_leftᵀ·P, zero in exact
      arithmetic, so the endpoint is the marginal update whatever g is;
    * ``residual`` (2, m+2) = [η·Eᵀ | −I] on [g; t]: s = η·Eᵀ·g − t, whence
      λ = σ̂⁻¹·s, the difference taken before σ̂⁻¹ amplifies its rounding;
    * ``p`` (m+1, m+2) = [−η·K₁ | η·K₁·E] on [g; λ]: the momentum nodes'
      drift part −η·K₁·G.

    The tables are read only.
    """

    x: np.ndarray
    residual: np.ndarray
    p: np.ndarray


def _read_only(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


def _check_m(m) -> None:
    if isinstance(m, bool) or m < 1 or not float(m).is_integer():
        raise ValueError(f"m must be a positive integer, got {m}")


class StepKernels:
    """Kernels of one underdamped step of length h = m·η.

    The O(m) vectors below are computed on construction.  The (m+1) × m
    tables K1, K2, the coefficients σ̂ and the constrained-sweep tables are
    built on first access and then kept, read only, so every step and window
    on the same (γ, h, m) shares them, across threads too; a caller that
    needs only a few rows of K1, K2 takes them from :meth:`row`, which is
    the one formula both use, so a row equals the table's row bit for bit
    (tested).

    Attributes
    ----------
    e1_left, e2_left : (m,) kernels E₁(jη, h), E₂(jη, h) at cell left endpoints
    e1_0, e2_0, e3_0 : (m+1,) kernels E_a(0, nη) at inner nodes
    K1, K2 : (m+1, m) strictly-causal tables E_a(jη, nη)·1{j<n}, i.e.
        ``row(a, range(m+1))``; contracting K @ ξ realizes √η-scaled
        stochastic integrals at every inner node
    sigma_hat : Gram coefficients σ̂_ab = η Σⱼ E_a(jη,h)·E_b(jη,h) of (e1_left,
        e2_left).  These left-endpoint sums, not the analytic σ, make the
        double-midpoint marginal constraints exact, because every stochastic
        integral is realized with the same left-endpoint rule.  With one
        cell σ̂ is singular, so it raises ValueError for m < 2.
    constrained : :class:`ConstrainedSweep`, the double-midpoint fixed point
        with its multipliers eliminated (needs σ̂, so m ≥ 2).
    """

    def __init__(self, gamma: float, h: float, m: int):
        _check_m(m)
        if not (np.isfinite(gamma) and gamma > 0):
            raise ValueError(f"underdamped kernels require gamma > 0, got {gamma}")
        if not (np.isfinite(h) and h > 0):
            raise ValueError(f"step size must be positive and finite, got {h}")
        self.gamma = float(gamma)
        self.h = float(h)
        self.m = int(m)
        self.eta = self.h / self.m

        self._nodes = self.eta * np.arange(self.m + 1)  # nη
        lefts = self._nodes[: self.m]  # jη
        self.e1_left = e1(gamma, lefts, self.h)
        self.e2_left = e2(gamma, lefts, self.h)
        self.e1_0 = e1(gamma, 0.0, self._nodes)
        self.e2_0 = e2(gamma, 0.0, self._nodes)
        self.e3_0 = e3(gamma, 0.0, self._nodes)

    @cached_property
    def sigma_hat(self) -> SigmaCoefficients:
        if self.m < 2:
            raise ValueError(
                f"the double-midpoint interpolation needs m >= 2 inner cells, got "
                f"m = {self.m}: with one cell σ̂ is the Gram matrix of two "
                "length-1 vectors, which is singular"
            )
        s11 = self.eta * float(self.e1_left @ self.e1_left)
        s12 = self.eta * float(self.e1_left @ self.e2_left)
        s22 = self.eta * float(self.e2_left @ self.e2_left)
        return SigmaCoefficients(s11, s12, s22, s11 * s22 - s12**2)

    @cached_property
    def constrained(self) -> "ConstrainedSweep":
        eta = self.eta
        E = np.stack([self.e1_left, self.e2_left], axis=1)  # (m, 2)
        sh = self.sigma_hat
        inv = np.stack(sh.solve(np.array([1.0, 0.0]), np.array([0.0, 1.0])))  # σ̂⁻¹
        inv_Et = np.stack(sh.solve(self.e1_left, self.e2_left))  # σ̂⁻¹·Eᵀ (2, m)
        K2E = self.K2 @ E
        K2P = self.K2 - eta * (K2E @ inv_Et)  # P is I less rank 2: O(m²), not O(m³)
        x = np.concatenate([-eta * K2P, -eta * (K2E @ inv)], axis=1)
        residual = np.concatenate([eta * E.T, -np.eye(2)], axis=1)
        p = np.concatenate([-eta * self.K1, eta * (self.K1 @ E)], axis=1)
        return ConstrainedSweep(*map(_read_only, (x, residual, p)))

    def row(self, a: int, n) -> np.ndarray:
        """E_a(jη, nη)·1{j<n} over the cells j = 0..m−1, for a ∈ {1, 2}.

        ``n`` is a node index in 0..m, or an array of them, which gives one
        row per entry (shape ``n.shape + (m,)``).
        """
        kernel = {1: e1, 2: e2}[a]
        nn = self._nodes[np.asarray(n)][..., None]
        lefts = self._nodes[: self.m]
        causal = lefts < nn - 0.5 * self.eta
        dt = np.where(causal, nn - lefts, 0.0)
        return np.where(causal, kernel(self.gamma, 0.0, dt), 0.0)

    @cached_property
    def K1(self) -> np.ndarray:
        return _read_only(self.row(1, np.arange(self.m + 1)))

    @cached_property
    def K2(self) -> np.ndarray:
        return _read_only(self.row(2, np.arange(self.m + 1)))

    @staticmethod
    @lru_cache(maxsize=64)
    def _cached(gamma: float, h: float, m: int) -> "StepKernels":
        return StepKernels(gamma, h, m)

    @classmethod
    def build(cls, gamma: float, h: float, m: int) -> "StepKernels":
        """Memoized constructor: a step's kernels, and any table built from
        them, are shared by every step and window on the same (γ, h, m)."""
        _check_m(m)
        return cls._cached(float(gamma), float(h), int(m))
