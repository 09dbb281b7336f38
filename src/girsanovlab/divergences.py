"""Divergence estimators on pathwise log weights, and Gaussian references.

The pathwise weight M satisfies E_P[M] = 1 with P the scheme's path law and
Q the diffusion's, so

    KL(P‖Q)  = E_P[−log M],
    R_q(P‖Q) = (1/(q−1))·log E_P[M^{1−q}]   (q > 1),

and both are estimated from sampled log M values.  Paths flagged
non-invertible are excluded and counted; estimates carrying more than 1%
rejections are marked unreliable.  For quadratic targets the module also
provides the closed-form Gaussian KL used in data-processing cross-checks,
beside the exact stationary moments of
:func:`~girsanovlab.potentials.stationary_moments`, which it re-exports.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import logsumexp, stdtrit

from .engine import scheme_for, start_law, walk_grids
from .girsanov import _log1p_minus_x
from .paths import BLOCK_PATHS, LABEL_PATH, LABEL_RESIDUAL
from .potentials import Potential, stationary_moments

__all__ = [
    "DivergenceEstimate",
    "ERROR_COLUMNS",
    "LocalErrorReport",
    "SlopeFit",
    "REJECTION_RELIABILITY_LIMIT",
    "estimate_kl",
    "estimate_renyi",
    "gaussian_kl",
    "stationary_moments",
    "fit_loglog_slope",
    "local_error_sweep",
]

#: Estimates with a larger rejected fraction are flagged unreliable.
REJECTION_RELIABILITY_LIMIT = 0.01

#: the local-error columns of :class:`LocalErrorReport`, in report order
ERROR_COLUMNS = ("strong_x", "strong_p", "weak_x", "weak_p")


@dataclass(frozen=True)
class DivergenceEstimate:
    """Point estimate with a jackknife standard error and rejection counts.

    ``kind`` is "kl" or "renyi-q".  The estimate is of D(P‖Q) with P the
    simulated law and Q the reweighting target; the other direction needs
    re-simulation under Q, never reweighting alone.
    """

    value: float
    se: float
    n_used: int
    n_rejected: int
    kind: str = "kl"

    @property
    def reliable(self) -> bool:
        total = self.n_used + self.n_rejected
        return (
            total > 0
            and np.isfinite(self.value)
            and self.n_rejected <= REJECTION_RELIABILITY_LIMIT * total
        )


def _usable_log_weights(weights) -> tuple[np.ndarray, int]:
    if hasattr(weights, "log_weight") and hasattr(weights, "invertible"):
        mask = np.asarray(weights.invertible, dtype=bool)
        return np.asarray(weights.log_weight, dtype=float)[mask], int((~mask).sum())
    logw = np.asarray(weights, dtype=float)
    mask = np.isfinite(logw)
    return logw[mask], int((~mask).sum())


def estimate_kl(weights) -> DivergenceEstimate:
    """KL(P‖Q) = E_P[−log M], sample mean with its standard error.

    ``weights`` is a :class:`LogWeight` (non-invertible paths excluded and
    counted as rejections) or a raw array of log M values (non-finite entries
    rejected).  For a sample mean the jackknife standard error coincides with
    the usual one, std/√n.
    """
    logw, n_rej = _usable_log_weights(weights)
    n = logw.size
    if n < 2:
        return DivergenceEstimate(np.nan, np.inf, n, n_rej, kind="kl")
    value = float(np.mean(-logw))
    se = float(np.std(-logw, ddof=1) / np.sqrt(n))
    return DivergenceEstimate(value, se, n, n_rej, kind="kl")


def estimate_renyi(weights, q: float) -> DivergenceEstimate:
    """Rényi divergence R_q(P‖Q) of finite order q > 1 with leave-one-out jackknife.

    R_q = (1/(q−1))·log(mean of exp(−(q−1)·log M)), computed through
    log-sum-exp; the standard error comes from the n leave-one-out replicas
    (the estimator is nonlinear, so the plain CLT error would be wrong).
    ValueError for q ≤ 1, NaN or ∞ (the sample formula has no q → ∞ limit).
    """
    if not 1.0 < q < np.inf:
        raise ValueError(f"Renyi order must be finite with q > 1, got {q}")
    kind = f"renyi-{q:g}"
    logw, n_rej = _usable_log_weights(weights)
    n = logw.size
    if n < 2:
        return DivergenceEstimate(np.nan, np.inf, n, n_rej, kind=kind)
    a = -(q - 1.0) * logw
    total = float(logsumexp(a))
    value = (total - np.log(n)) / (q - 1.0)
    # leave-one-out log-sum-exp; exact cancellation means one path dominates
    with np.errstate(divide="ignore", invalid="ignore"):
        loo = total + np.log1p(-np.exp(a - total))
    if not np.all(np.isfinite(loo)):
        return DivergenceEstimate(float(value), np.inf, n, n_rej, kind=kind)
    reps = (loo - np.log(n - 1)) / (q - 1.0)
    se = float(np.sqrt((n - 1) / n * np.sum((reps - reps.mean()) ** 2)))
    return DivergenceEstimate(float(value), se, n, n_rej, kind=kind)


def gaussian_kl(
    mean0: np.ndarray, cov0: np.ndarray, mean1: np.ndarray, cov1: np.ndarray
) -> float:
    """KL(N(mean0, cov0) ‖ N(mean1, cov1)) in nats, without cancellation near zero.

    With L₁ the Cholesky factor of cov1 and x the eigenvalues of
    L₁⁻¹(cov0 − cov1)L₁⁻ᵀ, KL = ½·[Σ −(log(1 + x) − x) + ‖L₁⁻¹(mean1 − mean0)‖²]:
    non-negative terms, each formed without cancellation, so a KL near zero
    keeps its relative accuracy (tested to 1e-12 against 40-digit arithmetic
    down to KL ≈ 1e-13).  ValueError unless both covariances are positive
    definite.
    """
    mean0 = np.asarray(mean0, dtype=float)
    mean1 = np.asarray(mean1, dtype=float)
    cov0 = np.asarray(cov0, dtype=float)
    cov1 = np.asarray(cov1, dtype=float)
    try:
        chol1 = np.linalg.cholesky(cov1)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"covariances must be symmetric positive definite: {exc}")
    half = solve_triangular(chol1, cov0 - cov1, lower=True)
    x = np.linalg.eigvalsh(solve_triangular(chol1, half.T, lower=True))
    if not np.all(x > -1.0):
        raise ValueError("covariances must be symmetric positive definite: cov0 is not")
    shift = solve_triangular(chol1, mean1 - mean0, lower=True)
    return 0.5 * float(shift @ shift - np.sum(_log1p_minus_x(x)))


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares slope of log(y) against log(x).

    ``ci95`` is the half-width of the 95% confidence interval for the slope
    (t-distribution, n − 2 degrees of freedom); ``r_squared`` the usual
    coefficient of determination of the log–log fit.
    """

    slope: float
    intercept: float
    r_squared: float
    ci95: float
    n_points: int


def fit_loglog_slope(x: np.ndarray, y: np.ndarray) -> SlopeFit:
    """Fit log(y) = slope·log(x) + intercept by ordinary least squares.

    All inputs must be strictly positive and x must take at least two values.
    At least three points are required, so the interval has n − 2 ≥ 1 degrees
    of freedom; points lying exactly on a line give an interval of zero width.
    Inputs that admit no fit raise ValueError.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    if x.size < 3:
        raise ValueError("need at least 3 points to fit a slope with a CI")
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise ValueError("log-log fit requires strictly positive x and y")
    lx = np.log(x)
    ly = np.log(y)
    n = x.size
    mx = lx.mean()
    my = ly.mean()
    sxx = float(np.sum((lx - mx) ** 2))
    if sxx == 0.0:
        raise ValueError("log-log fit needs x values with spread; all x are equal")
    sxy = float(np.sum((lx - mx) * (ly - my)))
    slope = sxy / sxx
    intercept = my - slope * mx
    resid = ly - (slope * lx + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((ly - my) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    dof = n - 2
    sigma2 = ss_res / dof
    stderr = np.sqrt(sigma2 / sxx)
    ci95 = float(stdtrit(dof, 0.975) * stderr)
    return SlopeFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=float(r_squared),
        ci95=ci95,
        n_points=int(n),
    )


@dataclass(frozen=True)
class LocalErrorReport:
    """One-step strong/weak errors of a scheme against the true diffusion.

    ``errors[name]`` is (mean, se) for each name of :data:`ERROR_COLUMNS`:
    per step size of ``h``, a squared error and its standard error.
    ``strong_*`` is E‖Δ‖² for the position (x) and momentum (p) component of
    the one-step defect Δ = (scheme step) − (diffusion step) under a
    synchronous coupling (identical Brownian increments).  ``weak_*`` is the
    squared conditional mean defect E‖E[Δ | z₀]‖², estimated without bias by
    the cross product ⟨Δ⁽¹⁾, Δ⁽²⁾⟩ of two replicas that share the initial
    state but use independent Brownian paths; it may fluctuate below zero
    when the true value is tiny.  Overdamped schemes carry zeros in the
    momentum columns.  The report fits nothing; a caller fits a column's
    decay order with :func:`fit_loglog_slope`.
    """

    scheme: str
    h: np.ndarray
    m: np.ndarray
    errors: dict[str, tuple[np.ndarray, np.ndarray]]
    n_paths: int


def local_error_sweep(
    scheme: str,
    potential: Potential,
    grids,
    *,
    gamma: float | None = None,
    n_paths: int = 4096,
    seed: int = 0,
    threads: int = 1,
) -> LocalErrorReport:
    """One-step error sweep over a family of single-step grids, quadratic targets only.

    Each entry of ``grids`` must be a TimeGrid with N = 1 whose horizon plays
    the role of the step size h; its ``m`` sets the midpoint resolution.  The
    reference is the exact Ornstein–Uhlenbeck flow driven by the same
    increments, so the target must be quadratic.  Only step endpoints enter
    the errors: the scheme's comes from :meth:`~girsanovlab.engine.Scheme.advance`
    (for DM-ULMC the closed-form marginal update, with no inner fixed point
    and so no step-size check of its own) and the reference's from the
    affine map of :func:`~girsanovlab.integrators.ou_endpoint_map` (the
    overdamped flow for EM-LD and M-LMC, the kinetic one for ULMC and
    DM-ULMC), built once per grid before the walk and shared by every batch
    and both replicas (tested).  Start states are drawn from the default
    (stationary) law, resolved once per call by
    :func:`~girsanovlab.engine.start_law` (tested).  Strong errors use
    replica 1 only; weak errors pair two replicas sharing the start state.
    Path p's replica 1 is row p of the ξ and residual streams, its replica 2
    row n_paths + p.  Deterministic midpoint schedules are used throughout.

    The sweep runs on :func:`~girsanovlab.engine.walk_grids` with two
    streams, ξ (d words per cell) and the residual (z words), over both
    replicas, so each noise word is drawn once for all grids.  Each grid
    runs on its own batches whatever the other grids are, so the sweep
    returns, bit for bit, the errors of sweeping each grid alone, at any
    ``threads`` (tested).  What the sweep adds to the walk is its replica
    pairing; both replicas of path p map the same start row, which the walk
    draws once.  Held across windows: the four (n_paths,) per-path error
    columns of every grid, and each replica-1 batch's (rows, z) defects
    until its replica-2 partner arrives.  Partners lie
    n_paths = k·``BLOCK_PATHS`` + r rows apart in every grid, so the sweep
    visits the windows of replica 1's k whole blocks in pairs: window i,
    then the window k·``BLOCK_PATHS`` rows on, which serves each grid's
    partners of the rows r rows before window i's.  A replica-1 batch waits
    for at most its grid's next r rows and a window, so the sweep holds the
    defects of about a block's rows per grid at most, not of n_paths rows,
    for any n_paths (tested); when r = 0, of one window's batches.  For
    DM-ULMC no (m+1) × m kernel table is built (tested).
    """
    # looked up at call time, so wrappers installed on the module see the calls
    from .integrators import ou_endpoint_map

    s = scheme_for(scheme)
    kinetic = s.kinetic
    s.check_gamma(gamma)
    if n_paths < 2:
        raise ValueError(f"need n_paths >= 2 for a standard error, got {n_paths}")
    if not potential.is_quadratic:
        raise ValueError(
            "the local-error sweep couples against the exact Gaussian flow "
            "and needs a quadratic potential"
        )
    grids = list(grids)
    if any(grid.N != 1 for grid in grids):
        raise ValueError("local_error_sweep expects single-step grids (N = 1)")
    d = potential.d
    zdim = 2 * d if kinetic else d
    schedules = [s.schedule(grid) for grid in grids]
    references = [
        ou_endpoint_map(potential, gamma if kinetic else None, grid.h / grid.m, grid.m)
        for grid in grids
    ]
    per_path = [{name: np.empty(n_paths) for name in ERROR_COLUMNS} for _ in grids]

    # the walk's windows of replica 1's whole blocks come in `pairs`; window
    # i of them is visited beside window i + pairs, which serves every grid's
    # replica-2 rows n_paths % BLOCK_PATHS rows before its partners' (these
    # partners themselves when that is 0), so the held defects stay within a
    # block's rows
    def visit(i: int, rows: int) -> int:
        pairs = n_paths // BLOCK_PATHS * (BLOCK_PATHS // rows)
        return i // 2 + i % 2 * pairs if i < 2 * pairs else i

    held, lock = {}, threading.Lock()

    def eval_batch(g, first, lo, hi, noise, z0):
        xi, resid = noise
        dz = s.advance(potential, schedules[g], gamma, z0, xi) - references[g](z0, xi, resid)
        out = per_path[g]
        if first < n_paths:  # replica 1
            # x and p parts; p is empty for overdamped schemes, so its sums are 0
            out["strong_x"][lo:hi] = np.sum(dz[:, :d] ** 2, axis=1)
            out["strong_p"][lo:hi] = np.sum(dz[:, d:] ** 2, axis=1)
        with lock:
            partner = held.pop((g, lo), None)
            if partner is None:
                held[(g, lo)] = dz
        if partner is not None:
            d1, d2 = (dz, partner) if first < n_paths else (partner, dz)
            out["weak_x"][lo:hi] = np.sum(d1[:, :d] * d2[:, :d], axis=1)
            out["weak_p"][lo:hi] = np.sum(d1[:, d:] * d2[:, d:], axis=1)

    walk_grids(eval_batch, seed, [grid.m for grid in grids], n_paths, threads,
               ((d, LABEL_PATH), (zdim, LABEL_RESIDUAL)), start_law(potential, kinetic),
               replicas=2, visit=visit)
    errors = {
        name: (
            np.asarray([float(c[name].mean()) for c in per_path]),
            np.asarray([float(c[name].std(ddof=1) / np.sqrt(n_paths)) for c in per_path]),
        )
        for name in ERROR_COLUMNS
    }
    return LocalErrorReport(
        scheme=scheme,
        h=np.asarray([grid.h for grid in grids]),
        m=np.asarray([grid.m for grid in grids], dtype=int),
        errors=errors,
        n_paths=n_paths,
    )
