"""Named experiments over the weight machinery, with deterministic CSV reports.

Each experiment consumes a validated :class:`~girsanovlab.config.ExperimentConfig`,
produces rows for a versioned CSV schema, and evaluates built-in pass/fail
thresholds.  All numeric CSV content is a deterministic function of
(config, seed) — independent of thread count and wall clock — so re-running a
config reproduces the file byte for byte.

CSV schemas (version tag in the first ``#`` comment line):

* ``report-v1``: experiment, config_hash, h, d, q, m, gamma, estimate, se,
  slope, rejections, status.  Used by normalization, adapted-equivalence,
  fd-malliavin, eta-refinement, kl-order-sweep, trace-diagnostics.
  The q column holds the divergence order (1 = KL) where applicable.
* ``local-error-v1``: per-h strong/weak squared one-step errors with their
  standard errors, position and momentum separately.
* ``complexity-v1``: per (scheme, epsilon) rows of the gradient-query table,
  plus fitted-exponent rows.

Not-applicable cells are left empty.

A runner trusts its config: the target and the scheme an experiment needs
are checked when the config loads (:mod:`girsanovlab.config`).

``_RUNNERS`` maps each experiment to its runner, CSV schema and columns:
:func:`run_experiment` builds the one :class:`RunResult`, and the runner
fills in its rows (each from ``_base_row``) and checks.  The local-error
runner fits each column of the
:class:`~girsanovlab.divergences.LocalErrorReport` once with
:func:`~girsanovlab.divergences.fit_loglog_slope`; a failed fit reads
"no fit: <reason>", as in the KL order sweep, followed by each grid whose
estimate is not positive, with its value and standard error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .affine import (
    marginal_moments,
    quadratic_path_kl,
    step_maps_for_schedule,
)
from .config import ExperimentConfig
from .divergences import (
    REJECTION_RELIABILITY_LIMIT,
    estimate_kl,
    estimate_renyi,
    fit_loglog_slope,
    gaussian_kl,
    local_error_sweep,
)
from .engine import generic_log_weights, scheme_for, start_states, sweep_weights
from .girsanov import summary_log_weight, trace_diagnostics_mlmc
from .paths import NoisePath, TimeGrid, noise_matrix, refine_noise
from .potentials import AnisotropicQuadratic, IsotropicQuadratic, Potential, stationary_moments

__all__ = [
    "Check",
    "RunResult",
    "KL_SLOPE_THRESHOLDS",
    "run",
    "run_experiment",
]

CSV_SCHEMA_REPORT = "report-v1"
CSV_SCHEMA_LOCAL = "local-error-v1"
CSV_SCHEMA_COMPLEXITY = "complexity-v1"

REPORT_COLUMNS = (
    "experiment", "config_hash", "h", "d", "q", "m", "gamma",
    "estimate", "se", "slope", "rejections", "status",
)
LOCAL_COLUMNS = (
    "experiment", "config_hash", "h", "d", "m", "gamma",
    "strong_x", "strong_x_se", "strong_p", "strong_p_se",
    "weak_x", "weak_x_se", "weak_p", "weak_p_se", "status",
)
COMPLEXITY_COLUMNS = (
    "experiment", "config_hash", "scheme", "epsilon", "d", "m", "gamma",
    "h", "n_steps", "queries", "kl", "marginal_kl", "exponent", "status",
)

#: one-sided log-log slope thresholds for the KL order sweep: the
#: bound-implied decay order minus the 0.5 fitting tolerance (0.2 for the
#: overdamped midpoint, whose acceptance threshold is pinned at 0.8).
KL_SLOPE_THRESHOLDS = {"em-ld": 0.5, "mlmc": 0.8, "ulmc": 1.5, "dmulmc": 2.5}

#: momentum local-error slope thresholds for the double-midpoint scheme
#: (squared-error slopes: strong bound h^5, weak bound h^6, minus 0.5).
LOCAL_ERROR_THRESHOLDS = {"dmulmc": {"strong_p": 4.5, "weak_p": 5.5}}

#: trace gaps must at least nearly halve per inner-grid doubling
TRACE_GAP_RATIO_LIMIT = 1.0 / 1.7

#: finite-difference agreement for derivative blocks
FD_REL_TOL = 1e-5
FD_ABS_FLOOR = 1e-10
FD_PROBE = 1e-5

#: inner-grid doublings of the eta-refinement experiment
ETA_DOUBLINGS = 4

#: built-in accuracy ladder and search cap for the complexity table
EPSILON_LADDER = (0.18, 0.12, 0.08, 0.05, 0.03)
COMPLEXITY_STEP_CAP = 2**14

#: schemes of the complexity table in decreasing expected exponent order, and
#: the pair its dimension-doubling check compares
COMPLEXITY_SCHEMES = ("mlmc", "ulmc", "dmulmc")
DOUBLING_SCHEMES = ("mlmc", "dmulmc")


@dataclass(frozen=True)
class Check:
    """One built-in threshold evaluation of an experiment."""

    label: str
    passed: bool
    detail: str


@dataclass
class RunResult:
    """Rows, rendered CSV text, and threshold outcomes of one experiment."""

    experiment: str
    config_hash: str
    schema: str
    columns: tuple[str, ...]
    rows: list[dict]
    checks: list[Check]
    csv_text: str = ""
    csv_path: str | None = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary_lines(self) -> list[str]:
        lines = []
        for c in self.checks:
            lines.append(f"[{self.experiment}] {c.label}: {c.detail}: "
                         f"{'PASS' if c.passed else 'FAIL'}")
        return lines


def _fmt(value) -> str:
    """CSV cell: 17 significant digits for floats, plain ints, '' for n/a."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


def render_csv(result: RunResult, cfg: ExperimentConfig) -> str:
    lines = [
        f"# girsanovlab csv schema {result.schema}",
        f"# experiment={cfg.experiment} config_hash={cfg.config_hash} seed={cfg.seed}",
        ",".join(result.columns),
    ]
    for row in result.rows:
        lines.append(",".join(_fmt(row.get(col)) for col in result.columns))
    return "\n".join(lines) + "\n"


def _base_row(cfg: ExperimentConfig, **kv) -> dict:
    row = {
        "experiment": cfg.experiment,
        "config_hash": cfg.config_hash,
        "d": cfg.potential.d,
        "gamma": cfg.gamma if scheme_for(cfg.scheme).kinetic else None,
        "status": "ok",
    }
    row.update(kv)
    return row


# ---------------------------------------------------------------------------
# normalization: E[M] = 1
# ---------------------------------------------------------------------------


def _run_normalization(cfg: ExperimentConfig, threads: int, result: RunResult) -> None:
    schedules = cfg.schedules()
    runs = sweep_weights(
        cfg.scheme, cfg.potential, schedules=schedules, gamma=cfg.gamma,
        n_paths=cfg.n_paths, seed=cfg.seed, threads=threads,
    )
    for schedule, wr in zip(schedules, runs):
        grid = schedule.grid
        logw = wr.log_weight[wr.invertible]
        with np.errstate(over="ignore"):
            w = np.exp(logw)
        ok = w.size >= 2 and bool(np.all(np.isfinite(w)))
        est = float(np.mean(w)) if ok else float("inf")
        se = float(np.std(w, ddof=1) / np.sqrt(w.size)) if ok else float("inf")
        row = _base_row(
            cfg, h=grid.h, q=None, m=grid.m, estimate=est, se=se, slope=None,
            rejections=wr.n_rejected, status="ok" if ok else "failed",
        )
        result.rows.append(row)
        gap = abs(est - 1.0)
        passed = ok and gap <= 3.0 * se and se <= 0.01
        result.checks.append(Check(
            f"h={grid.h:g} weight normalization",
            passed,
            f"|mean(M) - 1| = {gap:.3g} vs 3*SE = {3 * se:.3g}, SE = {se:.3g} <= 0.01",
        ))


# ---------------------------------------------------------------------------
# adapted-equivalence: frozen-gradient overdamped weights match the classical
# adapted change of measure, with an exactly vanishing determinant correction
# ---------------------------------------------------------------------------


def _run_adapted_equivalence(cfg: ExperimentConfig, threads: int, result: RunResult) -> None:
    scheme = scheme_for(cfg.scheme)
    potential = cfg.potential
    d = potential.d
    for schedule in cfg.schedules():
        grid = schedule.grid
        n = cfg.n_paths
        x0 = start_states(potential, False, cfg.seed, n)
        xi = noise_matrix(cfg.seed, n, grid.n_cells, d)
        traj = scheme.simulate(potential, schedule, None, x0, xi)
        psi = scheme.drift(potential, traj)
        summary = scheme.summary(potential, traj)
        lw = summary_log_weight(psi, summary, xi)
        # classical adapted exponent: -sum psi.xi - energy (Ito integral form)
        ito = np.einsum("bid,bid->b", psi, xi.reshape(n, grid.n_cells, d))
        classical = -ito - lw.energy
        max_cf = float(np.max(np.abs(lw.log_cf_det)))
        max_diff = float(np.max(np.abs(lw.log_weight - classical)))
        max_trace = float(np.max(np.abs(summary.trace)))
        row = _base_row(
            cfg, h=grid.h, q=None, m=grid.m, estimate=max_diff, se=None,
            slope=None, rejections=int((~lw.invertible).sum()), status="ok",
        )
        result.rows.append(row)
        result.checks.append(Check(
            f"h={grid.h:g} determinant correction vanishes",
            max_cf == 0.0 and max_trace == 0.0,
            f"max |log_cf_det| = {max_cf:.3g} (exact zero required)",
        ))
        result.checks.append(Check(
            f"h={grid.h:g} classical Girsanov agreement",
            max_diff <= 1e-10,
            f"max |log_weight - classical| = {max_diff:.3g} <= 1e-10",
        ))


# ---------------------------------------------------------------------------
# fd-malliavin: analytic derivative blocks vs central finite differences
# ---------------------------------------------------------------------------


def _run_fd_malliavin(cfg: ExperimentConfig, threads: int, result: RunResult) -> None:
    scheme = scheme_for(cfg.scheme)
    potential = cfg.potential
    d = potential.d
    n = min(cfg.n_paths, 64)  # derivative checks need few paths
    for schedule in cfg.schedules():
        grid = schedule.grid
        z0 = start_states(potential, scheme.kinetic, cfg.seed, n)
        xi = noise_matrix(cfg.seed, n, grid.n_cells, d)
        traj = scheme.simulate(potential, schedule, cfg.gamma, z0, xi)
        analytic = scheme.blocks(potential, traj).full
        s = grid.n_cells * d
        numeric = np.empty((n, s, s))
        for cell in range(grid.n_cells):
            for a in range(d):
                col = cell * d + a
                for sign in (+1.0, -1.0):
                    pert = xi.copy()
                    pert[:, cell, a] += sign * FD_PROBE
                    moved = scheme.simulate(potential, schedule, cfg.gamma, z0, pert)
                    flat = scheme.drift(potential, moved).reshape(n, s)
                    if sign > 0:
                        numeric[:, :, col] = flat
                    else:
                        numeric[:, :, col] -= flat
        numeric /= 2.0 * FD_PROBE
        scaled = np.abs(analytic - numeric) / np.maximum(
            np.abs(analytic), FD_ABS_FLOOR / FD_REL_TOL)
        worst = float(scaled.max())
        row = _base_row(
            cfg, h=grid.h, q=None, m=grid.m, estimate=worst, se=None,
            slope=None, rejections=0, status="ok",
        )
        result.rows.append(row)
        result.checks.append(Check(
            f"h={grid.h:g} derivative blocks vs finite differences",
            worst <= FD_REL_TOL,
            f"max scaled error = {worst:.3g} <= {FD_REL_TOL:g} "
            f"(relative, absolute floor {FD_ABS_FLOOR:g})",
        ))


# ---------------------------------------------------------------------------
# eta-refinement: log-weight stability under nested inner-grid refinement
# ---------------------------------------------------------------------------


def _run_eta_refinement(cfg: ExperimentConfig, threads: int, result: RunResult) -> None:
    scheme = scheme_for(cfg.scheme)
    potential = cfg.potential
    d = potential.d
    n = min(cfg.n_paths, 100)
    for schedule in cfg.schedules():
        grid = schedule.grid
        z0 = start_states(potential, scheme.kinetic, cfg.seed, n)
        noise = NoisePath(noise_matrix(cfg.seed, n, grid.n_cells, d), cfg.seed, 0)
        logws = []
        keep = np.ones(n, dtype=bool)
        for level in range(ETA_DOUBLINGS + 1):
            lw = generic_log_weights(cfg.scheme, potential, schedule, cfg.gamma, z0, noise.xi)
            logws.append(lw.log_weight)
            keep &= lw.invertible
            if level < ETA_DOUBLINGS:
                noise = refine_noise(noise)
                schedule = schedule.refined()
        n_rej = int((~keep).sum())
        gaps = []
        for level in range(ETA_DOUBLINGS):
            delta = np.abs(logws[level + 1][keep] - logws[level][keep])
            gaps.append(float(delta.max()) if delta.size else float("nan"))
            row = _base_row(
                cfg, h=grid.h, q=None, m=grid.m * 2**level, estimate=gaps[-1],
                se=None, slope=None, rejections=n_rej, status="ok",
            )
            result.rows.append(row)
        decreasing = all(gaps[j + 1] < gaps[j] for j in range(len(gaps) - 1))
        gap_text = " > ".join(f"{g:.3g}" for g in gaps)
        result.checks.append(Check(
            f"h={grid.h:g} log-weight refinement stability",
            decreasing and n_rej == 0,
            f"max |log_weight(m) - log_weight(2m)| sequence {gap_text} "
            f"({n_rej} rejected)",
        ))


# ---------------------------------------------------------------------------
# kl-order-sweep: KL(P||Q) decay order in h, with the marginal lower bound
# ---------------------------------------------------------------------------


def _run_kl_order_sweep(cfg: ExperimentConfig, threads: int, result: RunResult) -> None:
    scheme = scheme_for(cfg.scheme)
    potential = cfg.potential
    hs, kls, ses = [], [], []
    schedules = cfg.schedules()
    # one walk for every grid: the grids' rows are prefixes of the same words
    runs = sweep_weights(
        cfg.scheme, potential, schedules=schedules, gamma=cfg.gamma,
        n_paths=cfg.n_paths, seed=cfg.seed, threads=threads,
    )
    if potential.is_quadratic:
        mean0, cov0 = stationary_moments(potential, kinetic=scheme.kinetic)
    for schedule, wr in zip(schedules, runs):
        grid = schedule.grid
        est = estimate_kl(wr)
        ok = est.reliable and np.isfinite(est.value)
        row = _base_row(
            cfg, h=grid.h, q=1.0, m=grid.m, estimate=est.value, se=est.se,
            slope=None, rejections=est.n_rejected,
            status="ok" if ok else "failed",
        )
        result.rows.append(row)
        if not est.reliable:
            result.checks.append(Check(
                f"h={grid.h:g} rejection rate",
                False,
                f"{est.n_rejected} of {cfg.n_paths} paths rejected "
                f"(> {100 * REJECTION_RELIABILITY_LIMIT:g}% invalidates the estimate)",
            ))
        hs.append(grid.h)
        kls.append(est.value)
        ses.append(est.se)
        for q in cfg.q_list:
            if q > 1.0:
                renyi = estimate_renyi(wr, q)
                result.rows.append(_base_row(
                    cfg, h=grid.h, q=q, m=grid.m, estimate=renyi.value,
                    se=renyi.se, slope=None, rejections=renyi.n_rejected,
                    status="ok" if renyi.reliable else "failed",
                ))
        if potential.is_quadratic:
            # the maps the sweep weighed this grid's paths through
            sm_mean, sm_cov = marginal_moments(wr.step_maps, mean0, cov0)
            marginal = gaussian_kl(sm_mean, sm_cov, mean0, cov0)
            bound_ok = marginal <= est.value + 3.0 * est.se
            result.checks.append(Check(
                f"h={grid.h:g} marginal lower bound",
                bool(bound_ok),
                f"gaussian_kl(marginals) = {marginal:.3g} <= "
                f"path KL {est.value:.3g} + 3*SE = {est.value + 3 * est.se:.3g}",
            ))
    finite = [(h, k) for h, k in zip(hs, kls) if np.isfinite(k) and k > 0]
    monotone = all(kls[j + 1] < kls[j] for j in range(len(kls) - 1))
    result.checks.append(Check(
        "KL estimates decrease monotonically in h",
        monotone and len(finite) == len(kls),
        "KL sequence " + " > ".join(f"{k:.4g}" for k in kls),
    ))
    threshold = KL_SLOPE_THRESHOLDS[cfg.scheme]
    try:
        fit = fit_loglog_slope(np.array([f[0] for f in finite]),
                               np.array([f[1] for f in finite]))
    except ValueError as exc:
        result.checks.append(Check(
            "fitted KL decay order", False,
            f"no fit over {len(finite)} positive finite estimates: {exc}",
        ))
    else:
        result.rows.append(_base_row(
            cfg, h=None, q=1.0, m=None, estimate=fit.slope, se=None,
            slope=fit.slope, rejections=None, status="ok",
        ))
        result.checks.append(Check(
            "fitted KL decay order",
            fit.slope >= threshold,
            f"log-log slope {fit.slope:.3f} >= {threshold:g} "
            f"(R^2 = {fit.r_squared:.4f})",
        ))


# ---------------------------------------------------------------------------
# local-error-sweep: one-step strong/weak errors under synchronous coupling
# ---------------------------------------------------------------------------


def _run_local_error_sweep(cfg: ExperimentConfig, threads: int, result: RunResult) -> None:
    grids = [TimeGrid(h, 1, m) for h, m in zip(cfg.h_list, cfg.m_list)]
    report = local_error_sweep(
        cfg.scheme, cfg.potential, grids, gamma=cfg.gamma,
        n_paths=cfg.n_paths, seed=cfg.seed, threads=threads,
    )
    for i, grid in enumerate(grids):
        cells = {}
        for name, (values, se_vals) in report.errors.items():
            cells[name], cells[name + "_se"] = values[i], se_vals[i]
        result.rows.append(_base_row(cfg, h=grid.h, m=grid.m, **cells))
    thresholds = LOCAL_ERROR_THRESHOLDS.get(cfg.scheme, {})
    lx = np.log(report.h)
    for name, (values, se_vals) in report.errors.items():
        bound = thresholds.get(name)
        try:
            fit = fit_loglog_slope(report.h, values)
        except ValueError as exc:
            if bound is not None:
                # name the grids the log-log fit cannot take
                bad = "; ".join(
                    f"h={h:g} m={m}: {v:.3g} +/- {se:.2g}"
                    for h, m, v, se in zip(report.h, report.m, values, se_vals)
                    if not v > 0.0
                )
                result.checks.append(Check(
                    f"{name} squared-error decay order", False,
                    f"no fit: {exc}" + (f" (estimate <= 0 at {bad})" if bad else ""),
                ))
            continue
        if bound is None:
            result.checks.append(Check(
                f"{name} squared-error decay order (informational)",
                True,
                f"slope {fit.slope:.3f} (R^2 = {fit.r_squared:.4f})",
            ))
            continue
        # slope standard error propagated from the per-point SEs (a fit
        # exists, so the values are positive and the h spread)
        coef = (lx - lx.mean()) / np.sum((lx - lx.mean()) ** 2)
        slope_se = float(np.sqrt(np.sum(coef**2 * (se_vals / values) ** 2)))
        result.checks.append(Check(
            f"{name} squared-error decay order",
            bool(fit.slope - slope_se >= bound),
            f"slope {fit.slope:.3f} - SE {slope_se:.3f} >= {bound:g}",
        ))


# ---------------------------------------------------------------------------
# trace-diagnostics: discrete block traces against their refinement limits
# ---------------------------------------------------------------------------


def _run_trace_diagnostics(cfg: ExperimentConfig, threads: int, result: RunResult) -> None:
    scheme = scheme_for(cfg.scheme)
    potential = cfg.potential
    d = potential.d
    n = min(cfg.n_paths, 4096)
    gaps = []
    zero_ok = True
    for schedule in cfg.schedules():
        grid = schedule.grid
        x0 = start_states(potential, False, cfg.seed, n)
        xi = noise_matrix(cfg.seed, n, grid.n_cells, d)
        traj = scheme.simulate(potential, schedule, None, x0, xi)
        diag = trace_diagnostics_mlmc(potential, traj)
        zero_ok &= bool(np.all(diag.tr_a2 == 0.0))
        per_path = np.maximum(
            np.abs(diag.tr_ba - diag.limit_ba),
            np.abs(diag.tr_b2 - diag.limit_b2),
        ).mean(axis=1)
        est = float(per_path.mean())
        se = float(per_path.std(ddof=1) / np.sqrt(n))
        gaps.append(est)
        result.rows.append(_base_row(
            cfg, h=grid.h, q=None, m=grid.m, estimate=est, se=se, slope=None,
            rejections=0, status="ok",
        ))
    result.checks.append(Check(
        "strictly-triangular trace vanishes",
        zero_ok,
        "tr(A^2) = 0 exactly on every path and step",
    ))
    doubling = [j for j in range(len(gaps) - 1)
                if cfg.m_list[j + 1] == 2 * cfg.m_list[j]]
    for j in doubling:
        ratio = gaps[j + 1] / gaps[j] if gaps[j] > 0 else float("inf")
        result.checks.append(Check(
            f"trace gap halves from m={cfg.m_list[j]} to m={cfg.m_list[j + 1]}",
            ratio <= TRACE_GAP_RATIO_LIMIT,
            f"gap ratio {ratio:.3f} <= {TRACE_GAP_RATIO_LIMIT:.3f}",
        ))
    if not doubling:
        result.checks.append(Check(
            "trace gap halving", False,
            "config has no m-doubling pairs; give grids with doubled m",
        ))


# ---------------------------------------------------------------------------
# complexity-table: gradient queries to reach epsilon accuracy (qualitative)
# ---------------------------------------------------------------------------


def _complexity_kls(scheme: str, potential: Potential, T: float, n_steps: int,
                    m: int, gamma) -> tuple[float, float]:
    """(path KL, marginal KL certificate) of a scheme at stationary start.

    The path-space KL between the scheme law and the diffusion law is the
    quantity the change-of-measure machinery bounds, and by data processing
    it dominates the marginal gaussian_kl at the horizon — the second value
    returned, which certifies the marginal accuracy the table claims.
    """
    grid = TimeGrid(T, n_steps, m)  # each scheme's deterministic schedule
    mean0, cov0 = stationary_moments(potential, kinetic=scheme_for(scheme).kinetic)
    maps = step_maps_for_schedule(scheme, potential, grid, gamma=gamma)
    path_kl = quadratic_path_kl(maps, mean0, cov0)
    mean, cov = marginal_moments(maps, mean0, cov0)
    return path_kl, gaussian_kl(mean, cov, mean0, cov0)


def _dm_inner_cells(n_steps: int, T: float) -> int:
    """Inner resolution rule for the double-midpoint scheme: m ~ h^{-3/2}.

    Balances the inner-quadrature contribution to the weight against the
    scheme's h^3 path-KL decay so the fitted order reflects the scheme, not
    the inner grid; gradient queries per step do not depend on m.
    """
    h = T / n_steps
    return max(3, int(np.ceil(3.0 * (1.0 / (8.0 * h)) ** 1.5)))


def _inner_cells(scheme: str, n_steps: int, T: float, m_cfg: int) -> int:
    """The complexity table's m: the double-midpoint rule, else the config's m."""
    return _dm_inner_cells(n_steps, T) if scheme == "dmulmc" else m_cfg


def _step_bound_floor(scheme: str, potential: Potential, T: float,
                      q_max: float) -> int:
    bound = scheme_for(scheme).step_bound(potential.beta, q_max)
    if not np.isfinite(bound):
        return 1
    return max(1, int(np.ceil(T / bound - 1e-12)))


def _search_steps(scheme: str, potential: Potential, T: float, m_cfg: int,
                  gamma, eps2: float, q_max: float, kls: dict
                  ) -> tuple[int | None, float, float]:
    """Smallest step count with path KL <= eps^2 (largest usable h).

    Returns (n_steps, path KL, marginal KL); n_steps is None when the cap is
    exhausted, with the last evaluated values reported.  ``kls`` memoizes the
    KL pair by (scheme, potential, n_steps) across one table's searches.
    """

    def kl_at(n_steps: int) -> tuple[float, float]:
        key = (scheme, potential, n_steps)
        if key not in kls:
            m = _inner_cells(scheme, n_steps, T, m_cfg)
            kls[key] = _complexity_kls(scheme, potential, T, n_steps, m, gamma)
        return kls[key]

    lo = _step_bound_floor(scheme, potential, T, q_max)
    value, marginal = kl_at(lo)
    if value <= eps2:
        return lo, value, marginal
    hi = lo
    while True:
        hi *= 2
        if hi > COMPLEXITY_STEP_CAP:
            return None, value, marginal
        value, marginal = kl_at(hi)
        if value <= eps2:
            break
    lo_fail = hi // 2
    while hi - lo_fail > 1:
        mid = (hi + lo_fail) // 2
        if kl_at(mid)[0] <= eps2:
            hi = mid
        else:
            lo_fail = mid
    value, marginal = kl_at(hi)
    return hi, value, marginal


def _double_dimension(potential: Potential) -> Potential:
    if isinstance(potential, IsotropicQuadratic):
        return IsotropicQuadratic(2 * potential.d, potential.beta)
    if isinstance(potential, AnisotropicQuadratic):
        return AnisotropicQuadratic(np.tile(potential.spectrum, 2))
    raise ValueError("dimension doubling needs a quadratic potential")


def _complexity_gamma(cfg: ExperimentConfig, scheme: str) -> float | None:
    """The config's friction for kinetic schemes, else √β; None otherwise."""
    if not scheme_for(scheme).kinetic:
        return None
    return cfg.gamma if cfg.gamma is not None else float(np.sqrt(cfg.potential.beta))


def _complexity_row(cfg: ExperimentConfig, scheme: str, eps: float,
                    potential: Potential, found: tuple) -> dict:
    """One (scheme, epsilon) row from a ``_search_steps`` result."""
    n_steps, kl, marginal = found
    m = _inner_cells(scheme, n_steps or 1, cfg.T, cfg.m_list[0])
    queries = None
    if n_steps:
        s = scheme_for(scheme)
        queries = s.grad_queries(s.schedule(TimeGrid(cfg.T, n_steps, m)))
    return _base_row(
        cfg, scheme=scheme, epsilon=eps, d=potential.d, m=m,
        gamma=_complexity_gamma(cfg, scheme), h=(cfg.T / n_steps) if n_steps else None,
        n_steps=n_steps, queries=queries, kl=kl if n_steps else None,
        marginal_kl=marginal if n_steps else None,
        status="ok" if n_steps else "unreachable",
    )


def _run_complexity_table(cfg: ExperimentConfig, threads: int, result: RunResult) -> None:
    potential = cfg.potential
    T = cfg.T
    m_cfg = cfg.m_list[0]
    q_max = max(cfg.q_list)
    exponents: dict[str, float] = {}
    kls: dict = {}
    certificate_ok = True
    for scheme in COMPLEXITY_SCHEMES:
        gamma = _complexity_gamma(cfg, scheme)
        points = []
        for eps in EPSILON_LADDER:
            found = _search_steps(scheme, potential, T, m_cfg, gamma, eps * eps, q_max, kls)
            result.rows.append(_complexity_row(cfg, scheme, eps, potential, found))
            n_steps, kl, marginal = found
            if n_steps is not None:
                certificate_ok &= marginal <= kl <= eps * eps
                points.append((1.0 / eps, n_steps))
        if len(points) >= 3:
            fit = fit_loglog_slope(np.array([p[0] for p in points]),
                                   np.array([p[1] for p in points], dtype=float))
            exponents[scheme] = fit.slope
            result.rows.append(_base_row(
                cfg, scheme=scheme, d=potential.d, gamma=gamma, exponent=fit.slope,
            ))
    result.checks.append(Check(
        "marginal accuracy certificate",
        certificate_ok,
        "gaussian_kl(marginals) <= path KL <= eps^2 on every reachable row",
    ))
    if all(s in exponents for s in COMPLEXITY_SCHEMES):
        e_m, e_u, e_d = (exponents[s] for s in COMPLEXITY_SCHEMES)
        result.checks.append(Check(
            "step-count exponent ordering (qualitative)",
            e_d <= e_u <= e_m,
            f"N ~ (1/eps)^a with a: double-midpoint {e_d:.3f} <= "
            f"frozen-gradient {e_u:.3f} <= overdamped midpoint {e_m:.3f}",
        ))
    else:
        result.checks.append(Check(
            "step-count exponent ordering (qualitative)", False,
            "some scheme had fewer than 3 reachable accuracy targets",
        ))
    # dimension-doubling ordering at a mid-ladder accuracy
    eps_mid = EPSILON_LADDER[len(EPSILON_LADDER) // 2]
    doubled = _double_dimension(potential)
    factors = {}
    for scheme in DOUBLING_SCHEMES:
        gamma = _complexity_gamma(cfg, scheme)
        pair = []
        for pot in (potential, doubled):
            found = _search_steps(scheme, pot, T, m_cfg, gamma, eps_mid * eps_mid, q_max,
                                   kls)
            result.rows.append(_complexity_row(cfg, scheme, eps_mid, pot, found))
            pair.append(found[0])
        if pair[0] and pair[1]:
            factors[scheme] = pair[1] / pair[0]
    if len(factors) == len(DOUBLING_SCHEMES):
        f_m, f_d = (factors[s] for s in DOUBLING_SCHEMES)
        result.checks.append(Check(
            "dimension-doubling ordering (qualitative)",
            f_m >= f_d,
            f"doubling d multiplies N by {f_m:.3f} (overdamped "
            f"midpoint) >= {f_d:.3f} (double-midpoint)",
        ))
    else:
        result.checks.append(Check(
            "dimension-doubling ordering (qualitative)", False,
            f"accuracy eps = {eps_mid:g} unreachable for some scheme",
        ))


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


#: experiment name → (runner, CSV schema, columns); a runner fills in the
#: rows and checks of the one RunResult that run_experiment builds
_RUNNERS = {
    "normalization": (_run_normalization, CSV_SCHEMA_REPORT, REPORT_COLUMNS),
    "adapted-equivalence": (_run_adapted_equivalence, CSV_SCHEMA_REPORT, REPORT_COLUMNS),
    "fd-malliavin": (_run_fd_malliavin, CSV_SCHEMA_REPORT, REPORT_COLUMNS),
    "eta-refinement": (_run_eta_refinement, CSV_SCHEMA_REPORT, REPORT_COLUMNS),
    "kl-order-sweep": (_run_kl_order_sweep, CSV_SCHEMA_REPORT, REPORT_COLUMNS),
    "local-error-sweep": (_run_local_error_sweep, CSV_SCHEMA_LOCAL, LOCAL_COLUMNS),
    "trace-diagnostics": (_run_trace_diagnostics, CSV_SCHEMA_REPORT, REPORT_COLUMNS),
    "complexity-table": (_run_complexity_table, CSV_SCHEMA_COMPLEXITY, COMPLEXITY_COLUMNS),
}


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> RunResult:
    """Execute the named experiment; no file output."""
    runner, schema, columns = _RUNNERS[cfg.experiment]
    result = RunResult(cfg.experiment, cfg.config_hash, schema, columns, [], [])
    runner(cfg, threads, result)
    result.csv_text = render_csv(result, cfg)
    return result


def run(cfg: ExperimentConfig, threads: int = 1,
        output: str | None = None) -> RunResult:
    """Execute the experiment and write its CSV report.

    The output path comes from ``output``, else the config's ``output`` key,
    else ``<experiment>.csv`` in the working directory.
    """
    result = run_experiment(cfg, threads)
    path = output or cfg.output or f"{cfg.experiment}.csv"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(result.csv_text)
    result.csv_path = path
    return result
