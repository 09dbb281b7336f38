"""Twelve-point acceptance suite: one PASS/FAIL verdict per criterion.

Each criterion pins a configuration, runs the matching built-in experiment
(or a direct numerical check where no experiment applies), and reduces the
outcome to a single line.  The suite is deterministic: a fixed default seed,
fixed configurations, and counter-based noise make every number reproducible
across runs and thread counts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .config import load_config
from .engine import scheme_for, start_states
from .experiments import RunResult, run_experiment
from .girsanov import carleman_fredholm_logdet, trace_square_mlmc
from .paths import TimeGrid, noise_matrix
from .potentials import IsotropicQuadratic

DEFAULT_SEED = 20260815

#: wall-clock budgets (seconds) stated by the criteria that carry one
RUNTIME_LIMITS = {1: 120.0, 6: 900.0, 7: 900.0}

#: log_cf_det linearization gaps must shrink at least this fast per h-halving
LINEARIZATION_RATIO_MIN = 6.0

CRITERION_NAMES = {
    1: "weight normalization",
    2: "adapted-drift reduction",
    3: "derivative blocks vs finite differences",
    4: "determinant linearization order",
    5: "discrete trace limits",
    6: "KL decay order, overdamped midpoint",
    7: "KL decay order, double-midpoint",
    8: "one-step local errors, double-midpoint",
    9: "log-weight refinement stability",
    10: "marginal KL below path KL",
    11: "determinism across repeats and threads",
    12: "step-count complexity ordering",
}


@dataclass(frozen=True)
class CriterionResult:
    """Outcome of one acceptance criterion."""

    index: int
    name: str
    passed: bool
    detail: str
    runtime_s: float
    artifacts: tuple[tuple[str, str], ...] = ()

    @property
    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.index:2d} [{status}] {self.name}: {self.detail}"


def _checks_summary(result: RunResult) -> str:
    return "; ".join(f"{c.label}: {c.detail}" for c in result.checks)


class AcceptanceSuite:
    """Runs the acceptance criteria against pinned configurations.

    Heavy experiment results are memoized so criteria that share a
    configuration (the KL sweeps feed both the order checks and the
    marginal-bound check) execute once.
    """

    def __init__(self, seed: int = DEFAULT_SEED, threads: int = 1):
        self.seed = int(seed)
        self.threads = int(threads)
        self._memo: dict[str, RunResult] = {}

    # -- configuration texts ------------------------------------------------

    def _experiment(self, key: str, text: str, threads: int | None = None) -> RunResult:
        if key not in self._memo:
            cfg = load_config(text)
            self._memo[key] = run_experiment(
                cfg, self.threads if threads is None else threads)
        return self._memo[key]

    def _kl_sweep_mlmc(self) -> RunResult:
        return self._experiment("kl-mlmc", f"""
[experiment]
name = kl-order-sweep
n_paths = 100000
seed = {self.seed}
[potential]
kind = gaussian
d = 2
[grid]
T = 0.5
h = 1/8 1/16 1/32 1/64
m = 8
[scheme]
name = M-LMC
""")

    def _kl_sweep_dmulmc(self) -> RunResult:
        return self._experiment("kl-dmulmc", f"""
[experiment]
name = kl-order-sweep
n_paths = 100000
seed = {self.seed}
[potential]
kind = gaussian
d = 2
[grid]
T = 0.5
h = 1/8 1/16 1/32 1/64
m = 3 8 24 64
[scheme]
name = DM-ULMC
gamma = 1.0
""")

    # -- criteria -----------------------------------------------------------

    def criterion_1(self) -> CriterionResult:
        t0 = time.perf_counter()
        result = self._experiment("normalization", f"""
[experiment]
name = normalization
n_paths = 100000
seed = {self.seed}
[potential]
kind = gaussian
d = 2
[grid]
T = 0.5
N = 8
m = 8
[scheme]
name = M-LMC
""", threads=1)
        elapsed = time.perf_counter() - t0
        row = result.rows[0]
        gap = abs(row["estimate"] - 1.0)
        se = row["se"]
        in_budget = elapsed <= RUNTIME_LIMITS[1]
        passed = result.passed and in_budget
        detail = (
            f"|mean(M) - 1| = {gap:.2e} <= 3*SE = {3 * se:.2e}, "
            f"SE = {se:.2e} <= 0.01, 1e5 paths, "
            f"{elapsed:.1f}s <= {RUNTIME_LIMITS[1]:.0f}s single-threaded"
        )
        return self._finish(1, passed, detail, t0, result)

    def criterion_2(self) -> CriterionResult:
        t0 = time.perf_counter()
        result = self._experiment("adapted", f"""
[experiment]
name = adapted-equivalence
n_paths = 100
seed = {self.seed}
[potential]
kind = gaussian
d = 3
[grid]
T = 0.5
N = 4
m = 8
[scheme]
name = EM-LD
""")
        detail = (
            "log_cf_det = 0 exactly and "
            f"max |log_weight - classical exponent| = "
            f"{result.rows[0]['estimate']:.2e} <= 1e-10, 100 paths, d=3, m=8"
        )
        return self._finish(2, result.passed, detail, t0, result)

    def criterion_3(self) -> CriterionResult:
        t0 = time.perf_counter()
        results = []
        for key, label in (("fd-mlmc", "M-LMC"), ("fd-dmulmc", "DM-ULMC")):
            results.append(self._experiment(key, f"""
[experiment]
name = fd-malliavin
n_paths = 20
seed = {self.seed}
[potential]
kind = perturbed-quadratic
spectrum = 1.0 1.0
[grid]
T = 0.5
N = 2
m = 4
[scheme]
name = {label}
"""))
        passed = all(r.passed for r in results)
        worsts = [r.rows[0]["estimate"] for r in results]
        detail = (
            f"max scaled |analytic - central FD| over every entry: "
            f"overdamped midpoint {worsts[0]:.2e}, double-midpoint "
            f"{worsts[1]:.2e}, tolerance 1e-5 (abs floor 1e-10), 20 paths"
        )
        return self._finish(3, passed, detail, t0, *results)

    def criterion_4(self) -> CriterionResult:
        t0 = time.perf_counter()
        potential, s = IsotropicQuadratic(2), scheme_for("mlmc")
        T, m, n = 0.4, 64, 100
        gaps = []
        for n_steps in (2, 4, 8):  # h = 0.2, 0.1, 0.05 at fixed T
            grid = TimeGrid(T, n_steps, m)
            x0 = start_states(potential, s.kinetic, self.seed, n)
            xi = noise_matrix(self.seed, n, grid.n_cells, potential.d)
            traj = s.simulate(potential, s.schedule(grid), None, x0, xi)
            exact, _ = carleman_fredholm_logdet(s.summary(potential, traj))
            tr_d2 = trace_square_mlmc(potential, traj).sum(axis=1)
            gaps.append(float(np.mean(np.abs(exact - (-0.5 * tr_d2)))))
        ratios = [gaps[i] / gaps[i + 1] for i in range(2)]
        passed = all(r >= LINEARIZATION_RATIO_MIN for r in ratios)
        detail = (
            f"mean |log_cf_det + tr(D^2)/2| = "
            + " -> ".join(f"{g:.3e}" for g in gaps)
            + f" over h = 0.2 -> 0.1 -> 0.05; shrink factors "
            + ", ".join(f"{r:.2f}" for r in ratios)
            + f" >= {LINEARIZATION_RATIO_MIN:g} (m = {m}, {n} paths)"
        )
        return self._finish(4, passed, detail, t0)

    def criterion_5(self) -> CriterionResult:
        t0 = time.perf_counter()
        result = self._experiment("traces", f"""
[experiment]
name = trace-diagnostics
n_paths = 512
seed = {self.seed}
[potential]
kind = gaussian
d = 2
[grid]
T = 0.5
h = 1/8 1/8 1/8 1/8
m = 4 8 16 32
[scheme]
name = M-LMC
""")
        gaps = [row["estimate"] for row in result.rows]
        detail = (
            "mean trace gap " + " -> ".join(f"{g:.3e}" for g in gaps)
            + " over m = 4, 8, 16, 32 (ratio <= 1/1.7 per doubling; "
            "strictly-triangular trace exactly 0)"
        )
        return self._finish(5, result.passed, detail, t0, result)

    def _kl_criterion(self, index: int, result: RunResult,
                      elapsed: float, t0: float) -> CriterionResult:
        order_checks = [c for c in result.checks
                        if "marginal lower bound" not in c.label]
        passed = all(c.passed for c in order_checks)
        in_budget = elapsed <= RUNTIME_LIMITS[index]
        slope_rows = [r for r in result.rows if r.get("slope") is not None]
        slope = slope_rows[-1]["slope"] if slope_rows else float("nan")
        kls = [r["estimate"] for r in result.rows
               if r.get("h") is not None and r.get("q") == 1.0]
        detail = (
            f"KL(P||Q) = " + " > ".join(f"{k:.3e}" for k in kls)
            + f" over h = 1/8..1/64; fitted slope {slope:.2f}, "
            f"1e5 paths, {elapsed:.0f}s <= {RUNTIME_LIMITS[index]:.0f}s"
        )
        return self._finish(index, passed and in_budget, detail, t0, result)

    def criterion_6(self) -> CriterionResult:
        t0 = time.perf_counter()
        result = self._kl_sweep_mlmc()
        return self._kl_criterion(6, result, time.perf_counter() - t0, t0)

    def criterion_7(self) -> CriterionResult:
        t0 = time.perf_counter()
        result = self._kl_sweep_dmulmc()
        return self._kl_criterion(7, result, time.perf_counter() - t0, t0)

    def criterion_8(self) -> CriterionResult:
        t0 = time.perf_counter()
        result = self._experiment("local-errors", f"""
[experiment]
name = local-error-sweep
n_paths = 65536
seed = {self.seed}
[potential]
kind = anisotropic-gaussian
spectrum = 0.5 1.0
[grid]
T = 0.25
h = 1/4 1/8 1/16 1/32
m = 64 128 256 512
[scheme]
name = DM-ULMC
gamma = 1.0
""")
        momentum = [c for c in result.checks
                    if c.label.startswith(("strong_p", "weak_p"))]
        passed = result.passed and len(momentum) == 2
        detail = (
            "momentum squared-error slopes (minus propagated SE): "
            + "; ".join(c.detail for c in momentum)
            + "; 65536 coupled paths, stationary start"
        )
        return self._finish(8, passed, detail, t0, result)

    def criterion_9(self) -> CriterionResult:
        t0 = time.perf_counter()
        results = []
        for key, label in (("eta-mlmc", "M-LMC"), ("eta-dmulmc", "DM-ULMC")):
            results.append(self._experiment(key, f"""
[experiment]
name = eta-refinement
n_paths = 100
seed = {self.seed}
[potential]
kind = perturbed-quadratic
spectrum = 1.0 1.0
[grid]
T = 0.5
N = 4
m = 2
[scheme]
name = {label}
"""))
        passed = all(r.passed for r in results)
        details = []
        for r, name in zip(results, ("overdamped midpoint", "double-midpoint")):
            details.append(f"{name} {r.checks[0].detail}")
        detail = (
            "max |log_weight(m) - log_weight(2m)| over 100 nested paths "
            "decreases at each doubling from m = 2: " + "; ".join(details)
        )
        return self._finish(9, passed, detail, t0, *results)

    def criterion_10(self) -> CriterionResult:
        t0 = time.perf_counter()
        results = [self._kl_sweep_mlmc(), self._kl_sweep_dmulmc()]
        bounds = [c for r in results for c in r.checks
                  if "marginal lower bound" in c.label]
        passed = bool(bounds) and all(c.passed for c in bounds)
        if passed:
            detail = (
                f"gaussian_kl(scheme marginal, diffusion marginal) <= "
                f"path-KL estimate + 3*SE in all {len(bounds)} "
                "configurations of criteria 6-7"
            )
        else:
            bad = [f"{c.label}: {c.detail}" for c in bounds if not c.passed]
            detail = "violated bounds: " + "; ".join(bad) if bad else \
                "no marginal-bound checks found"
        return self._finish(10, passed, detail, t0)

    def criterion_11(self) -> CriterionResult:
        t0 = time.perf_counter()
        texts = {}
        for label in ("M-LMC", "DM-ULMC"):
            text = f"""
[experiment]
name = normalization
n_paths = 10000
seed = {self.seed}
[potential]
kind = gaussian
d = 2
[grid]
T = 0.5
N = 4
m = 4
[scheme]
name = {label}
schedule = randomized
"""
            cfg = load_config(text)
            runs = [run_experiment(cfg, threads=1),
                    run_experiment(cfg, threads=1),
                    run_experiment(cfg, threads=8)]
            texts[label] = [r.csv_text for r in runs]
        repeat_ok = all(v[0] == v[1] for v in texts.values())
        thread_ok = all(v[0] == v[2] for v in texts.values())
        passed = repeat_ok and thread_ok
        detail = (
            f"repeat runs byte-identical: {repeat_ok}; 1-thread vs 8-thread "
            f"byte-identical: {thread_ok} (randomized-schedule normalization "
            "CSVs, both scheme families, 10000 paths)"
        )
        return self._finish(11, passed, detail, t0)

    def criterion_12(self) -> CriterionResult:
        t0 = time.perf_counter()
        result = self._experiment("complexity", f"""
[experiment]
name = complexity-table
n_paths = 100
seed = {self.seed}
[potential]
kind = gaussian
d = 4
[grid]
T = 1.0
N = 1
m = 8
[scheme]
name = ULMC
gamma = 1.0
""")
        detail = _checks_summary(result)
        return self._finish(12, result.passed, detail, t0, result)

    # -- plumbing -----------------------------------------------------------

    def _finish(self, index: int, passed: bool, detail: str, t0: float,
                *results: RunResult) -> CriterionResult:
        artifacts = tuple(
            (f"c{index:02d}-{i + 1}-{r.experiment}.csv", r.csv_text)
            for i, r in enumerate(results)
        )
        return CriterionResult(
            index=index,
            name=CRITERION_NAMES[index],
            passed=bool(passed),
            detail=detail,
            runtime_s=time.perf_counter() - t0,
            artifacts=artifacts,
        )

    def run(self, only: tuple[int, ...] | None = None) -> list[CriterionResult]:
        """Each criterion of ``only`` once, in order; all twelve when None."""
        indices = range(1, 13) if only is None else sorted(set(only))
        out = []
        for i in indices:
            out.append(getattr(self, f"criterion_{i}")())
        return out

