"""Experiment configuration: parsing, validation, and object building.

Config files are line-oriented UTF-8 ``key = value`` text grouped into
``[section]`` headers.  Full-line comments start with ``#``; inline comments
are not supported (values may legitimately contain ``#``-free text only).
Unknown sections or keys are errors, as are duplicate keys; duplicates are
reported with both line numbers.  Step-size preconditions of the chosen
scheme, and the target and scheme an experiment needs, are checked at load
time, before any simulation.

Sections and keys
-----------------
[experiment]  name (required), seed, n_paths, output
[potential]   kind (required): gaussian | anisotropic-gaussian |
              perturbed-quadratic | logcosh; d; scale; spectrum;
              amplitude; frequency; c.  local-error-sweep and
              complexity-table need a quadratic kind (gaussian or
              anisotropic-gaussian)
[grid]        T (required); exactly one of N or h (list); m (scalar or list
              parallel to h)
[scheme]      name (required): EM-LD | M-LMC | ULMC | DM-ULMC
              (adapted-equivalence takes EM-LD only, trace-diagnostics
              M-LMC only); gamma; schedule: deterministic | randomized
              (M-LMC and DM-ULMC only; rejected by local-error-sweep and
              complexity-table, which run each scheme's deterministic
              schedule); q (list)
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .engine import SCHEDULE_MODES, SCHEMES
from .paths import TimeGrid
from .potentials import (
    AnisotropicQuadratic,
    IsotropicQuadratic,
    LogCoshProduct,
    PerturbedQuadratic,
    Potential,
)

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "load_config_file"]


EXPERIMENTS = (
    "normalization",
    "adapted-equivalence",
    "fd-malliavin",
    "eta-refinement",
    "kl-order-sweep",
    "local-error-sweep",
    "trace-diagnostics",
    "complexity-table",
)

#: canonical scheme ids keyed by the user-facing spellings: id or lower-case label
SCHEME_NAMES = {key: name for name, s in SCHEMES.items() for key in (name, s.label.lower())}

#: experiments measured against an exact Gaussian reference of a quadratic
#: target (the exact flow, or the stationary law), so they need a quadratic
#: target; they run each scheme's deterministic schedule, so reject the
#: schedule key, and form no DM-ULMC weight or path KL on the config's inner
#: grid (the marginal update, and the complexity table's own m rule), so
#: they take DM-ULMC at m = 1, where the interpolation's σ̂ is singular
EXACT_REFERENCE_EXPERIMENTS = ("local-error-sweep", "complexity-table")

#: experiments defined for one scheme only: experiment name → scheme id
EXPERIMENT_SCHEMES = {"adapted-equivalence": "em-ld", "trace-diagnostics": "mlmc"}

_KNOWN_KEYS = {
    "experiment": {"name", "seed", "n_paths", "output"},
    "potential": {"kind", "d", "scale", "spectrum", "amplitude", "frequency", "c"},
    "grid": {"T", "N", "h", "m"},
    "scheme": {"name", "gamma", "schedule", "q"},
}


class ConfigError(ValueError):
    """Malformed, unknown, duplicate, or bound-violating configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully validated experiment description.

    ``h_list``/``n_list``/``m_list`` are parallel: one entry per grid in the
    sweep.  ``config_hash`` deterministically identifies (config, seed): any
    change to a resolved field that enters the run changes the hash; line
    order, comments, the ``output`` path and the spelling of the scheme name
    do not (tested).
    """

    experiment: str
    potential: Potential
    T: float
    h_list: tuple[float, ...]
    n_list: tuple[int, ...]
    m_list: tuple[int, ...]
    scheme: str
    scheme_label: str
    schedule_mode: str
    gamma: float | None
    q_list: tuple[float, ...]
    n_paths: int
    seed: int
    output: str | None
    config_hash: str = field(default="", compare=False)

    def grids(self) -> list[TimeGrid]:
        return [TimeGrid(self.T, n, m) for n, m in zip(self.n_list, self.m_list)]

    def schedules(self) -> list:
        """Grid i's schedule: the scheme's under ``schedule_mode``, with the seed and stream i."""
        mode, s = self.schedule_mode, SCHEMES[self.scheme]
        return [s.schedule(g, mode, self.seed, i) for i, g in enumerate(self.grids())]


def _parse_lines(text: str) -> dict[str, tuple[str, int]]:
    """Sectioned key=value lines -> {"section.key": (value, line_no)}."""
    entries: dict[str, tuple[str, int]] = {}
    section = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _KNOWN_KEYS:
                known = ", ".join(sorted(_KNOWN_KEYS))
                raise ConfigError(
                    f"line {line_no}: unknown section [{section}] (known: {known})"
                )
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw!r}")
        if section is None:
            raise ConfigError(
                f"line {line_no}: key outside any [section]: {raw!r}"
            )
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KNOWN_KEYS[section]:
            known = ", ".join(sorted(_KNOWN_KEYS[section]))
            raise ConfigError(
                f"line {line_no}: unknown key {key!r} in [{section}] (known: {known})"
            )
        full = f"{section}.{key}"
        if full in entries:
            raise ConfigError(
                f"line {line_no}: duplicate key {key!r} in [{section}] "
                f"(first set on line {entries[full][1]})"
            )
        if not value:
            raise ConfigError(f"line {line_no}: empty value for {key!r}")
        entries[full] = (value, line_no)
    return entries


def _number(raw: str, where: str) -> float:
    """Parse a float, accepting exact fractions like '1/8'."""
    try:
        if "/" in raw:
            return float(Fraction(raw))
        return float(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{where}: malformed number {raw!r}") from exc


def _number_list(raw: str, where: str) -> list[float]:
    items = raw.replace(",", " ").split()
    if not items:
        raise ConfigError(f"{where}: empty list")
    return [_number(item, where) for item in items]


def _int(raw: str, where: str) -> int:
    try:
        value = int(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: malformed integer {raw!r}") from exc
    return value


class _Entries:
    """Typed access with consumption tracking (missing-key errors name keys)."""

    def __init__(self, entries: dict[str, tuple[str, int]]):
        self.entries = entries

    def has(self, full: str) -> bool:
        return full in self.entries

    def raw(self, full: str) -> str:
        return self.entries[full][0]

    def where(self, full: str) -> str:
        value, line_no = self.entries[full]
        return f"line {line_no} ({full} = {value})"

    def require(self, full: str) -> str:
        if full not in self.entries:
            raise ConfigError(f"missing required key {full!r}")
        return self.entries[full][0]

    def optional(self, full: str, parse, default):
        """``parse(raw, where)`` of an optional key, ``default`` when it is absent."""
        return parse(self.raw(full), self.where(full)) if self.has(full) else default


def _build_potential(e: _Entries) -> tuple[Potential, str]:
    kind = e.require("potential.kind").lower()
    d = e.optional("potential.d", _int, None)

    def reject(*keys: str) -> None:
        for key in keys:
            full = f"potential.{key}"
            if e.has(full):
                raise ConfigError(
                    f"{e.where(full)}: key not applicable to kind {kind!r}"
                )

    def spectrum() -> list[float]:
        values = _number_list(e.require("potential.spectrum"), "potential.spectrum")
        if d is not None and d != len(values):
            raise ConfigError(
                f"{e.where('potential.d')}: d = {d} contradicts a spectrum of length {len(values)}"
            )
        return values

    if kind == "gaussian":
        reject("spectrum", "amplitude", "frequency", "c")
        if d is None:
            raise ConfigError("missing required key 'potential.d' for gaussian")
        return IsotropicQuadratic(d, e.optional("potential.scale", _number, 1.0)), kind
    if kind == "anisotropic-gaussian":
        reject("scale", "amplitude", "frequency", "c")
        return AnisotropicQuadratic(spectrum()), kind
    if kind == "perturbed-quadratic":
        reject("scale", "c")
        values = spectrum()
        amplitude = e.optional("potential.amplitude", _number, 0.1)
        frequency = e.optional("potential.frequency", _number, 1.0)
        return PerturbedQuadratic(values, amplitude, frequency), kind
    if kind == "logcosh":
        reject("scale", "spectrum", "amplitude", "frequency")
        if d is None:
            raise ConfigError("missing required key 'potential.d' for logcosh")
        return LogCoshProduct(d, e.optional("potential.c", _number, 1.0)), kind
    raise ConfigError(
        f"{e.where('potential.kind')}: unknown potential kind {kind!r} "
        "(known: gaussian, anisotropic-gaussian, perturbed-quadratic, logcosh)"
    )


def _check_step_bounds(
    scheme: str, h_list: tuple[float, ...], beta: float, q_max: float
) -> None:
    """Scheme step-size preconditions, enforced before any simulation."""
    s = SCHEMES[scheme]
    bound = s.step_bound(beta, q_max)
    for h in h_list:
        if h > bound * (1 + 1e-12):
            raise ConfigError(
                f"step size h = {h:g} violates h <= {s.bound_rule} = {bound:g} "
                f"required for {s.label} weights (beta = {beta:g}, q = {q_max:g})"
            )


def load_config(text: str) -> ExperimentConfig:
    """Parse, validate, and resolve an experiment configuration."""
    e = _Entries(_parse_lines(text))

    experiment = e.require("experiment.name")
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"{e.where('experiment.name')}: unknown experiment {experiment!r} "
            f"(known: {', '.join(EXPERIMENTS)})"
        )
    seed = e.optional("experiment.seed", _int, 0)
    if not 0 <= seed < 2**64:
        raise ConfigError(f"{e.where('experiment.seed')}: seed must be in [0, 2**64)")
    n_paths = e.optional("experiment.n_paths", _int, 100_000)
    if n_paths < 2:
        raise ConfigError(f"{e.where('experiment.n_paths')}: need at least 2 paths")
    output = e.raw("experiment.output") if e.has("experiment.output") else None

    potential, potential_kind = _build_potential(e)
    if experiment in EXACT_REFERENCE_EXPERIMENTS and not potential.is_quadratic:
        raise ConfigError(
            f"{e.where('potential.kind')}: the {experiment} experiment compares against an "
            "exact Gaussian reference and needs a quadratic potential "
            "(gaussian or anisotropic-gaussian)"
        )

    T = _number(e.require("grid.T"), "grid.T")
    if not (np.isfinite(T) and T > 0):
        raise ConfigError(f"{e.where('grid.T')}: horizon must be positive")
    if e.has("grid.N") and e.has("grid.h"):
        raise ConfigError("give exactly one of grid.N or grid.h, not both")
    if e.has("grid.N"):
        n_list = [_int(tok, e.where("grid.N")) for tok in e.raw("grid.N").replace(",", " ").split()]
        if any(n < 1 for n in n_list):
            raise ConfigError(f"{e.where('grid.N')}: outer step counts must be >= 1")
        h_list = [T / n for n in n_list]
    elif e.has("grid.h"):
        h_list = _number_list(e.raw("grid.h"), e.where("grid.h"))
        n_list = []
        for h in h_list:
            if not (np.isfinite(h) and 0 < h <= T):
                raise ConfigError(f"{e.where('grid.h')}: need 0 < h <= T, got h = {h}")
            n = round(T / h)
            if abs(T / h - n) > 1e-9:
                raise ConfigError(
                    f"{e.where('grid.h')}: h = {h:g} does not divide the horizon T = {T:g}"
                )
            n_list.append(n)
    else:
        raise ConfigError("missing required key: one of grid.N or grid.h")
    if e.has("grid.m"):
        m_list = [_int(tok, e.where("grid.m")) for tok in e.raw("grid.m").replace(",", " ").split()]
    else:
        m_list = [8]
    if len(m_list) == 1:
        m_list = m_list * len(h_list)
    if len(m_list) != len(h_list):
        raise ConfigError(
            f"{e.where('grid.m')}: m has {len(m_list)} entries but the sweep has "
            f"{len(h_list)} grids (give one m or one per grid)"
        )
    if any(m < 1 for m in m_list):
        raise ConfigError(f"{e.where('grid.m')}: inner cell counts must be >= 1")

    scheme_label = e.require("scheme.name")
    scheme = SCHEME_NAMES.get(scheme_label.lower())
    if scheme is None:
        raise ConfigError(
            f"{e.where('scheme.name')}: unknown scheme {scheme_label!r} "
            f"(known: {', '.join(s.label for s in SCHEMES.values())})"
        )
    if EXPERIMENT_SCHEMES.get(experiment, scheme) != scheme:
        raise ConfigError(
            f"{e.where('scheme.name')}: the {experiment} experiment applies to the "
            f"{SCHEMES[EXPERIMENT_SCHEMES[experiment]].label} scheme only"
        )
    schedule_mode = e.raw("scheme.schedule") if e.has("scheme.schedule") else "deterministic"
    if schedule_mode not in SCHEDULE_MODES:
        raise ConfigError(
            f"{e.where('scheme.schedule')}: unknown schedule mode {schedule_mode!r} "
            f"(known: {', '.join(SCHEDULE_MODES)})"
        )
    if e.has("scheme.schedule") and experiment in EXACT_REFERENCE_EXPERIMENTS:
        raise ConfigError(
            f"{e.where('scheme.schedule')}: the {experiment} experiment uses each "
            "scheme's deterministic schedule; remove the key"
        )
    if e.has("scheme.schedule") and not SCHEMES[scheme].midpoint_choice:
        raise ConfigError(
            f"{e.where('scheme.schedule')}: {SCHEMES[scheme].label} has no midpoint "
            "to schedule; remove the key"
        )
    if scheme == "dmulmc" and experiment not in EXACT_REFERENCE_EXPERIMENTS and min(m_list) < 2:
        raise ConfigError(
            f"{e.where('grid.m')}: {SCHEMES[scheme].label} weights and path KLs need "
            f"m >= 2 inner cells, got m = {min(m_list)} (with one cell the "
            "interpolation's Gram matrix σ̂ is singular)"
        )
    kinetic = SCHEMES[scheme].kinetic
    if e.has("scheme.gamma"):
        if not kinetic:
            raise ConfigError(
                f"{e.where('scheme.gamma')}: gamma only applies to kinetic schemes (ULMC, DM-ULMC)"
            )
        gamma = _number(e.raw("scheme.gamma"), e.where("scheme.gamma"))
        if not (np.isfinite(gamma) and gamma > 0):
            raise ConfigError(f"{e.where('scheme.gamma')}: friction must be positive")
    else:
        # the kinetic-scheme convention used throughout the experiments
        gamma = float(np.sqrt(potential.beta)) if kinetic else None
    q_list = tuple(e.optional("scheme.q", _number_list, (2.0,)))
    if any(not np.isfinite(q) or q < 1 for q in q_list):
        raise ConfigError(f"{e.where('scheme.q')}: divergence orders must satisfy q >= 1")

    _check_step_bounds(scheme, tuple(h_list), potential.beta, max(q_list))

    resolved = (
        f"experiment={experiment};potential={potential_kind};d={potential.d};"
        f"beta={potential.beta!r};alpha={potential.alpha!r};T={T!r};"
        f"h={[repr(h) for h in h_list]};N={n_list};m={m_list};scheme={scheme};"
        f"schedule={schedule_mode};gamma={gamma!r};q={[repr(q) for q in q_list]};"
        f"n_paths={n_paths};seed={seed}"
    )
    config_hash = hashlib.sha256(resolved.encode()).hexdigest()[:12]

    return ExperimentConfig(
        experiment=experiment,
        potential=potential,
        T=float(T),
        h_list=tuple(float(h) for h in h_list),
        n_list=tuple(int(n) for n in n_list),
        m_list=tuple(int(m) for m in m_list),
        scheme=scheme,
        scheme_label=scheme_label,
        schedule_mode=schedule_mode,
        gamma=gamma,
        q_list=q_list,
        n_paths=int(n_paths),
        seed=int(seed),
        output=output,
        config_hash=config_hash,
    )


def load_config_file(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return load_config(fh.read())
