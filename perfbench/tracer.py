"""Per-layer tracing of girsanovlab from outside the package.

The tracer replaces public functions of each layer at the names their callers
look up (``girsanovlab.engine.fast_log_weights``, ``Potential.gradient``, ...)
with wrappers that record a span per call and count the work done.  Nothing
under ``src/`` changes: the wrappers are installed into the imported modules
and every replaced name is restored on exit.

A span is (name, start, end, parent, op, rss_rise_kb).  ``parent`` is the
index of the enclosing span (-1 at the top), ``op`` the index of the
enclosing operation span (one ``run_weights`` call or one local-error sweep),
and ``rss_rise_kb`` the rise of the process's peak RSS while the span was
open.  Layer metrics use self time: a span's duration minus the part its
child spans cover, so the layers add up without double counting.
"""

from __future__ import annotations

import functools
import importlib
import resource
import time
from collections import defaultdict

import numpy as np

#: spans that start a new operation id
OP_SPANS = frozenset({"engine.run_weights", "divergences.local_error"})


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# -- counters: (counts, args, kwargs, result) -> None ------------------------


def _count_generated(counts, args, kwargs, result):
    counts["normals"] += result.size


def _count_matrix(counts, args, kwargs, result):
    counts["normals_used"] += result.size


def _count_weights(counts, args, kwargs, result):
    """Normals a run_weights call reads, and its weight diagnostics."""
    schedule, grid = kwargs.get("schedule"), kwargs.get("grid")
    the_grid = schedule.grid if schedule is not None else grid
    potential = args[1]
    kinetic = result.scheme in ("ulmc", "dmulmc")
    zdim = potential.d * (2 if kinetic else 1)
    init = kwargs.get("init", "stationary")
    delta = isinstance(init, tuple) and init[0] == "delta"
    per_path = the_grid.n_cells * potential.d + (0 if delta else zdim)
    counts["normals_used"] += result.n_paths * per_path
    counts["weighted_paths"] += result.n_paths
    counts["rejected_paths"] += result.n_rejected
    counts["negative_det"] += result.n_negative_det
    counts["rho_max"] = max(counts["rho_max"], float(result.spectral_radius))
    counts["weight_runs"] += 1
    counts["grad_queries_per_path"] += result.grad_queries_per_path


def _count_fast_flops(counts, args, kwargs, result):
    """Multiply-adds of the affine weight kernel, from the StepMaps shapes."""
    maps, z0 = args[0], args[1]
    B = z0.shape[0]
    flops = 0
    for sm in maps:
        md, z = sm.m * sm.d, sm.state_dim
        # psi = Pz z + Pxi xi + p0; ito and energy dots; z' = A z + S xi + b
        flops += 2 * md * z + 2 * md * md + 5 * md + 2 * z * z + 2 * z * md + 2 * z
    counts["fast_flop"] += B * flops


def _count_blocks(counts, args, kwargs, result):
    counts["block_bytes_max"] = max(counts["block_bytes_max"], result.diag.nbytes)


def _count_simulate(counts, args, kwargs, result):
    counts["cells"] += result.x.shape[0] * (result.x.shape[1] - 1)
    # only the double-midpoint trajectory has a schedule and fixed-point sweeps
    if getattr(result, "iterations", None) is not None and result.schedule is not None:
        counts["dm_sweeps"] += int(np.sum(result.iterations))
        counts["dm_steps"] += int(np.size(result.iterations))


def _count_exact_ou(counts, args, kwargs, result):
    x, _ = result
    counts["cells"] += x.shape[0] * (x.shape[1] - 1)


def _count_points(key):
    def count(counts, args, kwargs, result):
        potential, x = args[0], args[1]
        counts[key] += np.size(x) // potential.d

    return count


_SCHEMES = ("mlmc", "ulmc", "dmulmc")

#: (module, attribute, span name, counter).  Each row is a name that a
#: caller on one of the workloads' paths looks up at call time.  A name a later
#: version no longer has is skipped, so the benchmark still runs; the run
#: record lists the names that were wrapped.
PATCHES = (
    ("paths", "_normals", "paths.generate", _count_generated),
    ("paths", "normal_block", "paths.normal_block", None),
    ("engine", "normal_block", "paths.normal_block", None),
    ("paths", "noise_matrix", "paths.noise_matrix", _count_matrix),
    ("engine", "fast_log_weights", "affine.fast_weights", _count_fast_flops),
    ("engine", "step_maps_for_schedule", "affine.step_maps", None),
    ("affine", "step_maps_for_schedule", "affine.step_maps", None),
    ("experiments", "scheme_marginal_gaussian", "affine.marginal", None),
    *[
        (mod, f"drift_{s}", "girsanov.drift", None)
        for mod in ("engine", "affine")
        for s in _SCHEMES
    ],
    *[
        (mod, f"malliavin_blocks_{s}", "girsanov.blocks", _count_blocks)
        for mod in ("engine", "affine")
        for s in _SCHEMES
    ],
    ("girsanov", "carleman_fredholm_logdet", "girsanov.logdet", None),
    ("girsanov", "spectral_radius_estimate", "girsanov.spectral", None),
    ("girsanov", "skorohod_adjoint", "girsanov.skorohod", None),
    *[
        (mod, f"simulate_{s}", "integrators.simulate", _count_simulate)
        for mod in ("engine", "affine", "integrators")
        for s in _SCHEMES
    ],
    ("integrators", "exact_ou_flow_uld", "integrators.exact_ou", _count_exact_ou),
    ("potentials", "Potential.gradient", "potentials.gradient", _count_points("grad_points")),
    ("potentials", "Potential.hessian", "potentials.hessian", _count_points("hess_points")),
    ("experiments", "run_weights", "engine.run_weights", _count_weights),
    ("engine", "run_weights", "engine.run_weights", _count_weights),
    ("engine", "generic_log_weights", "engine.generic", None),
    ("experiments", "estimate_kl", "divergences.estimate", None),
    ("experiments", "estimate_renyi", "divergences.estimate", None),
    ("experiments", "local_error_sweep", "divergences.local_error", None),
    ("experiments", "run_experiment", "experiments.run_experiment", None),
)


class Tracer:
    """Records spans and counts while installed; restores every name on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict = defaultdict(float)
        self._stack: list[int] = []
        self._ops: list[int] = []
        self._n_ops = 0
        self._patched: list[tuple] = []
        #: "module.attribute" of every name wrapped, for the run record
        self.wrapped: list[str] = []

    def __enter__(self) -> "Tracer":
        for module, attr, name, counter in PATCHES:
            owner = importlib.import_module(f"girsanovlab.{module}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            if leaf not in vars(owner):
                continue
            original = vars(owner)[leaf]
            self._patched.append((owner, leaf, original))
            self.wrapped.append(f"{module}.{attr}")
            setattr(owner, leaf, self._wrap(original, name, counter))
        return self

    def __exit__(self, *exc) -> None:
        for owner, leaf, original in reversed(self._patched):
            setattr(owner, leaf, original)
        self._patched.clear()

    def _wrap(self, original, name: str, counter):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index, name)
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    def _open(self, name: str) -> int:
        if name in OP_SPANS:
            self._ops.append(self._n_ops)
            self._n_ops += 1
        parent = self._stack[-1] if self._stack else -1
        op = self._ops[-1] if self._ops else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, op, _peak_rss_kb()])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index: int, name: str) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5] = _peak_rss_kb() - span[5]
        self._stack.pop()
        if name in OP_SPANS:
            self._ops.pop()

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics, name -> {value, unit}, from the spans and counts."""
        spans, c = self.spans, self.counts
        self_time = [s[2] - s[1] for s in spans]
        for s in spans:
            if s[3] >= 0:
                self_time[s[3]] -= s[2] - s[1]
        by_name: defaultdict = defaultdict(float)
        by_layer: defaultdict = defaultdict(float)
        calls: defaultdict = defaultdict(int)
        rss_raise_kb: defaultdict = defaultdict(float)
        for s, own in zip(spans, self_time):
            name, parent = s[0], s[3]
            layer = name.split(".")[0]
            by_name[name] += own
            by_layer[layer] += own
            outer = parent < 0 or spans[parent][0].split(".")[0] != layer
            if outer:  # an entry into the layer from outside it
                calls[layer] += 1
                rss_raise_kb[layer] += s[5]
            if name == "girsanov.blocks":
                rss_raise_kb[name] += s[5]

        def ratio(num, den):
            return num / den if den else 0.0

        metrics = [
            ("paths.s", "s", by_layer["paths"]),
            ("paths.normals_m", "Mnormals", c["normals"] / 1e6),
            ("paths.ns_per_normal", "ns", 1e9 * ratio(by_name["paths.generate"], c["normals"])),
            ("paths.useful_ratio", "ratio", ratio(c["normals_used"], c["normals"])),
            ("paths.rss_raise_mb", "MiB", rss_raise_kb["paths"] / 1024.0),
            ("paths.calls", "count", calls["paths"]),
            ("affine.fast_weights.s", "s", by_name["affine.fast_weights"]),
            ("affine.fast_weights.gflops", "GFLOP/s-computed", 1e-9 * ratio(c["fast_flop"], by_name["affine.fast_weights"])),
            ("affine.step_maps.s", "s", by_name["affine.step_maps"]),
            ("affine.calls", "count", calls["affine"]),
            ("girsanov.drift.s", "s", by_name["girsanov.drift"]),
            ("girsanov.blocks.s", "s", by_name["girsanov.blocks"]),
            ("girsanov.logdet.s", "s", by_name["girsanov.logdet"]),
            ("girsanov.spectral.s", "s", by_name["girsanov.spectral"]),
            ("girsanov.skorohod.s", "s", by_name["girsanov.skorohod"]),
            ("girsanov.block_mb", "MiB", c["block_bytes_max"] / 2**20),
            ("girsanov.blocks.rss_raise_mb", "MiB", rss_raise_kb["girsanov.blocks"] / 1024.0),
            ("girsanov.rejected_ratio", "ratio", ratio(c["rejected_paths"], c["weighted_paths"])),
            ("girsanov.rho_max", "ratio", c["rho_max"]),
            ("girsanov.negative_det", "count", c["negative_det"]),
            ("girsanov.calls", "count", calls["girsanov"]),
            ("integrators.s", "s", by_layer["integrators"]),
            ("integrators.mcells", "Mcells", c["cells"] / 1e6),
            ("integrators.dm_sweeps_mean", "sweeps", ratio(c["dm_sweeps"], c["dm_steps"])),
            ("integrators.exact_ou.s", "s", by_name["integrators.exact_ou"]),
            ("integrators.calls", "count", calls["integrators"]),
            ("potentials.gradient.s", "s", by_name["potentials.gradient"]),
            ("potentials.grad_mpoints", "Mpoints", c["grad_points"] / 1e6),
            ("potentials.hessian.s", "s", by_name["potentials.hessian"]),
            ("potentials.hess_mpoints", "Mpoints", c["hess_points"] / 1e6),
            ("potentials.calls", "count", calls["potentials"]),
            ("engine.s", "s", by_layer["engine"]),
            ("engine.grad_queries_per_path", "queries", ratio(c["grad_queries_per_path"], c["weight_runs"])),
            ("engine.calls", "count", calls["engine"]),
            ("divergences.estimate.s", "s", by_name["divergences.estimate"]),
            ("divergences.local_error.s", "s", by_name["divergences.local_error"]),
            ("divergences.calls", "count", calls["divergences"]),
            ("experiments.s", "s", by_layer["experiments"]),
            ("experiments.calls", "count", calls["experiments"]),
        ]
        return {name: {"value": float(value), "unit": unit} for name, unit, value in metrics}
