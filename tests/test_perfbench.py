"""The benchmark harness still runs against the package.

``perfbench/tracer.py`` wraps package functions by name; a renamed or removed
name, or a result without the attributes its counters read, would otherwise
surface only when the benchmark runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_self_test_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--self-test"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "self-test ok"


#: span names each workload records; a layer missing here has lost its
#: attribution (``paths.generate`` is not listed;
#: ``paths.normal_block`` stands for the noise layer).  ``kl-affine`` has no
#: ``girsanov.drift`` span: its DM-ULMC step maps read the zero path's
#: multipliers (its drift coordinates), not its drifts, and no
#: ``affine.marginal`` span: its marginal check reads the moments of the maps
#: the sweep weighed through, so it extracts no maps of its own
LAYER_SPANS = {
    "kl-affine": {
        "experiments.run_experiment", "affine.step_maps", "affine.fast_weights",
        "integrators.simulate", "divergences.estimate", "paths.normal_block",
    },
    "generic-weights": {
        "engine.run_weights", "engine.generic", "girsanov.drift", "integrators.simulate",
        "potentials.hessian", "paths.normal_block",
    },
    "local-error": {
        "experiments.run_experiment", "divergences.local_error", "potentials.gradient",
        "paths.noise_matrix", "paths.normal_block",
    },
}


def test_tracer_attributes_every_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import girsanovlab as gl
    from tracer import Tracer
    from workloads import WORKLOADS

    for name, expected in LAYER_SPANS.items():
        workload = WORKLOADS[name]
        state = workload.setup(gl, gl.DEFAULT_SEED, workload.tiny_paths)
        with Tracer() as tracer:
            workload.run(gl, state)
        missing = expected - {span[0] for span in tracer.spans}
        assert not missing, f"{name}: no spans for {sorted(missing)}"
