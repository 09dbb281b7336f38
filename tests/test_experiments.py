"""Experiment internals that the acceptance criteria do not pin."""

import numpy as np
import pytest

from girsanovlab.config import load_config
from girsanovlab.engine import WINDOW_PATHS
from girsanovlab.experiments import _complexity_row, run_experiment

CONFIG = """
[experiment]
name = complexity-table
[potential]
kind = gaussian
d = 2
[grid]
T = 1.0
N = 1
m = {m}
[scheme]
name = ULMC
"""


def test_complexity_queries_follow_the_scheme_table():
    # M-LMC with m = 1 snaps its midpoint to r = 0: one query per step
    for m, per_step in ((1, 1), (8, 2)):
        cfg = load_config(CONFIG.format(m=m))
        row = _complexity_row(cfg, "mlmc", 0.1, cfg.potential, (5, 0.01, 0.005))
        assert row["m"] == m
        assert row["queries"] == 5 * per_step
    row = _complexity_row(cfg, "dmulmc", 0.1, cfg.potential, (5, 0.01, 0.005))
    assert row["queries"] == 15
    assert _complexity_row(cfg, "ulmc", 0.1, cfg.potential, (None, 1.0, 1.0))["queries"] is None


def test_complexity_table_builds_each_evaluation_once(monkeypatch):
    # every (scheme, potential, n_steps) KL evaluation builds its step maps
    # once: the marginal certificate reuses the path KL's maps, and repeated
    # step counts of the searches hit the table's memo
    from girsanovlab import affine, experiments

    calls = []
    for module in (affine, experiments):
        original = module.step_maps_for_schedule

        def counted(scheme, potential, grid, gamma=None, _original=original):
            calls.append((scheme, id(potential), grid.N, grid.m))
            return _original(scheme, potential, grid, gamma)

        monkeypatch.setattr(module, "step_maps_for_schedule", counted)
    cfg = load_config(CONFIG.format(m=4))
    result = experiments.run_experiment(cfg)
    assert len(result.rows) > 0
    assert len(calls) == len(set(calls))


KL_SWEEP_CONFIG = """
[experiment]
name = kl-order-sweep
n_paths = 64
seed = 4
[potential]
kind = gaussian
d = 2
[grid]
T = 0.5
h = 1/4 1/8 1/16
m = 3 4 6
[scheme]
name = DM-ULMC
gamma = 1.0
schedule = randomized
"""


def test_kl_sweep_extracts_each_grids_maps_once(monkeypatch):
    # the weights and the marginal lower-bound check read the same maps:
    # one extraction per grid, and the check's moments are those of that
    # grid's maps
    from girsanovlab import affine, engine, experiments

    calls = []
    for module in (affine, engine, experiments):
        original = module.step_maps_for_schedule

        def counted(scheme, potential, schedule, gamma=None, _original=original):
            calls.append(schedule.grid)
            return _original(scheme, potential, schedule, gamma)

        monkeypatch.setattr(module, "step_maps_for_schedule", counted)
    cfg = load_config(KL_SWEEP_CONFIG)
    result = run_experiment(cfg)
    assert calls == cfg.grids()
    bounds = [c for c in result.checks if c.label.endswith("marginal lower bound")]
    assert len(bounds) == len(calls)
    mean0, cov0 = experiments.stationary_moments(cfg.potential, kinetic=True)
    for check, schedule in zip(bounds, cfg.schedules()):
        marginal = affine.marginal_moments(
            affine.step_maps_for_schedule(cfg.scheme, cfg.potential, schedule, cfg.gamma),
            mean0, cov0)
        kl = experiments.gaussian_kl(*marginal, mean0, cov0)
        assert f"gaussian_kl(marginals) = {kl:.3g} <=" in check.detail


LOCAL_ERROR_CONFIG = """
[experiment]
name = local-error-sweep
n_paths = {n_paths}
seed = 9
[potential]
kind = anisotropic-gaussian
spectrum = 0.5 1.0
[grid]
T = 0.25
h = 1/4 1/8 1/16
m = 4 8 16
[scheme]
{scheme}
"""


@pytest.mark.parametrize("scheme", ["name = DM-ULMC\ngamma = 1.0", "name = M-LMC"],
                         ids=["dmulmc", "mlmc"])
def test_local_error_sweep_is_thread_invariant(scheme):
    # three windows, the last one partial, so two threads really split them
    cfg = load_config(LOCAL_ERROR_CONFIG.format(n_paths=2 * WINDOW_PATHS + 40, scheme=scheme))
    one = run_experiment(cfg, threads=1)
    two = run_experiment(cfg, threads=2)
    assert len(one.rows) == 3
    assert one.csv_text == two.csv_text


def test_dmulmc_local_error_sweep_runs_at_one_inner_cell():
    # the marginal update uses no σ̂, so m = 1 stays valid for it
    text = LOCAL_ERROR_CONFIG.format(n_paths=64, scheme="name = DM-ULMC\ngamma = 1.0")
    cfg = load_config(text.replace("m = 4 8 16", "m = 1"))
    result = run_experiment(cfg)
    assert [row["m"] for row in result.rows] == [1, 1, 1]
    assert all(row["status"] == "ok" for row in result.rows)


def test_local_error_no_fit_names_the_grids_it_cannot_take(monkeypatch):
    # a weak-error estimate <= 0 admits no log-log fit; the failed check
    # names each such grid with its value and SE, and still fails
    from girsanovlab import experiments

    sweep = experiments.local_error_sweep

    def dipping(*args, **kwargs):
        report = sweep(*args, **kwargs)
        se = report.errors["weak_p"][1]
        report.errors["weak_p"] = (np.array([1e-4, -2.5e-7, 1e-6]), se)
        return report

    monkeypatch.setattr(experiments, "local_error_sweep", dipping)
    cfg = load_config(LOCAL_ERROR_CONFIG.format(n_paths=64, scheme="name = DM-ULMC\ngamma = 1.0"))
    result = run_experiment(cfg)
    (check,) = [c for c in result.checks if c.label.startswith("weak_p")]
    se = result.rows[1]["weak_p_se"]
    assert not check.passed and not result.passed
    assert check.detail.startswith("no fit: log-log fit requires strictly positive x and y")
    assert check.detail.endswith(f"(estimate <= 0 at h=0.125 m=8: -2.5e-07 +/- {se:.2g})")


ADAPTED_CONFIG = """
[experiment]
name = adapted-equivalence
n_paths = 20
seed = 3
[potential]
kind = gaussian
d = 3
[grid]
T = 0.5
N = 4
m = 8
[scheme]
name = EM-LD
"""


def test_adapted_equivalence_forms_no_dense_block(monkeypatch):
    # the determinant correction and tr D come from the block summaries
    import girsanovlab.engine as engine
    import girsanovlab.girsanov as girsanov

    def dense(*args, **kwargs):
        raise AssertionError("the adapted-equivalence run formed a dense block")

    # every dense block is formed by derivative_blocks, which Scheme.blocks
    # looks up in the engine
    monkeypatch.setattr(engine, "derivative_blocks", dense)
    monkeypatch.setattr(girsanov, "derivative_blocks", dense)
    monkeypatch.setattr(girsanov, "block_summary_dense", dense)
    result = run_experiment(load_config(ADAPTED_CONFIG))
    assert result.passed and len(result.rows) == 1
