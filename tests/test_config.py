"""Config parsing: one case per ConfigError the parser raises, and the hash."""

import dataclasses

import numpy as np
import pytest

from girsanovlab.cli import main
from girsanovlab.config import ConfigError, load_config
from girsanovlab.engine import SCHEMES

BASE = """\
[experiment]
name = kl-order-sweep
seed = 3
n_paths = 1000
[potential]
kind = anisotropic-gaussian
spectrum = 1.0 2.0
[grid]
T = 1
h = 1/8 1/16
m = 4 8
[scheme]
name = DM-ULMC
gamma = 1.0
schedule = deterministic
q = 2
"""


def _with(base: str, old: str, new: str) -> str:
    assert base.count(old) == 1
    return base.replace(old, new)


@pytest.mark.parametrize(
    "text, message",
    [
        (_with(BASE, "[grid]", "[grids]"), r"line 8: unknown section \[grids\]"),
        ("seed = 3\n" + BASE, r"line 1: key outside any \[section\]"),
        (_with(BASE, "seed = 3", "sead = 3"), r"line 3: unknown key 'sead' in \[experiment\]"),
        (_with(BASE, "n_paths = 1000", "n_paths = 1000\nseed = 4"),
         r"line 5: duplicate key 'seed' in \[experiment\] \(first set on line 3\)"),
        (_with(BASE, "seed = 3", "seed ="), r"line 3: empty value for 'seed'"),
        (_with(BASE, "seed = 3", "seed 3"), r"line 3: expected 'key = value'"),
        (_with(BASE, "T = 1", "T = one"), r"grid.T: malformed number 'one'"),
        (_with(BASE, "h = 1/8 1/16", "h = 1/8 1/0"), r"line 10 .*malformed number '1/0'"),
        (_with(BASE, "h = 1/8 1/16", "h = 1/8 1/x"), r"line 10 .*malformed number '1/x'"),
        (_with(BASE, "seed = 3", "seed = 3.5"), r"line 3 .*malformed integer '3.5'"),
        # the noise key is an unsigned 64-bit word
        (_with(BASE, "seed = 3", "seed = -1"), r"line 3 .*seed must be in \[0, 2\*\*64\)"),
        (_with(BASE, "seed = 3", f"seed = {2**64}"), r"line 3 .*seed must be in \[0, 2\*\*64\)"),
        (_with(BASE, "T = 1", "T = 1\nN = 8"), r"give exactly one of grid.N or grid.h"),
        (_with(BASE, "h = 1/8 1/16", "h = 0.3 1/16"), r"h = 0.3 does not divide the horizon T = 1"),
        (_with(BASE, "m = 4 8", "m = 4 8 16"), r"m has 3 entries but the sweep has 2 grids"),
        (_with(BASE, "name = DM-ULMC", "name = M-LMC"),
         r"line 14 .*gamma only applies to kinetic schemes"),
        (_with(BASE, "name = DM-ULMC", "name = RK4"), r"line 13 .*unknown scheme 'RK4'"),
        (_with(BASE, "schedule = deterministic", "schedule = midway"),
         r"line 15 .*unknown schedule mode 'midway'"),
        # τ ≡ 0 is the EM-LD scheme, not a mode of M-LMC's or DM-ULMC's schedule
        (_with(BASE, "schedule = deterministic", "schedule = zero"),
         r"line 15 .*unknown schedule mode 'zero' \(known: deterministic, randomized\)"),
        (_with(BASE, "h = 1/8 1/16", "h = 1/2 1/16"),
         r"step size h = 0.5 violates h <= 0.5/sqrt\(beta\*q\) = 0.25 required for DM-ULMC"),
    ],
    ids=[
        "unknown-section", "key-outside-section", "unknown-key", "duplicate-key",
        "empty-value", "not-key-value", "malformed-number", "fraction-zero-division",
        "malformed-fraction", "malformed-integer", "seed-negative", "seed-too-large",
        "both-N-and-h", "h-not-dividing-T",
        "m-count-mismatch", "gamma-on-overdamped", "unknown-scheme", "unknown-schedule",
        "zero-schedule",
        "step-bound",
    ],
)
def test_parser_errors(text, message):
    with pytest.raises(ConfigError, match=message):
        load_config(text)


def test_base_config_loads():
    cfg = load_config(BASE)
    assert cfg.h_list == (0.125, 0.0625)
    assert cfg.n_list == (8, 16)
    assert cfg.gamma == 1.0


@pytest.mark.parametrize("experiment", ["local-error-sweep", "complexity-table"])
def test_fixed_schedule_experiments_reject_the_schedule_key(experiment):
    text = _with(BASE, "name = kl-order-sweep", f"name = {experiment}")
    with pytest.raises(ConfigError, match=rf"line 15 .*the {experiment} experiment uses"):
        load_config(text)
    cfg = load_config(_with(text, "schedule = deterministic\n", ""))
    assert cfg.experiment == experiment


#: configs an experiment cannot run, refused at load time: the experiment,
#: the BASE line it swaps, the refused line and what the message says
REFUSED = {
    "local-error-sweep-non-quadratic": (
        "local-error-sweep", ("kind = anisotropic-gaussian", "kind = perturbed-quadratic"), 6,
        "the local-error-sweep experiment compares against an exact Gaussian reference "
        "and needs a quadratic potential"),
    "complexity-table-non-quadratic": (
        "complexity-table", ("kind = anisotropic-gaussian", "kind = perturbed-quadratic"), 6,
        "the complexity-table experiment compares against an exact Gaussian reference "
        "and needs a quadratic potential"),
    "adapted-equivalence-mlmc": (
        "adapted-equivalence", ("name = DM-ULMC", "name = M-LMC"), 13,
        "the adapted-equivalence experiment applies to the EM-LD scheme only"),
    "trace-diagnostics-em-ld": (
        "trace-diagnostics", ("name = DM-ULMC", "name = EM-LD"), 13,
        "the trace-diagnostics experiment applies to the M-LMC scheme only"),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_experiment_preconditions_are_checked_at_load_time(tmp_path, capsys, case):
    # a target or scheme the experiment cannot run is a ConfigError naming
    # its line, so `girsanovlab run` exits 2 before any simulation, with no
    # traceback from inside the run
    experiment, (old, new), line, message = REFUSED[case]
    text = _with(_with(BASE, "name = kl-order-sweep", f"name = {experiment}"), old, new)
    with pytest.raises(ConfigError, match=rf"^line {line} \(.*\): {message}"):
        load_config(text)
    path = tmp_path / "refused.cfg"
    path.write_text(text)
    assert main(["run", str(path), "--output", str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {line} (") and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "experiment", ["kl-order-sweep", "normalization", "fd-malliavin", "eta-refinement"])
def test_dmulmc_weights_reject_one_inner_cell(experiment):
    # with one cell the interpolation's σ̂ is singular: every experiment that
    # forms DM-ULMC weights or a path KL on grid.m refuses m = 1 at load time
    text = _with(BASE, "name = kl-order-sweep", f"name = {experiment}")
    with pytest.raises(ConfigError, match=r"line 11 .*DM-ULMC weights and path KLs need m >= 2"
                                          r" inner cells, got m = 1"):
        load_config(_with(text, "m = 4 8", "m = 1 8"))
    assert load_config(_with(text, "m = 4 8", "m = 2 8")).m_list == (2, 8)


@pytest.mark.parametrize("experiment", ["local-error-sweep", "complexity-table"])
def test_dmulmc_marginal_experiments_take_one_inner_cell(experiment):
    # the marginal update uses no σ̂, and the complexity table sets DM-ULMC's
    # m by its own rule
    text = _with(BASE, "name = kl-order-sweep", f"name = {experiment}")
    text = _with(text, "schedule = deterministic\n", "")
    assert load_config(_with(text, "m = 4 8", "m = 1")).m_list == (1, 1)


@pytest.mark.parametrize("label", ["EM-LD", "ULMC"])
def test_schemes_without_a_midpoint_reject_the_schedule_key(label):
    text = _with(BASE, "name = DM-ULMC", f"name = {label}")
    if label == "EM-LD":
        text = _with(text, "gamma = 1.0\n", "")
    with pytest.raises(ConfigError, match=rf"line \d+ .*{label} has no midpoint to schedule"):
        load_config(text)
    cfg = load_config(_with(text, "schedule = deterministic\n", ""))
    assert cfg.schedule_mode == "deterministic"


def test_hash_ignores_line_order_and_comments():
    sections = BASE.split("[")[1:]
    reordered = "".join("[" + s for s in reversed(sections))
    reordered = _with(reordered, "seed = 3\nn_paths = 1000", "n_paths = 1000\nseed = 3")
    commented = "# a comment\n" + _with(BASE, "[grid]", "\n# grid\n[grid]\n  # indented\n")
    same_grid = _with(BASE, "h = 1/8 1/16", "N = 8 16")
    hashes = {load_config(t).config_hash for t in (BASE, reordered, commented, same_grid)}
    assert len(hashes) == 1


@pytest.mark.parametrize(
    "old, new",
    [
        ("name = kl-order-sweep", "name = normalization"),
        ("seed = 3", "seed = 4"),
        ("n_paths = 1000", "n_paths = 1001"),
        ("kind = anisotropic-gaussian", "kind = perturbed-quadratic"),
        ("spectrum = 1.0 2.0", "spectrum = 0.5 2.0"),  # alpha
        ("spectrum = 1.0 2.0", "spectrum = 1.0 1.5"),  # beta
        ("spectrum = 1.0 2.0", "spectrum = 1.0 2.0 1.5"),  # d
        ("T = 1", "T = 2"),
        ("h = 1/8 1/16", "h = 1/8 1/32"),
        ("m = 4 8", "m = 4 16"),
        pytest.param(  # ULMC takes no schedule key
            "name = DM-ULMC\ngamma = 1.0\nschedule = deterministic\n", "name = ULMC\ngamma = 1.0\n",
            id="name = DM-ULMC-name = ULMC",
        ),
        ("schedule = deterministic", "schedule = randomized"),
        ("gamma = 1.0", "gamma = 2.0"),
        ("q = 2", "q = 2 3"),
    ],
)
def test_hash_changes_with_every_resolved_field(old, new):
    assert load_config(_with(BASE, old, new)).config_hash != load_config(BASE).config_hash


def test_hash_ignores_output_path_and_scheme_spelling():
    base = load_config(BASE).config_hash
    assert load_config(_with(BASE, "n_paths = 1000", "n_paths = 1000\noutput = x.csv")).config_hash == base
    assert load_config(_with(BASE, "name = DM-ULMC", "name = dmulmc")).config_hash == base


def test_largest_seed_loads():
    assert load_config(_with(BASE, "seed = 3", f"seed = {2**64 - 1}")).seed == 2**64 - 1


@pytest.mark.parametrize("scheme", ["name = M-LMC", "name = DM-ULMC\ngamma = 1.0"],
                         ids=["mlmc", "dmulmc"])
def test_schedules_are_the_schemes_per_grid_schedules(scheme):
    # grid i's schedule is the scheme's under the config's mode, seed and stream i
    text = _with(_with(BASE, "name = DM-ULMC\ngamma = 1.0", scheme),
                 "schedule = deterministic", "schedule = randomized")
    cfg = load_config(text)
    s, grids = SCHEMES[cfg.scheme], cfg.grids()
    got = cfg.schedules()
    want = [s.schedule(grid, "randomized", 3, i) for i, grid in enumerate(grids)]
    assert len(grids) == len(got) == len(want) == 2
    for a, b, grid in zip(got, want, grids):
        assert type(a) is type(b) and a.grid == b.grid == grid
        for f in dataclasses.fields(a)[1:]:  # the index arrays after the grid
            np.testing.assert_array_equal(getattr(a, f.name), getattr(b, f.name))
    # stream 1, not stream 0, on the second grid
    first_stream = s.schedule(grids[1], "randomized", 3, 0)
    assert any(not np.array_equal(getattr(got[1], f.name), getattr(first_stream, f.name))
               for f in dataclasses.fields(first_stream)[1:])
