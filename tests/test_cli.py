"""Command-line front end: deterministic dumps and typed exit codes."""

import numpy as np
import pytest

from girsanovlab import cli
from girsanovlab.cli import main
from girsanovlab.engine import start_states
from girsanovlab.paths import noise_matrix

SCHEMES = {
    "em-ld": "name = EM-LD",
    "mlmc": "name = M-LMC",
    "ulmc": "name = ULMC\ngamma = 1.0",
    "dmulmc": "name = DM-ULMC\ngamma = 1.0",
}


def _config(tmp_path, scheme: str) -> str:
    path = tmp_path / f"{scheme}.cfg"
    path.write_text(f"""
[experiment]
name = normalization
seed = 9
[potential]
kind = perturbed-quadratic
spectrum = 1.0 2.0
[grid]
T = 0.5
N = 4
m = 4
[scheme]
{SCHEMES[scheme]}
""")
    return str(path)


def _dump(tmp_path, command: str, cfg: str, path_index: int, tag: str) -> str:
    out = tmp_path / f"{tag}.txt"
    assert main([command, cfg, "--path", str(path_index), "--output", str(out)]) == 0
    return out.read_text()


def _array_names(text: str) -> set[str]:
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")][1:]
    return {ln.split(",")[0] for ln in lines}


@pytest.mark.parametrize("command", ["dump-path", "dump-blocks"])
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_dumps_are_deterministic(tmp_path, command, scheme):
    cfg = _config(tmp_path, scheme)
    first = _dump(tmp_path, command, cfg, 1, "first")
    second = _dump(tmp_path, command, cfg, 1, "second")
    assert first == second
    assert f"scheme={scheme} path=1" in first


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_dump_path_fields_do_not_depend_on_the_path_index(tmp_path, scheme):
    # N = 4 outer steps: a per-step array of length N must not pass for a
    # per-path one
    cfg = _config(tmp_path, scheme)
    names = [_array_names(_dump(tmp_path, "dump-path", cfg, b, f"p{b}")) for b in (2, 3)]
    assert names[0] == names[1]
    assert "iterations" not in names[1]
    assert {"z0", "xi", "x"} <= names[1]


def test_run_on_malformed_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("[experiment]\nname = normalization\nbogus = 1\n")
    assert main(["run", str(path), "--output", str(tmp_path / "out.csv")]) == 2
    assert "unknown key 'bogus'" in capsys.readouterr().err


SWEEPS = {
    "local-error-sweep": "kind = anisotropic-gaussian\nspectrum = 0.5 1.0",
    "kl-order-sweep": "kind = gaussian\nd = 2",
}


@pytest.mark.parametrize("experiment", sorted(SWEEPS))
def test_sweep_over_equal_step_sizes_reports_no_fit(tmp_path, capsys, experiment):
    path = tmp_path / "equal.cfg"
    path.write_text(f"""
[experiment]
name = {experiment}
n_paths = 64
seed = 3
[potential]
{SWEEPS[experiment]}
[grid]
T = 0.25
h = 1/8 1/8 1/8
m = 4
[scheme]
name = DM-ULMC
gamma = 1.0
""")
    assert main(["run", str(path), "--output", str(tmp_path / "out.csv")]) == 1
    out = capsys.readouterr().out
    assert "decay order: no fit" in out and "FAIL" in out
    assert "all x are equal" in out
    assert (tmp_path / "out.csv").exists()


class _RecordingSuite:
    """Stands in for the acceptance suite and records what it was asked to run."""

    calls: list = []

    def __init__(self, seed, threads):
        pass

    def run(self, only=None):
        self.calls.append(only)
        return []


@pytest.mark.parametrize("only", ["1,x", ",", " "], ids=["non-number", "comma", "blank"])
def test_verify_rejects_a_malformed_only_list(monkeypatch, tmp_path, capsys, only):
    monkeypatch.setattr(cli, "AcceptanceSuite", _RecordingSuite)
    monkeypatch.setattr(_RecordingSuite, "calls", [])
    assert main(["verify", "--only", only, "--output-dir", str(tmp_path)]) == 2
    assert "--only" in capsys.readouterr().err
    assert _RecordingSuite.calls == []


def test_verify_only_accepts_commas_and_spaces(monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "AcceptanceSuite", _RecordingSuite)
    monkeypatch.setattr(_RecordingSuite, "calls", [])
    assert main(["verify", "--only", " 3, 1 12", "--output-dir", str(tmp_path)]) == 0
    assert _RecordingSuite.calls == [(3, 1, 12)]


@pytest.mark.parametrize("seed", ["-5", str(2**64), "x"], ids=["negative", "too-large", "non-number"])
def test_verify_rejects_a_seed_outside_the_noise_key(monkeypatch, tmp_path, capsys, seed):
    monkeypatch.setattr(cli, "AcceptanceSuite", _RecordingSuite)
    monkeypatch.setattr(_RecordingSuite, "calls", [])
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--seed", seed, "--output-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert _RecordingSuite.calls == []


@pytest.mark.parametrize("command", ["dump-path", "dump-blocks"])
def test_dumps_reject_a_negative_path_index(tmp_path, capsys, command):
    cfg = _config(tmp_path, "mlmc")
    with pytest.raises(SystemExit) as exc:
        main([command, cfg, "--path", "-1", "--output", str(tmp_path / "out.txt")])
    assert exc.value.code == 2
    assert "--path" in capsys.readouterr().err


def test_dump_with_a_negative_seed_in_the_config_exits_2(tmp_path, capsys):
    path = tmp_path / "neg.cfg"
    _config(tmp_path, "mlmc")
    path.write_text((tmp_path / "mlmc.cfg").read_text().replace("seed = 9", "seed = -1"))
    assert main(["dump-path", str(path), "--output", str(tmp_path / "out.txt")]) == 2
    assert "seed must be in" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("threads", ["0", "-3", "x"], ids=["zero", "negative", "non-number"])
def test_threads_below_one_exit_2(monkeypatch, tmp_path, capsys, command, threads):
    monkeypatch.setattr(cli, "AcceptanceSuite", _RecordingSuite)
    monkeypatch.setattr(_RecordingSuite, "calls", [])
    out = tmp_path / "out"
    if command == "run":
        argv = ["run", _config(tmp_path, "mlmc"), "--output", str(out)]
    else:
        argv = ["verify", "--output-dir", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--threads", threads])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert _RecordingSuite.calls == [] and not out.exists()


def _dump_from_all_rows(monkeypatch, tmp_path, command, cfg, b):
    """The dump of path b made the earlier way: simulate paths 0..b, print row b."""
    with monkeypatch.context() as patch:
        patch.setattr(cli, "start_states",
                      lambda pot, kinetic, seed, n, start=0: start_states(pot, kinetic, seed, start + n))
        patch.setattr(cli, "noise_matrix",
                      lambda seed, n, cells, d, start=0: noise_matrix(seed, start + n, cells, d))
        return _dump(tmp_path, command, cfg, b, "all-rows")


@pytest.mark.parametrize("command", ["dump-path", "dump-blocks"])
def test_dump_reads_one_row_with_the_output_of_all_rows(monkeypatch, tmp_path, command):
    # M-LMC arithmetic is row by row, so reading row b alone changes no byte
    cfg = _config(tmp_path, "mlmc")
    for b in (0, 5, 4097):
        alone = _dump(tmp_path, command, cfg, b, "alone")
        assert alone == _dump_from_all_rows(monkeypatch, tmp_path, command, cfg, b)


def test_dmulmc_dump_of_one_row_agrees_with_all_rows_to_rounding(monkeypatch, tmp_path):
    # the fixed point stops on the batch-wide maximum change, so a batch of
    # one may take another number of sweeps; the states agree to rounding
    cfg = _config(tmp_path, "dmulmc")
    b = 37
    texts = (_dump(tmp_path, "dump-path", cfg, b, "alone"),
             _dump_from_all_rows(monkeypatch, tmp_path, "dump-path", cfg, b))
    rows = [[ln.rsplit(",", 1) for ln in t.splitlines() if not ln.startswith("#")][1:]
            for t in texts]
    assert [key for key, _ in rows[0]] == [key for key, _ in rows[1]]
    values = np.array([[float(v) for _, v in r] for r in rows])
    np.testing.assert_allclose(values[0], values[1], rtol=0, atol=1e-12)
