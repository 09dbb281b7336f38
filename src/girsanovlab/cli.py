"""Command-line front end.

Subcommands:

``run <config>``
    Execute the experiment named in the config, write its CSV report, and
    print one summary line per built-in threshold check.  Exit 0 iff all
    checks pass.

``verify``
    Run the twelve-point acceptance suite, print one PASS/FAIL line per
    criterion, write each criterion's CSV artifacts, and exit 0 iff all
    criteria pass.

``dump-path <config>``
    Print (or write) every trajectory array of one simulated path as
    deterministic text at 17 significant digits.

``dump-blocks <config>``
    Print (or write) the derivative blocks and log-weight decomposition of
    one simulated path in the same format.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .acceptance import DEFAULT_SEED, AcceptanceSuite
from .config import ConfigError, ExperimentConfig, load_config_file
from .engine import scheme_for, start_states
from .experiments import run
from .girsanov import block_summary_dense, summary_log_weight
from .paths import noise_matrix

#: per-path trajectory arrays that ``dump-path`` prints, when the scheme has them
PATH_FIELDS = ("x", "p", "x_minus", "x_plus", "lambda1", "lambda2")


def _fmt17(value: float) -> str:
    return "%.17g" % float(value)


def _emit_array(lines: list[str], name: str, arr: np.ndarray) -> None:
    flat = np.asarray(arr)
    for idx in np.ndindex(*flat.shape):
        key = ":".join(str(i) for i in idx) if idx else "0"
        if np.issubdtype(flat.dtype, np.integer):
            lines.append(f"{name},{key},{int(flat[idx])}")
        else:
            lines.append(f"{name},{key},{_fmt17(flat[idx])}")


def _path_setup(cfg: ExperimentConfig, path_index: int):
    """Simulate path ``path_index`` alone; return the scheme and its pieces.

    Start state and increments are row ``path_index`` of the seed's streams,
    as in a run over all paths.  The dumps print the last row of each array,
    so they print the same path when rows 0..path_index are read instead.
    """
    scheme = scheme_for(cfg.scheme)
    potential = cfg.potential
    schedule = cfg.schedules()[0]
    z0 = start_states(potential, scheme.kinetic, cfg.seed, 1, start=path_index)
    xi = noise_matrix(cfg.seed, 1, schedule.grid.n_cells, potential.d, start=path_index)
    traj = scheme.simulate(potential, schedule, cfg.gamma, z0, xi)
    return scheme, schedule, z0, xi, traj


def _dump_header(cfg: ExperimentConfig, kind: str, path_index: int,
                 grid) -> list[str]:
    return [
        f"# girsanovlab {kind} dump",
        f"# experiment={cfg.experiment} config_hash={cfg.config_hash} "
        f"seed={cfg.seed} scheme={cfg.scheme} path={path_index}",
        f"# grid T={grid.T:g} N={grid.N} m={grid.m}",
        "array,index,value",
    ]


def _write_text(text: str, output: str | None) -> None:
    if output in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _integer(what: str, low: int = 0, bits: int | None = None):
    """An argparse ``type=``: an integer in [low, 2**bits), else a usage error (exit 2)."""

    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{what} must be an integer, got {text!r}") from None
        if value < low or (bits is not None and value >= 2**bits):
            bound = f">= {low}" if bits is None else f"in [{low}, 2**{bits})"
            raise argparse.ArgumentTypeError(f"{what} must be {bound}, got {value}")
        return value

    return convert


def _cmd_run(args) -> int:
    cfg = load_config_file(args.config)
    result = run(cfg, threads=args.threads, output=args.output)
    for line in result.summary_lines():
        print(line)
    print(f"wrote {result.csv_path} ({len(result.rows)} rows)")
    return 0 if result.passed else 1


def _parse_only(text: str) -> tuple[int, ...]:
    """Criterion numbers of ``--only``; ConfigError unless each is in 1..12."""
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ConfigError(f"--only names no criterion: {text!r}")
    try:
        only = tuple(int(tok) for tok in tokens)
    except ValueError:
        raise ConfigError(f"--only takes criterion numbers, got {text!r}") from None
    bad = [i for i in only if not 1 <= i <= 12]
    if bad:
        raise ConfigError(f"--only criteria must be in 1..12, got {bad}")
    return only


def _cmd_verify(args) -> int:
    only = None if args.only is None else _parse_only(args.only)
    suite = AcceptanceSuite(seed=args.seed, threads=args.threads)
    results = suite.run(only=only)
    os.makedirs(args.output_dir, exist_ok=True)
    for res in results:
        print(res.line, flush=True)
        for name, text in res.artifacts:
            path = os.path.join(args.output_dir, name)
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
    n_pass = sum(r.passed for r in results)
    print(f"acceptance: {n_pass}/{len(results)} criteria passed "
          f"(seed {args.seed}, reports in {args.output_dir})")
    return 0 if n_pass == len(results) else 1


def _cmd_dump_path(args) -> int:
    cfg = load_config_file(args.config)
    b = args.path
    _, schedule, z0, xi, traj = _path_setup(cfg, b)
    lines = _dump_header(cfg, "path", b, schedule.grid)
    _emit_array(lines, "z0", z0[-1])
    _emit_array(lines, "xi", xi[-1])
    for f in dataclasses.fields(schedule):  # a grid, ULMC's schedule, has no arrays
        value = getattr(schedule, f.name)
        if isinstance(value, np.ndarray):
            _emit_array(lines, f"schedule.{f.name}", value)
    for name in PATH_FIELDS:
        value = getattr(traj, name, None)
        if value is not None:
            _emit_array(lines, name, value[-1])
    _write_text("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_dump_blocks(args) -> int:
    cfg = load_config_file(args.config)
    b = args.path
    scheme, schedule, _, xi, traj = _path_setup(cfg, b)
    psi = scheme.drift(cfg.potential, traj)
    blocks = scheme.blocks(cfg.potential, traj)
    lw = summary_log_weight(psi, block_summary_dense(blocks), xi)
    lines = _dump_header(cfg, "blocks", b, schedule.grid)
    _emit_array(lines, "psi", psi[-1])
    _emit_array(lines, "diag", blocks.diag[-1])
    for name, value in (
        ("log_cf_det", lw.log_cf_det[-1]),
        ("skorohod", lw.skorohod[-1]),
        ("energy", lw.energy[-1]),
        ("log_weight", lw.log_weight[-1]),
        ("spectral_radius", lw.spectral_radius[-1]),
    ):
        lines.append(f"{name},0,{_fmt17(value)}")
    _write_text("\n".join(lines) + "\n", args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="girsanovlab",
        description="Midpoint Langevin discretizations with pathwise "
                    "change-of-measure weights: experiments, acceptance "
                    "checks, and deterministic dumps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configured experiment")
    p_run.add_argument("config", help="path to a config file")
    p_run.add_argument("--threads", type=_integer("threads", low=1), default=1,
                       help="worker threads (results are thread-invariant)")
    p_run.add_argument("--output", default=None,
                       help="CSV output path (default: config output key, "
                            "else <experiment>.csv)")
    p_run.set_defaults(func=_cmd_run)

    p_ver = sub.add_parser("verify", help="run the acceptance suite")
    p_ver.add_argument("--seed", type=_integer("seed", bits=64), default=DEFAULT_SEED,
                       help=f"suite seed (default {DEFAULT_SEED})")
    p_ver.add_argument("--threads", type=_integer("threads", low=1), default=1,
                       help="worker threads (results are thread-invariant)")
    p_ver.add_argument("--only", default=None,
                       help="comma-separated criterion numbers, e.g. 1,6,7")
    p_ver.add_argument("--output-dir", default="girsanovlab-verify",
                       help="directory for criterion CSV artifacts")
    p_ver.set_defaults(func=_cmd_verify)

    for name, fn, blurb in (
        ("dump-path", _cmd_dump_path,
         "dump one simulated path's arrays as text"),
        ("dump-blocks", _cmd_dump_blocks,
         "dump one path's derivative blocks and log-weight parts"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("config", help="path to a config file")
        p.add_argument("--path", type=_integer("path index"), default=0,
                       help="path index within the seed's stream (default 0)")
        p.add_argument("--output", default=None,
                       help="output file (default: stdout)")
        p.set_defaults(func=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
