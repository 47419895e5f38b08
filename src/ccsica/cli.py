"""Command line interface.

Subcommands: gen, mix, separate, eval, bench, surface.  Exit codes: 0 on
success, 2 for invalid input, 3 for numerical failure, 4 for file I/O
failure.  A YAML config file may preload any long-form flag; explicit flags
win over the file.  Either way, separate refuses a solver flag off its default
that its algorithm's config lacks, and eval --demixer or --mixing alone.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import yaml

from . import bench as bench_mod
from .divergences import DIVERGENCE_IDS, divergence_slice, divergence_surface
from .errors import CcsIcaError, InvalidInput, IoFailure
from .fileio import (WAV_RATE, read_matrix_csv, read_signal_csv, read_wav, write_csv,
                     write_matrix_csv, write_signal_csv, write_wav)
from .metrics import amari_index, sir_db
from .optimizers import ALGORITHMS, PAIRWISE_GD_SWEEPS, GdConfig, JacobiConfig, separate
from .preprocess import resolve
from .sources import (SOURCE_KINDS, MixingModel, mix, noise_sigma_for_snr,
                      random_mixing_matrix, rng_for, source_bank)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _parse_list(text: str) -> list[float]:
    """A comma list of floats."""
    try:
        return [float(v) for v in str(text).split(",") if v != ""]
    except ValueError as exc:
        raise InvalidInput(f"cannot parse number list {text!r}") from exc


def _out_path(out: str, name: str | None = None) -> Path:
    """A command's output directory, or given a default name, its output file:
    `out` if it names a .csv file, else out/name. IoFailure unless the nearest
    existing ancestor is a writable directory; the writers make the missing ones."""
    path = Path(out)
    if name is not None and path.suffix != ".csv":
        path = path / name
    start = path if name is None else path.parent
    existing = next(p for p in (start, *start.parents) if p.exists())
    if not (existing.is_dir() and os.access(existing, os.W_OK | os.X_OK)):
        raise IoFailure(f"cannot write to {path}: {existing} is not a writable directory")
    return path


def _read_any_signal(paths) -> tuple[np.ndarray, int | None]:
    """The signals of a comma list or a list of paths, each a signal CSV or a
    mono WAV, trimmed to the shortest and stacked, and the WAVs' common sample
    rate (None without a WAV).  InvalidInput if no path is given or the WAVs'
    rates differ."""
    parts = [p.strip() for p in paths.split(",") if p.strip()] if isinstance(paths, str) else paths
    if not parts:
        raise InvalidInput(f"no readable signal in {paths!r}")
    rows, rates = [], set()
    for p in parts:
        if str(p).endswith(".wav"):
            rate, data = read_wav(p)
            rates.add(rate)
        else:
            data = read_signal_csv(p)
        rows.append(np.atleast_2d(data))
    if len(rates) > 1:
        raise InvalidInput(f"WAV inputs have different sample rates: {sorted(rates)} Hz")
    n = min(b.shape[1] for b in rows)
    return np.vstack([b[:, :n] for b in rows]), next(iter(rates), None)


def _wav_safe(row: np.ndarray) -> np.ndarray:
    # shrink into the 16-bit range instead of letting the writer clip
    peak = float(np.max(np.abs(row), initial=0.0))
    if peak > 0.95:
        return row * (0.95 / peak)
    return row


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    # resolved first, so that each file is named by the id it draws
    kinds = [resolve(k, SOURCE_KINDS, "source kind") for k in args.kinds.split(",") if k.strip()]
    out = _out_path(args.out)
    # draw every row before writing, so a bad kind or shape leaves no files
    rows = source_bank(kinds, args.t, args.seed, args.tau1, args.tau2)
    for i, (kind, data) in enumerate(zip(kinds, rows)):
        name = f"source_{i:02d}_{kind}"
        if args.format == "wav":
            write_wav(out / f"{name}.wav", _wav_safe(data))
        else:
            write_signal_csv(out / f"{name}.csv", data)
    print(f"wrote {len(kinds)} source file(s) to {out}")
    return EXIT_OK


def cmd_mix(args) -> int:
    sources, _ = _read_any_signal(args.inputs)
    if args.matrix in (None, "random"):
        a = random_mixing_matrix(sources.shape[0], rng_for(args.seed, 0x31))
    else:
        # a matrix that cannot mix the sources is refused before a @ sources sets the noise level
        a = MixingModel(read_matrix_csv(args.matrix)).matrix
        if len(a) != len(sources):
            raise InvalidInput(f"mixing matrix is {len(a)}x{len(a)} but sources have {len(sources)} rows")
    out = _out_path(args.out)
    sigma = 0.0
    if args.snr_db is not None:
        sigma = noise_sigma_for_snr(a @ sources, args.snr_db)
    x = mix(sources, MixingModel(a, noise_sigma=sigma), seed=args.seed)
    write_signal_csv(out / "mixture.csv", x)
    write_matrix_csv(out / "mixing_matrix.csv", a)
    print(f"wrote mixture.csv and mixing_matrix.csv to {out}")
    return EXIT_OK


def cmd_separate(args) -> int:
    # each solver flag by the GdConfig/JacobiConfig field it sets; --sweeps is pairwise-gd's own
    flags = {"--alpha": ("alpha", args.alpha), "--gamma": ("step_size", args.gamma),
             "--ts": ("stride", args.ts), "--max-iter": ("max_iter", args.max_iter),
             "--epsilon": ("epsilon", args.epsilon)}
    algorithm = resolve(args.algorithm, ALGORITHMS, "algorithm")
    jacobi = algorithm == "jacobi"
    cfg_class = JacobiConfig if jacobi else GdConfig
    read = {f.name for f in fields(cfg_class)}
    # a flag at its default is accepted, given or not: argparse cannot tell the two apart
    unread = [flag for flag, (name, value) in flags.items()
              if name not in read and value != getattr(GdConfig, name)]
    pairwise = algorithm == "pairwise-gd"
    if not pairwise and args.sweeps != PAIRWISE_GD_SWEEPS:
        unread.append("--sweeps")
    if unread:
        raise InvalidInput(f"--algorithm {algorithm} does not read {', '.join(unread)}")
    cfg = cfg_class(**{name: value for name, value in flags.values() if name in read})
    solver = {"jacobi_cfg": cfg} if jacobi else {"gd_cfg": cfg, "sweeps": args.sweeps if pairwise else None}
    x, rate = _read_any_signal(args.input)
    out = _out_path(args.out)
    res = separate(x, algorithm, **solver)
    y = res.estimate(x)
    if args.format == "wav":
        for k, row in enumerate(y):
            write_wav(out / f"estimate_{k:02d}.wav", _wav_safe(row), rate or WAV_RATE)
        estimate_note = f"{y.shape[0]} estimate WAV file(s)"
    else:
        write_signal_csv(out / "estimates.csv", y)
        estimate_note = "estimates.csv"
    write_matrix_csv(out / "demixer.csv", res.demixer)
    write_csv(out / "trace.csv", ["iteration", "value"], [(i, float(v)) for i, v in enumerate(res.trace)])
    if res.cm is not None:
        write_matrix_csv(out / "cm.csv", res.cm)
    print(f"wrote {estimate_note}, demixer.csv and trace.csv to {out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    if (args.demixer is None) != (args.mixing is None):
        raise InvalidInput("eval needs --demixer and --mixing together, for the Amari index")
    estimates, _ = _read_any_signal(args.estimates)
    truth, _ = _read_any_signal(args.truth)
    out_path = _out_path(args.out, "metrics.csv")
    rows = []
    sirs = sir_db(estimates, truth)
    for k, v in enumerate(sirs):
        rows.append(["sir_db", str(k), float(v)])
    if args.demixer is not None:
        w = read_matrix_csv(args.demixer)
        a = read_matrix_csv(args.mixing)
        rows.append(["amari_x100", "", 100.0 * amari_index(w, a)])
    write_csv(out_path, ["metric", "source", "value"], rows)
    print(f"wrote {out_path}")
    return EXIT_OK


def cmd_bench(args) -> int:
    table = resolve(args.table, bench_mod.TABLE_IDS, "bench table")
    wav_sources = None
    if args.wav is not None:
        paths = sorted(Path(args.wav).glob("*.wav"))
        if len(paths) < 3:
            raise InvalidInput(f"bench fig6/fig7 needs 3 WAV files in {args.wav}")
        wav_sources, _ = _read_any_signal(paths[:3])
    dims = _parse_list(args.dims) if args.dims else None
    samples = _parse_list(args.samples) if args.samples else None
    fracs = _parse_list(args.eval_fracs) if args.eval_fracs else None
    matrix = read_matrix_csv(args.matrix) if args.matrix else None
    out_path = _out_path(args.out, f"bench_{table}.csv")
    header, rows = bench_mod.run_bench(
        table, scale=args.scale, seed=args.seed, jobs=args.jobs,
        algorithm=args.algorithm, wav_sources=wav_sources,
        dims=dims, samples=samples, eval_fracs=fracs, snr_db=args.snr_db,
        matrix=matrix,
    )
    write_csv(out_path, header, rows)
    print(f"wrote {out_path}")
    return EXIT_OK


def cmd_surface(args) -> int:
    divergence = resolve(args.divergence, DIVERGENCE_IDS, "divergence id")
    marg1 = _parse_list(args.marg1)
    out_path = _out_path(args.out, f"surface_{divergence}.csv")
    kwargs = dict(alpha=args.alpha, weight=args.weight, beta=args.beta)
    if args.marg2 is not None:
        rows = divergence_slice(marg1, _parse_list(args.marg2), args.grid, divergence, **kwargs)
    else:
        rows = divergence_surface(marg1, args.grid, divergence, **kwargs)
    write_csv(out_path, ["pAA", "pBA", "value"], [tuple(float(v) for v in r) for r in rows])
    print(f"wrote {out_path} ({len(rows)} nodes)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly and config-file merging


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser, and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(prog="ccsica", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=str, default=None, help="YAML file preloading any long flag")
        p.add_argument("--out", type=str, default="out",
                       help="output file or directory (default %(default)s)")

    def seeded(p):
        p.add_argument("--seed", type=int, default=0, help="base RNG seed (default %(default)s)")
        common(p)

    g = sub.add_parser("gen", help="generate synthetic source files")
    seeded(g)
    g.add_argument("--kinds", type=str, default="uniform,laplacian",
                   help=f"comma list from {SOURCE_KINDS} (default %(default)s)")
    g.add_argument("--t", type=int, default=1000, help="samples per source (default %(default)s)")
    g.add_argument("--tau1", type=float, default=3.0, help="uniform half width (default %(default)s)")
    g.add_argument("--tau2", type=float, default=1.0, help="laplacian scale (default %(default)s)")
    g.add_argument("--format", choices=("csv", "wav"), default="csv",
                   help="source file format (default %(default)s)")
    g.set_defaults(func=cmd_gen)

    mx = sub.add_parser("mix", help="mix source files through a matrix")
    seeded(mx)
    mx.add_argument("--inputs", type=str, required=True, help="comma list of source files")
    mx.add_argument("--matrix", type=str, default=None,
                    help="matrix CSV path or 'random' (default: random)")
    mx.add_argument("--snr-db", dest="snr_db", type=float, default=None,
                    help="add noise at this SNR (default: noise free)")
    mx.set_defaults(func=cmd_mix)

    sep = sub.add_parser("separate", help="estimate a demixing matrix")
    common(sep)
    sep.add_argument("--input", type=str, required=True, help="mixture CSV or comma list of WAVs")
    sep.add_argument("--algorithm", type=str, default="jacobi",
                     help=f"solver, one of {ALGORITHMS} (default %(default)s)")
    sep.add_argument("--alpha", type=float, default=GdConfig.alpha, help="curvature (default %(default)s)")
    sep.add_argument("--gamma", type=float, default=GdConfig.step_size,
                     help="gradient step size (default %(default)s)")
    sep.add_argument("--ts", type=int, default=GdConfig.stride,
                     help="evaluation stride (default %(default)s)")
    sep.add_argument("--max-iter", dest="max_iter", type=int, default=GdConfig.max_iter,
                     help="gradient iteration cap (default %(default)s)")
    sep.add_argument("--epsilon", type=float, default=GdConfig.epsilon,
                     help="contrast-change stop (default %(default)s)")
    sep.add_argument("--sweeps", type=int, default=PAIRWISE_GD_SWEEPS,
                     help="pairwise-gd sweep count (default %(default)s)")
    sep.add_argument("--format", choices=("csv", "wav"), default="csv",
                     help="estimate output format (default %(default)s)")
    sep.set_defaults(func=cmd_separate)

    ev = sub.add_parser("eval", help="score estimates against ground truth")
    common(ev)
    ev.add_argument("--estimates", type=str, required=True)
    ev.add_argument("--truth", type=str, required=True)
    ev.add_argument("--demixer", type=str, default=None, help="demixing matrix CSV (for the index)")
    ev.add_argument("--mixing", type=str, default=None, help="mixing matrix CSV (for the index)")
    ev.set_defaults(func=cmd_eval)

    be = sub.add_parser("bench", help="run a canned experiment grid")
    seeded(be)
    be.add_argument("table", type=str, help=f"one of {bench_mod.TABLE_IDS}")
    be.add_argument("--scale", type=float, default=1.0,
                    help="trial/grid shrink factor in (0,1] (default %(default)s)")
    be.add_argument("--jobs", type=int, default=1,
                    help="trial worker processes, at most one per trial and per CPU (default %(default)s)")
    be.add_argument("--algorithm", type=str, default="jacobi",
                    help=f"solver for t1/t4/t5/fig6/fig7, one of {ALGORITHMS} (default %(default)s)")
    be.add_argument("--dims", type=str, default=None, help="override dimension list, e.g. 2,4")
    be.add_argument("--samples", type=str, default=None, help="override sample-count list")
    be.add_argument("--eval-fracs", dest="eval_fracs", type=str, default=None,
                    help="t5 evaluation-set fractions, e.g. 0.1,0.01,1")
    be.add_argument("--snr-db", dest="snr_db", type=float, default=None, help="fig7 noise level")
    be.add_argument("--wav", type=str, default=None, help="directory of 3 WAV sources for fig6/fig7")
    be.add_argument("--matrix", type=str, default=None,
                    help="mixing matrix CSV overriding the fig6/fig7 demo matrix")
    be.set_defaults(func=cmd_bench)

    su = sub.add_parser("surface", help="tabulate a divergence over a 2x2 table family")
    common(su)
    su.add_argument("--divergence", type=str, default="ccs",
                    help=f"one of {DIVERGENCE_IDS} (default %(default)s)")
    su.add_argument("--marg1", type=str, default="0.6,0.4", help="first marginal (default %(default)s)")
    su.add_argument("--marg2", type=str, default=None,
                    help="second marginal; fixes the slice instead of the surface")
    su.add_argument("--grid", type=int, default=64, help="nodes per free cell (default %(default)s)")
    su.add_argument("--alpha", type=float, default=-1.0,
                    help="curvature for ccs/alpha/c; alpha needs a value other than +1/-1 "
                         "(default %(default)s)")
    su.add_argument("--weight", type=float, default=0.5,
                    help="mixture weight for js/c (default %(default)s)")
    su.add_argument("--beta", type=float, default=2.0,
                    help="exponent for the beta divergence (default %(default)s)")
    su.set_defaults(func=cmd_surface)
    return parser, sub.choices


def _config_value(action: argparse.Action, key: str, value):
    """Convert and check one config-file value as its flag would be."""
    try:
        value = (action.type or str)(str(value))
    except ValueError as exc:
        raise InvalidInput(f"config value {key}: {value!r} is not valid: {exc}") from exc
    if action.choices is not None and value not in action.choices:
        raise InvalidInput(f"config value {key}: {value!r} is not one of {tuple(action.choices)}")
    return value


def _config_defaults(path: str, parser: argparse.ArgumentParser) -> dict:
    """The YAML config's values for `parser`'s long flags, each checked as the
    flag would check it; null values and keys that name no flag are ignored."""
    try:
        with open(path) as fh:
            loaded = yaml.safe_load(fh) or {}
    except OSError as exc:
        raise IoFailure(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise InvalidInput(f"config {path} is not valid YAML: {exc}") from exc
    if not isinstance(loaded, dict):
        raise InvalidInput("config file must hold a key/value mapping")
    flags = {a.dest: a for a in parser._actions if a.option_strings and a.dest != "help"}
    values = {str(k).replace("-", "_"): v for k, v in loaded.items()}
    return {key: _config_value(flags[key], key, value)
            for key, value in values.items() if key in flags and value is not None}


def main(argv=None) -> int:
    parser, commands = _build_parser()
    # a warning is one stderr line, as an error is, whatever the process's filters: -W error
    # must not turn it into a traceback and an undocumented exit code
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            args = parser.parse_args(argv)
            if args.config:
                # file values become the subcommand's defaults, so explicit flags still win
                command = commands[args.command]
                command.set_defaults(**_config_defaults(args.config, command))
                args = parser.parse_args(argv)
            return args.func(args)
        except InvalidInput as exc:
            print(f"error: invalid input: {exc}", file=sys.stderr)
            return EXIT_INVALID
        except IoFailure as exc:
            print(f"error: i/o failure: {exc}", file=sys.stderr)
            return EXIT_IO
        except CcsIcaError as exc:
            print(f"error: numerical failure: {exc}", file=sys.stderr)
            return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
