"""Command line interface.

Subcommands: gen, mix, separate, eval, bench, surface.  Exit codes: 0 on
success, 2 for invalid input, 3 for numerical failure, 4 for file I/O
failure.  A YAML config file may preload any long-form flag; explicit flags
win over the file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np
import yaml

from . import bench as bench_mod
from .divergences import DIVERGENCE_IDS, divergence_slice, divergence_surface
from .errors import (CcsIcaError, DegenerateDivergence, InvalidInput, IoFailure,
                     NonFinite, RankDeficient, SingularDemixer)
from .fileio import (read_matrix_csv, read_signal_csv, read_wav, write_csv,
                     write_matrix_csv, write_signal_csv, write_wav)
from .metrics import amari_index, sir_db
from .optimizers import ALGORITHMS, GdConfig, JacobiConfig, separate
from .sources import (SOURCE_KINDS, MixingModel, draw_source, mix,
                      noise_sigma_for_snr, random_mixing_matrix, rng_for)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(v) for v in str(text).split(",") if v != ""]
    except ValueError as exc:
        raise InvalidInput(f"cannot parse float list {text!r}") from exc


def _out_dir(path) -> Path:
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create output directory {out}: {exc}") from exc
    return out


def _read_any_signal(path: str) -> np.ndarray:
    """One file or a comma list; each entry a signal CSV or a mono WAV."""
    rows = []
    for part in (p.strip() for p in path.split(",")):
        if not part:
            continue
        if part.endswith(".wav"):
            _, data = read_wav(part)
            rows.append(np.atleast_2d(data))
        else:
            rows.append(np.atleast_2d(read_signal_csv(part)))
    if not rows:
        raise InvalidInput(f"no readable signal in {path!r}")
    n = min(b.shape[1] for b in rows)
    return np.vstack([b[:, :n] for b in rows])


def _wav_safe(row: np.ndarray) -> np.ndarray:
    # shrink into the 16-bit range instead of letting the writer clip
    peak = float(np.max(np.abs(row), initial=0.0))
    if peak > 0.95:
        return row * (0.95 / peak)
    return row


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
    if not kinds:
        raise InvalidInput("gen needs at least one source kind")
    # draw every row before writing, so a bad kind or shape leaves no files
    rows = [draw_source(k, args.t, rng_for(args.seed, i), args.tau1, args.tau2)
            for i, k in enumerate(kinds)]
    out = _out_dir(args.out)
    for i, (kind, data) in enumerate(zip(kinds, rows)):
        name = f"source_{i:02d}_{kind}"
        if args.format == "wav":
            write_wav(out / f"{name}.wav", _wav_safe(data))
        else:
            write_signal_csv(out / f"{name}.csv", data)
    print(f"wrote {len(kinds)} source file(s) to {out}")
    return EXIT_OK


def cmd_mix(args) -> int:
    sources = _read_any_signal(args.inputs)
    m = sources.shape[0]
    if args.matrix in (None, "random"):
        a = random_mixing_matrix(m, rng_for(args.seed, 0x31))
    else:
        a = read_matrix_csv(args.matrix)
    sigma = 0.0
    if args.snr_db is not None:
        sigma = noise_sigma_for_snr(a @ sources, args.snr_db)
    x = mix(sources, MixingModel(a, noise_sigma=sigma), seed=args.seed)
    out = _out_dir(args.out)
    write_signal_csv(out / "mixture.csv", x)
    write_matrix_csv(out / "mixing_matrix.csv", a)
    print(f"wrote mixture.csv and mixing_matrix.csv to {out}")
    return EXIT_OK


def cmd_separate(args) -> int:
    x = _read_any_signal(args.input)
    gd_cfg = GdConfig(step_size=args.gamma, max_iter=args.max_iter,
                      epsilon=args.epsilon, alpha=args.alpha, stride=args.ts)
    jac_cfg = JacobiConfig(alpha=args.alpha, stride=args.ts)
    if args.divergence != "ccs":
        raise InvalidInput("only the ccs contrast drives separation; other ids serve the surface command")
    res = separate(x, args.algorithm, gd_cfg=gd_cfg, jacobi_cfg=jac_cfg, sweeps=args.sweeps)
    out = _out_dir(args.out)
    y = res.estimate(x)
    if args.format == "wav":
        for k, row in enumerate(y):
            write_wav(out / f"estimate_{k:02d}.wav", _wav_safe(row))
        estimate_note = f"{y.shape[0]} estimate WAV file(s)"
    else:
        write_signal_csv(out / "estimates.csv", y)
        estimate_note = "estimates.csv"
    write_matrix_csv(out / "demixer.csv", res.demixer)
    if res.cm is not None:
        trace_rows = [(i, v) for i, v in enumerate(res.cm_sweep_totals)]
        write_csv(out / "trace.csv", ["iteration", "value"], trace_rows)
        write_matrix_csv(out / "cm.csv", res.cm)
    else:
        trace_rows = [(i, float(v)) for i, v in enumerate(res.trace)]
        write_csv(out / "trace.csv", ["iteration", "value"], trace_rows)
    print(f"wrote {estimate_note}, demixer.csv and trace.csv to {out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    estimates = _read_any_signal(args.estimates)
    truth = _read_any_signal(args.truth)
    rows = []
    sirs = sir_db(estimates, truth)
    for k, v in enumerate(sirs):
        rows.append(["sir_db", str(k), float(v)])
    if args.demixer is not None and args.mixing is not None:
        w = read_matrix_csv(args.demixer)
        a = read_matrix_csv(args.mixing)
        rows.append(["amari_x100", "", 100.0 * amari_index(w, a)])
    out_path = Path(args.out)
    if out_path.suffix != ".csv":
        out_path = _out_dir(args.out) / "metrics.csv"
    write_csv(out_path, ["metric", "source", "value"], rows)
    print(f"wrote {out_path}")
    return EXIT_OK


def cmd_bench(args) -> int:
    wav_sources = None
    if args.wav is not None:
        paths = sorted(Path(args.wav).glob("*.wav"))
        if len(paths) < 3:
            raise InvalidInput(f"bench fig6/fig7 needs 3 WAV files in {args.wav}")
        rows = [read_wav(p)[1] for p in paths[:3]]
        n = min(len(r) for r in rows)
        wav_sources = np.vstack([r[:n] for r in rows])
    dims = [int(v) for v in _parse_floats(args.dims)] if args.dims else None
    samples = [int(v) for v in _parse_floats(args.samples)] if args.samples else None
    fracs = _parse_floats(args.eval_fracs) if args.eval_fracs else None
    matrix = read_matrix_csv(args.matrix) if args.matrix else None
    header, rows = bench_mod.run_bench(
        args.table, scale=args.scale, seed=args.seed, jobs=args.jobs,
        algorithm=args.algorithm, wav_sources=wav_sources,
        dims=dims, samples=samples, eval_fracs=fracs, snr_db=args.snr_db,
        matrix=matrix,
    )
    out_path = Path(args.out)
    if out_path.suffix != ".csv":
        out_path = _out_dir(args.out) / f"bench_{args.table.lower()}.csv"
    write_csv(out_path, header, rows)
    print(f"wrote {out_path}")
    return EXIT_OK


def cmd_surface(args) -> int:
    marg1 = _parse_floats(args.marg1)
    kwargs = dict(alpha=args.alpha, weight=args.weight, beta=args.beta)
    if args.marg2 is not None:
        rows = divergence_slice(marg1, _parse_floats(args.marg2), args.grid, args.divergence, **kwargs)
    else:
        rows = divergence_surface(marg1, args.grid, args.divergence, **kwargs)
    out_path = Path(args.out)
    if out_path.suffix != ".csv":
        out_path = _out_dir(args.out) / f"surface_{args.divergence}.csv"
    write_csv(out_path, ["pAA", "pBA", "value"], [tuple(float(v) for v in r) for r in rows])
    print(f"wrote {out_path} ({len(rows)} nodes)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly and config-file merging


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ccsica", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None, help="base RNG seed (default 0)")
        p.add_argument("--config", type=str, default=None, help="YAML file preloading any long flag")
        p.add_argument("--out", type=str, default=None, help="output file or directory")

    g = sub.add_parser("gen", help="generate synthetic source files")
    common(g)
    g.add_argument("--kinds", type=str, default=None,
                   help=f"comma list from {SOURCE_KINDS} (default uniform,laplacian)")
    g.add_argument("--t", type=int, default=None, help="samples per source (default 1000)")
    g.add_argument("--tau1", type=float, default=None, help="uniform half width (default 3)")
    g.add_argument("--tau2", type=float, default=None, help="laplacian scale (default 1)")
    g.add_argument("--format", choices=("csv", "wav"), default=None, help="default csv")
    g.set_defaults(func=cmd_gen)

    mx = sub.add_parser("mix", help="mix source files through a matrix")
    common(mx)
    mx.add_argument("--inputs", type=str, required=True, help="comma list of source files")
    mx.add_argument("--matrix", type=str, default=None,
                    help="matrix CSV path or 'random' (default: random)")
    mx.add_argument("--snr-db", dest="snr_db", type=float, default=None,
                    help="add noise at this SNR (default: noise free)")
    mx.set_defaults(func=cmd_mix)

    sep = sub.add_parser("separate", help="estimate a demixing matrix")
    common(sep)
    sep.add_argument("--input", type=str, required=True, help="mixture CSV or comma list of WAVs")
    sep.add_argument("--algorithm", choices=ALGORITHMS, default=None, help="default jacobi")
    sep.add_argument("--divergence", type=str, default=None, help="contrast id (ccs)")
    sep.add_argument("--alpha", type=float, default=None, help="curvature (default -0.99999)")
    sep.add_argument("--gamma", type=float, default=None, help="gradient step size (default 0.3)")
    sep.add_argument("--ts", type=int, default=None, help="evaluation stride (default 1)")
    sep.add_argument("--max-iter", dest="max_iter", type=int, default=None,
                     help="gradient iteration cap (default 250)")
    sep.add_argument("--epsilon", type=float, default=None, help="contrast-change stop (default 1e-4)")
    sep.add_argument("--sweeps", type=int, default=None, help="pairwise-gd sweep count (default 3)")
    sep.add_argument("--format", choices=("csv", "wav"), default=None,
                     help="estimate output format (default csv)")
    sep.set_defaults(func=cmd_separate)

    ev = sub.add_parser("eval", help="score estimates against ground truth")
    common(ev)
    ev.add_argument("--estimates", type=str, required=True)
    ev.add_argument("--truth", type=str, required=True)
    ev.add_argument("--demixer", type=str, default=None, help="demixing matrix CSV (for the index)")
    ev.add_argument("--mixing", type=str, default=None, help="mixing matrix CSV (for the index)")
    ev.set_defaults(func=cmd_eval)

    be = sub.add_parser("bench", help="run a canned experiment grid")
    common(be)
    be.add_argument("table", type=str, help=f"one of {bench_mod.TABLE_IDS}")
    be.add_argument("--scale", type=float, default=None, help="trial/grid shrink factor in (0,1]")
    be.add_argument("--jobs", type=int, default=None, help="concurrent trial workers (default 1)")
    be.add_argument("--algorithm", choices=ALGORITHMS, default=None)
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
    su.add_argument("--divergence", type=str, default=None, help=f"one of {DIVERGENCE_IDS}")
    su.add_argument("--marg1", type=str, default=None, help="first marginal, e.g. 0.6,0.4")
    su.add_argument("--marg2", type=str, default=None,
                    help="second marginal; fixes the slice instead of the surface")
    su.add_argument("--grid", type=int, default=None, help="nodes per free cell (default 64)")
    su.add_argument("--alpha", type=float, default=None, help="curvature for ccs/alpha/c")
    su.add_argument("--weight", type=float, default=None, help="mixture weight for js/c")
    su.add_argument("--beta", type=float, default=None, help="exponent for the beta divergence")
    su.set_defaults(func=cmd_surface)

    for p in sub.choices.values():
        # config-file values are checked against the subcommand's own flags
        flags = {a.dest: a for a in p._actions if a.option_strings and a.dest != "help"}
        p.set_defaults(flags=flags)
    return parser


_DEFAULTS = {
    "seed": 0, "out": "out", "kinds": "uniform,laplacian", "format": "csv",
    "t": 1000, "tau1": 3.0, "tau2": 1.0,
    "algorithm": "jacobi", "divergence": "ccs", "alpha": -0.99999, "gamma": 0.3,
    "ts": 1, "max_iter": 250, "epsilon": 1e-4, "sweeps": 3,
    "scale": 1.0, "jobs": 1, "grid": 64, "marg1": "0.6,0.4", "weight": 0.5, "beta": 2.0,
}
_SURFACE_DEFAULTS = {"alpha": -1.0}


def _config_value(action: argparse.Action, key: str, value):
    """Convert and check one config-file value as its flag would be."""
    try:
        value = (action.type or str)(str(value))
    except ValueError as exc:
        raise InvalidInput(f"config value {key}: {value!r} is not valid: {exc}") from exc
    if action.choices is not None and value not in action.choices:
        raise InvalidInput(f"config value {key}: {value!r} is not one of {tuple(action.choices)}")
    return value


def _apply_config(args: argparse.Namespace) -> None:
    """Fill unset flags from the YAML config, then from built-in defaults.

    A file value goes through its flag's type and choices; None leaves the
    flag unset.
    """
    file_values = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                loaded = yaml.safe_load(fh) or {}
        except OSError as exc:
            raise IoFailure(f"cannot read config {args.config}: {exc}") from exc
        except yaml.YAMLError as exc:
            raise InvalidInput(f"config {args.config} is not valid YAML: {exc}") from exc
        if not isinstance(loaded, dict):
            raise InvalidInput("config file must hold a key/value mapping")
        file_values = {str(k).replace("-", "_"): v for k, v in loaded.items()}
    for key, value in file_values.items():
        action = args.flags.get(key)
        if action is None or value is None:
            continue
        value = _config_value(action, key, value)
        if getattr(args, key) is None:
            setattr(args, key, value)
    for key, value in _DEFAULTS.items():
        if hasattr(args, key) and getattr(args, key) is None:
            if args.command == "surface" and key in _SURFACE_DEFAULTS:
                value = _SURFACE_DEFAULTS[key]
            setattr(args, key, value)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_config(args)
        return args.func(args)
    except InvalidInput as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (RankDeficient, SingularDemixer, DegenerateDivergence, NonFinite) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except IoFailure as exc:
        print(f"error: i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except CcsIcaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
