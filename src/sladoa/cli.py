"""Command-line front end: geometry inspection, single-shot estimation,
and Monte Carlo sweeps.

Exit codes: 0 success, 1 I/O or runtime failure, 2 validation failure:
``main`` prints each invalid setting or geometry spec, ``geometry
--sources`` included, on stderr as ``error: <field>: ...``.

Config files are flat ``key = value`` text; ``#`` starts a comment.
List values are whitespace- or comma-separated.  Both commands read
these keys through one reader, which yields one ``ExperimentConfig`` per
(geometry, a); an unknown or repeated key exits 2, and every value
rule, integer-ness included, is ``ExperimentConfig.validate``'s.
``estimate`` takes one geometry, one a and one axis value:

  geometry   = nested 4 4 | super-nested 4 4 | mra 8 | ula 8
               (sweeps may list several, separated by ';')
  thetas     = -0.8 0 0.8
  powers     = 1 1 1            (optional, default all ones)
  method     = vws-ca-music | vws-ca-rmusic
  a          = 3                (sweeps may list several values)
  snapshots  = 1000             (list -> snapshot-count axis)
  snr_db     = 10               (list -> SNR axis; estimate default +inf)
  trials     = 500
  seed       = 1234
  grid       = 2000

``estimate`` runs one ``estimate_trial``, the draw and estimate of a
single Monte Carlo trial, seeded with ``seed``; ``--spectrum-out``
writes the pseudospectrum MUSIC picks its peaks from, of the noise
subspace that ``estimate_trial`` returns beside the estimate.

``sweep`` runs one ``rmse_sweep`` of the list of feasible (geometry, a)
pairs, one draw per trial for the grid, and writes it with the library
writers: ``--out`` through ``write_sweep_csv`` (no wall-clock column, so
byte-identical for any ``--workers``) and ``<out>.config.json`` through
``write_sweep_json``.  ``--trials`` overrides the file's ``trials``.  Number
flags are read as the file's numbers are, and checked by the library.
"""

import argparse
import math
import os
import sys

from . import __version__
from .coarray import max_shrinkage
from .estimators import _grid_spectrum, save_spectrum_csv
from .geometry import (build_mra, build_nested, build_super_nested, build_ula,
                       difference_coarray)
from .montecarlo import (ExperimentConfig, InfeasibleShrinkageError,
                         _check_count, estimate_trial, rmse_sweep,
                         write_sweep_csv, write_sweep_json)


def parse_geometry(tokens):
    """Build a geometry from tokens like ['nested', '4', '4']."""
    if not tokens:
        raise ValueError("geometry: missing specification")
    kind, *args = tokens
    try:
        nums = [int(v) for v in args]
    except ValueError:
        raise ValueError(f"geometry: non-integer parameters {args}")
    try:
        if kind == "ula" and len(nums) == 1:
            return build_ula(nums[0])
        if kind == "nested" and len(nums) == 2:
            return build_nested(*nums)
        if kind in ("super-nested", "snaq2") and len(nums) == 2:
            return build_super_nested(*nums)
        if kind == "mra" and len(nums) == 1:
            return build_mra(nums[0])
    except ValueError as exc:
        raise ValueError(f"geometry: {exc}")
    raise ValueError(f"geometry: unknown specification {' '.join(tokens)!r}")


def parse_config(text: str) -> dict:
    """Parse flat key = value lines into a dict of token lists; a key
    given on two lines raises ValueError naming both."""
    out, first_line = {}, {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {ln}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in first_line:
            raise ValueError(f"{key}: given twice (lines {first_line[key]} "
                             f"and {ln})")
        first_line[key] = ln
        out[key] = value.replace(",", " ").split()
    return out


def _floats(cfg, key, default=None):
    if key not in cfg:
        if default is None:
            raise ValueError(f"{key}: missing required key")
        return default
    if not cfg[key]:
        raise ValueError(f"{key}: empty list")
    try:
        return [float(v) for v in cfg[key]]
    except ValueError:
        raise ValueError(f"{key}: expected numbers, got {cfg[key]}")


def _scalar(vals, key):
    if len(vals) != 1:
        raise ValueError(f"{key}: expected a single value")
    return vals[0]


def _flag(args, key):
    """A number flag read as the file's numbers are (3.0 as 3), or None."""
    if getattr(args, key, None) is None:
        return None
    v = _floats({key: [getattr(args, key)]}, key)[0]
    return int(v) if v.is_integer() else v


def cmd_geometry(args) -> int:
    sources = _flag(args, "sources")
    if sources is not None:
        _check_count("sources", sources)
    geom = parse_geometry([args.kind] + args.params)
    ca = difference_coarray(geom)
    print(f"{geom.name}: {' '.join(str(p) for p in geom.positions)}")
    print(f"sensors: {geom.n}  aperture: {geom.aperture}")
    print(f"UDOF: {ca.udof}  G: {ca.g}")
    holes = ca.holes
    print(f"holes beyond contiguous segment: {list(holes) if holes else 'none'}")
    print("lag weights (lag: count):")
    print("  " + "  ".join(f"{l}:{c}" for l, c in ca.weights.items()
                           if l >= 0))
    if sources is not None:
        try:
            amax = max_shrinkage(ca.udof, sources)
        except ValueError as exc:
            raise ValueError(f"sources: {exc}") from None
        print(f"max shrinkage (D={sources}): {amax}")
    return 0


_KEYS = ("geometry", "thetas", "powers", "method", "a", "snapshots",
         "snr_db", "trials", "seed", "grid")


def _read_runs(args, snr_default) -> list:
    """One unvalidated ExperimentConfig per (geometry, a) of the config
    file, in file order; ``sweep --trials`` overrides the file's
    ``trials``.  Only token shape is checked here; value rules, integer-ness
    included, are ``ExperimentConfig.validate``'s."""
    with open(args.config) as fh:
        cfg = parse_config(fh.read())
    for key in cfg:
        if key not in _KEYS:
            raise ValueError(f"{key}: unknown key; known keys are "
                             f"{', '.join(_KEYS)}")
    geom_specs = [g.split() for g in
                  " ".join(cfg.get("geometry", [])).split(";") if g.split()]
    if not geom_specs:
        raise ValueError("geometry: missing required key")
    geometries = [parse_geometry(spec) for spec in geom_specs]
    thetas = _floats(cfg, "thetas")
    a_values = _floats(cfg, "a", [0])
    snr_vals = _floats(cfg, "snr_db", [snr_default])
    snap_vals = _floats(cfg, "snapshots", [1000])
    if len(snr_vals) > 1 and len(snap_vals) > 1:
        raise ValueError("snr_db/snapshots: only one may be a list (the axis)")
    if len(snap_vals) > 1:
        axis, axis_values = "snapshots", snap_vals
    else:
        axis, axis_values = "snr", snr_vals

    def setting(key, default):
        return _scalar(_floats(cfg, key, [default]), key)

    trials = _flag(args, "trials")              # sweep's flag beats the file
    shared = dict(
        thetas=thetas, powers=_floats(cfg, "powers", [1.0] * len(thetas)),
        method=_scalar(cfg.get("method", ["vws-ca-rmusic"]), "method"),
        snapshots=snap_vals[0], snr_db=snr_vals[0], axis=axis,
        axis_values=axis_values,
        trials=setting("trials", 500) if trials is None else trials,
        seed=setting("seed", 0), grid_size=setting("grid", 2000))
    return [ExperimentConfig(geometry=geom, a=a, **shared)
            for geom in geometries for a in a_values]


def cmd_estimate(args) -> int:
    runs = _read_runs(args, snr_default=math.inf)
    if len(runs) != 1 or len(runs[0].axis_values) != 1:
        raise ValueError("geometry/a/snr_db/snapshots: estimate takes one "
                         "geometry, one a and one axis value")
    run = runs[0]
    run.validate()
    result, noise = estimate_trial(run, run.axis_values[0], run.seed)

    values = result.thetas
    if args.degrees:
        import numpy as np
        values = np.degrees(np.arcsin(values))
    unit = "degrees" if args.degrees else "sine units"
    print(f"estimates ({unit}): " + " ".join(f"{v:.6f}" for v in values))
    print(f"method: {run.method}  fill_count: {result.fill_count}")
    if args.spectrum_out:
        save_spectrum_csv(_grid_spectrum(noise, run.grid_size),
                          args.spectrum_out)
        print(f"spectrum written to {args.spectrum_out}")
    return 0


def cmd_sweep(args) -> int:
    runs, warnings = [], []
    for run in _read_runs(args, snr_default=10.0):    # all, before any trial
        try:
            run.validate()
        except InfeasibleShrinkageError as exc:     # this combination only
            warnings.append(f"{run.geometry.name} a={run.a}: {exc}")
            continue
        runs.append(run)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    if not runs:
        raise ValueError("a/geometry: no feasible (geometry, a) combination")
    out_dir = os.path.dirname(os.path.abspath(args.out))   # CSV and sidecar
    if not (os.path.isdir(out_dir) and os.access(out_dir, os.W_OK)):
        raise OSError(f"out: {out_dir!r} is not a writable directory")
    sidecar_path = str(args.out) + ".config.json"
    for path in (args.out, sidecar_path):
        if os.path.isdir(path):
            raise OSError(f"out: {path!r} is a directory")
    results = rmse_sweep(runs, workers=_flag(args, "workers"))

    write_sweep_csv(results, args.out)
    write_sweep_json(results, sidecar_path)
    rows = sum(len(r.config.axis_values) for r in results)
    print(f"wrote {rows} rows to {args.out} (sidecar: {sidecar_path})")
    print("geometry        method          a    axis_value  rmse")
    for r in results:
        c = r.config
        for av, rm in zip(c.axis_values, r.rmse):
            print(f"{c.geometry.name:<15} {c.method:<15} {c.a:<4} {av:<11} "
                  f"{rm:.6g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sladoa",
        description="Sparse-array DOA estimation with variable-window "
                    "coarray smoothing")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("geometry", help="inspect a geometry and its coarray")
    g.add_argument("kind", help="ula | nested | super-nested | mra")
    g.add_argument("params", nargs="+")
    g.add_argument("--sources", default=None,
                   help="report max shrinkage for this many sources")
    g.set_defaults(func=cmd_geometry)

    e = sub.add_parser("estimate", help="single-shot estimation from a config")
    e.add_argument("config")
    e.add_argument("--degrees", action="store_true",
                   help="print arcsin of the estimates, in degrees")
    e.add_argument("--spectrum-out", default=None,
                   help="also write the pseudospectrum as CSV")
    e.set_defaults(func=cmd_estimate)

    s = sub.add_parser("sweep", help="Monte Carlo RMSE sweep from a config")
    s.add_argument("config")
    s.add_argument("--out", default="sweep.csv")
    s.add_argument("--trials", default=None)
    s.add_argument("--workers", default="1")
    s.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
