"""Command-line front end: geometry inspection, single-shot estimation,
and Monte Carlo sweeps.

Exit codes: 0 success, 1 I/O or runtime failure, 2 validation failure.

Config files are flat ``key = value`` text; ``#`` starts a comment.
List values are whitespace- or comma-separated.  Recognized keys:

  geometry   = nested 4 4 | super-nested 4 4 | mra 8 | ula 8
               (sweeps may list several, separated by ';')
  thetas     = -0.8 0 0.8
  powers     = 1 1 1            (optional, default all ones)
  method     = vws-ca-music | vws-ca-rmusic
  a          = 3                (sweeps may list several values)
  snapshots  = 1000             (list -> snapshot-count axis)
  snr_db     = 10               (list -> SNR axis)
  trials     = 500
  seed       = 1234
  grid       = 2000

``sweep`` runs one ``rmse_sweep`` per feasible (geometry, a) pair and
writes them with the library writers: ``--out`` through
``write_sweep_csv`` (no wall-clock column, so byte-identical for any
``--workers``) and ``<out>.config.json`` through ``write_sweep_json``.
"""

import argparse
import math
import sys
from dataclasses import replace

from . import __version__
from .coarray import (coarray_signal, max_shrinkage, vws_smooth)
from .estimators import (default_grid, estimate_doas, music_spectrum,
                         noise_subspace, save_spectrum_csv)
from .geometry import (build_mra, build_nested, build_super_nested, build_ula,
                       difference_coarray, geometry_to_text)
from .montecarlo import (ExperimentConfig, rmse_sweep, write_sweep_csv,
                         write_sweep_json)
from .signal_model import (SourceScene, sample_covariance,
                           simulate_snapshots, snr_to_noise_var)


class ConfigError(ValueError):
    """Invalid configuration; maps to exit code 2."""


def parse_geometry(tokens):
    """Build a geometry from tokens like ['nested', '4', '4']."""
    if not tokens:
        raise ConfigError("geometry: missing specification")
    kind, *args = tokens
    try:
        nums = [int(v) for v in args]
    except ValueError:
        raise ConfigError(f"geometry: non-integer parameters {args}")
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
        raise ConfigError(f"geometry: {exc}")
    raise ConfigError(f"geometry: unknown specification {' '.join(tokens)!r}")


def parse_config(text: str) -> dict:
    """Parse flat key = value lines into a dict of token lists."""
    out = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.replace(",", " ").split()
    return out


def _floats(cfg, key, default=None):
    if key not in cfg:
        if default is None:
            raise ConfigError(f"{key}: missing required key")
        return default
    try:
        return [float(v) for v in cfg[key]]
    except ValueError:
        raise ConfigError(f"{key}: expected numbers, got {cfg[key]}")


def _ints(cfg, key, default=None):
    vals = _floats(cfg, key, default)
    if any(v != int(v) for v in vals):
        raise ConfigError(f"{key}: expected integers")
    return [int(v) for v in vals]


def _scalar(vals, key):
    if len(vals) != 1:
        raise ConfigError(f"{key}: expected a single value")
    return vals[0]


def cmd_geometry(args) -> int:
    try:
        geom = parse_geometry([args.kind] + [str(v) for v in args.params])
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    ca = difference_coarray(geom)
    print(geometry_to_text(geom))
    print(f"sensors: {geom.n}  aperture: {geom.aperture}")
    print(f"UDOF: {ca.udof}  G: {ca.g}")
    holes = ca.holes
    print(f"holes beyond contiguous segment: {list(holes) if holes else 'none'}")
    print("lag weights (lag: count):")
    nonneg = [l for l in ca.lags if l >= 0]
    print("  " + "  ".join(f"{l}:{ca.weights[l]}" for l in nonneg))
    if args.sources is not None:
        try:
            amax = max_shrinkage(ca.udof, args.sources)
        except ValueError as exc:
            print(f"max shrinkage (D={args.sources}): infeasible ({exc})")
            return 2
        print(f"max shrinkage (D={args.sources}): {amax}")
    return 0


def _load_scene(cfg) -> SourceScene:
    thetas = _floats(cfg, "thetas")
    powers = _floats(cfg, "powers", [1.0] * len(thetas))
    try:
        return SourceScene(tuple(thetas), tuple(powers))
    except ValueError as exc:
        raise ConfigError(f"thetas/powers: {exc}")


def cmd_estimate(args) -> int:
    cfg = parse_config(open(args.config).read())
    geoms = cfg.get("geometry", [])
    if ";" in " ".join(geoms):
        raise ConfigError("geometry: estimate takes a single geometry")
    geom = parse_geometry(geoms)
    scene = _load_scene(cfg)
    method = _scalar(cfg.get("method", ["vws-ca-rmusic"]), "method")
    if method not in ("vws-ca-music", "vws-ca-rmusic"):
        raise ConfigError(f"method: unknown method {method!r}")
    a = _scalar(_ints(cfg, "a", [0]), "a")
    t = _scalar(_ints(cfg, "snapshots", [1000]), "snapshots")
    snr_db = _scalar(_floats(cfg, "snr_db", [math.inf]), "snr_db")
    seed = args.seed if args.seed is not None else _scalar(_ints(cfg, "seed", [0]), "seed")
    grid = args.grid if args.grid is not None else _scalar(_ints(cfg, "grid", [2000]), "grid")

    ca = difference_coarray(geom)
    amax = max_shrinkage(ca.udof, scene.d)
    if not 0 <= a <= amax:
        raise ConfigError(f"a: shrinkage {a} infeasible; maximum a is {amax}")

    noise_var = snr_to_noise_var(snr_db)
    snaps = simulate_snapshots(scene, geom, t, noise_var, seed)
    r = sample_covariance(snaps)
    result, _ = estimate_doas(r, geom, scene.d, a, method=method, grid_size=grid)

    values = result.thetas
    if args.degrees:
        import numpy as np
        values = np.degrees(np.arcsin(values))
    unit = "degrees" if args.degrees else "sine units"
    print(f"estimates ({unit}): " + " ".join(f"{v:.6f}" for v in values))
    print(f"method: {result.method}  fill_count: {result.fill_count}")
    if args.spectrum_out:
        sub = noise_subspace(vws_smooth(coarray_signal(r, geom), a), scene.d)
        save_spectrum_csv(music_spectrum(sub.noise, default_grid(grid)),
                          args.spectrum_out)
        print(f"spectrum written to {args.spectrum_out}")
    return 0


def cmd_sweep(args) -> int:
    cfg = parse_config(open(args.config).read())
    geom_specs = [g.split() for g in
                  " ".join(cfg.get("geometry", [])).split(";") if g.split()]
    if not geom_specs:
        raise ConfigError("geometry: missing required key")
    geometries = [parse_geometry(spec) for spec in geom_specs]
    scene = _load_scene(cfg)
    method = _scalar(cfg.get("method", ["vws-ca-rmusic"]), "method")
    a_values = _ints(cfg, "a", [0])
    snr_vals = _floats(cfg, "snr_db", [10.0])
    snap_vals = _ints(cfg, "snapshots", [1000])
    if not snr_vals or not snap_vals:
        raise ConfigError("snr_db/snapshots: empty list")
    if len(snr_vals) > 1 and len(snap_vals) > 1:
        raise ConfigError("snr_db/snapshots: only one may be a list (the axis)")
    snapshots, snr_db = snap_vals[0], snr_vals[0]
    if len(snap_vals) > 1:
        axis, axis_values = "snapshots", tuple(float(v) for v in snap_vals)
    else:
        axis, axis_values = "snr", tuple(snr_vals)
    trials = args.trials if args.trials is not None else _scalar(_ints(cfg, "trials", [500]), "trials")
    seed = args.seed if args.seed is not None else _scalar(_ints(cfg, "seed", [0]), "seed")
    grid = args.grid if args.grid is not None else _scalar(_ints(cfg, "grid", [2000]), "grid")

    base = ExperimentConfig(
        geometry=geometries[0], thetas=scene.thetas, powers=scene.powers,
        method=method, a=a_values[0], snapshots=snapshots, snr_db=snr_db,
        axis=axis, axis_values=axis_values, trials=trials, seed=seed,
        grid_size=grid)

    results = []
    warnings = []
    for geom in geometries:
        for a in a_values:
            sub = replace(base, geometry=geom, a=a)
            try:
                sub.validate()
            except ValueError as exc:
                if not str(exc).startswith("a:"):   # not per-combination
                    raise
                warnings.append(f"{geom.name} a={a}: {exc}")
                continue
            results.append(rmse_sweep(sub, workers=args.workers))
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    if not results:
        raise ConfigError("a/geometry: no feasible (geometry, a) combination")

    write_sweep_csv(results, args.out)
    sidecar_path = str(args.out) + ".config.json"
    write_sweep_json(results, sidecar_path)
    rows = sum(len(r.axis_values) for r in results)
    print(f"wrote {rows} rows to {args.out} (sidecar: {sidecar_path})")
    print("geometry        method          a    axis_value  rmse")
    for r in results:
        g, m, a = r.config["geometry"], r.config["method"], r.config["a"]
        for av, rm in zip(r.axis_values, r.rmse):
            print(f"{g:<15} {m:<15} {a:<4} {av:<11} {rm:.6g}")
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
    g.add_argument("params", nargs="+", type=int)
    g.add_argument("--sources", type=int, default=None,
                   help="report max shrinkage for this many sources")
    g.set_defaults(func=cmd_geometry)

    e = sub.add_parser("estimate", help="single-shot estimation from a config")
    e.add_argument("config")
    e.add_argument("--seed", type=int, default=None)
    e.add_argument("--grid", type=int, default=None)
    e.add_argument("--degrees", action="store_true",
                   help="print arcsin of the estimates, in degrees")
    e.add_argument("--spectrum-out", default=None,
                   help="also write the pseudospectrum as CSV")
    e.set_defaults(func=cmd_estimate)

    s = sub.add_parser("sweep", help="Monte Carlo RMSE sweep from a config")
    s.add_argument("config")
    s.add_argument("--out", default="sweep.csv")
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--trials", type=int, default=None)
    s.add_argument("--grid", type=int, default=None)
    s.add_argument("--workers", type=int, default=1)
    s.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
