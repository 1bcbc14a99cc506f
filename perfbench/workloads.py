"""The benchmark's workloads, generated from a master seed.

Each workload is a list of (geometry, shrinkage) sweeps sharing one scene
and one axis.  The master seed given on the command line never reaches the
package: it is split with ``SeedSequence`` into the Monte Carlo seed each
config carries and the seed of the covariances the latency phase draws.
"""

from dataclasses import dataclass
import numpy as np

from sladoa import (ExperimentConfig, build_mra, build_nested,
                    build_super_nested, snr_to_noise_var)

RMUSIC = "vws-ca-rmusic"
MUSIC = "vws-ca-music"
THETAS3 = (-0.8, 0.0, 0.8)
THETAS5 = (-0.8, -0.4, 0.0, 0.4, 0.8)
GRID = 2000

# name -> (geometry builder, CLI geometry spec)
GEOMETRIES = {
    "nested(4,4)": (lambda: build_nested(4, 4), "nested 4 4"),
    "snaq2(4,4)": (lambda: build_super_nested(4, 4), "snaq2 4 4"),
    "mra(8)": (lambda: build_mra(8), "mra 8"),
    "mra(10)": (lambda: build_mra(10), "mra 10"),
}

# Each entry: method, thetas, [(geometry, a), ...], axis, axis values,
# fixed snapshots, fixed SNR (dB), trials per axis point, through the CLI.
SPECS = {
    "rmusic-shrinkage": (
        RMUSIC, THETAS3,
        [("nested(4,4)", 0), ("nested(4,4)", 3), ("snaq2(4,4)", 0),
         ("snaq2(4,4)", 3), ("mra(10)", 0)],
        "snr", (0.0, 5.0, 10.0), 1000, 10.0, 16, False),
    "music-geometry": (
        MUSIC, THETAS5,
        [("nested(4,4)", 3), ("snaq2(4,4)", 3), ("mra(8)", 3)],
        "snr", (10.0, 15.0, 20.0), 1000, 10.0, 40, True),
    "snapshots-axis": (
        RMUSIC, THETAS3,
        [("nested(4,4)", 3)],
        "snapshots", (100, 300, 1000, 3000), 1000, 10.0, 60, False),
}
NAMES = tuple(SPECS)


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple            # one validated ExperimentConfig per (geometry, a)
    cov_seed: int             # seed of the latency phase's covariances
    cli_text: str             # the same sweeps as a CLI config file
    via_cli: bool             # timed sweeps go through ``sladoa sweep``

    @property
    def trials_per_round(self) -> int:
        return sum(c.trials * len(c.axis_values) for c in self.configs)


def _derived_seed(master: int, index: int, purpose: int) -> int:
    return int(np.random.SeedSequence([master, index, purpose])
               .generate_state(1)[0])


def build(name: str, master_seed: int) -> Workload:
    """Build and validate the configs of one workload."""
    method, thetas, pairs, axis, values, snaps, snr, trials, cli = SPECS[name]
    index = NAMES.index(name)
    mc_seed = _derived_seed(master_seed, index, 0)
    configs = []
    for geom_name, a in pairs:
        cfg = ExperimentConfig(
            geometry=GEOMETRIES[geom_name][0](), thetas=thetas, method=method,
            a=a, snapshots=snaps, snr_db=snr, axis=axis, axis_values=values,
            trials=trials, seed=mc_seed, grid_size=GRID)
        cfg.validate()
        configs.append(cfg)
    specs = []
    for geom_name, _ in pairs:
        if GEOMETRIES[geom_name][1] not in specs:
            specs.append(GEOMETRIES[geom_name][1])
    a_values = sorted({a for _, a in pairs})
    if cli and len(specs) * len(a_values) != len(pairs):
        raise ValueError(f"{name}: CLI sweeps need a full geometry x a grid")
    axis_lines = (f"snr_db = {' '.join(str(v) for v in values)}\n"
                  f"snapshots = {snaps}\n") if axis == "snr" else (
                  f"snr_db = {snr}\n"
                  f"snapshots = {' '.join(str(int(v)) for v in values)}\n")
    cli_text = (f"geometry = {' ; '.join(specs)}\n"
                f"thetas = {' '.join(str(t) for t in thetas)}\n"
                f"method = {method}\n"
                f"a = {' '.join(str(a) for a in a_values)}\n"
                + axis_lines +
                f"trials = {trials}\n"
                f"seed = {mc_seed}\n"
                f"grid = {GRID}\n")
    return Workload(name, tuple(configs), _derived_seed(master_seed, index, 1),
                    cli_text, cli)


def resolve(cfg: ExperimentConfig, axis_value):
    """(snapshots, noise variance) of one axis point."""
    if cfg.axis == "snr":
        return int(cfg.snapshots), snr_to_noise_var(float(axis_value))
    return int(axis_value), snr_to_noise_var(cfg.snr_db)
