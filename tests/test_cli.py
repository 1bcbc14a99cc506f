"""Command-line interface: parsing, output contracts, and exit codes.

Everything runs in-process through ``sladoa.cli.main`` so stdout/stderr
can be captured with capsys, except the sweeps that must run in a fresh
interpreter: under a set BLAS thread count, or to see what outlives it."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sladoa
from sladoa.cli import main, parse_config, parse_geometry
from sladoa.estimators import Spectrum, pick_peaks
from sladoa.geometry import build_mra, build_nested
from sladoa.montecarlo import ExperimentConfig, rmse_sweep, write_sweep_csv
from sladoa.numerics import hermitian_evd

ESTIMATE_CFG = """\
# three sources, noiseless
geometry = nested 4 4
thetas = -0.8 0 0.8
method = vws-ca-rmusic
a = 3
snapshots = 400
seed = 7
"""

SWEEP_CFG = """\
geometry = nested 4 4 ; mra 8
thetas = -0.8, 0, 0.8
method = vws-ca-music
a = 0 3
snr_db = 0 10
snapshots = 200
trials = 8
seed = 11
grid = 600
"""

# mra(10) roots windows up to M = 37, the largest through the real
# Cayley polynomial, whose 73x73 product BLAS may split across threads
MRA10_CFG = """\
geometry = mra 10
thetas = -0.5, 0.1, 0.6
method = vws-ca-rmusic
a = 0 4
snr_db = 0 10
snapshots = 200
trials = 20
seed = 5
"""

# ``estimate``'s stdout for ESTIMATE_CFG, pinned so that any change to how
# the config is read and the snapshots are drawn shows up here.
ESTIMATE_GOLDEN = {
    "vws-ca-rmusic": "estimates (sine units): -0.800265 0.002603 0.797671\n"
                     "method: vws-ca-rmusic  fill_count: 0\n",
    "vws-ca-music": "estimates (sine units): -0.800000 0.003000 0.798000\n"
                    "method: vws-ca-music  fill_count: 0\n",
}

# (edit to ESTIMATE_CFG, text stderr must contain): each is rejected with
# exit 2 by both ``estimate`` and ``sweep``.
INVALID_SETTINGS = [
    (("a = 3", "a = 17"), "a: shrinkage 17"),
    (("vws-ca-rmusic", "esprit"), "method:"),
    (("seed = 7", "seed = 7\nsnr_db = nan"), "snr_db:"),
    (("vws-ca-rmusic", "vws-ca-music\ngrid = 2"), "grid_size:"),
    (("snapshots = 400", "snapshots = 0"), "snapshots:"),
    (("seed = 7", "seed = 7\nsnr = 5"), "snr: unknown key"),
    (("seed = 7", "seed = -1"), "seed:"),
    (("a = 3", "a = 0\na = 3"), "a: given twice (lines 5 and 6)"),
    (("thetas = -0.8 0 0.8", "thetas = -0.8 nan 0.8"), "thetas/powers:"),
    (("seed = 7", "seed = 7\npowers = 1 inf 1"), "thetas/powers:"),
    (("thetas = -0.8 0 0.8",
      "thetas = " + " ".join(f"{0.09 * k - 0.9:.2f}" for k in range(20))),
     "thetas: nested(4,4): 20 sources are not identifiable"),
]


def cli_process(args, **env) -> int:
    """Run ``python -m sladoa.cli args`` to exit in a child process that
    leads its own session, with ``env`` added to this environment, and
    return its pid, which is also its session id."""
    src = str(Path(sladoa.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.Popen([sys.executable, "-m", "sladoa.cli", *args],
                            env={**os.environ, "PYTHONPATH": path, **env},
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    assert proc.returncode == 0, err
    return proc.pid


def session_processes(sid: int) -> list:
    """Pids of the processes, live or zombie, in session ``sid``."""
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            # after the command name: state, ppid, pgrp, session, ...
            session = int(stat.read_text().rsplit(")", 1)[1].split()[3])
        except OSError:                 # it exited while we looked
            continue
        if session == sid:
            pids.append(int(stat.parent.name))
    return pids


@pytest.mark.parametrize("command", ["estimate", "sweep"])
@pytest.mark.parametrize("edit,field", INVALID_SETTINGS,
                         ids=["a", "method", "snr_db", "grid", "snapshots",
                              "unknown_key", "seed", "repeated_key",
                              "nan_theta", "inf_power", "unidentifiable"])
def test_invalid_setting_exits_2(tmp_path, capsys, command, edit, field):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(ESTIMATE_CFG.replace(*edit))
    extra = ["--out", str(tmp_path / "out.csv")] if command == "sweep" else []
    assert main([command, str(cfg)] + extra) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


class TestParsing:
    def test_parse_config_comments_and_commas(self):
        cfg = parse_config("a = 1, 2  # tail\n\n# full line\nb= x y\n")
        assert cfg == {"a": ["1", "2"], "b": ["x", "y"]}

    def test_parse_config_rejects_bare_line(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_config("not a pair\n")

    def test_parse_config_rejects_repeated_key(self):
        with pytest.raises(ValueError,
                           match=r"^a: given twice \(lines 1 and 3\)$"):
            parse_config("a = 0\nb = 1\n a = 3 # again\n")

    def test_parse_geometry_kinds(self):
        assert parse_geometry(["ula", "5"]).name == "ula(5)"
        assert parse_geometry(["super-nested", "4", "4"]).name == "snaq2(4,4)"

    def test_parse_geometry_rejects_unknown(self):
        with pytest.raises(ValueError, match="geometry:"):
            parse_geometry(["circular", "8"])


class TestGeometryCommand:
    def test_nested_report(self, capsys):
        assert main(["geometry", "nested", "4", "4"]) == 0
        out = capsys.readouterr().out
        assert "UDOF: 39  G: 20" in out
        assert "nested(4,4):" in out

    def test_ula_report(self, capsys):
        assert main(["geometry", "ula", "3"]) == 0
        assert "UDOF: 5  G: 3" in capsys.readouterr().out

    def test_max_shrinkage_report(self, capsys):
        assert main(["geometry", "mra", "8", "--sources", "5"]) == 0
        assert "max shrinkage (D=5): 18" in capsys.readouterr().out

    def test_invalid_geometry_exits_2(self, capsys):
        assert main(["geometry", "nested", "4"]) == 2


class TestEstimateCommand:
    def write_cfg(self, tmp_path, text=ESTIMATE_CFG):
        path = tmp_path / "cfg.txt"
        path.write_text(text)
        return str(path)

    def test_noiseless_recovers_scene(self, tmp_path, capsys):
        assert main(["estimate", self.write_cfg(tmp_path)]) == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("estimates"))
        values = [float(v) for v in line.split(":")[1].split()]
        # noiseless but finite snapshots: source cross-terms leave ~1e-3
        assert values == pytest.approx([-0.8, 0.0, 0.8], abs=5e-3)

    @pytest.mark.parametrize("method", sorted(ESTIMATE_GOLDEN))
    def test_golden_output(self, tmp_path, capsys, method):
        cfg = self.write_cfg(tmp_path,
                             ESTIMATE_CFG.replace("vws-ca-rmusic", method))
        assert main(["estimate", cfg]) == 0
        assert capsys.readouterr().out == ESTIMATE_GOLDEN[method]

    def test_two_runs_exit_2(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, ESTIMATE_CFG.replace("a = 3", "a = 0 3"))
        assert main(["estimate", cfg]) == 2
        assert "estimate takes one geometry" in capsys.readouterr().err

    def test_deterministic_output(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        main(["estimate", cfg])
        first = capsys.readouterr().out
        main(["estimate", cfg])
        assert capsys.readouterr().out == first

    def test_degrees_flag(self, tmp_path, capsys):
        assert main(["estimate", self.write_cfg(tmp_path), "--degrees"]) == 0
        assert "estimates (degrees):" in capsys.readouterr().out

    def test_spectrum_out(self, tmp_path, capsys):
        spec = tmp_path / "spec.csv"
        cfg = self.write_cfg(
            tmp_path, ESTIMATE_CFG.replace("vws-ca-rmusic", "vws-ca-music"))
        assert main(["estimate", cfg, "--spectrum-out", str(spec)]) == 0
        lines = spec.read_text().splitlines()
        assert lines[0] == "theta,value"
        assert len(lines) == 2001

    def test_spectrum_out_peaks_are_the_estimate(self, tmp_path, capsys):
        spec = tmp_path / "spec.csv"
        cfg = self.write_cfg(
            tmp_path, ESTIMATE_CFG.replace("vws-ca-rmusic", "vws-ca-music"))
        assert main(["estimate", cfg, "--spectrum-out", str(spec)]) == 0
        grid, values = np.loadtxt(spec, delimiter=",", skiprows=1).T
        picked = pick_peaks(Spectrum(grid, values), 3)
        assert capsys.readouterr().out.startswith(
            "estimates (sine units): "
            + " ".join(f"{v:.6f}" for v in picked.thetas) + "\n")

    def test_spectrum_out_reuses_the_estimate(self, tmp_path, capsys,
                                              monkeypatch):
        calls = []
        monkeypatch.setattr("sladoa.estimators.hermitian_evd",
                            lambda m: calls.append(m) or hermitian_evd(m))
        cfg = self.write_cfg(tmp_path)
        spec = str(tmp_path / "spec.csv")
        assert main(["estimate", cfg, "--spectrum-out", spec]) == 0
        assert len(calls) == 1

    def test_infeasible_a_exits_2(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, ESTIMATE_CFG.replace("a = 3", "a = 17"))
        assert main(["estimate", cfg]) == 2
        assert "maximum a is 16" in capsys.readouterr().err

    def test_missing_key_exits_2(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "geometry = ula 8\n")
        assert main(["estimate", cfg]) == 2
        assert "thetas" in capsys.readouterr().err

    @pytest.mark.parametrize("snr", ["nan", "-inf", "-4000"])
    def test_non_finite_snr_exits_2(self, tmp_path, capsys, snr):
        cfg = self.write_cfg(tmp_path, ESTIMATE_CFG + f"snr_db = {snr}\n")
        assert main(["estimate", cfg]) == 2
        assert "snr_db" in capsys.readouterr().err

    def test_grid_smaller_than_sources_exits_2(self, tmp_path, capsys):
        text = ESTIMATE_CFG.replace("vws-ca-rmusic", "vws-ca-music")
        cfg = self.write_cfg(tmp_path, text + "grid = 2\n")
        assert main(["estimate", cfg]) == 2
        assert "fewer than d=3" in capsys.readouterr().err

    def test_missing_file_exits_1(self, tmp_path, capsys):
        assert main(["estimate", str(tmp_path / "nope.txt")]) == 1


class TestSweepCommand:
    def run_sweep(self, tmp_path, capsys, text=SWEEP_CFG, extra=()):
        cfg = tmp_path / "sweep.txt"
        cfg.write_text(text)
        out = tmp_path / "out.csv"
        code = main(["sweep", str(cfg), "--out", str(out)] + list(extra))
        return code, out, capsys.readouterr()

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                        reason="needs /proc")
    def test_sweep_command_leaves_no_process(self, tmp_path):
        cfg = tmp_path / "sweep.txt"
        cfg.write_text(SWEEP_CFG)
        sid = cli_process(["sweep", str(cfg), "--out", str(tmp_path / "o.csv"),
                           "--workers", "2"])
        assert session_processes(sid) == []

    def test_root_music_csv_independent_of_blas_threads(self, tmp_path):
        cfg = tmp_path / "mra.txt"
        cfg.write_text(MRA10_CFG)
        csvs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}.csv"
            cli_process(["sweep", str(cfg), "--out", str(out)],
                        OPENBLAS_NUM_THREADS=threads)
            csvs.append(out.read_bytes())
        assert csvs[0] == csvs[1]

    def test_row_per_combination(self, tmp_path, capsys):
        code, out, _ = self.run_sweep(tmp_path, capsys)
        assert code == 0
        lines = out.read_text().splitlines()
        header = "geometry,method,a,axis_value,rmse,trials,fills"
        assert lines[0] == header
        # 2 geometries x 2 a values x 2 SNR points
        assert len(lines) == 9
        with open(out, newline="") as fh:
            names = {row[0] for row in csv.reader(fh)} - {"geometry"}
        assert names == {"nested(4,4)", "mra(8)"}

    def test_csv_matches_library_writer(self, tmp_path, capsys):
        code, out, _ = self.run_sweep(tmp_path, capsys)
        assert code == 0
        runs = [ExperimentConfig(
            geometry=geom, thetas=(-0.8, 0.0, 0.8), method="vws-ca-music",
            a=a, snapshots=200, snr_db=0.0, axis="snr",
            axis_values=(0.0, 10.0), trials=8, seed=11, grid_size=600)
            for geom in (build_nested(4, 4), build_mra(8)) for a in (0, 3)]
        library = tmp_path / "library.csv"
        write_sweep_csv([rmse_sweep(run) for run in runs], library)
        assert out.read_bytes() == library.read_bytes()

    def test_csv_identical_across_workers(self, tmp_path, capsys):
        outs = []
        for workers in ("1", "2"):
            sub = tmp_path / f"w{workers}"
            sub.mkdir()
            code, out, _ = self.run_sweep(sub, capsys,
                                          extra=["--workers", workers])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_sidecar_written(self, tmp_path, capsys):
        _, out, _ = self.run_sweep(tmp_path, capsys)
        sidecar = out.parent / (out.name + ".config.json")
        assert sidecar.exists()

    def test_sidecar_describes_every_run(self, tmp_path, capsys):
        _, out, _ = self.run_sweep(tmp_path, capsys)
        sidecar = json.loads((out.parent / (out.name + ".config.json"))
                             .read_text())
        runs = {(run["config"]["geometry"], run["config"]["a"])
                for run in sidecar}
        assert runs == {("nested(4,4)", 0), ("nested(4,4)", 3),
                        ("mra(8)", 0), ("mra(8)", 3)}

    def test_nan_snr_exits_2(self, tmp_path, capsys):
        text = SWEEP_CFG.replace("snr_db = 0 10", "snr_db = 0 nan")
        code, _, captured = self.run_sweep(tmp_path, capsys, text)
        assert code == 2
        assert "snr_db" in captured.err

    def test_invalid_setting_stops_sweep(self, tmp_path, capsys):
        code, _, captured = self.run_sweep(tmp_path, capsys,
                                           extra=["--trials", "0"])
        assert code == 2
        assert "trials:" in captured.err and "warning" not in captured.err

    def test_music_grid_below_sources_exits_before_pool(
            self, tmp_path, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("process pool started")

        monkeypatch.setattr("sladoa.montecarlo._shared_pool", no_pool)
        text = SWEEP_CFG.replace("grid = 600", "grid = 2")
        code, _, captured = self.run_sweep(tmp_path, capsys, text,
                                           extra=["--workers", "2"])
        assert code == 2
        assert "grid_size" in captured.err

    def test_unidentifiable_run_exits_before_any_sweep(
            self, tmp_path, capsys, monkeypatch):
        # nested(4,4) fits five sources and ula(4) does not: its error
        # stops the command before nested(4,4)'s trials run
        def no_sweep(*args, **kwargs):
            raise AssertionError("rmse_sweep called")

        monkeypatch.setattr("sladoa.cli.rmse_sweep", no_sweep)
        text = (SWEEP_CFG.replace("nested 4 4 ; mra 8", "nested 4 4 ; ula 4")
                .replace("thetas = -0.8, 0, 0.8",
                         "thetas = -0.8 -0.4 0 0.4 0.8")
                .replace("a = 0 3", "a = 0"))
        code, out, captured = self.run_sweep(tmp_path, capsys, text)
        assert code == 2
        assert "thetas: ula(4): 5 sources" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exits_2(self, tmp_path, capsys, workers):
        code, _, captured = self.run_sweep(tmp_path, capsys,
                                           extra=["--workers", workers])
        assert code == 2
        assert "workers:" in captured.err

    def test_empty_snr_list_exits_2(self, tmp_path, capsys):
        text = SWEEP_CFG.replace("snr_db = 0 10", "snr_db =")
        code, _, captured = self.run_sweep(tmp_path, capsys, text)
        assert code == 2
        assert "empty list" in captured.err

    def test_infeasible_combo_warns_and_continues(self, tmp_path, capsys):
        text = SWEEP_CFG.replace("a = 0 3", "a = 3 17")
        code, out, captured = self.run_sweep(tmp_path, capsys, text)
        assert code == 0
        assert "warning" in captured.err and "a=17" in captured.err
        # the a=17 rows are dropped for nested(4,4) only
        assert len(out.read_text().splitlines()) == 7

    def test_negative_a_exits_2_before_any_trial(self, tmp_path, capsys,
                                                 monkeypatch):
        # a < 0 is invalid on every geometry, not one infeasible combination
        swept, sweep = [], sladoa.cli.rmse_sweep

        def recorded(run, **kw):
            swept.append(run)
            return sweep(run, **kw)

        monkeypatch.setattr("sladoa.cli.rmse_sweep", recorded)
        text = SWEEP_CFG.replace("a = 0 3", "a = 0 -1")
        code, out, captured = self.run_sweep(tmp_path, capsys, text)
        assert code == 2
        assert "a: must be an integer >= 0" in captured.err
        assert swept == [] and not out.exists()

    def test_all_infeasible_exits_2(self, tmp_path, capsys):
        text = SWEEP_CFG.replace("a = 0 3", "a = 25")
        code, _, _ = self.run_sweep(tmp_path, capsys, text)
        assert code == 2

    def test_two_axes_rejected(self, tmp_path, capsys):
        text = SWEEP_CFG.replace("snapshots = 200", "snapshots = 100 200")
        code, _, captured = self.run_sweep(tmp_path, capsys, text)
        assert code == 2
        assert "only one may be a list" in captured.err

    def test_unwritable_out_exits_1(self, tmp_path, capsys):
        code, _, _ = self.run_sweep(
            tmp_path, capsys,
            extra=["--out", str(tmp_path / "missing" / "out.csv")])
        assert code == 1
