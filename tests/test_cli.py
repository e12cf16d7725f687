import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import feqo_lab
from feqo_lab import gates
from feqo_lab.cli import (ConfigError, PRESETS, ScenarioConfig, experiments,
                          export_density_matrix, parse_config_text,
                          run_experiment, run_gate, run_wstate)
from feqo_lab.cli.config import (DYNAMIC_KEYS, SCENARIO_KEYS, format_config,
                                 parse_set_overrides)
from feqo_lab.cli.main import cli
from feqo_lab.errors import DomainError
from feqo_lab.hilbert import (StateVector, basis_ket, make_basis,
                              partial_trace, photon_number_mean, qubit_window)

UNITLESS_KEYS = {
    "gamma", "fidelity", "ideal_jc_fidelity", "fidelity_post_virtual_z",
    "fidelity_w", "fidelity_step1", "fidelity_step2", "entropy_over_ln2",
    "leakage", "leakage_final", "leakage_max", "g_over_omega", "g_over_Delta",
    "rms_vs_ideal_jc", "rms_series_vs_jc", "rms_full_vs_jc",
    "revival_peak_to_peak", "transfer_peak_rel_dev", "dispersion_scale",
    "egg", "geg", "gge", "rotation_angle_rad", "virtual_z_phase_rad",
    "virtual_rz_on_qubit2_rad", "alpha_abs", "photon_mean_final",
}
# a coherent amplitude that keeps the resonant runs small; the keys a run
# reads do not depend on the values
SMALL_RESONANT = ["drive.alpha_re=3.0"]

# runs that support one value of a key, each with another value of it
ONE_VALUE_RUNS = {
    **{f"run {name}": (["run", name], "basis.num_electrons=2")
       for name in ("fig2a", "fig2a_strong", "s1_bragg", "s2_ramannath")},
    **{f"gate {gate}": (["gate", gate], "basis.num_electrons=2")
       for gate in ("rx", "ry", "rz")},
    **{" ".join(args): (args, "basis.sidebands=4")
       for args in (["run", "fig2b"], ["run", "fig3"], ["gate", "iswap"],
                    ["gate", "partial-iswap"])},
    **{f"wstate {mode}": (["wstate", "--n", "3", "--mode", mode],
                          "basis.sidebands=4")
       for mode in ("analog", "digital")},
}


class _RecordingDict(dict):
    """A config dict that records every key looked up in it."""

    def __init__(self, values):
        super().__init__(values)
        self.seen = set()

    def __getitem__(self, key):
        self.seen.add(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self.seen.add(key)
        return super().__contains__(key)

    def get(self, key, default=None):
        self.seen.add(key)
        return super().get(key, default)


UNIT_SUFFIXES = ("_fs", "_eV", "_nm", "_V_per_m", "_rad_per_fs", "_rad",
                 "_m_per_s", "_per_m", "_per_nm", "_m3", "_kg_m_per_s",
                 "_nats", "_re", "_im", "_rad_per_fs")


class TestConfigGrammar:
    def test_parse_basic(self):
        text = """
        # comment line
        electron.beta = 0.02

        drive.photon_energy_eV = 6.20
        basis.sidebands = 6
        """
        cfg = parse_config_text(text)
        assert cfg["electron.beta"] == 0.02
        assert cfg["basis.sidebands"] == 6

    def test_unknown_key_rejected(self):
        # the next six had no effect on any run, so they are not keys; no
        # run reads a third register angle
        for key, value in (("drive.unknown_thing", "3"),
                           ("drive.phi0_rad", "1.0"),
                           ("drive.harmonic_m", "2"), ("wstate.n", "4"),
                           ("wstate.mode", "analog"),
                           ("drive.auto_phase_match", "true"),
                           ("electron.E0_eV", "100.0"),
                           ("initial.theta_3_rad", "0.5")):
            with pytest.raises(ConfigError, match=key):
                parse_config_text(f"{key} = {value}")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("electron.beta = 0.1\nelectron.beta = 0.2")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="electron.beta"):
            parse_config_text("electron.beta = fast")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="expected"):
            parse_config_text("this is not a key value pair")

    def test_set_overrides(self):
        out = parse_set_overrides(["electron.beta=0.05",
                                   "basis.fock_cutoff=auto"])
        assert out["electron.beta"] == 0.05
        assert out["basis.fock_cutoff"] == "auto"
        with pytest.raises(ConfigError):
            parse_set_overrides(["electron.beta"])

    def test_theta_family_keys(self):
        cfg = parse_config_text("initial.theta_1_rad = 1.0\n"
                                "initial.theta_2_rad = 2.0")
        assert cfg["initial.theta_2_rad"] == 2.0

    def test_format_round_trip(self):
        preset = PRESETS["fig2a"]
        text = format_config(preset)
        assert parse_config_text(text) == \
            ScenarioConfig.from_sources(preset=preset).values

    def test_validation_requires_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            ScenarioConfig.from_sources(preset={
                "electron.beta": 0.02,
                "drive.photon_energy_eV": 6.2,
            })

    def test_grating_conflict(self):
        with pytest.raises(ConfigError,
                           match="drive.phase_match_photon_energy_eV"):
            ScenarioConfig.from_sources(preset={
                "electron.beta": 0.02,
                "drive.photon_energy_eV": 6.2,
                "drive.grating_period_nm": 4.0,
                "drive.phase_match_photon_energy_eV": 6.2,
                "mode.box_edge_nm": 100.0,
            })


class TestRunners:
    def test_params_only_deterministic(self, tmp_path):
        r1 = run_experiment("params_only", out_dir=tmp_path / "a")
        r2 = run_experiment("params_only", out_dir=tmp_path / "b")
        assert r1.derived == r2.derived
        assert r1.metrics == r2.metrics
        t1 = (tmp_path / "a" / "params_only_summary.json").read_text()
        t2 = (tmp_path / "b" / "params_only_summary.json").read_text()
        assert t1 == t2

    def test_smith_purcell_metrics(self, tmp_path):
        r = run_experiment("smith_purcell", out_dir=tmp_path)
        assert r.metrics["Lambda_classical_nm"] == pytest.approx(4.00, rel=5e-3)
        assert r.metrics["Lambda_m1_nm"] == pytest.approx(4.08, rel=5e-3)
        assert r.metrics["m0_rejected"] is True

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            run_experiment("fig99")

    def test_override_rerun_identical(self, tmp_path):
        r1 = run_experiment("fig2b", out_dir=tmp_path / "a")
        r2 = run_experiment("fig2b", out_dir=tmp_path / "b")
        for key, val in r1.metrics.items():
            assert r2.metrics[key] == val, key

    def test_config_echo_round_trip(self, tmp_path):
        r1 = run_experiment("fig2b", out_dir=tmp_path / "a")
        # feeding the echoed config back reproduces every metric bit-for-bit
        r2 = run_experiment("fig2b", overrides=r1.config,
                            out_dir=tmp_path / "b")
        assert r1.metrics == r2.metrics
        assert r1.derived == r2.derived

    def test_csv_row_count_contract(self, tmp_path):
        record = run_experiment("fig2b", out_dir=tmp_path)
        summary = json.loads((tmp_path / "fig2b_summary.json").read_text())
        total = summary["metrics"]["T_iswap_fs"]
        csv_path = tmp_path / "fig2b_trajectory.csv"
        rows = csv_path.read_text().strip().splitlines()
        sample_every = total / 200.0
        assert len(rows) - 1 == math.floor(total / sample_every + 1e-12) + 1

    def test_csv_columns(self, tmp_path):
        run_experiment("fig2b", out_dir=tmp_path)
        header = (tmp_path / "fig2b_trajectory.csv").read_text().splitlines()[0]
        cols = header.split(",")
        assert cols[0] == "t_fs"
        assert "pop_e1_n-0.5" in cols and "pop_e2_n0.5" in cols
        assert cols[-3:] == ["photon_mean", "entropy_nats", "norm"]

    def test_summary_units_in_keys(self, tmp_path):
        run_experiment("fig2b", out_dir=tmp_path)
        summary = json.loads((tmp_path / "fig2b_summary.json").read_text())

        def walk(d, path=""):
            for key, value in d.items():
                if isinstance(value, dict):
                    walk(value, path + key + ".")
                elif isinstance(value, float) and not isinstance(value, bool):
                    if key in UNITLESS_KEYS or key.split(".")[-1] in UNITLESS_KEYS:
                        continue
                    if path.startswith("config"):
                        continue    # config echo keeps the schema key names
                    assert key.endswith(UNIT_SUFFIXES), f"unitless key {path}{key}"

        walk({"metrics": summary["metrics"], "derived": summary["derived"]})

    def test_plotdata_shape(self, tmp_path):
        run_experiment("fig2b", out_dir=tmp_path, fmt="json")
        payload = json.loads((tmp_path / "fig2b_plotdata.json").read_text())
        assert payload["x"]["label"] == "t_fs"
        n = len(payload["x"]["values"])
        assert all(len(s["values"]) == n for s in payload["series"])

    def test_format_selector(self, tmp_path):
        run_experiment("fig2b", out_dir=tmp_path / "csv", fmt="csv")
        assert (tmp_path / "csv" / "fig2b_trajectory.csv").exists()
        assert not (tmp_path / "csv" / "fig2b_plotdata.json").exists()
        run_experiment("fig2b", out_dir=tmp_path / "json", fmt="json")
        assert not (tmp_path / "json" / "fig2b_trajectory.csv").exists()
        assert (tmp_path / "json" / "fig2b_plotdata.json").exists()
        # an unknown format is refused before anything runs or is written
        for run in (lambda out: run_experiment("fig2b", out_dir=out, fmt="xml"),
                    lambda out: run_wstate(3, "analog", out_dir=out, fmt="xml"),
                    lambda out: run_gate("iswap", out_dir=out, fmt="xml")):
            with pytest.raises(ConfigError, match="format"):
                run(tmp_path / "xml")
        assert not (tmp_path / "xml").exists()

    def test_register_size_conflict(self, tmp_path):
        # the register size comes from run_wstate's argument alone
        for mode in ("analog", "digital"):
            with pytest.raises(ConfigError,
                               match=r"basis.num_electrons\b.*3.*4"):
                run_wstate(3, mode, out_dir=tmp_path,
                           sets=["basis.num_electrons=4"])
            with pytest.raises(ConfigError, match="basis.num_electrons"):
                run_wstate(3, mode, out_dir=tmp_path,
                           overrides={"basis.num_electrons": 2})
        assert not any(tmp_path.iterdir())

    def test_iswap_runs_refuse_other_register_sizes(self, tmp_path):
        # the iSWAP runs read basis.num_electrons but act on two qubits
        runs = (lambda **kw: run_experiment("fig2b", **kw),
                lambda **kw: run_gate("iswap", **kw),
                lambda **kw: run_gate("partial_iswap", **kw))
        for n in (1, 3):
            for run in runs:
                with pytest.raises(ConfigError, match="basis.num_electrons"):
                    run(out_dir=tmp_path, sets=[f"basis.num_electrons={n}"])
        result = CliRunner().invoke(cli, ["gate", "iswap", "--out",
                                          str(tmp_path), "--set",
                                          "basis.num_electrons=3"])
        assert result.exit_code == 2, result.output
        assert "basis.num_electrons" in result.output
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("args, key", list(ONE_VALUE_RUNS.values()),
                             ids=list(ONE_VALUE_RUNS))
    def test_one_value_keys_refused_by_name(self, tmp_path, args, key):
        # the PINEM runs act on one electron, the TC and XY runs on the
        # +-1/2 sideband pair
        result = CliRunner().invoke(cli, args + ["--out", str(tmp_path),
                                                 "--set", key])
        assert result.exit_code == 2, result.output
        assert key.split("=")[0] in result.output
        assert not any(tmp_path.iterdir())

    def test_dispersive_runs_refuse_a_resonant_drive(self, tmp_path):
        # one detuning check runs before any schedule is built, so no
        # dispersive-regime warning comes first
        runs = (lambda **kw: run_experiment("fig2b", **kw),
                lambda **kw: run_experiment("fig3", **kw),
                lambda **kw: run_gate("iswap", **kw),
                lambda **kw: run_gate("partial_iswap", **kw),
                lambda **kw: run_wstate(3, "digital", **kw))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for run in runs:
                with pytest.raises(ConfigError,
                                   match="drive.photon_energy_eV"):
                    run(out_dir=tmp_path,
                        sets=["drive.photon_energy_eV=6.2"])
        assert not any(tmp_path.iterdir())

    def test_gate_argument_conflict(self, tmp_path):
        with pytest.raises(ConfigError, match=r"gate.type\b.*'rx'.*'ry'"):
            run_gate("rx", out_dir=tmp_path, sets=["gate.type=ry"])
        with pytest.raises(ConfigError, match=r"gate.theta_rad\b.*1.5.*1.0"):
            run_gate("rx", 1.5, out_dir=tmp_path,
                     config_text="gate.theta_rad = 1.0")
        with pytest.raises(ConfigError, match="gate.theta_rad"):
            run_gate("partial_iswap", 0.5, out_dir=tmp_path,
                     sets=["gate.theta_rad=0.3"])
        # iswap takes no angle, and runs that read no gate key take none
        with pytest.raises(ConfigError, match="does not read gate.theta_rad"):
            run_gate("iswap", 1.0, out_dir=tmp_path)
        with pytest.raises(ConfigError, match="does not read gate.theta_rad"):
            run_wstate(3, "analog", out_dir=tmp_path,
                       sets=["gate.theta_rad=0.3"])
        assert not any(tmp_path.iterdir())
        for args, key in ((["gate", "rx", "--set", "gate.type=rz"],
                           "gate.type"),
                          (["gate", "iswap", "--theta", "1.0"],
                           "gate.theta_rad"),
                          (["run", "fig2b", "--set", "gate.type=rx"],
                           "gate.type")):
            result = CliRunner().invoke(cli, args + ["--out", str(tmp_path)])
            assert result.exit_code == 2, args
            assert key in result.output, args
        assert not any(tmp_path.iterdir())

    def test_each_run_reads_every_key_it_accepts(self, tmp_path, monkeypatch):
        # each entry point's read set equals the keys its runner looks up,
        # and its preset holds no key outside that set
        merged = experiments._merged_config
        calls = []

        def recording(preset, read, *args):
            cfg = merged(preset, read, *args)
            cfg.values = _RecordingDict(cfg.values)
            calls.append((preset, read, cfg.values))
            return cfg
        monkeypatch.setattr(experiments, "_merged_config", recording)
        resonant = ("fig2a", "fig2a_strong", "rx", "ry", "rz")
        runs = [(run_experiment, name) for name in PRESETS]
        runs += [(run_gate, gate) for gate in ("rx", "ry", "rz", "iswap",
                                               "partial_iswap")]
        runs += [(run_wstate, 3, "analog"), (run_wstate, 3, "digital")]
        seen, names = {}, set()
        for k, (run, *args) in enumerate(runs):
            sets = SMALL_RESONANT if args[0] in resonant else []
            names.add(run(*args, out_dir=tmp_path / str(k), fmt="json",
                          sets=sets).experiment)
            preset, read, values = calls[-1]
            assert values.seen == read, args
            assert preset.keys() <= read, args
            seen[tuple(args)] = values.seen
        assert len(calls) == len(runs)
        assert names == experiments._RUNS.keys()
        assert seen[("params_only",)] == seen[("smith_purcell",)] \
            == SCENARIO_KEYS
        assert seen[(3, "analog")] == DYNAMIC_KEYS
        assert seen[("iswap",)] == seen[("partial_iswap",)] - {"gate.theta_rad"}

    def test_zero_angle_resonant_gate_refused(self, tmp_path):
        # a zero-angle pulse has no duration, so nothing is propagated
        with pytest.raises(DomainError, match="takes no time"):
            run_gate("rx", 0.0, out_dir=tmp_path)
        result = CliRunner().invoke(cli, ["run", "fig2a", "--out",
                                          str(tmp_path), "--set",
                                          "gate.theta_rad=0"])
        assert result.exit_code == 2, result.output
        assert not any(tmp_path.iterdir())
        # the composite rz and the partial iSWAP still take time or need none
        rz = run_gate("rz", 0.0, out_dir=tmp_path / "rz", fmt="json",
                      sets=SMALL_RESONANT)
        assert rz.metrics["duration_fs"] > 0
        swap = run_gate("partial_iswap", 0.0, out_dir=tmp_path / "swap",
                        fmt="json")
        assert swap.metrics["duration_fs"] == 0

    def test_gate_end_metrics_read_the_final_state(self, tmp_path,
                                                   monkeypatch):
        # rz is three pulses whose lengths are not multiples of the run-wide
        # sample gap; each model's trajectory still spans the whole gate, and
        # the metrics read all of it
        execute = gates.execute
        calls = []

        def recording(schedule, *args, **kwargs):
            calls.append((schedule, execute(schedule, *args, **kwargs)))
            return calls[-1][1]
        monkeypatch.setattr(gates, "execute", recording)
        for theta in (1.0, None):
            calls.clear()
            record = run_gate("rz", theta, out_dir=tmp_path / str(theta),
                              fmt="json")
            (schedule, pinem), (_, jc) = calls
            assert record.metrics["photon_mean_final"] == pytest.approx(
                photon_number_mean(pinem.final_state), rel=1e-12)
            for result in (pinem, jc):
                times = result.trajectory.times_fs
                assert np.all(np.diff(times) > 0)
                assert times[-1] == schedule.wall_time_fs
                assert theta is None or times.size == 202
            pops = [r.trajectory.computational_populations()[:, 0, :]
                    for r in (pinem, jc)]
            rms = np.sqrt(np.mean((pops[0] - pops[1]) ** 2))
            assert record.metrics["rms_vs_ideal_jc"] == rms
            if theta == 1.0:
                assert rms == pytest.approx(7.384228e-6, rel=1e-6)

    @pytest.mark.parametrize("method", ["eigen", "fixed_step"])
    @pytest.mark.parametrize("gap", ["10", "100000"])
    def test_sample_gap_leaves_gate_end_metrics(self, tmp_path, method, gap):
        # a gap that does not divide the pulse, and one longer than it, give
        # the default run's photon mean at the pulse's end
        record = run_experiment("fig2a", out_dir=tmp_path, fmt="json", sets=[
            f"propagator.method={method}",
            f"propagator.sample_every_fs={gap}"])
        metrics = record.metrics
        assert metrics["photon_mean_final"] == pytest.approx(99.00615905776,
                                                             abs=1e-9)
        assert metrics["leakage_max"] >= metrics["leakage_final"]

    def test_partial_iswap_angle_from_set(self, tmp_path):
        # pi/4 is a preset default, so --set may change it
        default = run_gate("partial_iswap", out_dir=tmp_path / "a", fmt="json")
        assert default.config["gate.theta_rad"] == pytest.approx(math.pi / 4)
        record = run_gate("partial_iswap", out_dir=tmp_path / "b", fmt="json",
                          sets=["gate.theta_rad=0.3"])
        assert record.config["gate.theta_rad"] == 0.3
        assert record.metrics["rotation_angle_rad"] == 0.3


class TestDensityExport:
    def test_pure_state_export(self, tmp_path):
        basis = make_basis(3, qubit_window(), 0)
        state = basis_ket(basis, (0.5, -0.5, -0.5), 0)   # |egg>
        path = tmp_path / "rho.json"
        export_density_matrix(state, path)
        payload = json.loads(path.read_text())
        idx = payload["basis_labels"].index("egg")
        real = np.asarray(payload["real"])
        assert real[idx, idx] == pytest.approx(1.0)
        assert np.sum(np.abs(real)) == pytest.approx(1.0, abs=1e-12)

    def test_reimport_hermitian(self, tmp_path, rng):
        from conftest import random_state
        basis = make_basis(2, qubit_window(), 2)
        from feqo_lab.hilbert import StateVector
        state = StateVector(basis, random_state(rng, basis.dimension))
        path = tmp_path / "rho2.json"
        export_density_matrix(state, path)
        payload = json.loads(path.read_text())
        mat = np.asarray(payload["real"]) + 1j * np.asarray(payload["imag"])
        assert np.allclose(mat, mat.conj().T, atol=1e-12)
        assert payload["basis_labels"][0] == "ee"
        assert payload["basis_labels"][-1] == "gg"

    def test_oversize_subset_rejected(self):
        big = np.eye(16) / 16.0
        with pytest.raises(Exception, match="3 qubits"):
            export_density_matrix(big, "/tmp/never.json")

    def test_subset_reduction(self, tmp_path):
        basis = make_basis(3, qubit_window(), 0)
        state = basis_ket(basis, (0.5, -0.5, -0.5), 0)
        path = tmp_path / "rho_sub.json"
        export_density_matrix(state, path, qubit_subset=(0, 1))
        payload = json.loads(path.read_text())
        assert payload["basis_labels"] == ["ee", "eg", "ge", "gg"]
        real = np.asarray(payload["real"])
        assert real[1, 1] == pytest.approx(1.0)     # |eg| block

    def test_subset_matches_partial_trace(self, tmp_path, rng):
        from conftest import random_state
        basis = make_basis(3, qubit_window(), 0)
        state = StateVector(basis, random_state(rng, basis.dimension))
        path = tmp_path / "rho_20.json"
        export_density_matrix(state, path, qubit_subset=(2, 0))
        payload = json.loads(path.read_text())
        got = np.asarray(payload["real"]) + 1j * np.asarray(payload["imag"])
        # reduced on (0, 2) in window order (g, e); flip to (e, g) and
        # swap the two qubits to the requested (2, 0) order
        rho = partial_trace(state, keep=(0, 2)).matrix.reshape(2, 2, 2, 2)
        rho = rho[::-1, ::-1, ::-1, ::-1].transpose(1, 0, 3, 2)
        assert np.max(np.abs(got - rho.reshape(4, 4))) < 1e-14

    @pytest.mark.parametrize("subset", [(0, 0), (3,), (0, -1)])
    def test_invalid_subset_rejected(self, subset):
        with pytest.raises(Exception, match="invalid qubit subset"):
            export_density_matrix(np.eye(8) / 8.0, "/never/written.json",
                                  qubit_subset=subset)


class TestCliEntry:
    def test_params_command(self):
        runner = CliRunner()
        result = runner.invoke(cli, ["params", "--preset", "fig2a"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["derived"]["g_over_omega"] == pytest.approx(3.85e-4,
                                                                   rel=2e-2)
        # the echo commands write no files, so they take no --out or --format
        for cmd in (["params"], ["analytics", "collapse"],
                    ["analytics", "regime"]):
            for flag in (["--out", "x"], ["--format", "json"]):
                assert runner.invoke(cli, cmd + flag).exit_code == 2

    def test_run_smith_purcell(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(cli, ["run", "smith_purcell",
                                     "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "smith_purcell_summary.json").exists()

    def test_config_file_flag(self, tmp_path):
        cfg = tmp_path / "override.cfg"
        cfg.write_text("# bump the electron speed\nelectron.beta = 0.03\n")
        runner = CliRunner()
        result = runner.invoke(cli, ["run", "smith_purcell",
                                     "--config", str(cfg),
                                     "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        summary = json.loads(
            (tmp_path / "smith_purcell_summary.json").read_text())
        assert summary["config"]["electron.beta"] == 0.03
        assert summary["metrics"]["Lambda_classical_nm"] == pytest.approx(
            0.03 * summary["derived"]["wavelength_nm"], rel=1e-12)

    def test_presets_dump_round_trip(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(cli, ["presets", "dump", "--out",
                                     str(tmp_path)])
        assert result.exit_code == 0, result.output
        for name, preset in PRESETS.items():
            text = (tmp_path / f"{name}.cfg").read_text()
            assert parse_config_text(text) == \
                ScenarioConfig.from_sources(preset=preset).values

    def test_bad_set_key_exit_code(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(cli, ["run", "smith_purcell", "--out",
                                     str(tmp_path), "--set", "bogus.key=1"])
        assert result.exit_code == 2

    def test_resonant_run_refuses_dispersive_gate_type(self, tmp_path):
        result = CliRunner().invoke(cli, ["run", "fig2a", "--out",
                                          str(tmp_path), "--set",
                                          "gate.type=iswap"])
        assert result.exit_code == 2, result.output
        assert "rx, ry or rz" in result.output
        assert not any(tmp_path.iterdir())

    def test_bad_value_exit_code(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(cli, ["run", "smith_purcell", "--out",
                                     str(tmp_path), "--set",
                                     "electron.beta=2.0"])
        assert result.exit_code == 2

    def test_sample_count_bound_exit_code(self, tmp_path):
        # about 4.3e10 samples: refused before any of them is allocated
        start = time.perf_counter()
        result = CliRunner().invoke(cli, [
            "run", "fig2a", "--out", str(tmp_path), "--set",
            "propagator.sample_every_fs=1e-9"])
        assert result.exit_code == 2, result.output
        assert "raise sample_every_fs" in result.output
        assert time.perf_counter() - start < 30.0
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("name,sets,remedy", [
        # one step of about 7e298 fs
        ("fig2a", ["gate.theta_rad=1e300"], "propagator.sample_every_fs"),
        # 200 steps of 5e4 fs, each about 2.3e6 terms
        ("s1_bragg", ["run.total_time_fs=1e7"], "propagator.sample_every_fs"),
        # 1e5 steps of 10 fs, about 6e7 matvecs in all
        ("s1_bragg", ["run.total_time_fs=1e6",
                      "propagator.sample_every_fs=10"], "run.total_time_fs"),
    ])
    def test_chebyshev_cost_bound_exit_code(self, tmp_path, name, sets,
                                            remedy):
        start = time.perf_counter()
        args = ["run", name, "--out", str(tmp_path), "--set",
                "propagator.method=fixed_step"]
        for item in sets:
            args += ["--set", item]
        result = CliRunner().invoke(cli, args)
        assert result.exit_code == 2, result.output
        assert remedy in result.output and "eigen route" in result.output
        assert time.perf_counter() - start < 30.0
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("name,key,value", [
        ("fig2a", "box_edge_nm", "1e300"),          # box volume overflows
        ("fig2b", "E_z_tilde_V_per_m", "1e300"),    # E_z ** 2 overflows
        ("fig2b", "E_z_tilde_V_per_m", "1e-300"),   # E_z ** 2 underflows to 0
    ])
    def test_mode_scale_outside_float_range_exit_code(self, tmp_path, name,
                                                      key, value):
        result = CliRunner().invoke(cli, [
            "run", name, "--out", str(tmp_path), "--set",
            f"mode.{key}={value}"])
        assert result.exit_code == 2, result.output
        assert key in result.output
        assert not any(tmp_path.iterdir())

    def test_non_finite_summary_refused_before_any_file(self, tmp_path):
        # g / omega_L overflows to inf: refused by key, not written as
        # "Infinity", which is not JSON
        result = CliRunner().invoke(cli, [
            "run", "fig2a", "--out", str(tmp_path), "--set",
            "drive.photon_energy_eV=1e-300", "--set", "drive.alpha_re=3.0"])
        assert result.exit_code == 2, result.output
        assert "derived.g_over_omega is not a finite number" in result.output
        assert not list(tmp_path.glob("*_summary.json"))
        assert not any(tmp_path.iterdir())

    def test_non_finite_key_paths(self):
        payload = {"x": {"values": np.array([0.0, np.inf])},
                   "series": [{"label": "a", "values": [1.0, math.nan]}],
                   "complex": 1j * math.inf, "count": 3, "flag": True}
        assert list(experiments._non_finite_keys(payload, "plotdata")) == [
            "plotdata.x.values[1]", "plotdata.series[0].values[1]",
            "plotdata.complex"]

    def test_numerics_exit_code(self, tmp_path):
        # fock cutoff far below the coherent-state support
        runner = CliRunner()
        result = runner.invoke(cli, ["run", "fig2a", "--out", str(tmp_path),
                                     "--set", "basis.fock_cutoff=5"])
        assert result.exit_code == 3

    def test_analytics_collapse(self):
        runner = CliRunner()
        result = runner.invoke(cli, ["analytics", "collapse",
                                     "--preset", "s1_bragg"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["t_c_adjacent_fs"] == pytest.approx(77.6, rel=2e-2)

    def test_analytics_regime(self):
        runner = CliRunner()
        result = runner.invoke(cli, ["analytics", "regime",
                                     "--preset", "fig2b"])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["regime"] == "DISPERSIVE"

    def test_gate_iswap_command(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(cli, ["gate", "iswap", "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["metrics"]["fidelity"] > 0.97

    def test_wstate_digital_four_qubits(self, tmp_path):
        # above 3 qubits each step exports the pair its gate acts on
        record = run_wstate(4, "digital", out_dir=tmp_path, fmt="json")
        for k in (1, 2, 3):
            assert record.metrics[f"fidelity_step{k}"] > 0.98
            payload = json.loads(
                (tmp_path / f"fig3_rho_step{k}.json").read_text())
            assert payload["basis_labels"] == ["ee", "eg", "ge", "gg"]
        assert "fidelity_step4" not in record.metrics
        diag = record.metrics["diag_populations"]
        assert len(diag) == 4
        assert sum(diag.values()) == pytest.approx(1.0, abs=0.01)
        corrected = json.loads(
            (tmp_path / "fig3_rho_corrected.json").read_text())
        assert len(corrected["basis_labels"]) == 4
        summary = json.loads((tmp_path / "fig3_summary.json").read_text())
        assert summary["metrics"] == record.metrics

    def test_wstate_digital_writes_one_trajectory(self, tmp_path):
        # one CSV spans the whole preparation, from t = 0 to the last gate's end
        record = run_wstate(4, "digital", out_dir=tmp_path)
        csvs = sorted(p.name for p in tmp_path.glob("*_trajectory.csv"))
        assert csvs == ["fig3_trajectory.csv"]
        assert not list(tmp_path.glob("fig3_gate*"))
        rows = (tmp_path / "fig3_trajectory.csv").read_text().splitlines()
        t_fs = [row.split(",")[0] for row in rows[1:]]
        assert t_fs[0] == "0"
        assert t_fs[-1] == f"{record.metrics['T_total_fs']:.9g}"

    def test_wstate_digital_executes_each_gate_once(self, tmp_path,
                                                    monkeypatch):
        calls = []
        propagate = gates.propagate

        def counting(*args, **kwargs):
            calls.append(args)
            return propagate(*args, **kwargs)
        monkeypatch.setattr(gates, "propagate", counting)
        run_wstate(4, "digital", out_dir=tmp_path, fmt="json")
        assert len(calls) == 3

    def test_wstate_analog_command(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(cli, ["wstate", "--n", "3", "--mode", "analog",
                                     "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["metrics"]["fidelity_w"] >= 0.99
        assert payload["metrics"]["T_TC_fs"] == pytest.approx(250.0, rel=5e-2)


def test_cli_import_leaves_out_scipy_stats():
    """scipy.stats roughly doubles the CLI's start-up; the package uses
    scipy.special for the Poisson law instead."""
    src = str(Path(feqo_lab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", "import sys, feqo_lab.cli; print(sorted("
         "m for m in sys.modules if m.startswith('scipy.stats')))"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"
