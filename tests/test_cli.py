import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import farsm.cli as cli
from farsm import selection, theory
from farsm.correlation import build_correlation_model, port_coordinates
from farsm.errors import ConfigError, NumericalError
from farsm.precoding import NoiseModel
from farsm.selection import PortSet
from farsm.simulate import SimConfig, _draw_trials, draw_channels
from farsm.theory import (NestedSetPair, zf_capacity_loss,
                          zf_capacity_loss_bound)

DATA = Path(__file__).parent / "data"


def run_cli(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


# -- SNR range parsing ------------------------------------------------------

def test_parse_snr_single_and_range():
    assert cli.parse_snr_range("10") == (10.0,)
    assert cli.parse_snr_range("-5") == (-5.0,)
    assert cli.parse_snr_range("0:5:15") == (0.0, 5.0, 10.0, 15.0)
    assert cli.parse_snr_range("0:2.5:5") == (0.0, 2.5, 5.0)
    # stop short of a full step still includes the last on-grid point
    assert cli.parse_snr_range("0:2:5") == (0.0, 2.0, 4.0)


def test_parse_snr_rejects_malformed():
    for bad in ("a", "1:2", "1:2:3:4", "0:-1:5", "0:0:5", "5:1:0"):
        with pytest.raises(ConfigError):
            cli.parse_snr_range(bad)


@given(start=st.integers(-20, 20), steps=st.integers(1, 30),
       step=st.sampled_from((0.5, 1.0, 2.5, 5.0)))
def test_parse_snr_grid_properties(start, steps, step):
    stop = start + steps * step
    pts = cli.parse_snr_range(f"{start}:{step}:{stop}")
    assert pts[0] == start
    assert pts[-1] == pytest.approx(stop)
    assert len(pts) == steps + 1
    assert (np.diff(pts) > 0).all()


# -- config file handling ---------------------------------------------------

def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"trials": 1234, "precoder": "mmse", "snr_db": [1, 2]}')
    cfg = cli.load_config(str(path))
    assert cfg == {"trials": 1234, "precoder": "mmse", "snr_db": (1.0, 2.0)}


def test_load_config_empty_file_is_defaults(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("")
    assert cli.load_config(str(path)) == {}


def test_load_config_unknown_key(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"trails": 10}')
    with pytest.raises(ConfigError, match="unknown config key 'trails'"):
        cli.load_config(str(path))


def test_load_config_reports_parse_position(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{\n  "trials": oops\n}')
    with pytest.raises(ConfigError, match="line 2, column 13"):
        cli.load_config(str(path))


def test_flag_overrides_file_with_note(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"trials": 50, "portsel": "tmd", "snr_db": [3]}')
    out_csv = tmp_path / "r.csv"
    code, _, err = run_cli(["ber", "--config", str(path), "--trials", "80",
                            "--out", str(out_csv)], capsys)
    assert code == 0
    assert "note: flag value for trials overrides config file" in err
    rows = out_csv.read_text().strip().split("\n")
    assert rows[1].split(",")[2] == "80"


# -- end-to-end runs --------------------------------------------------------

def test_ber_writes_csv_and_manifest(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, err = run_cli(
        ["ber", "--trials", "40", "--snr", "0:5:5", "--portsel", "tmd",
         "--seed", "9", "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == ("variant,snr_db,trials,bits,bit_errors,ber,ci_low,ci_high,"
                        "symbol_errors,ser")
    assert len(lines) == 3
    manifest = json.loads((tmp_path / "sweep.manifest.json").read_text())
    assert manifest["command"] == "ber"
    assert manifest["master_seed"] == 9
    assert manifest["config"]["trials"] == 40
    assert manifest["outputs"] == [str(out)]


@pytest.mark.parametrize("command", ["ber", "ratio-hist"])
def test_manifest_records_stream_version(command, tmp_path, capsys):
    out = tmp_path / "run.csv"
    code, _, _ = run_cli([command, "--trials", "20", "--snr", "5",
                          "--portsel", "tmd", "--out", str(out)], capsys)
    assert code == 0
    manifest = json.loads((tmp_path / "run.manifest.json").read_text())
    assert manifest["stream_version"] == 3


@pytest.mark.parametrize("command", ["ber", "ratio-hist"])
def test_manifest_splits_redraws_by_cause(command, tmp_path, capsys):
    # the first ports of a 0.05-wavelength aperture never degenerate in
    # selection, but some of their MMSE Grams fail the screen at 120 dB
    out = tmp_path / "run.csv"
    code, _, _ = run_cli([command, "--trials", "200", "--snr", "120",
                          "--w1", "0.05", "--w2", "0.05", "--portsel",
                          "first", "--precoder", "mmse", "--seed", "5",
                          "--out", str(out)], capsys)
    assert code == 0
    manifest = json.loads((tmp_path / "run.manifest.json").read_text())
    assert manifest["selection_redraws"] == 0
    assert manifest["screen_redraws"] == manifest["redraws"] > 0


@pytest.mark.parametrize("command", ["ber", "ratio-hist"])
def test_manifest_records_trials_per_second(command, tmp_path, capsys):
    out = tmp_path / "run.csv"
    code, _, _ = run_cli([command, "--trials", "30", "--snr", "0:5:10",
                          "--portsel", "tmd", "--out", str(out)], capsys)
    assert code == 0
    manifest = json.loads((tmp_path / "run.manifest.json").read_text())
    # trials, not trial-points: each trial serves all three SNR points.
    # elapsed_seconds is rounded to the millisecond, the rate to 0.1.
    rate, elapsed = manifest["trials_per_second"], manifest["elapsed_seconds"]
    assert rate > 0
    assert abs(rate * elapsed - 30) <= rate * 5e-4 + 0.05 * elapsed + 1e-9


def test_manifest_config_reproduces_run(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    code, _, _ = run_cli(["ber", "--trials", "60", "--snr", "4", "--portsel",
                          "tmd", "--seed", "3", "--out", str(out1)], capsys)
    assert code == 0
    manifest = json.loads((tmp_path / "a.manifest.json").read_text())
    cfg_path = tmp_path / "replay.json"
    cfg_path.write_text(json.dumps(manifest["config"]))
    out2 = tmp_path / "b.csv"
    code, _, _ = run_cli(["ber", "--config", str(cfg_path), "--out",
                          str(out2)], capsys)
    assert code == 0
    assert out1.read_text() == out2.read_text()


def test_ber_stdout_and_stderr_manifest(capsys):
    code, out, err = run_cli(
        ["ber", "--trials", "30", "--snr", "5", "--portsel", "tmd"], capsys)
    assert code == 0
    assert out.startswith("variant,")
    manifest = json.loads(err)
    assert manifest["outputs"] == ["-"]


def test_ber_json_payload(capsys):
    code, out, _ = run_cli(
        ["ber", "--trials", "30", "--snr", "5", "--portsel", "tmd",
         "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["variant"] == "fa-rsm-zf-tmd-mld"
    assert len(payload["points"]) == 1
    assert payload["points"][0]["trials"] == 30


def test_ber_rttd_reports_energy_detector_rows(tmp_path, capsys):
    out = tmp_path / "rttd.json"
    code, _, _ = run_cli(
        ["ber", "--trials", "50", "--snr", "0:10:20", "--portsel", "tmd",
         "--precoder", "mmse", "--detector", "rttd", "--json",
         "--out", str(out)], capsys)
    assert code == 0
    payload = json.loads(out.read_text())
    manifest = json.loads((tmp_path / "rttd.manifest.json").read_text())
    rows = payload["med_rows"]
    assert len(rows) == 3 and all(0 <= r <= 50 for r in rows)
    assert manifest["med_rows"] == rows
    code, out, err = run_cli(
        ["ber", "--trials", "5", "--snr", "5", "--portsel", "tmd", "--json"],
        capsys)
    assert "med_rows" not in json.loads(out)
    assert "med_rows" not in json.loads(err)


def test_ber_dump_correlation(tmp_path, capsys):
    dump = tmp_path / "corr.csv"
    out = tmp_path / "r.csv"
    code, _, _ = run_cli(
        ["ber", "--trials", "10", "--snr", "5", "--portsel", "tmd",
         "--out", str(out), "--dump-correlation", str(dump)], capsys)
    assert code == 0
    mat = np.loadtxt(dump, delimiter=",")
    assert mat.shape == (16, 16)
    assert np.allclose(np.diag(mat), 1.0)


def test_invariant_violation_exits_2(capsys):
    code, _, err = run_cli(["ber", "--na", "2", "--nr", "4"], capsys)
    assert code == 2
    assert "N_a must be >= N_r for precoder invertibility" in err


def test_non_finite_aperture_exits_2(capsys):
    code, _, err = run_cli(["ber", "--w1", "nan", "--trials", "5"], capsys)
    assert code == 2
    assert "surface extents must be finite" in err


@pytest.mark.parametrize("spec,message", [
    ("0:nan:5", "must be finite"),
    ("nan:1:5", "must be finite"),
    ("0:1:inf", "must be finite"),
    ("-inf:1:0", "must be finite"),
    ("0:1e-300:1", "more than 10000 points"),
    ("-1e308:1:1e308", "more than 10000 points"),
])
def test_malformed_snr_grid_exits_2(spec, message, capsys):
    code, _, err = run_cli(["ber", "--trials", "5", f"--snr={spec}"], capsys)
    assert code == 2
    assert message in err


def test_non_numeric_config_snr_exits_2(tmp_path, capsys):
    for bad in ('["x"]', "[null]", "[[1]]", "[true]", '["10"]'):
        path = tmp_path / "c.json"
        path.write_text(f'{{"snr_db": {bad}}}')
        code, _, err = run_cli(["ber", "--config", str(path)], capsys)
        assert code == 2
        assert "'snr_db' must be a list of numbers" in err


# config key -> (JSON value of the wrong type, expected error)
WRONG_TYPES = {
    "n_r": ('"4"', "n_r must be an integer, got '4'"),
    "mod_order": ("4.0", "mod_order must be an integer, got 4.0"),
    "trials": ("1.5", "trials must be an integer, got 1.5"),
    "n_a": ("4.0", "n_a must be an integer, got 4.0"),
    "n1": ("true", "n1 must be an integer, got True"),
    "master_seed": ("1.0", "master_seed must be an integer, got 1.0"),
    "w1": ('"1"', "w1 must be a number, got '1'"),
    "gamma": ("true", "gamma must be a number, got True"),
    "select_snr_db": ('"10"', "select_snr_db must be a number, got '10'"),
    "baseline": ("1", "baseline must be true or false, got 1"),
    "dump_channels": ("5", "dump_channels must be a string, got 5"),
}


@pytest.mark.parametrize("key", WRONG_TYPES)
def test_config_value_of_wrong_type_exits_2(key, tmp_path, capsys):
    value, message = WRONG_TYPES[key]
    path = tmp_path / "c.json"
    path.write_text(f'{{"{key}": {value}}}')
    argv = ["ber", "--config", str(path), "--snr", "0", "--portsel", "tmd"]
    if key != "trials":
        argv += ["--trials", "3"]
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert message in err


def test_config_numbers_of_either_json_type_are_accepted(tmp_path, capsys):
    # floats accept JSON integers; optional fields accept null
    path = tmp_path / "c.json"
    path.write_text('{"w1": 1, "gamma": 0, "select_snr_db": null}')
    code, _, _ = run_cli(["ber", "--config", str(path), "--snr", "0",
                          "--portsel", "tmd", "--trials", "3"], capsys)
    assert code == 0


def test_unknown_config_key_exits_2(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text('{"bogus": 1}')
    code, _, err = run_cli(["ber", "--config", str(path)], capsys)
    assert code == 2
    assert "unknown config key" in err


@pytest.mark.parametrize("command", ["capacity-loss", "mse", "portsel-bench"])
def test_port_grid_commands_check_ports_of_a_baseline_config(
        command, tmp_path, capsys):
    # validate() lets the baseline draw N_a > N antennas, but these commands
    # always run on the port grid
    path = tmp_path / "c.json"
    path.write_text('{"baseline": true, "n_a": 20}')
    code, _, err = run_cli([command, "--config", str(path)], capsys)
    assert code == 2
    assert "error: N_a=20 exceeds the port count N=16" in err


def test_numerical_failure_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_ber_sweep",
                        lambda cfg: (_ for _ in ()).throw(
                            NumericalError("synthetic")))
    code, _, err = run_cli(["ber", "--trials", "5", "--snr", "0",
                            "--portsel", "tmd"], capsys)
    assert code == 3
    assert "synthetic" in err


def test_redraw_exhaustion_exits_3(capsys):
    code, _, err = run_cli(["ber", "--w1", "0.001", "--w2", "0.001",
                            "--portsel", "first", "--trials", "50",
                            "--snr", "10"], capsys)
    assert code == 3
    assert ("trial 0 still failed after 8 redraws, the last by the precoder "
            "screen") in err
    # the theory draws fail the same ZF screen at 0.02 wavelengths
    code, _, err = run_cli(["capacity-loss", "--w1", "0.02", "--w2", "0.02",
                            "--snr", "10"], capsys)
    assert code == 3
    assert "after 8 redraws, the last by the precoder screen" in err


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["ber", "--frobnicate"])
    assert exc.value.code == 2


def test_ratio_hist_runs(tmp_path, capsys):
    out = tmp_path / "h.csv"
    code, _, _ = run_cli(
        ["ratio-hist", "--trials", "200", "--snr", "0", "--portsel", "tmd",
         "--bins", "10", "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "snr_db,bin_low,bin_high,count"
    assert len(lines) == 11
    counts = [int(l.split(",")[3]) for l in lines[1:]]
    assert sum(counts) == 200
    manifest = json.loads((tmp_path / "h.manifest.json").read_text())
    assert manifest["config"]["precoder"] == "mmse"  # forced default


def test_ratio_hist_rejects_zf(capsys):
    code, _, err = run_cli(
        ["ratio-hist", "--trials", "50", "--snr", "0", "--precoder", "zf"],
        capsys)
    assert code == 2
    assert "MMSE" in err


def test_capacity_loss_csv(tmp_path, capsys):
    out = tmp_path / "cl.csv"
    code, _, _ = run_cli(
        ["capacity-loss", "--snr", "0:10:20", "--draws", "5", "--out",
         str(out)], capsys)
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "snr_db,value,bound"
    vals = [tuple(map(float, l.split(","))) for l in lines[1:]]
    assert len(vals) == 3
    # loss grows toward the constant bound as SNR improves
    assert vals[0][1] < vals[1][1] < vals[2][1] <= vals[2][2]
    assert vals[0][2] == vals[1][2] == vals[2][2]


def test_capacity_loss_bound_runs_once_per_run(monkeypatch, capsys):
    # the noise-free bound does not depend on the SNR point: one call on
    # the stack of all draws
    curve = cli.zf_capacity_loss_curve
    calls = []

    def spy(h, pair, noises):
        calls.append(h)
        return curve(h, pair, noises)

    monkeypatch.setattr(cli, "zf_capacity_loss_curve", spy)
    code, _, _ = run_cli(
        ["capacity-loss", "--snr", "0:10:20", "--draws", "5"], capsys)
    assert code == 0
    assert len(calls) == 1
    assert np.array_equal(calls[0], draw_channels(SimConfig(), 5).channels)


def test_capacity_loss_factors_the_draws_once(monkeypatch, capsys):
    # tr(B), tr(D) and both sets' ZF precoders do not depend on the SNR
    # point: 21 points and the bound from one removal update and one
    # precoder per set
    calls = {"update": [], "precoder": 0}
    update, precoder = theory._removal_update, selection.zf_precoder

    def spy_update(h, pair, shift):
        calls["update"].append(shift)
        return update(h, pair, shift)

    def spy_precoder(h):
        calls["precoder"] += 1
        return precoder(h)

    monkeypatch.setattr(theory, "_removal_update", spy_update)
    monkeypatch.setattr(selection, "zf_precoder", spy_precoder)
    code, _, err = run_cli(
        ["capacity-loss", "--snr", "0:2:40", "--draws", "20"], capsys)
    assert code == 0, err
    assert calls == {"update": [0.0], "precoder": 2}


@pytest.mark.parametrize("w", ["1", "0.05", "0.25"])
def test_capacity_loss_prints_the_per_point_route(w, capsys):
    # the factored run prints, byte for byte, what one zf_capacity_loss
    # call per point and one bound call give on the same draws; at 0.05
    # wavelengths some draws are redrawn
    code, out, err = run_cli(
        ["capacity-loss", "--w1", w, "--w2", w, "--snr", "0:2:40",
         "--draws", "200"], capsys)
    assert code == 0, err
    hs = draw_channels(SimConfig(w1=float(w), w2=float(w)), 200).channels
    pair = NestedSetPair(inner=PortSet(range(1, 5)),
                         outer=PortSet(range(1, 17)))
    bound = float(np.mean(zf_capacity_loss_bound(hs, pair)))
    want = "snr_db,value,bound\n"
    for snr in cli.parse_snr_range("0:2:40"):
        loss = float(np.mean(zf_capacity_loss(
            hs, pair, NoiseModel.from_snr_db(snr))))
        want += ",".join(format(v, ".10g") for v in (snr, loss, bound)) + "\n"
    assert out == want


def test_capacity_loss_compact_aperture(capsys):
    # on a quarter-wavelength aperture the outer Gram is ill conditioned;
    # the closed form must still agree with the direct route to 1e-9 bits
    code, out, err = run_cli(
        ["capacity-loss", "--w1", "0.25", "--w2", "0.25", "--snr", "0:10:40",
         "--draws", "50"], capsys)
    assert code == 0, err
    lines = out.strip().split("\n")
    assert lines[0] == "snr_db,value,bound"
    assert len(lines) == 6


@pytest.mark.parametrize("command", ["capacity-loss", "mse"])
def test_theory_redraws_ill_conditioned_draws(command, tmp_path, capsys):
    # at w = 0.05 the engine's first draws of two of the first 100 trials
    # have first-4-port ZF Grams that fail the screen; both are redrawn
    # before any point, as ber --portsel first redraws them
    out = tmp_path / "theory.csv"
    code, _, err = run_cli(
        [command, "--w1", "0.05", "--w2", "0.05", "--snr", "0:10:40",
         "--draws", "100", "--out", str(out)], capsys)
    assert code == 0, err
    manifest = json.loads((tmp_path / "theory.manifest.json").read_text())
    assert manifest["redraws"] == 2
    assert manifest["screen_redraws"] == 2
    assert manifest["selection_redraws"] == 0
    assert manifest["stream_version"] == 3
    assert len(out.read_text().strip().split("\n")) == 6


def test_theory_draws_that_pass_the_screen_are_kept(tmp_path, capsys):
    out = tmp_path / "cl.csv"
    code, _, _ = run_cli(["capacity-loss", "--snr", "0:10:20", "--draws", "5",
                          "--seed", "3", "--out", str(out)], capsys)
    assert code == 0
    manifest = json.loads((tmp_path / "cl.manifest.json").read_text())
    assert manifest["redraws"] == 0
    cfg = SimConfig(master_seed=3)
    model = build_correlation_model(
        port_coordinates(cfg.w1, cfg.w2, cfg.n1, cfg.n2))
    pair = NestedSetPair(inner=PortSet(range(1, 5)),
                         outer=PortSet(range(1, 17)))
    # no redraw: the channels are the engine's first draws, coloured
    hs = _draw_trials(cfg, np.arange(5), 0, model.root)[0]
    rows = [l.split(",") for l in out.read_text().strip().split("\n")[1:]]
    for (snr, value, _), snr_db in zip(rows, (0.0, 10.0, 20.0)):
        noise = NoiseModel.from_snr_db(snr_db)
        want = np.mean([zf_capacity_loss(h, pair, noise) for h in hs])
        assert float(value) == pytest.approx(want, rel=1e-9)


def test_capacity_loss_averages_the_channels_of_ber_first(
        monkeypatch, tmp_path, capsys):
    # one draw path: capacity-loss averages, in trial order and bit for bit,
    # the channels ber --portsel first draws; at w = 0.05 two are redrawn
    grid = ["--w1", "0.05", "--w2", "0.05", "--seed", "0"]
    dump = tmp_path / "h.csv"
    code, _, err = run_cli(
        ["ber", *grid, "--portsel", "first", "--trials", "100", "--snr", "10",
         "--dump-channels", str(dump), "--out", str(tmp_path / "ber.csv")],
        capsys)
    assert code == 0, err
    ber_manifest = json.loads((tmp_path / "ber.manifest.json").read_text())
    rows = np.loadtxt(dump, delimiter=",")
    want = (rows[:, 3] + 1j * rows[:, 4]).reshape(100, 4, 16)
    assert np.array_equal(rows[::64, 0], np.arange(100))

    curve = cli.zf_capacity_loss_curve
    seen = []

    def spy(h, pair, noises):
        seen.append(h.copy())
        return curve(h, pair, noises)

    monkeypatch.setattr(cli, "zf_capacity_loss_curve", spy)
    code, _, err = run_cli(
        ["capacity-loss", *grid, "--snr", "0:10:20", "--draws", "100",
         "--out", str(tmp_path / "cl.csv")], capsys)
    assert code == 0, err
    manifest = json.loads((tmp_path / "cl.manifest.json").read_text())
    assert manifest["redraws"] == ber_manifest["redraws"] == 2
    # one call, on the (draws, N_r, N) stack
    assert len(seen) == 1
    assert np.array_equal(seen[0], want)


def test_capacity_loss_needs_a_port_to_drop(capsys):
    # N_a = N passes validate(), but leaves no nested pair to compare
    code, _, err = run_cli(["capacity-loss", "--na", "16", "--snr", "0",
                            "--draws", "5"], capsys)
    assert code == 2
    assert "error: inner set" in err and "must be a proper subset" in err
    code, out, err = run_cli(["mse", "--na", "16", "--snr", "0",
                              "--draws", "5"], capsys)
    assert code == 0, err
    assert len(out.strip().split("\n")) == 2


@pytest.mark.parametrize("command", ["capacity-loss", "mse"])
def test_theory_commands_reject_a_noiseless_point(command, capsys):
    # validate() accepts +inf dB, where the closed forms have no noise power
    code, _, err = run_cli([command, "--snr", "inf", "--draws", "5"], capsys)
    assert code == 2
    assert "error: SNR point inf dB is not finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["capacity-loss", "mse"])
def test_theory_commands_ignore_the_exhaustive_limits(command, capsys):
    # the theory draws select the first ports, so exhaustive selection's
    # port-count limit does not apply to a 5 x 5 grid
    code, out, err = run_cli([command, "--n1", "5", "--n2", "5", "--snr", "0",
                              "--draws", "5"], capsys)
    assert code == 0, err
    assert len(out.strip().split("\n")) == 2


def test_mse_csv(capsys):
    code, out, _ = run_cli(["mse", "--snr", "0:10:20", "--draws", "5"],
                           capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "snr_db,value"
    vals = [float(l.split(",")[1]) for l in lines[1:]]
    assert vals[0] > vals[1] > vals[2] > 0


def test_portsel_bench_csv(capsys):
    code, out, _ = run_cli(["portsel-bench", "--repeats", "5"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "algorithm,median_seconds,evaluations"
    names = [l.split(",")[0] for l in lines[1:]]
    assert names == ["optimal", "tmd", "mce-tmd"]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    out, _ = capsys.readouterr()
    assert out.startswith("farsm ")


# -- help snapshots ---------------------------------------------------------

def _help_text(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    out, _ = capsys.readouterr()
    return out


@pytest.mark.parametrize("argv,name", [
    (["--help"], "help_top.txt"),
    (["ber", "--help"], "help_ber.txt"),
])
def test_help_golden(argv, name, monkeypatch, capsys):
    got = _help_text(argv, monkeypatch, capsys)
    expected = (DATA / name).read_text()
    assert got == expected


def test_every_ber_flag_documents_its_default(monkeypatch, capsys):
    text = _help_text(["ber", "--help"], monkeypatch, capsys)
    for flag in ("--w1", "--w2", "--n1", "--n2", "--nr", "--na", "--nb",
                 "--mod-order", "--precoder", "--portsel", "--detector",
                 "--gamma", "--trials", "--snr", "--seed"):
        assert flag in text, flag
    assert text.count("default") >= 14
