import math
import re
import shlex
from pathlib import Path

import pytest

from fransim.cli import build_parser, main
from fransim.config import (
    ConfigError,
    config_hash,
    default_config,
    dump_config,
    load_config,
    loads_config,
    parse_quantity,
)


class TestQuantities:
    @pytest.mark.parametrize("text,expected", [
        ("350 ps", 350e-12),
        ("0.7ns", 0.7e-9),
        ("704 nm", 704e-9),
        ("180 kHz", 180e3),
        ("50 MHz", 50e6),
        ("0.05", 0.05),
        ("2e7", 2e7),
    ])
    def test_parse(self, text, expected):
        assert parse_quantity(text) == pytest.approx(expected)

    def test_unknown_unit(self):
        with pytest.raises(ConfigError, match="unknown unit"):
            parse_quantity("3 furlongs")

    @pytest.mark.parametrize("text", ["1.2.3 ns", "."])
    def test_malformed_number_names_the_key(self, text):
        with pytest.raises(ConfigError, match="tphc.window_width: cannot parse quantity"):
            parse_quantity(text, "tphc.window_width")


class TestConfigFile:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        assert load_config(path) == default_config()

    def test_defaults_match_published_apparatus(self):
        cfg = default_config()
        assert cfg.wavelength1 == pytest.approx(704e-9)
        assert cfg.analyzer1.path_delay == pytest.approx(0.7e-9)
        assert cfg.tphc.window_width == pytest.approx(350e-12)
        assert cfg.detector_stop.jitter_fwhm == pytest.approx(200e-12)
        assert cfg.detector_stop.efficiency == pytest.approx(0.17)
        assert cfg.detector_stop.dark_rate == pytest.approx(180e3)
        assert cfg.detector_start.dark_rate == pytest.approx(60.0)
        assert cfg.visibility == pytest.approx(0.957)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/nonexistent/path.cfg")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            loads_config("source.pump_power = 140\n")

    def test_parse_error_carries_location(self):
        with pytest.raises(ConfigError, match=":2:"):
            loads_config("visibility = 0.9\nseed = many\n")

    def test_window_wider_than_delay_rejected(self):
        with pytest.raises(ConfigError, match="window_width"):
            loads_config("tphc.window_width = 800ps\n")

    def test_comment_and_units(self):
        cfg = loads_config(
            "# scenario\n"
            "tphc.window_width = 300 ps  # narrower\n"
            "detector_stop.dark_rate = 250 kHz\n"
        )
        assert cfg.tphc.window_width == pytest.approx(300e-12)
        assert cfg.detector_stop.dark_rate == pytest.approx(250e3)

    def test_round_trip_is_byte_identical(self):
        text = dump_config(default_config())
        assert dump_config(loads_config(text)) == text

    def test_hash_tracks_content(self):
        a = default_config()
        b = loads_config("visibility = 0.5\n")
        assert config_hash(a) != config_hash(b)
        assert config_hash(a) == config_hash(default_config())


SMALL_CFG = """
source.pair_rate = 30 kHz
source.split_efficiency = 1.0
source.arm1_transmission = 1.0
source.arm2_transmission = 1.0
detector_start.efficiency = 1.0
detector_start.dark_rate = 0 Hz
detector_stop.efficiency = 1.0
detector_stop.dark_rate = 2 kHz
detector_stop.jitter_fwhm = 0 ps
seed = 99
"""


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CFG)
    return path


class TestCli:
    def test_simulate_is_deterministic(self, small_config, tmp_path, capsys):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            rc = main(["simulate", "--config", str(small_config), "--quiet",
                       "--dwell", "1.0", "--out", str(out)])
            assert rc == 0
        assert out1.read_bytes() == out2.read_bytes()
        m1 = (tmp_path / "a.csv.manifest").read_text()
        assert "command = simulate" in m1
        assert "config_hash = " in m1
        assert "seed = 99" in m1

    def test_scan_writes_csv_and_sidecar(self, small_config, tmp_path):
        out = tmp_path / "scan.csv"
        rc = main(["scan", "--config", str(small_config), "--quiet",
                   "--points", "8", "--dwell", "0.5", "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert text.splitlines()[0].startswith("# fransim")
        assert "control,raw,accidentals,net" in text
        assert (tmp_path / "scan.csv.manifest").exists()

    def test_phase_scan_defaults_to_the_phase_the_mirror_default_sweeps(self, tmp_path,
                                                                         capsys):
        # The default mirror span moves d1 by 4*pi*span/wavelength1: a phase
        # scan sweeps that many radians, not the mirror span's 6e-7.
        cfg, out = default_config(), tmp_path / "phase.csv"
        rc = main(["scan", "--axis", "phase2", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 0, err
        last = out.read_text().splitlines()[-1]
        assert float(last.split(",")[0]) == pytest.approx(4 * math.pi * 600e-9 / cfg.wavelength1,
                                                          rel=1e-12)
        vis, sigma = map(float, re.search(r"fitted visibility = (\S+) \+- (\S+),", err).groups())
        assert abs(vis - cfg.visibility) <= 4 * sigma

    def test_scan_with_too_few_points_fails(self, small_config, tmp_path, capsys):
        rc = main(["scan", "--config", str(small_config), "--points", "0",
                   "--out", str(tmp_path / "x.csv")])
        assert rc != 0
        assert "error" in capsys.readouterr().err

    def test_scan_far_shorter_than_the_fringe_fails_its_fit(self, tmp_path, capsys):
        # 6e-7 rad of a 2 pi fringe: the fit used to print V = 1.0000 +- 0.0000.
        rc = main(["scan", "--axis", "phase2", "--span", "6e-7", "--points", "9",
                   "--dwell", "0.5", "--seed", "3", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "the fringe is not resolved" in capsys.readouterr().err

    def test_bad_config_reports_on_stderr(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense = 1\n")
        rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "y.csv")])
        assert rc != 0
        assert "unknown key" in capsys.readouterr().err

    def test_an_output_that_cannot_be_written_reports_on_stderr(self, tmp_path, capsys):
        # --out under a regular file: the directory cannot be made.
        (tmp_path / "file").write_text("")
        rc = main(["simulate", "--dwell", "0.01", "--out", str(tmp_path / "file" / "x.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("fransim: error: ") and str(tmp_path / "file") in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key", ["detector_stop.jitter_fwhm", "detector_start.dark_rate",
                                     "analyzer1.phase_noise_sigma", "wavelength1"])
    def test_non_finite_value_is_rejected(self, key, tmp_path, capsys):
        # 1e400 parses to inf.
        bad = tmp_path / "bad.cfg"
        bad.write_text(SMALL_CFG + f"{key} = 1e400\n")
        rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "y.csv")])
        assert rc == 2
        assert f"{key}: must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("detector_stop.jitter_fwhm", "1e300"),
                                           ("detector_start.jitter_fwhm", "0.2 s")])
    def test_jitter_wider_than_a_slice_is_rejected(self, key, value, tmp_path, capsys):
        # 12 sigma of a 0.2 s FWHM is 1.02 s, past one 1 s slice.
        bad = tmp_path / "bad.cfg"
        bad.write_text(SMALL_CFG + f"{key} = {value}\n")
        rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "y.csv")])
        assert rc == 2
        assert f"{key}: its 12-sigma reach must fit in one" in capsys.readouterr().err

    def test_window_centre_key_is_rejected(self, tmp_path, capsys):
        # The window sits on the central peak; it has no centre to set.
        bad = tmp_path / "bad.cfg"
        bad.write_text(SMALL_CFG + "tphc.center_offset = 0 ps\n")
        rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "y.csv")])
        assert rc == 2
        assert "unknown key 'tphc.center_offset'" in capsys.readouterr().err

    def test_path_delay_past_a_slice_is_rejected(self, tmp_path, capsys):
        # 1e10 s is 1e22 ps, past int64; the long arm must fit in one 1 s slice.
        bad = tmp_path / "bad.cfg"
        bad.write_text(SMALL_CFG + "analyzer1.path_delay = 1e10 s\n"
                       "analyzer2.path_delay = 1e10 s\n")
        rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "y.csv")])
        assert rc == 2
        assert "analyzer1.path_delay: must be > 0 and fit in one" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["scan", "lhv"])
    def test_negative_seed_names_the_key(self, command, tmp_path, capsys):
        rc = main([command, "--seed", "-1", "--out", str(tmp_path / "x.txt")])
        assert rc == 2
        assert "seed: must be a non-negative integer" in capsys.readouterr().err

    def test_lhv_command_respects_bound(self, tmp_path):
        out = tmp_path / "lhv.txt"
        rc = main(["lhv", "--quiet", "--dwell", "2", "--seed", "5", "--out", str(out)])
        assert rc == 0
        fields = dict(line.split(" = ") for line in out.read_text().splitlines())
        assert fields["sampler"] == "lhv"
        assert float(fields["s"]) <= 2.0 + 5 * float(fields["s_sigma"])
        assert "command = lhv" in (tmp_path / "lhv.txt.manifest").read_text()

    def test_lhv_runs_at_the_configured_apparatus(self, tmp_path):
        def run(name, dwell, config_text=""):
            """The report text and its s_sigma."""
            cfg, out = tmp_path / f"{name}.cfg", tmp_path / f"{name}.txt"
            cfg.write_text(config_text)
            rc = main(["lhv", "--quiet", "--seed", "5", "--config", str(cfg),
                       "--dwell", dwell, "--out", str(out)])
            assert rc == 0
            text = out.read_text()
            return text, float(dict(line.split(" = ") for line in text.splitlines())["s_sigma"])

        short, sigma_short = run("short", "1")
        long, sigma_long = run("long", "4")
        assert short != long
        assert 1.7 < sigma_short / sigma_long < 2.3  # sigma ~ 1/sqrt(dwell)
        # A stop detector with 2 MHz of dark counts: the accidentals it adds
        # to every pairing widen the error of the net correlations.
        _, sigma_dark = run("dark", "1", "detector_stop.dark_rate = 2 MHz\n")
        assert sigma_dark > 1.5 * sigma_short

    @pytest.mark.parametrize("command", ["simulate", "scan", "chsh", "lhv"])
    @pytest.mark.parametrize("dwell,shown", [("inf", "inf"), ("nan", "nan"), ("0", "0.0")])
    def test_non_finite_dwell_is_rejected(self, command, dwell, shown, tmp_path, capsys):
        rc = main([command, "--quiet", "--dwell", dwell, "--out", str(tmp_path / "x.txt")])
        assert rc == 2
        assert f"duration must be finite and > 0, got {shown}" in capsys.readouterr().err

    def test_reproduce_paper_prints_verdict_table(self, tmp_path, capsys):
        out = tmp_path / "repro.csv"
        rc = main(["reproduce-paper", "--seed", "42", "--quiet", "--out", str(out)])
        captured = capsys.readouterr().out
        assert rc == 0
        assert "accidental rate" in captured
        assert "fitted visibility" in captured
        assert "violation significance" in captured
        assert "FAIL" not in captured
        assert out.exists()

    def test_reproduce_paper_pins_its_verdict_numbers(self, capsys):
        # Every number of the reproduction comes from counts of the + ports.
        # A change that moves their stream on purpose updates these and says so.
        assert main(["reproduce-paper", "--seed", "42"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[-3] for line in lines[1:]] == ["33.27", "0.9409", "0.0281",
                                                            "8.321"]

    def test_simulate_pins_a_full_count(self, tmp_path):
        # A full count of all four ports. A change that moves its stream on
        # purpose updates this row and says so.
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--dwell", "7.5", "--seed", "3", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1] == \
            "7.5,1878392,1353997,952,144,138,919,118.6890661984533"

    def test_fringe_less_reproduction_prints_its_verdict(self, capsys):
        # A 0.1 us dwell sees no coincidence, so the fit is flat with no
        # error on V: the table still prints, its rows fail, and it exits 1.
        rc = main(["reproduce-paper", "--seed", "1", "--points", "5", "--dwell", "1e-7"])
        captured = capsys.readouterr()
        assert rc == 1, captured.err
        lines = captured.out.splitlines()
        assert len(lines) == 5 and all(line.endswith("FAIL") for line in lines[1:])
        assert lines[4].split() == ["violation", "significance", "nan", "7.93", "FAIL"]

    def test_chsh_command(self, small_config, tmp_path):
        out = tmp_path / "chsh.txt"
        rc = main(["chsh", "--config", str(small_config), "--quiet",
                   "--dwell", "1.0", "--out", str(out)])
        assert rc == 0
        assert (tmp_path / "chsh.txt.json").exists()
        fields = dict(line.split(" = ") for line in out.read_text().splitlines())
        assert 0.0 < float(fields["s"]) <= 2 * math.sqrt(2) + 0.2


def test_readme_command_lines_parse(capsys):
    # A flag or config key the program no longer has must not linger in the
    # documented commands or the example config.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, re.S | re.M)
    (example,) = [block for block in blocks if block.startswith("# example.cfg\n")]
    loads_config(example, origin="README.md example.cfg")
    lines = (line.split("#", 1)[0].strip() for block in blocks for line in block.splitlines())
    commands = [line for line in lines if line.startswith("fransim ")]
    assert len(commands) >= 5, commands
    parser = build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}\n{capsys.readouterr().err}")
