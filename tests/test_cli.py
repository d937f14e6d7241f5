import json
import os
import re
import stat

import numpy as np
import pytest

from gasmoments import cli

HEADER = re.compile(r"^# gasmoments 0\.1\.0 config [0-9a-f]{12}$")


def read_table(path):
    """Header comment line(s), column names, and the numeric block."""
    comments, names, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif names is None:
            names = line.split(",")
        else:
            rows.append([float(tok) for tok in line.split(",")])
    return comments, names, np.array(rows)


def write_snapshot(path, r, rho, v, p, t=0.0):
    lines = [f"# t {t}", "r,rho,v,p"]
    lines += [f"{ri},{di},{vi},{pi}" for ri, di, vi, pi in zip(r, rho, v, p)]
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture()
def exact_outputs(tmp_path):
    out = tmp_path / "run"
    code = cli.main([
        "--out-dir", str(out),
        "exact", "--shape", "gaussian", "--t-end", "2", "--snapshot-times", "0.5,1.0",
    ])
    assert code == 0
    return out


class TestExact:
    def test_deformation_contract(self, exact_outputs):
        comments, names, data = read_table(exact_outputs / "deformation.csv")
        assert HEADER.match(comments[0])
        assert names == ["t", "a", "b"]
        assert np.all(np.diff(data[:, 0]) > 0)
        assert data[0, 0] == 0.0 and data[0, 2] == 0.0

    def test_summary_contents(self, exact_outputs):
        summary = json.loads((exact_outputs / "summary.json").read_text())
        assert summary["variant"] == "mass"
        assert summary["K"] > 0.0
        assert summary["compatibility_residual"] < 1e-8
        assert summary["toolkit_version"] == "0.1.0"
        assert re.fullmatch(r"[0-9a-f]{12}", summary["config_hash"])

    def test_snapshots_written(self, exact_outputs):
        for name in ("snapshot_000.csv", "snapshot_001.csv"):
            comments, names, data = read_table(exact_outputs / name)
            assert names == ["r", "rho", "v", "p"]
            assert np.all(data[:, 1] >= 0.0)

    def test_idempotent_reruns(self, exact_outputs, tmp_path):
        out2 = tmp_path / "again"
        args = ["--out-dir", str(out2), "exact", "--shape", "gaussian",
                "--t-end", "2", "--snapshot-times", "0.5,1.0"]
        assert cli.main(args) == 0
        assert cli.main(args) == 0  # overwrite in place, still identical
        for name in ("deformation.csv", "summary.json", "snapshot_001.csv"):
            assert (out2 / name).read_bytes() == (exact_outputs / name).read_bytes()

    @pytest.mark.parametrize(
        "umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)], ids=["022", "077", "002"]
    )
    def test_artifact_mode_follows_umask(self, tmp_path, umask, mode):
        out = tmp_path / "modes"
        previous = os.umask(umask)
        try:
            assert cli.main(["--out-dir", str(out), "exact", "--t-end", "1"]) == 0
        finally:
            os.umask(previous)
        for name in ("deformation.csv", "summary.json"):
            assert stat.S_IMODE((out / name).stat().st_mode) == mode

    def test_excluding_variant_changes_constant(self, tmp_path, exact_outputs):
        out = tmp_path / "excl"
        assert cli.main(["--out-dir", str(out), "exact", "--t-end", "2", "--variant", "excluding"]) == 0
        k_mass = json.loads((exact_outputs / "summary.json").read_text())["K"]
        k_excl = json.loads((out / "summary.json").read_text())["K"]
        assert k_excl > 0.0 and k_excl != k_mass

    def test_flag_overrides_config_file(self, tmp_path):
        ini = tmp_path / "scenario.ini"
        ini.write_text("[exact]\nt_end = 1.0\ntol = 1e-9\n")
        out = tmp_path / "o"
        assert cli.main(["--config", str(ini), "--out-dir", str(out), "exact", "--t-end", "2"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["t_end"] == 2.0
        assert summary["tol"] == 1e-9


class TestConfigErrors:
    def test_empty_config_file(self, tmp_path, capsys):
        ini = tmp_path / "empty.ini"
        ini.write_text("")
        assert cli.main(["--config", str(ini), "exact", "--t-end", "1"]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_unknown_key_reports_line(self, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_text("[exact]\nt_end = 1\nbogus = 3\n")
        assert cli.main(["--config", str(ini), "exact"]) == 2
        err = capsys.readouterr().err
        assert "bogus" in err and "line 3" in err

    def test_unknown_section_rejected(self, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_text("[nonsense]\nx = 1\n")
        assert cli.main(["--config", str(ini), "exact", "--t-end", "1"]) == 2
        assert "unknown section" in capsys.readouterr().err

    def test_missing_required_key(self, tmp_path, capsys):
        assert cli.main(["--out-dir", str(tmp_path), "exact"]) == 2
        assert "t_end" in capsys.readouterr().err

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert cli.main([]) == 2

    def test_bad_value_rejected(self, tmp_path, capsys):
        assert cli.main(["--out-dir", str(tmp_path), "exact", "--t-end", "-3"]) == 2

    def test_threads_validated(self, tmp_path, capsys):
        # threads was removed: the flag is a usage error and the INI key unknown
        assert cli.main(["--threads", "1", "--out-dir", str(tmp_path),
                         "verify", "--suite", "riccati"]) == 2
        assert "usage:" in capsys.readouterr().err
        assert cli.main(["--out-dir", str(tmp_path), "verify", "--suite", "riccati",
                         "--threads", "1"]) == 2
        assert "unrecognized arguments: --threads 1" in capsys.readouterr().err
        ini = tmp_path / "t.ini"
        ini.write_text("[common]\nthreads = 1\n")
        assert cli.main(["--config", str(ini), "--out-dir", str(tmp_path),
                         "verify", "--suite", "riccati"]) == 2
        err = capsys.readouterr().err
        assert "unknown key 'threads'" in err and "line 2" in err

    def test_missing_input_file(self, tmp_path, capsys):
        assert cli.main(["--out-dir", str(tmp_path), "momenta",
                         "--snapshot", str(tmp_path / "nope.csv")]) == 2
        assert "no such file" in capsys.readouterr().err


BAD_SNAPSHOTS = {
    "t_not_a_number": ("# t abc\nr,rho,v,p\n0,1,0,1\n1,1,0,1\n", "line 1: malformed header '# t abc'"),
    "r_max_not_finite": ("# r_max inf\nr,rho,v,p\n0,1,0,1\n1,1,0,1\n", "r_max must be finite, got inf"),
    "t_not_finite": ("# t nan\nr,rho,v,p\n0,1,0,1\n1,1,0,1\n", "snapshot time must be finite, got nan"),
    "column_names": ("radius,rho,v,p\n0,1,0,1\n1,1,0,1\n", "line 1: expected header r,rho,v,p"),
    "three_columns": ("r,rho,v,p\n0,1,0,1\n1,1,0\n", "line 3: expected 4 columns"),
    "text_after_data": ("r,rho,v,p\n0,1,0,1\n1,1,0,1\nx,y,z,w\n", "line 4: malformed data row 'x,y,z,w'"),
    "single_row": ("# t 0\nr,rho,v,p\n0,1,0,1\n", "snapshot needs at least 2 data rows"),
    "negative_density": ("r,rho,v,p\n0,1,0,1\n1,-1,0,1\n", "density must be nonnegative"),
    "r_max_below_last_node": ("# r_max 0.5\nr,rho,v,p\n0,1,0,1\n1,1,0,1\n",
                              "r_max cannot be smaller than the last grid node"),
}

SNAPSHOT_COMMANDS = {
    "momenta": [],
    "simulate": ["--cells", "8", "--t-end", "0.1"],
    "bounds": ["--class-tag", "K_NS0", "--alpha-v", "-3", "--alpha-dv", "-4", "--alpha-rho", "-5.5",
               "--alpha-p", "-3.5", "--alpha-theta", "-3", "--m-v", "const:1", "--m-rho", "const:1",
               "--r0", "1", "--epsilon", "0.5", "--horizon", "100"],
}


class TestBadSnapshot:
    @pytest.mark.parametrize("command", list(SNAPSHOT_COMMANDS))
    @pytest.mark.parametrize("case", list(BAD_SNAPSHOTS))
    def test_rejected_with_file_and_line(self, tmp_path, capsys, case, command):
        text, message = BAD_SNAPSHOTS[case]
        snap = tmp_path / "snap.csv"
        snap.write_text(text)
        out = tmp_path / "out"
        code = cli.main(["--out-dir", str(out), command, "--snapshot", str(snap)] + SNAPSHOT_COMMANDS[command])
        assert code == 2
        assert capsys.readouterr().err == f"config error: {snap}: {message}\n"
        assert not out.exists()  # the snapshot is read with the config, before any output


class TestMomenta:
    def test_quadratic_report(self, exact_outputs, tmp_path):
        out = tmp_path / "m"
        code = cli.main(["--out-dir", str(out), "momenta",
                         "--snapshot", str(exact_outputs / "snapshot_000.csv")])
        assert code == 0
        report = json.loads((out / "momenta.json").read_text())
        for key in ("G", "G_rate", "I1", "I2", "I3", "I4", "residual"):
            assert key in report
        assert report["G"] > 0.0
        assert report["I2"] == 0.0
        assert report["residual"] < 1e-12

    def test_singular_weight_needs_inner_radius(self, exact_outputs, tmp_path, capsys):
        code = cli.main(["--out-dir", str(tmp_path), "momenta",
                         "--snapshot", str(exact_outputs / "snapshot_000.csv"),
                         "--weight", "power"])
        assert code == 2
        assert "inner_radius" in capsys.readouterr().err

    def test_shifted_weight_runs(self, exact_outputs, tmp_path):
        out = tmp_path / "m"
        code = cli.main(["--out-dir", str(out), "momenta",
                         "--snapshot", str(exact_outputs / "snapshot_000.csv"),
                         "--weight", "shifted:q=-1", "--inner-radius", "0.3"])
        assert code == 0
        report = json.loads((out / "momenta.json").read_text())
        assert np.isfinite(report["G"])


BOUNDS_INI = """\
[bounds]
class_tag = K_NS0
alpha_v = -3
alpha_dv = -4
alpha_rho = -5.5
alpha_p = -3.5
alpha_theta = -3
m_v = const:1
m_rho = const:1
r0 = 1
epsilon = 0.5
horizon = 100
"""


class TestBounds:
    def test_contradiction_certificate(self, tmp_path):
        ini = tmp_path / "b.ini"
        ini.write_text(BOUNDS_INI + "energy = 1\ng0 = 1\nmass = 1\n")
        out = tmp_path / "o"
        assert cli.main(["--config", str(ini), "--out-dir", str(out), "bounds"]) == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["verdict"] == "ContradictionAt"
        assert 0.0 < cert["t_star"] < 100.0
        comments, names, data = read_table(out / "bounds.csv")
        assert names == ["t", "lower", "upper"]
        assert len(data) > 10

    def test_conserved_quantities_from_snapshot(self, tmp_path, exact_outputs):
        ini = tmp_path / "b.ini"
        ini.write_text(BOUNDS_INI + f"snapshot = {exact_outputs / 'snapshot_000.csv'}\n")
        out = tmp_path / "o"
        assert cli.main(["--config", str(ini), "--out-dir", str(out), "bounds"]) == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["energy"] > 0.0 and cert["mass"] > 0.0

    def test_missing_conserved_data_rejected(self, tmp_path, capsys):
        ini = tmp_path / "b.ini"
        ini.write_text(BOUNDS_INI)
        assert cli.main(["--config", str(ini), "--out-dir", str(tmp_path), "bounds"]) == 2
        assert "energy" in capsys.readouterr().err


class TestVolume:
    def test_series_and_cloud(self, tmp_path):
        out = tmp_path / "v"
        code = cli.main(["--out-dir", str(out), "volume", "--radius", "1",
                         "--x0", "3,0,0", "--t-end", "0.2", "--steps", "8",
                         "--field", "radial:k=0.5", "--resolution", "16,32"])
        assert code == 0
        comments, names, data = read_table(out / "volume_series.csv")
        assert names == ["t", "flux", "min_distance", "functional_t0"]
        assert len(data) == 9
        # constant pressure still produces a nonzero signed flux for n = 3
        assert abs(data[0, 1]) > 0.1
        assert data[0, 2] == pytest.approx(2.0, abs=0.05)
        _, cloud_names, cloud = read_table(out / "volume_final.csv")
        assert cloud_names == ["x", "y", "z"]
        assert cloud.shape == (16 * 32, 3)

    def test_probe_inside_rejected(self, tmp_path, capsys):
        code = cli.main(["--out-dir", str(tmp_path), "volume", "--radius", "2",
                         "--x0", "0,0,0", "--t-end", "0.1"])
        assert code == 1


class TestSimulate:
    def test_uniform_gas_stays_put(self, tmp_path):
        snap = tmp_path / "uniform.csv"
        r = np.linspace(0.0, 4.0, 65)
        write_snapshot(snap, r, np.ones(65), np.zeros(65), np.ones(65))
        out = tmp_path / "s"
        code = cli.main(["--out-dir", str(out), "simulate", "--snapshot", str(snap),
                         "--cells", "40", "--t-end", "0.2", "--out-every", "0.1"])
        assert code == 0
        comments, names, data = read_table(out / "conservation.csv")
        assert names == ["t", "mass", "E_k", "E_i", "G", "mass_out"]
        assert len(data) == 3
        np.testing.assert_allclose(data[:, 1], data[0, 1], rtol=1e-14)
        assert np.all(data[:, 5] == 0.0)
        assert (out / "snapshot_002.csv").exists()

    def test_no_output_past_t_end(self, tmp_path):
        # a target rounded to 12 decimals used to land past t_end and add a snapshot
        snap = tmp_path / "uniform.csv"
        r = np.linspace(0.0, 4.0, 17)
        write_snapshot(snap, r, np.ones(17), np.zeros(17), np.ones(17))
        out = tmp_path / "s"
        code = cli.main(["--out-dir", str(out), "simulate", "--snapshot", str(snap), "--cells", "16",
                         "--t-end", "0.1234567890126", "--out-every", "0.1234567890126"])
        assert code == 0
        _, _, data = read_table(out / "conservation.csv")
        assert list(data[:, 0]) == [0.0, 0.1234567890126]
        assert (out / "snapshot_001.csv").exists()
        assert not (out / "snapshot_002.csv").exists()

    def test_output_count_beyond_budget_exits_1(self, tmp_path, capsys):
        # used to end in an uncaught MemoryError asking for terabytes
        snap = tmp_path / "uniform.csv"
        r = np.linspace(0.0, 4.0, 17)
        write_snapshot(snap, r, np.ones(17), np.zeros(17), np.ones(17))
        code = cli.main(["--out-dir", str(tmp_path), "simulate", "--snapshot", str(snap),
                         "--cells", "200", "--t-end", "0.5", "--out-every", "1e-13"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ParameterError: out_every=1e-13 asks for")

    def test_positivity_failure_exits_1(self, tmp_path, capsys):
        snap = tmp_path / "blast.csv"
        r = np.linspace(0.0, 1.0, 41)
        write_snapshot(snap, r, np.ones(41), 20.0 * r, np.full(41, 1e-6))
        code = cli.main(["--out-dir", str(tmp_path), "simulate", "--snapshot", str(snap),
                         "--cells", "50", "--t-end", "2", "--flux", "hll"])
        assert code == 1
        assert "cell" in capsys.readouterr().err


class TestVerify:
    def test_riccati_suite_passes(self, tmp_path):
        out = tmp_path / "v"
        assert cli.main(["--out-dir", str(out), "verify", "--suite", "riccati"]) == 0
        report = json.loads((out / "verify_riccati.json").read_text())
        assert report["passed"] is True
        assert report["max_error"] < 1e-8

    def test_failing_suite_exits_3(self, tmp_path, monkeypatch):
        monkeypatch.setitem(cli._SUITES, "riccati", lambda seed: {"passed": False})
        assert cli.main(["--out-dir", str(tmp_path), "verify", "--suite", "riccati"]) == 3

    def test_seed_feeds_randomized_suite(self, tmp_path):
        out1, out2, out3 = (tmp_path / d for d in ("a", "b", "c"))
        for out, seed in ((out1, "1"), (out2, "2"), (out3, "1")):
            assert cli.main(["--out-dir", str(out), "--seed", seed,
                             "verify", "--suite", "sigma"]) == 0
        a = (out1 / "verify_sigma.json").read_bytes()
        b = (out2 / "verify_sigma.json").read_bytes()
        c = (out3 / "verify_sigma.json").read_bytes()
        assert a != b  # different draws, different hash
        assert a == c  # same seed reproduces bytes


class TestScenarioConfigHash:
    def test_header_format_and_stability(self, exact_outputs):
        first = (exact_outputs / "deformation.csv").read_text().splitlines()[0]
        assert HEADER.match(first)

    def test_spelling_of_flags_does_not_matter(self, tmp_path):
        # same resolved scenario via INI or flags hashes identically
        ini = tmp_path / "s.ini"
        ini.write_text("[exact]\nt_end = 2\n")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert cli.main(["--config", str(ini), "--out-dir", str(out1), "exact"]) == 0
        assert cli.main(["--out-dir", str(out2), "exact", "--t-end", "2"]) == 0
        assert (out1 / "deformation.csv").read_bytes() == (out2 / "deformation.csv").read_bytes()
