import configparser
import contextlib
import hashlib
import io
import json
import os
import re
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gasmoments import cli, core
from gasmoments.bounds import ConstEnvelope, DecayClassSpec, LogEnvelope, PowerEnvelope, contradiction_time
from gasmoments.core import GasParameters, TailTruncationWarning

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

    def test_float_range_overflow_exits_1(self, tmp_path, capsys):
        out = tmp_path / "e"
        assert cli.main(["--out-dir", str(out), "exact", "--t-end", "1e308"]) == 1
        message = r"error: ParameterError: t_end=1e\+308: the deformation leaves the float range at t=\S+ \(h=\S+\)\n"
        assert re.fullmatch(message, capsys.readouterr().err)
        assert list(out.iterdir()) == []

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

    def test_gaussian_run_loads_no_scipy(self, tmp_path):
        # imports are most of a subcommand's wall time and the package needs numpy alone, so a
        # fresh process reports the scipy modules loaded after the import, a Gaussian run and
        # a tabulated-shape run; and whether configparser, a second INI reader, came with the import
        table = tmp_path / "shape.csv"
        u = np.linspace(0.0, 10.0, 400)
        table.write_text("u,value\n" + "".join(f"{x!r},{y!r}\n" for x, y in zip(u.tolist(), np.exp(-u**2 / 2).tolist())))
        script = (
            "import sys\n"
            "def scipy_modules():\n"
            "    print(sorted(name for name in sys.modules if name.startswith('scipy')))\n"
            "import gasmoments.cli as cli\n"
            "print('configparser' in sys.modules)\n"
            "scipy_modules()\n"
            "assert cli.main(['--out-dir', sys.argv[1], 'exact', '--shape', 'gaussian', '--t-end', '1']) == 0\n"
            "scipy_modules()\n"
            "assert cli.main(['--out-dir', sys.argv[2], 'exact', '--shape', 'file:' + sys.argv[3], '--t-end', '1']) == 0\n"
            "scipy_modules()\n"
        )
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "gaussian"), str(tmp_path / "table"), str(table)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert [line for line in done.stdout.splitlines() if line.startswith("[")] == ["[]", "[]", "[]"]
        assert done.stdout.splitlines()[0] == "False"
        assert (tmp_path / "gaussian" / "summary.json").is_file() and (tmp_path / "table" / "summary.json").is_file()

    def test_tabulated_shape_run(self, tmp_path):
        table = tmp_path / "shape.csv"
        u = np.linspace(0.0, 10.0, 400)
        table.write_text("u,value\n" + "".join(f"{x!r},{y!r}\n" for x, y in zip(u.tolist(), np.exp(-u**2 / 2).tolist())))
        out = tmp_path / "out"
        assert cli.main(["--out-dir", str(out), "exact", "--shape", f"file:{table}", "--t-end", "1"]) == 0
        assert json.loads((out / "summary.json").read_text())["compatibility_residual"] < 1e-8

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_every_dimension_builds(self, tmp_path, dim):
        out = tmp_path / "dim"
        assert cli.main(["--out-dir", str(out), "exact", "--dim", str(dim), "--t-end", "1"]) == 0
        assert json.loads((out / "summary.json").read_text())["compatibility_residual"] < 1e-6

    def test_flag_overrides_config_file(self, tmp_path):
        ini = tmp_path / "scenario.ini"
        ini.write_text("[exact]\nt_end = 1.0\ntol = 1e-9\n")
        out = tmp_path / "o"
        assert cli.main(["--config", str(ini), "--out-dir", str(out), "exact", "--t-end", "2"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["t_end"] == 2.0
        assert summary["tol"] == 1e-9

    def test_empty_snapshot_times_write_no_snapshot(self, tmp_path):
        ini = tmp_path / "scenario.ini"
        ini.write_text("[exact]\nt_end = 1\nsnapshot_times =\n")
        out = tmp_path / "o"
        assert cli.main(["--config", str(ini), "--out-dir", str(out), "exact"]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["deformation.csv", "summary.json"]


class TestTableReader:
    def test_artifact_tables_are_read_by_one_loadtxt_call(self, exact_outputs, tmp_path, monkeypatch):
        # a change to the artifacts' layout that sent them to the line walk would pass every other test
        blocks = []
        clean_block = core._clean_block
        monkeypatch.setattr(core, "_clean_block", lambda *args: blocks.append(clean_block(*args)) or blocks[-1])
        u = np.linspace(0.0, 8.0, 33)
        shape = tmp_path / "shape.csv"
        shape.write_text("u,value\n" + core._csv_rows(u, np.exp(-u * u / 2)))
        core.load_snapshot(exact_outputs / "snapshot_000.csv")
        cli._parse_field_source(f"deformation:{exact_outputs / 'deformation.csv'}")
        cli._parse_shape(f"file:{shape}")
        assert [type(block) for block in blocks] == [np.ndarray] * 3


class TestArtifactText:
    def test_json_rejects_an_unsupported_type(self):
        with pytest.raises(TypeError, match="^JSON field 'x' has unsupported type list$"):
            cli._json_text({"t": 1.0, "x": [1.0]})

    @pytest.mark.parametrize("value", [float("inf"), -float("inf"), float("nan"), np.float64("inf")])
    def test_json_rejects_a_non_finite_float(self, value):
        # JSON has no spelling for them: json.loads would reject the artifact
        with pytest.raises(ValueError, match=f"^JSON field 'x' is not finite: {value}$"):
            cli._json_text({"t": 1.0, "x": value})

    def test_failed_replace_removes_the_temp_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(cli.os, "replace", refuse)
        with pytest.raises(OSError, match="^replace refused$"):
            cli._write_atomic(str(tmp_path / "out.csv"), "data\n")
        assert list(tmp_path.iterdir()) == []


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

    @pytest.mark.parametrize("text, message", [
        # 't' is not the 't_end' of line 5
        ("[exact]\n# scenario\ntol = 1e-9\n\nt_end = 2\ngamma = 1.4\nt = 5\n",
         "line 7: unknown key 't' in [exact]"),
        # the 'x0' of [exact], not its valid use in [volume] on line 3
        ("[volume]\nt_end = 1\nx0 = 0.1,0,0\n\n[exact]\nt_end = 2\nX0 = 3\n",
         "line 7: unknown key 'x0' in [exact]"),
        # [DEFAULT] is no special section: it is rejected where it stands, and its keys reach no other section
        ("[DEFAULT]\nzz = 1\n\n[exact]\nt_end = 2\n", "line 1: unknown section [DEFAULT]"),
    ], ids=["key_prefix", "other_section", "default_section"])
    def test_unknown_key_reported_in_its_section(self, tmp_path, capsys, text, message):
        ini = tmp_path / "bad.ini"
        ini.write_text(text)
        assert cli.main(["--config", str(ini), "--out-dir", str(tmp_path), "exact"]) == 2
        assert capsys.readouterr().err == f"config error: {ini}: {message}\n"

    # the certificate reads only the m_v and m_rho envelopes, and never the class onset time
    @pytest.mark.parametrize("key", ["m_dv", "m_p", "m_theta", "t_start"])
    def test_bounds_takes_no_key_the_certificate_ignores(self, tmp_path, capsys, key):
        ini = tmp_path / "b.ini"
        ini.write_text(BOUNDS_INI + f"energy = 1\ng0 = 1\nmass = 1\n{key} = const:0\n")
        out = tmp_path / "o"
        assert cli.main(["--config", str(ini), "--out-dir", str(out), "bounds"]) == 2
        assert capsys.readouterr().err == f"config error: {ini}: line 16: unknown key {key!r} in [bounds]\n"
        assert not out.exists()

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
    "r_repeated": ("r,rho,v,p\n0,1,0,1\n# t 0\n1,1,0,1\n1,1,0,1\n",
                   "line 5: grid radii must strictly increase, got 1.0 after 1.0 at index 2"),
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


BOUNDS_FLAGS = SNAPSHOT_COMMANDS["bounds"] + ["--energy", "1", "--g0", "1", "--mass", "1"]
VOLUME_FLAGS = ["volume", "--radius", "1", "--x0", "3,0,0", "--t-end", "0.1"]
GOOD_SNAPSHOT = "r,rho,v,p\n0,1,0,1\n0.5,1,0,1\n1,1,0,1\n"

# (input file text, arguments after --out-dir with {path} for that file, exact stderr);
# every case is rejected while the config is resolved, before out_dir exists
BAD_INPUTS = {
    "shape_u_decreasing": ("u,value\n0,1\n2,0.1\n1,0.6\n3,0\n", ["exact", "--t-end", "1", "--shape", "file:{path}"],
                           "{path}: line 4: tabulated shape knots must strictly increase, got 1.0 after 2.0 "
                           "at index 2"),
    # a comment line among the rows: the line is the file's, not the row's
    "shape_u_repeated": ("u,value\n0,1\n1,0.6\n# knot\n1,0.5\n3,0\n",
                         ["exact", "--t-end", "1", "--shape", "file:{path}"],
                         "{path}: line 5: tabulated shape knots must strictly increase, got 1.0 after 1.0 at index 2"),
    # the template is a function of u = r/s >= 0
    "shape_starts_below_0": ("u,value\n-1,1\n0,1\n1,0.6\n2,0.1\n3,0\n", ["exact", "--t-end", "1", "--shape", "file:{path}"],
                             "{path}: tabulated shape u[0] must be >= 0, got -1.0"),
    # the spline through these samples reaches -0.0324 at u = 2.7; the probe names its first failing point
    "shape_spline_dips_below_0": ("u,value\n0,1\n1,0.6\n2,0.1\n3,0\n", ["exact", "--t-end", "1", "--shape", "file:{path}"],
                                  "{path}: shape must be finite and nonnegative, got -0.00279 at u = 2.375"),
    "shape_three_rows": ("u,value\n0,1\n1,0.6\n2,0.1\n", ["exact", "--t-end", "1", "--shape", "file:{path}"],
                         "{path}: tabulated shape knots must be 1-D with at least 4 values, got shape (3,)"),
    "shape_nan_row": ("u,value\n0,1\n1,nan\n2,0.1\n3,0\n", ["exact", "--t-end", "1", "--shape", "file:{path}"],
                      "{path}: line 3: non-finite value in row '1,nan'"),
    "shape_text_after_data": ("u,value\n0,1\n1,0.6\n2,0.1\n3,0\nx,y\n",
                              ["exact", "--t-end", "1", "--shape", "file:{path}"],
                              "{path}: line 6: malformed data row 'x,y'"),
    "envelope_nan_row": ("t,m\n0,1\n1,nan\n", ["bounds"] + BOUNDS_FLAGS + ["--m-rho", "table:{path}"],
                         "{path}: line 3: non-finite value in row '1,nan'"),
    "envelope_negative": ("t,m\n0,1\n1,-1\n", ["bounds"] + BOUNDS_FLAGS + ["--m-rho", "table:{path}"],
                          "{path}: table envelope values must be nonnegative"),
    "envelope_t_decreasing": ("t,m\n0,1\n2,1\n\n1,0.5\n", ["bounds"] + BOUNDS_FLAGS + ["--m-rho", "table:{path}"],
                              "{path}: line 5: table envelope times must strictly increase, got 1.0 after 2.0 "
                              "at index 2"),
    "deformation_t_unsorted": ("# gasmoments\nt,a,b\n0,1,0\n0.5,0.9,0.1\n0.2,0.95,0.05\n",
                               VOLUME_FLAGS + ["--field", "deformation:{path}"],
                               "{path}: line 5: deformation table times must strictly increase, got 0.2 after 0.5 "
                               "at index 2"),
    "deformation_two_columns": ("t,a\n0,1\n0.5,0.9\n", VOLUME_FLAGS + ["--field", "deformation:{path}"],
                                "{path}: line 2: expected 3 columns"),
    "bounds_alpha_off_class": (GOOD_SNAPSHOT, ["bounds", "--snapshot", "{path}"] + BOUNDS_FLAGS + ["--alpha-v", "-2"],
                               "K_NS0 class requires alpha_v = -n = -3, got alpha=(-2.0, -4.0, -5.5, -3.5, -3.0)"),
    "power_weight_dim_2": (GOOD_SNAPSHOT, ["momenta", "--snapshot", "{path}", "--weight", "power", "--dim", "2",
                                           "--inner-radius", "0.1"],
                           "the power weight's dimension n must be an integer >= 3, got 2"),
    "power_weight_no_inner_radius": (GOOD_SNAPSHOT, ["momenta", "--snapshot", "{path}", "--weight", "power"],
                                     "power weight needs an explicit inner_radius > 0"),
    "cfl_above_one": (GOOD_SNAPSHOT, ["simulate", "--snapshot", "{path}", "--cells", "8", "--t-end", "0.1",
                                      "--cfl", "1.5"], "cfl must be in (0, 1), got 1.5"),
    "resolution_too_coarse": (GOOD_SNAPSHOT, VOLUME_FLAGS + ["--resolution", "2,4"],
                              "surface sampling too coarse: need at least 4x8, got (2, 4)"),
    "x0_inside": (GOOD_SNAPSHOT, VOLUME_FLAGS + ["--center", "3,0,0", "--x0", "3.2,0,0"],
                  "probe point [3.2, 0.0, 0.0] lies inside the material volume"),
    "x0_within_one_spacing": (GOOD_SNAPSHOT, VOLUME_FLAGS + ["--x0", "1.05,0,0"],
                              "probe point [1.05, 0.0, 0.0] is within one particle spacing of the boundary"),
    "q_not_below_bound": (GOOD_SNAPSHOT, VOLUME_FLAGS + ["--q", "-5"],
                          "weight exponent must satisfy q < -6.0, got -5.0"),
    "deformation_past_last_t": ("t,a,b\n0,0.2,0\n0.05,0.19,0.01\n", VOLUME_FLAGS + ["--field", "deformation:{path}"],
                                "{path}: t_end 0.1 is past the deformation table's last t 0.05"),
    "snapshot_zero_pressure": ("r,rho,v,p\n0,1,0,0\n0.5,1,0,0\n1,1,0,0\n",
                               ["simulate", "--snapshot", "{path}", "--cells", "8", "--t-end", "0.1"],
                               "internal energy nonpositive in cell 0 at t=0.0"),
    "deformation_first_t_after_0": ("t,a,b\n0.5,0.3,0\n1,0.25,0.1\n",
                                    ["volume", "--radius", "1", "--x0", "3,0,0", "--t-end", "1",
                                     "--field", "deformation:{path}"],
                                    "{path}: the deformation table's first t 0.5 is after t = 0"),
    "envelope_power_missing_p": ("", ["bounds"] + BOUNDS_FLAGS + ["--m-rho", "power:c=1"],
                                 "missing parameters in 'c=1'; need ['c', 'p']"),
    "envelope_power_unknown_key": ("", ["bounds"] + BOUNDS_FLAGS + ["--m-rho", "power:c=1,q=2"],
                                   "expected c=<num>,p=<num>, got 'c=1,q=2'"),
    "envelope_log_negative": ("", ["bounds"] + BOUNDS_FLAGS + ["--m-rho", "log:-1"],
                              "bad envelope 'log:-1': envelope must be nonnegative, got -1.0"),
    "envelope_power_not_a_number": ("", ["bounds"] + BOUNDS_FLAGS + ["--m-rho", "power:c=x,p=1"],
                                    "expected a number, got 'x'"),
    "snapshot_zero_density": ("r,rho,v,p\n0,0,0,1\n0.5,0,0,1\n1,0,0,1\n",
                              ["simulate", "--snapshot", "{path}", "--cells", "8", "--t-end", "0.1"],
                              "density nonpositive in cell 0 at t=0.0"),
    "envelope_power_repeated_key": ("", ["bounds"] + BOUNDS_FLAGS + ["--m-v", "power:c=1,c=2,p=0.5"],
                                    "repeated parameter 'c' in 'c=1,c=2,p=0.5'"),
    # the profile pair and forcing constant are built while the config is resolved
    "shape_increasing": ("u,value\n0,0\n1,0.5\n2,0.8\n3,1\n", ["exact", "--t-end", "1", "--shape", "file:{path}"],
                         "{path}: shape must be nonincreasing (density would go negative)"),
    "shape_decays_too_slowly": ("u,value\n" + "".join(f"{i / 2},{1.0 / (1.0 + i * i / 4)!r}\n" for i in range(41)),
                                ["exact", "--t-end", "1", "--shape", "file:{path}"],
                                "{path}: the template must decay within the grid [0, 12 scale]: the moment integrand "
                                "f(u) u^2 at u = 12 is 1.0e+00 of its peak"),
    # the dimension's upper bound is GasParameters' own, so it fails before out_dir like n >= 1
    "momenta_dim_400": (GOOD_SNAPSHOT, ["momenta", "--snapshot", "{path}", "--dim", "400"],
                        "space dimension must be at most 343, got 400"),
    "simulate_dim_400": (GOOD_SNAPSHOT, ["simulate", "--snapshot", "{path}", "--cells", "8", "--t-end", "0.1",
                                         "--dim", "400"], "space dimension must be at most 343, got 400"),
    # the Gaussian template has no table to name
    "gaussian_decays_too_slowly": ("", ["exact", "--t-end", "1", "--dim", "100"],
                                   "the template must decay within the grid [0, 12 scale]: the moment integrand "
                                   "f(u) u^99 at u = 12 is 1.9e-02 of its peak"),
    "excluding_dim_2": ("", ["exact", "--t-end", "1", "--variant", "excluding", "--dim", "2"],
                        "the power weight's dimension n must be an integer >= 3, got 2"),
    # the bounds' energy and mass pass core's sign rule as they are read, not the runner's after out_dir
    "bounds_energy_negative": ("", ["bounds"] + BOUNDS_FLAGS + ["--energy", "-1"],
                               "energy must be nonnegative, got -1.0"),
    "bounds_mass_negative": ("", ["bounds"] + BOUNDS_FLAGS + ["--mass", "-1"],
                             "mass must be nonnegative, got -1.0"),
    # v^2 overflows in the first resampled cell: the message names it, not the energy it feeds
    "snapshot_kinetic_overflow": ("r,rho,v,p\n0,1,0,1\n0.25,1,1e200,1\n1,1,1e200,1\n",
                                  ["simulate", "--snapshot", "{path}", "--cells", "8", "--t-end", "0.1"],
                                  "kinetic energy overflows in cell 0 (v = 2.4999999999999999e+199)"),
    # one row per value parser and cross-key rule
    "t_end_inf": ("", ["exact", "--t-end", "inf"], "expected a finite number, got 'inf'"),
    "gamma_rounds_exponent_to_two": ("", ["exact", "--t-end", "1", "--gamma", "1.0000000000000002", "--dim", "1"],
                                     "gamma=1.0000000000000002 is too close to 1 for dimension n=1: "
                                     "the exponent (gamma - 1) n + 2 rounds to 2.0"),
    # GasParameters rejects a gamma whose (gamma - 1) n overflows, in every subcommand that takes one
    "exact_gamma_1e308": ("", ["exact", "--t-end", "1", "--gamma", "1e308"],
                          "gamma=1e+308 is too large for dimension n=3: (gamma - 1) n overflows"),
    "momenta_gamma_1e308": (GOOD_SNAPSHOT, ["momenta", "--snapshot", "{path}", "--gamma", "1e308"],
                            "gamma=1e+308 is too large for dimension n=3: (gamma - 1) n overflows"),
    "simulate_gamma_1e308": (GOOD_SNAPSHOT, ["simulate", "--snapshot", "{path}", "--cells", "8", "--t-end", "0.1",
                                             "--gamma", "1e308"],
                             "gamma=1e+308 is too large for dimension n=3: (gamma - 1) n overflows"),
    # the output schedule, t_end and out_every with it, is the solver's own, judged while the config is resolved
    "simulate_t_end_negative": (GOOD_SNAPSHOT, ["simulate", "--snapshot", "{path}", "--cells", "8", "--t-end", "-1"],
                                "t_end=-1.0 precedes the initial time 0.0"),
    "simulate_t_end_before_snapshot_t": ("# t 0.5\n" + GOOD_SNAPSHOT,
                                         ["simulate", "--snapshot", "{path}", "--cells", "8", "--t-end", "0.1"],
                                         "t_end=0.1 precedes the initial time 0.5"),
    "simulate_out_every_0": (GOOD_SNAPSHOT, ["simulate", "--snapshot", "{path}", "--cells", "8", "--t-end", "0.1",
                                             "--out-every", "0"], "out_every must be positive, got 0.0"),
    "simulate_out_every_1e-13": (GOOD_SNAPSHOT, ["simulate", "--snapshot", "{path}", "--cells", "200", "--t-end",
                                                 "0.5", "--out-every", "1e-13"],
                                 "out_every=1e-13 asks for 5e+12 outputs, more than the step budget 2000000"),
    "simulate_out_every_1e-308": (GOOD_SNAPSHOT, ["simulate", "--snapshot", "{path}", "--cells", "8", "--t-end", "0.1",
                                                  "--out-every", "1e-308"],
                                  "out_every=1e-308 asks for 1e+307 outputs, more than the step budget 2000000"),
    "cells_not_an_integer": (GOOD_SNAPSHOT, ["simulate", "--snapshot", "{path}", "--cells", "8.5", "--t-end", "0.1"],
                             "expected an integer, got '8.5'"),
    # the reach's R0**(1 - alpha_v) is formed as the class is validated, not in the scan after out_dir
    "bounds_r0_1e308": ("", ["bounds"] + BOUNDS_FLAGS + ["--r0", "1e308"],
                        "R0=1e+308 is too large: R0**(1 - alpha_v) = R0**4.0 overflows a float"),
    "scan_points_below_2": ("", ["bounds"] + BOUNDS_FLAGS + ["--scan-points", "0"],
                            "scan_points must be an integer >= 2, got 0"),
    "variant_unknown": ("", ["exact", "--t-end", "1", "--variant", "nope"],
                        "variant must be mass or excluding, got 'nope'"),
    "x0_two_numbers": ("", ["volume", "--radius", "1", "--x0", "1,2", "--t-end", "0.1"],
                       "expected three comma-separated numbers, got '1,2'"),
    "resolution_one_number": ("", VOLUME_FLAGS + ["--resolution", "8"], "expected n_lat,n_lon, got '8'"),
    "snapshot_empty_path": ("", ["momenta", "--snapshot", ""], "expected a file path"),
    "shape_unknown": ("", ["exact", "--t-end", "1", "--shape", "nope"],
                      "shape must be gaussian or file:<csv>, got 'nope'"),
    "envelope_unknown": ("", ["bounds"] + BOUNDS_FLAGS + ["--m-rho", "nope"],
                         "envelope must be const:<c>, power:c=<c>,p=<p>, log:<c> or table:<csv>, got 'nope'"),
    "field_unknown": ("", VOLUME_FLAGS + ["--field", "nope"],
                      "field must be zero, radial:k=<k> or deformation:<csv>, got 'nope'"),
    "pressure_unknown": ("", VOLUME_FLAGS + ["--pressure", "nope"], "pressure must be const:<p>, got 'nope'"),
    "weight_unknown": (GOOD_SNAPSHOT, ["momenta", "--snapshot", "{path}", "--weight", "nope"],
                       "weight must be quadratic, power or shifted:q=<q>, got 'nope'"),
    "flux_unknown": (GOOD_SNAPSHOT, ["simulate", "--snapshot", "{path}", "--cells", "8", "--t-end", "0.1",
                                     "--flux", "nope"], "flux must be rusanov or hll, got 'nope'"),
    "class_tag_unknown": ("", ["bounds"] + BOUNDS_FLAGS + ["--class-tag", "nope"],
                          "class_tag must be K_NS, K_NS0 or K_GD, got 'nope'"),
    "snapshot_time_past_t_end": ("", ["exact", "--t-end", "1", "--snapshot-times", "2"],
                                 "snapshot time 2.0 outside [0, t_end]"),
    "inner_radius_leaves_one_node": (GOOD_SNAPSHOT, ["momenta", "--snapshot", "{path}", "--inner-radius", "0.9"],
                                     "fewer than 2 snapshot nodes beyond inner_radius=0.9"),
    "config_missing": ("", ["--config", "{path}.missing", "exact", "--t-end", "1"],
                       "cannot read config {path}.missing: [Errno 2] No such file or directory: '{path}.missing'"),
    "config_no_section_header": ("t_end = 1\n", ["--config", "{path}", "exact"],
                                 "{path}: line 1: expected a [section] header, got 't_end = 1'"),
    # each INI error is one line naming the line it read
    "config_key_without_value": ("[exact]\nt_end\n", ["--config", "{path}", "exact"],
                                 "{path}: line 2: expected key = value, got 't_end'"),
    "config_repeated_section": ("[exact]\nt_end = 1\n\n[exact]\ntol = 1e-9\n", ["--config", "{path}", "exact"],
                                "{path}: line 4: repeated section [exact]"),
    "config_repeated_key": ("[exact]\nt_end = 1\nT_END = 2\n", ["--config", "{path}", "exact"],
                            "{path}: line 3: repeated key 't_end' in [exact]"),
    # a line ends at a newline alone, so a form feed in a comment shifts no line number
    "config_form_feed_in_comment": ("[exact]\nt_end = 1\n# a\fb\nbogus = 3\n", ["--config", "{path}", "exact"],
                                    "{path}: line 4: unknown key 'bogus' in [exact]"),
    # a value ends with its line: an indented line is a key of its own, not more of the value above it
    "config_indented_key": ("[exact]\nt_end = 1\n  t_end = 2\n", ["--config", "{path}", "exact"],
                            "{path}: line 3: repeated key 't_end' in [exact]"),
    # a header is the whole line
    "config_text_after_header": ("[exact] junk\nt_end = 1\n", ["--config", "{path}", "exact"],
                                 "{path}: line 1: expected a [section] header, got '[exact] junk'"),
    # [DEFAULT] is no special section, so its tol cannot reach [exact] unseen
    "config_default_section": ("[exact]\nt_end = 1\n\n[DEFAULT]\ntol = 1e-9\n", ["--config", "{path}", "exact"],
                               "{path}: line 4: unknown section [DEFAULT]"),
    # a file that does not decode as the locale's text (UTF-8 here) names the line of its first bad byte
    "snapshot_not_utf8": (b"r,rho,v,p\n0,1,0,1\n1,\xff,0,1\n", ["momenta", "--snapshot", "{path}"],
                          "{path}: line 3: byte 0xff is not utf-8 text"),
    "shape_not_utf8": (b"u,value\r\n0,1\r\n1,0.6\r\n\xfe2,0.1\r\n3,0\r\n",
                       ["exact", "--t-end", "1", "--shape", "file:{path}"],
                       "{path}: line 4: byte 0xfe is not utf-8 text"),
    "config_not_utf8": (b"[exact]\nt_end = 1\n# caf\xe9\n", ["--config", "{path}", "exact"],
                        "{path}: line 3: byte 0xe9 is not utf-8 text"),
}


# every key whose value the library judges only at run time, on the wrong side of core's rule:
# (arguments after --out-dir, with {path} for a good snapshot, exact stderr naming the key)
RULED_KEYS = {
    "exact-t_end": (["exact", "--t-end", "0"], "t_end must be positive, got 0.0"),
    "exact-tol": (["exact", "--t-end", "1", "--tol", "0"], "tol must be positive, got 0.0"),
    "momenta-inner_radius": (["momenta", "--snapshot", "{path}", "--inner-radius", "0"],
                             "inner_radius must be positive, got 0.0"),
    "bounds-horizon": (["bounds"] + BOUNDS_FLAGS + ["--horizon", "0"], "horizon must be positive, got 0.0"),
    "bounds-energy": (["bounds"] + BOUNDS_FLAGS + ["--energy", "-1"], "energy must be nonnegative, got -1.0"),
    "bounds-mass": (["bounds"] + BOUNDS_FLAGS + ["--mass", "-1"], "mass must be nonnegative, got -1.0"),
    "bounds-scan_points": (["bounds"] + BOUNDS_FLAGS + ["--scan-points", "1"],
                           "scan_points must be an integer >= 2, got 1"),
    "volume-t_end": (VOLUME_FLAGS + ["--t-end", "0"], "t_end must be positive, got 0.0"),
    "volume-steps": (VOLUME_FLAGS + ["--steps", "0"], "steps must be an integer >= 1, got 0"),
    # simulate's t_end is judged by the solver's output schedule, whose message reads "t_end=..."
    "simulate-t_end": (["simulate", "--snapshot", "{path}", "--cells", "8", "--t-end", "-1"],
                       "t_end=-1.0 precedes the initial time 0.0"),
    "common-seed": (["--seed", "-1", "verify", "--suite", "sigma"], "seed must be an integer >= 0, got -1"),
}


class TestBadInput:
    @pytest.mark.parametrize("case", list(BAD_INPUTS))
    def test_rejected_before_any_output(self, tmp_path, capsys, case):
        text, args, message = BAD_INPUTS[case]
        path = tmp_path / "input.csv"
        path.write_bytes(text) if isinstance(text, bytes) else path.write_text(text)
        out = tmp_path / "out"
        assert cli.main(["--out-dir", str(out)] + [a.format(path=path) for a in args]) == 2
        assert capsys.readouterr().err == f"config error: {message.format(path=path)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("case", list(RULED_KEYS))
    def test_range_error_names_its_key(self, tmp_path, capsys, case):
        args, message = RULED_KEYS[case]
        path = tmp_path / "input.csv"
        path.write_text(GOOD_SNAPSHOT)
        out = tmp_path / "out"
        assert cli.main(["--out-dir", str(out)] + [a.format(path=path) for a in args]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert re.match(case.split("-")[1] + "[ =]", message)
        assert not out.exists()


class TestByteOrderMark:
    """A UTF-8 file may start with a byte-order mark: the reader drops one, so it hides no row, header or section."""

    def test_a_headerless_shape_table_keeps_its_first_row(self, tmp_path):
        u = np.linspace(0.0, 10.0, 201)
        table = tmp_path / "shape.csv"
        table.write_bytes(b"\xef\xbb\xbf" + core._csv_rows(u, np.exp(-u * u / 2)).encode())
        np.testing.assert_array_equal(cli._parse_shape(f"file:{table}")[0].knots, u)

    def test_a_snapshot_keeps_its_header(self, tmp_path, capsys):
        snap = tmp_path / "bom.csv"
        r = np.linspace(0.0, 12.0, 49)
        write_snapshot(snap, r, np.exp(-r * r / 2), np.zeros_like(r), np.exp(-r * r / 2))
        snap.write_bytes(b"\xef\xbb\xbf" + snap.read_bytes())
        assert cli.main(["--out-dir", str(tmp_path / "out"), "momenta", "--snapshot", str(snap)]) == 0
        assert capsys.readouterr().err == ""

    def test_a_config_file_keeps_its_first_section(self, tmp_path, capsys):
        ini = tmp_path / "bom.ini"
        ini.write_bytes(b"\xef\xbb\xbf[verify]\nsuite = riccati\n")
        assert cli.main(["--config", str(ini), "--out-dir", str(tmp_path / "out"), "verify"]) == 0
        assert capsys.readouterr().err == ""
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["verify_riccati.json"]


INI_SECTIONS = {"common": cli._COMMON_KEYS, **cli._SCHEMAS}
# text of a value or comment: anything but a line break as the reader's text mode ends lines
INI_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"), max_size=8)
INI_SPACE = st.text(" \t", max_size=2)


@st.composite
def single_line_ini(draw):
    """An INI in which configparser continues no value onto a second line.

    Schema sections and keys come in any order, keys in mixed case, = or : with spaces and tabs around the
    tokens, and # or ; comment lines and blank lines anywhere.
    """
    # one indent for every header and key: configparser reads a deeper one as more of the value above it
    indent = draw(INI_SPACE)
    lines = []
    for section in draw(st.lists(st.sampled_from(list(INI_SECTIONS)), min_size=1, unique=True)):
        lines.append(f"{indent}[{section}]{draw(INI_SPACE)}")
        for key in draw(st.lists(st.sampled_from(sorted(INI_SECTIONS[section])), unique=True)):
            upper = draw(st.lists(st.booleans(), min_size=len(key), max_size=len(key)))
            key = "".join(c.upper() if up else c for c, up in zip(key, upper))
            space = [draw(INI_SPACE) for _ in range(3)]
            lines.append(f"{indent}{key}{space[0]}{draw(st.sampled_from('=:'))}{space[1]}{draw(INI_TEXT)}{space[2]}")
    for _ in range(draw(st.integers(0, 4))):
        blank, comment = draw(INI_SPACE), f"{draw(INI_SPACE)}{draw(st.sampled_from('#;'))}{draw(INI_TEXT)}"
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from([blank, comment])))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def configparser_merged(text, subcommand):
    """The raw texts of [common] and [subcommand] as configparser, the reader's reference, reads them."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(text)
    return {key: value for section in cp.sections() if section in ("common", subcommand)
            for key, value in cp[section].items()}


class TestIniReader:
    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(text=single_line_ini())
    def test_every_subcommand_reads_what_configparser_reads(self, tmp_path_factory, text):
        ini = tmp_path_factory.mktemp("ini") / "s.ini"
        ini.write_text(text)
        for subcommand in cli._SCHEMAS:
            assert cli._load_ini(str(ini), subcommand) == configparser_merged(core._read_text(ini), subcommand)


# every setting with alternative forms: (section, key), each read by one cli._parse_forms parser
FORM_KEYS = [(section, key) for section, schema in cli._SCHEMAS.items() for key, spec in schema.items()
             if hasattr(spec.parse, "forms")]
# the arguments that resolve each section with its defaults, {path} a good snapshot
SECTION_ARGS = {"exact": ["exact", "--t-end", "1"], "momenta": ["momenta", "--snapshot", "{path}"],
                "bounds": ["bounds"] + BOUNDS_FLAGS, "volume": VOLUME_FLAGS, "verify": ["verify"],
                "simulate": ["simulate", "--snapshot", "{path}", "--cells", "8", "--t-end", "0.1"]}
# a good table for each kind of <csv> form
FORM_TABLES = {
    "file": "u,value\n" + "".join(f"{u / 4},{np.exp(-u * u / 32):.17g}\n" for u in range(49)),
    "table": "t,m\n0,1\n1,0.5\n",
    "deformation": "t,a,b\n0,1,0\n1,0.5,0.5\n",
    "snapshot": GOOD_SNAPSHOT,
}


@pytest.fixture(scope="module")
def form_tables(tmp_path_factory):
    root = tmp_path_factory.mktemp("forms")
    for kind, text in FORM_TABLES.items():
        (root / f"{kind}.csv").write_text(text)
    return root


def form_kind(text):
    """What a text names: its bare kind, or its kind with the colon."""
    return "".join(text.partition(":")[:2])


class TestFormGrammar:
    @pytest.mark.parametrize("section, key", FORM_KEYS, ids=[f"{s}-{k}" for s, k in FORM_KEYS])
    @settings(max_examples=25, derandomize=True, deadline=None, database=None)
    @given(number=st.floats(0.0, 1e6), data=st.data())
    def test_listed_forms_parse_and_any_other_kind_is_one_error(self, form_tables, section, key, number, data):
        forms = cli._SCHEMAS[section][key].parse.forms
        # each listed form, its placeholders filled with a valid number or table, parses
        for usage in forms:
            kind = usage.partition(":")[0]
            text = re.sub(r"<(\w+)>", lambda m: str(form_tables / f"{kind}.csv") if m[1] == "csv" else repr(number),
                          usage)
            value = cli._SCHEMAS[section][key].parse(text)
            assert value == text if isinstance(value, str) else value is not None  # a choice is its text
        # a listed kind with its colon dropped or one added, or any other text, names no form
        kinds = {form_kind(usage) for usage in forms}
        near = sorted(kind[:-1] if kind.endswith(":") else kind + ":x" for kind in kinds)
        text = data.draw(st.one_of(st.sampled_from(near), st.text(max_size=12)).filter(
            lambda t: form_kind(t) not in kinds))
        out = form_tables / "out"
        argv = [a.format(path=form_tables / "snapshot.csv") for a in SECTION_ARGS[section]]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["--out-dir", str(out), *argv, f"--{key.replace('_', '-')}={text}"])
        assert code == 2
        line = err.getvalue()
        assert line.startswith("config error: ") and line.endswith(f", got {text!r}\n") and line.count("\n") == 1
        listed_at = [line.find(usage) for usage in forms]
        assert -1 not in listed_at and listed_at == sorted(listed_at)
        assert not out.exists()


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

    # (snapshot rows, arguments after the snapshot, the error after "error: InvalidInputError: ")
    OVERFLOWS = {
        # G's integrand rho r^2 r^(n-1) overflows on a grid reaching 1e100
        "momenta_g": ("0,1,0,1\n1e100,1,0,1\n2e100,0,0,0", ["momenta"],
                      "radial integrand is not finite at node 1 (r=1e+100)"),
        # bounds derives G0 from the snapshot through the same quadrature
        "bounds_g0": ("0,1,0,1\n1e100,1,0,1\n2e100,0,0,0", ["bounds", *SNAPSHOT_COMMANDS["bounds"]],
                      "radial integrand is not finite at node 1 (r=1e+100)"),
        # r^(n-1) is inf at both outer nodes: inf at node 1, and 0 * inf = NaN at node 2
        "dim5_factor": ("0,1,0,1\n1e100,1,0,1\n2e100,0,0,0", ["momenta", "--dim", "5"],
                        "radial integrand is not finite at node 1 (r=1e+100)"),
        # every term is finite, but omega_2 times their sum is not
        "sum": ("0,1,0,1\n1,1e308,0,1\n2,0,0,0", ["momenta"], "radial integral overflows a float"),
        # every sample is finite: v^2 overflows in I1's integrand, and in the kinetic energy density bounds integrates
        "momenta_v2": ("0,1,0,1\n1,1,1e200,1\n2,0,0,0", ["momenta"], "radial integrand is not finite at node 1 (r=1.0)"),
        "bounds_v2": ("0,1,0,1\n1,1,1e200,1\n2,0,0,0",
                      ["bounds", *[a.replace("K_NS0", "K_GD") for a in SNAPSHOT_COMMANDS["bounds"]]],
                      "radial integrand is not finite at node 1 (r=1.0)"),
        # rho phi = 1e306 * 100^2 / 2 overflows in G's weighted integrand
        "momenta_rho_phi": ("0,1,0,1\n100,1e306,0,1\n200,0,0,0", ["momenta"],
                            "radial integrand is not finite at node 1 (r=100.0)"),
        # p / (gamma - 1) overflows in the internal energy density; r^2 = 0 at node 0 makes its term NaN
        "gamma_near_1": ("0,1,0,1e300\n1,1,0,1e300\n2,0,0,0", ["momenta", "--gamma", "1.000000000000001"],
                         "radial integrand is not finite at node 0 (r=0.0)"),
        # every quadrature is finite; the ball's surface term -R p(R) omega R^2 is not
        "ball_i4": ("0,1,0,0\n9.999999999999999e99,0,0,0\n1e100,0,0,1e10", ["momenta", "--region", "ball"],
                    "ball surface term I4 is not finite at R=1e+100"),
    }

    def test_non_finite_result_exits_1_without_its_json(self, tmp_path, capsys):
        # the library names the node or the term, without a numpy warning, before any artifact is written
        for case, (rows, (command, *flags), message) in self.OVERFLOWS.items():
            snap = tmp_path / f"{case}.csv"
            snap.write_text(f"r,rho,v,p\n{rows}\n")
            out = tmp_path / case
            with warnings.catch_warnings():
                if "ball" in flags:  # a ball's integrals end at their edge value by design
                    warnings.simplefilter("ignore", TailTruncationWarning)
                assert cli.main(["--out-dir", str(out), command, "--snapshot", str(snap), *flags]) == 1, case
            assert capsys.readouterr().err == f"error: InvalidInputError: {message}\n", case
            assert list(out.iterdir()) == [], case

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

    def test_control_characters_in_the_weight_text_are_escaped(self, exact_outputs, tmp_path):
        # float() reads "-1\t" as -1, and the artifact echoes the weight text as given
        out = tmp_path / "m"
        code = cli.main(["--out-dir", str(out), "momenta",
                         "--snapshot", str(exact_outputs / "snapshot_000.csv"),
                         "--weight", "shifted:q=-1\t", "--inner-radius", "0.1"])
        assert code == 0
        assert json.loads((out / "momenta.json").read_text())["weight"] == "shifted:q=-1\t"


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
        # on a horizon of 1 the floor stays under the cap: no crossing, a null t_star
        ini.write_text(BOUNDS_INI.replace("horizon = 100", "horizon = 1") + "energy = 1\ng0 = 1\nmass = 1\n")
        short = tmp_path / "short"
        assert cli.main(["--config", str(ini), "--out-dir", str(short), "bounds"]) == 0
        text = (short / "certificate.json").read_text()
        assert '"t_star": null' in text
        assert json.loads(text)["verdict"] == "NoContradictionOnHorizon"

    @pytest.mark.parametrize("text, envelope", [
        ("power:c=1,p=0.5", PowerEnvelope(1.0, 0.5)),
        ("log:0.5", LogEnvelope(0.5)),
    ], ids=["power", "log"])
    def test_envelope_grammar_matches_library(self, tmp_path, text, envelope):
        # the envelope is both M_v (through its integral) and M_rho (through its value)
        ini = tmp_path / "b.ini"
        ini.write_text(BOUNDS_INI + "energy = 1\ng0 = 1\nmass = 1\n")
        out = tmp_path / "o"
        assert cli.main(["--config", str(ini), "--out-dir", str(out), "bounds", "--m-v", text, "--m-rho", text]) == 0
        zero = ConstEnvelope(0.0)
        spec = DecayClassSpec(class_tag="K_NS0", alpha=(-3.0, -4.0, -5.5, -3.5, -3.0), M_v=envelope, M_Dv=zero,
                              M_rho=envelope, M_p=zero, M_theta=zero, R0=1.0, epsilon=0.5)
        cert = contradiction_time(spec, 1.0, 1.0, 0.0, 1.0, 100.0, GasParameters(n=3, gamma=5.0 / 3.0))
        _, names, data = read_table(out / "bounds.csv")
        assert names == ["t", "lower", "upper"]
        np.testing.assert_array_equal(data, np.column_stack([cert.times, cert.lower, cert.upper]))

    def test_conserved_quantities_from_snapshot(self, tmp_path, exact_outputs):
        ini = tmp_path / "b.ini"
        ini.write_text(BOUNDS_INI + f"snapshot = {exact_outputs / 'snapshot_000.csv'}\n")
        out = tmp_path / "o"
        assert cli.main(["--config", str(ini), "--out-dir", str(out), "bounds"]) == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["energy"] > 0.0 and cert["mass"] > 0.0

    # contradiction_time's bounds overflow to inf unwarned; the artifact guard alone reports it
    def test_non_finite_bound_exits_1_without_its_csv(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert cli.main(["--out-dir", str(out), "bounds"] + BOUNDS_FLAGS + ["--horizon", "1e308"]) == 1
        assert capsys.readouterr().err == "error: ValueError: bounds.csv column 'lower' is not finite: inf\n"
        assert list(out.iterdir()) == []

    def test_two_scan_points_accepted(self, tmp_path):
        out = tmp_path / "o"
        assert cli.main(["--out-dir", str(out), "bounds"] + BOUNDS_FLAGS + ["--scan-points", "2"]) == 0
        _, _, data = read_table(out / "bounds.csv")
        assert list(data[:, 0]) == [0.0, 1e-3, 100.0]

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
        out = tmp_path / "v"
        code = cli.main(["--out-dir", str(out), "volume", "--radius", "2",
                         "--x0", "0,0,0", "--t-end", "0.1"])
        assert code == 2
        assert capsys.readouterr().err == "config error: probe point [0.0, 0.0, 0.0] lies inside the material volume\n"
        assert not out.exists()


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

    def test_runs_from_a_negative_initial_time(self, tmp_path):
        # t_end only has to follow the snapshot's t, as the solver's schedule asks
        snap = tmp_path / "uniform.csv"
        r = np.linspace(0.0, 4.0, 17)
        write_snapshot(snap, r, np.ones(17), np.zeros(17), np.ones(17), t=-1.0)
        out = tmp_path / "s"
        assert cli.main(["--out-dir", str(out), "simulate", "--snapshot", str(snap), "--cells", "8",
                         "--t-end", "-0.5"]) == 0
        _, _, data = read_table(out / "conservation.csv")
        assert list(data[:, 0]) == [-1.0, -0.5]

    def test_positivity_failure_exits_1(self, tmp_path, capsys):
        snap = tmp_path / "blast.csv"
        r = np.linspace(0.0, 1.0, 41)
        write_snapshot(snap, r, np.ones(41), 20.0 * r, np.full(41, 1e-6))
        code = cli.main(["--out-dir", str(tmp_path), "simulate", "--snapshot", str(snap),
                         "--cells", "50", "--t-end", "2", "--flux", "hll"])
        assert code == 1
        assert "cell" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--t-end", "1e308"],
        ["--t-end", "1", "--cfl", "1e-308"],
        ["--t-end", "1", "--gamma", "1e307"],
    ], ids=["t_end_1e308", "cfl_1e-308", "gamma_1e307"])
    def test_run_that_cannot_finish_exits_1_at_its_first_step(self, tmp_path, capsys, flags):
        # the first CFL step projects far past the step budget: one error line, no numpy warning
        snap = tmp_path / "snap.csv"
        snap.write_text(GOOD_SNAPSHOT)
        out = tmp_path / "s"
        assert cli.main(["--out-dir", str(out), "simulate", "--snapshot", str(snap), "--cells", "8", *flags]) == 1
        message = (r"error: StepBudgetError: step budget 2000000 cannot reach t_end=\S+: "
                   r"at t=\S+ the CFL step \S+ leaves \S+ steps\n")
        assert re.fullmatch(message, capsys.readouterr().err)
        assert list(out.iterdir()) == []


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


# sha256 of verify_sigma.json from `python -m gasmoments.cli --out-dir DIR verify
# --suite sigma` in a fresh process (seed 0), the same before and after the
# parser was memoised; pinned, as a subprocess here would cost a second
FRESH_SIGMA_SHA256 = "8fb8dd6231a5677dc960ebdeee17ee76b46bac190dc8168223871b5eba554ed8"


class TestParserReuse:
    def test_memoised_parser_keeps_no_state(self, tmp_path, capsys):
        assert cli.build_parser() is cli.build_parser()
        seeded, unseeded = tmp_path / "seeded", tmp_path / "unseeded"
        assert cli.main(["--out-dir", str(seeded), "--seed", "5", "verify", "--suite", "sigma"]) == 0
        assert cli.main(["--seed", "9", "verify", "--no-such-flag"]) == 2  # fails to parse
        assert "--no-such-flag" in capsys.readouterr().err
        assert cli.resolve_config(cli.build_parser().parse_args(["verify"])).seed == 0
        assert cli.main(["--out-dir", str(unseeded), "verify", "--suite", "sigma"]) == 0
        report = (unseeded / "verify_sigma.json").read_bytes()
        assert hashlib.sha256(report).hexdigest() == FRESH_SIGMA_SHA256
        assert report != (seeded / "verify_sigma.json").read_bytes()


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


    def test_absent_and_empty_snapshot_times_hash_alike(self, tmp_path):
        ini = tmp_path / "s.ini"
        ini.write_text("[exact]\nsnapshot_times =\n")
        parse = cli.build_parser().parse_args
        absent, flag, file = (cli.resolve_config(parse(argv)) for argv in (
            ["exact", "--t-end", "1"],
            ["exact", "--t-end", "1", "--snapshot-times", ""],
            ["--config", str(ini), "exact", "--t-end", "1"],
        ))
        assert absent.values["snapshot_times"] == flag.values["snapshot_times"] == file.values["snapshot_times"] == []
        assert absent.config_hash() == flag.config_hash() == file.config_hash()


@st.composite
def exact_keys(draw):
    """A text for t_end and for some other `exact` keys and the seed, each from the INI file or a flag."""
    t_end = draw(st.floats(0.1, 10.0))
    times = draw(st.lists(st.floats(0.0, 1.0), max_size=3))
    texts = {
        "tol": repr(draw(st.floats(1e-12, 1e-6))),
        "gamma": repr(draw(st.floats(1.0, 3.0, exclude_min=True))),
        "dim": str(draw(st.integers(1, 5))),
        "mass_scale": repr(draw(st.floats(0.1, 10.0))),
        "snapshot_times": ",".join(repr(f * t_end) for f in times),
        "seed": str(draw(st.integers(0, 99))),
    }
    texts = {"t_end": repr(t_end), **{k: v for k, v in texts.items() if draw(st.booleans())}}
    return {key: (text, draw(st.sampled_from(["ini", "flag"]))) for key, text in texts.items()}


class TestConfigHashSources:
    @settings(max_examples=20, derandomize=True, deadline=None, database=None)
    @given(keys=exact_keys())
    def test_a_value_hashes_alike_from_file_or_flag(self, tmp_path_factory, keys):
        ini = tmp_path_factory.mktemp("hash") / "s.ini"

        def resolve(in_file):
            """The config hash, or the error, with each key from the INI file where in_file(its source), else a flag."""
            sections, flags = {"common": "", "exact": ""}, []
            for key, (text, source) in keys.items():
                if in_file(source):
                    sections["common" if key == "seed" else "exact"] += f"{key} = {text}\n"
                else:
                    flags += ["--" + key.replace("_", "-"), text]
            ini.write_text("".join(f"[{name}]\n{body}" for name, body in sections.items()))
            args = cli.build_parser().parse_args(["--config", str(ini), "exact", *flags])
            try:
                return cli.resolve_config(args).config_hash()
            except cli.ConfigError as exc:  # e.g. gamma so near 1 that m_exp rounds to 2: rejected alike
                return str(exc)

        assert resolve(lambda source: source == "ini") == resolve(lambda source: False)

GOLDEN_INI = """\
[common]
seed = 7

[exact]
t_end = 2
snapshot_times = 0.5,1

[momenta]
snapshot = exact/snapshot_001.csv

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
snapshot = exact/snapshot_000.csv

[simulate]
snapshot = exact/snapshot_000.csv
cells = 64
t_end = 0.7
out_every = 0.1

[volume]
center = 3,0,0
radius = 1
resolution = 8,16
field = deformation:exact/deformation.csv
x0 = 0.1,0,0
t_end = 1
steps = 8

[verify]
suite = all
"""

# sha256 of every artifact of GOLDEN_INI, recorded before the text layer
# formatted whole tables: how floats are written and read must not move a byte
GOLDEN_SHA256 = {
    "exact/deformation.csv": "465d7ca852dfcf717c9fbb6d842a3206616791a51699b59cc696e4b496553ef3",
    "exact/snapshot_000.csv": "232cb09c9d4f6e8e1a7f25a232d8b0adf57eaf168ae4718be4b88fe65a308d85",
    "exact/snapshot_001.csv": "b13af68b3cb642f3c7b8b6e7772c301a52be2f675aba8755c46263a3b8cd04ac",
    "exact/summary.json": "7e967ae3dd8376d47b66cc610840cd802756a6dda170f59d61b3b8b88d61a4b2",
    "momenta/momenta.json": "fad33f1a8800ff77462c375fab60454a2cec69f8ccea3d6c07167e09fab86ec4",
    "bounds/bounds.csv": "d69fdcc602e06c465febddf66455966f3a20bd7066f36283bb9de0fe2b034238",
    "bounds/certificate.json": "2c8172de48062976c3b81569abb86d20bf4203f8f92a0d6da7040df66a97c5eb",
    "simulate/conservation.csv": "0b713c8151c793ccc811a6fcd3e9c016f64befe8904f63417ba78fc4a124efe9",
    "simulate/snapshot_000.csv": "140d931123f7572b5381ce25b5a76995fa3ebfe7a72a752a57c3a144f749d4bc",
    "simulate/snapshot_001.csv": "8053228c3d9bcc187eaafe28f8abc4046aee0c3e253f2d543ec56daeaa70181e",
    "simulate/snapshot_002.csv": "6ce5802998bf426ec6523607c8447d7b7c8d2ca315e4c1a07ea529f1d5a8bc4f",
    "volume/volume_final.csv": "d173afdda819ef3c76424c336de37109ae2795b1d386cde2c0daa9d99be31de7",
    "volume/volume_series.csv": "42f3bcb47b440cf2ca6f600fa34421a9f726790ef969549a2d4976ab4a47fa13",
    "volume/volume_summary.json": "3e63736b4cd4add04c870af05ba4f11c35b045353528fa49a6955c6fc41c9150",
    "verify/verify_compatibility.json": "996a886363f08be5c4f6835ba19f98303b68e61d2d0696f2ed4dfa20dd995665",
    "verify/verify_derivative.json": "7d162b3fddae2c8090b4968c517eeb622e71139db8eb5a68e932be7b063f9dae",
    "verify/verify_riccati.json": "7af4028c8d3f36f7f60d384ccef475b45a7ff8be8aaffb33ed4562e2dd26e22e",
    "verify/verify_sigma.json": "834e76b6a98648a3f8d198af4da605c717968b72e4ec4ed6a50bff8031e874b1",
    "verify/verify_virial.json": "e0a9d907ff3b47da223acf82dfa4755512b7c5d4558a97880b95db4b15ecb373",
}


def test_golden_artifacts_of_all_six_subcommands(tmp_path, monkeypatch):
    # relative paths keep the config hashes, and so the bytes, off tmp_path
    monkeypatch.chdir(tmp_path)
    (tmp_path / "scenario.ini").write_text(GOLDEN_INI)
    for command in ("exact", "momenta", "bounds", "simulate", "volume", "verify"):
        assert cli.main(["--config", "scenario.ini", "--out-dir", command, command]) == 0
    written = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.glob("*/*"))
    assert written == sorted(GOLDEN_SHA256)
    for name, digest in GOLDEN_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
