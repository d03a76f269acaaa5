"""Config parsing, CSV emission, and command-line behavior."""

import csv
from collections import Counter

import numpy as np
import pytest

from fracstefan import cli, errors, fronttrack

TINY = {"m1": 8, "m2": 20, "n": 12}
TINY_ARGV = ["--alpha", "1.0", "--m1", "8", "--m2", "20", "--n", "12"]

#: A valid, non-default flag value for each setting, echoed unchanged in run.txt.
FLAG_VALUES = {
    "alpha": "0.75", "lambda1": "1.5", "lambda2": "2", "kappa1": "2", "kappa2": "1.5",
    "theta_inf": "-0.25", "ratio": "12", "m1": "9", "m2": "21", "n": "13",
    "tau0_factor": "0.002", "p_min": "0.2", "p_max": "1.9", "epsilon": "0.002",
    "max_iter": "50",
}


def tiny_overrides(**extra):
    merged = dict(TINY)
    merged.update(extra)
    return merged


def read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


class TestParseConfig:
    def test_defaults(self, tmp_path):
        empty = tmp_path / "empty.cfg"
        empty.write_text("")
        config = cli.parse_config(empty, mode="exact")
        assert config.params.alpha == 0.5
        assert config.params.theta_inf == -0.5
        assert (config.mesh.m1, config.mesh.m2, config.mesh.n) == (100, 500, 400)
        assert config.mesh.ratio == 10.0
        assert config.bracket == (0.1, 2.0)
        assert config.eps == 1e-3
        assert config.profile_times is None

    def test_single_key_file(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("alpha = 0.75\n# comment line\n\n")
        config = cli.parse_config(path, mode="exact")
        assert config.params.alpha == 0.75
        assert config.mesh.n == 400

    def test_overrides_beat_file(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("alpha=0.75\nn=100\n")
        config = cli.parse_config(path, {"alpha": 0.25, "m1": 7}, mode="exact")
        assert config.params.alpha == 0.25
        assert config.mesh.n == 100
        assert config.mesh.m1 == 7

    def test_invariant_rejection_names_alpha(self):
        with pytest.raises(errors.ValidationError, match="alpha"):
            cli.parse_config(None, {"alpha": 1.5}, mode="exact")

    def test_all_violations_listed(self):
        with pytest.raises(errors.ValidationError) as excinfo:
            cli.parse_config(None, {"alpha": 1.5, "m1": 0, "epsilon": -1.0}, mode="exact")
        message = str(excinfo.value)
        assert "alpha" in message and "m1" in message and "epsilon" in message

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("alpha=0.5\nwhatever=3\n")
        with pytest.raises(errors.ParseError, match="2"):
            cli.parse_config(path, mode="exact")

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("alpha=abc\n")
        with pytest.raises(errors.ParseError, match="1"):
            cli.parse_config(path, mode="exact")

    def test_missing_file(self, tmp_path):
        with pytest.raises(errors.ParseError):
            cli.parse_config(tmp_path / "nope.cfg", mode="exact")

    def test_profile_times_and_rows_lists(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("profile_times = 0.5, 1.0\nextra_rows = 2,1,1,1 ; 1,1,1,2\n")
        config = cli.parse_config(path, mode="profiles")
        assert config.profile_times == (0.5, 1.0)
        assert config.extra_rows == ((2.0, 1.0, 1.0, 1.0), (1.0, 1.0, 1.0, 2.0))

    def test_empty_profile_times_means_unset(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("profile_times=\n")
        assert cli.parse_config(path, mode="profiles").profile_times is None
        config = cli.parse_config(None, {"profile_times": ()}, mode="profiles")
        assert config.profile_times is None

    @pytest.mark.parametrize("key,value", [
        ("p_max", float("inf")), ("epsilon", float("inf")), ("epsilon", float("nan")),
        ("extra_rows", ((1.0, 1.0, float("inf"), 1.0),)),
    ])
    def test_non_finite_rejected(self, key, value):
        with pytest.raises(errors.ValidationError, match=key):
            cli.parse_config(None, {key: value}, mode="tables")


@pytest.fixture(scope="module")
def table_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("tables")
    config = cli.parse_config(None, tiny_overrides(), mode="tables", output_dir=out)
    paths = cli.run_tables(config)
    return config, paths


class TestRunTables:
    def test_files_and_shape(self, table_run):
        _, paths = table_run
        for name in ("table1", "table2", "table3"):
            header, rows = read_csv(paths[name])
            assert len(header) == 8
            assert len(rows) == 3

    def test_exact_cells_match_reference(self, table_run):
        from conftest import P_EXACT_PRINTED

        _, paths = table_run
        _, rows = read_csv(paths["table1"])
        for ri, row in enumerate(rows):
            for ci, alpha in enumerate(cli.TABLE_ALPHAS):
                assert float(row[4 + ci]) == pytest.approx(
                    P_EXACT_PRINTED[(ri, alpha)], abs=5e-4)

    def test_time_table_is_power_map_of_numeric_table(self, table_run):
        # table3 holds final_time(p, alpha) = p**(-2/alpha) of the in-memory p;
        # through the 10-significant-digit CSV round trip the map holds to the
        # (2/alpha)-amplified formatting precision
        _, paths = table_run
        _, rows2 = read_csv(paths["table2"])
        _, rows3 = read_csv(paths["table3"])
        for row2, row3 in zip(rows2, rows3):
            for ci, alpha in enumerate(cli.TABLE_ALPHAS):
                p = float(row2[4 + ci])
                tau = float(row3[4 + ci])
                assert tau == pytest.approx(p ** (-2.0 / alpha), rel=1e-8)

    def test_metadata_echo(self, table_run):
        config, _ = table_run
        text = (config.output_dir / "run.txt").read_text()
        assert "mode=tables" in text
        assert "m1=8" in text
        assert "version=" in text
        assert "backend=numpy" in text.splitlines()
        # no extra rows, no extra_rows line: run.txt ends with profile_times
        assert text.splitlines()[-1] == "profile_times="

    def test_deterministic_bytes(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            config = cli.parse_config(None, tiny_overrides(), mode="tables", output_dir=out)
            cli.run_tables(config)
            outs.append((out / "table2.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_failed_cells_carry_status_and_run_continues(self, tmp_path):
        config = cli.parse_config(
            None, tiny_overrides(p_min=1.7, p_max=1.9),
            mode="tables", output_dir=tmp_path)
        paths = cli.run_tables(config)
        _, rows = read_csv(paths["table2"])
        cells = [cell for row in rows for cell in row[4:]]
        assert all(cell == "NoSignChange" for cell in cells)

    def test_extra_rows_appended(self, tmp_path):
        config = cli.parse_config(
            None, tiny_overrides(extra_rows=((1.0, 1.0, 1.0, 2.0),)),
            mode="tables", output_dir=tmp_path)
        paths = cli.run_tables(config)
        _, rows = read_csv(paths["table1"])
        assert len(rows) == 4
        assert rows[3][:4] == ["1", "1", "1", "2"]


class TestRunProfiles:
    def test_structure_and_front_construction(self, tmp_path):
        config = cli.parse_config(None, tiny_overrides(alpha=1.0), mode="profiles",
                                  output_dir=tmp_path)
        paths = cli.run_profiles(config)
        header, rows = read_csv(paths["profiles"])
        assert header == ["tau", "x", "u", "phase", "source"]
        sources = {row[4] for row in rows}
        assert sources == {"numeric", "exact"}

        fheader, frows = read_csv(paths["front"])
        assert fheader == ["tau", "S_numeric", "S_exact"]
        assert len(frows) == config.mesh.n
        # similarity front hits 1 exactly at the final level by construction
        assert float(frows[-1][2]) == 1.0
        assert abs(1.0 - float(frows[-1][1])) < config.eps

    def test_one_phase_reduction_emits_zero_solid(self, tmp_path):
        config = cli.parse_config(None, tiny_overrides(alpha=1.0, theta_inf=0.0),
                                  mode="profiles", output_dir=tmp_path)
        paths = cli.run_profiles(config)
        _, rows = read_csv(paths["profiles"])
        solid_numeric = [float(r[2]) for r in rows if r[3] == "2" and r[4] == "numeric"]
        assert solid_numeric and max(abs(v) for v in solid_numeric) == 0.0

    def test_series_gaps_emitted_empty(self, tmp_path):
        # far-field similarity arguments outside the validated series range
        # leave the exact solid cells empty rather than wrong
        config = cli.parse_config(
            None, tiny_overrides(alpha=0.95, n=16, m2=60, ratio=40.0),
            mode="profiles", output_dir=tmp_path)
        paths = cli.run_profiles(config)
        _, rows = read_csv(paths["profiles"])
        empty_exact = [r for r in rows if r[4] == "exact" and r[3] == "2" and r[2] == ""]
        filled_exact = [r for r in rows if r[4] == "exact" and r[2] != ""]
        assert empty_exact, "expected at least one series gap"
        assert filled_exact, "expected evaluable exact cells too"

    def test_profile_times_validated(self, tmp_path):
        config = cli.parse_config(None, tiny_overrides(alpha=1.0, profile_times=(1e9,)),
                                  mode="profiles", output_dir=tmp_path)
        with pytest.raises(errors.ValidationError, match="profile_times"):
            cli.run_profiles(config)


class TestRunConvergence:
    def test_errors_decrease_classical(self, tmp_path):
        config = cli.parse_config(None, tiny_overrides(alpha=1.0), mode="convergence",
                                  output_dir=tmp_path)
        path = cli.run_convergence(config, levels=2)
        header, rows = read_csv(path)
        assert [r[-1] for r in rows] == ["ok", "ok"]
        u1_errs = [float(r[header.index("u1_max_err")]) for r in rows]
        p_errs = [float(r[header.index("p_abs_err")]) for r in rows]
        assert u1_errs[1] <= u1_errs[0]
        assert p_errs[1] <= p_errs[0] + 1e-3

    def test_failed_level_recorded_and_scan_continues(self, tmp_path):
        # a tolerance the mesh cannot meet within the iteration budget:
        # every level records its failure and the scan still completes
        config = cli.parse_config(
            None, tiny_overrides(alpha=1.0, epsilon=1e-15, max_iter=2),
            mode="convergence", output_dir=tmp_path)
        path = cli.run_convergence(config, levels=2)
        _, rows = read_csv(path)
        assert [r[-1] for r in rows] == ["NonConvergence", "NonConvergence"]

    def test_unbracketable_exact_root_propagates(self, tmp_path):
        config = cli.parse_config(
            None, tiny_overrides(alpha=1.0, p_min=1.7, p_max=1.9),
            mode="convergence", output_dir=tmp_path)
        with pytest.raises(errors.NoSignChangeError):
            cli.run_convergence(config, levels=2)

    def test_rejects_single_level(self, tmp_path):
        config = cli.parse_config(None, tiny_overrides(alpha=1.0), mode="convergence",
                                  output_dir=tmp_path)
        with pytest.raises(errors.InvalidInputError):
            cli.run_convergence(config, levels=1)


class TestAdvanceCount:
    @pytest.mark.parametrize("mode", ["profiles", "convergence"])
    def test_each_candidate_advanced_once_per_phase(self, tmp_path, monkeypatch, mode):
        # the outputs read the search's converged grids; nothing is advanced again
        advanced = Counter()
        advance = fronttrack.advance_phase

        def counted(grid, *args, **kwargs):
            advanced[(grid.phase, grid.p, grid.mesh)] += 1
            return advance(grid, *args, **kwargs)

        candidates = Counter()
        solve = cli.bisection_solve

        def recorded(params, mesh, *args, **kwargs):
            result = solve(params, mesh, *args, **kwargs)
            for p, _ in result.history:
                for phase in (1, 2):
                    candidates[(phase, p, mesh)] += 1
            return result

        monkeypatch.setattr(fronttrack, "advance_phase", counted)
        monkeypatch.setattr(cli, "advance_phase", counted)
        monkeypatch.setattr(cli, "bisection_solve", recorded)
        config = cli.parse_config(None, tiny_overrides(alpha=1.0), mode=mode,
                                  output_dir=tmp_path)
        if mode == "profiles":
            cli.run_profiles(config)
        else:
            cli.run_convergence(config, levels=2)
        assert candidates
        assert advanced == candidates


class TestMain:
    def test_exact_command(self, capsys):
        assert cli.main(["exact", "--alpha", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "p_exact = 0.9397019994" in out

    def test_numeric_command(self, capsys):
        argv = ["numeric", "--alpha", "1.0", "--m1", "8", "--m2", "20", "--n", "12"]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert "converged = True" in out

    def test_validation_exit_code(self, capsys):
        assert cli.main(["exact", "--alpha", "1.5"]) == 2
        assert "alpha" in capsys.readouterr().err

    def test_solver_failure_exit_code(self, capsys):
        argv = ["numeric", "--alpha", "1.0", "--m1", "8", "--m2", "20", "--n", "12",
                "--p-min", "1.7", "--p-max", "1.9"]
        assert cli.main(argv) == 3
        assert "sign" in capsys.readouterr().err.lower()

    def test_tables_command_writes_files(self, tmp_path, capsys):
        argv = ["tables", "--m1", "8", "--m2", "20", "--n", "12",
                "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        assert (tmp_path / "table1.csv").exists()
        assert (tmp_path / "table3.csv").exists()
        assert (tmp_path / "run.txt").exists()

    def test_profile_times_flag(self, tmp_path):
        argv = ["profiles", "--alpha", "1.0", "--m1", "8", "--m2", "20", "--n", "12",
                "--profile-times", "0.4,0.9", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        _, rows = read_csv(tmp_path / "profiles.csv")
        taus = sorted({float(r[0]) for r in rows})
        assert len(taus) == 2

    @pytest.mark.parametrize("argv,key", [
        (["exact", "--theta-inf", "nan"], "theta_inf"),
        (["exact", "--kappa1", "inf"], "kappa1"),
        (["exact", "--lambda2", "inf"], "lambda2"),
        (["numeric", "--ratio", "inf"], "ratio"),
        (["numeric", "--p-max", "inf"], "p_max"),
        (["numeric", "--eps", "inf"], "epsilon"),
        (["exact", "--theta-inf", "-inf"], "theta_inf"),
    ])
    def test_non_finite_setting_exit_code(self, capsys, argv, key):
        assert cli.main(argv) == 2
        assert key in capsys.readouterr().err

    def test_non_finite_profile_time_rejected_before_solving(self, tmp_path, monkeypatch,
                                                             capsys):
        def never(*args, **kwargs):
            raise AssertionError("bisection_solve called")

        monkeypatch.setattr(cli, "bisection_solve", never)
        argv = ["profiles", *TINY_ARGV, "--profile-times", "inf", "--out", str(tmp_path)]
        assert cli.main(argv) == 2
        assert "profile_times" in capsys.readouterr().err

    def test_mesh_without_interior_node_rejected(self, tmp_path, capsys):
        argv = ["tables", "--m1", "1", "--m2", "10", "--n", "4", "--out", str(tmp_path)]
        assert cli.main(argv) == 2
        assert "m1" in capsys.readouterr().err
        assert not list(tmp_path.glob("table*.csv"))

    @pytest.mark.parametrize("flag, value", [("--p-max", "1e100"), ("--p-min", "1e-50")])
    def test_unrepresentable_time_step_exit_code(self, capsys, flag, value):
        argv = ["numeric", "--alpha", "0.25", "--m1", "8", "--m2", "20", "--n", "12",
                flag, value]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert f"candidate p={float(value):.8g}" in err and "time step" in err

    def test_unrepresentable_time_step_fills_table_cells(self, tmp_path):
        # the candidate p = 1e100 has no time step at alpha 0.25 and 0.5;
        # those cells read DegenerateInput and the sweep goes on
        argv = ["tables", "--m1", "8", "--m2", "20", "--n", "12", "--p-max", "1e100",
                "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        header, rows = read_csv(tmp_path / "table2.csv")
        assert header[4:6] == ["p_numeric[alpha=0.25]", "p_numeric[alpha=0.5]"]
        assert all(row[4:6] == ["DegenerateInput"] * 2 for row in rows)
        assert (tmp_path / "table3.csv").exists() and (tmp_path / "run.txt").exists()

    def test_empty_profile_times_flag_means_defaults(self, tmp_path):
        argv = ["profiles", *TINY_ARGV, "--profile-times", ",", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        _, rows = read_csv(tmp_path / "profiles.csv")
        assert len({r[0] for r in rows}) == 4
        assert "profile_times=" in (tmp_path / "run.txt").read_text().splitlines()

    @pytest.mark.parametrize("flag,token,plain", [
        ("--theta-inf", "-1e-3", "-0.001"), ("--theta-inf", "-2.5E-1", "-0.25"),
        ("--theta", "-1e-3", "-0.001"),
    ])
    def test_negative_exponent_flag_value(self, capsys, flag, token, plain):
        # argparse alone reads '-1e-3' as an option and exits 2
        assert cli.main(["exact", flag, token]) == 0
        attached = capsys.readouterr().out
        assert cli.main(["exact", f"--theta-inf={plain}"]) == 0
        assert attached == capsys.readouterr().out

    def test_negative_value_after_ambiguous_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["exact", "--p-m", "-1e-3"])
        assert excinfo.value.code == 2
        assert "ambiguous option" in capsys.readouterr().err

    def test_extra_rows_round_trip_through_run_txt(self, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        rows_cfg = tmp_path / "rows.cfg"
        rows_cfg.write_text("extra_rows = 2,1,1.5,1\n")
        argv = ["tables", "--m1", "8", "--m2", "20", "--n", "12"]
        assert cli.main([*argv, "--config", str(rows_cfg), "--out", str(first)]) == 0
        lines = (first / "run.txt").read_text().splitlines()
        assert lines[-1] == "extra_rows=2,1,1.5,1"
        config = tmp_path / "run.cfg"
        config.write_text("\n".join(line for line in lines
                                    if line.split("=")[0] not in ("version", "backend", "mode")))
        assert cli.main(["tables", "--config", str(config), "--out", str(second)]) == 0
        for name in ("run.txt", "table1.csv", "table2.csv", "table3.csv"):
            assert (second / name).read_bytes() == (first / name).read_bytes(), name
        _, table_rows = read_csv(second / "table2.csv")
        assert len(table_rows) == 4

    def test_run_txt_round_trips_as_config(self, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        assert cli.main(["profiles", *TINY_ARGV, "--out", str(first)]) == 0
        lines = (first / "run.txt").read_text().splitlines()
        config = tmp_path / "run.cfg"
        config.write_text("\n".join(line for line in lines
                                    if line.split("=")[0] not in ("version", "backend", "mode")))
        assert cli.main(["profiles", "--config", str(config), "--out", str(second)]) == 0
        for name in ("run.txt", "profiles.csv", "front.csv"):
            assert (second / name).read_bytes() == (first / name).read_bytes(), name

    @pytest.mark.parametrize("key", list(cli._SETTINGS))
    def test_every_setting_has_a_flag(self, tmp_path, key):
        flag = "--eps" if key == "epsilon" else "--" + key.replace("_", "-")
        argv = ["profiles", *TINY_ARGV, flag, FLAG_VALUES[key], "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        lines = (tmp_path / "run.txt").read_text().splitlines()
        assert f"{key}={FLAG_VALUES[key]}" in lines
