"""Config parsing, CSV emission, and command-line behavior."""

import contextlib
import csv
import io
import tempfile
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracstefan import analytic, cli, errors, fronttrack, scheme

TINY = {"m1": 8, "m2": 20, "n": 12}
TINY_ARGV = ["--alpha", "1.0", "--m1", "8", "--m2", "20", "--n", "12"]

#: A valid, non-default flag value for each setting, echoed unchanged in run.txt.
FLAG_VALUES = {
    "alpha": "0.75", "lambda1": "1.5", "lambda2": "2", "kappa1": "2", "kappa2": "1.5",
    "theta_inf": "-0.25", "ratio": "12", "m1": "9", "m2": "21", "n": "13",
    "p_min": "0.2", "p_max": "1.9", "epsilon": "0.002", "max_iter": "50",
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


def count_advances(monkeypatch, key):
    """Count, by key(grid), every grid the front search advances, alone or as a pair."""
    advanced = Counter()
    advance, advance_pair = fronttrack.advance_phase, fronttrack.advance_pair

    def counted(grid, *args, **kwargs):
        advanced[key(grid)] += 1
        return advance(grid, *args, **kwargs)

    def counted_pair(liquid, solid):
        advanced[key(liquid)] += 1
        advanced[key(solid)] += 1
        return advance_pair(liquid, solid)

    monkeypatch.setattr(fronttrack, "advance_phase", counted)
    monkeypatch.setattr(fronttrack, "advance_pair", counted_pair)
    monkeypatch.setattr(cli, "advance_phase", counted)
    return advanced


class TestAdvanceCount:
    @pytest.mark.parametrize("mode", ["profiles", "convergence"])
    def test_each_candidate_advanced_once_per_phase(self, tmp_path, monkeypatch, mode):
        # the outputs read the search's converged grids; nothing is advanced again
        advanced = count_advances(monkeypatch, lambda grid: (grid.phase, grid.p, grid.mesh))
        candidates = Counter()
        solve = cli.bisection_solve

        def recorded(params, mesh, *args, **kwargs):
            result = solve(params, mesh, *args, **kwargs)
            for p, _ in result.history:
                for phase in (1, 2):
                    candidates[(phase, p, mesh)] += 1
            return result

        monkeypatch.setattr(cli, "bisection_solve", recorded)
        config = cli.parse_config(None, tiny_overrides(alpha=1.0), mode=mode,
                                  output_dir=tmp_path)
        if mode == "profiles":
            cli.run_profiles(config)
        else:
            cli.run_convergence(config, levels=2)
        assert candidates
        assert advanced == candidates


    def test_tables_advance_each_phase_grid_once(self, tmp_path, monkeypatch):
        # the cells share their phase solves, and each still reads the p, S
        # and history of a search of that cell alone
        advanced = count_advances(monkeypatch, lambda grid: scheme.phase_key(
            grid.phase, grid.p, grid.mesh, grid.params))
        searches = []
        solve = cli.bisection_solve

        def recorded(params, mesh, *args, **kwargs):
            result = solve(params, mesh, *args, **kwargs)
            searches.append((params, mesh, args, result))
            return result

        monkeypatch.setattr(cli, "bisection_solve", recorded)
        config = cli.parse_config(None, tiny_overrides(), mode="tables", output_dir=tmp_path)
        cli.run_tables(config)
        monkeypatch.undo()
        assert len(searches) == len(cli.TABLE_ROWS) * len(cli.TABLE_ALPHAS)
        assert set(advanced.values()) == {1}
        candidates = sum(len(result.history) for *_, result in searches)
        assert sum(advanced.values()) < 2 * candidates
        for params, mesh, args, result in searches:
            alone = fronttrack.bisection_solve(params, mesh, *args)
            assert (result.p, result.s_final, result.history) == \
                (alone.p, alone.s_final, alone.history)


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

    def test_overflowing_far_field_exit_code(self, capsys):
        argv = ["numeric", "--alpha", "0.5", "--theta-inf=-1.7e308", "--m1", "10", "--m2", "40",
                "--n", "20"]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert "non-finite values" in err and "Warning" not in err

    def test_tables_command_writes_files(self, tmp_path, capsys):
        argv = ["tables", "--m1", "8", "--m2", "20", "--n", "12",
                "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        assert (tmp_path / "table1.csv").exists()
        assert (tmp_path / "table3.csv").exists()
        assert (tmp_path / "run.txt").exists()

    @pytest.mark.parametrize("command", ["tables", "profiles", "convergence"])
    def test_unusable_out_exit_code(self, tmp_path, capsys, command):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert cli.main([command, *TINY_ARGV, "--out", str(taken)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(taken) in err and "Traceback" not in err

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

    # at p = 1e-300 even p*p underflows: the candidate's keys and grid fail as one
    @pytest.mark.parametrize("flag, value", [("--p-max", "1e100"), ("--p-min", "1e-50"),
                                             ("--p-min", "1e-300")])
    def test_unrepresentable_time_step_exit_code(self, capsys, flag, value):
        argv = ["numeric", "--alpha", "0.25", "--m1", "8", "--m2", "20", "--n", "12",
                flag, value]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert f"candidate p={float(value):.8g}" in err and "time step" in err

    def test_overflowing_final_time_exit_code(self, capsys):
        # the root is found (p ~ 0.63), and p**(-2/alpha) overflows a double
        assert cli.main(["exact", "--alpha", "0.001"]) == 3
        err = capsys.readouterr().err
        assert "final time" in err and "alpha=0.001" in err

    def test_overflowing_final_time_fills_table_cells(self, tmp_path, monkeypatch):
        # a search converged at p = 1e-60 has the final time 1e480 at alpha 0.25
        # alone: that cell pair reads DegenerateInput, and every row keeps its width
        def converged(*args, **kwargs):
            return fronttrack.FrontSolveResult(1e-60, 1.0, 0.0, 0, [], True, None)

        monkeypatch.setattr(cli, "bisection_solve", converged)
        config = cli.parse_config(None, tiny_overrides(), mode="tables", output_dir=tmp_path)
        cli.run_tables(config)
        _, rows2 = read_csv(tmp_path / "table2.csv")
        _, rows3 = read_csv(tmp_path / "table3.csv")
        for row2, row3 in zip(rows2, rows3):
            assert row2[4:] == ["DegenerateInput", "1e-60", "1e-60", "1e-60"]
            assert row3[4:] == ["DegenerateInput", "1e+240", "1e+160", "1e+120"]

    def test_overflowing_balance_exit_code(self, capsys):
        # the solid's term times lambda2/p**2 overflows: a typed error, no warning
        argv = ["numeric", "--alpha", "0.5", "--lambda2", "1.38309e+160",
                "--theta-inf=-6.24972e+233", "--m1", "6", "--m2", "8", "--n", "1"]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert "candidate p=" in err and "is not finite" in err

    @pytest.mark.parametrize("argv", [
        ["--ratio", "1e160"],  # the solid's squared width overflows
        ["--alpha", "0.0089", "--p-min", "0.0422", "--n", "5"],  # n * dtau overflows
    ])
    def test_overflowing_grid_exit_code(self, capsys, argv):
        assert cli.main(["numeric", "--m1", "4", "--m2", "7", *argv]) == 3
        assert "candidate p=" in capsys.readouterr().err

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

    def test_failed_phase_solves_are_not_shared(self, tmp_path, caplog):
        # p = 1e-40 has no time step at alpha = 0.25, and rows 0 and 1 share
        # that liquid grid: each cell reports its own failure, and every cell
        # reads what a search of that cell alone gives
        argv = ["tables", "--m1", "6", "--m2", "18", "--n", "12", "--p-min", "1e-40",
                "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        failures = [record.getMessage() for record in caplog.records
                    if record.getMessage().startswith("numeric cell")]
        config = cli.parse_config(None, {"m1": 6, "m2": 18, "n": 12, "p_min": 1e-40},
                                  mode="tables")
        _, rows2 = read_csv(tmp_path / "table2.csv")
        _, rows3 = read_csv(tmp_path / "table3.csv")
        expected_failures = []
        for row, row2, row3 in zip(cli.TABLE_ROWS, rows2, rows3):
            l1, l2, k1, k2 = row
            for ci, alpha in enumerate(cli.TABLE_ALPHAS):
                params = replace(config.params, alpha=alpha, lambda1=l1, lambda2=l2,
                                 kappa1=k1, kappa2=k2)
                try:
                    result = fronttrack.bisection_solve(params, config.mesh, config.bracket,
                                                        config.eps, config.max_iter)
                except errors.FracStefanError as exc:
                    expected = [cli._error_token(exc)] * 2
                    expected_failures.append(
                        f"numeric cell ({row}, alpha={alpha}) failed: {exc}")
                else:
                    assert result.converged
                    expected = [cli._fmt(result.p),
                                cli._fmt(analytic.final_time(result.p, alpha))]
                assert [row2[4 + ci], row3[4 + ci]] == expected
        assert [row2[4] for row2 in rows2] == ["DegenerateInput"] * 3
        assert len(expected_failures) == 3
        assert failures == expected_failures

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

    def test_malformed_profile_times_flag_exit_code(self, capsys):
        # parsed by argparse like every other flag: usage, then the flag's error
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["profiles", "--profile-times", "a,b"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "argument --profile-times: invalid float_list value: 'a,b'" in err

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


def log_uniform(lo, hi):
    """10**e, with e drawn from [lo, hi] or, for the extremes, from [-300, 300]."""
    return st.one_of(st.floats(lo, hi), st.floats(-300.0, 300.0)).map(lambda e: 10.0 ** e)


class TestEveryInputEndsInAnExitCode:
    @settings(max_examples=120, deadline=1000, derandomize=True)
    @given(mode=st.sampled_from(["exact", "numeric", "profiles", "convergence"]),
           alpha=st.floats(-3.0, 0.0).map(lambda e: 10.0 ** e),
           positive=st.tuples(*[log_uniform(-2.0, 2.0)] * 4), theta_inf=log_uniform(-2.0, 2.0),
           p_min=log_uniform(-2.0, 0.0), p_max=log_uniform(-2.0, 2.0),
           ratio=log_uniform(-3.0, 3.0), mesh=st.tuples(st.integers(2, 6), st.integers(2, 8),
                                                        st.integers(1, 8)))
    def test_tiny_mesh_runs_exit_0_2_or_3(self, mode, alpha, positive, theta_inf, p_min, p_max,
                                          ratio, mesh):
        # an exception or a warning that escapes main fails the draw
        argv = [mode, f"--alpha={alpha!r}", f"--theta-inf={-theta_inf!r}",
                f"--p-min={p_min!r}", f"--p-max={p_max!r}", f"--ratio={1.0 + ratio!r}"]
        argv += [f"--{key}={value!r}"
                 for key, value in zip(("kappa1", "kappa2", "lambda1", "lambda2"), positive)]
        argv += [f"--{key}={value}" for key, value in zip(("m1", "m2", "n"), mesh)]
        if mode == "convergence":
            argv.append("--levels=2")
        with tempfile.TemporaryDirectory() as out, warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([*argv, "--out", out])
        assert code in (0, 2, 3)
