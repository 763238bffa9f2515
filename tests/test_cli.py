import csv
import json
import math
import subprocess
import sys

import pytest

from contesteq import cli

EXAMPLE1_COSTS = [i / (i + 1) for i in range(1, 11)]
GEOMETRIC_COSTS = [1 - 2.0**-i for i in range(1, 11)]
DETERRENCE = {"alpha": 2.0, "costs": [math.sqrt(0.5), 1.0, 1.0, 1.0]}


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def scenario_harmonic(tmp_path):
    return write_json(tmp_path / "harmonic.json",
                      {"alpha": 1.0, "costs": EXAMPLE1_COSTS})


@pytest.fixture
def scenario_deterrence(tmp_path):
    return write_json(tmp_path / "deterrence.json", DETERRENCE)


class TestScenarioParsing:
    def test_unknown_field_is_a_parse_error(self, tmp_path):
        path = write_json(tmp_path / "s.json",
                          {"costs": [1, 1], "difficulty": 3})
        assert cli.main(["solve", "--scenario", path]) == cli.EXIT_PARSE

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text("{not json")
        assert cli.main(["solve", "--scenario", str(path)]) == cli.EXIT_PARSE

    def test_missing_file(self, tmp_path):
        assert cli.main(
            ["solve", "--scenario", str(tmp_path / "absent.json")]
        ) == cli.EXIT_PARSE

    def test_invalid_spec_values(self, tmp_path):
        path = write_json(tmp_path / "s.json", {"costs": [1.0, -1.0]})
        assert cli.main(["solve", "--scenario", path]) == cli.EXIT_INVALID_SPEC

    def test_single_miner_rejected(self, tmp_path):
        path = write_json(tmp_path / "s.json", {"costs": [1.0]})
        assert cli.main(["solve", "--scenario", path]) == cli.EXIT_INVALID_SPEC

    def test_label_mismatch(self, tmp_path):
        path = write_json(tmp_path / "s.json",
                          {"costs": [1, 1], "labels": ["a"]})
        assert cli.main(["solve", "--scenario", path]) == cli.EXIT_PARSE

    def assert_parse_error(self, tmp_path, capsys, scenario, name):
        path = write_json(tmp_path / "s.json", scenario)
        assert cli.main(["solve", "--scenario", path]) == cli.EXIT_PARSE
        assert f"'{name}'" in capsys.readouterr().err

    def test_boolean_cost(self, tmp_path, capsys):
        self.assert_parse_error(tmp_path, capsys, {"costs": [True, 2, 3]},
                                "costs")

    def test_boolean_alpha(self, tmp_path, capsys):
        self.assert_parse_error(tmp_path, capsys,
                                {"costs": [1, 2, 3], "alpha": True}, "alpha")

    def test_cost_beyond_the_float_range(self, tmp_path, capsys):
        self.assert_parse_error(tmp_path, capsys, {"costs": [10**400, 2]},
                                "costs")

    def test_missing_costs(self, tmp_path, capsys):
        self.assert_parse_error(tmp_path, capsys, {"alpha": 1.5}, "costs")

    def test_non_string_labels(self, tmp_path, capsys):
        self.assert_parse_error(tmp_path, capsys,
                                {"costs": [1, 2], "labels": ["a", 2]},
                                "labels")

    def test_scenario_that_is_an_array(self, tmp_path, capsys):
        path = write_json(tmp_path / "s.json", [1, 2, 3])
        assert cli.main(["solve", "--scenario", path]) == cli.EXIT_PARSE
        assert "JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "-1"])
    def test_bad_tolerance_env(self, scenario_harmonic, monkeypatch, capsys,
                               value):
        monkeypatch.setenv("CONTEST_EQ_TOL", value)
        assert cli.main(["solve", "--scenario",
                         scenario_harmonic]) == cli.EXIT_PARSE
        assert "CONTEST_EQ_TOL" in capsys.readouterr().err


class TestSolve:
    def test_harmonic_costs_document(self, scenario_harmonic, tmp_path):
        out = tmp_path / "result.json"
        code = cli.main(["solve", "--scenario", scenario_harmonic,
                         "--out", str(out)])
        assert code == cli.EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["model"] == "proportional"
        block = doc["equilibria"][0]
        assert doc["concentration"]["participant_count"] == 7
        assert block["c_star"] == pytest.approx(0.8803571, abs=1e-6)
        assert len(block["participants"]) == 7

    def test_geometric_costs_all_participate(self, tmp_path):
        path = write_json(tmp_path / "geo.json",
                          {"alpha": 1.0, "costs": GEOMETRIC_COSTS})
        out = tmp_path / "result.json"
        assert cli.main(["solve", "--scenario", path, "--out", str(out)]) == 0
        block = json.loads(out.read_text())["equilibria"][0]
        for i, share in enumerate(block["shares"], start=1):
            assert share >= 2.0**-i - 1e-12

    def test_deterrence_equilibria(self, scenario_deterrence, tmp_path):
        out = tmp_path / "result.json"
        code = cli.main(["solve", "--scenario", scenario_deterrence,
                         "--out", str(out)])
        assert code == cli.EXIT_OK
        doc = json.loads(out.read_text())
        assert len(doc["equilibria"]) == 3
        for block in doc["equilibria"]:
            assert "m1" not in block["participants"]
            assert block["investments"][0] == 0.0
            assert block["certificate"]["certified"]

    def test_closed_form_carries_the_certificate_verify_finds(
            self, scenario_harmonic, tmp_path):
        result, check = tmp_path / "r.json", tmp_path / "c.json"
        assert cli.main(["solve", "--scenario", scenario_harmonic,
                         "--out", str(result)]) == cli.EXIT_OK
        block = json.loads(result.read_text())["equilibria"][0]
        cli.main(["verify", "--scenario", scenario_harmonic,
                  "--profile", str(result), "--out", str(check)])
        found = json.loads(check.read_text())["certificate"]
        assert block["certificate"] == {
            key: found[key] for key in ("certified", "tolerance",
                                        "worst_slack")}
        assert block["marginal"] == [
            m["label"] for m in found["miners"] if m["marginal"]]
        assert block["utilities"] == [m["utility"] for m in found["miners"]]

    def test_closed_form_failing_its_certificate_exits_five(self, tmp_path):
        # c* = 1 leaves one participant, who faces zero opposition
        path = write_json(tmp_path / "s.json", {"costs": [1e-300, 1.0, 1e300]})
        out = tmp_path / "r.json"
        code = cli.main(["solve", "--scenario", path, "--out", str(out)])
        assert code == cli.EXIT_NOT_CERTIFIED
        block = json.loads(out.read_text())["equilibria"][0]
        assert block["participants"] == ["m1"]
        assert block["certificate"]["certified"] is False

    def test_tolerance_env_reaches_the_closed_form(self, scenario_harmonic,
                                                  tmp_path, monkeypatch):
        monkeypatch.setenv("CONTEST_EQ_TOL", "1e-6")
        out = tmp_path / "r.json"
        cli.main(["solve", "--scenario", scenario_harmonic, "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["equilibria"][0]["certificate"]["tolerance"] == 1e-6
        assert doc["diagnostics"]["tolerance"] == 1e-6

    def test_alpha_above_two_exits_four(self, tmp_path):
        path = write_json(tmp_path / "hot.json",
                          {"alpha": 2.5, "costs": [1, 1, 1]})
        out = tmp_path / "result.json"
        code = cli.main(["solve", "--scenario", path, "--out", str(out)])
        assert code == cli.EXIT_NO_EQUILIBRIUM
        doc = json.loads(out.read_text())
        assert doc["equilibria"] == []

    def test_documents_are_byte_identical(self, scenario_harmonic, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        cli.main(["solve", "--scenario", scenario_harmonic, "--out", str(a)])
        cli.main(["solve", "--scenario", scenario_harmonic, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_document_round_trips_through_json(self, scenario_harmonic,
                                               tmp_path):
        out = tmp_path / "r.json"
        cli.main(["solve", "--scenario", scenario_harmonic, "--out", str(out)])
        doc = json.loads(out.read_text())
        assert json.loads(json.dumps(doc)) == doc


    def test_document_keys(self, scenario_harmonic, scenario_deterrence,
                           tmp_path):
        # a field added to a library record must not change a document
        summary = ["certified", "tolerance", "worst_slack"]
        concentration = ["participant_count", "hhi", "top_k_shares",
                         "rent_dissipation"]
        head = ["participants", "investments", "shares", "utilities"]
        tail = ["marginal", "certificate", "concentration"]
        for scenario, fields in ((scenario_harmonic,
                                  ["c_star", "total_investment"]),
                                 (scenario_deterrence, ["power_scale"])):
            result = tmp_path / "r.json"
            cli.main(["solve", "--scenario", scenario, "--out", str(result)])
            doc = json.loads(result.read_text())
            block = doc["equilibria"][0]
            assert list(block) == head + fields + tail
            assert list(block["certificate"]) == summary
            assert list(block["concentration"]) == concentration
            assert list(doc["concentration"]) == concentration
        check = tmp_path / "c.json"
        cli.main(["verify", "--scenario", scenario_deterrence,
                  "--profile", str(result), "--out", str(check)])
        certificate = json.loads(check.read_text())["certificate"]
        assert list(certificate) == summary + ["miners"]
        assert list(certificate["miners"][0]) == [
            "label", "investment", "utility", "best_utility", "slack",
            "best_responses", "marginal", "note"]


class TestVerify:
    def test_solve_output_certifies(self, scenario_harmonic, tmp_path):
        result = tmp_path / "r.json"
        cli.main(["solve", "--scenario", scenario_harmonic,
                  "--out", str(result)])
        cert = tmp_path / "cert.json"
        code = cli.main(["verify", "--scenario", scenario_harmonic,
                         "--profile", str(result), "--out", str(cert)])
        assert code == cli.EXIT_OK
        assert json.loads(cert.read_text())["verdict"] == "certified"

    def test_eos_solve_output_certifies(self, scenario_deterrence, tmp_path):
        result = tmp_path / "r.json"
        cli.main(["solve", "--scenario", scenario_deterrence,
                  "--out", str(result)])
        code = cli.main(["verify", "--scenario", scenario_deterrence,
                         "--profile", str(result)])
        assert code == cli.EXIT_OK

    def test_uniform_profile_rejected_with_evidence(self, tmp_path):
        scenario = write_json(tmp_path / "s.json", {"costs": [1.0, 1.0]})
        profile = write_json(tmp_path / "p.json", {"investments": [1.0, 1.0]})
        cert = tmp_path / "cert.json"
        code = cli.main(["verify", "--scenario", scenario,
                         "--profile", profile, "--out", str(cert)])
        assert code == cli.EXIT_NOT_CERTIFIED
        doc = json.loads(cert.read_text())
        assert doc["verdict"] == "rejected"
        for miner in doc["certificate"]["miners"]:
            assert miner["slack"] < 0  # each would gain by deviating

    def test_deterrence_profile_marks_marginal_miner(
        self, scenario_deterrence, tmp_path
    ):
        profile = write_json(tmp_path / "p.json", [0.0, 0.5, 0.5, 0.0])
        cert = tmp_path / "cert.json"
        code = cli.main(["verify", "--scenario", scenario_deterrence,
                         "--profile", profile, "--out", str(cert)])
        assert code == cli.EXIT_OK
        doc = json.loads(cert.read_text())
        first = doc["certificate"]["miners"][0]
        assert first["label"] == "m1" and first["marginal"]

    def test_tolerance_in_caller_units_at_prize_1e8(self, tmp_path):
        k = 1e8
        scenario = write_json(tmp_path / "s.json", {
            "alpha": 2.0, "prize": k,
            "costs": [k * c for c in DETERRENCE["costs"]]})
        solved = tmp_path / "solved.json"
        assert cli.main(["solve", "--scenario", scenario,
                         "--out", str(solved)]) == cli.EXIT_OK
        block = json.loads(solved.read_text())["equilibria"][0]
        assert block["certificate"]["tolerance"] == 1e-9 * k
        cert = tmp_path / "cert.json"
        assert cli.main(["verify", "--scenario", scenario,
                         "--profile", str(solved),
                         "--out", str(cert)]) == cli.EXIT_OK
        doc = json.loads(cert.read_text())["certificate"]
        assert doc["certified"]
        assert doc["tolerance"] == 1e-9 * k
        assert doc["worst_slack"] >= -doc["tolerance"]

    def test_dimension_mismatch(self, scenario_harmonic, tmp_path):
        profile = write_json(tmp_path / "p.json", [0.1, 0.2])
        assert cli.main(
            ["verify", "--scenario", scenario_harmonic,
             "--profile", profile]
        ) == cli.EXIT_PARSE

    def test_boolean_investment(self, tmp_path, capsys):
        scenario = write_json(tmp_path / "s.json", {"costs": [1, 2, 3]})
        profile = write_json(tmp_path / "p.json", [True, 0.5, 0])
        assert cli.main(
            ["verify", "--scenario", scenario, "--profile", profile]
        ) == cli.EXIT_PARSE
        assert "investments" in capsys.readouterr().err

    @pytest.mark.parametrize("document, message", [
        ({"equilibria": []}, "no equilibria"),
        ({"profile": [0.5, 0.5]}, "'investments'"),
    ])
    def test_profile_document_without_investments(
            self, scenario_harmonic, tmp_path, capsys, document, message):
        profile = write_json(tmp_path / "p.json", document)
        assert cli.main(
            ["verify", "--scenario", scenario_harmonic, "--profile", profile]
        ) == cli.EXIT_PARSE
        assert message in capsys.readouterr().err

    def test_tolerance_env_override(self, tmp_path, monkeypatch):
        scenario = write_json(tmp_path / "s.json", {"costs": [1.0, 1.0]})
        profile = write_json(tmp_path / "p.json", [0.2, 0.2])
        assert cli.main(["verify", "--scenario", scenario,
                         "--profile", profile]) == cli.EXIT_NOT_CERTIFIED
        monkeypatch.setenv("CONTEST_EQ_TOL", "1.0")
        assert cli.main(["verify", "--scenario", scenario,
                         "--profile", profile]) == cli.EXIT_OK


def read_csv(path):
    with open(path, newline="") as f:
        return [row for row in csv.reader(f) if not row[0].startswith("#")]


class TestSweep:
    def test_alpha_sweep_respects_caps(self, tmp_path):
        scenario = write_json(tmp_path / "s.json", {"costs": [1.0] * 6})
        out = tmp_path / "sweep.csv"
        code = cli.main(["sweep", "--scenario", scenario, "--param", "alpha",
                         "--grid", "1.05:1.1:2", "--out", str(out)])
        assert code == cli.EXIT_OK
        rows = read_csv(out)
        assert rows[0] == cli.SWEEP_COLUMNS
        by_value = {row[1]: row for row in rows[1:]}
        assert int(by_value["1.05"][3]) <= 21
        assert int(by_value["1.1"][3]) <= 11

    def test_cost_scale_leaves_hhi_unchanged(self, scenario_harmonic,
                                             tmp_path):
        out = tmp_path / "sweep.csv"
        cli.main(["sweep", "--scenario", scenario_harmonic,
                  "--param", "cost_scale", "--grid", "0.5:4.0:5",
                  "--out", str(out)])
        rows = read_csv(out)[1:]
        hhi = {row[4] for row in rows}
        assert len(hhi) == 1

    def test_out_of_range_alpha_is_clipped(self, tmp_path):
        scenario = write_json(tmp_path / "s.json", {"costs": [1.0, 1.0]})
        out = tmp_path / "sweep.csv"
        cli.main(["sweep", "--scenario", scenario, "--param", "alpha",
                  "--grid", "0.5:2.5:3", "--out", str(out)])
        rows = read_csv(out)[1:]
        assert rows[0][1:3] == ["1", "clipped"]
        assert rows[-1][1:3] == ["2", "clipped"]

    def test_uncertified_closed_form_is_no_equilibrium(self, tmp_path):
        scenario = write_json(tmp_path / "s.json",
                              {"costs": [1e-300, 1.0, 1e300]})
        out = tmp_path / "sweep.csv"
        cli.main(["sweep", "--scenario", scenario, "--param", "prize",
                  "--grid", "1:2:2", "--out", str(out)])
        assert [row[2] for row in read_csv(out)[1:]] == ["no_equilibrium"] * 2

    def test_bad_grid_is_parse_error(self, scenario_harmonic, tmp_path):
        assert cli.main(
            ["sweep", "--scenario", scenario_harmonic, "--param", "alpha",
             "--grid", "nope", "--out", str(tmp_path / "x.csv")]
        ) == cli.EXIT_PARSE

    @pytest.mark.parametrize("grid", ["1:2:x", "2:1:3"])
    def test_bad_grid_values_are_parse_errors(self, scenario_harmonic,
                                              tmp_path, grid):
        assert cli.main(
            ["sweep", "--scenario", scenario_harmonic, "--param", "alpha",
             "--grid", grid, "--out", str(tmp_path / "x.csv")]
        ) == cli.EXIT_PARSE

    @staticmethod
    def statuses(tmp_path, scenario, param, grid):
        """(value, status) of every row of a sweep that must exit 0."""
        path = write_json(tmp_path / "s.json", scenario)
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--scenario", path, "--param", param,
                         f"--grid={grid}", "--out", str(out)]) == cli.EXIT_OK
        return [tuple(row[1:3]) for row in read_csv(out)[1:]]

    def test_zero_prize_is_invalid(self, tmp_path):
        rows = self.statuses(tmp_path, {"costs": EXAMPLE1_COSTS}, "prize",
                             "0:1:3")
        assert rows == [("0", "invalid"), ("0.5", "ok"), ("1", "ok")]

    def test_costs_beyond_the_float_range_are_invalid(self, tmp_path):
        rows = self.statuses(tmp_path, {"costs": [1e10, 2e10, 3e10]},
                             "cost_scale", "1:1e300:3")
        assert rows == [("1", "ok"), ("5e+299", "invalid"),
                        ("1e+300", "invalid")]

    def test_unit_costs_beyond_the_float_range_are_invalid(self, tmp_path):
        rows = self.statuses(tmp_path, {"costs": [1e10, 2e10, 3e10]},
                             "prize", "1e-300:1:2")
        assert rows == [("1e-300", "invalid"), ("1", "ok")]

    def test_threshold_beyond_the_float_range_is_invalid(self, tmp_path):
        rows = self.statuses(
            tmp_path, {"costs": [1e-310, 1.1e-310, 5e-310], "alpha": 1.5},
            "alpha", "1:1.5:2")
        assert rows[0] == ("1", "invalid")


class TestDynamics:
    def test_trajectory_matches_solver(self, scenario_harmonic, tmp_path):
        config = write_json(tmp_path / "cfg.json",
                            {"initial": [0.5] * 10, "max_rounds": 10000})
        out = tmp_path / "traj.csv"
        code = cli.main(["dynamics", "--scenario", scenario_harmonic,
                         "--config", str(config), "--out", str(out)])
        assert code == cli.EXIT_OK
        rows = read_csv(out)
        final_round = rows[-10:]
        result = tmp_path / "r.json"
        cli.main(["solve", "--scenario", scenario_harmonic,
                  "--out", str(result)])
        solved = json.loads(result.read_text())["equilibria"][0]["investments"]
        for row, q in zip(final_round, solved):
            assert float(row[2]) == pytest.approx(q, abs=1e-8)

    def test_single_round_emits_n_rows(self, scenario_harmonic, tmp_path):
        config = write_json(tmp_path / "cfg.json",
                            {"initial": [0.5] * 10, "max_rounds": 1})
        out = tmp_path / "traj.csv"
        cli.main(["dynamics", "--scenario", scenario_harmonic,
                  "--config", str(config), "--out", str(out)])
        assert len(read_csv(out)) == 1 + 10  # header + one round

    def test_cycle_status_in_footer(self, tmp_path):
        scenario = write_json(tmp_path / "s.json",
                              {"alpha": 2.0, "costs": [1.0, 1.0, 1.0]})
        config = write_json(tmp_path / "cfg.json",
                            {"initial": [1.0, 1.0, 1.0]})
        out = tmp_path / "traj.csv"
        assert cli.main(["dynamics", "--scenario", scenario,
                         "--config", str(config), "--out", str(out)]) == 0
        assert "# status=cycle_detected" in out.read_text()

    def test_random_initial_is_seeded(self, scenario_harmonic, tmp_path):
        config = write_json(tmp_path / "cfg.json", {"initial": "random"})
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            cli.main(["dynamics", "--scenario", scenario_harmonic,
                      "--config", str(config), "--out", str(out),
                      "--seed", "9"])
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_config_field(self, scenario_harmonic, tmp_path):
        config = write_json(tmp_path / "cfg.json", {"temperature": 1.0})
        assert cli.main(
            ["dynamics", "--scenario", scenario_harmonic,
             "--config", str(config), "--out", str(tmp_path / "t.csv")]
        ) == cli.EXIT_PARSE


class TestDynamicsConfigFields:
    """Each malformed config field exits 2 with a message naming it; these
    once ended in a traceback or were silently coerced."""

    @staticmethod
    def run(scenario, tmp_path, fields):
        config = tmp_path / "cfg.json"
        config.write_text('{"initial": [0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, '
                          '0.5, 0.5, 0.5], ' + fields + "}")
        return cli.main(["dynamics", "--scenario", scenario, "--config",
                         str(config), "--out", str(tmp_path / "t.csv")])

    def assert_parse_error(self, scenario, tmp_path, capsys, fields, name):
        assert self.run(scenario, tmp_path, fields) == cli.EXIT_PARSE
        assert f"'{name}'" in capsys.readouterr().err

    def test_max_rounds_beyond_the_float_range(self, scenario_harmonic,
                                               tmp_path, capsys):
        self.assert_parse_error(scenario_harmonic, tmp_path, capsys,
                                '"max_rounds": 1e400', "max_rounds")

    def test_null_max_rounds(self, scenario_harmonic, tmp_path, capsys):
        self.assert_parse_error(scenario_harmonic, tmp_path, capsys,
                                '"max_rounds": null', "max_rounds")

    def test_fractional_max_rounds(self, scenario_harmonic, tmp_path, capsys):
        self.assert_parse_error(scenario_harmonic, tmp_path, capsys,
                                '"max_rounds": 2.7', "max_rounds")

    def test_boolean_max_rounds(self, scenario_harmonic, tmp_path, capsys):
        self.assert_parse_error(scenario_harmonic, tmp_path, capsys,
                                '"max_rounds": true', "max_rounds")

    def test_string_max_rounds(self, scenario_harmonic, tmp_path, capsys):
        self.assert_parse_error(scenario_harmonic, tmp_path, capsys,
                                '"max_rounds": "5"', "max_rounds")

    def test_string_convergence_tol(self, scenario_harmonic, tmp_path,
                                    capsys):
        self.assert_parse_error(scenario_harmonic, tmp_path, capsys,
                                '"convergence_tol": "1e-3"',
                                "convergence_tol")

    def test_boolean_in_initial(self, scenario_harmonic, tmp_path, capsys):
        config = write_json(tmp_path / "cfg.json",
                            {"initial": [0.5] * 9 + [True]})
        assert cli.main(["dynamics", "--scenario", scenario_harmonic,
                         "--config", str(config), "--out",
                         str(tmp_path / "t.csv")]) == cli.EXIT_PARSE
        assert "'initial'" in capsys.readouterr().err

    def test_initial_beyond_the_float_range(self, scenario_harmonic,
                                            tmp_path, capsys):
        config = write_json(tmp_path / "cfg.json",
                            {"initial": [0.5] * 9 + [10**400]})
        assert cli.main(["dynamics", "--scenario", scenario_harmonic,
                         "--config", config, "--out",
                         str(tmp_path / "t.csv")]) == cli.EXIT_PARSE
        assert "'initial'" in capsys.readouterr().err

    def test_convergence_tol_beyond_the_float_range(
            self, scenario_harmonic, tmp_path, capsys):
        self.assert_parse_error(scenario_harmonic, tmp_path, capsys,
                                f'"convergence_tol": {10**400}',
                                "convergence_tol")

    def test_config_that_is_an_array(self, scenario_harmonic, tmp_path,
                                     capsys):
        config = write_json(tmp_path / "cfg.json", [0.5] * 10)
        assert cli.main(["dynamics", "--scenario", scenario_harmonic,
                         "--config", config, "--out",
                         str(tmp_path / "t.csv")]) == cli.EXIT_PARSE
        assert "JSON object" in capsys.readouterr().err

    def test_initial_of_the_wrong_length(self, scenario_harmonic, tmp_path,
                                         capsys):
        config = write_json(tmp_path / "cfg.json", {"initial": [0.5] * 9})
        assert cli.main(["dynamics", "--scenario", scenario_harmonic,
                         "--config", config, "--out",
                         str(tmp_path / "t.csv")]) == cli.EXIT_PARSE
        assert "'initial'" in capsys.readouterr().err

    def test_integral_float_max_rounds_is_accepted(self, scenario_harmonic,
                                                   tmp_path):
        assert self.run(scenario_harmonic, tmp_path,
                        '"max_rounds": 1e4') == cli.EXIT_OK


class TestBestResponse:
    def test_oracle_cross_check_agrees(self, scenario_harmonic, tmp_path):
        result = tmp_path / "r.json"
        cli.main(["solve", "--scenario", scenario_harmonic,
                  "--out", str(result)])
        out = tmp_path / "br.json"
        code = cli.main(["best-response", "--scenario", scenario_harmonic,
                         "--profile", str(result), "--miner", "m3",
                         "--oracle", "--out", str(out)])
        assert code == cli.EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["oracle"]["agrees"]

    def test_miner_by_index(self, scenario_deterrence, tmp_path):
        profile = write_json(tmp_path / "p.json", [0.0, 0.5, 0.5, 0.0])
        out = tmp_path / "br.json"
        code = cli.main(["best-response", "--scenario", scenario_deterrence,
                         "--profile", profile, "--miner", "0",
                         "--out", str(out)])
        assert code == cli.EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["best_responses"][0] == 0.0  # abstention ties the interior
        assert doc["best_utility"] == pytest.approx(0.0, abs=1e-12)

    def test_miner_facing_zero_opposition(self, tmp_path, capsys):
        scenario = write_json(tmp_path / "s.json", {"costs": [1, 2, 3]})
        profile = write_json(tmp_path / "p.json", [1.0, 0.0, 0.0])
        assert cli.main(["best-response", "--scenario", scenario,
                         "--profile", profile, "--miner", "0"]
                        ) == cli.EXIT_INVALID_SPEC
        assert "zero opposition" in capsys.readouterr().err

    def test_miner_index_out_of_range(self, scenario_deterrence, tmp_path,
                                      capsys):
        profile = write_json(tmp_path / "p.json", [0.0, 0.5, 0.5, 0.0])
        assert cli.main(
            ["best-response", "--scenario", scenario_deterrence,
             "--profile", profile, "--miner", "7"]
        ) == cli.EXIT_PARSE
        assert "out of range" in capsys.readouterr().err

    def test_unknown_miner(self, scenario_deterrence, tmp_path):
        profile = write_json(tmp_path / "p.json", [0.0, 0.5, 0.5, 0.0])
        assert cli.main(
            ["best-response", "--scenario", scenario_deterrence,
             "--profile", profile, "--miner", "nobody"]
        ) == cli.EXIT_PARSE


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "contesteq.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "solve" in proc.stdout
