import csv
import io
import json
import math

import pytest
from dimacs_oracle import clause_satisfied, dpll, parse_dimacs

from bks33 import cli
from bks33.kscolor import Color, ConstraintSet, criticality_audit
from bks33.orthograph import reference_graph


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


# --- catalog --------------------------------------------------------------

def test_catalog_peres_json(capsys):
    code, out = run(capsys, "catalog", "--set", "peres")
    assert code == 0
    payload = json.loads(out)
    assert payload["set"] == "peres"
    row = payload["rows"][0]
    assert row["index"] == 1
    assert [c["exact"] for c in row["components"]] == ["1", "0", "0"]
    row10 = payload["rows"][9]
    assert [c["exact"] for c in row10["components"]] == ["1*sqrt2", "-1", "1"]


def test_catalog_penrose_doubled_row(capsys):
    code, out = run(capsys, "catalog", "--set", "penrose")
    assert code == 0
    payload = json.loads(out)
    row10 = payload["rows"][9]
    assert row10["m_vectors"][0] == row10["m_vectors"][1] == [0, 1, 1]


def test_catalog_family_reports_unit_k(capsys):
    code, out = run(capsys, "catalog", "--set", "family", "--gamma", "0.7")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 33
    assert payload["k_modulus"] == pytest.approx(1, abs=1e-12)


@pytest.mark.parametrize("value", ["-1e-3", "-1E3", "-.5e1", "-1.5"])
def test_catalog_negative_phase_after_space_reads_as_value(capsys, value):
    # argparse alone would take "-1e-3" for an option after "--alpha"
    spaced = run(capsys, "catalog", "--set", "family", "--alpha", value)
    attached = run(capsys, "catalog", "--set", "family", f"--alpha={value}")
    assert spaced[0] == 0
    assert spaced == attached


def test_catalog_csv_round_trips(capsys):
    code, out = run(capsys, "catalog", "--set", "peres", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:2] == ["index", "ray_class"]
    assert len(rows) == 34
    assert rows[1][0] == "1" and rows[1][2] == "1"


# --- verify ---------------------------------------------------------------

def test_verify_peres_report(capsys):
    code, out = run(capsys, "verify", "--set", "peres", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    names = {c["name"]: c for c in report["checks"]}
    witness = names["overlap_9_14_witness"]
    assert witness["details"]["overlap2"]["exact"] == "(3-2*sqrt2)/8"
    assert witness["details"]["magnitude_float"] == pytest.approx(
        (2 - math.sqrt(2)) / 4
    )


def test_verify_penrose_report(capsys):
    code, out = run(capsys, "verify", "--set", "penrose", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    names = {c["name"]: c for c in report["checks"]}
    witness = names["overlap_9_14_witness"]
    assert witness["details"]["overlap2"]["exact"] == "3/8"
    assert witness["details"]["magnitude_float"] == pytest.approx(math.sqrt(6) / 4)


@pytest.mark.parametrize("name", ["peres", "penrose"])
def test_verify_reports_symmetry_reduction(capsys, name):
    code, out = run(capsys, "verify", "--set", name, "--json")
    assert code == 0
    check = {c["name"]: c for c in json.loads(out)["checks"]}["symmetry_reduction"]
    assert check["passed"] is True
    assert check["details"] == {
        "failures": [],
        "pair_rotations": [
            {"pair": [10, 12], "angle": 270},
            {"pair": [11, 13], "angle": 90},
            {"pair": [12, 13], "angle": 180},
        ],
    }


def test_verify_family_samples(capsys):
    code, out = run(capsys, "verify", "--set", "family", "--samples", "5",
                    "--seed", "7", "--json")
    assert code == 0
    report = json.loads(out)
    check = report["checks"][0]
    assert check["details"] == {"matched": 5, "samples": 5}


# --- prove ----------------------------------------------------------------

def test_prove_both_modes_agree(capsys):
    code, out = run(capsys, "prove", "--mode", "both", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    names = {c["name"]: c for c in report["checks"]}
    trace = names["replay_contradiction"]["details"]["trace"]
    assert trace["contradiction"] == {"kind": "all_red", "constraint": [7, 15, 16]}
    assert sorted(trace["green_rays"]) == [1, 6, 10, 11, 27, 28, 31]
    choices = [s for s in trace["steps"] if s["kind"] == "choice"]
    assert len(choices) == 2
    assert names["search_unsat"]["details"]["nodes"] > 0


# --- critical ---------------------------------------------------------------

def test_critical_single_ray_with_regression(capsys):
    code, out = run(capsys, "critical", "--ray", "1", "--json")
    assert code == 0
    report = json.loads(out)
    names = {c["name"] for c in report["checks"]}
    assert "delete_1_colorable" in names
    assert "delete_1_known_coloring_valid" in names


def test_critical_all(capsys):
    code, out = run(capsys, "critical", "--ray", "all", "--json")
    assert code == 0
    report = json.loads(out)
    names = {c["name"]: c for c in report["checks"]}
    assert names["all_33_deletions_colorable"]["details"]["colorable"] == 33


def test_critical_reports_the_canonical_ray_index(capsys):
    _, canonical = run(capsys, "critical", "--ray", "5", "--json")
    assert json.loads(canonical)["params"] == {"ray": "5"}
    for spelling in ("05", " 5", "+5"):
        assert run(capsys, "critical", "--ray", spelling, "--json") == (0, canonical)


def test_critical_rejects_out_of_range_ray(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["critical", "--ray", "40"])
    assert exc.value.code == 2


# --- export-cnf -------------------------------------------------------------

def test_export_cnf_full_instance(tmp_path, capsys):
    out_path = tmp_path / "full.cnf"
    code, _ = run(capsys, "export-cnf", "--out", str(out_path))
    assert code == 0
    n_vars, clauses = parse_dimacs(out_path.read_text())
    assert n_vars == 33
    assert len(clauses) == 88
    assert dpll(clauses) is None  # UNSAT


def test_export_cnf_delete_one_is_sat(tmp_path, capsys):
    out_path = tmp_path / "del1.cnf"
    code, _ = run(capsys, "export-cnf", "--out", str(out_path), "--delete", "1")
    assert code == 0
    _, clauses = parse_dimacs(out_path.read_text())
    model = dpll(clauses)
    assert model is not None
    assert all(clause_satisfied(c, model) for c in clauses)
    # the audit coloring satisfies every exported clause directly
    audit = criticality_audit(reference_graph())
    audit_model = {r: c is Color.GREEN for r, c in audit[1].items()}
    audit_model[1] = False
    assert all(clause_satisfied(c, audit_model) for c in clauses)


def test_export_cnf_unwritable_path(capsys):
    code = cli.main(["export-cnf", "--out", "/nonexistent-dir/x.cnf"])
    captured = capsys.readouterr()
    assert code == 1
    assert "cannot write" in captured.err


def test_dimacs_clause_structure():
    cs = ConstraintSet.from_graph(reference_graph())
    lines = cli.dimacs_lines(cs)
    triad = cs.exactly_one[0]
    body = [line for line in lines if not line.startswith(("c", "p"))]
    assert body[0] == f"{triad[0]} {triad[1]} {triad[2]} 0"
    assert body[1] == f"-{triad[0]} -{triad[1]} 0"


# --- majorana ---------------------------------------------------------------

def test_majorana_report(capsys):
    code, out = run(capsys, "majorana", "--samples", "50", "--seed", "42", "--json")
    assert code == 0
    report = json.loads(out)
    names = {c["name"]: c for c in report["checks"]}
    assert names["closed_form_matches_states"]["details"]["max_deviation"] < 1e-10
    assert names["catalog_sweep_zero_pattern"]["details"]["zero_count"] == 72
    assert names["recovery_pipeline_33_matches"]["details"]["matched"] == 33


# --- arguments --------------------------------------------------------------

def test_default_tol_per_subcommand():
    # one parser: majorana's own default must not leak into verify's --tol
    parser = cli.build_parser()
    assert parser.parse_args(["majorana"]).tol == 1e-10
    assert parser.parse_args(["verify", "--set", "peres"]).tol == 1e-9
    with pytest.raises(SystemExit):
        parser.parse_args(["prove", "--tol", "1e-9"])


#: The options each subcommand does not read, after the arguments it requires.
UNREAD_OPTIONS = [
    (command, option)
    for command, options in [
        (["catalog", "--set", "peres"], ["--seed", "--tol", "--json"]),
        (["prove"], ["--seed", "--tol"]),
        (["critical", "--ray", "1"], ["--seed", "--tol"]),
        (["export-cnf", "--out", "x.cnf"], ["--seed", "--tol", "--json"]),
    ]
    for option in options
]


@pytest.mark.parametrize("command, option", UNREAD_OPTIONS,
                         ids=[f"{c[0]}{o}" for c, o in UNREAD_OPTIONS])
def test_options_a_subcommand_does_not_read_exit_2(tmp_path, monkeypatch, capsys, command, option):
    monkeypatch.chdir(tmp_path)
    value = {"--seed": ["1"], "--tol": ["1e-9"], "--json": []}[option]
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, option, *value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["verify", "--set", "family", "--samples", "0"], "--samples: must be at least 1"),
    (["majorana", "--samples", "0"], "--samples: must be at least 1"),
    (["verify", "--set", "family", "--tol", "-1"], "--tol: must be positive"),
    (["majorana", "--tol", "0"], "--tol: must be positive"),
    (["verify", "--set", "family", "--tol", "inf"], "--tol: must be finite"),
    (["majorana", "--samples", "1", "--tol", "inf"], "--tol: must be finite"),
    (["catalog", "--set", "family", "--alpha", "nan"], "--alpha: must be finite"),
    (["catalog", "--set", "family", "--alpha", "inf"], "--alpha: must be finite"),
    (["catalog", "--set", "family", "--alpha", "-inf"], "--alpha: must be finite"),
    (["catalog", "--set", "family", "--beta=-inf"], "--beta: must be finite"),
    (["catalog", "--set", "family", "--gamma", "nan"], "--gamma: must be finite"),
], ids=["verify-samples-0", "majorana-samples-0", "verify-tol-negative", "majorana-tol-0",
        "verify-tol-inf", "majorana-tol-inf", "catalog-alpha-nan", "catalog-alpha-inf",
        "catalog-alpha-minus-inf", "catalog-beta-minus-inf", "catalog-gamma-nan"])
def test_vacuous_or_invalid_input_exits_2(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


# --- report plumbing --------------------------------------------------------

def test_reports_are_deterministic_and_round_trip(capsys):
    _, first = run(capsys, "verify", "--set", "peres", "--json")
    _, second = run(capsys, "verify", "--set", "peres", "--json")
    assert first == second
    parsed = json.loads(first)
    assert json.dumps(parsed, indent=2, sort_keys=True) + "\n" == first
    assert parsed["schema_version"] == 1


def test_exit_status_reflects_failures(capsys):
    report = cli.Report("demo", {})
    report.add("ok", True)
    report.add("broken", False, reason="x")
    assert report.passed is False
    assert cli._emit(report, as_json=False) == 1
    out = capsys.readouterr().out
    assert "[FAIL] broken" in out
