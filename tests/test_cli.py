import argparse
import csv
import io
import json
import math
from pathlib import Path

import pytest
from dimacs_oracle import clause_satisfied, dpll, parse_dimacs

from bks33 import catalog, cli, kscolor, orthograph
from bks33.kscolor import criticality_audit, validate_coloring
from bks33.orthograph import OrthoGraph, decompose, reference_graph


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


@pytest.mark.parametrize("argv", [
    ["catalog", "--set", "family", "--alp", "-1e-3"],
    ["catalog", "--set", "family", "--alp=-1e-3"],
    ["verify", "--set", "peres", "--js"],
    ["--he"],
], ids=["alp-spaced", "alp-attached", "verify-js", "top-level-he"])
def test_abbreviated_options_exit_2(capsys, argv):
    # every option has one spelling: argparse would otherwise accept prefixes
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


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
    # verify decides catalog -> diagram and leaves the symmetry check to prove;
    # the check holds on the catalog's own diagram by the same turns as before
    code, out = run(capsys, "verify", "--set", name, "--json")
    assert code == 0
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["matches_reference_table"]["passed"] is True
    assert "symmetry_reduction" not in checks
    load = {"peres": catalog.peres_rays, "penrose": catalog.penrose_mpairs}[name]
    symmetry = kscolor.symmetry_reduction(orthograph.build_graph(load()))
    assert symmetry.failures == ()
    # tau^3, tau and tau^2 are the 270, 90 and 180 degree x-axis turns
    assert {tuple(sorted(p)): a for p, a in symmetry.pair_automorphisms.items()} == {
        (10, 12): "tau^3", (11, 13): "tau", (12, 13): "tau^2",
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


def test_prove_reports_symmetry_reduction(capsys):
    code, out = run(capsys, "prove", "--json")
    assert code == 0
    checks = json.loads(out)["checks"]
    # checked on the diagram before the replay that cites it
    assert [c["name"] for c in checks][0] == "symmetry_reduction"
    assert checks[0]["passed"] is True
    assert checks[0]["details"] == {
        "automorphisms": {"sigma": kscolor.SIGMA, "tau": kscolor.TAU},
        "failures": [],
        "pair_automorphisms": [
            {"pair": [10, 12], "automorphism": "tau^3"},
            {"pair": [11, 13], "automorphism": "tau"},
            {"pair": [12, 13], "automorphism": "tau^2"},
        ],
    }


def test_prove_reports_a_diverging_replay(capsys, monkeypatch):
    # without the dyad (10, 24) the documented chain breaks and a coloring exists
    full = reference_graph()
    broken = OrthoGraph(full.vertices, full.edges - {(10, 24)})
    monkeypatch.setattr(orthograph, "reference_graph", lambda: broken)
    code, out = run(capsys, "prove", "--json")
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False
    assert [c["name"] for c in report["checks"]] == [
        "symmetry_reduction", "replay_contradiction", "search_unsat",
    ]
    names = {c["name"]: c for c in report["checks"]}
    # the missing dyad breaks every written-out automorphism, and each is named
    assert names["symmetry_reduction"]["passed"] is False
    assert names["symmetry_reduction"]["details"]["failures"][:4] == [
        "sigma is not an automorphism", "tau is not an automorphism",
        "tau^2 is not an automorphism", "tau^3 is not an automorphism",
    ]
    assert names["replay_contradiction"]["passed"] is False
    assert names["replay_contradiction"]["details"]["trace"]["divergence"]
    assert names["search_unsat"]["passed"] is False
    # the failing check shows its counterexample
    greens = frozenset(names["search_unsat"]["details"]["greens"])
    assert validate_coloring(greens, decompose(broken))


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


def test_critical_reports_uncolorable_deletions(capsys, monkeypatch):
    # two disjoint copies of the diagram: each deletion leaves one copy whole
    full = reference_graph()
    shifted = {(u + 33, v + 33) for u, v in full.edges}
    doubled = OrthoGraph(frozenset(range(1, 67)), full.edges | shifted)
    monkeypatch.setattr(orthograph, "reference_graph", lambda: doubled)
    code, out = run(capsys, "critical", "--json")
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False
    names = {c["name"]: c for c in report["checks"]}
    assert names["all_33_deletions_colorable"]["passed"] is False
    assert names["all_33_deletions_colorable"]["details"]["colorable"] == 0


def test_critical_reports_the_canonical_ray_index(capsys):
    _, canonical = run(capsys, "critical", "--ray", "5", "--json")
    assert json.loads(canonical)["params"] == {"ray": "5"}
    for spelling in ("05", " 5", "+5"):
        assert run(capsys, "critical", "--ray", spelling, "--json") == (0, canonical)


@pytest.fixture(scope="module")
def audit():
    return criticality_audit(reference_graph())


@pytest.mark.parametrize("ray", range(1, 34))
def test_critical_single_ray_matches_the_audit(capsys, audit, ray):
    # both entry points report one verdict per deletion
    code, out = run(capsys, "critical", "--ray", str(ray), "--json")
    assert code == 0
    names = {c["name"]: c for c in json.loads(out)["checks"]}
    greens = names[f"delete_{ray}_colorable"]["details"]["greens"]
    assert greens == sorted(audit[ray])


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
    audit_model = {r: r in audit[1] for r in range(1, 34)}
    assert all(clause_satisfied(c, audit_model) for c in clauses)


def test_export_cnf_unwritable_path(capsys):
    code = cli.main(["export-cnf", "--out", "/nonexistent-dir/x.cnf"])
    captured = capsys.readouterr()
    assert code == 1
    assert "cannot write" in captured.err


def test_dimacs_clause_structure():
    cs = decompose(reference_graph())
    lines = cli.dimacs_lines(cs)
    triad = cs.triads[0]
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

#: Every option each subcommand accepts; a new option must be added here.
SUBCOMMAND_OPTIONS = {
    "catalog": ["--alpha", "--beta", "--format", "--gamma", "--set"],
    "verify": ["--json", "--samples", "--seed", "--set"],
    "prove": ["--json", "--mode"],
    "critical": ["--json", "--ray"],
    "export-cnf": ["--delete", "--out"],
    "majorana": ["--json", "--samples", "--seed"],
}


def test_subcommand_options_are_pinned():
    (subparsers,) = [a for a in cli.build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: sorted(s for a in p._actions for s in a.option_strings if s not in ("-h", "--help"))
        for name, p in subparsers.choices.items()
    }
    assert options == SUBCOMMAND_OPTIONS
    (mode,) = [a for a in subparsers.choices["prove"]._actions if a.dest == "mode"]
    assert mode.choices == ("both",)


#: The options each subcommand does not read, after the arguments it requires.
UNREAD_OPTIONS = [
    (command, option, f"unrecognized arguments: {option}")
    for command, options in [
        (["catalog", "--set", "peres"], ["--seed", "--tol", "--json"]),
        (["prove"], ["--seed", "--tol"]),
        (["critical", "--ray", "1"], ["--seed", "--tol"]),
        (["export-cnf", "--out", "x.cnf"], ["--seed", "--tol", "--json"]),
    ]
    for option in options
]

#: The options only ``--set family`` reads, given with the other sets.
FAMILY_ONLY_OPTIONS = [
    ([command, "--set", name], option, f"argument {option}: applies to --set family only")
    for command, options in [("catalog", ["--alpha", "--beta", "--gamma"]), ("verify", ["--samples", "--seed"])]
    for name in ("peres", "penrose")
    for option in options
]


@pytest.mark.parametrize("command, option, message", UNREAD_OPTIONS + FAMILY_ONLY_OPTIONS,
                         ids=[f"{c[0]}{o}" for c, o, _ in UNREAD_OPTIONS]
                         + [f"{c[0]}-{c[2]}{o}" for c, o, _ in FAMILY_ONLY_OPTIONS])
def test_options_a_subcommand_does_not_read_exit_2(tmp_path, monkeypatch, capsys, command, option,
                                                   message):
    monkeypatch.chdir(tmp_path)
    value = {"--seed": ["1"], "--tol": ["1e-9"], "--json": [], "--alpha": ["0.5"],
             "--beta": ["-1e-3"], "--gamma": ["1"], "--samples": ["7"]}[option]
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, option, *value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv, message", [
    (["verify", "--set", "family", "--samples", "0"], "--samples: must be at least 1"),
    (["majorana", "--samples", "0"], "--samples: must be at least 1"),
    (["verify", "--set", "family", "--samples", "1.5"],
     "--samples: must be an integer, got '1.5'"),
    (["majorana", "--samples", "x"], "--samples: must be an integer, got 'x'"),
    (["catalog", "--set", "family", "--alpha", "abc"], "--alpha: must be a number, got 'abc'"),
    (["verify", "--set", "family", "--tol", "-1"], "unrecognized arguments: --tol -1"),
    (["majorana", "--tol", "0"], "unrecognized arguments: --tol 0"),
    (["verify", "--set", "family", "--tol", "inf"], "unrecognized arguments: --tol inf"),
    (["majorana", "--samples", "1", "--tol", "inf"], "unrecognized arguments: --tol inf"),
    (["catalog", "--set", "family", "--alpha", "nan"], "--alpha: must be finite"),
    (["catalog", "--set", "family", "--alpha", "inf"], "--alpha: must be finite"),
    (["catalog", "--set", "family", "--alpha", "-inf"], "--alpha: must be finite"),
    (["catalog", "--set", "family", "--beta=-inf"], "--beta: must be finite"),
    (["catalog", "--set", "family", "--gamma", "nan"], "--gamma: must be finite"),
    (["prove", "--mode", "replay"], "--mode: invalid choice: 'replay'"),
    (["prove", "--mode", "search"], "--mode: invalid choice: 'search'"),
], ids=["verify-samples-0", "majorana-samples-0", "verify-samples-1.5", "majorana-samples-x",
        "catalog-alpha-abc", "verify-tol-negative", "majorana-tol-0",
        "verify-tol-inf", "majorana-tol-inf", "catalog-alpha-nan", "catalog-alpha-inf",
        "catalog-alpha-minus-inf", "catalog-beta-minus-inf", "catalog-gamma-nan",
        "prove-mode-replay", "prove-mode-search"])
def test_vacuous_or_invalid_input_exits_2(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "_positive_int" not in err and "_finite_float" not in err


# --- report plumbing --------------------------------------------------------

def test_reports_are_deterministic_and_round_trip(capsys):
    _, first = run(capsys, "verify", "--set", "peres", "--json")
    _, second = run(capsys, "verify", "--set", "peres", "--json")
    assert first == second
    parsed = json.loads(first)
    assert json.dumps(parsed, indent=2, sort_keys=True) + "\n" == first
    assert parsed["schema_version"] == 1


def test_main_builds_one_parser_per_process(capsys, monkeypatch):
    # the first main builds the parser; later ones, exit 2 included, build
    # none and print what a freshly built parser prints
    golden = Path(__file__).resolve().parent / "golden"
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli._parser.cache_clear()
    assert cli.main(["verify", "--set", "peres", "--json"]) == 0
    assert capsys.readouterr().out.encode() == (golden / "verify-peres.json").read_bytes()
    first = len(built)
    assert first > 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--set", "peres", "--seed", "7"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert cli.main(["prove", "--json"]) == 0
    assert capsys.readouterr().out.encode() == (golden / "prove.json").read_bytes()
    assert len(built) == first
    monkeypatch.undo()
    with pytest.raises(SystemExit):
        cli.build_parser().error("argument --seed: applies to --set family only")
    assert capsys.readouterr().err == captured.err


def test_exit_status_reflects_failures(capsys):
    report = cli.Report("demo", {})
    report.add("ok", True)
    report.add("broken", False, reason="x")
    assert report.passed is False
    assert cli._emit(report, as_json=False) == 1
    assert capsys.readouterr().out == (
        "[PASS] ok\n"
        "[FAIL] broken\n"
        '       {"reason": "x"}\n'
        "FAILED (1/2 checks)\n"
    )
