"""Command-line front end: machine-readable verification reports and exports.

Subcommands: ``catalog``, ``verify``, ``prove``, ``critical``, ``export-cnf``,
``majorana``.  Structural reports are JSON (``--json``) with a fixed schema
version; exact values are serialized both as canonical strings like
``(2-1*sqrt2)/4`` and as floats.  Exit status is 0 iff every check passed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from dataclasses import asdict, dataclass, field
from itertools import combinations
from random import Random
from typing import Sequence

from . import catalog as cat
from . import kscolor, majorana, orthograph
from .rays import Ray, overlap2
from .scalar import DEFAULT_TOL, QRoot2

SCHEMA_VERSION = 1
DEFAULT_SEED = 42

#: Squared 9-14 overlap witnesses: ((2-sqrt2)/4)^2 for the real catalog,
#: (sqrt6/4)^2 for the complex one.
REAL_WITNESS_OVERLAP2 = (QRoot2(2, -1) / 4) * (QRoot2(2, -1) / 4)
COMPLEX_WITNESS_OVERLAP2 = QRoot2(3) / 8

#: Largest closed-form vs explicit-state deviation ``majorana`` accepts.
CLOSED_FORM_TOL = 1e-10


@dataclass
class Report:
    """A command's params and checks, each check the dict ``_emit`` prints."""

    command: str
    params: dict
    checks: list[dict] = field(default_factory=list)

    def add(self, name: str, passed: bool, **details) -> None:
        self.checks.append({"name": name, "passed": bool(passed), "details": details})

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)


def _emit(report: Report, as_json: bool) -> int:
    out = sys.stdout
    if as_json:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": report.command,
            "params": report.params,
            "checks": report.checks,
            "passed": report.passed,
        }
        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        for c in report.checks:
            out.write(f"[{'PASS' if c['passed'] else 'FAIL'}] {c['name']}\n")
            if not c["passed"] and c["details"]:
                out.write(f"       {json.dumps(c['details'], sort_keys=True)}\n")
        ok = sum(c["passed"] for c in report.checks)
        out.write(f"{'OK' if report.passed else 'FAILED'} ({ok}/{len(report.checks)} checks)\n")
    return 0 if report.passed else 1


def _qroot2_details(value: QRoot2) -> dict:
    return {"exact": value.canonical_str(), "float": float(value)}


# ---------------------------------------------------------------------------
# catalog


def _ray_row(ray: Ray) -> dict:
    row: dict = {"index": ray.index, "ray_class": cat.class_of(ray.index).value}
    comps = []
    for c in ray.components:
        z = complex(c)
        entry = {"re": z.real, "im": z.imag}
        if ray.is_exact:
            entry["exact"] = c.canonical_str()
        comps.append(entry)
    row["components"] = comps
    return row


def _catalog_payload(args) -> tuple[list[dict], dict]:
    if args.set == "peres":
        return [_ray_row(r) for r in cat.peres_rays()], {}
    if args.set == "penrose":
        return [
            {"index": i, "ray_class": cat.class_of(i).value,
             "m_vectors": [[p.first.x, p.first.y, p.first.z], [p.second.x, p.second.y, p.second.z]]}
            for i, p in enumerate(cat.penrose_mpairs(), start=1)
        ], {}
    rays = cat.family_rays(cat.FamilyParams(args.alpha, args.beta, args.gamma))
    k = rays[7].components[1]  # ray 8 is (1, k, 0)
    return [_ray_row(r) for r in rays], {"k_modulus": abs(complex(k))}


def cmd_catalog(args) -> int:
    rows, extra = _catalog_payload(args)
    if args.format == "json":
        payload = {"set": args.set, "rows": rows, **extra}
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return 0
    buf = io.StringIO()
    writer = csv.writer(buf)
    if args.set == "penrose":
        writer.writerow(["index", "ray_class", "m1_x", "m1_y", "m1_z", "m2_x", "m2_y", "m2_z"])
        for row in rows:
            writer.writerow([row["index"], row["ray_class"], *row["m_vectors"][0], *row["m_vectors"][1]])
    else:
        writer.writerow(
            ["index", "ray_class"]
            + [f"c{i}_{part}" for i in range(3) for part in ("exact", "re", "im")]
        )
        for row in rows:
            cells = [row["index"], row["ray_class"]]
            for comp in row["components"]:
                cells += [comp.get("exact", ""), comp["re"], comp["im"]]
            writer.writerow(cells)
    sys.stdout.write(buf.getvalue())
    return 0


# ---------------------------------------------------------------------------
# verify


def _diagram_checks(report: Report, graph: orthograph.OrthoGraph) -> None:
    reference = orthograph.reference_decomposition()
    decomposition = orthograph.decompose(graph)
    report.add("edge_count_72", graph.edge_count == 72, edges=graph.edge_count)
    report.add(
        "triads_16_dyads_24",
        len(decomposition.triads) == 16 and len(decomposition.dyads) == 24,
        triads=len(decomposition.triads),
        dyads=len(decomposition.dyads),
    )
    report.add("matches_reference_table", decomposition == reference)


def cmd_verify(args) -> int:
    report = Report("verify", {"set": args.set, "seed": args.seed, "tol": DEFAULT_TOL})
    if args.set in ("peres", "penrose"):
        load, overlap, expected = {
            "peres": (cat.peres_rays, overlap2, REAL_WITNESS_OVERLAP2),
            "penrose": (cat.penrose_mpairs, majorana.overlap2_closed_form,
                        COMPLEX_WITNESS_OVERLAP2),
        }[args.set]
        entries = load()
        graph = orthograph.build_graph(entries)
        _diagram_checks(report, graph)
        witness = overlap(entries[8], entries[13])
        report.add(
            "overlap_9_14_witness",
            witness == expected,
            overlap2=_qroot2_details(witness),
            magnitude_float=math.sqrt(float(witness)),
        )
    else:
        rng = Random(args.seed)
        reference_edges = orthograph.reference_decomposition().edges()
        matches = 0
        for _ in range(args.samples):
            params = cat.FamilyParams(
                rng.uniform(0.0, 2.0 * math.pi),
                rng.uniform(0.0, 2.0 * math.pi),
                rng.uniform(0.0, 2.0 * math.pi),
            )
            sample_graph = orthograph.build_graph(cat.family_rays(params))
            if sample_graph.edges == reference_edges:
                matches += 1
        report.add(
            "family_samples_match_reference",
            matches == args.samples,
            matched=matches,
            samples=args.samples,
        )
    return _emit(report, args.json)


# ---------------------------------------------------------------------------
# prove


def _trace_payload(trace: kscolor.ProofTrace) -> dict:
    steps = [{"kind": "choice" if isinstance(s, kscolor.Choice) else "forced", **asdict(s)}
             for s in trace.steps]
    payload = {"steps": steps, "green_rays": sorted(trace.green_rays)}
    if trace.contradiction is not None:
        payload["contradiction"] = asdict(trace.contradiction)
    if trace.divergence is not None:
        payload["divergence"] = trace.divergence
    return payload


def cmd_prove(args) -> int:
    report = Report("prove", {"mode": args.mode})
    graph = orthograph.reference_graph()
    symmetry = kscolor.symmetry_reduction(graph)
    report.add(
        "symmetry_reduction",
        symmetry.passed,
        automorphisms={"sigma": kscolor.SIGMA, "tau": kscolor.TAU},
        pair_automorphisms=[{"pair": sorted(pair), "automorphism": name}
                            for pair, name in symmetry.pair_automorphisms.items()],
        failures=list(symmetry.failures),
    )
    cs = orthograph.decompose(graph)
    trace = kscolor.replay_proof(cs)
    report.add("replay_contradiction", trace.divergence is None, trace=_trace_payload(trace))
    result = kscolor.search(cs)
    report.add("search_unsat", result.coloring is None,
               greens=sorted(result.coloring or ()), nodes=result.nodes)
    return _emit(report, args.json)


# ---------------------------------------------------------------------------
# critical


def cmd_critical(args) -> int:
    report = Report("critical", {"ray": args.ray})
    graph = orthograph.reference_graph()
    if args.ray == "all":
        audit = kscolor.criticality_audit(graph)
        colorable = sum(greens is not None for greens in audit.values())
        report.add(
            "all_33_deletions_colorable",
            colorable == len(audit) == 33,
            colorable=colorable,
        )
        ray, greens = 1, audit[1]
    else:
        ray = int(args.ray)
        greens = kscolor.coloring_without(graph, ray)
    report.add(f"delete_{ray}_colorable", greens is not None, greens=sorted(greens or ()))
    if ray == 1:
        known = kscolor.KNOWN_DELETE1_GREENS
        reduced = orthograph.decompose(graph.delete_vertex(1))
        report.add(
            "delete_1_known_coloring_valid",
            kscolor.validate_coloring(known, reduced),
            greens=sorted(known),
        )
    return _emit(report, args.json)


# ---------------------------------------------------------------------------
# export-cnf


def dimacs_lines(cs: orthograph.ConstraintSet, comments: Sequence[str] = ()) -> list[str]:
    """DIMACS clauses: variable i true iff ray i is green.

    Each exactly-one triple (a, b, c) yields (a|b|c) and the three pairwise
    exclusions; each at-most-one pair yields one exclusion.  Variables are
    always numbered over the full 1..33 catalog; a deleted ray is simply
    unconstrained.
    """
    clauses: list[list[int]] = []
    for t in cs.triads:
        clauses.append(list(t))
        for u, v in combinations(t, 2):
            clauses.append([-u, -v])
    for p in cs.dyads:
        for u, v in combinations(p, 2):
            clauses.append([-u, -v])
    lines = [f"c {text}" for text in comments]
    lines.append(f"p cnf {orthograph.CATALOG_SIZE} {len(clauses)}")
    lines.extend(" ".join(str(lit) for lit in clause) + " 0" for clause in clauses)
    return lines


def cmd_export_cnf(args) -> int:
    graph = orthograph.reference_graph()
    comments = [
        "green-coloring constraints of the shared 33-ray orthogonality diagram",
        "variable i <=> ray i is green",
    ]
    if args.delete is not None:
        graph = graph.delete_vertex(args.delete)
        comments.append(f"ray {args.delete} deleted")
    cs = orthograph.decompose(graph)
    lines = dimacs_lines(cs, comments)
    try:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        sys.stderr.write(f"cannot write {args.out}: {exc}\n")
        return 1
    sys.stdout.write(
        f"wrote {args.out}: {orthograph.CATALOG_SIZE} variables, "
        f"{len(lines) - len(comments) - 1} clauses\n"
    )
    return 0


# ---------------------------------------------------------------------------
# majorana


def cmd_majorana(args) -> int:
    report = Report(
        "majorana", {"samples": args.samples, "seed": args.seed, "tol": CLOSED_FORM_TOL}
    )
    rng = Random(args.seed)
    max_dev = 0.0
    for _ in range(args.samples):
        pa = majorana.MPair(majorana.random_mvector(rng), majorana.random_mvector(rng))
        pb = majorana.MPair(majorana.random_mvector(rng), majorana.random_mvector(rng))
        closed = majorana.overlap2_closed_form(pa, pb)
        explicit = overlap2(majorana.state_from_mpair(pa), majorana.state_from_mpair(pb))
        max_dev = max(max_dev, abs(closed - explicit))
    report.add(
        "closed_form_matches_states",
        max_dev < CLOSED_FORM_TOL,
        max_deviation=max_dev,
        tol=CLOSED_FORM_TOL,
    )

    pairs = cat.penrose_mpairs()
    zeros, positive_elsewhere = majorana.catalog_sweep(pairs)
    report.add(
        "catalog_sweep_zero_pattern",
        set(zeros) == orthograph.reference_decomposition().edges() and positive_elsewhere,
        zero_count=len(zeros),
    )

    recovered = cat.recovered_penrose_mpairs()
    matched = sum(
        1 for got, want in zip(recovered, pairs) if majorana.mpairs_match(got, want)
    )
    report.add("recovery_pipeline_33_matches", matched == 33, matched=matched)
    return _emit(report, args.json)


# ---------------------------------------------------------------------------
# parser


def _ray_index(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0  # reported below, like an index out of range
    if not 1 <= value <= orthograph.CATALOG_SIZE:
        raise argparse.ArgumentTypeError(f"expected a ray index in 1..33, got {text!r}")
    return value


def _ray_or_all(text: str) -> str:
    """'all' or the canonical decimal of a ray index: one report per request."""
    return text if text == "all" else str(_ray_index(text))


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bks33",
        description="Verification suite for the 33-ray Kochen-Specker constructions.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, summary: str) -> argparse.ArgumentParser:
        # no abbreviations: each option has exactly one spelling
        return sub.add_parser(name, help=summary, allow_abbrev=False)

    json_help = "emit a JSON report"
    seed_help = "RNG seed (printed in the report)"

    p = add("catalog", "dump one of the three catalogs")
    p.add_argument("--set", choices=("peres", "penrose", "family"), required=True)
    p.add_argument("--alpha", type=_finite_float)
    p.add_argument("--beta", type=_finite_float)
    p.add_argument("--gamma", type=_finite_float)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_catalog)

    p = add("verify", "check a catalog against the reference diagram")
    p.add_argument("--set", choices=("peres", "penrose", "family"), required=True)
    p.add_argument("--samples", type=_positive_int, help="random family samples")
    p.add_argument("--seed", type=int, help=seed_help)
    p.add_argument("--json", action="store_true", help=json_help)
    p.set_defaults(func=cmd_verify)

    p = add("prove", "replay and search the non-colorability proof")
    # one choice, still accepted because perfbench/bench_workloads.py passes it
    p.add_argument("--mode", choices=("both",), default="both")
    p.add_argument("--json", action="store_true", help=json_help)
    p.set_defaults(func=cmd_prove)

    p = add("critical", "audit single-ray deletions for colorability")
    p.add_argument("--ray", type=_ray_or_all, default="all", help="'all' or an index in 1..33")
    p.add_argument("--json", action="store_true", help=json_help)
    p.set_defaults(func=cmd_critical)

    p = add("export-cnf", "write the coloring constraints as DIMACS CNF")
    p.add_argument("--out", required=True, help="output path")
    p.add_argument("--delete", type=_ray_index, default=None, help="delete one ray first")
    p.set_defaults(func=cmd_export_cnf)

    p = add("majorana", "cross-check the closed-form overlap machinery")
    p.add_argument("--samples", type=_positive_int, default=1000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help=seed_help)
    p.add_argument("--json", action="store_true", help=json_help)
    p.set_defaults(func=cmd_majorana)

    return parser


_PHASE_OPTIONS = ("--alpha", "--beta", "--gamma")
#: The options only ``--set family`` reads, and their values when not given.
_FAMILY_OPTIONS = {
    "catalog": {"alpha": 0.0, "beta": 0.0, "gamma": 0.0},
    "verify": {"samples": 50, "seed": DEFAULT_SEED},
}


def _attach_phase_values(argv: Sequence[str]) -> list[str]:
    """Attach each phase option's next token as ``--alpha=VALUE``: argparse
    would read ``-1e-3`` or ``-inf`` there as an option, not as the value."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] in _PHASE_OPTIONS:
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use.  A build takes about
    0.68 ms, as long as twenty parses with it (Python 3.11).  The first build
    holds about 200 KB by tracemalloc, 33 KB of it the parser itself; after it,
    200 ``main`` calls leave no traced memory behind, where building a parser
    per call left about 40 KB."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(_attach_phase_values(sys.argv[1:] if argv is None else argv))
    for name, default in _FAMILY_OPTIONS.get(args.command, {}).items():
        if getattr(args, name) is None:
            setattr(args, name, default)
        elif args.set != "family":
            parser.error(f"argument --{name}: applies to --set family only")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
