"""The benchmark workloads, their seeded inputs and their correctness gates.

Each workload is one closed loop: ``run_pass`` decides the whole input set
once and returns the number of instances it decided; the next pass starts
only after it returns.  Inputs are generated once, in the constructor, from
the seed alone.  Every verdict of a pass is checked against data held here,
independently of the program's own reference table, and every miss is
counted by the ``Gate``.

``case(label, fn, *args)`` is how a pass calls into the program at the
points a per-layer metric is named after; untraced it is a plain call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from itertools import combinations
from random import Random

from bks33 import catalog as cat
from bks33 import cli, kscolor, majorana, orthograph, rays
from bks33.scalar import ExactComplex, QRoot2

# The published orthogonality table (16 triads, 24 dyads), kept here as an
# independent copy so that a change to the program's own table cannot pass
# the gate.
REF_TRIADS = frozenset({
    (1, 2, 3), (1, 4, 5), (1, 26, 33), (1, 29, 30),
    (2, 6, 7), (2, 22, 32), (2, 25, 31), (3, 8, 9),
    (3, 23, 28), (3, 24, 27), (4, 10, 13), (5, 11, 12),
    (6, 14, 17), (7, 15, 16), (8, 18, 21), (9, 19, 20),
})
REF_DYADS = frozenset({
    (10, 24), (10, 25), (11, 23), (11, 25),
    (12, 22), (12, 24), (13, 22), (13, 23),
    (14, 28), (14, 29), (15, 27), (15, 29),
    (16, 26), (16, 28), (17, 26), (17, 27),
    (18, 32), (18, 33), (19, 31), (19, 33),
    (20, 30), (20, 32), (21, 30), (21, 31),
})
REF_EDGES = frozenset(REF_DYADS | {
    e for a, b, c in REF_TRIADS for e in ((a, b), (a, c), (b, c))
})
VERTICES = tuple(range(1, 34))
PAIRS = 33 * 32 // 2
#: Squared 9-14 overlaps: ((2-sqrt2)/4)^2 for real rays, (sqrt6/4)^2 for M-pairs.
REAL_WITNESS = "(3-2*sqrt2)/8"
COMPLEX_WITNESS = "3/8"
#: Search-tree size of the canonical full instance.
CANONICAL_NODES = 34

#: Nonzero ray rescalings a + b*sqrt2 + i*(c + d*sqrt2) in Z[sqrt2, i].
RAY_FACTORS = (
    (1, 0, 0, 0), (-1, 0, 0, 0), (0, 0, 1, 0), (1, 0, 1, 0), (1, 0, -1, 0),
    (1, 1, 0, 0), (0, 1, 0, 0), (2, 0, -1, 0), (1, 0, 0, 1), (0, 1, 1, 0),
    (3, 2, 0, 0), (1, 1, 1, -1),
)
#: Positive integer M-vector rescalings.
MVECTOR_FACTORS = (1, 2, 3, 4, 5, 7)


class Gate:
    """Counts checks attempted and failed, and pins CLI reports by hash."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.misses: list[str] = []
        self.report_hashes: dict[str, str] = {}

    def check(self, name: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.misses) < 20:
                self.misses.append(name)
        return ok

    def report(self, name: str, text: str) -> None:
        """Require every pass to print a byte-identical report."""
        digest = hashlib.sha256(text.encode()).hexdigest()
        first = self.report_hashes.setdefault(name, digest)
        self.check(f"{name}.report_identical", digest == first)


def plain_case(label, fn, *args):
    """Untraced call at a benchmark call site."""
    return fn(*args)


def run_cli(gate: Gate, case, label: str, argv: list[str]) -> tuple[dict, int]:
    """Run ``cli.main(argv)`` in process; return the parsed report and its size."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = case(f"cli.{label}", cli.main, argv)
    text = buf.getvalue()
    gate.check(f"{label}.exit_0", code == 0)
    gate.report(label, text)
    report = json.loads(text)
    gate.check(f"{label}.passed", report["passed"] is True)
    return {c["name"]: c for c in report["checks"]}, len(text.encode())


def check_diagram(gate: Gate, label: str, g: orthograph.OrthoGraph) -> None:
    gate.check(f"{label}.edges_72", g.edge_count == 72)
    gate.check(f"{label}.edges_match_reference", g.edges == REF_EDGES)
    d = orthograph.decompose(g)
    gate.check(f"{label}.triads_16", len(d.triads) == 16 and set(d.triads) == REF_TRIADS)
    gate.check(f"{label}.dyads_24", len(d.dyads) == 24 and set(d.dyads) == REF_DYADS)


def _ring_element(a: int, b: int, c: int, d: int) -> ExactComplex:
    return ExactComplex(QRoot2(a, b), QRoot2(c, d))


def _scaled(v: majorana.MVector, k: int) -> majorana.MVector:
    return majorana.MVector(k * v.x, k * v.y, k * v.z)


class ExactCatalogs:
    """Exact path: both catalogs as given and rescaled, CLI verify and majorana."""

    name = "exact-catalogs"
    MAJORANA_SAMPLES = 64

    def __init__(self, seed: int) -> None:
        rng = Random(seed)
        self.cli_seed = rng.randrange(1 << 31)
        self.ray_factors = [rng.choice(RAY_FACTORS) for _ in VERTICES]
        self.mvector_factors = [
            (rng.choice(MVECTOR_FACTORS), rng.choice(MVECTOR_FACTORS)) for _ in VERTICES
        ]
        peres = cat.peres_rays()
        penrose = cat.penrose_mpairs()
        rescaled_rays = [
            rays.Ray(tuple(_ring_element(*f) * c for c in r.components), index=r.index)
            for r, f in zip(peres, self.ray_factors)
        ]
        rescaled_pairs = [
            majorana.MPair(_scaled(p.first, k1), _scaled(p.second, k2))
            for p, (k1, k2) in zip(penrose, self.mvector_factors)
        ]
        self.catalogs = {
            "peres": peres,
            "penrose": penrose,
            "peres-rescaled": rescaled_rays,
            "penrose-rescaled": rescaled_pairs,
        }

    def fingerprint(self) -> str:
        return repr((self.cli_seed, self.ray_factors, self.mvector_factors))

    def run_pass(self, gate: Gate, case=plain_case) -> int:
        report_bytes = 0
        n = 0
        for name, witness in (("peres", REAL_WITNESS), ("penrose", COMPLEX_WITNESS)):
            checks, size = run_cli(gate, case, f"verify-{name}", ["verify", "--set", name, "--json"])
            report_bytes += size
            for check in ("edge_count_72", "triads_16_dyads_24", "matches_reference_table"):
                gate.check(f"verify-{name}.{check}", checks[check]["passed"])
            gate.check(
                f"verify-{name}.witness",
                checks["overlap_9_14_witness"]["details"]["overlap2"]["exact"] == witness,
            )
            n += PAIRS
        checks, size = run_cli(gate, case, "majorana", [
            "majorana", "--json", "--seed", str(self.cli_seed),
            "--samples", str(self.MAJORANA_SAMPLES),
        ])
        report_bytes += size
        gate.check("majorana.sweep_zero_pattern",
                   checks["catalog_sweep_zero_pattern"]["details"]["zero_count"] == 72)
        gate.check("majorana.recovery_33",
                   checks["recovery_pipeline_33_matches"]["details"]["matched"] == 33)
        n += self.MAJORANA_SAMPLES + PAIRS + 33

        for label, catalog in self.catalogs.items():
            g = case(f"build_graph.{label}", orthograph.build_graph, catalog)
            check_diagram(gate, label, g)
            if isinstance(catalog[0], rays.Ray):
                w, want = rays.overlap2(catalog[8], catalog[13]), REAL_WITNESS
            else:
                w, want = majorana.overlap2_closed_form(catalog[8], catalog[13]), COMPLEX_WITNESS
            gate.check(f"{label}.witness", w.canonical_str() == want)
            report = case(f"symmetry.{label}", kscolor.verify_symmetry_reduction, catalog, g)
            gate.check(f"{label}.symmetry", report.passed)
            n += PAIRS + 1 + 4 * 33

        for label, params in (
            ("family-peres", cat.FamilyParams.peres_point()),
            ("family-penrose", cat.FamilyParams.penrose_point()),
        ):
            g = case(f"build_graph.{label}", orthograph.build_graph, cat.family_rays(params))
            gate.check(f"{label}.edges_match_reference", g.edges == REF_EDGES)
            n += PAIRS
        self.report_bytes = report_bytes
        return n


class ColoringSearch:
    """Constraint engine: proof routes, criticality, relabelings, double deletions."""

    RELABELINGS = 64

    def __init__(self, seed: int) -> None:
        rng = Random(seed)
        self.relabelings = []
        for _ in range(self.RELABELINGS):
            images = list(VERTICES)
            rng.shuffle(images)
            self.relabelings.append(dict(zip(VERTICES, images)))
        self.relabeled_graphs = [
            orthograph.OrthoGraph(
                frozenset(VERTICES),
                frozenset(tuple(sorted((s[u], s[v]))) for u, v in REF_EDGES),
            )
            for s in self.relabelings
        ]
        self.full_graph = orthograph.OrthoGraph(frozenset(VERTICES), REF_EDGES)

    def fingerprint(self) -> str:
        return repr([sorted(s.items()) for s in self.relabelings])

    def run_pass(self, gate: Gate, case=plain_case) -> int:
        report_bytes = 0
        checks, size = run_cli(gate, case, "prove", ["prove", "--mode", "both", "--json"])
        report_bytes += size
        gate.check("prove.replay", checks["replay_contradiction"]["passed"])
        gate.check("prove.search_unsat", checks["search_unsat"]["passed"])
        gate.check("prove.nodes_34",
                   checks["search_unsat"]["details"]["nodes"] == CANONICAL_NODES)
        checks, size = run_cli(gate, case, "critical", ["critical", "--ray", "all", "--json"])
        report_bytes += size
        gate.check("critical.all_33",
                   checks["all_33_deletions_colorable"]["details"]["colorable"] == 33)
        gate.check("critical.known_delete_1", checks["delete_1_known_coloring_valid"]["passed"])
        n = 2 + 33 + 2

        cs = kscolor.ConstraintSet.from_graph(self.full_graph)
        result = case("search.full", kscolor.search, cs)
        gate.check("full.unsat", result.coloring is None)
        gate.check("full.nodes_34", result.nodes == CANONICAL_NODES)
        n += 1
        for i, g in enumerate(self.relabeled_graphs):
            result = kscolor.search(kscolor.ConstraintSet.from_graph(g))
            gate.check(f"relabeling_{i}.unsat", result.coloring is None)
            n += 1
        for u, v in combinations(VERTICES, 2):
            reduced = kscolor.ConstraintSet.from_graph(
                self.full_graph.delete_vertex(u).delete_vertex(v)
            )
            result = kscolor.search(reduced)
            gate.check(
                f"delete_{u}_{v}.valid_coloring",
                result.coloring is not None and kscolor.validate_coloring(result.coloring, reduced),
            )
            n += 1
        self.report_bytes = report_bytes
        return n


class FloatSampling:
    """Float path: generic family phases, Majorana closed form, round trips, recovery."""

    FAMILY_SAMPLES = 96
    CLI_FAMILY_SAMPLES = 8
    MPAIR_SAMPLES = 1500
    ROUND_TRIPS = 1000
    TOL = 1e-10

    def __init__(self, seed: int) -> None:
        rng = Random(seed)
        self.cli_seed = rng.randrange(1 << 31)
        self.phases = [
            cat.FamilyParams(*(rng.uniform(0.0, 2.0 * math.pi) for _ in range(3)))
            for _ in range(self.FAMILY_SAMPLES)
        ]

        def pair() -> majorana.MPair:
            return majorana.MPair(majorana.random_mvector(rng), majorana.random_mvector(rng))

        self.overlap_samples = [(pair(), pair()) for _ in range(self.MPAIR_SAMPLES)]
        self.round_trips = [pair() for _ in range(self.ROUND_TRIPS)]

    def fingerprint(self) -> str:
        return repr((self.cli_seed, self.phases, self.overlap_samples[:4], self.round_trips[:4]))

    def run_pass(self, gate: Gate, case=plain_case) -> int:
        report_bytes = 0
        checks, size = run_cli(gate, case, "verify-family", [
            "verify", "--set", "family", "--json", "--seed", str(self.cli_seed),
            "--samples", str(self.CLI_FAMILY_SAMPLES),
        ])
        report_bytes += size
        gate.check("verify-family.matched",
                   checks["family_samples_match_reference"]["details"]["matched"]
                   == self.CLI_FAMILY_SAMPLES)
        n = self.CLI_FAMILY_SAMPLES

        for i, params in enumerate(self.phases):
            g = case("build_graph.family", orthograph.build_graph, cat.family_rays(params))
            gate.check(f"family_{i}.edges_match_reference", g.edges == REF_EDGES)
            n += 1
        for i, (pa, pb) in enumerate(self.overlap_samples):
            closed = majorana.overlap2_closed_form(pa, pb)
            explicit = majorana.state_overlap2(
                majorana.state_from_mpair(pa), majorana.state_from_mpair(pb)
            )
            gate.check(f"overlap_{i}.closed_form", abs(closed - explicit) < self.TOL)
            n += 1
        for i, p in enumerate(self.round_trips):
            state = majorana.state_from_mpair(p)
            back = majorana.mpair_from_state(state)
            again = majorana.state_from_mpair(back)
            gate.check(
                f"round_trip_{i}",
                majorana.mpairs_match(p, back)
                and 1.0 - majorana.state_overlap2(state, again) < self.TOL,
            )
            n += 1
        recovered = case("recovered_penrose_mpairs", cat.recovered_penrose_mpairs)
        matched = sum(
            1 for got, want in zip(recovered, cat.penrose_mpairs())
            if majorana.mpairs_match(got, want)
        )
        gate.check("recovery_33_of_33", matched == 33)
        n += 33
        self.report_bytes = report_bytes
        return n


class SearchFloat:
    """Both halves of the control workload: no exact arithmetic at all."""

    name = "search-float"

    def __init__(self, seed: int) -> None:
        self.parts = (ColoringSearch(seed), FloatSampling(seed))

    def fingerprint(self) -> str:
        return repr([part.fingerprint() for part in self.parts])

    def run_pass(self, gate: Gate, case=plain_case) -> int:
        n = sum(part.run_pass(gate, case) for part in self.parts)
        self.report_bytes = sum(part.report_bytes for part in self.parts)
        return n


WORKLOADS = {w.name: w for w in (ExactCatalogs, SearchFloat)}
