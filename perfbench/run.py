"""Benchmark of the bks33 verifier.

Run from the repository root:

    python3 perfbench/run.py --workload exact-catalogs --seed 1 --seconds 60 --trace 0

It imports ``bks33`` from ``src/`` of the checkout it sits in, generates the
workload's inputs from ``--seed``, runs one untimed warm-up pass and then
closed-loop passes until ``--seconds`` seconds after the warm-up began,
checking every verdict.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` (checks) and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  See LAYERS.md for what each metric means and
which workload it should move.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_PROBES = 11
MIN_PASSES = 3
#: pass_s is the mean pass wall time scaled to a reference host speed.  On
#: shared hosts the CPU runs at one speed for seconds to minutes and then at
#: another, up to 1.6 times slower; over 60 s windows of search-float passes
#: the mean pass time spread (IQR/median) by 0.19.  So a run without
#: tracing also times a small fixed kernel of the operations the workloads
#: spend their time in, at call sites at most once every CALIBRATE_EVERY
#: seconds, and scales the mean pass time by REFERENCE_KERNEL_S over the
#: mean kernel time: pass_s is the pass time on a host where the kernel
#: takes 1 ms.  Over the same windows it spread by 0.03.  A change to the
#: program does not touch the kernel, so pass_s still moves with the program.
CALIBRATE_EVERY = 0.2
REFERENCE_KERNEL_S = 1e-3
#: setup_s is scaled the same way, by kernel samples taken just before and
#: after each probe: across sets of probes that cut its spread from 0.22
#: to 0.09.
SETUP_KERNEL_SAMPLES = 3
#: A traced run traces 2 to 4 passes in the first half of its time, which
#: bounds the spans held in memory, then runs untraced passes for the rest:
#: the base of the tracing overhead.
MIN_TRACED_PASSES = 2
MAX_TRACED_PASSES = 4
TRACED_SHARE = 0.5


def import_program():
    """Import bks33 from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import bks33

    if Path(bks33.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"bks33 imported from {bks33.__file__}, not from {SRC}")
    import bench_workloads

    return bench_workloads


def setup_seconds(workload: str, seed: int) -> float:
    """Median, over fresh processes that import bks33 and build the inputs,
    of their wall time scaled by the host speed sampled just before and after.

    No timeout: with one, ``subprocess`` polls the child in steps of up to
    50 ms, which would quantize the measurement.
    """
    times = []
    for _ in range(SETUP_PROBES):
        calibrator = Calibrator()
        for _ in range(SETUP_KERNEL_SAMPLES):
            calibrator.sample()
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            check=True, cwd=ROOT,
        )
        elapsed = perf_counter() - t0
        for _ in range(SETUP_KERNEL_SAMPLES):
            calibrator.sample()
        times.append(elapsed / calibrator.host_speed())
    return statistics.median(times)


def calibration_kernel():
    """Fixed pure-Python work: rational and complex arithmetic and a set."""
    acc, seen, z = Fraction(0), set(), 0j
    for i in range(1, 240):
        acc += Fraction(i, i + 7)
        seen.add(i * 7919 % 257)
        z = z * 0.5 + complex(i, -i)
    return acc, len(seen), z


class Calibrator:
    """Samples of the calibration kernel's time.  As call sites, it takes a
    sample before a call when CALIBRATE_EVERY seconds have passed since the
    last one."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self.last = 0.0

    def sample(self) -> None:
        start = perf_counter()
        calibration_kernel()
        self.last = perf_counter()
        self.samples.append(self.last - start)
        self.spent += self.last - start

    def case(self, label, fn, *args):
        if perf_counter() - self.last >= CALIBRATE_EVERY:
            self.sample()
        return fn(*args)

    def end_pass(self) -> float:
        """Return the kernel time of the pass just ended, to leave out of it."""
        spent, self.spent = self.spent, 0.0
        return spent

    def host_speed(self) -> float:
        """Mean kernel time over REFERENCE_KERNEL_S: above 1 on a slower host."""
        return statistics.fmean(self.samples) / REFERENCE_KERNEL_S


def run_passes(workload, gate, seconds: float, min_passes: int,
               max_passes: int | None = None, sites=None):
    """Closed loop: run passes until the next one would overrun ``seconds``.

    Returns each pass's wall time and instance count.  With ``sites`` (a
    ``Calibrator`` or a tracer), each pass calls the program through
    ``sites.case`` and ends with ``sites.end_pass()``, which returns the
    seconds of the pass that belong to the sites rather than the program.
    """
    times: list[float] = []
    instances: list[int] = []
    deadline = perf_counter() + seconds
    while True:
        start = perf_counter()
        try:
            n = workload.run_pass(gate, sites.case) if sites else workload.run_pass(gate)
        except Exception:  # a crashed pass is a failed check, not a crashed run
            traceback.print_exc()
            gate.check("pass_completed", False)
            n = 0
        dt = perf_counter() - start
        times.append(dt - sites.end_pass() if sites else dt)
        instances.append(n)
        if len(times) == max_passes or (
            len(times) >= min_passes and perf_counter() + dt > deadline
        ):
            return times, instances


def end_to_end(workload, gate, seconds: float, setup_s: float) -> dict:
    calibrator = Calibrator()
    times, instances = run_passes(workload, gate, seconds, MIN_PASSES, sites=calibrator)
    speed = calibrator.host_speed()
    pass_s = statistics.fmean(times) / speed
    print(f"passes={len(times)} instances_per_pass={instances[-1]} "
          f"wall_pass_s_mean={statistics.fmean(times):.4f} "
          f"kernel_samples={len(calibrator.samples)} host_speed={speed:.4f} "
          f"wall_pass_s_all={[round(t, 4) for t in times]}")
    return {
        "pass_s": (pass_s, "s"),
        "instances_per_s": (max(instances) / pass_s, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


#: Per-pass work counts; every one must repeat exactly on every traced pass.
PASS_COUNTS = (
    "scalar.exact_mul", "scalar.exact_add", "scalar.exact_div", "scalar.exact_sqrt",
    "scalar.exact_cmp", "scalar.abs2.calls",
    "rays.inner.calls", "rays.overlap2.calls", "rays.is_orthogonal.calls",
    "rays.proportional.calls", "catalog.family_rays.calls",
    "majorana.overlap2_closed_form.calls", "majorana.unit_dot.calls",
    "majorana.state_from_mpair.calls", "majorana.mpair_from_state.calls",
    "orthograph.build_graph.calls", "orthograph.induced_permutation.calls",
    "kscolor.search.calls", "kscolor.search.nodes", "kscolor.propagate.calls",
    "kscolor.propagate.forced_steps", "cli.main.calls",
)
#: Per-pass self times, by layer or by function.
PASS_SELF_TIMES = (
    "rays.self_s", "catalog.self_s", "majorana.self_s", "orthograph.self_s",
    "orthograph.build_graph.self_s", "orthograph.induced_permutation.self_s",
    "orthograph.decompose.self_s", "kscolor.self_s", "kscolor.search.self_s",
    "kscolor.propagate.self_s", "cli.self_s",
)
#: Spans reported as the median duration of one call.  The ``case.*`` spans
#: are benchmark call sites; LAYERS.md maps them to the ROADMAP table.
CALL_TIMES = (
    "catalog.recovered_penrose_mpairs", "kscolor.verify_symmetry_reduction",
    "kscolor.criticality_audit",
    "case.build_graph.peres", "case.build_graph.penrose", "case.build_graph.family",
    "case.symmetry.peres", "case.symmetry.penrose", "case.search.full",
    "case.cli.verify-peres", "case.cli.verify-penrose", "case.cli.majorana",
)


def per_layer(workload, gate, seconds: float, name: str) -> dict:
    import bench_trace

    start = perf_counter()
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        traced, _ = run_passes(workload, gate, seconds * TRACED_SHARE,
                               MIN_TRACED_PASSES, MAX_TRACED_PASSES, tracer)
    finally:
        tracer.uninstall()
    untraced, _ = run_passes(workload, gate, seconds - (perf_counter() - start),
                             MIN_TRACED_PASSES)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_spans(OUT_DIR / f"spans-{name}.tsv.gz")
    print(f"traced_passes={len(traced)} untraced_passes={len(untraced)} "
          f"spans={len(tracer.starts)}")

    passes = tracer.pass_metrics()
    pass_counts = {
        "orthograph.pair_tests": ("orthograph.build_graph>rays.is_orthogonal",
                                  "orthograph.build_graph>majorana.overlap2_closed_form"),
        "orthograph.candidate_tests": ("orthograph.induced_permutation>rays.proportional",
                                       "orthograph.pair_match_tests"),
        "orthograph.images_matched": ("orthograph.images_matched",),
        "kscolor.propagate.dead_ends": ("kscolor.propagate.dead_ends",),
        **{key: (key,) for key in PASS_COUNTS},
    }
    counts = {}
    for metric, keys in pass_counts.items():
        per_pass = {sum(p.get(k, 0) for k in keys) for p in passes}
        gate.check(f"trace.{metric}.repeats", len(per_pass) == 1)
        counts[metric] = per_pass.pop()

    def ratio(num: str, den: str) -> float:
        return counts[num] / counts[den] if counts[den] else 0.0

    metrics = {key: (counts[key], "count") for key in PASS_COUNTS}
    metrics["orthograph.pair_tests"] = (counts["orthograph.pair_tests"], "count")
    metrics["orthograph.perm_match_ratio"] = (
        ratio("orthograph.images_matched", "orthograph.candidate_tests"), "ratio")
    metrics["kscolor.dead_end_ratio"] = (
        ratio("kscolor.propagate.dead_ends", "kscolor.propagate.calls"), "ratio")
    metrics["cli.report_bytes"] = (workload.report_bytes, "bytes")
    for key in PASS_SELF_TIMES:
        metrics[key] = (statistics.median(p.get(key, 0.0) for p in passes), "s")
    call_s = tracer.median_durations()
    for key in CALL_TIMES:
        metrics[f"{key}.s"] = (call_s.get(key, 0.0), "s")
    metrics["trace.spans_per_pass"] = (len(tracer.starts) / len(traced), "count")
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(untraced), "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        bench_workloads = import_program()
    except ImportError as exc:
        print(f"cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in bench_workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(bench_workloads.WORKLOADS)}")

    setup_s = 0.0 if args.trace else setup_seconds(args.workload, args.seed)
    workload = bench_workloads.WORKLOADS[args.workload](args.seed)
    gate = bench_workloads.Gate()
    start = perf_counter()
    run_passes(workload, gate, 0, 1)  # warm-up; pins each CLI report's hash
    seconds = args.seconds - (perf_counter() - start)
    if args.trace:
        metrics = per_layer(workload, gate, seconds, args.workload)
    else:
        metrics = end_to_end(workload, gate, seconds, setup_s)

    for label, digest in sorted(gate.report_hashes.items()):
        print(f"report {label} sha256={digest}")
    print(f"failed_frac={gate.failed}/{gate.attempted} misses={gate.misses}")
    print(json.dumps({
        "correct": gate.failed == 0 and gate.attempted > 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
