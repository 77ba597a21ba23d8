#!/usr/bin/env python3
"""Run the artifact ledger.

One run (what ``BENCHMARK.json``'s command starts)::

    python3 benchmarks/ledger/run.py --workload fig3_ladder --seed 101 \\
        --seconds 24 --trace 0

measures one workload and prints every metric by name with its unit,
then one JSON object on the last line.  ``--trace 0`` reports the
end-to-end metrics from untraced passes, repeated for ``--seconds``,
each in a fresh process; ``--trace 1`` reports the per-layer table from
one untraced, one span-traced and one observed pass plus the probes.

The whole ledger::

    python -m benchmarks.ledger [--seed 101] [--repeats 3]
        [--workload NAME] [--traced] [--smoke] [--output report.json]

makes ``--repeats`` untraced runs per workload and one traced run with
``--traced``, and writes a report with a provenance block, every run,
and medians with min/max/n.

Closed loop, one client, ``jobs=1``, no threads.  Claims no gain.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

LEDGER_DIR = Path(__file__).resolve().parent
ROOT = LEDGER_DIR.parents[1]

# Run as a script, sys.path[0] is this directory, whose trace.py would
# shadow the standard library's; the package is imported from the root.
sys.path[:] = [
    entry for entry in sys.path
    if Path(entry or os.curdir).resolve() != LEDGER_DIR
]
for _entry in (str(ROOT / "src"), str(ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from benchmarks.ledger import clock as host_clock  # noqa: E402
from benchmarks.ledger.metrics import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    RUN_SECONDS,
    WORKLOAD_NAMES,
)

WORK_DIR = ROOT / ".ledger_work"
LATEST_PATH = LEDGER_DIR / "results" / "latest.json"
REPORT_SCHEMA = "repro.ledger.report/1"
DETAIL_TAG = "LEDGER-DETAIL "



# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------


def _tree_digest(directory: Path) -> str:
    """Identity of the Python sources under *directory*, git or no git."""
    sha = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        sha.update(str(path.relative_to(directory)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()[:16]


def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args],
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout


def provenance() -> Dict[str, Any]:
    """Where and from what the numbers came; computed at run time so a
    report can never carry another commit's sha."""
    import numpy

    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    return {
        "git_sha": sha.strip() if sha else "unknown",
        "dirty": bool(status.strip()) if status is not None else None,
        "code_digest": _tree_digest(ROOT / "src" / "repro"),
        "bench_digest": _tree_digest(LEDGER_DIR),
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


# ----------------------------------------------------------------------
# one run, in this process
# ----------------------------------------------------------------------


def _workload(name: str, seed: int, smoke: bool):
    from benchmarks.ledger.workloads import WORKLOADS

    return WORKLOADS[name](seed, smoke, str(WORK_DIR))


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def judge(workload, outcomes, seed: int, smoke: bool) -> Dict[str, Any]:
    """Everything the checks say about the passes of one process."""
    from benchmarks.ledger import checks

    first = outcomes[0]
    failures: List[str] = list(first.failures)
    for point in first.points:
        failures.extend(checks.point_failures(point))
    failures.extend(checks.zero_load_probe(*workload.probe()))
    digests = [checks.digest(p.result) for p in first.points]
    # Every pass of one seed must simulate exactly the same thing; a
    # traced or observed pass no less.
    for index, outcome in enumerate(outcomes[1:], start=2):
        again = [checks.digest(p.result) for p in outcome.points]
        if again != digests or outcome.failures:
            failures.append(f"pass {index} differs from pass 1")
    reference = checks.compare_with_reference(
        workload.name, seed, first.points, smoke
    )
    return {
        # Points, served lookups and the probe: the same on every run of
        # a seed, however many passes the run had time for.
        "attempted": len(first.points) + first.served + 1,
        "failures": failures,
        "reference": reference.kind,
        "reference_checked": reference.checked,
        "reference_deviating": reference.deviating,
        "ref_match_share": reference.match_share,
        "exact_drift_points": reference.exact_drift,
        "claims": [[text, held] for text, held in first.claims],
        "paper_claims_held": checks.claims_share(first.claims),
        "results_digest": hashlib.sha256(
            "".join(digests).encode()
        ).hexdigest()[:16],
    }


def one_pass(args: argparse.Namespace) -> int:
    """A pass child: set up, run one pass, judge it, report as JSON."""
    workload = _workload(args.workload, args.seed, args.smoke)
    workload.setup()
    ready = time.time()
    clock = host_clock.HostClock()
    outcome = workload.run_pass(clock)
    points = outcome.points
    print(json.dumps({
        "setup_raw_s": ready - args.spawned_at,
        "kernel_s": clock.opening_kernel_s,
        "wall_s": clock.seconds(),
        "raw_wall_s": clock.raw_seconds(),
        "sim_s": clock.seconds(simulating_only=True),
        "host_slowness": clock.slowness(),
        "sim_cycles": sum(p.result.cycles_simulated for p in points),
        "sampled_flits": sum(sum(p.result.vc_class_usage) for p in points),
        "verdict": judge(workload, [outcome], args.seed, args.smoke),
    }))
    return 0


def _run_self(name: str, seed: int, smoke: bool, *flags: str) -> List[str]:
    """This script again, in a fresh interpreter; its stdout lines."""
    command = [
        sys.executable, str(LEDGER_DIR / "run.py"),
        "--workload", name, "--seed", str(seed), *flags,
    ]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(
        command, check=True, stdout=subprocess.PIPE, text=True
    )
    return done.stdout.splitlines()


def _pass_child(name: str, seed: int, smoke: bool) -> Dict[str, Any]:
    """One pass in a fresh interpreter.  Its set-up — process start to
    "every object built" — is stated at reference host speed from the
    kernel readings on either side of it."""
    kernel_before = host_clock.calibrate()
    lines = _run_self(
        name, seed, smoke, "--one-pass", "--spawned-at", repr(time.time())
    )
    child = json.loads(lines[-1])
    child["setup_s"] = child["setup_raw_s"] / host_clock.slowness(
        kernel_before, child["kernel_s"]
    )
    return child


def run_untraced(
    name: str, seed: int, seconds: float, smoke: bool
) -> Tuple[Dict[str, float], Dict[str, Any], Dict[str, Any]]:
    """End-to-end metrics: passes repeated for about *seconds*, each in
    a process of its own.

    A process can be uniformly slow for reasons the clock's kernel does
    not see (about one in ten runs a fifth slower here: where its heap
    landed); the median over fresh processes drops such a draw, and
    every pass doubles as a set-up sample.
    """
    passes: List[Dict[str, Any]] = []
    elapsed: List[float] = []
    started = perf_counter()
    while True:
        pass_started = perf_counter()
        passes.append(_pass_child(name, seed, smoke))
        now = perf_counter()
        elapsed.append(now - pass_started)
        # Another pass only if it would end within a quarter pass of
        # the time asked for.
        if now - started + 0.75 * statistics.median(elapsed) > seconds:
            break

    first = passes[0]
    verdict = first["verdict"]
    for index, later in enumerate(passes[1:], start=2):
        other = later["verdict"]
        if other["results_digest"] != verdict["results_digest"]:
            verdict["failures"].append(f"pass {index} differs from pass 1")
        verdict["failures"].extend(
            line for line in other["failures"]
            if line not in verdict["failures"]
        )
    failed = len(verdict["failures"])
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "sim_cycles_per_s": statistics.median(
            p["sim_cycles"] / p["sim_s"] for p in passes
        ),
        "sampled_flits_per_s": statistics.median(
            p["sampled_flits"] / p["sim_s"] for p in passes
        ),
        "peak_rss_mb": _peak_rss_mb(),
        "passed_share": max(0.0, 1.0 - failed / verdict["attempted"]),
        "ref_match_share": verdict["ref_match_share"],
        "paper_claims_held": verdict["paper_claims_held"],
    }
    detail = {
        "passes": [
            {key: p[key] for key in (
                "wall_s", "raw_wall_s", "sim_s", "host_slowness", "setup_s",
            )}
            for p in passes
        ],
        "sim_cycles": first["sim_cycles"],
        "sampled_flits": first["sampled_flits"],
    }
    return metrics, verdict, detail


def run_traced(
    name: str, seed: int, smoke: bool, trace_out: Optional[str]
) -> Tuple[Dict[str, float], Dict[str, Any], Dict[str, Any]]:
    """Per-layer metrics: one untraced pass, one pass with spans
    recorded around the layer boundaries, one observed pass (object
    engine only), then the probes."""
    from benchmarks.ledger import trace
    from benchmarks.ledger.layers import layer_table
    from benchmarks.ledger.probes import run_probes
    from benchmarks.ledger.workloads import OBS_OPTIONS

    workload = _workload(name, seed, smoke)
    workload.setup()

    plain_clock = host_clock.HostClock()
    plain = workload.run_pass(plain_clock)

    recorder = trace.Recorder()
    with trace.install(recorder) as patches:
        # The clock's kernel is a span too, so the pass's root span
        # keeps only the ledger's own glue for itself.
        patches.set(
            host_clock, "calibrate",
            recorder.wrap("ledger.calibrate", host_clock.calibrate),
        )
        traced_clock = host_clock.HostClock()
        traced = recorder.wrap("ledger.pass", workload.run_pass)(traced_clock)
    spans = recorder.closed_spans()

    observed = observed_clock = None
    if workload.observable:
        observed_clock = host_clock.HostClock()
        observed = workload.run_pass(observed_clock, OBS_OPTIONS)

    outcomes = [plain, traced] + ([observed] if observed else [])
    verdict = judge(workload, outcomes, seed, smoke)
    table = layer_table(
        spans,
        recorder.counts,
        traced,
        observed,
        run_probes(seed, smoke),
        exact_drift_points=verdict["exact_drift_points"],
        ref_points_checked=verdict["reference_checked"],
        wall_untraced_s=plain_clock.seconds(),
        wall_traced_s=traced_clock.seconds(),
        wall_observed_s=(
            observed_clock.seconds() if observed_clock else None
        ),
        host_slowness=traced_clock.slowness(),
    )

    WORK_DIR.mkdir(exist_ok=True)
    path = trace_out or str(WORK_DIR / f"trace-{name}-seed{seed}.ndjson")
    trace.write_ndjson(
        spans, path, name,
        unit_names=(
            "experiments.runner.run_point",
            "experiments.runner.run_batch",
            "campaigns.orchestrator.run_campaign",
        ),
    )
    return table, verdict, {"trace_file": path}


def _print_metrics(
    title: str, values: Dict[str, float], units: Dict[str, str]
) -> None:
    print(title)
    width = max(len(name) for name in values)
    for name, value in values.items():
        print(f"  {name:<{width}}  {value:>16.6g} {units[name]}")


def single_run(args: argparse.Namespace) -> int:
    """One run of one workload; the last stdout line is the JSON object
    the benchmark contract asks for."""
    if args.trace:
        values, verdict, detail = run_traced(
            args.workload, args.seed, args.smoke, args.trace_out
        )
        units = {m.name: m.unit for m in PER_LAYER}
    else:
        values, verdict, detail = run_untraced(
            args.workload, args.seed, args.seconds, args.smoke
        )
        units = {m.name: m.unit for m in END_TO_END}
    kind = "per-layer (traced)" if args.trace else "end-to-end"
    _print_metrics(
        f"ledger {args.workload} seed={args.seed} {kind}", values, units
    )
    for line in verdict["failures"] + verdict["reference_deviating"]:
        print(f"  ! {line}")
    for text, held in verdict["claims"]:
        print(f"  [{'held' if held else 'BROKEN'}] {text}")
    print(DETAIL_TAG + json.dumps({**detail, **verdict}))
    failed = len(verdict["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": verdict["attempted"],
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0


# ----------------------------------------------------------------------
# the whole ledger: every run in a fresh child
# ----------------------------------------------------------------------


def _child_run(
    name: str, args: argparse.Namespace, trace: int
) -> Dict[str, Any]:
    lines = _run_self(
        name, args.seed, args.smoke,
        "--seconds", str(args.seconds), "--trace", str(trace),
    )
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        if line.startswith(DETAIL_TAG):
            result["detail"] = json.loads(line[len(DETAIL_TAG):])
        else:
            print(line)
    sys.stdout.flush()
    result["metrics"] = {
        name: entry["value"] for name, entry in result["metrics"].items()
    }
    return result


def summarize(runs: Sequence[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Median, min, max and sample count of every end-to-end metric."""
    summary = {}
    for metric in END_TO_END:
        values = [run["metrics"][metric.name] for run in runs]
        summary[metric.name] = {
            "median": statistics.median(values),
            "min": min(values),
            "max": max(values),
            "n": len(values),
            "unit": metric.unit,
        }
    return summary


def full_run(args: argparse.Namespace) -> int:
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    stamp = provenance()
    output = Path(args.output).resolve() if args.output else None
    if (
        output == LATEST_PATH
        and stamp["dirty"] is not False
        and not args.allow_dirty
    ):
        print(
            f"refusing to overwrite {LATEST_PATH} from a tree that is not "
            "a clean git checkout (pass --allow-dirty to record it as such)",
            file=sys.stderr,
        )
        return 2
    report: Dict[str, Any] = {
        "schema": REPORT_SCHEMA,
        "provenance": stamp,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "workloads": {},
    }
    if args.append and output is not None and output.exists():
        previous = json.loads(output.read_text())
        same = all(
            previous.get(key) == report[key]
            for key in ("schema", "seed", "seconds", "smoke")
        ) and (
            previous["provenance"]["code_digest"] == stamp["code_digest"]
        )
        if not same:
            print(
                f"{output} was measured with other code or settings; "
                "not appending to it", file=sys.stderr,
            )
            return 2
        report["workloads"] = previous["workloads"]

    for name in names:
        entry = report["workloads"].setdefault(name, {"runs": []})
        for _ in range(args.repeats):
            entry["runs"].append(_child_run(name, args, trace=0))
        entry["summary"] = summarize(entry["runs"])
        if args.traced:
            entry["traced"] = _child_run(name, args, trace=1)

    print()
    for name in names:
        entry = report["workloads"][name]
        print(f"{name}: median of {len(entry['runs'])} runs [min .. max]")
        for metric, row in entry["summary"].items():
            print(
                f"  {metric:<20} {row['median']:>14.6g} {row['unit']:<7}"
                f" [{row['min']:.6g} .. {row['max']:.6g}] n={row['n']}"
            )
    report["repeats"] = {
        name: len(entry["runs"])
        for name, entry in report["workloads"].items()
    }
    # The benchmark defines the baseline; it claims nothing.
    report["claim"] = None
    if output is not None:
        output.parent.mkdir(parents=True, exist_ok=True)
        output.write_text(json.dumps(report, indent=1) + "\n")
        print(f"\nreport written to {output}")
    broken = [
        name for name, entry in report["workloads"].items()
        if not all(run["correct"] for run in entry["runs"])
    ]
    return 1 if broken else 0


# ----------------------------------------------------------------------
# references
# ----------------------------------------------------------------------


def write_references(args: argparse.Namespace) -> int:
    """Regenerate ``reference/``: the per-seed files of the reference
    seeds and each workload's cross-seed band.  Run it on the commit
    whose object engine is to be the reference."""
    from benchmarks.ledger import checks

    if args.smoke:
        print("references are for the full sizes only", file=sys.stderr)
        return 2
    stamp = provenance()
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    for name in names:
        per_seed = {}
        for seed in checks.BAND_SEEDS:
            workload = _workload(name, seed, smoke=False)
            outcome = workload.run_pass(host_clock.HostClock())
            per_seed[seed] = checks.cells_of(outcome.points)
            if seed in checks.REFERENCE_SEEDS:
                oracle = workload.reference_points(outcome)
                path = checks.write_seed_reference(
                    name, seed, checks.cells_of(oracle), outcome.points,
                    stamp,
                )
                print(f"wrote {path}")
        print(f"wrote {checks.write_band(name, per_seed, stamp)}")
    return 0


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.ledger", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=101,
                        help="base simulation seed (held-out: 202)")
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"seconds one run measures (default "
                             f"{RUN_SECONDS}; one pass with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="one run in this process: 0 end-to-end "
                             "metrics, 1 the per-layer table")
    parser.add_argument("--smoke", action="store_true",
                        help="4x4 networks, a few hundred cycles: checks "
                             "the harness, measures nothing worth keeping")
    parser.add_argument("--repeats", type=int, default=3,
                        help="untraced runs per workload (whole ledger)")
    parser.add_argument("--traced", action="store_true",
                        help="add one traced run per workload")
    parser.add_argument("--output", help="write the report here")
    parser.add_argument("--append", action="store_true",
                        help="add the runs to --output's report (for "
                             "alternating runs of two checkouts)")
    parser.add_argument("--allow-dirty", action="store_true",
                        help=f"let --output overwrite {LATEST_PATH.name} "
                             "from a dirty tree")
    parser.add_argument("--trace-out",
                        help="NDJSON span file of a --trace 1 run")
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate reference/ from this checkout")
    parser.add_argument("--one-pass", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.1 if args.smoke else float(RUN_SECONDS)
    if (args.trace is not None or args.one_pass) and not args.workload:
        parser.error("--trace needs --workload")
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        # An installed copy of the package would import fine and be the
        # wrong thing to measure.
        print(
            f"the ledger measures {ROOT / 'src' / 'repro'}, which is not "
            "there", file=sys.stderr,
        )
        return 2
    if args.one_pass:
        return one_pass(args)
    if args.write_reference:
        return write_references(args)
    if args.trace is not None:
        return single_run(args)
    return full_run(args)


if __name__ == "__main__":
    sys.exit(main())
