"""Command-line interface: ``repro-sweep``.

Examples::

    repro-sweep --figure 3 --profile quick
    repro-sweep --algorithms ecube,nbc --traffic uniform --loads 0.2,0.4,0.6
    repro-sweep --figure 4 --profile scaled --csv fig4.csv
    repro-sweep --figure 3 --profile paper --jobs 8 --checkpoint fig3.ckpt.json
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from types import MappingProxyType
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from repro.experiments import paper_figures
from repro.experiments.profiles import (
    PROFILES,
    apply_profile,
    current_profile,
)
from repro.experiments.sweep import PAPER_LOADS, sweep_algorithms
from repro.experiments.tables import format_figure, peak_summary, write_csv
from repro.routing.registry import ALGORITHM_NAMES, make_algorithm
from repro.simulator.config import (
    BACKEND_IDENTITY,
    BACKENDS,
    FLOW_CONTROL_MODES,
    SimulationConfig,
)
from repro.util.errors import ConfigurationError, RoutingError

_T = TypeVar("_T")

# Immutable figure dispatch table (DET005: no worker-divergent state).
_FIGURES = MappingProxyType(
    {
        "3": (paper_figures.figure3, paper_figures.check_figure3),
        "4": (paper_figures.figure4, paper_figures.check_figure4),
        "5": (paper_figures.figure5, paper_figures.check_figure5),
        "vct": (paper_figures.vct_comparison, paper_figures.check_vct),
    }
)


def _parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="repro-sweep",
        description=(
            "Regenerate figures from Boppana & Chalasani (ISCA 1993) or "
            "run custom load sweeps."
        ),
    )
    parser.add_argument(
        "--figure",
        choices=sorted(_FIGURES),
        help="paper artifact to regenerate (3, 4, 5, or vct)",
    )
    parser.add_argument(
        "--profile",
        choices=sorted(PROFILES),
        default=None,
        help="run profile (default: REPRO_PROFILE env var or 'scaled')",
    )
    parser.add_argument(
        "--algorithms",
        default=",".join(ALGORITHM_NAMES),
        help="comma-separated algorithm names",
    )
    parser.add_argument(
        "--traffic",
        default="uniform",
        help="traffic pattern for custom sweeps",
    )
    parser.add_argument(
        "--loads",
        default=None,
        help="comma-separated offered loads (default: the paper's ladder)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seeds",
        default=None,
        metavar="S1,S2,...",
        help=(
            "comma-separated seeds: every (algorithm, load) point runs "
            "once per seed (overrides --seed; spread them over cores "
            "with --jobs, or run them in lockstep with --backend batch)"
        ),
    )
    parser.add_argument(
        "--flow-control",
        choices=sorted(FLOW_CONTROL_MODES),
        default=None,
        help=(
            "node model for custom sweeps: 'ideal' (the paper's, "
            "default) or 'conservative' (snapshot-based; required by "
            "--backend batch)"
        ),
    )
    parser.add_argument(
        "--backend",
        choices=sorted(BACKENDS),
        default=None,
        help=(
            "simulation backend for custom sweeps: 'object' (default) "
            "runs one engine per seed and is the bit-exact path (use "
            "--jobs for cores); 'batch' runs each point's seeds in one "
            "vectorized lockstep engine — faster in aggregate from "
            "about 16 seeds, statistically (not bitwise) equivalent, "
            "filed under its own store addresses; requires "
            "--flow-control conservative (see docs/performance.md)"
        ),
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=32,
        metavar="B",
        help="max seeds per lockstep batch with --backend batch",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        help=(
            "worker processes for the sweep (default 1 = serial; "
            "every (algorithm, load) point is independent, so a figure "
            "scales to however many cores are available)"
        ),
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help=(
            "append-only result-store file recording each finished "
            "point (one JSON record per line); re-running with the "
            "same file resumes an interrupted campaign instead of "
            "restarting it.  The file is a store repro-campaign reads "
            "(status / export / run --store) and the reverse"
        ),
    )
    parser.add_argument(
        "--csv", default=None, help="also write results to this CSV file"
    )
    parser.add_argument(
        "--obs",
        action="store_true",
        help=(
            "attach a repro.obs observer to every point: per-cycle "
            "probes, an NDJSON event trace, congestion heatmaps and "
            "phase timings, aggregated into each result's obs_metrics "
            "(and into the checkpoint file)"
        ),
    )
    parser.add_argument(
        "--obs-dir",
        default=None,
        metavar="DIR",
        help=(
            "also export per-point artifact files (trace.ndjson, "
            "probes.csv/ndjson, heatmap.csv/txt, metrics.json) into DIR; "
            "implies --obs"
        ),
    )
    parser.add_argument(
        "--obs-stride",
        type=int,
        default=None,
        metavar="N",
        help="probe sampling period in cycles (default 32)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress output"
    )
    return parser.parse_args(argv)


def _obs_settings(args: argparse.Namespace) -> Tuple[bool, dict]:
    """(enabled, obs_options) from the --obs* flags."""
    enabled = args.obs or args.obs_dir is not None
    options: dict = {}
    if args.obs_dir is not None:
        options["export_dir"] = args.obs_dir
    if args.obs_stride is not None:
        options["stride"] = args.obs_stride
    return enabled, options


def _items(
    flag: str, text: str, convert: Callable[[str], _T], kind: str
) -> List[_T]:
    """The items of a comma-separated flag value, each through
    *convert*; ValueError (carrying the message to print) unless every
    item is non-empty and converts."""
    try:
        items = [item.strip() for item in text.split(",")]
        if not all(items):
            raise ValueError(text)
        return [convert(item) for item in items]
    except ValueError:
        raise ValueError(
            f"{flag} must be {kind}, got {text!r}"
        ) from None


def _load(text: str) -> float:
    value = float(text)
    if not 0 <= value < float("inf"):
        raise ValueError(text)
    return value


def _algorithms_error(
    config: SimulationConfig, algorithms: Sequence[str]
) -> Optional[str]:
    """Why some name in *algorithms* does not build on *config*'s
    network, or None when all do."""
    topology = config.build_topology()
    for name in algorithms:
        try:
            make_algorithm(name, topology)
        except (ConfigurationError, RoutingError) as error:
            return f"--algorithms: {error}"
    return None


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse_args(argv)
    # The list flags are checked here, before any point simulates.
    seeds: Optional[List[int]] = None
    try:
        algorithms = _items(
            "--algorithms", args.algorithms, str,
            "comma-separated algorithm names",
        )
        loads = PAPER_LOADS if args.loads is None else tuple(_items(
            "--loads", args.loads, _load,
            "comma-separated non-negative numbers",
        ))
        if args.seeds is not None:
            seeds = _items(
                "--seeds", args.seeds, int, "comma-separated integers"
            )
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2

    if args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    if args.batch_size < 1:
        print(
            f"--batch-size must be >= 1, got {args.batch_size}",
            file=sys.stderr,
        )
        return 2

    obs_enabled, obs_options = _obs_settings(args)

    if args.figure is not None:
        if args.backend == "batch":
            # The paper figures pin the paper's node model (ideal flow
            # control), which the batch backend cannot evaluate; see
            # the batch module docstring.
            print(
                "--backend batch applies to custom sweeps only "
                "(the paper figures use ideal flow control)",
                file=sys.stderr,
            )
            return 2
        if seeds is not None:
            print("--seeds applies to custom sweeps; use --seed with "
                  "--figure", file=sys.stderr)
            return 2
        if args.flow_control is not None:
            print(
                "--flow-control applies to custom sweeps only "
                "(the paper figures pin the paper's node model)",
                file=sys.stderr,
            )
            return 2
        error = _algorithms_error(
            apply_profile(
                SimulationConfig(),
                args.profile if args.profile is not None
                else current_profile(),
            ),
            algorithms,
        )
        if error is not None:
            print(error, file=sys.stderr)
            return 2
        run, check = _FIGURES[args.figure]
        series = run(
            profile=args.profile,
            offered_loads=loads,
            algorithms=algorithms,
            seed=args.seed,
            verbose=not args.quiet,
            jobs=args.jobs,
            checkpoint=args.checkpoint,
            obs=obs_enabled,
            obs_options=obs_options,
        )
        title = f"Paper figure {args.figure}"
        checks = check(series)
    else:
        config = SimulationConfig(traffic=args.traffic, seed=args.seed)
        if args.profile is not None:
            config = apply_profile(config, args.profile)
        if obs_enabled:
            config = dataclasses.replace(
                config, obs=True, obs_options=obs_options
            )
        if args.flow_control is not None:
            config = dataclasses.replace(
                config, flow_control=args.flow_control
            )
        if args.backend is not None:
            try:
                config = dataclasses.replace(
                    config,
                    backend=args.backend,
                    identity=BACKEND_IDENTITY[args.backend],
                )
            except ConfigurationError as error:
                # e.g. batch over ideal flow control: surface the
                # prerequisite instead of a traceback.
                print(f"--backend {args.backend}: {error}", file=sys.stderr)
                print(
                    "hint: the batch backend needs "
                    "--flow-control conservative",
                    file=sys.stderr,
                )
                return 2
        error = _algorithms_error(config, algorithms)
        if error is not None:
            print(error, file=sys.stderr)
            return 2
        series = sweep_algorithms(
            config,
            algorithms,
            loads,
            verbose=not args.quiet,
            jobs=args.jobs,
            checkpoint=args.checkpoint,
            seeds=seeds,
            batch_size=args.batch_size,
        )
        title = f"Custom sweep: {args.traffic} traffic"
        checks = []

    print(format_figure(series, title))
    print()
    print(peak_summary(series))
    if checks:
        print()
        print(paper_figures.format_checks(checks))
    if args.csv:
        with open(args.csv, "w", newline="") as stream:
            write_csv(series, stream)
        print(f"\nwrote {args.csv}")
    if args.obs_dir is not None:
        print(f"\nobservability artifacts in {args.obs_dir}/")
    return 0 if all(passed for _, passed in checks) else (1 if checks else 0)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
