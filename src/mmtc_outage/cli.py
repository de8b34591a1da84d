"""Command-line front end.

Subcommands map onto the library's main operations:

* ``gen``      scenario from a config file -> scenario.csv
* ``approx``   reference-vs-series cdf comparison for one sensor -> cdf_compare.csv
* ``sweep``    approximation-error / allocation sweeps -> <experiment>.csv
* ``allocate`` greedy coloring -> allocation.csv + trace.csv
* ``report``   per-sensor outage of the allocation.csv ``allocate`` wrote -> outage.csv

Every subcommand, and every ``sweep`` experiment, takes ``--config``
(key=value file; library defaults when omitted), ``--seed`` (overrides the
config seed and derives all other randomness) and ``--out`` (output
directory), and rejects any flag it does not read.  Exit codes: 0 on
success, 1 on runtime failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import access, allocation, experiments, outage
from .scenario import (
    ScenarioConfig,
    config_summary,
    generate_scenario,
    load_scenario_config,
    write_scenario_csv,
)

__all__ = ["build_parser", "main", "entry"]


_OPTIONAL_FLAGS = {
    "--mode": dict(choices=access.MODES, default="single", help="resource mode"),
    "--method": dict(default="cf", help="outage evaluator: gc0..gc5, gc (=gc5), cf, or mc"),
    "--grid-points": dict(
        type=int, default=1 << 12, help="frequency-grid size for cf evaluations (power of two)"
    ),
    "--values": dict(default="", help="comma-separated sensor counts or activities"),
    "--orders": dict(default="0,1,2,3,4,5", help="comma-separated series orders"),
    "--reps": dict(type=int, default=1, help="repetitions per point"),
    "--cdf-points": dict(type=int, default=201, help="grid size for outage_cdf"),
}

_ERROR_SWEEP = ("--grid-points", "--values", "--orders", "--reps")
_OUTAGE_SWEEP = ("--mode", "--method", "--grid-points", "--values", "--reps")
_SWEEP_FLAGS = {
    "error_vs_m": _ERROR_SWEEP,
    "error_vs_p": _ERROR_SWEEP,
    "outage_vs_m": _OUTAGE_SWEEP,
    "outage_vs_p": _OUTAGE_SWEEP,
    "outage_cdf": ("--mode", "--method", "--grid-points", "--reps", "--cdf-points"),
}


def _add_shared(parser: argparse.ArgumentParser, *optional: str) -> None:
    """Add --config, --seed and --out, plus the named ``_OPTIONAL_FLAGS``."""
    parser.add_argument("--config", metavar="PATH", help="scenario config file")
    parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    parser.add_argument("--out", metavar="DIR", default=".", help="output directory (default: .)")
    for flag in optional:
        parser.add_argument(flag, **_OPTIONAL_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmtc-outage",
        description="Interference statistics, outage, and beam resource allocation",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("gen", help="generate a scenario CSV")
    _add_shared(gen)

    approx = commands.add_parser(
        "approx", help="compare series orders against the reference law"
    )
    _add_shared(approx, "--grid-points")
    approx.add_argument(
        "--sensor", type=int, default=0, help="sensor id to analyze (default 0)"
    )

    sweep = commands.add_parser("sweep", help="run a sweep experiment")
    sweeps = sweep.add_subparsers(dest="experiment", metavar="experiment", required=True)
    for name, flags in _SWEEP_FLAGS.items():
        experiment = sweeps.add_parser(name)
        _add_shared(experiment, *flags)
        # the flags it does not read keep the defaults that ExperimentSpec records
        experiment.set_defaults(**{
            flag[2:].replace("-", "_"): spec["default"]
            for flag, spec in _OPTIONAL_FLAGS.items() if flag not in flags
        })

    alloc = commands.add_parser("allocate", help="color the interference graph")
    _add_shared(alloc, "--mode")
    alloc.add_argument("--max-iterations", type=int, default=10)
    alloc.add_argument("--improvement-threshold", type=float, default=1e-4)
    alloc.add_argument("--color-bound", type=int, default=None)

    report = commands.add_parser("report", help="per-sensor outage report")
    _add_shared(report, "--method", "--grid-points")
    report.add_argument(
        "--allocation", metavar="PATH", required=True, help="allocation CSV written by allocate"
    )
    report.add_argument("--draws", type=int, default=100_000, help="draws for --method mc")
    return parser


def _load_config(args) -> ScenarioConfig:
    config = load_scenario_config(args.config) if args.config else ScenarioConfig()
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    return config


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_gen(args) -> int:
    config = _load_config(args)
    scenario = generate_scenario(config)
    write_scenario_csv(scenario, _out_dir(args) / "scenario.csv")
    return 0


def _cmd_approx(args) -> int:
    config = _load_config(args)
    spec = experiments.ExperimentSpec(
        experiment="cdf_compare",
        config=config,
        seed=config.seed,
        sensor=args.sensor,
        grid_points=args.grid_points,
    )
    result = experiments.run_experiment(spec)
    experiments.write_experiment_csv(result, _out_dir(args) / "cdf_compare.csv")
    return 0


def _cmd_sweep(args) -> int:
    config = _load_config(args)
    spec = experiments.ExperimentSpec(
        experiment=args.experiment,
        config=config,
        seed=config.seed,
        mode=args.mode,
        method=args.method,
        sweep=tuple(float(v) for v in args.values.split(",") if v.strip()),
        orders=tuple(int(v) for v in args.orders.split(",") if v.strip()),
        reps=args.reps,
        grid_points=args.grid_points,
        cdf_points=args.cdf_points,
    )
    result = experiments.run_experiment(spec)
    experiments.write_experiment_csv(result, _out_dir(args) / f"{args.experiment}.csv")
    return 0


def _cmd_allocate(args) -> int:
    config = _load_config(args)
    scenario = generate_scenario(config)
    out = _out_dir(args)
    result = allocation.greedy_allocate(
        scenario,
        args.mode,
        allocation.GreedyConfig(
            max_iterations=args.max_iterations,
            improvement_threshold=args.improvement_threshold,
            color_bound=args.color_bound,
            init_seed=config.seed,
        ),
    )
    allocation.write_trace_csv(result, out / "trace.csv")
    access.write_allocation_csv(
        result.allocation, out / "allocation.csv", note=f"config: {config_summary(config)}"
    )
    return 0


def _cmd_report(args) -> int:
    config = _load_config(args)
    scenario = generate_scenario(config)
    alloc = access.read_allocation_csv(args.allocation)
    shape = (alloc.num_cns, alloc.num_beams)
    if shape != (scenario.num_cns, scenario.num_beams):
        raise ValueError(
            f"allocation has {shape[0]} x {shape[1]} collector/beam tuples "
            f"but the scenario has {scenario.num_cns} x {scenario.num_beams}"
        )
    if alloc.num_resources != config.num_resources:
        raise ValueError(
            f"allocation has num_resources={alloc.num_resources}, "
            f"but the config has num_resources={config.num_resources}"
        )
    summary = config_summary(config)
    header = Path(args.allocation).read_text(encoding="utf-8").partition("\n")[0]
    written_for = header.partition(" config: ")[2] or "(none recorded)"
    if written_for != summary:
        raise ValueError(
            f"allocation was written for config: {written_for}, "
            f"but this run's config is: {summary}"
        )
    method = outage.parse_method(args.method, args.grid_points, args.draws, config.seed)
    report = outage.average_outage(alloc, scenario, method)
    setting = {"cf": "grid_points", "mc": "draws"}.get(method.label)  # the series read none
    recorded = f"{setting}={getattr(method, setting)} " if setting else ""
    note = f"{recorded}config: {summary}"
    outage.write_outage_csv(report, _out_dir(args) / "outage.csv", note=note)
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "approx": _cmd_approx,
    "sweep": _cmd_sweep,
    "allocate": _cmd_allocate,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except OSError as exc:
        name = exc.filename if exc.filename else ""
        print(f"error: {name}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    except (ValueError, TypeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
