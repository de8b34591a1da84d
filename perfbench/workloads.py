"""The three benchmark workloads: set-up, one round of operations, checks.

Each workload is built once per process (its set-up is timed as
``setup_s``), then runs whole rounds of the same top-level library calls.
``check`` compares one round's outputs with computations made apart from
the program (see ``checks``) and returns the faults of each operation.
Sizes are chosen so one round takes about ten seconds on two cores; the
README records why each workload exists and which layers it bypasses.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np

import checks
import tracer as tracer_mod
from mmtc_outage import allocation, experiments, outage, scenario as scenario_mod

DESK = Path("configs") / "desk.cfg"


def _load_desk(root: Path, **overrides):
    return replace(scenario_mod.load_scenario_config(root / DESK), **overrides)


def _sets(alloc) -> list[frozenset]:
    return checks.resource_sets(alloc.colors, alloc.mode, alloc.num_resources)


def _law(scn, sets, sensor: int) -> checks.SensorLaw:
    return checks.SensorLaw(
        scn.powers_at, scn.det_node, scn.activities, scn.own_power,
        scn.noise_power, scn.config.detection_threshold, sets, sensor,
    )


class GreedyDesk:
    """Greedy coloring of the desk scenario in both modes.

    desk.cfg with its own seed; ``--seed`` draws the random start.  Sweep
    counts are fixed (improvement threshold 0), so every seed does the same
    number of candidate evaluations: two sweeps in single mode (R + 1 colors
    per node) and one in multiple mode over the 2^3 palette of subsets of
    resources 1..3 (the CLI's ``--color-bound 7``).  The full 2^6 palette
    takes 7.5 s per sweep here, too long for the repeated short rounds that
    keep the median steady on a noisy machine.
    """

    name = "greedy_desk"
    ops = ("greedy_single", "greedy_multiple")
    SWEEPS = {"single": 2, "multiple": 1}
    COLOR_BOUND = {"single": None, "multiple": 7}
    CHECK_GRID = 1 << 9  # CF scoring of allocations, outside the timed region

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.scenario = scenario_mod.generate_scenario(_load_desk(root))
        self.graph = allocation.build_graph(self.scenario)
        self.engine = outage.GcOutageEngine(self.scenario)

    def run_op(self, op: str):
        mode = op.split("_")[1]
        cfg = allocation.GreedyConfig(
            max_iterations=self.SWEEPS[mode], improvement_threshold=0.0,
            color_bound=self.COLOR_BOUND[mode], init_seed=self.seed,
        )
        return allocation.greedy_allocate(
            self.scenario, mode, cfg, graph=self.graph, engine=self.engine
        )

    @staticmethod
    def same(a, b) -> bool:
        return np.array_equal(a.allocation.colors, b.allocation.colors) and a.trace == b.trace

    def check(self, outputs: dict) -> tuple[dict, dict]:
        scn = self.scenario
        faults, figures, cf_greedy = {}, {}, {}
        for op in self.ops:
            mode = op.split("_")[1]
            result = outputs[op]
            found = checks.check_trace(result.trace, op)
            gc5 = outage.GramCharlierMethod(5)
            scalar = [outage.outage_multi(result.allocation, scn, i, gc5) for i in range(scn.num_sensors)]
            found += checks.check_scalar_match(scalar, result.trace[-1], op)
            start = allocation.random_allocate(scn, mode, self.seed, self.COLOR_BOUND[mode])
            cf_greedy[mode] = float(outage.batch_cf_outage(result.allocation, scn, self.CHECK_GRID).mean())
            cf_start = float(outage.batch_cf_outage(start, scn, self.CHECK_GRID).mean())
            found += checks.check_below(cf_greedy[mode], cf_start, f"{op}: CF average vs its random start")
            faults[op] = found
            figures[mode] = {
                "sweeps": len(result.trace) - 1,
                "gc5_start": result.trace[0],
                "gc5_final": result.trace[-1],
                "cf_start": cf_start,
                "cf_final": cf_greedy[mode],
            }
        faults["greedy_multiple"] += checks.check_below(
            cf_greedy["multiple"], cf_greedy["single"],
            "greedy_multiple: CF average vs greedy single", strict=False,
        )
        return faults, figures

    def op_metrics(self, times: dict) -> dict:
        return {"greedy_single_s": times["greedy_single"], "greedy_multiple_s": times["greedy_multiple"]}


_MODES = ("single", "multiple")
_CF_SENSORS = 80
_CF_SUBSET = tuple(range(0, _CF_SENSORS, 10))  # fixed, whatever the seed


class CfReportDesk:
    """Pooled-CF outage report of random allocations, plus per-sensor MC.

    desk.cfg at M = 80 with its own seed, and the random allocations the
    CLI's ``--strategy random`` draws from that seed; ``--seed`` drives the
    Monte Carlo draws.  The CF pass's work grows with the number of
    (sensor, held resource) pairs, whose count varies by 7% (quartile
    spread) across random allocations, so the allocation is held fixed.
    At the full M = 500 and the CLI's 4096 grid points one multiple-mode
    report takes 22 s; here the grid is halved.  At p = 0.1 every sensor
    takes the self-divide path.
    """

    name = "cf_report_desk"
    GRID = 1 << 11
    MC_DRAWS = 10_000
    OWN_DRAWS = 50_000
    ops = tuple(
        op for mode in _MODES
        for op in (f"cf_report_{mode}", *(f"mc_{mode}_{i}" for i in _CF_SUBSET))
    )

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        config = _load_desk(root, num_sensors=_CF_SENSORS)
        self.alloc_seed = config.seed
        self.scenario = scenario_mod.generate_scenario(config)
        self.alloc = {}

    def run_op(self, op: str):
        parts = op.split("_")
        if parts[0] == "cf":
            mode = parts[2]
            self.alloc[mode] = allocation.random_allocate(self.scenario, mode, self.alloc_seed)
            return outage.batch_cf_outage(self.alloc[mode], self.scenario, self.GRID)
        mode, sensor = parts[1], int(parts[2])
        return outage.monte_carlo_outage(
            self.alloc[mode], self.scenario, sensor, self.MC_DRAWS, self.seed
        )

    @staticmethod
    def same(a, b) -> bool:
        return np.array_equal(a, b)

    def check(self, outputs: dict) -> tuple[dict, dict]:
        scn = self.scenario
        faults, figures = {}, {}
        for m, mode in enumerate(_MODES):
            sets = _sets(self.alloc[mode])
            off = [i for i in range(scn.num_sensors) if not sets[scn.det_node[i]]]
            cf = outputs[f"cf_report_{mode}"]
            op = f"cf_report_{mode}"
            faults[op] = checks.check_probabilities(cf, op) + checks.check_switched_off(cf, off, op)
            figures[mode] = {"cf_average": float(np.mean(cf)), "switched_off": len(off), "subset": {}}
            for i in _CF_SUBSET:
                op = f"mc_{mode}_{i}"
                mc = outputs[op]
                law = _law(scn, sets, i)
                rng = np.random.default_rng([self.seed, 7, m, i])
                est, err, near = law.outage(self.OWN_DRAWS, rng, law.cell(self.GRID))
                found = checks.check_probabilities([mc], op)
                if i in off:
                    found += checks.check_switched_off([mc], [0], op)
                else:
                    found += checks.check_against_draws(cf[i], est, err, near, f"{op}: batch_cf_outage")
                    found += checks.check_two_estimates(
                        mc, self.MC_DRAWS, est, self.OWN_DRAWS, f"{op}: monte_carlo_outage"
                    )
                faults[op] = found
                figures[mode]["subset"][i] = {"cf": float(cf[i]), "mc": mc, "draws": est, "near": near}
        return faults, figures

    def op_metrics(self, times: dict) -> dict:
        # sensors on switched-off tuples return before drawing anything
        mc_time = sum(t for op, t in times.items() if op.startswith("mc_"))
        draws = 0
        for mode in _MODES:
            sets = _sets(self.alloc[mode])
            draws += self.MC_DRAWS * sum(1 for i in _CF_SUBSET if sets[self.scenario.det_node[i]])
        return {
            "cf_report_single_s": times["cf_report_single"],
            "cf_report_multiple_s": times["cf_report_multiple"],
            "mc_draws_per_s": draws / mc_time if mc_time > 0 else 0.0,
        }


class SeriesErrorSweep:
    """error_vs_p on both sides of the pool's self-divide limit, plus one
    cdf_compare, under complete reuse at reduced M.

    At p = 0.5 every sensor's spectrum is rebuilt from its interferers
    (quadratic in M); at p = 0.3 it is divided out of the pool.  Both points
    run the scalar series (build_model, gram_charlier, discretize, jsd) for
    every sensor and all six orders.
    """

    name = "series_error_sweep"
    NUM_SENSORS = 60
    GRID = 1 << 10
    ACTIVITIES = (0.3, 0.5)  # below and above the 0.45 self-divide limit
    CDF_SENSOR = 0
    CHECK_SENSORS = (0, 20, 40)
    OWN_DRAWS = 20_000
    ops = tuple(f"error_p{p}" for p in ACTIVITIES) + ("cdf_compare",)

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.config = _load_desk(root, num_sensors=self.NUM_SENSORS)
        self.laws = {}  # op -> captured pooled reference laws
        original = outage.pooled_cf_densities

        def capture(*args, **kwargs):
            result = original(*args, **kwargs)
            self._captured = result
            return result

        self._captured = None
        tracer_mod.rebind("mmtc_outage", original, capture)

    def _spec(self, op: str):
        if op == "cdf_compare":
            return experiments.ExperimentSpec(
                "cdf_compare", self.config, seed=self.seed,
                sensor=self.CDF_SENSOR, grid_points=self.GRID,
            )
        p = float(op[len("error_p"):])
        return experiments.ExperimentSpec(
            "error_vs_p", self.config, seed=self.seed, sweep=(p,), grid_points=self.GRID
        )

    def run_op(self, op: str):
        self._captured = None
        result = experiments.run_experiment(self._spec(op))
        if op != "cdf_compare":
            laws = self._captured or {}
            self.laws[op] = {i: laws.get((i, 1)) for i in self.CHECK_SENSORS}
        return result.rows

    @staticmethod
    def same(a, b) -> bool:
        return a == b

    def _scenario(self, activity: float):
        # scenario seed of sweep point 0, repetition 0
        state = np.random.SeedSequence([self.seed, 0, 0]).generate_state(2)
        cfg = replace(self.config, activity=activity, seed=int(state[0]))
        return scenario_mod.generate_scenario(cfg)

    def check(self, outputs: dict) -> tuple[dict, dict]:
        faults, figures = {}, {}
        for k, p in enumerate(self.ACTIVITIES):
            op = f"error_p{p}"
            rows = outputs[op]
            found = checks.check_epsilons([r[2] for r in rows], op)
            scn = self._scenario(p)
            sets = _sets(experiments.full_reuse_allocation(scn))
            for i in self.CHECK_SENSORS:
                law, dist = _law(scn, sets, i), self.laws[op][i]
                if dist is None:
                    found.append(f"{op}: no reference law captured for sensor {i}")
                    continue
                sample = checks.bernoulli_draws(
                    *law.terms(1), self.OWN_DRAWS, np.random.default_rng([self.seed, 11, k, i])
                )
                levels = np.quantile(sample, (0.1, 0.5, 0.9))
                ref = [checks.gridded_cdf(dist.masses, dist.lower, dist.upper, x) for x in levels]
                found += checks.check_cdf_levels(ref, sample, levels, law.cell(self.GRID), f"{op} sensor {i}")
            faults[op] = found
            figures[op] = {f"gc{r[1]}": r[2] for r in rows}

        rows = outputs["cdf_compare"]
        scn = self._scenario(self.config.activity)
        law = _law(scn, _sets(experiments.full_reuse_allocation(scn)), self.CDF_SENSOR)
        sample = checks.bernoulli_draws(
            *law.terms(1), self.OWN_DRAWS, np.random.default_rng([self.seed, 13])
        )
        gamma = np.array([r[0] for r in rows])
        picks = [int(np.searchsorted(gamma, x)) for x in np.quantile(sample, (0.1, 0.5, 0.9))]
        picks = [min(q, gamma.size - 1) for q in picks]
        faults["cdf_compare"] = checks.check_cdf_levels(
            [rows[q][1] for q in picks], sample, gamma[picks], law.cell(self.GRID), "cdf_compare cdf_ref"
        )
        figures["cdf_compare"] = {"rows": len(rows), "levels": gamma[picks].tolist()}
        return faults, figures

    def op_metrics(self, times: dict) -> dict:
        return {
            "error_sweep_s": sum(times[f"error_p{p}"] for p in self.ACTIVITIES),
            "cdf_compare_s": times["cdf_compare"],
        }


WORKLOADS = {w.name: w for w in (GreedyDesk, CfReportDesk, SeriesErrorSweep)}
