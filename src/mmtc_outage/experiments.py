"""Reproducible experiment runners behind the command-line interface.

Each experiment maps a spec (scenario config + sweep/seed knobs) to a flat
CSV: a comment line recording the full spec, a column-header row, then data
rows.  Re-running the same spec reproduces the file byte for byte — every
random draw derives from ``SeedSequence([seed, point, rep])``.

Approximation-error experiments score the series against the numerically
inverted reference law by Jensen-Shannon divergence averaged over sensors,
under the complete-reuse allocation (every tuple on resource 1, single
mode), which is the densest interference the scenario can produce.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import access, allocation, outage, stats_core
from .scenario import ScenarioConfig, config_summary, generate_scenario

__all__ = [
    "EXPERIMENTS",
    "ExperimentSpec",
    "ExperimentResult",
    "FloatTable",
    "empirical_cdf",
    "full_reuse_allocation",
    "run_experiment",
    "write_experiment_csv",
]

EXPERIMENTS = (
    "cdf_compare",
    "error_vs_m",
    "error_vs_p",
    "outage_vs_m",
    "outage_vs_p",
    "outage_cdf",
)

_SWEEPING = {"error_vs_m", "error_vs_p", "outage_vs_m", "outage_vs_p"}
_SERIES_BLOCK_ROWS = 16  # sensors per block: (rows, grid) temporaries of 128 KB at 1024 points


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce one experiment run."""

    experiment: str
    config: ScenarioConfig
    seed: int = 0
    mode: str = "single"
    method: str = "gc5"  # outage evaluator for the allocation sweeps
    sensor: int = 0  # cdf_compare target
    sweep: tuple[float, ...] = ()
    orders: tuple[int, ...] = (0, 1, 2, 3, 4, 5)
    reps: int = 1
    grid_points: int = 1 << 12
    cdf_points: int = 201  # outage_cdf resolution on [0, 1]

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; expected one of "
                f"{', '.join(EXPERIMENTS)}"
            )
        if self.mode not in access.MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        outage.parse_method(self.method)  # fail fast on typos
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.sensor < 0:
            raise ValueError("sensor must be >= 0")
        q = self.grid_points
        if q < 64 or q & (q - 1):
            raise ValueError(f"grid_points must be a power of two >= 64, got {q}")
        if not self.orders or any(not 0 <= k <= 5 for k in self.orders):
            raise ValueError("orders must be a nonempty subset of 0..5")
        if len(set(self.orders)) != len(self.orders):
            raise ValueError(f"orders must not repeat, got {self.orders}")
        if self.cdf_points < 2:
            raise ValueError("cdf_points must be >= 2")
        if self.experiment in _SWEEPING and not self.sweep:
            raise ValueError(f"{self.experiment} needs a nonempty sweep")
        whole = all(float(v).is_integer() for v in self.sweep)
        if self.experiment.endswith("_vs_m") and not whole:
            raise ValueError(f"{self.experiment} sweeps whole sensor counts, got {self.sweep}")
        # an error sweep scores continuous approximations, which a law with
        # no variance (activity 0 or 1, or a lone sensor) does not have
        if self.experiment == "error_vs_p" and not all(0.0 < v < 1.0 for v in self.sweep):
            raise ValueError(f"error_vs_p sweeps activities strictly between 0 and 1, got {self.sweep}")
        if self.experiment == "error_vs_m" and any(v < 2 for v in self.sweep):
            raise ValueError(f"error_vs_m sweeps at least 2 sensors, got {self.sweep}")

    def summary(self) -> str:
        sweep = ";".join(repr(float(v)) for v in self.sweep)
        orders = ";".join(str(k) for k in self.orders)
        return (
            f"# {self.experiment} seed={self.seed} mode={self.mode} "
            f"method={self.method} sensor={self.sensor} reps={self.reps} "
            f"grid_points={self.grid_points} cdf_points={self.cdf_points} "
            f"sweep=[{sweep}] orders=[{orders}] "
            f"config: {config_summary(self.config)}"
        )


class FloatTable(Sequence):
    """Rows of an all-float table, kept as one read-only float64 array and
    read back as tuples of Python floats, so it compares and hashes like the
    tuple of row tuples it stands for.  A value takes 8 bytes instead of the
    about 32 of a float object and its tuple slot, which counts for
    grid-sized tables (cdf_compare has one row per grid point)."""

    def __init__(self, columns) -> None:
        self._values = np.column_stack(columns).astype(float, copy=False)
        self._values.flags.writeable = False

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, index):
        rows = self._values[index].tolist()
        return tuple(map(tuple, rows)) if isinstance(index, slice) else tuple(rows)

    def __eq__(self, other) -> bool:
        if isinstance(other, FloatTable):
            return np.array_equal(self._values, other._values)
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))


@dataclass(frozen=True)
class ExperimentResult:
    spec_line: str
    columns: tuple[str, ...]
    rows: Sequence[tuple]


def _derived_entropy(seed: int, point: int, rep: int) -> tuple[int, int, int]:
    """Scenario, allocation and Monte Carlo seeds of one (point, rep)."""
    state = np.random.SeedSequence([seed, point, rep]).generate_state(3)
    return int(state[0]), int(state[1]), int(state[2])


def full_reuse_allocation(scenario) -> access.ResourceAllocation:
    """Every tuple transmitting on resource 1 (single mode): complete reuse."""
    colors = np.ones((scenario.num_cns, scenario.num_beams), dtype=np.int64)
    return access.ResourceAllocation("single", colors, scenario.config.num_resources)


def empirical_cdf(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Fraction of values <= each grid point."""
    ordered = np.sort(np.asarray(values, dtype=float))
    return np.searchsorted(ordered, np.asarray(grid), side="right") / ordered.size


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_experiment_csv(result: ExperimentResult, path: str | Path) -> None:
    lines = [result.spec_line, ",".join(result.columns)]
    for row in result.rows:
        lines.append(",".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")


# ---------------------------------------------------------------------------
# individual experiments


def _cdf_compare(spec: ExperimentSpec) -> ExperimentResult:
    scenario_seed = _derived_entropy(spec.seed, 0, 0)[0]
    scenario = generate_scenario(replace(spec.config, seed=scenario_seed))
    if not 0 <= spec.sensor < scenario.num_sensors:
        raise ValueError(
            f"sensor {spec.sensor} out of range for {scenario.num_sensors} sensors"
        )
    alloc = full_reuse_allocation(scenario)
    reference = outage.pooled_cf_densities(
        alloc, scenario, spec.grid_points, sensors=np.array([spec.sensor])
    )[(spec.sensor, 1)]
    width = (reference.upper - reference.lower) / reference.num_bins
    gamma = reference.grid + width  # cdf evaluated at right bin edges
    curves = [np.cumsum(reference.masses)]
    for _, masses in _series_masses(alloc, scenario, [spec.sensor], [reference], range(6)):
        curves.append(np.cumsum(masses[0]))
    columns = ("gamma", "cdf_ref") + tuple(f"cdf_gc{k}" for k in range(6))
    return ExperimentResult(spec.summary(), columns, FloatTable([gamma] + curves))


def _series_masses(alloc, scenario, sensors, references, orders):
    """Yield (order, masses): masses[r] is the order's gridded series law of
    sensors[r] on resource 1, on references[r]'s grid.  One pass of
    stats_core._series_coefficients covers every requested order."""
    kappa, supports = [], []
    for i in sensors:
        weights, probs = outage.interference_terms(alloc, scenario, i, 1)
        kappa.append(stats_core._cumulant_sums(weights, probs, 5))
        supports.append(weights.sum())
    supports = np.array(supports)
    mu, sigma, _, norm, an = stats_core._series_coefficients(
        np.array(kappa), supports, orders, stats_core._ndtr_rows
    )
    cols = [v[:, None] for v in (mu, sigma, norm)]
    lower = np.array([ref.lower for ref in references])
    upper = np.array([ref.upper for ref in references])
    for order, rows in zip(orders, an):
        coeffs = rows.T[:, :, None]
        yield order, stats_core._gridded_masses(
            lambda x: stats_core._series_density(x, *cols, coeffs, 0.0, supports[:, None]),
            lower, upper, references[0].num_bins, supports,
        )


def _series_divergence(scenario, alloc, orders, grid_points) -> dict[int, float]:
    """Mean-over-sensors JSD between the gridded reference law and each
    series order, all on the destination-shared reference grid.

    Sensors are scored in blocks of ``_SERIES_BLOCK_ROWS`` rows: one
    coefficient pass per block (the routine behind the scalar series and
    the GC engine) covers every order, and each order's masses and
    divergences are the scalar discretize and jsd applied row-wise.
    """
    dists = outage.pooled_cf_densities(alloc, scenario, grid_points)
    sums = {order: 0.0 for order in orders}
    for start in range(0, scenario.num_sensors, _SERIES_BLOCK_ROWS):
        sensors = range(start, min(start + _SERIES_BLOCK_ROWS, scenario.num_sensors))
        references = [dists[(i, 1)] for i in sensors]
        reference = np.array([ref.masses for ref in references])
        for order, masses in _series_masses(alloc, scenario, sensors, references, orders):
            sums[order] += float(stats_core._jsd_rows(reference, masses).sum())
    return {order: total / scenario.num_sensors for order, total in sums.items()}


def _sweep_points(spec: ExperimentSpec, vary: str):
    """Yield (point, value, config), ``value`` cast to ``vary``'s field type."""
    cast = int if vary == "num_sensors" else float
    for point, value in enumerate(spec.sweep):
        yield point, cast(value), replace(spec.config, **{vary: cast(value)})


def _error_sweep(spec: ExperimentSpec, vary: str) -> ExperimentResult:
    rows = []
    for point, value, cfg in _sweep_points(spec, vary):
        totals = {order: 0.0 for order in spec.orders}
        for rep in range(spec.reps):
            scenario_seed = _derived_entropy(spec.seed, point, rep)[0]
            scenario = generate_scenario(replace(cfg, seed=scenario_seed))
            eps = _series_divergence(
                scenario, full_reuse_allocation(scenario), spec.orders, spec.grid_points
            )
            for order in spec.orders:
                totals[order] += eps[order]
        for order in spec.orders:
            rows.append((value, order, totals[order] / spec.reps))
    return ExperimentResult(
        spec.summary(), ("sweep_value", "order", "epsilon"), tuple(rows)
    )


def _outage_report(spec: ExperimentSpec, alloc, scenario, mc_seed: int) -> np.ndarray:
    method = outage.parse_method(spec.method, spec.grid_points, seed=mc_seed)
    return outage.average_outage(alloc, scenario, method).per_sensor


def _allocations_for(spec: ExperimentSpec, cfg: ScenarioConfig, point: int, rep: int):
    scenario_seed, alloc_seed, mc_seed = _derived_entropy(spec.seed, point, rep)
    scenario = generate_scenario(replace(cfg, seed=scenario_seed))
    greedy = allocation.greedy_allocate(
        scenario, spec.mode, allocation.GreedyConfig(init_seed=alloc_seed)
    ).allocation
    baseline = allocation.random_allocate(scenario, spec.mode, alloc_seed)
    return scenario, greedy, baseline, mc_seed


def _outage_sweep(spec: ExperimentSpec, vary: str) -> ExperimentResult:
    rows = []
    for point, value, cfg in _sweep_points(spec, vary):
        averages = {"greedy": 0.0, "random": 0.0}
        for rep in range(spec.reps):
            scenario, greedy, baseline, mc_seed = _allocations_for(spec, cfg, point, rep)
            for strategy, alloc in (("greedy", greedy), ("random", baseline)):
                report = _outage_report(spec, alloc, scenario, mc_seed)
                averages[strategy] += float(report.mean())
        for strategy in ("greedy", "random"):
            rows.append((value, strategy, spec.mode, averages[strategy] / spec.reps))
    return ExperimentResult(
        spec.summary(),
        ("sweep_value", "strategy", "mode", "avg_pout"),
        tuple(rows),
    )


def _outage_cdf(spec: ExperimentSpec) -> ExperimentResult:
    greedy_values, random_values = [], []
    for rep in range(spec.reps):
        scenario, greedy, baseline, mc_seed = _allocations_for(spec, spec.config, 0, rep)
        greedy_values.append(_outage_report(spec, greedy, scenario, mc_seed))
        random_values.append(_outage_report(spec, baseline, scenario, mc_seed))
    grid = np.linspace(0.0, 1.0, spec.cdf_points)
    f_greedy = empirical_cdf(np.concatenate(greedy_values), grid)
    f_random = empirical_cdf(np.concatenate(random_values), grid)
    return ExperimentResult(
        spec.summary(),
        ("pout", "F_greedy", "F_random"),
        FloatTable([grid, f_greedy, f_random]),
    )


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    if spec.experiment == "cdf_compare":
        return _cdf_compare(spec)
    if spec.experiment == "error_vs_m":
        return _error_sweep(spec, "num_sensors")
    if spec.experiment == "error_vs_p":
        return _error_sweep(spec, "activity")
    if spec.experiment == "outage_vs_m":
        return _outage_sweep(spec, "num_sensors")
    if spec.experiment == "outage_vs_p":
        return _outage_sweep(spec, "activity")
    return _outage_cdf(spec)
