"""Resource allocation over the collector/beam interference graph.

Nodes are (collector, beam) tuples.  Beams of one collector always conflict;
beams of distinct collectors conflict when the collectors are close enough
for their deployment regions to overlap (scaled by the interference factor)
and at least one of the two beams points toward the other collector.

Colors are resource subsets (resource ids in single mode, subset codes in
multiple mode, 0 = switched off).  The greedy minimizer sweeps nodes in
descending-degree order, re-coloring each node to the palette color with the
lowest scenario-average outage, and stops when a full sweep improves the
objective by less than the configured threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import access
from .outage import GcOutageEngine
from .scenario import Scenario

__all__ = [
    "InterferenceGraph",
    "GreedyConfig",
    "GreedyResult",
    "beam_points_at",
    "build_graph",
    "greedy_allocate",
    "random_allocate",
    "write_trace_csv",
]


@dataclass(frozen=True, eq=False)
class InterferenceGraph:
    """Symmetric conflict graph over the K*L collector/beam tuples."""

    adjacency: np.ndarray

    def __post_init__(self) -> None:
        adj = np.asarray(self.adjacency, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {adj.shape}")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        if adj.trace() != 0:
            raise ValueError("adjacency must have a zero diagonal")
        adj.setflags(write=False)
        object.__setattr__(self, "adjacency", adj)

    @property
    def num_nodes(self) -> int:
        return self.adjacency.shape[0]

    @property
    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1)

    def sweep_order(self) -> np.ndarray:
        """Node ids in descending degree, index order breaking ties."""
        return np.argsort(-self.degrees, kind="stable")


def _wrapped_angle(a: float, b: float) -> float:
    """Absolute angular distance in [0, pi]."""
    return abs((a - b + math.pi) % (2.0 * math.pi) - math.pi)


def beam_points_at(scenario: Scenario, cn: int, beam: int, other_cn: int) -> bool:
    """True when the beam's boresight is within half a beamwidth (pi / L)
    of the direction from its collector toward the other collector."""
    delta = scenario.cn_positions[other_cn] - scenario.cn_positions[cn]
    direction = math.atan2(float(delta[1]), float(delta[0]))
    width = math.pi / scenario.num_beams
    return _wrapped_angle(float(scenario.beam_angles[beam]), direction) < width


def build_graph(scenario: Scenario) -> InterferenceGraph:
    """Conflict graph: same-collector cliques plus directed-proximity edges.

    Two tuples of distinct collectors conflict when the collectors are
    closer than (interference_factor + 1) deployment radii and either beam
    points at the opposite collector.
    """
    num_cns = scenario.num_cns
    beams = scenario.num_beams
    size = num_cns * beams
    adj = np.zeros((size, size), dtype=bool)
    for k in range(num_cns):
        block = slice(k * beams, (k + 1) * beams)
        adj[block, block] = ~np.eye(beams, dtype=bool)
    reach = (scenario.config.interference_factor + 1.0) * scenario.config.deploy_radius
    for k in range(num_cns):
        for k2 in range(k + 1, num_cns):
            gap = float(np.hypot(*(scenario.cn_positions[k2] - scenario.cn_positions[k])))
            if gap >= reach:
                continue
            toward = [beam_points_at(scenario, k, l, k2) for l in range(beams)]
            backward = [beam_points_at(scenario, k2, l, k) for l in range(beams)]
            for l in range(beams):
                for l2 in range(beams):
                    if toward[l] or backward[l2]:
                        a, b = k * beams + l, k2 * beams + l2
                        adj[a, b] = adj[b, a] = True
    return InterferenceGraph(adj)


@dataclass(frozen=True)
class GreedyConfig:
    """Stopping and palette knobs for the greedy sweep minimizer."""

    max_iterations: int = 10
    improvement_threshold: float = 1e-4
    color_bound: int | None = None  # None: the mode's full palette
    init_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        if not self.improvement_threshold >= 0.0:
            raise ValueError("improvement_threshold must be >= 0")
        if self.color_bound is not None and self.color_bound < 1:
            raise ValueError("color_bound must be >= 1 when given")


@dataclass(frozen=True, eq=False)
class GreedyResult:
    """Final allocation plus the objective after init and every sweep."""

    allocation: access.ResourceAllocation
    trace: tuple[float, ...]

    @property
    def objective(self) -> float:
        return self.trace[-1]


def _palette_bound(mode: str, num_resources: int, config: GreedyConfig) -> int:
    full = access.color_bound(mode, num_resources)
    if config.color_bound is None:
        return full
    if config.color_bound > full:
        raise ValueError(
            f"color_bound {config.color_bound} exceeds the {mode}-mode "
            f"palette bound {full}"
        )
    return config.color_bound


def random_allocate(
    scenario: Scenario,
    mode: str,
    seed: int,
    color_bound: int | None = None,
) -> access.ResourceAllocation:
    """Colors drawn iid uniform on {0, ..., bound} (0 switches a tuple off)."""
    bound = _palette_bound(mode, scenario.config.num_resources, GreedyConfig(color_bound=color_bound))
    rng = np.random.default_rng(seed)
    colors = rng.integers(0, bound + 1, size=(scenario.num_cns, scenario.num_beams))
    return access.ResourceAllocation(mode, colors, scenario.config.num_resources)


def greedy_allocate(
    scenario: Scenario,
    mode: str,
    config: GreedyConfig | None = None,
    *,
    graph: InterferenceGraph | None = None,
    engine: GcOutageEngine | None = None,
) -> GreedyResult:
    """Sweep-descent coloring that minimizes the scenario-average outage.

    Starts from :func:`random_allocate`'s colors (the result when
    ``max_iterations`` is 0), then repeatedly re-colors
    nodes in descending-degree order, setting each to the smallest color
    attaining the minimum objective.  The palette is decoded once; each node's
    candidate colors are scored together by
    :meth:`GcOutageEngine.palette_outage`, whose scores equal a full
    :meth:`GcOutageEngine.outage_vector` of each re-colored allocation bit
    for bit, and a ``ResourceAllocation`` is built only for the starting
    colors and the result.
    """
    config = config or GreedyConfig()
    graph = graph or build_graph(scenario)
    engine = engine or GcOutageEngine(scenario)
    if graph.num_nodes != scenario.num_tuples:
        raise ValueError(
            f"graph has {graph.num_nodes} nodes but the scenario has "
            f"{scenario.num_tuples} tuples"
        )
    num_resources = scenario.config.num_resources
    bound = _palette_bound(mode, num_resources, config)
    alloc = random_allocate(scenario, mode, config.init_seed, config.color_bound)
    cache = engine.outage_vector(alloc)
    objective = float(cache.mean())
    trace = [objective]
    order = graph.sweep_order()
    palette = access.decode_holds(np.arange(bound + 1), mode, num_resources)
    flat = alloc.colors.reshape(-1).copy()
    holds = alloc.holds.copy()

    for _ in range(config.max_iterations):
        for node in order:
            current = int(flat[node])
            options = [color for color in range(bound + 1) if color != current]
            vectors = engine.palette_outage(holds, node, palette[options], cache)
            best = (objective, current, cache)
            for color, vector in zip(options, vectors):
                value = float(vector.mean())
                if value < best[0] or (value == best[0] and color < best[1]):
                    best = (value, color, vector)
            objective, chosen, cache = best
            flat[node] = chosen
            holds[node] = palette[chosen]
        trace.append(objective)
        if trace[-2] - trace[-1] < config.improvement_threshold:
            break
    final = access.ResourceAllocation(mode, flat.reshape(alloc.colors.shape), num_resources)
    return GreedyResult(final, tuple(trace))


def write_trace_csv(result: GreedyResult, path: str | Path) -> None:
    """Objective after initialization (iteration 0) and after each sweep."""
    lines = [
        f"# greedy mode={result.allocation.mode} "
        f"num_resources={result.allocation.num_resources}"
    ]
    lines.append("iteration,average_outage")
    for step, value in enumerate(result.trace):
        lines.append(f"{step},{float(value)!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")
