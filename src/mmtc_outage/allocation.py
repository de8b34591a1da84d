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


def build_graph(scenario: Scenario) -> InterferenceGraph:
    """Conflict graph: same-collector cliques plus directed-proximity edges.

    Two tuples of distinct collectors conflict when the collectors are
    closer than (interference_factor + 1) deployment radii and either beam
    points at the opposite collector.  A beam points at a collector when
    its boresight lies strictly within half a beamwidth (pi / L) of the
    direction toward it.
    """
    num_cns, beams = scenario.num_cns, scenario.num_beams
    delta = scenario.cn_positions[None, :, :] - scenario.cn_positions[:, None, :]  # (K, K, 2)
    reach = (scenario.config.interference_factor + 1.0) * scenario.config.deploy_radius
    near = (np.hypot(delta[..., 0], delta[..., 1]) < reach) & ~np.eye(num_cns, dtype=bool)
    direction = np.arctan2(delta[..., 1], delta[..., 0])
    offset = scenario.beam_angles - direction[..., None]  # (K, K, L)
    points = np.abs((offset + np.pi) % (2.0 * np.pi) - np.pi) < np.pi / beams
    # adj[k, l, k2, l2]: beam l of k points at k2, or beam l2 of k2 points at k
    adj = near[:, None, :, None] & (
        points.transpose(0, 2, 1)[:, :, :, None] | points.transpose(1, 0, 2)[:, None, :, :]
    )
    adj |= np.eye(num_cns, dtype=bool)[:, None, :, None] & ~np.eye(beams, dtype=bool)[:, None]
    return InterferenceGraph(adj.reshape(num_cns * beams, -1))


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


def _palette_bound(mode: str, num_resources: int, color_bound: int | None) -> int:
    full = access.color_bound(mode, num_resources)
    if color_bound is None:
        return full
    if not 1 <= color_bound <= full:
        raise ValueError(
            f"color_bound {color_bound} must lie in 1..{full}, the {mode}-mode palette bound"
        )
    return color_bound


def random_allocate(
    scenario: Scenario,
    mode: str,
    seed: int,
    color_bound: int | None = None,
) -> access.ResourceAllocation:
    """Colors drawn iid uniform on {0, ..., bound} (0 switches a tuple off)."""
    bound = _palette_bound(mode, scenario.config.num_resources, color_bound)
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
    bound = _palette_bound(mode, num_resources, config.color_bound)
    alloc = random_allocate(scenario, mode, config.init_seed, config.color_bound)
    cache = engine.outage_vector(alloc)
    objective = float(cache.mean())
    trace = [objective]
    order = graph.sweep_order()
    colors = np.arange(bound + 1)
    palette = access.decode_holds(colors, mode, num_resources)
    flat = alloc.colors.reshape(-1).copy()
    holds = alloc.holds.copy()

    for _ in range(config.max_iterations):
        for node in order:
            current = flat[node]
            others = colors != current
            vectors = engine.palette_outage(holds, node, palette[others], cache)
            # the current color enters at its own value; argmin takes the first of a tie
            chosen = np.argmin(np.insert(vectors.mean(axis=1), current, objective))
            if chosen != current:
                cache = vectors[chosen - (chosen > current)]  # rows skip the current color
                objective = float(cache.mean())
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
