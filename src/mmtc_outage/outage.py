"""Per-sensor outage probabilities under SINR thresholding.

A sensor is in outage when its SINR falls below the detection threshold,
which happens exactly when the aggregated interference at its detector
exceeds ``own_power / threshold - noise_power``.  Three evaluation routes
are provided: the closed-form series tail (truncated-Gaussian kernel with
a Hermite correction), numerical characteristic-function inversion, and
Monte Carlo sampling of the interference terms.

Beyond the per-sensor operations, two batched evaluators make scenario-wide
sweeps affordable: :class:`GcOutageEngine` pools per-tuple power sums so one
full-objective evaluation costs microseconds per sensor (this is what the
greedy allocator iterates), and :func:`batch_cf_outage` shares the other
tuples' characteristic-function factor products across all sensors detected
at one collector/beam tuple, times leave-one-out products of its own factors.
Both batched routes decide each (sensor, resource) pair's edge cases with one
rule (:func:`_pair_edges`) before any law is built, so the CF route inverts
only the pairs whose law decides the outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .access import ResourceAllocation, effective_probabilities
from .scenario import Scenario
from .stats_core import (
    _GRID_OVERSAMPLE,
    _bernoulli_cumulants,
    _bernoulli_factor,
    _cf_spectrum_grid,
    _invert_spectrum,
    _series_coefficients,
    _series_tails,
    DiscretizedDistribution,
    build_model,
    cf_density,
    gram_charlier,
    tail_probability,
)

__all__ = [
    "GramCharlierMethod",
    "CharFnMethod",
    "MonteCarloMethod",
    "OutageMethod",
    "OutageReport",
    "parse_method",
    "interference_headroom",
    "interference_terms",
    "outage_single",
    "outage_multi",
    "monte_carlo_outage",
    "average_outage",
    "GcOutageEngine",
    "batch_cf_outage",
    "pooled_cf_densities",
    "write_outage_csv",
]


@dataclass(frozen=True)
class GramCharlierMethod:
    """Closed-form series tail of the given order (0 = bare kernel)."""

    order: int = 5

    def __post_init__(self) -> None:
        if not 0 <= self.order <= 5:
            raise ValueError(f"series order must lie in 0..5, got {self.order}")

    @property
    def label(self) -> str:
        return f"gc{self.order}"


@dataclass(frozen=True)
class CharFnMethod:
    """Numerical characteristic-function inversion on a power-of-two grid."""

    grid_points: int = 1 << 16

    @property
    def label(self) -> str:
        return "cf"


@dataclass(frozen=True)
class MonteCarloMethod:
    """Empirical frequency over independent draws of the interference terms."""

    draws: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.draws < 1:
            raise ValueError("draws must be >= 1")

    @property
    def label(self) -> str:
        return "mc"


OutageMethod = Union[GramCharlierMethod, CharFnMethod, MonteCarloMethod]


def parse_method(
    text: str, grid_points: int = 1 << 16, draws: int = 100_000, seed: int = 0
) -> OutageMethod:
    """Method from a CLI-style name: gc0..gc5 (or gc = gc5), cf, mc.

    This is the one place a name becomes a method: ``grid_points`` goes to
    cf and ``draws`` and ``seed`` to mc, and the series ignore all three.
    The defaults are the method classes' own, so ``parse_method("cf") ==
    CharFnMethod()``.
    """
    name = text.strip().lower()
    if name == "cf":
        return CharFnMethod(grid_points)
    if name == "mc":
        return MonteCarloMethod(draws, seed)
    if name == "gc":
        return GramCharlierMethod(5)
    if len(name) == 3 and name.startswith("gc") and name[2].isdigit():
        return GramCharlierMethod(int(name[2]))
    raise ValueError(
        f"unknown method {text!r}; expected gc, gc0..gc5, cf, or mc"
    )


# ---------------------------------------------------------------------------
# scalar operations


def interference_headroom(scenario: Scenario) -> np.ndarray:
    """Per-sensor (M,) interference level at which the SINR hits the threshold.

    Sensor i is in outage on the event {interference > headroom[i]}; a
    negative headroom means the sensor fails on noise alone.
    """
    return scenario.own_power / scenario.config.detection_threshold - scenario.noise_power


def interference_terms(
    alloc: ResourceAllocation,
    scenario: Scenario,
    sensor_index: int,
    resource: int,
) -> tuple[np.ndarray, np.ndarray]:
    """(weights, probabilities) of the sensors able to collide on ``resource``.

    Weights are received powers at the reference sensor's detector; zero
    weights and zero effective probabilities are dropped.
    """
    if not 1 <= resource <= alloc.num_resources:
        raise ValueError(
            f"resource ids run 1..{alloc.num_resources}, got {resource}"
        )
    mask = alloc.holds[scenario.det_node, resource - 1]
    mask[sensor_index] = False
    weights = scenario.powers_at[scenario.det_node[sensor_index]][mask]
    probs = effective_probabilities(alloc, scenario)[mask]
    keep = (weights > 0.0) & (probs > 0.0)
    return weights[keep], probs[keep]


def _require_analytic(method) -> None:
    if not isinstance(method, (GramCharlierMethod, CharFnMethod)):
        raise TypeError(
            f"unsupported method object {method!r}; "
            "Monte Carlo outage is monte_carlo_outage"
        )


def outage_single(
    alloc: ResourceAllocation,
    scenario: Scenario,
    sensor_index: int,
    resource: int,
    method: GramCharlierMethod | CharFnMethod,
) -> float:
    """Outage probability of one sensor transmitting on one fixed resource,
    by the series or the characteristic-function route.  Monte Carlo is
    :func:`monte_carlo_outage`, which redraws the sensor's resource.

    Conventions: a sensor on a switched-off tuple (empty resource set) is in
    outage with probability 1; negative headroom gives 1; an interference
    support below the headroom gives 0.
    """
    _require_analytic(method)
    held = (np.flatnonzero(alloc.holds[scenario.det_node[sensor_index]]) + 1).tolist()
    if not held:
        return 1.0
    if resource not in held:
        raise ValueError(
            f"sensor {sensor_index}'s tuple holds resources {held}, not {resource}"
        )
    threshold = float(interference_headroom(scenario)[sensor_index])
    if threshold < 0.0:
        return 1.0
    weights, probs = interference_terms(alloc, scenario, sensor_index, resource)
    if weights.size == 0:
        return 0.0
    if threshold >= float(weights.sum()):
        return 0.0
    if isinstance(method, CharFnMethod):
        dist = cf_density(list(zip(weights, probs)), method.grid_points)
        return float(dist.tail(threshold))
    model = build_model(list(zip(weights, probs)))
    if model.variance <= 0.0:
        # all contributors are always-on: interference is deterministic
        return 1.0 if model.mean > threshold else 0.0
    return tail_probability(gram_charlier(model, method.order), threshold)


def outage_multi(
    alloc: ResourceAllocation,
    scenario: Scenario,
    sensor_index: int,
    method: GramCharlierMethod | CharFnMethod,
) -> float:
    """Outage averaged uniformly over the sensor's held resources."""
    _require_analytic(method)
    held = (np.flatnonzero(alloc.holds[scenario.det_node[sensor_index]]) + 1).tolist()
    if not held:
        return 1.0
    values = [outage_single(alloc, scenario, sensor_index, t, method) for t in held]
    return math.fsum(values) / len(values)


_MC_CHUNK_TARGET = 1 << 21  # samples per chunk ~ target / term count


def monte_carlo_outage(
    alloc: ResourceAllocation,
    scenario: Scenario,
    sensor_index: int,
    draws: int = 100_000,
    seed: int = 0,
) -> float:
    """Empirical outage frequency over ``draws`` independent draws.

    The draws are split over the sensor's held resources uniformly at
    random, so the estimate is :func:`outage_multi`'s resource average.  A
    draw on resource t samples the pool :func:`outage_single` reads,
    :func:`interference_terms`: each term is on independently with its
    effective probability (its sensor is active and picked t from its
    tuple's set), decided by one uniform per (draw, term).  The outage
    event is counted as interference strictly above the headroom, matching
    the tail convention of the analytic methods.  Draws come from
    ``default_rng([seed, sensor_index])``, so the result is deterministic
    given the seed.
    """
    if draws < 1:
        raise ValueError("draws must be >= 1")
    held = np.flatnonzero(alloc.holds[scenario.det_node[sensor_index]]) + 1
    threshold = float(interference_headroom(scenario)[sensor_index])
    if not held.size or threshold < 0.0:
        return 1.0  # switched off, or every draw fails on noise alone
    rng = np.random.default_rng([seed, sensor_index])
    counts = rng.multinomial(draws, np.full(held.size, 1.0 / held.size))
    failures = 0
    for resource, count in zip(held.tolist(), counts.tolist()):
        weights, probs = interference_terms(alloc, scenario, sensor_index, resource)
        chunk = max(1, _MC_CHUNK_TARGET // max(1, weights.size))
        for lo in range(0, count, chunk):
            on = rng.random((min(chunk, count - lo), weights.size)) < probs
            failures += int(np.count_nonzero(on @ weights > threshold))
    return failures / draws


# ---------------------------------------------------------------------------
# batched series evaluation


def _pair_edges(thresholds, supports, members) -> tuple[np.ndarray, np.ndarray]:
    """(values, live) for (sensor, resource) pairs under :func:`outage_single`'s
    edge conventions: values is 1 on negative headroom and 0 elsewhere, and
    ``live`` marks the pairs whose interference law decides the outcome (an
    interferer, and a headroom in [0, support))."""
    neg = thresholds < 0.0
    live = ~neg & (members > 0) & (thresholds < supports)
    return np.where(neg, 1.0, 0.0), live


_PAIR_CHUNK_ROWS = 1 << 15  # distinct (sensor, resource) pairs per series-tail call


class GcOutageEngine:
    """Scenario-wide series outage with per-tuple power pooling.

    The interferer weights seen by a sensor depend only on its detection
    tuple, so the cumulant sums of every (destination, resource) pair can be
    assembled from a fixed (D, D, order) tensor of per-source-tuple power
    sums, zero on its diagonal.  A sensor's own tuple enters through
    leave-one-out sums over its other members (prefix plus suffix, as in
    the CF pass's leave-one-out products), so no term is subtracted back
    out of a sum that a strong own power would dominate.  One full
    objective evaluation then reduces to one ordered sum of per-source-tuple
    terms plus a vectorized series tail over (sensor, resource) pairs.

    Both entry points run one kernel, :meth:`_outage`.  The greedy allocator
    iterates :meth:`palette_outage`, which scores every candidate color of
    one node in a single pass: the candidates share the source-tuple sum but
    for the node's own term, and the affected (sensor, resource) pairs of
    all candidates go through one series-tail evaluation (stats_core's
    coefficient and tail routines, shared with the scalar series), each
    distinct pair once, in chunks of at most ``_PAIR_CHUNK_ROWS`` rows.
    :meth:`outage_vector` is the one-candidate case, every sum runs over
    the source tuples in ascending order, and the series pass is elementwise
    on stacked (order, rows) arrays with every sum over orders added left to
    right, so no row's coefficients or tail depend on the other rows in its
    call, and palette scores equal full evaluations of the re-colored
    allocations bit for bit.
    """

    def __init__(self, scenario: Scenario, order: int = 5):
        if not 0 <= order <= 5:
            raise ValueError(f"series order must lie in 0..5, got {order}")
        self.scenario = scenario
        self.order = order
        self.depth = max(order, 2)
        self.activity = float(scenario.config.activity)
        det = scenario.det_node
        num_tuples = scenario.num_tuples
        exponents = np.arange(1, self.depth + 1)
        self.pooled = np.zeros((num_tuples, num_tuples, self.depth))  # (dest, source, order)
        self.own_others = np.empty((det.size, self.depth))  # (M, depth)
        for node in range(num_tuples):
            members = np.flatnonzero(det == node)
            # one tuple's (D, members, depth) block, summed member by member
            block = scenario.powers_at[:, members, None] ** exponents
            self.pooled[:, node, :] = block.sum(axis=1)
            # leave-one-out sums over the other members: prefix plus suffix
            own = np.pad(block[node], ((1, 1), (0, 0)))  # a zero row at each end
            prefix = np.cumsum(own[:-2], axis=0)
            self.own_others[members] = prefix + np.cumsum(own[:1:-1], axis=0)[::-1]
        self.pooled[np.arange(num_tuples), np.arange(num_tuples)] = 0.0
        self.tuple_counts = np.bincount(det, minlength=num_tuples)
        self.thresholds = interference_headroom(scenario)
        # cumulants of one source at p_eff = activity / |T|, by set size |T|
        # (0..R, the holds matrices' resource count)
        self.by_size = _bernoulli_cumulants(
            np.r_[0.0, self.activity / np.arange(1, scenario.config.num_resources + 1)],
            self.depth,
        )

    def outage_vector(self, alloc: ResourceAllocation) -> np.ndarray:
        """Per-sensor outage under ``alloc``: the one-candidate case of the
        palette kernel, with the last tuple as its node (no suffix to add)."""
        affected = np.ones((1, self.scenario.num_sensors), dtype=bool)
        last = self.scenario.num_tuples - 1
        return self._outage(alloc.holds[None], affected, np.ones(affected.size), last)[0]

    def palette_outage(
        self,
        holds: np.ndarray,
        node: int,
        options: np.ndarray,
        base: np.ndarray,
    ) -> np.ndarray:
        """(C, M) per-sensor outage with ``node`` re-colored to each option.

        ``holds`` is the current (D, R) incidence matrix
        (:attr:`ResourceAllocation.holds`), ``base`` its outage vector, and
        row c of ``options`` the decoded (R,) incidence of candidate color c.
        Row c equals ``outage_vector`` of the re-colored allocation, bit for
        bit.
        """
        options = np.asarray(options, dtype=bool)
        candidates = np.repeat(holds[None], options.shape[0], axis=0)
        candidates[:, node] = options
        moved = options | holds[node]  # (C, R)
        touched = (holds[None, :, :] & moved[:, None, :]).any(axis=2)  # (C, D)
        touched[:, node] = True
        return self._outage(candidates, touched[:, self.scenario.det_node], base, node)

    def _outage(
        self, holds: np.ndarray, affected: np.ndarray, base: np.ndarray, node: int
    ) -> np.ndarray:
        """Per-sensor outage under C allocations given as (C, D, R) holds.

        The candidates may differ from each other only in row ``node``.  Row
        c recomputes the sensors of ``affected[c]`` and copies the rest from
        ``base``.  Each pooled (destination, resource) sum adds the source
        tuples' terms in strictly ascending tuple order, ``node``'s term taken
        per candidate between the shared prefix and suffix, so palette and
        full results are bitwise equal.  Pairs are ordered by
        candidate, sensor, then ascending resource, so each sensor's resource
        average is summed in the same order whatever the batch.
        """
        det = self.scenario.det_node
        num_sensors = det.size
        num_cands, num_tuples, num_resources = holds.shape
        sizes = holds.sum(axis=2)  # (C, D)
        cvals = self.by_size[sizes]  # (C, D, depth)
        # Per-source (cumulant, support) terms for every (column t, dest d):
        # rows e < D from candidate 0, which shares all rows but ``node``'s;
        # row D + k is ``node`` holding t among ``states[k]`` resources (0: not).
        states = np.union1d(0, sizes[:, node])
        cv = np.concatenate([cvals[0], self.by_size[states]])
        src = self.pooled.transpose(1, 0, 2)[np.r_[:num_tuples, [node] * states.size]]
        mask = np.concatenate([holds[0], np.repeat(states[:, None] > 0, num_resources, 1)])
        q = np.concatenate([cv[:, None, :] * src, src[:, :, :1]], axis=2)
        terms = mask[:, :, None, None].astype(float) * q[:, None]  # (source, t, d, depth + 1)
        # ascending source order: shared prefix, node term per state, suffix
        sums = np.add.reduce(terms[:node], axis=0, initial=0.0) + terms[num_tuples:]
        for term in terms[node + 1 : num_tuples]:
            sums += term
        counts = self.tuple_counts @ holds  # (C, R) members per resource

        pair_cand, pair_sensor, pair_col = np.nonzero(
            holds[:, det, :] & affected[:, :, None]
        )
        # A pair's inputs depend on its candidate only through whether
        # ``node`` holds the pair's resource and, if so, how many resources it
        # holds (its term in the pooled sums is an exact zero otherwise), so
        # each distinct (sensor, resource, node state) is evaluated once.
        node_state = np.where(
            holds[pair_cand, node, pair_col], sizes[pair_cand, node], 0
        )
        key = (pair_sensor * num_resources + pair_col) * (num_resources + 1) + node_state
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        values = np.empty(first.size)
        for lo in range(0, first.size, _PAIR_CHUNK_ROWS):
            rows = first[lo : lo + _PAIR_CHUNK_ROWS]
            c, i, t = pair_cand[rows], pair_sensor[rows], pair_col[rows]
            d, s = det[i], np.searchsorted(states, node_state[rows])
            kappa = sums[s, t, d, :-1] + cvals[c, d] * self.own_others[i]
            supports = sums[s, t, d, -1] + self.own_others[i, 0]
            members = counts[c, t] - 1
            values[lo : lo + rows.size] = self._pair_values(
                kappa, self.thresholds[i], supports, members
            )
        pair_weight = 1.0 / sizes[pair_cand, det[pair_sensor]]
        flat = pair_cand * num_sensors + pair_sensor
        contrib = np.bincount(
            flat, values[inverse] * pair_weight, minlength=num_cands * num_sensors
        )
        out = np.repeat(base[None], num_cands, axis=0)
        out[affected] = 1.0
        out.reshape(-1)[flat] = contrib[flat]
        return out

    def _pair_values(self, kappa, thresholds, supports, members) -> np.ndarray:
        """Outage of (sensor, resource) pairs from their cumulant rows, under
        :func:`outage_single`'s conventions: 1 on negative headroom; 0 with
        no interferer or with headroom at or above the support; a step at
        the mean on zero variance; else the series tail."""
        values, live = _pair_edges(thresholds, supports, members)
        variance = kappa[:, 1]
        deterministic = live & (variance <= 0.0)
        if deterministic.any():
            values[deterministic] = np.where(
                kappa[deterministic, 0] > thresholds[deterministic], 1.0, 0.0
            )
        series = live & (variance > 0.0)
        if series.any():
            from scipy.special import ndtr  # ~24 MB; only the batched engine needs it
            mu, sigma, beta, norm, (an,) = _series_coefficients(
                kappa[series], supports[series], (self.order,), ndtr
            )
            values[series] = _series_tails(thresholds[series], mu, sigma, beta, norm, an, ndtr)
        return values


# ---------------------------------------------------------------------------
# batched characteristic-function evaluation

def _held_pairs(alloc: ResourceAllocation, scenario: Scenario, sensors=None):
    """(sensor, resource) arrays of every held pair of the given sensors (all
    when None), in destination tuple, sensor, resource order."""
    det = scenario.det_node
    ids = np.arange(det.size) if sensors is None else np.unique(sensors)
    ids = ids[np.argsort(det[ids], kind="stable")]
    rows, cols = np.nonzero(alloc.holds[det[ids]])
    return ids[rows], cols + 1


def _pooled_laws(
    alloc: ResourceAllocation,
    scenario: Scenario,
    grid_points: int,
    sensors: np.ndarray,
    resources: np.ndarray,
):
    """Yield (k, law): the shared-grid CF law of pair (sensors[k], resources[k]).

    Per destination tuple, the factors of every other tuple holding resource
    t are pooled once into ``others[t]``, for the resources that tuple's
    pairs need; a sensor's spectrum is that times the leave-one-out product
    of its own tuple's factors (prefix and suffix products), so nothing is
    divided out, even where an own factor vanishes (p_eff = 0.5).  Every
    term with a positive weight and probability is pooled, and the grid
    spans their whole weight sum.  ``grid_points`` is checked before the
    first yield, whether or not any pair is given.
    """
    q_pts = int(grid_points)
    if q_pts < 64 or q_pts & (q_pts - 1):
        raise ValueError(f"grid_points must be a power of two >= 64, got {grid_points}")
    det = scenario.det_node
    p_eff = effective_probabilities(alloc, scenario)
    dests = det[sensors]

    for dest in np.unique(dests):
        pairs = np.flatnonzero(dests == dest)
        row = scenario.powers_at[dest]
        kept = (p_eff > 0.0) & (row > 0.0)
        kept_total = float(row[kept].sum())
        upper = (kept_total if kept_total > 0.0 else 1.0) * (1.0 + 1.0 / q_pts)
        freqs, taper = _cf_spectrum_grid(upper, _GRID_OVERSAMPLE * q_pts)

        needed = np.unique(resources[pairs]).tolist()
        others = {t: np.ones(freqs.size, dtype=complex) for t in needed}
        factor = np.empty(freqs.size, dtype=complex)
        for node in np.unique(det[kept]):
            hit = [t for t in needed if alloc.holds[node, t - 1]]
            if node == dest or not hit:
                continue
            psi = np.ones(freqs.size, dtype=complex)
            for j in np.nonzero(kept & (det == node))[0]:
                psi *= _bernoulli_factor(p_eff[j], row[j], freqs, factor)
            for t in hit:
                others[t] *= psi

        # loo[k]: product of the own factors but the k-th (loo[-1]: all); the
        # suffix pass makes each factor again instead of keeping a second array
        own = np.flatnonzero(kept & (det == dest))
        loo = np.ones((own.size + 1, freqs.size), dtype=complex)
        for k, j in enumerate(own):
            np.multiply(loo[k], _bernoulli_factor(p_eff[j], row[j], freqs, factor), out=loo[k + 1])
        suffix = np.ones(freqs.size, dtype=complex)
        for k in range(own.size - 1, -1, -1):
            loo[k] *= suffix
            suffix *= _bernoulli_factor(p_eff[own[k]], row[own[k]], freqs, factor)
        slot = dict(zip(own.tolist(), range(own.size)))

        for k in pairs.tolist():
            phi = others[int(resources[k])] * loo[slot.get(int(sensors[k]), -1)] * taper
            yield k, _invert_spectrum(phi, q_pts, upper)


def batch_cf_outage(
    alloc: ResourceAllocation,
    scenario: Scenario,
    grid_points: int = 1 << 12,
) -> np.ndarray:
    """Per-sensor CF-method outage, factor-pooled per destination tuple.

    Every held (sensor, resource) pair's edge is decided first, from exact
    pool supports and member counts (:func:`_pair_edges`, the conventions of
    :func:`outage_single`); only the pairs left live are inverted.  Their
    spectra are leave-one-out factor products over the same terms that the
    supports sum (:func:`_pooled_laws`), exact at every activity; sensors detected at one tuple share a grid sized to
    its pooled support, and a tail is read off that grid's coarse bins.  The
    bin-level reading is not bounded by one cell's mass: on desk.cfg's
    random allocations the default 4096 points differ from a 2^15-point
    pass by up to 0.044 (single mode) and 0.025 (multiple mode), for
    sensors whose headroom sits a few cells above zero (ROADMAP item 2).
    """
    det = scenario.det_node
    sensors, resources = _held_pairs(alloc, scenario)
    nodes, cols = det[sensors], resources - 1
    thresholds = interference_headroom(scenario)[sensors]
    # exact per-resource pool sums for the support edge
    relevant = alloc.holds[det].T & (effective_probabilities(alloc, scenario) > 0.0)
    own = relevant[cols, sensors]
    supports = (scenario.powers_at @ relevant.T)[nodes, cols]
    supports -= np.where(own, scenario.powers_at[nodes, sensors], 0.0)
    members = relevant.sum(axis=1)[cols] - own
    values, decides = _pair_edges(thresholds, supports, members)
    live = np.flatnonzero(decides)
    laws = _pooled_laws(alloc, scenario, grid_points, sensors[live], resources[live])
    for k, law in laws:
        values[live[k]] = law.tail(thresholds[live[k]])
    weights = values * (1.0 / alloc.set_sizes[nodes])
    accum = np.bincount(sensors, weights, minlength=scenario.num_sensors)
    return np.where(alloc.set_sizes[det] > 0, accum, 1.0)


def pooled_cf_densities(
    alloc: ResourceAllocation,
    scenario: Scenario,
    grid_points: int,
    sensors: np.ndarray | None = None,
) -> dict[tuple[int, int], DiscretizedDistribution]:
    """Gridded interference laws for (sensor, resource) pairs, factor-pooled.

    Returns every held pair for the requested sensors (all sensors when
    None), edge-decided or not: unlike :func:`batch_cf_outage`, no pair is
    skipped.  Each distribution spans [0, pooled support] of its destination
    tuple, so all sensors detected at one tuple share a comparable grid.
    """
    ids, resources = _held_pairs(alloc, scenario, sensors)
    return {
        (int(ids[k]), int(resources[k])): law
        for k, law in _pooled_laws(alloc, scenario, grid_points, ids, resources)
    }


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True, eq=False)
class OutageReport:
    """Per-sensor outage probabilities plus the two scalar objectives."""

    mode: str
    method_label: str
    per_sensor: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.per_sensor, dtype=float)
        values.setflags(write=False)
        object.__setattr__(self, "per_sensor", values)

    @property
    def average(self) -> float:
        return float(self.per_sensor.mean())

    @property
    def maximum(self) -> float:
        return float(self.per_sensor.max())


def average_outage(
    alloc: ResourceAllocation,
    scenario: Scenario,
    method: OutageMethod,
) -> OutageReport:
    """Evaluate every sensor's outage under the allocation.

    Gram-Charlier and characteristic-function methods run through the
    batched evaluators; Monte Carlo runs :func:`monte_carlo_outage` per
    sensor, each drawing from ``[method.seed, sensor]``.
    """
    if isinstance(method, GramCharlierMethod):
        per_sensor = GcOutageEngine(scenario, method.order).outage_vector(alloc)
    elif isinstance(method, CharFnMethod):
        per_sensor = batch_cf_outage(alloc, scenario, method.grid_points)
    elif isinstance(method, MonteCarloMethod):
        per_sensor = np.array(
            [
                monte_carlo_outage(alloc, scenario, i, method.draws, method.seed)
                for i in range(scenario.num_sensors)
            ]
        )
    else:
        raise TypeError(f"unsupported method object {method!r}")
    return OutageReport(alloc.mode, method.label, per_sensor)


def write_outage_csv(
    report: OutageReport, path: str | Path, note: str | None = None
) -> None:
    """Dump per-sensor outage values plus a trailing summary comment line."""
    suffix = f" {note}" if note else ""
    lines = [f"# outage mode={report.mode} method={report.method_label}{suffix}"]
    lines.append("sensor_id,resource_mode,method,p_out")
    for i, value in enumerate(report.per_sensor):
        lines.append(f"{i},{report.mode},{report.method_label},{float(value)!r}")
    lines.append(f"# average={report.average!r} max={report.maximum!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")
