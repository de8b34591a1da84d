"""Spans around the library's public functions, installed from outside.

The tracer replaces each named function or method with a wrapper that
records (name, start, end, parent) in memory, rebinding every module
attribute that referred to the original so that calls made inside the
package (``from .outage import GcOutageEngine`` and the like) are seen too.
Nothing under ``src/`` changes.  A name the package no longer has is listed
as absent and reads zero.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

from checks import held_pairs

# (span name, module, attribute path)
TARGETS = (
    ("scenario.generate_scenario", "scenario", "generate_scenario"),
    ("allocation.build_graph", "allocation", "build_graph"),
    ("allocation.greedy_allocate", "allocation", "greedy_allocate"),
    ("allocation.random_allocate", "allocation", "random_allocate"),
    ("outage.GcOutageEngine.init", "outage", "GcOutageEngine.__init__"),
    ("outage.outage_vector", "outage", "GcOutageEngine.outage_vector"),
    ("access.ResourceAllocation", "access", "ResourceAllocation.__init__"),
    ("access.resource_mask", "access", "resource_mask"),
    ("access.effective_probabilities", "access", "effective_probabilities"),
    ("outage.batch_cf_outage", "outage", "batch_cf_outage"),
    ("outage.pooled_cf_densities", "outage", "pooled_cf_densities"),
    ("outage.monte_carlo_outage", "outage", "monte_carlo_outage"),
    ("outage.interference_terms", "outage", "interference_terms"),
    ("stats_core.build_model", "stats_core", "build_model"),
    ("stats_core.gram_charlier", "stats_core", "gram_charlier"),
    ("stats_core.GramCharlierApprox.discretize", "stats_core", "GramCharlierApprox.discretize"),
    ("stats_core.jsd", "stats_core", "jsd"),
    ("experiments.run_experiment", "experiments", "run_experiment"),
)

# outage_vector is reported as two layers: full passes and cache updates
SPAN_NAMES = tuple(
    n for name, _, _ in TARGETS
    for n in ((name + ".full", name + ".incremental") if name == "outage.outage_vector" else (name,))
)

COUNTERS = ("allocation.sweeps", "allocation.candidates", "outage.cf.pairs", "outage.mc.draws")


def rebind(package: str, original, replacement) -> None:
    """Point every ``package.*`` module attribute that is ``original`` at
    ``replacement``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


class Tracer:
    """In-memory spans and counters for one benchmark process."""

    def __init__(self, package: str = "mmtc_outage"):
        self.package = package
        self.enabled = False
        self.phase = "setup"
        self.spans: list[tuple[str, str, float, float, int]] = []  # name, phase, t0, t1, parent
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[list] = []  # [span index, child seconds]
        self._self: dict[tuple[str, str], float] = defaultdict(float)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target for the rest of the process."""
        for name, module, path in TARGETS:
            mod = sys.modules.get(f"{self.package}.{module}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            if owner_name:
                setattr(owner, attr, wrapper)
            else:
                rebind(self.package, original, wrapper)

    def count(self, name: str, n: float) -> None:
        if self.enabled:
            self.counts[(name, self.phase)] += n

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = name
            if name == "outage.outage_vector":
                incremental = kwargs.get("cache") is not None
                span += ".incremental" if incremental else ".full"
                if incremental:
                    tracer.count("allocation.candidates", 1)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            index = len(tracer.spans)
            tracer.spans.append((span, tracer.phase, 0.0, 0.0, parent))
            frame = [index, 0.0]
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (span, tracer.phase, t0, t1, parent)
                tracer._self[(span, tracer.phase)] += (t1 - t0) - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += t1 - t0
            tracer._observe(name, args, kwargs, result)
            return result

        return wrapper

    def _observe(self, name, args, kwargs, result) -> None:
        """Work counters read off arguments and results."""
        if name == "allocation.greedy_allocate":
            self.count("allocation.sweeps", len(result.trace) - 1)
        elif name == "outage.batch_cf_outage":
            alloc, scenario = args[0], args[1]
            self.count("outage.cf.pairs", held_pairs(alloc.colors, alloc.mode, scenario.det_node))
        elif name == "outage.monte_carlo_outage":
            draws = args[3] if len(args) > 3 else kwargs.get("draws", 100_000)
            self.count("outage.mc.draws", draws)

    # -- aggregation -------------------------------------------------------

    def layer_metrics(self, traced_rounds: int) -> dict[str, float]:
        """Per-layer figures of one set-up plus one traced round: set-up
        spans count once, round spans are averaged over ``traced_rounds``."""
        scale = {"setup": 1.0, "round": 1.0 / max(1, traced_rounds)}
        calls: dict[str, float] = defaultdict(float)
        total: dict[str, float] = defaultdict(float)
        for span, phase, t0, t1, _ in self.spans:
            if phase in scale:
                calls[span] += scale[phase]
                total[span] += scale[phase] * (t1 - t0)
        own: dict[str, float] = defaultdict(float)
        for (span, phase), s in self._self.items():
            if phase in scale:
                own[span] += scale[phase] * s
        out = {}
        for span in SPAN_NAMES:
            out[f"{span}.calls"] = calls[span]
            out[f"{span}.s"] = total[span]
            out[f"{span}.self_s"] = own[span]
        for name in COUNTERS:
            out[name] = sum(self.counts[(name, phase)] * k for phase, k in scale.items())
        cf_s = out["outage.batch_cf_outage.s"]
        out["outage.cf.pairs_per_s"] = out["outage.cf.pairs"] / cf_s if cf_s > 0 else 0.0
        return out

    def dump(self) -> dict:
        return {
            "absent": self.absent,
            "spans": [
                {"name": n, "phase": ph, "start": t0, "end": t1, "parent": p}
                for n, ph, t0, t1, p in self.spans
            ],
        }
