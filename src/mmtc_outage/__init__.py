"""Interference statistics, outage probabilities, and beam resource
allocation for massive machine-type uplinks."""

from .access import (
    MODES,
    ResourceAllocation,
    color_bound,
    decode_holds,
    effective_probabilities,
    read_allocation_csv,
    write_allocation_csv,
)
from .allocation import (
    GreedyConfig,
    GreedyResult,
    InterferenceGraph,
    build_graph,
    greedy_allocate,
    random_allocate,
    write_trace_csv,
)
from .experiments import (
    EXPERIMENTS,
    ExperimentResult,
    ExperimentSpec,
    empirical_cdf,
    full_reuse_allocation,
    run_experiment,
    write_experiment_csv,
)
from .outage import (
    CharFnMethod,
    GcOutageEngine,
    GramCharlierMethod,
    MonteCarloMethod,
    OutageReport,
    average_outage,
    batch_cf_outage,
    interference_headroom,
    interference_terms,
    monte_carlo_outage,
    outage_multi,
    outage_single,
    parse_method,
    pooled_cf_densities,
    write_outage_csv,
)
from .scenario import (
    Scenario,
    ScenarioConfig,
    assemble_scenario,
    generate_scenario,
    load_scenario_config,
    write_scenario_csv,
)
from .stats_core import (
    DiscretizedDistribution,
    GramCharlierApprox,
    InterferenceModel,
    build_model,
    cf_density,
    exact_pmf,
    gram_charlier,
    jsd,
    sup_cdf_distance,
    tail_probability,
)

__version__ = "0.1.0"
