"""Homophily estimation for attributed graphs from sampled observations.

Exact smoothness/homophily metrics on full graphs, three network sampling
designs with their edge inclusion probabilities, Horvitz-Thompson point
and variance estimators, graphon-based identity and convergence oracles,
and a reproducible Monte Carlo experiment harness.
"""

__version__ = "0.1.0"

from .graph import (
    DatasetManifest,
    Graph,
    GraphSignal,
    dump_edge_list,
    karate_manifest_path,
    load_dataset,
    load_edge_list,
    load_labels,
    total_edge_weight,
)
from .metrics import (
    DIRICHLET_NORMALIZED,
    DIRICHLET_TOTAL,
    EDGE_HOMOPHILY,
    METRIC_KINDS,
    NODE_HOMOPHILY,
    dirichlet_energy,
    edge_homophily,
    edge_variation_values,
    exact_metric,
    homophily_profile,
    node_homophily,
    normalized_dirichlet,
)
from .sampling import (
    BernoulliDesign,
    SampledGraph,
    SrsDesign,
    TracerouteDesign,
    bernoulli_node_sample,
    draw_sample,
    induced_subgraph,
    srs_node_sample,
)
from .inclusion import (
    InclusionModel,
    approx_pi_traceroute,
    edge_betweenness,
    empirical_pi,
    inclusion_for,
)
from .estimators import (
    DegenerateSampleError,
    EstimateReport,
    estimate_metric,
    hajek_ratio,
    ht_total,
    ht_variance,
    plug_in_total,
)
from .graphon import (
    GridGraphon,
    convergence_experiment,
    phi_grid,
    phi_step,
    sample_w_random_graph,
    two_block_graphon,
)
from .harness import ExperimentConfig, RunRecord, histogram, run_experiment, summarize
from .rng import DEFAULT_SEED, derive_seed, make_rng
