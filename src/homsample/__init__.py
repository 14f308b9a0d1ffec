"""Homophily estimation for attributed graphs from sampled observations.

Exact smoothness/homophily metrics on full graphs, three network sampling
designs with their edge inclusion probabilities, Horvitz-Thompson point
and variance estimators, graphon-based identity and convergence oracles,
and a reproducible Monte Carlo experiment harness.
"""

__version__ = "0.1.0"

from .graph import (
    Graph,
    GraphSignal,
    karate_manifest_path,
    load_dataset,
    load_edge_list,
    load_labels,
    total_edge_weight,
)
from .metrics import (
    dirichlet_energy,
    edge_homophily,
    edge_variation_values,
    exact_metric,
    node_homophily,
    normalized_dirichlet,
)
from .sampling import (
    BernoulliDesign,
    SampledGraph,
    SrsDesign,
    TracerouteDesign,
    draw_sample,
    induced_subgraph,
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
    ht_total,
    ht_variance,
)
from .graphon import (
    GridGraphon,
    convergence_experiment,
    phi_grid,
    phi_step,
    sample_w_random_graph,
    two_block_graphon,
)
from .harness import ExperimentConfig, RunRecord, run_experiment
from .rng import make_rng
