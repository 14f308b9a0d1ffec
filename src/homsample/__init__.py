"""Homophily estimation for attributed graphs from sampled observations.

Exact smoothness/homophily metrics on full graphs, three network sampling
designs with their edge inclusion probabilities, Horvitz-Thompson point
and variance estimates, graphon-based identity and convergence oracles,
and a reproducible Monte Carlo experiment harness.

The names below are imported from their modules on first use (PEP 562), so
a command imports only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "graph": ("Graph", "GraphSignal", "karate_manifest_path", "load_dataset", "load_edge_list",
              "load_labels", "total_edge_weight"),
    "metrics": ("dirichlet_energy", "edge_homophily", "edge_variation_values", "exact_metric",
                "node_homophily", "normalized_dirichlet"),
    "sampling": ("BernoulliDesign", "SampledGraph", "SrsDesign", "TracerouteDesign",
                 "draw_sample", "induced_subgraph"),
    "inclusion": ("InclusionModel", "approx_pi_traceroute", "edge_betweenness", "empirical_pi",
                  "inclusion_for"),
    "estimators": ("DegenerateSampleError", "EstimateReport", "estimate_metric", "ht_total",
                   "ht_variance"),
    "graphon": ("GridGraphon", "convergence_experiment", "phi_grid", "phi_step",
                "sample_w_random_graph", "two_block_graphon"),
    "harness": ("ExperimentConfig", "RunRecord", "run_experiment"),
    "rng": ("make_rng",),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_OWNER)


def __getattr__(name):
    try:
        module = _OWNER[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
