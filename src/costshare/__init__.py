"""Truthful cost sharing on networks.

Exact tools for the connection game where agents on a weighted graph want a
link to a common source: minimum Steiner trees, welfare-maximizing
selection, a critical-value mechanism (truthful and efficient, runs a
deficit), a repeated-selection mechanism (truthful and budget-balanced,
sacrifices efficiency), the classic attachment-cost baseline, and a harness
that checks the mechanism axioms empirically on small instances.

All arithmetic is exact: costs, valuations, shares, and welfare values are
ints or fractions.Fraction throughout, never floats.
"""

from .allocation import Allocation, StageRecord
from .baselines import run_bird
from .cvm import run_cvm
from .documents import load_document, serialize_instance
from .model import (AgentReport, Edge, Instance, ReportProfile, SizeCapError,
                    ValidationError, Value, WeightedGraph, apply_deviation,
                    as_value, edge_key, exact_div, induced_graph,
                    truthful_profile, value_to_json)
from .properties import (MECHANISMS, PropertyReport, budget_balance_ratio,
                         check_budget_balance, check_efficiency,
                         check_feasibility, check_individual_rationality,
                         check_positiveness, check_ranking, check_symmetry,
                         check_truthfulness, check_utility_monotonicity,
                         enumerate_deviations, generate_instance,
                         make_twin_instance, welfare_ratio,
                         welfare_ratio_of_selection)
from .rsm import run_rsm
from .steiner import SteinerCache, SteinerSolver, brute_force_steiner_oracle
from .welfare import compute_delta_table, social_welfare

__version__ = "0.1.0"

__all__ = [
    "Allocation", "AgentReport", "Edge", "Instance", "MECHANISMS",
    "PropertyReport", "ReportProfile", "SizeCapError", "StageRecord",
    "SteinerCache", "SteinerSolver", "ValidationError", "Value",
    "WeightedGraph", "apply_deviation", "as_value",
    "brute_force_steiner_oracle", "budget_balance_ratio",
    "check_budget_balance", "check_efficiency", "check_feasibility",
    "check_individual_rationality", "check_positiveness", "check_ranking",
    "check_symmetry", "check_truthfulness", "check_utility_monotonicity",
    "compute_delta_table", "edge_key",
    "enumerate_deviations", "exact_div", "generate_instance",
    "induced_graph", "load_document", "make_twin_instance",
    "run_bird", "run_cvm", "run_rsm",
    "serialize_instance", "social_welfare", "truthful_profile",
    "value_to_json", "welfare_ratio", "welfare_ratio_of_selection",
]
