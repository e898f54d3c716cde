"""The package's public surface and the README's runnable examples.

`costshare.__all__` is pinned to an explicit list, so a name can neither
drop out of the surface that README documents nor join it unnoticed. The
README's Python blocks run as written, and what they print must match the
outputs their comments promise.
"""

import contextlib
import io
import re
from pathlib import Path

import costshare

README = Path(__file__).resolve().parent.parent / "README.md"

EXPORTS = [
    "AgentReport", "Allocation", "Edge", "Instance", "MECHANISMS",
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


def test_all_is_the_pinned_surface_and_every_name_resolves():
    assert EXPORTS == sorted(EXPORTS)
    assert sorted(costshare.__all__) == EXPORTS
    assert len(set(costshare.__all__)) == len(costshare.__all__)
    for name in costshare.__all__:
        assert getattr(costshare, name, None) is not None, name


def test_readme_python_blocks_print_their_commented_outputs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 2
    out = io.StringIO()
    namespace: dict = {}
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(block, namespace)
    printed = out.getvalue().splitlines()
    assert printed == ["['a', 'b']", "{'a': 0, 'b': 3}", "5", "{'a': 2, 'b': 3}", "holds"]
    # Each print's comment starts with what it prints; an explanation may
    # follow after a colon.
    comments = [line.split("# ", 1)[1] for block in blocks
                for line in block.splitlines() if line.startswith("print(")]
    assert len(comments) == len(printed)
    for got, comment in zip(printed, comments):
        assert comment == got or comment.startswith(got + ": "), (got, comment)
