"""The public namespace of ``awsens``, which loads the library at the first
name read: every name it exported when it imported its modules eagerly
still resolves, to the same object."""

import importlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

import awsens

ROOT = pathlib.Path(__file__).resolve().parent.parent

EXPORTS = {
    "adapted_wasserstein": [
        "AWParams", "AWResult", "CouplingTree", "aw_distance", "aw_pth_power",
        "bicausalize", "brute_force_bicausal", "check_causal", "flat_wasserstein", "is_bicausal",
        "product_coupling",
    ],
    "cost_models": [
        "CostModel", "LossFunction", "PayoffFunction", "UtilityModel", "audit_derivatives",
        "build_utility_cost", "catalog_names", "make_cost_model", "make_loss", "make_payoff",
        "make_scalar_payoff", "make_utility_model", "register_cost_model",
    ],
    "errors": [
        "AmbiguousStopping", "AwsensError", "DeltaTooSmall", "DimensionMismatch", "FlatStep",
        "HorizonMismatch", "Infeasible", "InvalidCoupling", "InvalidParams", "InvalidTree",
        "MaxIterations", "NonFinite", "NotCausal", "NotConvex", "TooLarge",
    ],
    "discrete_ot": ["TransportPlan", "TransportProblem", "solve_exact"],
    "multistage_opt": [
        "ControlBounds", "ControlPolicy", "ValueReport", "brute_force_value", "solve_value",
        "uniqueness_spread",
    ],
    "optimal_stopping": [
        "SnellTable", "StoppingPolicy", "brute_force_stopping", "count_stopping_policies",
        "solve_stopping",
    ],
    "process_tree": [
        "Node", "PathTable", "ScenarioTree", "conditional_expectation", "gen_binomial",
        "gen_lattice", "gen_random", "is_isomorphic", "tree_from_nested",
    ],
    "robust_oracle": ["CurveRow", "RobustCurve", "RobustQuery", "ball_membership", "robust_curve"],
    "sensitivity": [
        "SensitivityReport", "WorstCaseDirection", "perturbed_model",
        "perturbed_model_with_coupling", "sensitivity_control", "sensitivity_stopping",
        "sensitivity_terminal", "utility_first_order", "worst_case_direction",
    ],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


def test_every_export_is_the_defining_modules_object():
    assert len(NAMES) == 76
    for module, name in NAMES:
        assert getattr(awsens, name) is getattr(importlib.import_module(f"awsens.{module}"), name)


def test_star_import_and_dir_list_every_export():
    namespace = {}
    exec("from awsens import *", namespace)
    names = {name for _, name in NAMES}
    assert names <= namespace.keys() and names <= set(dir(awsens))
    assert all(namespace[name] is getattr(awsens, name) for name in names)


def test_unknown_names_raise_attribute_error_naming_the_package():
    for name in ("no_such_name", "_no_such_private_name", "__wrapped__"):
        with pytest.raises(AttributeError, match="module 'awsens' has no attribute"):
            getattr(awsens, name)


def test_version_matches_pyproject():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert awsens.__version__ == re.search(r'^version = "([^"]+)"', text, re.M).group(1)


def test_submodules_import_from_a_fresh_package():
    # in a new interpreter, so that the package has loaded nothing yet
    code = ("from awsens import adapted_wasserstein, ScenarioTree; "
            "print(adapted_wasserstein.aw_distance.__module__, ScenarioTree.__module__)")
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.split() == ["awsens.adapted_wasserstein", "awsens.process_tree"]
