import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awsens import (
    AmbiguousStopping,
    AwsensError,
    InvalidParams,
    InvalidTree,
    NonFinite,
    NotConvex,
    ScenarioTree,
    TooLarge,
    catalog_names,
    gen_binomial,
    gen_lattice,
    gen_random,
    make_cost_model,
)
from awsens.cli import GENERATORS, RunConfig, main, parse_tree, serialize_tree
from awsens.cost_models import CATALOG, PARAMS

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_serialize_parse_round_trip():
    tree = gen_binomial(T=2, start=0.1, up=1.0, down=-1.0, p_up=0.4, drift=-0.07)
    text = serialize_tree(tree)
    back = parse_tree(text)
    assert back.horizon == tree.horizon
    for a, b in zip(tree.nodes, back.nodes):
        assert (a.id, a.time, a.value, a.cond_prob, a.parent) == (
            b.id, b.time, b.value, b.cond_prob, b.parent,
        )
    assert serialize_tree(back) == text


def _node_bits(tree):
    return [(nd.id, nd.time, None if nd.value is None else nd.value.hex(),
             nd.cond_prob.hex(), nd.parent) for nd in tree.nodes]


SCALES = st.floats(1e-3, 10.0)


@st.composite
def lattice_trees(draw):
    ks = draw(st.lists(st.integers(-50, 50), min_size=2, max_size=4, unique=True))
    scale = draw(SCALES)
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=len(ks), max_size=len(ks)))
    return gen_lattice(draw(st.integers(1, 3)), draw(st.floats(-100.0, 100.0)),
                       [k * scale for k in ks], [w / sum(raw) for w in raw],
                       draw(st.floats(-1.0, 1.0)))


GENERATED_TREES = st.one_of(
    st.builds(gen_random, st.integers(1, 4), st.integers(2, 4), st.integers(0, 2**32 - 1)),
    st.builds(gen_binomial, st.integers(1, 5), st.floats(-100.0, 100.0), SCALES,
              SCALES.map(lambda d: -d), st.floats(0.01, 0.99), st.floats(-1.0, 1.0)),
    lattice_trees(),
)


@given(tree=GENERATED_TREES)
@settings(max_examples=150, deadline=None)
def test_serialize_parse_round_trip_is_bit_exact(tree):
    text = serialize_tree(tree)
    back = parse_tree(text)
    assert back.horizon == tree.horizon
    assert _node_bits(back) == _node_bits(tree)
    assert serialize_tree(back) == text


def test_parse_rejects_bad_documents():
    with pytest.raises(InvalidTree):
        parse_tree("not json")
    with pytest.raises(InvalidTree):
        parse_tree(json.dumps({"schema_version": "other", "horizon": 1, "nodes": []}))
    doc = {
        "schema_version": "aw-tree/1",
        "horizon": 1,
        "nodes": [
            {"id": "r", "parent": None, "time": 0, "value": None, "cond_prob": 1.0},
            {"id": "a", "parent": "r", "time": 1, "value": 1.0, "cond_prob": 0.5},
            {"id": "b", "parent": "r", "time": 1, "value": 1.0, "cond_prob": 0.5},
        ],
    }
    with pytest.raises(InvalidTree):  # duplicate sibling values
        parse_tree(json.dumps(doc))
    doc["nodes"][2]["parent"] = "zzz"
    try:
        parse_tree(json.dumps(doc))
    except InvalidTree as e:
        assert "nodes[2]" in str(e) and "zzz" in str(e)
    else:
        raise AssertionError("expected InvalidTree")


def test_parse_accepts_string_ids():
    doc = {
        "schema_version": "aw-tree/1",
        "horizon": 1,
        "nodes": [
            {"id": "root", "parent": None, "time": 0, "value": None},
            {"id": "up", "parent": "root", "time": 1, "value": 1.0, "cond_prob": 0.5},
            {"id": "dn", "parent": "root", "time": 1, "value": -1.0, "cond_prob": 0.5},
        ],
    }
    tree = parse_tree(json.dumps(doc))
    assert len(tree.leaves) == 2


def test_gen_commands_round_trip(tmp_path, capsys):
    out = tmp_path / "tree.json"
    code, _, _ = run_cli(
        capsys, "gen", "--kind", "binomial",
        "--params", json.dumps({"T": 2, "start": 0.0, "up": 1.0, "down": -1.0, "p_up": 0.5}),
        "--out", out,
    )
    assert code == 0
    tree = parse_tree(out.read_text())
    assert len(tree.leaves) == 4

    out2 = tmp_path / "lattice.json"
    code, _, _ = run_cli(
        capsys, "gen", "--kind", "lattice",
        "--params", json.dumps({"T": 1, "steps": [1.0, 0.0, -1.0], "probs": [0.25, 0.5, 0.25]}),
        "--out", out2,
    )
    assert code == 0
    assert len(parse_tree(out2.read_text()).leaves) == 3

    ra = tmp_path / "ra.json"
    rb = tmp_path / "rb.json"
    for path in (ra, rb):
        code, _, _ = run_cli(
            capsys, "gen", "--kind", "random",
            "--params", json.dumps({"T": 2, "branching": 2, "seed": 9}),
            "--out", path,
        )
        assert code == 0
    assert ra.read_bytes() == rb.read_bytes()


def test_aw_identical_trees(capsys):
    path = FIXTURES / "iid_signs.json"
    code, out, _ = run_cli(capsys, "aw", path, path, "--p", "2.0")
    assert code == 0
    doc = json.loads(out)
    assert doc["distance"] == 0.0


def test_aw_fixture_value(capsys):
    code, out, _ = run_cli(
        capsys, "aw", FIXTURES / "split_dirac_p.json", FIXTURES / "split_dirac_q.json",
        "--p", "2.0",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["distance"] == pytest.approx(1.41774, abs=1e-5)


def test_aw_emits_coupling(tmp_path, capsys):
    cpath = tmp_path / "coupling.json"
    code, _, _ = run_cli(
        capsys, "aw", FIXTURES / "split_dirac_p.json", FIXTURES / "split_dirac_q.json",
        "--p", "2.0", "--coupling-out", cpath,
    )
    assert code == 0
    doc = json.loads(cpath.read_text())
    assert doc["pair_nodes"][0]["parent"] is None
    assert len(doc["pair_nodes"]) >= 5


@pytest.mark.parametrize(
    "cmd,tree,config,expected",
    [
        (("aw", "split_dirac_q.json"), "split_dirac_p.json", None, "aw_split_dirac.json"),
        (("sens",), "iid_signs.json", "config_sens_linear.json", "sens_linear.json"),
        (("stop",), "drifted_binomial.json", "config_stop_identity.json", "stop_drifted.json"),
        (("value",), "drifted_binomial.json", "config_value_hedge.json", "value_hedge.json"),
    ],
)
def test_outputs_reproduce_committed_bytes(tmp_path, capsys, cmd, tree, config, expected):
    out = tmp_path / "out.json"
    argv = [cmd[0], FIXTURES / tree]
    if cmd[0] == "aw":
        argv += [FIXTURES / cmd[1], "--p", "2.0"]
    if config:
        argv += ["--config", FIXTURES / config]
    argv += ["--out", out]
    code, stdout, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.read_bytes() == (FIXTURES / "expected" / expected).read_bytes()
    assert stdout.encode() == (FIXTURES / "expected" / expected).read_bytes()


def test_curve_reproduces_committed_bytes(tmp_path, capsys):
    csv = tmp_path / "curve.csv"
    js = tmp_path / "curve.json"
    code, _, _ = run_cli(
        capsys, "curve", FIXTURES / "iid_signs.json",
        "--config", FIXTURES / "config_sens_linear.json",
        "--out-csv", csv, "--out-json", js,
    )
    assert code == 0
    assert csv.read_bytes() == (FIXTURES / "expected" / "curve_linear.csv").read_bytes()
    assert js.read_bytes() == (FIXTURES / "expected" / "curve_linear.json").read_bytes()


def test_curve_without_radii_uses_ascending_defaults(tmp_path, capsys):
    # the committed config lists the default radii, so dropping them from it
    # must reproduce the committed curve
    doc = json.loads((FIXTURES / "config_sens_linear.json").read_text())
    del doc["radii"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    csv = tmp_path / "curve.csv"
    code, _, err = run_cli(capsys, "curve", FIXTURES / "iid_signs.json",
                           "--config", cfg, "--out-csv", csv)
    assert code == 0, err
    assert csv.read_bytes() == (FIXTURES / "expected" / "curve_linear.csv").read_bytes()


def _child_env() -> dict:
    src = str(FIXTURES.parent / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_import_leaves_scipy_unloaded():
    code = "import sys, awsens.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=_child_env())
    assert out.stdout.strip() == "False"


AWSENS_MODULES = {"adapted_wasserstein", "cost_models", "discrete_ot", "errors", "multistage_opt",
                  "optimal_stopping", "oracles", "process_tree", "robust_oracle", "sensitivity"}


def _loaded_modules(*args: str) -> set[str]:
    """Every module a ``python -X importtime`` child with ``args`` imports by
    its exit; the child must exit 0."""
    res = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True,
                         text=True, env=_child_env(), cwd=FIXTURES.parent, timeout=120)
    assert res.returncode == 0, res.stderr[-500:]
    return {line.split("|")[2].strip() for line in res.stderr.splitlines()
            if line.startswith("import time:") and line.count("|") == 2}


# what every command that reads a config loads
_CONFIGURED = {"errors", "cost_models", "process_tree"}


@pytest.mark.parametrize("argv, loads", [
    pytest.param(["aw", "fixtures/split_dirac_p.json", "fixtures/split_dirac_q.json",
                  "--out", "{out}"],
                 {"errors", "discrete_ot", "process_tree", "adapted_wasserstein"}, id="aw"),
    pytest.param(["stop", "fixtures/drifted_binomial.json",
                  "--config", "fixtures/config_stop_identity.json", "--out", "{out}"],
                 _CONFIGURED | {"optimal_stopping"}, id="stop"),
    pytest.param(["value", "fixtures/drifted_binomial.json",
                  "--config", "fixtures/config_value_hedge.json", "--out", "{out}"],
                 _CONFIGURED | {"multistage_opt"}, id="value"),
    pytest.param(["sens", "fixtures/iid_signs.json",
                  "--config", "fixtures/config_sens_linear.json", "--out", "{out}"],
                 AWSENS_MODULES | {"_api"}, id="sens"),
    pytest.param(["curve", "fixtures/iid_signs.json",
                  "--config", "fixtures/config_sens_linear.json",
                  "--out-csv", "{out}", "--out-json", "{out}"], AWSENS_MODULES | {"_api"},
                 id="curve"),
])
def test_each_command_loads_only_what_it_runs(tmp_path, argv, loads):
    loaded = _loaded_modules("-m", "awsens.cli", *[a.format(out=tmp_path / "out") for a in argv])
    assert {m.removeprefix("awsens.") for m in loaded if m.startswith("awsens.")} == loads
    # not even the commands that load the whole library import the oracles'
    # scipy, nor numpy.ma, which np.unique imports on its first call
    assert "scipy" not in loaded and "numpy.ma" not in loaded


def test_help_and_the_bare_package_load_no_library():
    loaded = _loaded_modules("-m", "awsens.cli", "--help")
    # ``-m`` runs the cli module as __main__, so only the package and errors show
    assert "numpy" not in loaded
    assert {m for m in loaded if m.startswith("awsens")} == {"awsens", "awsens.errors"}
    assert {m for m in _loaded_modules("-c", "import awsens") if m.startswith("awsens")} == {"awsens"}


def test_the_first_public_name_loads_the_whole_library():
    loaded = _loaded_modules("-c", "import awsens; awsens.__version__; awsens.ScenarioTree")
    assert {m.removeprefix("awsens.") for m in loaded if m.startswith("awsens.")} == (
        AWSENS_MODULES | {"_api"})


_CURVE = ["curve", "iid_signs.json", "--config", "config_sens_linear.json"]


@pytest.mark.parametrize("argv, flag", [
    (["aw", "split_dirac_p.json", "split_dirac_q.json"], "--out"),
    (["aw", "split_dirac_p.json", "split_dirac_q.json"], "--coupling-out"),
    (["sens", "iid_signs.json", "--config", "config_sens_linear.json"], "--out"),
    (["stop", "drifted_binomial.json", "--config", "config_stop_identity.json"], "--out"),
    (["value", "drifted_binomial.json", "--config", "config_value_hedge.json"], "--out"),
    (_CURVE + ["--out-json", "{ok}"], "--out-csv"),
    (_CURVE + ["--out-csv", "{ok}"], "--out-json"),
    (["gen", "--kind", "binomial", "--params", '{"T": 1, "start": 0, "up": 1, "down": -1, '
      '"p_up": 0.5}'], "--out"),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_an_unwritable_output_is_a_typed_error_and_prints_nothing(tmp_path, capsys, argv, flag):
    bad = tmp_path / "no_such_dir" / "out"
    argv = [FIXTURES / a if a.endswith(".json") else a.replace("{ok}", str(tmp_path / "ok")) for a in argv]
    code, out, err = run_cli(capsys, *argv, flag, bad)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: AwsensError: {flag} {bad}: ") and err.count("\n") == 1


def test_repeat_runs_are_byte_identical(tmp_path, capsys):
    outs = []
    for k in range(2):
        csv = tmp_path / f"c{k}.csv"
        code, stdout, _ = run_cli(
            capsys, "curve", FIXTURES / "iid_signs.json",
            "--config", FIXTURES / "config_sens_linear.json", "--out-csv", csv,
        )
        assert code == 0
        outs.append((stdout, csv.read_bytes()))
    assert outs[0] == outs[1]


def test_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": "aw-tree/1", "horizon": 1, "nodes": []}')
    code, _, err = run_cli(capsys, "aw", bad, bad)
    assert code == 2 and "InvalidTree" in err

    # symmetric martingale walk: stop and continuation coincide
    mart = tmp_path / "mart.json"
    run_cli(capsys, "gen", "--kind", "binomial",
            "--params", json.dumps({"T": 2, "start": 0.0, "up": 1.0, "down": -1.0, "p_up": 0.5}),
            "--out", mart)
    code, _, err = run_cli(capsys, "stop", mart, "--config", FIXTURES / "config_stop_identity.json")
    assert code == 3 and "AmbiguousStopping" in err

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "problem_class": "terminal",
        "model": {"name": "no_such_model"},
        "p": 2.0,
    }))
    code, _, err = run_cli(capsys, "sens", mart, "--config", cfg)
    assert code == 1 and "InvalidParams" in err

    assert NotConvex.exit_code == 4
    assert TooLarge.exit_code == 5
    assert NonFinite.exit_code == 6
    assert AmbiguousStopping.exit_code == 3
    assert InvalidTree.exit_code == 2



@pytest.mark.parametrize("kind, params, needle", [
    ("binomial", "{not json", "not valid JSON"),
    ("binomial", json.dumps({"start": 0.0}), "'T'"),
    ("lattice", json.dumps({"T": 1, "steps": 1.0, "probs": [0.5, 0.5]}), "lattice"),
    # counts are neither negative, fractional nor boolean; numbers are not strings
    ("random", json.dumps({"T": 2, "seed": -1}), "'seed'"),
    ("random", json.dumps({"T": 1, "branching": 2000}), "branching"),
    ("random", json.dumps({"T": 1, "branching": 1e30}), "branching"),
    ("random", json.dumps({"T": 1, "branching": 2.5}), "'branching'"),
    ("binomial", json.dumps({"T": 2.7}), "'T'"),
    ("binomial", json.dumps({"T": True}), "'T'"),
    ("binomial", json.dumps({"T": 2, "up": "1e3"}), "'up'"),
    ("binomial", '{"T": 2, "up": 1' + "0" * 400 + "}", "binomial"),
    ("lattice", json.dumps({"T": 1, "steps": [1, True], "probs": [0.5, 0.5]}), "'steps'"),
    ("lattice", json.dumps({"T": 1, "steps": [1, -1], "probs": [0.5, "0.5"]}), "'probs'"),
    # Python's json reads NaN and Infinity, which are no JSON numbers
    ("binomial", '{"T": 2, "up": NaN}', "'up'"),
    ("lattice", '{"T": 2, "steps": [1, Infinity], "probs": [0.5, 0.5]}', "'steps'"),
])
def test_malformed_gen_params_are_invalid_params(tmp_path, capsys, kind, params, needle):
    code, _, err = run_cli(capsys, "gen", "--kind", kind, "--params", params,
                           "--out", tmp_path / "tree.json")
    assert code == InvalidParams.exit_code and "InvalidParams" in err and needle in err
    assert not (tmp_path / "tree.json").exists()


@pytest.mark.parametrize("kind, params", [
    ("binomial", {"T": 40}),
    ("random", {"T": 1e308, "branching": 2}),
    ("lattice", {"T": 2**70, "steps": [1, -1], "probs": [0.5, 0.5]}),
])
def test_gen_over_the_node_budget_exits_1_at_once(tmp_path, capsys, kind, params):
    # the node count is checked before anything is built
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "gen", "--kind", kind, "--params", json.dumps(params),
                           "--out", tmp_path / "tree.json")
    assert time.perf_counter() - start < 1.0
    assert code == InvalidParams.exit_code and "InvalidParams" in err and "nodes" in err
    assert not (tmp_path / "tree.json").exists()


@pytest.mark.parametrize("fault", ["not utf-8", "deep", "long integer"])
@pytest.mark.parametrize("source, error", [
    ("tree", InvalidTree), ("config", InvalidParams), ("params", InvalidParams)])
def test_unreadable_json_ends_in_the_inputs_typed_error(tmp_path, capsys, source, error, fault):
    # Python's json raises UnicodeDecodeError, RecursionError and ValueError
    # on these, none of them a JSONDecodeError
    data = {"not utf-8": b'{"a": "\xff"}', "deep": b"[" * 100_000 + b"]" * 100_000,
            "long integer": b'{"T": 1' + b"0" * 5000 + b"}"}[fault]
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    tree, config = FIXTURES / "drifted_binomial.json", FIXTURES / "config_value_hedge.json"
    argv = {"tree": ("aw", tree, bad), "config": ("value", tree, "--config", bad),
            # a non-UTF-8 argument reaches the program with surrogate escapes
            "params": ("gen", "--kind", "binomial", "--out", tmp_path / "out.json", "--params",
                       data.decode("utf-8", "surrogateescape"))}[source]
    code, _, err = run_cli(capsys, *argv)
    assert code == error.exit_code and f"error: {error.__name__}:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("field, needle", [
    ({"bounds": 3}, "'bounds'"),
    ({"p": "two"}, "two"),
    ({"radii": 3}, "config"),
    ({"seed": [1]}, "config"),
    # JSON booleans are not numbers
    ({"seed": True}, "'seed'"),
    ({"bounds": {"L": True}}, "'L'"),
    ({"ascent": {"restarts": False}}, "'restarts'"),
    ({"radii": [0.01, True]}, "'radii'"),
    ({"tolerances": {"value_tol": True}}, "'value_tol'"),
    # counts and the seed are not truncated, nor negative
    ({"seed": 2.7}, "'seed'"),
    ({"ascent": {"restarts": 2.7}}, "'restarts'"),
    ({"ascent": {"max_iters": 2.7}}, "'max_iters'"),
    ({"ascent": {"restarts": -1}}, "'restarts'"),
    ({"ascent": {"max_iters": -1}}, "'max_iters'"),
    ({"seed": -1}, "'seed'"),
    ({"radii": [0.01, float("nan")]}, "'radii'"),
    # catalog model params follow the same number rule
    ({"problem_class": "terminal",
      "model": {"name": "quadratic_tracking", "params": {"weights": "ab"}}}, "'weights'"),
    ({"problem_class": "terminal",
      "model": {"name": "quadratic_tracking", "params": {"targets": [0.0, None]}}}, "'targets'"),
    ({"problem_class": "terminal",
      "model": {"name": "exp_sum", "params": {"beta": float("nan")}}}, "'beta'"),
    ({"problem_class": "terminal",
      "model": {"name": "exp_sum", "params": {"scale": True}}}, "'scale'"),
    ({"problem_class": "terminal",
      "model": {"name": "linear", "params": {"coeffs": [1.0, float("inf")]}}}, "'coeffs'"),
    ({"problem_class": "terminal",
      "model": {"name": "softplus_call", "params": {"strike": "0.2"}}}, "'strike'"),
    ({"model": {"name": "quadratic_control", "params": {"coeffs": 1.0}}}, "'coeffs'"),
    ({"model": {"name": "tracking_control", "params": {"x0": float("-inf")}}}, "'x0'"),
    ({"model": {"name": "utility", "params": {"x0": float("nan")}}}, "'x0'"),
    ({"model": {"name": "utility",
                "params": {"loss": {"name": "exponential", "params": {"rate": "x"}}}}}, "'rate'"),
    ({"problem_class": "stopping",
      "model": {"name": "markov_payoff",
                "params": {"g": {"name": "sin", "params": {"frequency": float("nan")}}}}},
     "'frequency'"),
    ({"problem_class": "stopping", "model": {"name": "running_sum", "params": {"coeff": [1]}}},
     "'coeff'"),
])
def test_malformed_config_is_invalid_params(tmp_path, capsys, field, needle):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "problem_class": "controlled",
        "model": {"name": "quadratic_control"},
        "p": 2.0,
        **field,
    }))
    code, _, err = run_cli(capsys, "value", FIXTURES / "drifted_binomial.json", "--config", cfg)
    assert code == InvalidParams.exit_code and "InvalidParams" in err and needle in err


@pytest.mark.parametrize("cmd, problem_class, model, needle", [
    ("stop", "stopping", {"name": "markov_payoff", "params": {"g": 3}}, "'g'"),
    ("value", "controlled", {"name": "utility", "params": {"loss": "x"}}, "'loss'"),
    ("value", "controlled", {"name": "utility", "params": {"payoff": 3}}, "'payoff'"),
    ("value", "controlled",
     {"name": "utility", "params": {"payoff": {"name": "zero", "params": 3}}}, "'payoff'"),
])
def test_non_object_model_specs_are_invalid_params(tmp_path, capsys, cmd, problem_class, model,
                                                   needle):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem_class": problem_class, "model": model, "p": 2.0}))
    code, _, err = run_cli(capsys, cmd, FIXTURES / "drifted_binomial.json", "--config", cfg)
    assert code == InvalidParams.exit_code and "InvalidParams" in err and needle in err


@pytest.mark.parametrize("cmd, tree, problem_class, model, p, needle", [
    ("sens", "iid_signs", "terminal", {"name": "exp_sum", "params": {"beta": 800.0}}, 2.0,
     "first_order is inf"),
    ("value", "drifted_binomial", "controlled",
     {"name": "quadratic_control", "params": {"coeffs": [1e308, 1e308]}}, 2.0, "value is nan"),
    ("stop", "drifted_binomial", "stopping",
     {"name": "markov_payoff", "params": {"g": {"name": "quadratic", "params": {"weight": 1e308}}}},
     2.0, "uniqueness_margin is inf"),
    # the worst-case direction's powers of the gradients would overflow
    ("sens", "iid_signs", "terminal", {"name": "linear", "params": {"coeffs": [1e200, 1e200]}},
     1.5, "stage_qnorms[0] is inf"),
], ids=["sens-iid_signs-terminal-model0-first_order is inf",
        "value-drifted_binomial-controlled-model1-value is nan",
        "stop-drifted_binomial-stopping-model2-uniqueness_margin is inf",
        "sens-iid_signs-terminal-model3-stage_qnorms[0] is inf"])
def test_non_finite_results_are_typed_errors(tmp_path, capsys, cmd, tree, problem_class, model,
                                             p, needle):
    # valid params whose values overflow on the tree: no NaN or Infinity
    # (not JSON) reaches stdout
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem_class": problem_class, "model": model, "p": p}))
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, err = run_cli(capsys, cmd, FIXTURES / f"{tree}.json", "--config", cfg)
    assert (code, out) == (NonFinite.exit_code, "") and "NonFinite" in err and needle in err


def test_curve_refuses_a_non_finite_base_value(tmp_path, capsys):
    # the rows' and the slope's NaNs are documented; an overflowing base
    # value or first-order term is not, and nothing is written
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem_class": "terminal", "p": 2.0,
                               "model": {"name": "exp_sum", "params": {"beta": 800.0}}}))
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, err = run_cli(capsys, "curve", FIXTURES / "iid_signs.json", "--config", cfg,
                                 "--out-csv", tmp_path / "c.csv", "--out-json", tmp_path / "c.json")
    assert (code, out) == (NonFinite.exit_code, "") and "NonFinite" in err
    assert "base_value is inf" in err
    assert not (tmp_path / "c.csv").exists() and not (tmp_path / "c.json").exists()


def test_value_with_a_large_control_bound_warns_nothing(tmp_path, capsys):
    # at L = 1e3 the convexity check's sampled exponential Hessians
    # overflow; those samples are left out, and numpy must not say so on
    # stderr (nor raise, under -W error::RuntimeWarning)
    cfg = tmp_path / "cfg.json"
    config = json.loads((FIXTURES / "config_value_hedge.json").read_text())
    cfg.write_text(json.dumps({**config, "bounds": {"L": 1e3}}))
    argv = ["value", str(FIXTURES / "drifted_binomial.json"), "--config", str(cfg)]
    res = subprocess.run([sys.executable, "-m", "awsens.cli", *argv], capture_output=True,
                         text=True, env=_child_env(), timeout=120)
    assert res.returncode == 0 and "RuntimeWarning" not in res.stderr, res.stderr[-500:]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (0, res.stdout, "")


def test_aw_refuses_a_coupling_above_its_byte_budget(tmp_path, capsys, monkeypatch):
    # two binomial T=4 trees: their coupling's time-4 kernels take 864 bytes
    from awsens import adapted_wasserstein

    trees = []
    for name, params in (("a", {"T": 4, "start": 0, "up": 1, "down": -1, "p_up": 0.5}),
                         ("b", {"T": 4, "start": 0, "up": 1.1, "down": -0.9, "p_up": 0.45,
                                "drift": 0.02})):
        trees.append(tmp_path / f"{name}.json")
        assert run_cli(capsys, "gen", "--kind", "binomial", "--params", json.dumps(params),
                       "--out", trees[-1])[0] == 0
    monkeypatch.setattr(adapted_wasserstein, "_COUPLING_BYTES", 863)
    code, out, err = run_cli(capsys, "aw", *trees, "--out", tmp_path / "aw.json")
    assert (code, out) == (TooLarge.exit_code, "") and not (tmp_path / "aw.json").exists()
    assert err == ("error: TooLarge: the coupling's time-4 kernels need 864 bytes, above its "
                   "budget of 863\n")
    monkeypatch.setattr(adapted_wasserstein, "_COUPLING_BYTES", 864)
    assert run_cli(capsys, "aw", *trees)[0] == 0


@pytest.mark.parametrize("field, needle", [
    ({"model": {"name": "exp_sum", "params": {"betta": 800.0}}},
     "'exp_sum' params: unknown key 'betta'; accepted: beta, scale"),
    ({"model": {"name": "utility", "params": {
        "loss": {"name": "exponential", "params": {"rte": 1.0}}}}},
     "'loss' params: unknown key 'rte'; accepted: rate"),
    ({"model": {"name": "utility", "params": {"loss": {"name": "quadratic", "parms": {}}}}},
     "'loss' must be an object with a name string"),
    ({"bounds": {"l": 3.0}}, "config 'bounds': unknown key 'l'; accepted: L"),
    ({"radius": [0.1]}, "config: unknown key 'radius'; accepted: problem_class, model, p, radii"),
    # params must be an object, not pairs to be read through dict(...)
    ({"model": {"name": "exp_sum", "params": [["beta", 2.0]]}},
     "config: 'model' params must be an object, got [['beta', 2.0]]"),
    ({"model": {"name": "exp_sum", "params": None}},
     "config: 'model' params must be an object, got None"),
    ({"model": {"name": "utility", "params": {"payoff": {"name": "zero", "params": None}}}},
     "'payoff' params must be an object, got None"),
])
def test_unknown_keys_and_non_object_params_are_invalid_params(tmp_path, capsys, field, needle):
    cfg = tmp_path / "cfg.json"
    doc = {"problem_class": "terminal", "model": {"name": "linear"}, "p": 2.0, **field}
    if field.get("model", {}).get("name") == "utility":
        doc["problem_class"] = "controlled"
    cfg.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "sens", FIXTURES / "iid_signs.json", "--config", cfg)
    assert (code, out) == (InvalidParams.exit_code, "") and "InvalidParams" in err
    assert needle in err


def test_unknown_gen_param_is_invalid_params(tmp_path, capsys):
    code, _, err = run_cli(capsys, "gen", "--kind", "binomial", "--params",
                           json.dumps({"T": 2, "p_upp": 0.3}), "--out", tmp_path / "t.json")
    assert code == InvalidParams.exit_code
    assert ("--params for binomial: unknown key 'p_upp'; "
            "accepted: T, start, up, down, p_up, drift") in err
    assert not (tmp_path / "t.json").exists()


@pytest.mark.parametrize("params", [
    {"T": 1, "start": 1.0, "up": 1e-17, "down": 0.0},  # siblings round to one value
    {"T": 1, "start": 1e308, "up": 1e308, "down": 0.0},  # a value overflows
])
def test_gen_params_whose_tree_is_invalid_are_invalid_params(tmp_path, capsys, params):
    code, _, err = run_cli(capsys, "gen", "--kind", "binomial", "--params", json.dumps(params),
                           "--out", tmp_path / "t.json")
    assert code == InvalidParams.exit_code and "--params for binomial:" in err
    assert not (tmp_path / "t.json").exists()


def test_stop_on_one_period_tree_keeps_the_empty_margin(tmp_path, capsys):
    # no node before the horizon: the margin is an empty minimum, printed
    # as Infinity, and the command succeeds
    tree = tmp_path / "one.json"
    tree.write_text(serialize_tree(gen_binomial(1, 0.0, 1.0, -1.0, 0.5)))
    code, out, _ = run_cli(capsys, "stop", tree, "--config",
                           FIXTURES / "config_stop_identity.json")
    assert code == 0 and json.loads(out)["uniqueness_margin"] == math.inf


def test_config_counts_accept_integral_numbers():
    doc = {"problem_class": "controlled", "model": {"name": "quadratic_control"}, "p": 2,
           "seed": 3.0, "bounds": {"L": 4}, "ascent": {"restarts": 0, "max_iters": 7.0}}
    cfg = RunConfig.from_dict(doc)
    assert (cfg.seed, cfg.restarts, cfg.max_iters) == (3, 0, 7)
    assert type(cfg.seed) is int and type(cfg.max_iters) is int
    assert (cfg.p, cfg.L) == (2.0, 4.0) and type(cfg.L) is float


def test_threads_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--threads=2", "aw", str(FIXTURES / "split_dirac_p.json"),
              str(FIXTURES / "split_dirac_q.json")])
    assert exc.value.code == 1 and "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("argv, needle", [
    # a value starting with "-" reads as an option, so --params has none
    (["gen", "--kind", "binomial", "--params", "-Infinity", "--out", "t.json"],
     "expected one argument"),
    (["stop", "fixtures/iid_signs.json"], "the following arguments are required: --config"),
    (["curve", "fixtures/iid_signs.json", "--config", "c.json"], "--out-csv"),
    (["gen", "--kind", "trinomial", "--params", "{}", "--out", "t.json"], "invalid choice"),
    ([], "the following arguments are required: command"),
])
def test_usage_errors_exit_1_not_the_tree_file_code(tmp_path, capsys, argv, needle):
    # argparse's own usage exit, 2, is InvalidTree's; the README gives
    # usage errors 1, with anything else not listed
    with pytest.raises(SystemExit) as exc:
        main([str(tmp_path / a) if a.endswith(".json") else a for a in argv])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (1, "") and err.startswith("usage: awsens")
    assert needle in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [["--help"], ["gen", "--help"], ["curve", "-h"]])
def test_help_still_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 0 and out.startswith("usage: awsens") and err == ""


@pytest.mark.parametrize("cmd", ["stop", "sens", "curve"])
def test_stopping_commands_use_stopping_tol(tmp_path, capsys, cmd):
    doc = json.loads((FIXTURES / "config_stop_identity.json").read_text())
    doc["tolerances"] = {"stopping_tol": 10.0}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    extra = ["--out-csv", tmp_path / "c.csv"] if cmd == "curve" else []
    code, _, err = run_cli(capsys, cmd, FIXTURES / "drifted_binomial.json", "--config", cfg,
                           *extra)
    assert code == AmbiguousStopping.exit_code and "AmbiguousStopping" in err


@pytest.mark.parametrize("problem_class, model, needle", [
    ("robust", "linear", "problem_class"),
    (["terminal"], "linear", "problem_class"),
    (None, "linear", "problem_class"),
    ("stopping", "linear", "stopping model"),
    ("terminal", "utility", "terminal model"),
])
def test_config_class_and_model_must_match(tmp_path, capsys, problem_class, model, needle):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem_class": problem_class, "model": {"name": model},
                               "p": 2.0}))
    code, _, err = run_cli(capsys, "sens", FIXTURES / "iid_signs.json", "--config", cfg)
    assert code == InvalidParams.exit_code and "InvalidParams" in err and needle in err


@pytest.mark.parametrize("change, needle", [
    ({"horizon": True}, "horizon"),
    ({"id": [0]}, "id must be"),
    ({"parent": [0]}, "unknown parent"),
    ({"time": True}, "time must be"),
    ({"value": True}, "value must be"),
    ({"value": 10 ** 400}, "out of range"),
])
def test_malformed_tree_fields_are_invalid_tree(tmp_path, capsys, change, needle):
    # one period, so that a horizon of true would pass as 1
    doc = {"schema_version": "aw-tree/1", "horizon": 1, "nodes": [
        {"id": 0, "parent": None, "time": 0, "value": None},
        {"id": 1, "parent": 0, "time": 1, "value": 1.0, "cond_prob": 0.5},
        {"id": 2, "parent": 0, "time": 1, "value": -1.0, "cond_prob": 0.5},
    ]}
    if "horizon" in change:
        doc.update(change)
    else:
        doc["nodes"][1].update(change)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "aw", bad, bad)
    assert code == InvalidTree.exit_code and "InvalidTree" in err and needle in err


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6,
)
SMALL = st.integers(-1, 3) | JSON_VALUES


def _fields(**fields):
    return st.fixed_dictionaries({}, optional={k: v | JSON_VALUES for k, v in fields.items()})


TREE_DOCS = st.fixed_dictionaries({
    "schema_version": st.just("aw-tree/1"),
    "horizon": st.integers(1, 2) | JSON_VALUES,
    "nodes": st.lists(st.fixed_dictionaries(
        {"id": SMALL, "parent": st.none() | SMALL, "time": SMALL},
        optional={"value": st.floats(-2, 2) | JSON_VALUES,
                  "cond_prob": st.sampled_from([0.5, 1.0]) | JSON_VALUES},
    ), min_size=1, max_size=5),
})
# infinities and 10**400 overflow int() and float(), so draw them often
NUMBERS = (st.sampled_from([math.inf, -math.inf, math.nan, 10 ** 400, True])
           | st.integers() | st.floats())
CONFIG_DOCS = st.fixed_dictionaries(
    {"problem_class": st.sampled_from(["terminal", "controlled", "stopping"]) | JSON_VALUES,
     "model": st.fixed_dictionaries({"name": st.sampled_from(["linear", "utility"])},
                                    optional={"params": st.dictionaries(st.text(max_size=4),
                                                                        JSON_VALUES)}),
     "p": st.just(2.0) | NUMBERS | JSON_VALUES},
    optional={"radii": st.lists(NUMBERS, max_size=3) | JSON_VALUES, "seed": NUMBERS,
              "bounds": _fields(L=NUMBERS), "tolerances": _fields(value_tol=NUMBERS),
              "ascent": _fields(restarts=NUMBERS, max_iters=NUMBERS)},
)


@given(doc=TREE_DOCS)
@settings(max_examples=300, deadline=None)
def test_parse_tree_fuzz_raises_only_typed_errors(doc):
    try:
        parse_tree(json.dumps(doc))
    except AwsensError:
        pass


# record fields of another type than a valid tree's: floats where integers
# belong, strings, None, booleans, NaN and an integer beyond the float range
FIELD_VALUES = st.sampled_from([0, 1, 2, -1, 0.0, 1.0, 0.5, "1", None, True, False, math.nan,
                                10 ** 400])


@given(changes=st.lists(st.tuples(
    st.integers(0, 6), st.sampled_from(["horizon", "id", "time", "value", "cond_prob", "parent"]),
    FIELD_VALUES), min_size=1, max_size=3))
@settings(max_examples=300, deadline=None)
def test_tree_record_fuzz_raises_only_invalid_tree(changes):
    # the library entry below the parser: Node records straight to ScenarioTree
    horizon, nodes = 2, list(gen_binomial(2, 0.0, 1.0, -1.0, 0.5, 0.0).nodes)
    for k, field, value in changes:
        if field == "horizon":
            horizon = value
        else:
            nodes[k] = dataclasses.replace(nodes[k], **{field: value})
    try:
        ScenarioTree(horizon, nodes)
    except InvalidTree:
        pass


@given(doc=CONFIG_DOCS)
@settings(max_examples=300, deadline=None)
def test_run_config_fuzz_raises_only_typed_errors(doc):
    try:
        RunConfig.from_dict(doc)
    except AwsensError:
        pass


NON_NUMBERS = (st.none() | st.booleans() | st.text(max_size=4)
               | st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400, -10 ** 400])
               | st.lists(JSON_VALUES, max_size=3)
               | st.dictionaries(st.text(max_size=4), JSON_VALUES, max_size=2))
# finite numbers, half of them ones that overflow or round away when added up
EXTREMES = st.sampled_from([1e308, -1e308, 1e-17, 5e-324, 0.0, 1.0])
FINITE = st.booleans().flatmap(lambda extreme: EXTREMES if extreme else (
    st.floats(allow_nan=False, allow_infinity=False) | st.integers(-2 ** 70, 2 ** 70)))
# any JSON value: T-vectors of every length, nested lists and objects
ANY = FINITE | NON_NUMBERS | st.lists(FINITE, max_size=4)


@st.composite
def params_for(draw, group, name, T):
    """Mostly valid params of entry ``name`` of ``group`` for horizon ``T``:
    each declared key drawn by its shape, or left out when optional; then
    one key given any JSON value, or an unknown key added, or neither; or,
    one time in ten, no object at all.  Counts stay at most 3, so that a
    valid generator draw is a small tree."""
    if draw(st.integers(0, 9)) == 0:
        return draw(NON_NUMBERS)
    entries = PARAMS[group].get(name, ()) if isinstance(name, str) else ()
    shapes = {
        "scalar": lambda e: FINITE,
        "count": lambda e: st.integers(0, 3) | st.just(2.0),
        "T-vector": lambda e: st.lists(FINITE, min_size=T, max_size=T),
        "list": lambda e: st.lists(FINITE | st.floats(0.0, 1.0), min_size=2, max_size=3),
        "spec": lambda e: specs(e.rule, T),
    }
    out = {e.key: draw(shapes[e.shape](e)) for e in entries
           if e.default is None or draw(st.booleans())}
    how = draw(st.sampled_from(["valid", "valid", "any value", "unknown key"]))
    if how == "any value" and entries:
        out[draw(st.sampled_from(entries)).key] = draw(ANY)
    elif how == "unknown key":
        out["nope"] = draw(JSON_VALUES)
    return out


@st.composite
def specs(draw, group, T):
    """A spec of ``group``, mostly well formed."""
    spec = {"name": draw(st.sampled_from(sorted(PARAMS[group]) + ["nope", 3, None]))}
    how = draw(st.sampled_from(["", "params", "params", "params", "any params", "parms"]))
    if how == "params":
        spec["params"] = draw(params_for(group, spec["name"], T))
    elif how:
        spec[how.replace("any ", "")] = draw(ANY)
    return spec


@st.composite
def models(draw):
    name, T = draw(st.sampled_from(catalog_names())), draw(st.integers(1, 3))
    kind = next(k for k, names in CATALOG.items() if name in names)
    return kind, name, draw(params_for(kind, name, T)), T


@given(model=models())
@settings(max_examples=400, deadline=None)
def test_model_params_fuzz_raises_only_typed_errors(model):
    # None, booleans, strings, NaN, infinities, integers beyond the float
    # range, T-vectors of any length, nested lists, objects and specs, and
    # unknown keys: a model is built or an AwsensError raised, nothing else
    kind, name, params, T = model
    doc = {"problem_class": kind, "model": {"name": name, "params": params}, "p": 2.0}
    with np.errstate(all="ignore"):
        for build in (lambda: make_cost_model(name, params, T),
                      lambda: RunConfig.from_dict(doc).build_model(T)):
            try:
                build()
            except AwsensError:
                pass


@given(kind=st.sampled_from(sorted(GENERATORS)), data=st.data())
@settings(max_examples=300, deadline=None)
def test_gen_params_fuzz_exits_0_or_1(tmp_path_factory, kind, data):
    params = data.draw(params_for("generator", kind, None))
    out = tmp_path_factory.getbasetemp() / "fuzz_gen.json"
    with np.errstate(all="ignore"):
        # one argument, so that a document such as -Infinity is not read as an option
        code = main(["gen", "--kind", kind, f"--params={json.dumps(params)}", "--out", str(out)])
    assert code in (0, InvalidParams.exit_code)


def test_console_entry_point(tmp_path):
    # one subprocess run to prove the installed script wires up
    res = subprocess.run(
        [sys.executable, "-m", "awsens.cli", "aw",
         str(FIXTURES / "split_dirac_p.json"), str(FIXTURES / "split_dirac_q.json")],
        capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0
    assert json.loads(res.stdout)["pth_power"] == pytest.approx(2.01, abs=1e-9)
