import json
import math
import os
import pathlib
import subprocess
import sys

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
    TooLarge,
    gen_binomial,
    gen_lattice,
    gen_random,
)
from awsens.cli import RunConfig, main, parse_tree, serialize_tree

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


def test_import_leaves_scipy_unloaded():
    code = "import sys, awsens.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    src = str(FIXTURES.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"


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
    assert exc.value.code == 2 and "--threads" in capsys.readouterr().err


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


@given(doc=CONFIG_DOCS)
@settings(max_examples=300, deadline=None)
def test_run_config_fuzz_raises_only_typed_errors(doc):
    try:
        RunConfig.from_dict(doc)
    except AwsensError:
        pass


def test_console_entry_point(tmp_path):
    # one subprocess run to prove the installed script wires up
    res = subprocess.run(
        [sys.executable, "-m", "awsens.cli", "aw",
         str(FIXTURES / "split_dirac_p.json"), str(FIXTURES / "split_dirac_q.json")],
        capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0
    assert json.loads(res.stdout)["pth_power"] == pytest.approx(2.01, abs=1e-9)
