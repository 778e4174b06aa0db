import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awsens import (
    AmbiguousStopping,
    InvalidParams,
    TooLarge,
    brute_force_stopping,
    count_stopping_policies,
    gen_binomial,
    gen_random,
    make_cost_model,
    solve_stopping,
    tree_from_nested,
)

IDENTITY = {"g": {"name": "identity"}}


def test_one_period_stops_everywhere():
    tree = tree_from_nested(1, [(2.0, 0.3), (-1.0, 0.7)])
    model = make_cost_model("markov_payoff", IDENTITY, 1)
    value, policy, table = solve_stopping(tree, model)
    assert value == pytest.approx(0.3 * 2.0 + 0.7 * (-1.0), abs=1e-15)
    assert policy.stop_set == frozenset(tree.leaves)
    assert set(policy.tau[list(tree.leaves)].tolist()) == {1}
    assert table.uniqueness_margin == math.inf


def test_drifted_binomial_waits(drifted_binomial):
    model = make_cost_model("markov_payoff", IDENTITY, 2)
    value, policy, table = solve_stopping(drifted_binomial, model)
    assert value == pytest.approx(-0.1, abs=1e-12)
    assert set(policy.tau[list(drifted_binomial.leaves)].tolist()) == {2}
    assert table.uniqueness_margin == pytest.approx(0.1, abs=1e-12)
    # read-only arrays by node id: tau 0 off the leaves, continuation +inf at them
    n = len(drifted_binomial.node_prob)
    for a in (policy.tau, table.envelope, table.continuation):
        assert a.shape == (n,) and not a.flags.writeable
    assert policy.tau.dtype == np.intp
    off_leaves = np.ones(n, dtype=bool)
    off_leaves[list(drifted_binomial.leaves)] = False
    assert not policy.tau[off_leaves].any()
    assert np.all(table.continuation[~off_leaves] == np.inf)
    assert table.envelope[drifted_binomial.root] == table.continuation[drifted_binomial.root]
    assert table.envelope[drifted_binomial.root] == value
    # the envelope is exactly min(stop, continuation) everywhere
    rep = {leaf: k for k, leaf in enumerate(drifted_binomial.leaves)}
    stop_vals = drifted_binomial.paths.values
    for nid in drifted_binomial.levels[1]:
        sv = stop_vals[[rep[lf] for lf in drifted_binomial.leaves if nid in
                        (drifted_binomial.nodes[lf].parent, lf)][0], 0]
        assert table.envelope[nid] == min(sv, table.continuation[nid])


def test_martingale_tree_is_ambiguous(martingale_binomial):
    model = make_cost_model("markov_payoff", IDENTITY, 2)
    with pytest.raises(AmbiguousStopping):
        solve_stopping(martingale_binomial, model)


def test_brute_force_matches_on_fixture(drifted_binomial):
    model = make_cost_model("markov_payoff", IDENTITY, 2)
    value, policy, _ = solve_stopping(drifted_binomial, model)
    bvalue, bpolicy, unique = brute_force_stopping(drifted_binomial, model)
    assert bvalue == pytest.approx(value, abs=1e-12)
    assert bpolicy.stop_set == policy.stop_set
    assert unique


def test_policy_counting():
    # per time-1 node: stop, or stop at both children; root multiplies
    tree = gen_binomial(2, 0.0, 1.0, -1.0, 0.5)
    assert count_stopping_policies(tree) == 4
    deep = gen_binomial(3, 0.0, 1.0, -1.0, 0.5)
    assert count_stopping_policies(deep) == 25


def test_brute_force_guard():
    big = gen_random(3, 4, 0)
    model = make_cost_model("markov_payoff", IDENTITY, 3)
    if count_stopping_policies(big) > 1_000_000:
        with pytest.raises(TooLarge):
            brute_force_stopping(big, model)
    else:  # pragma: no cover - guard depends on branching
        brute_force_stopping(big, model)


def random_stopping_model(seed: int, T: int):
    rng = np.random.default_rng(seed)
    kind = rng.integers(0, 3)
    if kind == 0:
        return make_cost_model(
            "markov_payoff",
            {"g": {"name": "quadratic",
                   "params": {"center": float(rng.normal()), "weight": float(rng.uniform(0.5, 2))}}},
            T,
        )
    if kind == 1:
        return make_cost_model(
            "markov_payoff",
            {"g": {"name": "sin",
                   "params": {"amplitude": float(rng.uniform(0.5, 2)),
                              "frequency": float(rng.uniform(0.5, 2))}}},
            T,
        )
    return make_cost_model("running_sum", {"coeff": float(rng.uniform(0.5, 2))}, T)


@given(seed=st.integers(0, 50_000))
@settings(max_examples=50, deadline=None)
def test_oracle_equivalence_random_instances(seed):
    tree = gen_random(2, 2, seed)
    model = random_stopping_model(seed, 2)
    try:
        value, policy, table = solve_stopping(tree, model)
    except AmbiguousStopping:
        return
    bvalue, bpolicy, unique = brute_force_stopping(tree, model)
    assert value == pytest.approx(bvalue, abs=1e-12)
    if table.uniqueness_margin > 1e-9:
        assert policy.stop_set == bpolicy.stop_set
        assert policy.tau.tobytes() == bpolicy.tau.tobytes()


@given(seed=st.integers(0, 50_000))
@settings(max_examples=30, deadline=None)
def test_envelope_dominance(seed):
    tree = gen_random(2, 3, seed)
    model = random_stopping_model(seed + 1, 2)
    try:
        _, _, table = solve_stopping(tree, model)
    except AmbiguousStopping:
        return
    xs = tree.paths.values
    rep = {}
    for k, leaf in enumerate(tree.leaves):
        nid = leaf
        while nid is not None and nid not in rep:
            rep[nid] = k
            nid = tree.nodes[nid].parent
    # the leaves too, where the continuation is +inf
    for t in range(1, tree.horizon + 1):
        for nid in tree.levels[t]:
            sv = float(model.value_fn(xs[rep[nid]][None, :], t)[0])
            assert table.envelope[nid] <= sv
            assert table.envelope[nid] <= table.continuation[nid]
            assert table.envelope[nid] == min(sv, table.continuation[nid])


def test_first_time_strict_characterization():
    # at every time-1 node, stopping is chosen exactly when the immediate
    # value undercuts the expected continuation
    model = make_cost_model("markov_payoff",
                            {"g": {"name": "quadratic", "params": {"center": 0.4}}}, 2)
    hits = 0
    for seed in range(40):
        tree = gen_random(2, 2, seed)
        try:
            _, policy, table = solve_stopping(tree, model)
        except AmbiguousStopping:
            continue
        xs = tree.paths.values
        leaf_of = {leaf: k for k, leaf in enumerate(tree.leaves)}
        for nid in tree.levels[1]:
            k = next(leaf_of[lf] for lf in tree.leaves if tree.ancestor(lf, 1) == nid)
            sv = float(model.value_fn(xs[k][None, :], 1)[0])
            stopped = nid in policy.stop_set
            assert stopped == (sv < table.continuation[nid])
            hits += 1
    assert hits > 20


def test_rejects_wrong_kind(iid_signs):
    lin = make_cost_model("linear", {"coeffs": [1.0, 1.0]}, 2)
    with pytest.raises(InvalidParams):
        solve_stopping(iid_signs, lin)
    with pytest.raises(InvalidParams):
        brute_force_stopping(iid_signs, lin)
