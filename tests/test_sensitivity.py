import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from awsens import (
    ControlBounds,
    FlatStep,
    InvalidParams,
    ball_membership,
    build_utility_cost,
    gen_binomial,
    gen_random,
    make_cost_model,
    make_utility_model,
    perturbed_model,
    register_cost_model,
    sensitivity_control,
    sensitivity_stopping,
    sensitivity_terminal,
    solve_stopping,
    solve_value,
    tree_from_nested,
    utility_first_order,
    worst_case_direction,
)
from awsens.adapted_wasserstein import CouplingTree, PairNode, check_causal
from awsens.cost_models import CATALOG
from awsens.sensitivity import first_order, leaf_gradients

L = ControlBounds(10.0)


# -- terminal ------------------------------------------------------------------


def test_linear_terminal_closed_form(iid_signs):
    m = make_cost_model("linear", {"coeffs": [1.0, 1.0]}, 2)
    rep = sensitivity_terminal(iid_signs, m, 2.0)
    assert rep.first_order == pytest.approx(math.sqrt(2.0), abs=1e-12)
    for t in (1, 2):
        assert all(v == 1.0 for v in rep.cond_grads[t].values())


def test_constant_cost_has_zero_sensitivity(iid_signs):
    m = make_cost_model("quadratic_tracking", {"weights": [0.0, 0.0], "targets": [0.0, 0.0]}, 2)
    rep = sensitivity_terminal(iid_signs, m, 2.0)
    assert rep.first_order == 0.0


def test_product_cost_on_independent_signs(iid_signs):
    # d/dx1 f = x2 averages to zero given x1; d/dx2 f = x1 is known at time 2
    m = make_cost_model("coordinate_product", {}, 2)
    rep = sensitivity_terminal(iid_signs, m, 2.0)
    assert rep.stage_qnorms[0] == pytest.approx(0.0, abs=1e-15)
    assert rep.stage_qnorms[1] == pytest.approx(1.0, abs=1e-15)
    assert rep.first_order == pytest.approx(1.0, abs=1e-15)


def _terminal_params(name, T, draw):
    unit = st.floats(-1.0, 1.0)
    if name == "linear":
        return {"coeffs": [2.0 * draw(unit) for _ in range(T)]}
    if name == "quadratic_tracking":
        return {"weights": [1.0 + draw(unit) for _ in range(T)],
                "targets": [draw(unit) for _ in range(T)]}
    if name == "softplus_call":
        return {"strike": draw(unit), "sharpness": draw(st.floats(0.1, 5.0))}
    if name == "exp_sum":
        return {"beta": draw(unit), "scale": draw(st.floats(0.1, 2.0))}
    return {}


@given(tree=st.sampled_from(["random", "binomial"]), T=st.integers(1, 4), b=st.integers(2, 4),
       seed=st.integers(0, 10_000), name=st.sampled_from(CATALOG["terminal"]),
       p=st.sampled_from([1.5, 2.0, 3.0]), data=st.data())
@example(tree="random", T=4, b=4, seed=0, name="coordinate_product", p=2.0, data=None)
# |gradient|^q is subnormal here: unscaled, both sums lost about a percent
@example(tree="binomial", T=2, b=2, seed=0, name="linear", p=3.0,
         data={"coeffs": [0.0, 0.0, 4.035515886178155e-215, 0.0]})
@settings(max_examples=60, deadline=None)
def test_adapted_first_order_at_most_flat(tree, T, b, seed, name, p, data):
    # conditional Jensen: (sum_t E|E[d_t f | F_t]|^q)^(1/q) <= (sum_t E|d_t f|^q)^(1/q),
    # the right side being the first-order term of the flat Wasserstein ball,
    # here summed with the gradients scaled by a power of two near their largest
    if tree == "random":
        P = gen_random(T, b, seed)
    else:
        rng = np.random.default_rng(seed)
        P = gen_binomial(T + 2, 0.0, rng.uniform(0.5, 1.5), rng.uniform(-1.5, -0.5),
                         rng.uniform(0.2, 0.8), rng.uniform(-0.1, 0.1))
    # an explicit example gives the params themselves, or None for the defaults
    params = _terminal_params(name, P.horizon, data.draw) if hasattr(data, "draw") else data
    model = make_cost_model(name, params, P.horizon)
    rep, _, optimizer = first_order(P, model, p)
    q = p / (p - 1.0)
    grads = leaf_gradients(P, model, optimizer)
    k = math.frexp(float(np.abs(grads).max()))[1]
    flat = float(P.paths.probs @ (np.abs(np.ldexp(grads, -k)) ** q).sum(axis=1)) ** (1.0 / q)
    assert rep.first_order <= math.ldexp(flat, k) * (1.0 + 1e-12)


# -- controlled -----------------------------------------------------------------


def test_control_with_a_independent_gradient_reduces_to_terminal(iid_signs):
    qc = make_cost_model("quadratic_control", {"targets": [0.3, -0.2], "coeffs": [0.5, 1.5]}, 2)
    lin = make_cost_model("linear", {"coeffs": [0.5, 1.5]}, 2)
    got, _ = sensitivity_control(iid_signs, qc, L, 2.0)
    want = sensitivity_terminal(iid_signs, lin, 2.0)
    assert got.first_order == pytest.approx(want.first_order, abs=1e-12)
    assert got.stage_qnorms == pytest.approx(want.stage_qnorms, abs=1e-12)


def test_symmetric_utility_zero_optimizer_agreement(martingale_binomial):
    u = make_utility_model(
        {"loss": {"name": "quadratic"}, "payoff": {"name": "zero"}, "x0": 0.5}, 2
    )
    cm = build_utility_cost(u, 2)
    from_control, pol = sensitivity_control(martingale_binomial, cm, L, 2.0)
    from_formula, _ = utility_first_order(martingale_binomial, u, L, 2.0)
    assert all(abs(v) <= 1e-9 for v in pol.values.values())
    assert from_control.first_order == pytest.approx(0.0, abs=1e-8)
    assert from_formula.first_order == pytest.approx(from_control.first_order, abs=1e-8)


def test_drifted_scalar_utility_agreement():
    t1 = tree_from_nested(1, [(1.0, 0.6), (-1.0, 0.4)])
    u = make_utility_model(
        {"loss": {"name": "quadratic"},
         "payoff": {"name": "linear", "params": {"coeffs": [1.0]}}, "x0": 0.0},
        1,
    )
    cm = build_utility_cost(u, 1)
    from_control, pol = sensitivity_control(t1, cm, L, 2.0)
    from_formula, _ = utility_first_order(t1, u, L, 2.0)
    assert pol.values[t1.root] == pytest.approx(-1.0, abs=1e-9)
    assert from_control.first_order == pytest.approx(from_formula.first_order, abs=1e-9)


def test_one_period_utility_formula_structure():
    # with g = 0 and T = 1 the display collapses to |a*| E[|E[l'(W)|F_1]|^q]^{1/q}
    t1 = tree_from_nested(1, [(2.0, 0.6), (-1.0, 0.4)])
    u = make_utility_model(
        {"loss": {"name": "exponential", "params": {"rate": 1.0}},
         "payoff": {"name": "zero"}, "x0": 0.0},
        1,
    )
    rep, pol = utility_first_order(t1, u, L, 2.0)
    astar = pol.values[t1.root]
    xs = t1.paths.values[:, 0]
    probs = t1.paths.probs
    lp = np.exp(astar * xs)
    expected = abs(astar) * (probs @ np.abs(lp) ** 2) ** 0.5
    assert rep.first_order == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("loss", ["quadratic", "exponential", "smoothed_power"])
def test_random_utility_cross_formula_agreement(loss):
    lparams = {"rate": 0.5} if loss == "exponential" else {"exponent": 3.0}
    for k in range(12):
        tree = gen_random(2, 2, 3000 + k)
        u = make_utility_model(
            {"loss": {"name": loss, "params": lparams},
             "payoff": {"name": "linear", "params": {"coeffs": [0.3, -0.2]}},
             "x0": 5.0},
            2,
        )
        cm = build_utility_cost(u, 2)
        a, _ = sensitivity_control(tree, cm, ControlBounds(5.0), 2.0)
        b, _ = utility_first_order(tree, u, ControlBounds(5.0), 2.0)
        assert a.first_order == pytest.approx(b.first_order, rel=1e-8, abs=1e-10)


def test_utility_formula_matches_controlled_gradients_and_raises_value():
    # the acceptance-5 instances: not only the norms agree but every
    # conditional gradient, so the direction raises the hedging value
    losses = [("quadratic", {}), ("exponential", {"rate": 0.5}),
              ("smoothed_power", {"exponent": 3.0})]
    payoffs = [("zero", {}), ("linear", {"coeffs": [0.3, -0.2]}), ("mean", {}),
               ("softplus_call", {"strike": 0.1, "sharpness": 1.0}),
               ("final_value", {"scale": 0.8})]
    bounds, r = ControlBounds(5.0), 1e-4
    for k in range(50):
        tree = gen_random(2, 2, 800_000 + k)
        (lname, lparams), (pname, pparams) = losses[k % 3], payoffs[k % 5]
        u = make_utility_model({"loss": {"name": lname, "params": lparams},
                                "payoff": {"name": pname, "params": pparams}, "x0": 5.0}, 2)
        cm = build_utility_cost(u, 2)
        want, _ = sensitivity_control(tree, cm, bounds, 2.0)
        got, _ = utility_first_order(tree, u, bounds, 2.0)
        for t, vals in want.cond_grads.items():
            for nid, g in vals.items():
                assert got.cond_grads[t][nid] == pytest.approx(g, rel=0.0, abs=1e-8)
        direction = worst_case_direction(tree, got)
        if direction.degenerate:
            continue
        moved = perturbed_model(tree, direction, r)
        assert solve_value(moved, cm, bounds).value > solve_value(tree, cm, bounds).value


def test_flat_step_rejected():
    flat = tree_from_nested(2, [(0.5, 1.0, [(0.5, 0.5), (1.5, 0.5)])])
    u = make_utility_model({"loss": {"name": "quadratic"}, "payoff": {"name": "zero"}, "x0": 0.0}, 2)
    with pytest.raises(FlatStep):
        utility_first_order(flat, u, L, 2.0)
    # flat against the initial level counts too
    flat0 = tree_from_nested(1, [(0.25, 0.5), (1.0, 0.5)])
    u0 = make_utility_model({"loss": {"name": "quadratic"}, "payoff": {"name": "zero"}, "x0": 0.25}, 1)
    with pytest.raises(FlatStep):
        utility_first_order(flat0, u0, L, 2.0)


# -- stopping --------------------------------------------------------------------


def test_markovian_shortcut_matches_general_formula(drifted_binomial):
    g = {"g": {"name": "quadratic", "params": {"center": 0.3, "weight": 1.2}}}
    model = make_cost_model("markov_payoff", g, 2)
    rep, tau = sensitivity_stopping(drifted_binomial, model, 2.0)
    # E[|g'(X_tau)|^q]^{1/q} computed directly from the path table
    xs = drifted_binomial.paths.values
    probs = drifted_binomial.paths.probs
    taus = np.array([tau[leaf] for leaf in drifted_binomial.leaves])
    xtau = xs[np.arange(len(taus)), taus - 1]
    shortcut = float(probs @ np.abs(2 * 1.2 * (xtau - 0.3)) ** 2) ** 0.5
    assert rep.first_order == pytest.approx(shortcut, abs=1e-10)


def test_drifted_binomial_indicator_gradients(drifted_binomial):
    model = make_cost_model("markov_payoff", {"g": {"name": "identity"}}, 2)
    rep, tau = sensitivity_stopping(drifted_binomial, model, 2.0)
    assert set(tau.values()) == {2}
    assert rep.stage_qnorms[0] == 0.0
    assert rep.stage_qnorms[1] == pytest.approx(1.0, abs=1e-15)
    assert rep.first_order == pytest.approx(1.0, abs=1e-15)


def test_state_independent_stopping_cost(drifted_binomial):
    model = register_cost_model(
        "stopping",
        "time_only",
        2,
        value_fn=lambda x, t: np.full(x.shape[0], 0.5 * t),
        grad_x_fn=lambda x, t: np.zeros_like(x),
    )
    rep, _ = sensitivity_stopping(drifted_binomial, model, 2.0)
    assert rep.first_order == 0.0


# -- the dual direction -----------------------------------------------------------


def test_direction_two_stage_closed_form(iid_signs):
    m = make_cost_model("coordinate_product", {}, 2)
    rep = sensitivity_terminal(iid_signs, m, 2.0)
    wcd = worst_case_direction(iid_signs, rep)
    assert wcd.stage_weights == pytest.approx((0.0, 1.0), abs=1e-15)
    assert all(v == 0.0 for v in wcd.values[1].values())
    # G_2 = X_1 on the four time-2 nodes: the direction is its sign
    for nid, z in wcd.values[2].items():
        parent_val = iid_signs.nodes[iid_signs.nodes[nid].parent].value
        assert z == pytest.approx(math.copysign(1.0, parent_val), abs=1e-15)
    assert wcd.norm_check == pytest.approx(1.0, abs=1e-12)
    assert wcd.pairing == pytest.approx(rep.first_order, abs=1e-12)


def test_direction_single_stage_sign():
    t1 = tree_from_nested(1, [(1.0, 0.5), (-1.0, 0.5)])
    m = make_cost_model("linear", {"coeffs": [-2.5]}, 1)
    rep = sensitivity_terminal(t1, m, 2.0)
    wcd = worst_case_direction(t1, rep)
    assert all(v == -1.0 for v in wcd.values[1].values())
    assert wcd.pairing == pytest.approx(2.5, abs=1e-12)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_direction_equalities_random_reports(p):
    for seed in range(25):
        tree = gen_random(2, 2, 7000 + seed)
        m = make_cost_model(
            "quadratic_tracking",
            {"weights": [1.0, 0.7], "targets": [0.1, -0.4]},
            2,
        )
        rep = sensitivity_terminal(tree, m, p)
        wcd = worst_case_direction(tree, rep)
        if rep.first_order == 0.0:
            assert wcd.degenerate
            continue
        assert wcd.norm_check == pytest.approx(1.0, abs=1e-9)
        assert wcd.pairing == pytest.approx(rep.first_order, abs=1e-9)
        assert sum(w**p for w in wcd.stage_weights) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("scale", [2.0**-700, 2.0**700])
def test_direction_of_extreme_gradients_is_scale_free(iid_signs, scale, p):
    # |G|^(q-1) of these gradients overflows or underflows for some p; the
    # direction of the gradients scaled by a power of two is the same
    coeffs = [0.75, -1.25]
    unit = worst_case_direction(
        iid_signs, sensitivity_terminal(iid_signs, make_cost_model("linear", {"coeffs": coeffs}, 2),
                                        p))
    model = make_cost_model("linear", {"coeffs": [scale * c for c in coeffs]}, 2)
    rep = sensitivity_terminal(iid_signs, model, p)
    wcd = worst_case_direction(iid_signs, rep)
    for t, vals in unit.values.items():
        for nid, z in vals.items():
            assert wcd.values[t][nid] == pytest.approx(z, rel=1e-12)
    assert wcd.norm_check == pytest.approx(1.0, abs=1e-12)
    assert wcd.pairing == pytest.approx(rep.first_order, rel=1e-12)


def test_degenerate_direction_flag(iid_signs):
    m = make_cost_model("quadratic_tracking", {"weights": [0.0, 0.0], "targets": [0.0, 0.0]}, 2)
    wcd = worst_case_direction(iid_signs, sensitivity_terminal(iid_signs, m, 2.0))
    assert wcd.degenerate
    assert wcd.norm_check == 0.0


# -- perturbed models --------------------------------------------------------------


def test_zero_radius_returns_same_tree(iid_signs):
    m = make_cost_model("linear", {"coeffs": [0.0, 1.0]}, 2)
    wcd = worst_case_direction(iid_signs, sensitivity_terminal(iid_signs, m, 2.0))
    assert perturbed_model(iid_signs, wcd, 0.0) is iid_signs
    with pytest.raises(InvalidParams):
        perturbed_model(iid_signs, wcd, -0.1)


def test_linear_shift_exact_gain(iid_signs):
    m = make_cost_model("linear", {"coeffs": [0.0, 1.0]}, 2)
    rep = sensitivity_terminal(iid_signs, m, 2.0)
    wcd = worst_case_direction(iid_signs, rep)
    r = 0.3
    moved = perturbed_model(iid_signs, wcd, r)
    gain = float(moved.paths.probs @ m.value_fn(moved.paths.values)) - float(
        iid_signs.paths.probs @ m.value_fn(iid_signs.paths.values)
    )
    assert gain == pytest.approx(r * rep.first_order, abs=1e-12)
    ok, dist = ball_membership(iid_signs, moved, 2.0, r)
    assert ok and dist == pytest.approx(r, abs=1e-12)


def test_perturbed_model_is_bicausal_displacement(iid_signs):
    m = make_cost_model("quadratic_tracking", {"weights": [1.0, 1.0], "targets": [0.3, -0.6]}, 2)
    rep = sensitivity_terminal(iid_signs, m, 2.0)
    wcd = worst_case_direction(iid_signs, rep)
    moved = perturbed_model(iid_signs, wcd, 0.05)
    # node-aligned coupling between the tree and its shift is bicausal
    pairs = [PairNode(0, 0, iid_signs.root, moved.root, 1.0, None)]
    stack = [(0, iid_signs.root, moved.root)]
    while stack:
        pid, xn, yn = stack.pop()
        for xc, yc in zip(iid_signs.children[xn], moved.children[yn]):
            nid = len(pairs)
            pairs.append(PairNode(nid, iid_signs.nodes[xc].time, xc, yc,
                                  iid_signs.nodes[xc].cond_prob, pid))
            stack.append((nid, xc, yc))
    coupling = CouplingTree(iid_signs, moved, pairs)
    assert check_causal(coupling, "x_to_y") and check_causal(coupling, "y_to_x")


def test_perturbed_model_bicausalizes_on_collision():
    # two siblings 2r apart collide under opposite unit shifts
    tree = tree_from_nested(1, [(0.1, 0.5), (-0.1, 0.5)])
    m = make_cost_model("linear", {"coeffs": [1.0]}, 1)
    rep = sensitivity_terminal(tree, m, 2.0)
    wcd = worst_case_direction(tree, rep)
    # shifting both atoms by +r keeps them distinct; force a collision by
    # a custom direction pushing them together
    from awsens.sensitivity import WorstCaseDirection

    ids = tree.levels[1]
    squeeze = WorstCaseDirection(
        p=2.0, q=2.0,
        values={1: {ids[0]: -1.0, ids[1]: 1.0}},
        stage_weights=(1.0,), norm_check=1.0, pairing=0.0, degenerate=False,
    )
    moved = perturbed_model(tree, squeeze, 0.1, delta=1e-3)
    assert len(moved.leaves) == 2  # still two atoms, separated by the encoding
    vals = sorted(moved.nodes[n].value for n in moved.leaves)
    assert abs(vals[1] - vals[0]) <= 1e-3
    ok, dist = ball_membership(tree, moved, 2.0, 0.1 + 1e-3 * 1.0 + 1e-8)
    assert ok
    with pytest.raises(Exception):
        perturbed_model(tree, squeeze, 0.1, delta=0.0)


def test_homogeneity_in_the_cost(iid_signs):
    base = make_cost_model("linear", {"coeffs": [0.25, -0.75]}, 2)
    doubled = make_cost_model("linear", {"coeffs": [0.5, -1.5]}, 2)
    a = sensitivity_terminal(iid_signs, base, 2.0)
    b = sensitivity_terminal(iid_signs, doubled, 2.0)
    assert b.first_order == 2.0 * a.first_order  # power-of-two scaling is exact
    m15 = sensitivity_terminal(iid_signs, base, 1.5)
    d15 = sensitivity_terminal(iid_signs, doubled, 1.5)
    assert d15.first_order == pytest.approx(2.0 * m15.first_order, rel=1e-12)


def test_zero_first_order_curves_are_higher_order(iid_signs):
    # gradient vanishes on the support: robust gain at r = 1e-3 is O(r^3)
    def value(x):
        return np.sum((x**2 - 1.0) ** 3, axis=1)

    def grad(x):
        return 6.0 * x * (x**2 - 1.0) ** 2

    model = register_cost_model("terminal", "vanishing", 2, value, grad)
    rep = sensitivity_terminal(iid_signs, model, 2.0)
    assert rep.first_order == 0.0
    rng = np.random.default_rng(0)
    worst = 0.0
    base = float(iid_signs.paths.probs @ value(iid_signs.paths.values))
    r = 1e-3
    for _ in range(32):
        raw = rng.normal(size=len(iid_signs.nodes) - 1)
        raw /= np.linalg.norm(raw)
        shifts = {nid: r * raw[k] for k, nid in enumerate(
            n.id for n in iid_signs.nodes if n.parent is not None)}
        from awsens.process_tree import Node, ScenarioTree

        nodes = [
            Node(nd.id, nd.time, None if nd.parent is None else nd.value + shifts[nd.id],
                 nd.cond_prob, nd.parent)
            for nd in iid_signs.nodes
        ]
        moved = ScenarioTree(2, nodes)
        worst = max(worst, float(moved.paths.probs @ value(moved.paths.values)) - base)
    assert worst <= 1e-4


# -- directional slopes validate the expansions -----------------------------------


def richardson_limit(radii, gains):
    rvals = np.asarray(radii)
    yvals = np.asarray(gains) / rvals
    X = np.stack([np.ones_like(rvals), rvals], axis=1)
    W = np.diag(1.0 / rvals)
    beta = np.linalg.solve(X.T @ W @ X, X.T @ W @ yvals)
    return float(beta[0])


@pytest.mark.parametrize("name,params", [
    ("quadratic_tracking", {"weights": [1.0, 0.6], "targets": [0.2, -0.1]}),
    ("exp_sum", {"beta": 0.4, "scale": 0.7}),
    ("softplus_call", {"strike": 0.25, "sharpness": 1.3}),
])
def test_terminal_directional_slope(iid_signs, name, params):
    model = make_cost_model(name, params, 2)
    rep = sensitivity_terminal(iid_signs, model, 2.0)
    wcd = worst_case_direction(iid_signs, rep)
    base = float(iid_signs.paths.probs @ model.value_fn(iid_signs.paths.values))
    radii = [1e-1, 1e-2, 1e-3, 1e-4]
    gains = []
    for r in radii:
        moved = perturbed_model(iid_signs, wcd, r)
        gains.append(float(moved.paths.probs @ model.value_fn(moved.paths.values)) - base)
    slope = richardson_limit(radii, gains)
    assert slope == pytest.approx(rep.first_order, rel=0.01)


def test_controlled_directional_slope():
    tree = gen_binomial(2, 0.0, 1.0, -1.0, 0.6, 0.0)
    u = make_utility_model(
        {"loss": {"name": "exponential", "params": {"rate": 1.0}},
         "payoff": {"name": "zero"}, "x0": 0.0},
        2,
    )
    cm = build_utility_cost(u, 2)
    rep, _ = sensitivity_control(tree, cm, L, 2.0)
    wcd = worst_case_direction(tree, rep)
    base = solve_value(tree, cm, L).value
    radii = [1e-1, 1e-2, 1e-3, 1e-4]
    gains = [solve_value(perturbed_model(tree, wcd, r), cm, L).value - base for r in radii]
    assert richardson_limit(radii, gains) == pytest.approx(rep.first_order, rel=0.01)


def test_stopping_directional_slope(drifted_binomial):
    model = make_cost_model("markov_payoff", {"g": {"name": "identity"}}, 2)
    rep, _ = sensitivity_stopping(drifted_binomial, model, 2.0)
    wcd = worst_case_direction(drifted_binomial, rep)
    base, _, _ = solve_stopping(drifted_binomial, model)
    radii = [0.05, 1e-2, 1e-3, 1e-4]  # r = 0.1 ties stop and continuation
    gains = [solve_stopping(perturbed_model(drifted_binomial, wcd, r), model)[0] - base
             for r in radii]
    assert richardson_limit(radii, gains) == pytest.approx(rep.first_order, rel=0.01)
