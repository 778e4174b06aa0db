import numpy as np
import pytest

from awsens import (
    AWParams,
    ControlBounds,
    InvalidParams,
    MaxIterations,
    NotConvex,
    TooLarge,
    aw_distance,
    brute_force_value,
    build_utility_cost,
    gen_random,
    make_cost_model,
    make_utility_model,
    register_cost_model,
    solve_value,
    tree_from_nested,
    uniqueness_spread,
)
from awsens.multistage_opt import _variable_layout, scatter_sum, strong_convexity_probe
from awsens.process_tree import Node, ScenarioTree

L10 = ControlBounds(10.0)


def test_bounds_validation():
    with pytest.raises(InvalidParams):
        ControlBounds(0.0)
    with pytest.raises(InvalidParams):
        ControlBounds(float("inf"))


def test_separable_quadratic_zero_policy(iid_signs):
    # f = sum a_t^2 + c . x: controls vanish, value = E[c . X]
    m = make_cost_model("quadratic_control", {"targets": [0.0, 0.0], "coeffs": [1.0, 2.0]}, 2)
    rep = solve_value(iid_signs, m, L10)
    assert rep.value == pytest.approx(0.0, abs=1e-12)  # E[X1] = E[X2] = 0
    assert all(abs(v) <= 1e-9 for v in rep.policy.values.values())
    assert rep.kkt_residual <= 1e-9


def test_box_clamped_policy(iid_signs):
    m = make_cost_model("quadratic_control", {"targets": [1.0, 1.0], "coeffs": [0.0, 0.0]}, 2)
    rep = solve_value(iid_signs, m, ControlBounds(0.5))
    assert rep.value == pytest.approx(2 * 0.25, abs=1e-12)
    assert all(v == pytest.approx(0.5, abs=1e-12) for v in rep.policy.values.values())


def test_scalar_utility_closed_forms():
    t1 = tree_from_nested(1, [(1.0, 0.6), (-1.0, 0.4)])
    # no payoff: doing nothing is optimal
    u0 = make_utility_model({"loss": {"name": "quadratic"}, "payoff": {"name": "zero"}, "x0": 0.0}, 1)
    rep0 = solve_value(t1, build_utility_cost(u0, 1), L10)
    assert rep0.value == pytest.approx(0.0, abs=1e-15)
    assert rep0.policy.values[t1.root] == pytest.approx(0.0, abs=1e-9)
    # payoff x1: minimize E[((1 + a) X1)^2] over the deterministic a
    u1 = make_utility_model(
        {"loss": {"name": "quadratic"}, "payoff": {"name": "linear", "params": {"coeffs": [1.0]}},
         "x0": 0.0},
        1,
    )
    rep1 = solve_value(t1, build_utility_cost(u1, 1), L10)
    assert rep1.policy.values[t1.root] == pytest.approx(-1.0, abs=1e-9)
    assert rep1.value == pytest.approx(0.0, abs=1e-12)
    assert brute_force_value(t1, build_utility_cost(u1, 1), L10, grid_n=41) == pytest.approx(
        rep1.value, abs=1e-6
    )


def test_solver_never_beats_brute_force(iid_signs):
    rng = np.random.default_rng(0)
    for k in range(5):
        m = make_cost_model(
            "quadratic_control",
            {"targets": rng.uniform(-2, 2, size=2).tolist(),
             "coeffs": rng.uniform(-1, 1, size=2).tolist()},
            2,
        )
        rep = solve_value(iid_signs, m, ControlBounds(1.5))
        grid = brute_force_value(iid_signs, m, ControlBounds(1.5), grid_n=13)
        assert rep.value <= grid + 1e-9


def test_brute_force_grid_convergence(drifted_binomial):
    u = make_utility_model(
        {"loss": {"name": "quadratic"},
         "payoff": {"name": "final_value", "params": {"scale": 0.5}}, "x0": 0.1},
        2,
    )
    m = build_utility_cost(u, 2)
    bounds = ControlBounds(2.0)
    rep = solve_value(drifted_binomial, m, bounds)
    ids, _ = _variable_layout(drifted_binomial)
    zstar = np.array([rep.policy.values[n] for n in ids])
    from awsens.multistage_opt import control_grid_error_bound

    for grid_n in (11, 41):
        grid_val = brute_force_value(drifted_binomial, m, bounds, grid_n)
        bound = control_grid_error_bound(drifted_binomial, m, bounds, zstar, grid_n)
        assert rep.value <= grid_val <= rep.value + bound


def test_brute_force_guard(iid_signs):
    m = make_cost_model("quadratic_control", {}, 2)
    with pytest.raises(TooLarge):
        brute_force_value(iid_signs, m, L10, grid_n=200)
    with pytest.raises(InvalidParams):
        brute_force_value(iid_signs, m, L10, grid_n=1)


def test_kkt_certificate_on_active_box(iid_signs):
    m = make_cost_model("quadratic_control", {"targets": [2.0, -2.0], "coeffs": [0.0, 0.0]}, 2)
    bounds = ControlBounds(1.0)
    rep = solve_value(iid_signs, m, bounds)
    ids, aidx = _variable_layout(iid_signs)
    z = np.array([rep.policy.values[n] for n in ids])
    xs = iid_signs.paths.values
    w = iid_signs.paths.probs
    grads = m.grad_a_fn(xs, z[aidx])
    g = np.zeros(len(ids))
    np.add.at(g, aidx, w[:, None] * grads)
    for k in range(len(ids)):
        interior_ok = abs(g[k]) <= 1e-8
        at_wall = abs(abs(z[k]) - bounds.L) <= 1e-12 and g[k] * z[k] < 0
        assert interior_ok or at_wall


def test_objective_convex_along_segments(iid_signs):
    u = make_utility_model(
        {"loss": {"name": "smoothed_power", "params": {"exponent": 3.0}},
         "payoff": {"name": "mean"}, "x0": 0.3},
        2,
    )
    m = build_utility_cost(u, 2)
    ids, aidx = _variable_layout(iid_signs)
    xs, w = iid_signs.paths.values, iid_signs.paths.probs

    def phi(z):
        return float(w @ m.value_fn(xs, z[aidx]))

    rng = np.random.default_rng(1)
    for _ in range(20):
        za = rng.uniform(-2, 2, size=len(ids))
        zb = rng.uniform(-2, 2, size=len(ids))
        mid = 0.5 * (za + zb)
        assert phi(mid) <= 0.5 * phi(za) + 0.5 * phi(zb) + 1e-10


def test_uniqueness_witness_multistart(iid_signs):
    u = make_utility_model(
        {"loss": {"name": "quadratic"},
         "payoff": {"name": "softplus_call", "params": {"strike": 0.0}}, "x0": 0.4},
        2,
    )
    m = build_utility_cost(u, 2)
    assert strong_convexity_probe(iid_signs, m, ControlBounds(3.0)) > 0.0
    assert uniqueness_spread(iid_signs, m, ControlBounds(3.0), restarts=16, seed=4) <= 1e-6


def test_value_continuity_under_shrinking_jitter(iid_signs):
    # |v(Q) - v(P)| stays of the order of the adapted distance as Q -> P
    u = make_utility_model(
        {"loss": {"name": "quadratic"},
         "payoff": {"name": "final_value", "params": {"scale": 1.0}}, "x0": 0.4},
        2,
    )
    m = build_utility_cost(u, 2)
    bounds = ControlBounds(3.0)
    base = solve_value(iid_signs, m, bounds).value
    rng = np.random.default_rng(11)
    bump = {nid: float(b) for nid, b in zip(
        (n.id for n in iid_signs.nodes if n.parent is not None),
        rng.uniform(0.5, 1.0, size=len(iid_signs.nodes) - 1),
    )}
    gaps = []
    dists = []
    for scale in (0.2, 0.1, 0.05, 0.025):
        nodes = [
            Node(nd.id, nd.time, None if nd.parent is None else nd.value + scale * bump[nd.id],
                 nd.cond_prob, nd.parent)
            for nd in iid_signs.nodes
        ]
        jittered = ScenarioTree(2, nodes)
        dists.append(aw_distance(iid_signs, jittered, AWParams(2.0)).distance)
        gaps.append(abs(solve_value(jittered, m, bounds).value - base))
    assert all(g2 <= g1 + 1e-12 for g1, g2 in zip(gaps, gaps[1:]))
    ratios = [g / d for g, d in zip(gaps, dists)]
    assert max(ratios) <= 10.0 * max(ratios[-1], 0.1)


def test_not_convex_rejected(iid_signs):
    concave = register_cost_model(
        "controlled",
        "concave",
        2,
        value_fn=lambda x, a: -np.sum(a**2, axis=1),
        grad_x_fn=lambda x, a: np.zeros_like(x),
        grad_a_fn=lambda x, a: -2.0 * a,
    )
    with pytest.raises(NotConvex):
        solve_value(iid_signs, concave, L10)


def test_max_iterations_raised(iid_signs):
    m = make_cost_model("quadratic_control", {"targets": [1.0, 1.0], "coeffs": [0.0, 0.0]}, 2)
    with pytest.raises(MaxIterations):
        solve_value(iid_signs, m, L10, tol=1e-15, max_iter=1)


def test_rejects_wrong_kind(iid_signs):
    lin = make_cost_model("linear", {"coeffs": [1.0, 1.0]}, 2)
    with pytest.raises(InvalidParams):
        solve_value(iid_signs, lin, L10)


def test_deterministic_across_runs():
    tree = gen_random(2, 3, 21)
    u = make_utility_model(
        {"loss": {"name": "exponential", "params": {"rate": 0.8}},
         "payoff": {"name": "mean"}, "x0": 9.0},
        2,
    )
    m = build_utility_cost(u, 2)
    a = solve_value(tree, m, ControlBounds(4.0))
    b = solve_value(tree, m, ControlBounds(4.0))
    assert a.value == b.value
    assert a.policy.values == b.policy.values


def _add_at_reference(idx, vals, n):
    """The unbuffered scatter ``scatter_sum`` replaced, kept as its reference."""
    out = np.zeros(n)
    np.add.at(out, idx, vals)
    return out


@pytest.mark.parametrize("T, b, seed", [(2, 2, 0), (3, 3, 1), (4, 2, 2), (3, 5, 3)])
def test_scatter_sum_matches_add_at_bit_for_bit(T, b, seed):
    tree = gen_random(T, b, seed)
    ids, aidx = _variable_layout(tree)
    rng = np.random.default_rng(seed)
    w = tree.paths.probs
    for vals in (rng.normal(size=aidx.shape), rng.normal(scale=1e8, size=aidx.shape),
                 np.where(rng.random(aidx.shape) < 0.5, -0.0, 0.0)):
        got = scatter_sum(aidx, w[:, None] * vals, len(ids))
        want = _add_at_reference(aidx, w[:, None] * vals, len(ids))
        assert got.tobytes() == want.tobytes()
    # an index set that leaves some slots empty
    idx = rng.integers(0, 7, size=(40, 3))
    vals = rng.normal(size=idx.shape)
    assert scatter_sum(idx, vals, 9).tobytes() == _add_at_reference(idx, vals, 9).tobytes()
