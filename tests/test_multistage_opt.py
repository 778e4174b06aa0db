import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    gen_binomial,
    gen_random,
    make_cost_model,
    make_utility_model,
    register_cost_model,
    solve_value,
    tree_from_nested,
    uniqueness_spread,
)
from awsens import multistage_opt
from awsens.cost_models import CostModel
from awsens.multistage_opt import (
    ARMIJO_C,
    BACKTRACK,
    MAX_ITER_DEFAULT,
    NEWTON_AFTER,
    NEWTON_TRIALS,
    ControlPolicy,
    _hessian_product,
    _newton_direction,
    _variable_layout,
    _weighted,
    scatter_sum,
)
from awsens.oracles import control_grid_error_bound, objective_hessian
from awsens.process_tree import Node, ScenarioTree

L10 = ControlBounds(10.0)


def strong_convexity_probe(tree, model, bounds, samples: int = 8, seed: int = 0) -> float:
    """Smallest objective-Hessian eigenvalue over random feasible controls."""
    rng = np.random.default_rng(seed)
    n = len(_variable_layout(tree)[0])
    return min(float(np.linalg.eigvalsh(objective_hessian(
        tree, model, rng.uniform(-bounds.L, bounds.L, size=n))).min()) for _ in range(samples))


def test_bounds_validation():
    with pytest.raises(InvalidParams):
        ControlBounds(0.0)
    with pytest.raises(InvalidParams):
        ControlBounds(float("inf"))
    # numpy scalars are numbers
    assert ControlBounds(np.float64(2.0)).L == ControlBounds(np.int64(2)).L == 2.0
    rep = solve_value(gen_random(2, 2, 0), make_cost_model("quadratic_control", {}, 2),
                      ControlBounds(np.int64(2)), tol=np.float64(1e-9), max_iter=np.int64(100))
    assert rep.kkt_residual <= 1e-9


def test_separable_quadratic_zero_policy(iid_signs):
    # f = sum a_t^2 + c . x: controls vanish, value = E[c . X]
    m = make_cost_model("quadratic_control", {"targets": [0.0, 0.0], "coeffs": [1.0, 2.0]}, 2)
    rep = solve_value(iid_signs, m, L10)
    assert rep.value == pytest.approx(0.0, abs=1e-12)  # E[X1] = E[X2] = 0
    assert all(abs(v) <= 1e-9 for v in rep.policy.vector(iid_signs))
    assert rep.kkt_residual <= 1e-9


def test_box_clamped_policy(iid_signs):
    m = make_cost_model("quadratic_control", {"targets": [1.0, 1.0], "coeffs": [0.0, 0.0]}, 2)
    rep = solve_value(iid_signs, m, ControlBounds(0.5))
    assert rep.value == pytest.approx(2 * 0.25, abs=1e-12)
    assert all(v == pytest.approx(0.5, abs=1e-12) for v in rep.policy.vector(iid_signs))
    # a read-only array by node id, 0.0 at the leaves
    values = rep.policy.values
    assert values.shape == (len(iid_signs.node_prob),) and not values.flags.writeable
    assert values[list(iid_signs.leaves)].tolist() == [0.0] * len(iid_signs.leaves)


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
    assert a.policy.values.tobytes() == b.policy.values.tobytes()


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


def _newton_direction_reference(model, xs, w, aidx, z, g, L, residual):
    """The projected Newton direction by truncated Jacobi-preconditioned CG
    on the free controls, or None on non-positive curvature at the first
    step."""
    nvar = z.shape[0]
    hw = w[:, None, None] * model.hess_a(xs, z[aidx])
    eps = min(1e-3 * L, residual)
    held = np.logical_or(np.logical_and(z <= -L + eps, g > 0.0),
                         np.logical_and(z >= L - eps, g < 0.0))

    def product(v):
        v = np.where(held, 0.0, v)
        out = _add_at_reference(aidx, np.matmul(hw, v[aidx][:, :, None])[:, :, 0], nvar)
        out[held] = 0.0
        return out

    # the Jacobi preconditioner: H_FF's diagonal, 1 where held or not positive
    T = aidx.shape[1]
    diag = _add_at_reference(aidx, hw[:, np.arange(T), np.arange(T)], nvar)
    m = np.where(np.logical_or(held, diag <= 0.0), 1.0, diag)
    r = np.where(held, 0.0, -g)
    rr = float(np.dot(r, r))
    stop = min(0.5, np.sqrt(np.sqrt(rr))) * np.sqrt(rr)
    x = np.zeros(nvar)
    y = r / m
    ry = float(np.dot(r, y))
    p = y.copy()
    for k in range(nvar):
        if np.sqrt(rr) <= stop:
            break
        hp = product(p)
        curv = float(np.dot(p, hp))
        if curv <= 0.0:
            if k == 0:
                return None
            break
        alpha = ry / curv
        x = x + alpha * p
        r = r - alpha * hp
        rr = float(np.dot(r, r))
        y = r / m
        ry_new = float(np.dot(r, y))
        p = y + (ry_new / ry) * p
        ry = ry_new
    return np.where(held, -g, x)


def reference_solve_value(tree, model, bounds, tol=1e-9, max_iter=MAX_ITER_DEFAULT, z0=None):
    """``solve_value``'s loop before its ufunc and single-evaluation rewrite,
    on the model's callbacks: np.clip, np.max and a value-only evaluation
    per Armijo trial, then a fresh value and gradient at the accepted point.
    After ``NEWTON_AFTER`` iterations from a cold start, and from the
    first from a start ``z0``, it tries the projected Newton step first,
    with up to ``NEWTON_TRIALS`` Armijo trials from the full step.  Kept as
    the reference the solver must equal bit for bit."""
    ids, aidx = _variable_layout(tree)
    xs = tree.paths.values
    w = tree.paths.probs
    L = bounds.L
    nvar = len(ids)

    def phi_and_grad(z):
        a = z[aidx]
        return (float(w @ model.value_fn(xs, a)),
                _add_at_reference(aidx, w[:, None] * model.grad_a_fn(xs, a), nvar))

    def phi_only(z):
        return float(w @ model.value_fn(xs, z[aidx]))

    z = np.clip(np.zeros(nvar) if z0 is None else np.asarray(z0, float).copy(), -L, L)
    phi, g = phi_and_grad(z)
    step = 1.0 / max(1.0, float(np.max(np.abs(g))))
    z_prev = g_prev = None
    for it in range(1, max_iter + 1):
        residual = float(np.max(np.abs(z - np.clip(z - g, -L, L))))
        if residual <= tol:
            controls = np.zeros(len(tree.node_prob))
            controls[ids] = z
            return phi, ControlPolicy(controls), residual, it - 1
        noise = 1e-15 * (1.0 + abs(phi))
        z_new = None
        if it > (NEWTON_AFTER if z0 is None else 0):
            d = _newton_direction_reference(model, xs, w, aidx, z, g, L, residual)
            if d is not None:
                s = 1.0
                for _ in range(NEWTON_TRIALS):
                    trial = np.clip(z + s * d, -L, L)
                    if phi_only(trial) <= phi + ARMIJO_C * float(g @ (trial - z)) + noise:
                        z_new = trial
                        break
                    s *= BACKTRACK
        if z_new is None:
            if z_prev is not None:
                dz = z - z_prev
                dg = g - g_prev
                curv = float(dz @ dg)
                step = float(dz @ dz) / curv if curv > 1e-18 else min(step * 2.0, 1e8)
                step = float(np.clip(step, 1e-12, 1e8))
            s = step
            for _ in range(60):
                z_new = np.clip(z - s * g, -L, L)
                phi_new = phi_only(z_new)
                if phi_new <= phi + ARMIJO_C * float(g @ (z_new - z)) + noise:
                    break
                s *= BACKTRACK
        z_prev, g_prev = z, g
        z = z_new
        phi, g = phi_and_grad(z)
    raise MaxIterations(f"no convergence in {max_iter} iterations")


_LOSSES = [("quadratic", {}), ("exponential", {"rate": 0.7}),
           ("smoothed_power", {"exponent": 3.0})]
_PAYOFFS = [("zero", {}), ("linear", {"coeffs": [0.5, -1.0, 2.0]}), ("final_value", {"scale": 1.5}),
            ("mean", {}), ("softplus_call", {"strike": 0.2, "sharpness": 2.0})]
CONTROL_MODELS = [
    ("utility", {"loss": {"name": loss, "params": lp}, "payoff": {"name": pay, "params": pp},
                 "x0": 0.3})
    for loss, lp in _LOSSES for pay, pp in _PAYOFFS
] + [
    ("quadratic_control", {"targets": [0.5, -0.25, 1.0], "coeffs": [1.0, 0.0, -2.0]}),
    ("tracking_control", {"weight": 0.8, "x0": 0.1}),
]


@pytest.mark.parametrize("name, params", CONTROL_MODELS,
                         ids=[f"{n}-{i}" for i, (n, _) in enumerate(CONTROL_MODELS)])
@settings(max_examples=10, deadline=None)
@given(b=st.integers(2, 3), seed=st.integers(0, 2**16), start=st.sampled_from(["cold", "box"]))
# nearly flat draws on which projected gradient alone raised MaxIterations,
# recorded under [utility-0], [utility-1], [utility-10], [utility-14] and
# [utility-2]; every model runs each of them
@example(b=2, seed=21917, start="box")
@example(b=2, seed=3021, start="cold")
@example(b=2, seed=1028, start="box")
@example(b=2, seed=16, start="cold")
@example(b=2, seed=7868, start="cold")
def test_solver_matches_reference_bit_for_bit(name, params, b, seed, start):
    tree = gen_random(3, b, seed)
    model = make_cost_model(name, params, 3)
    bounds = ControlBounds(2.0)
    z0 = None
    if start == "box":
        z0 = np.random.default_rng(seed).uniform(-2.0, 2.0, size=len(_variable_layout(tree)[0]))
    rep = solve_value(tree, model, bounds, z0=z0, check_convexity=False)
    want = reference_solve_value(tree, model, bounds, z0=z0)
    got = (rep.value, rep.policy, rep.kkt_residual, rep.iterations)
    # the policy arrays by their bytes: numpy's repr rounds, and == compares elementwise
    assert repr((got[0], *got[2:])) == repr((want[0], *want[2:]))
    assert (got[0], *got[2:]) == (want[0], *want[2:])
    assert got[1].values.tobytes() == want[1].values.tobytes()


def _no_hessian_model():
    """A registered convex model with coupled controls and no ``hess_a_fn``,
    so its Hessian comes from ``_fd_hessian``."""
    def value(x, a):
        s = np.sum(a, axis=1)
        return (np.sum(a**4, axis=1) / 12.0 + 0.5 * s**2 * (1.0 + x[:, -1] ** 2)
                + np.sum(a * x, axis=1))

    def grad_a(x, a):
        s = np.sum(a, axis=1)
        return a**3 / 3.0 + (s * (1.0 + x[:, -1] ** 2))[:, None] + x

    def grad_x(x, a):
        out = a.copy()
        out[:, -1] += np.sum(a, axis=1) ** 2 * x[:, -1]
        return out

    return register_cost_model("controlled", "no_hessian", 3, value, grad_x, grad_a_fn=grad_a)


@pytest.mark.parametrize("name, params", CONTROL_MODELS + [("no_hessian", None)],
                         ids=[f"{n}-{i}" for i, (n, _) in enumerate(CONTROL_MODELS)]
                         + ["no_hessian"])
@settings(max_examples=10, deadline=None)
@given(b=st.integers(2, 3), seed=st.integers(0, 2**16))
def test_hessian_product_matches_objective_hessian(name, params, b, seed):
    tree = gen_random(3, b, seed)
    model = _no_hessian_model() if params is None else make_cost_model(name, params, 3)
    ids, aidx = _variable_layout(tree)
    rng = np.random.default_rng(seed)
    z = rng.uniform(-2.0, 2.0, size=len(ids))
    v = rng.normal(size=len(ids))
    held = rng.random(len(ids)) < 0.3
    hw = _weighted(model.hess_a(tree.paths.values, z[aidx]), tree.paths.probs)
    H = objective_hessian(tree, model, z)
    # the product's input is zero on the held controls, as every CG direction is
    vf = np.where(held, 0.0, v)
    got = _hessian_product(hw, aidx, held, vf)
    want = np.where(held, 0.0, H @ vf)
    assert np.all(got[held] == 0.0)
    assert np.all(np.abs(got - want) <= 1e-12 * (np.abs(H) @ np.abs(vf)) + 1e-300)
    # None holds no control: the full product
    got = _hessian_product(hw, aidx, None, v)
    assert np.all(np.abs(got - H @ v) <= 1e-12 * (np.abs(H) @ np.abs(v)) + 1e-300)


def test_large_tree_solve_takes_newton_steps(monkeypatch):
    # binomial T=10, 1,023 controls: projected gradient alone took 401
    # iterations to the value below, and CG without the Jacobi
    # preconditioner 153 Hessian products (the Hessian's diagonal spans
    # 512x; scaled by it, its condition number falls from 519 to 1.64)
    products = []
    real = multistage_opt._hessian_product

    def counting(*args):
        products.append(1)
        return real(*args)

    monkeypatch.setattr(multistage_opt, "_hessian_product", counting)
    tree = gen_binomial(10, 0.0, 1.0, -1.0, 0.5, 0.0625)
    u = make_utility_model({"loss": {"name": "exponential", "params": {"rate": 1.0}},
                            "payoff": {"name": "zero"}, "x0": 0.0}, 10)
    rep = solve_value(tree, build_utility_cost(u, 10), L10)
    assert rep.iterations <= 30
    assert len(products) <= 10
    assert rep.kkt_residual <= 1e-9
    assert rep.value == pytest.approx(0.9806457599797944, rel=1e-12, abs=0.0)


def test_ill_conditioned_solve_takes_few_newton_steps():
    # exponential loss at L=100 from a cold start: at the optimum the
    # Hessian's eigenvalues run from 1.5e-10 to 0.065 over 18 free controls;
    # unpreconditioned CG hit its one-step-per-control cap on every Newton
    # iteration and the solve zigzagged for 3,859 iterations
    name, params = CONTROL_MODELS[6]
    rep = solve_value(gen_random(3, 4, 31844), make_cost_model(name, params, 3),
                      ControlBounds(100.0), check_convexity=False)
    assert rep.iterations <= 60
    assert rep.kkt_residual <= 1e-9


def test_box_start_takes_newton_steps_from_the_first_iteration():
    # the slowest case of a gen_random fuzz, exponential loss at L=100 from
    # a box start: 219 iterations when NEWTON_AFTER projected-gradient steps
    # came first, 177 with Newton steps from the first
    name, params = CONTROL_MODELS[6]
    tree = gen_random(3, 4, 39733)
    model = make_cost_model(name, params, 3)
    bounds = ControlBounds(100.0)
    z0 = np.random.default_rng(39733).uniform(-100.0, 100.0, size=len(_variable_layout(tree)[0]))
    warm = solve_value(tree, model, bounds, z0=z0, check_convexity=False)
    cold = solve_value(tree, model, bounds, check_convexity=False)
    assert warm.iterations < 219
    assert warm.kkt_residual <= 1e-9
    assert abs(warm.value - cold.value) <= 1e-9


def test_solves_take_the_hessian_from_the_binding(monkeypatch):
    # a Newton step reads its Hessian from the evaluation the line search
    # made, never through the checked hess_a and a second payoff evaluation
    models = [make_cost_model(name, params, 3) for name, params in CONTROL_MODELS[5:16:5]]
    models.append(_no_hessian_model())  # registration audits hess_a, so before the patch
    directions = []
    real = multistage_opt._newton_direction

    def counting(*args):
        directions.append(1)
        return real(*args)

    def refuse(self, x, a):
        raise AssertionError("a solve called CostModel.hess_a")

    monkeypatch.setattr(multistage_opt, "_newton_direction", counting)
    monkeypatch.setattr(CostModel, "hess_a", refuse)
    tree = gen_random(3, 3, 0)
    z0 = np.random.default_rng(0).uniform(-2.0, 2.0, size=len(_variable_layout(tree)[0]))
    for model in models:
        for start in (None, z0):
            directions.clear()
            rep = solve_value(tree, model, ControlBounds(2.0), z0=start, check_convexity=False)
            assert rep.kkt_residual <= 1e-9
            # a warm start's first iteration is already a Newton iteration
            assert bool(directions) == (rep.iterations > (NEWTON_AFTER if start is None else 0))


def test_variable_layout_is_built_once_per_structure():
    tree = gen_random(3, 3, 4)
    moved = tree.with_values(tree.values + 0.25)
    ids, aidx = _variable_layout(tree)
    assert _variable_layout(moved) is _variable_layout(tree)
    assert not (ids.flags.writeable or aidx.flags.writeable)
    T = tree.horizon
    assert ids.tobytes() == tree.level_order[:tree.level_start[T]].tobytes()
    want = tree.level_start[:T] + tree.level_pos[tree.ancestor_matrix[:, :T]]
    assert aidx.dtype == want.dtype and aidx.tobytes() == want.tobytes()
    # a tree of another structure has its own
    assert _variable_layout(gen_random(3, 3, 4)) is not _variable_layout(tree)


@pytest.mark.parametrize("name, params", CONTROL_MODELS,
                         ids=[f"{n}-{i}" for i, (n, _) in enumerate(CONTROL_MODELS)])
@settings(max_examples=10, deadline=None)
@given(b=st.integers(2, 3), seed=st.integers(0, 2**16), z_seed=st.integers(0, 2**16),
       at_wall=st.floats(0.0, 0.6))
def test_newton_direction_is_an_inexact_newton_step(name, params, b, seed, z_seed, at_wall):
    # checked against the dense H_FF only, whatever CG does inside: the free
    # part meets the documented residual test, held controls take -g, and
    # None comes only where H_FF has a direction of non-positive curvature
    tree = gen_random(3, b, seed)
    model = make_cost_model(name, params, 3)
    ids, aidx = _variable_layout(tree)
    L = 2.0
    rng = np.random.default_rng(z_seed)
    z = rng.uniform(-L, L, size=len(ids))
    walls = rng.random(len(ids)) < at_wall
    z[walls] = rng.choice([-L, L], size=int(walls.sum()))
    xs, w = tree.paths.values, tree.paths.probs
    g = scatter_sum(aidx, w[:, None] * model.grad_a_fn(xs, z[aidx]), len(ids))
    residual = float(np.max(np.abs(z - np.clip(z - g, -L, L))))
    d = _newton_direction(_weighted(model.hess_a(xs, z[aidx]), w), aidx, z, g, L, residual)
    eps = min(1e-3 * L, residual)
    held = ((z <= -L + eps) & (g > 0.0)) | ((z >= L - eps) & (g < 0.0))
    H = objective_hessian(tree, model, z)[np.ix_(~held, ~held)]
    g_free = g[~held]
    if d is None:
        assert np.linalg.eigvalsh(H).min() <= 1e-12 * np.abs(H).max()
        return
    assert np.array_equal(d[held], -g[held])
    d_free = d[~held]
    norm_g = float(np.linalg.norm(g_free))
    slack = 1e-9 * (float(np.linalg.norm(np.abs(H) @ np.abs(d_free))) + norm_g)
    assert np.linalg.norm(H @ d_free + g_free) <= min(0.5, np.sqrt(norm_g)) * norm_g + slack


@pytest.mark.parametrize("kwargs", [
    {"z0": np.zeros(2)},
    {"z0": np.zeros(4)},
    {"z0": np.zeros((3, 1))},
    {"z0": np.array([0.0, np.nan, 0.0])},
    {"z0": np.array([np.inf, 0.0, 0.0])},
    {"tol": -1e-9},
    {"tol": float("nan")},
    {"max_iter": -1},
    {"max_iter": 2.5},
], ids=["z0-short", "z0-long", "z0-2d", "z0-nan", "z0-inf", "tol-negative", "tol-nan",
        "max-iter-negative", "max-iter-fractional"])
def test_malformed_solver_arguments_are_invalid_params(kwargs):
    tree = gen_random(2, 2, 0)  # three control variables
    m = make_cost_model("quadratic_control", {}, 2)
    with pytest.raises(InvalidParams):
        solve_value(tree, m, L10, **kwargs)


@pytest.mark.parametrize("call", [
    lambda: ControlBounds("3"),
    lambda: ControlBounds(None),
    lambda: ControlBounds(True),
    lambda: solve_value(gen_random(2, 2, 0), make_cost_model("quadratic_control", {}, 2), L10,
                        max_iter=True),
    lambda: solve_value(gen_random(2, 2, 0), make_cost_model("quadratic_control", {}, 2), L10,
                        tol=True),
    lambda: solve_value(gen_random(2, 2, 0), make_cost_model("quadratic_control", {}, 2), L10,
                        tol="1e-9"),
], ids=["bound-string", "bound-none", "bound-bool", "max-iter-bool", "tol-bool", "tol-string"])
def test_control_arguments_that_are_not_numbers_are_invalid_params(call):
    with pytest.raises(InvalidParams):
        call()


def _hessian_reference(tree, model, policy_vec):
    """The per-path triple loop ``objective_hessian`` replaced."""
    ids, aidx = _variable_layout(tree)
    w = tree.paths.probs
    hess = model.hess_a(tree.paths.values, policy_vec[aidx])
    H = np.zeros((len(ids), len(ids)))
    for k in range(aidx.shape[0]):
        for ti, vi in enumerate(aidx[k]):
            for tj, vj in enumerate(aidx[k]):
                H[vi, vj] += w[k] * hess[k, ti, tj]
    return H


# models whose parameters fit any horizon
@pytest.mark.parametrize("name, params", [CONTROL_MODELS[i] for i in (2, 8, 14, 16)])
@pytest.mark.parametrize("T, b, seed", [(1, 3, 0), (3, 3, 1), (3, 2, 2), (4, 2, 3)])
def test_objective_hessian_matches_loop_bit_for_bit(name, params, T, b, seed):
    tree = gen_random(T, b, seed)
    model = make_cost_model(name, params, T)
    z = np.random.default_rng(seed).uniform(-2.0, 2.0, size=len(_variable_layout(tree)[0]))
    got = objective_hessian(tree, model, z)
    assert got.tobytes() == _hessian_reference(tree, model, z).tobytes()


@pytest.mark.parametrize("T, b, seed", [(1, 2, 0), (2, 3, 1), (4, 2, 2)])
def test_path_matrix_matches_per_stage_lookup(T, b, seed):
    tree = gen_random(T, b, seed)
    ids, _ = _variable_layout(tree)
    rng = np.random.default_rng(seed)
    controls = np.zeros(len(tree.node_prob))
    controls[ids] = rng.normal(size=len(ids))
    policy = ControlPolicy(controls)
    anc = tree.ancestor_matrix
    want = np.empty((anc.shape[0], T))
    for t in range(T):
        want[:, t] = [policy.values[int(n)] for n in anc[:, t]]
    assert policy.path_matrix(tree).tobytes() == want.tobytes()
    assert policy.vector(tree).tolist() == [policy.values[nid] for nid in ids]
