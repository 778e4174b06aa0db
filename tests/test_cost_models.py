import json
import pathlib

import numpy as np
import pytest

from awsens import (
    ControlBounds,
    DimensionMismatch,
    InvalidParams,
    audit_derivatives,
    build_utility_cost,
    catalog_names,
    gen_random,
    make_cost_model,
    make_loss,
    make_payoff,
    make_utility_model,
    register_cost_model,
)
from awsens.cost_models import (
    CATALOG,
    PARAMS,
    CostModel,
    probe_stopping_measurability,
    sampled_hessian_min_eig,
)
from awsens.sensitivity import class_solve, leaf_gradients
from test_multistage_opt import CONTROL_MODELS

T = 3


def all_catalog_models():
    out = []
    for name in catalog_names():
        params = {}
        if name == "utility":
            params = {
                "loss": {"name": "smoothed_power", "params": {"exponent": 3.0}},
                "payoff": {"name": "softplus_call", "params": {"strike": 0.2}},
                "x0": 0.4,
            }
        if name == "markov_payoff":
            params = {"g": {"name": "sin", "params": {"amplitude": 1.5, "frequency": 0.7}}}
        out.append(make_cost_model(name, params, T))
    return out


def test_linear_gradient_is_constant():
    m = make_cost_model("linear", {"coeffs": [1.0, -2.0, 0.5]}, T)
    x = np.array([0.3, 1.0, -0.7])
    assert m.eval(x) == pytest.approx(0.3 - 2.0 - 0.35)
    assert m.grad_x(x).tolist() == [1.0, -2.0, 0.5]


@pytest.mark.parametrize("model", all_catalog_models(), ids=lambda m: m.name)
def test_catalog_derivatives_match_finite_differences(model):
    assert audit_derivatives(model, n_draws=200, seed=1) <= 1e-6


def test_dimension_mismatch_raises():
    m = make_cost_model("linear", {"coeffs": [1.0, 1.0]}, 2)
    with pytest.raises(DimensionMismatch):
        m.eval(np.array([1.0, 2.0, 3.0]))
    c = make_cost_model("quadratic_control", {}, 2)
    with pytest.raises(DimensionMismatch):
        c.eval(np.array([1.0, 2.0]), a=np.array([1.0]))


def test_kind_argument_discipline():
    m = make_cost_model("linear", {"coeffs": [1.0, 1.0]}, 2)
    with pytest.raises(InvalidParams):
        m.eval(np.array([1.0, 2.0]), a=np.array([0.0, 0.0]))
    s = make_cost_model("markov_payoff", {}, 2)
    with pytest.raises(InvalidParams):
        s.eval(np.array([1.0, 2.0]))
    with pytest.raises(InvalidParams):
        s.eval(np.array([1.0, 2.0]), t=3)
    with pytest.raises(InvalidParams):
        m.bind(np.zeros((4, 2)))


# -- hedging cost --------------------------------------------------------------


def utility(loss="quadratic", payoff=("zero", {}), x0=0.0, lparams=None):
    return make_utility_model(
        {
            "loss": {"name": loss, "params": lparams or {}},
            "payoff": {"name": payoff[0], "params": payoff[1]},
            "x0": x0,
        },
        T,
    )


def test_utility_t1_quadratic_reduces_to_square():
    u = make_utility_model({"loss": {"name": "quadratic"}, "payoff": {"name": "zero"}, "x0": 0.5}, 1)
    m = build_utility_cost(u, 1)
    x = np.array([2.0])
    a = np.array([3.0])
    assert m.eval(x, a=a) == pytest.approx((3.0 * (2.0 - 0.5)) ** 2)


def test_utility_control_gradient_formula():
    u = utility(payoff=("linear", {"coeffs": [0.2, -0.1, 0.3]}), x0=0.25)
    m = build_utility_cost(u, T)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(8, T))
    a = rng.normal(size=(8, T))
    dx = np.column_stack([x[:, 0] - 0.25, np.diff(x, axis=1)])
    z = u.payoff.value(x) + np.sum(a * dx, axis=1)
    expected = u.loss.deriv(z)[:, None] * dx
    assert np.allclose(m.grad_a(x, a), expected, atol=1e-12)


def test_utility_path_gradient_formula():
    # d/dx_t f = l'(Z) (d/dx_t g + a_t - a_{t+1}) with a_{T+1} = 0
    u = utility(payoff=("linear", {"coeffs": [0.2, -0.1, 0.3]}), x0=0.25)
    m = build_utility_cost(u, T)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(8, T))
    a = rng.normal(size=(8, T))
    dx = np.column_stack([x[:, 0] - 0.25, np.diff(x, axis=1)])
    z = u.payoff.value(x) + np.sum(a * dx, axis=1)
    astep = np.column_stack([a[:, :-1] - a[:, 1:], a[:, -1]])
    expected = u.loss.deriv(z)[:, None] * (u.payoff.grad(x) + astep)
    assert np.allclose(m.grad_x(x, a=a), expected, atol=1e-12)


def test_utility_hessian_structure():
    u = utility(loss="smoothed_power", lparams={"exponent": 4.0},
                payoff=("mean", {}), x0=-0.3)
    m = build_utility_cost(u, T)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(6, T))
    a = rng.normal(size=(6, T))
    dx = np.column_stack([x[:, 0] + 0.3, np.diff(x, axis=1)])
    z = u.payoff.value(x) + np.sum(a * dx, axis=1)
    lpp = u.loss.second(z)
    hess = m.hess_a(x, a)
    # diagonal entries: l'' dx_t^2
    for t in range(T):
        assert np.allclose(hess[:, t, t], lpp * dx[:, t] ** 2, atol=1e-12)
    # full quadratic form is the rank-one square l'' (u . dx)^2
    for _ in range(5):
        vec = rng.normal(size=T)
        quad = np.einsum("nij,i,j->n", hess, vec, vec)
        assert np.allclose(quad, lpp * (dx @ vec) ** 2, atol=1e-10)


def test_utility_hessian_psd_and_program_level_definiteness(iid_signs):
    u = make_utility_model(
        {"loss": {"name": "quadratic"}, "payoff": {"name": "zero"}, "x0": 0.5}, 2
    )
    m = build_utility_cost(u, 2)
    xs = iid_signs.paths.values
    rng = np.random.default_rng(3)
    controls = rng.normal(size=xs.shape)
    # pointwise the Hessian is rank one, hence only positive semidefinite
    assert sampled_hessian_min_eig(m, xs, controls) >= -1e-12
    # but the tree-level objective is strictly convex off flat steps
    from awsens.multistage_opt import _variable_layout, objective_hessian

    n = len(_variable_layout(iid_signs)[0])
    for z in np.random.default_rng(0).uniform(-2.0, 2.0, size=(8, n)):
        assert np.linalg.eigvalsh(objective_hessian(iid_signs, m, z)).min() > 0.0


def test_loss_validation():
    with pytest.raises(InvalidParams):
        make_loss("exponential", {"rate": 0.0})
    with pytest.raises(InvalidParams):
        make_loss("nope")
    with pytest.raises(InvalidParams):
        make_payoff("nope", {}, 2)


def test_stopping_measurability_probe_catches_bad_model():
    bad = make_cost_model("markov_payoff", {}, T)
    probe_stopping_measurability(bad, n_draws=50)  # catalog models pass

    def cheating_value(x, t):
        return x[:, -1]  # peeks at the final coordinate regardless of t

    def cheating_grad(x, t):
        out = np.zeros_like(x)
        out[:, -1] = 1.0
        return out

    with pytest.raises(InvalidParams):
        register_cost_model("stopping", "cheat", T, cheating_value, cheating_grad)


def test_register_audits_gradients():
    def value(x):
        return np.sum(x**2, axis=1)

    def good_grad(x):
        return 2.0 * x

    def bad_grad(x):
        return 2.0 * x + 0.01

    ok = register_cost_model("terminal", "sumsq", T, value, good_grad)
    assert ok.eval(np.zeros(T)) == 0.0
    with pytest.raises(InvalidParams):
        register_cost_model("terminal", "sumsq_bad", T, value, bad_grad)


def test_register_controlled_uses_fd_hessian_fallback():
    def value(x, a):
        return np.sum((a - 0.5) ** 2, axis=1) + np.sum(x * a, axis=1)

    def grad_x(x, a):
        return a.copy()

    def grad_a(x, a):
        return 2.0 * (a - 0.5) + x

    m = register_cost_model("controlled", "bilinear", T, value, grad_x, grad_a)
    h = m.hess_a(np.zeros(T), np.zeros(T))
    assert np.allclose(h, 2.0 * np.eye(T), atol=1e-6)


LOSSES = [("quadratic", {}), ("exponential", {"rate": 0.7}), ("smoothed_power", {"exponent": 3.0})]
PAYOFFS = [
    ("zero", {}),
    ("linear", {"coeffs": [0.5, -1.0, 2.0]}),
    ("final_value", {"scale": 1.5}),
    ("mean", {}),
    ("softplus_call", {"strike": 0.2, "sharpness": 2.0}),
]


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _check_binding(m, rng, n=64):
    x = rng.uniform(-2.0, 2.0, size=(n, T))
    evaluate = m.bind(x)
    for _ in range(3):
        a = rng.uniform(-1.5, 1.5, size=(n, T))
        v, grad = evaluate(a)
        assert _same_bits(v, m.value_fn(x, a))
        assert _same_bits(grad(), m.grad_a_fn(x, a))
        # a gradient taken after a later evaluation still belongs to its own a
        v2, grad2 = evaluate(-a)
        assert _same_bits(grad(), m.grad_a_fn(x, a))
        assert _same_bits(v2, m.value_fn(x, -a))
        assert _same_bits(grad2(), m.grad_a_fn(x, -a))


@pytest.mark.parametrize("loss", LOSSES, ids=[name for name, _ in LOSSES])
@pytest.mark.parametrize("payoff", PAYOFFS, ids=[name for name, _ in PAYOFFS])
def test_utility_binding_matches_callbacks_bit_for_bit(loss, payoff):
    u = make_utility_model(
        {"loss": {"name": loss[0], "params": loss[1]},
         "payoff": {"name": payoff[0], "params": payoff[1]}, "x0": 0.3},
        T,
    )
    _check_binding(build_utility_cost(u, T), np.random.default_rng(len(loss[0]) + len(payoff[0])))


@pytest.mark.parametrize("name, params", [
    ("quadratic_control", {"targets": [0.5, -0.25, 1.0], "coeffs": [1.0, 0.0, -2.0]}),
    ("tracking_control", {"weight": 0.8, "x0": 0.1}),
])
def test_default_binding_matches_callbacks_bit_for_bit(name, params):
    _check_binding(make_cost_model(name, params, T), np.random.default_rng(3))


def test_readme_parameter_table_lists_the_library_table():
    # the README's table names every entry, param, shape, default and rule
    # of PARAMS and nothing else, so the docs cannot drift from the reader
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    lines = readme.split("### Parameters", 1)[1].split("| group | name |", 1)[1].splitlines()
    rows = []
    for line in lines[2:]:
        if not line.startswith("|"):
            break
        rows.append(tuple(cell.strip().strip("`") for cell in line.strip("|").split("|")))
    want = []
    for group, entries in PARAMS.items():
        for name, params in entries.items():
            if not params:
                want.append((group, name, "—", "", "", ""))
            for key, default, shape, rule in params:
                want.append((group, name, key, shape,
                             "required" if default is None else json.dumps(default),
                             rule if isinstance(rule, str) else ", ".join(rule or ["—"])))
    assert rows == want


def test_catalog_derives_from_the_table():
    assert CATALOG == {kind: tuple(PARAMS[kind]) for kind in ("terminal", "controlled", "stopping")}
    assert catalog_names() == tuple(n for kind in CATALOG for n in PARAMS[kind])


@pytest.mark.parametrize("name, params, T", [
    ("linear", None, 3),
    ("quadratic_tracking", {"targets": np.array([0.5, -1.0])}, 2),
    ("utility", {"loss": {"name": "exponential"}, "x0": 1}, 2),
    ("markov_payoff", {"g": {"name": "softplus_put", "params": {"strike": 1}}}, 2),
])
def test_params_hold_the_readers_values(name, params, T):
    # defaults filled in, numbers as floats, T-vectors as arrays, nested
    # specs read as well, all in declaration order
    got = make_cost_model(name, params, T).params
    want = {
        "linear": {"coeffs": [1.0, 1.0, 1.0]},
        "quadratic_tracking": {"weights": [1.0, 1.0], "targets": [0.5, -1.0]},
        "utility": {"loss": {"name": "exponential", "params": {"rate": 1.0}},
                    "payoff": {"name": "zero", "params": {}}, "x0": 1.0},
        "markov_payoff": {"g": {"name": "softplus_put",
                                "params": {"strike": 1.0, "sharpness": 1.0}}},
    }[name]
    assert list(got) == list(want)
    for key, value in want.items():
        if isinstance(value, list):
            assert isinstance(got[key], np.ndarray) and got[key].tolist() == value
        else:
            assert got[key] == value and type(got[key]) is type(value)


# -- one dispatch over the classes: CostModel._call ------------------------------


def _reference_leaf_gradients(tree, model, optimizer):
    """The per-class ``leaf_gradients``: the stopping class masks the paths
    stage by stage."""
    xs = tree.paths.values
    if model.kind == "terminal":
        return model.grad_x_fn(xs)
    if model.kind == "controlled":
        return model.grad_x_fn(xs, optimizer.path_matrix(tree))
    grads = np.zeros_like(xs)
    taus = optimizer.tau[tree.ancestor_matrix[:, -1]]
    for t in range(1, tree.horizon + 1):
        mask = taus == t
        if np.any(mask):
            grads[mask] = model.grad_x_fn(xs[mask], t)
    return grads


def _reference_differences(f, z, step=1e-5):
    cols = []
    for t in range(z.shape[1]):
        e = np.zeros(z.shape[1])
        e[t] = step
        cols.append((f(z + e) - f(z - e)) / (2.0 * step))
    return np.stack(cols, axis=-1)


def _reference_rel_err(got, want):
    scale = np.maximum(1.0, np.maximum(np.abs(got), np.abs(want)))
    return float(np.max(np.abs(got - want) / scale)) if got.size else 0.0


def _reference_audit(model, n_draws, seed):
    """The per-class worst relative error of ``audit_derivatives``: the
    stopping class sorts the draws by stage and evaluates stage by stage."""
    rng = np.random.default_rng(seed)
    T = model.horizon
    x = rng.uniform(-2.0, 2.0, size=(n_draws, T))
    a = rng.uniform(-1.0, 1.0, size=(n_draws, T)) if model.kind == "controlled" else None
    tvals = rng.integers(1, T + 1, size=n_draws) if model.kind == "stopping" else None

    def fval(xx):
        if model.kind == "terminal":
            return model.value_fn(xx)
        if model.kind == "controlled":
            return model.value_fn(xx, a)
        return np.concatenate([model.value_fn(xx[tvals == t], t) for t in range(1, T + 1)])

    if model.kind == "stopping":
        order = np.argsort(tvals, kind="stable")
        x, tvals = x[order], tvals[order]
        analytic = np.concatenate([model.grad_x_fn(x[tvals == t], t) for t in range(1, T + 1)])
    elif model.kind == "terminal":
        analytic = model.grad_x_fn(x)
    else:
        analytic = model.grad_x_fn(x, a)
    worst = _reference_rel_err(analytic, _reference_differences(fval, x))
    if model.kind == "controlled":
        for exact, f in ((model.grad_a_fn(x, a), lambda aa: model.value_fn(x, aa)),
                         (model.hess_a(x, a), lambda aa: model.grad_a_fn(x, aa))):
            worst = max(worst, _reference_rel_err(exact, _reference_differences(f, a)))
    return worst


DISPATCH_MODELS = all_catalog_models() + [make_cost_model(n, p, T) for n, p in CONTROL_MODELS]


@pytest.mark.parametrize("model", DISPATCH_MODELS,
                         ids=[f"{m.name}-{i}" for i, m in enumerate(DISPATCH_MODELS)])
def test_dispatch_matches_the_per_class_reference_bit_for_bit(model):
    for seed in (1, 123):
        for n in (0, 7, 200):
            got = audit_derivatives(model, n_draws=n, seed=seed)
            assert got.hex() == _reference_audit(model, n, seed).hex()
    assert audit_derivatives(model, n_draws=0) == 0.0  # an empty batch audits nothing
    mixed = False
    for seed in range(4):
        tree = gen_random(T, 3, seed)
        _, optimizer = class_solve(tree, model, ControlBounds(2.0), 1e-9)
        got = leaf_gradients(tree, model, optimizer)
        want = _reference_leaf_gradients(tree, model, optimizer)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
        if model.kind == "stopping":
            mixed |= len(set(optimizer.tau[tree.ancestor_matrix[:, -1]].tolist())) > 1
    assert mixed or model.kind != "stopping"  # some policy stops at mixed stages


def test_call_hands_each_stage_its_rows_together_in_row_order():
    calls = []

    def value(x, t):
        calls.append((type(t), t, x[:, 0].tolist()))
        return 10.0 * x[:, 0] + t

    model = CostModel("stopping", "recording", T, {}, value, lambda x, t: np.zeros_like(x))
    x = np.zeros((8, T))
    x[:, 0] = np.arange(8)
    stages = np.array([2, 1, 2, 3, 1, 2, 3, 1])
    assert model._call(value, x, t=stages).tolist() == (10.0 * x[:, 0] + stages).tolist()
    assert calls == [(int, 1, [1.0, 4.0, 7.0]), (int, 2, [0.0, 2.0, 5.0]), (int, 3, [3.0, 6.0])]
    calls.clear()
    assert model._call(value, x, t=np.full(8, 3)).tolist() == (10.0 * x[:, 0] + 3).tolist()
    assert model.eval(x, t=2).tolist() == (10.0 * x[:, 0] + 2).tolist()
    assert calls == [(int, 3, list(range(8))), (int, 2, list(range(8)))]
    # an empty batch is one call on the empty rows and gives an empty result
    calls.clear()
    empty = np.zeros((0, T))
    for m in DISPATCH_MODELS[:1] + [model]:
        t = np.zeros(0, dtype=np.intp) if m.kind == "stopping" else None
        assert m._call(m.value_fn, empty, None, t).shape == (0,)
        assert m._call(m.grad_x_fn, empty, None, t).shape == (0, T)
    assert calls == [(int, 1, [])]
