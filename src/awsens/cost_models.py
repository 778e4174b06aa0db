"""Objective functions for the three problem classes, with exact derivatives.

Models come in three kinds:

* ``terminal``    f(x)        plain expectation functionals,
* ``controlled``  f(x, a)     convex in the control vector a,
* ``stopping``    f(x, t)     depending on the path only through x_1..x_t.

All callbacks are vectorized over a leading batch axis: paths are arrays of
shape (N, T).  The catalog is addressable by name + parameter dict; arbitrary
user models can be registered, in which case their derivatives are audited
against central finite differences and (for stopping models) probed for
measurability before use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, InvalidParams, finite_number

Array = np.ndarray


def _number(params: dict, key: str, default: float, model: str) -> float:
    """Param ``key`` of ``model``, a finite number (``InvalidParams`` otherwise)."""
    return finite_number(params.get(key, default), key, f"{model!r} param")


def _vector(params: dict, key: str, default: float, T: int, model: str) -> Array:
    """Param ``key`` of ``model``, T finite numbers (``InvalidParams`` otherwise)."""
    v = params.get(key, [default] * T)
    if isinstance(v, np.ndarray):
        v = v.tolist()
    if not isinstance(v, (list, tuple)) or len(v) != T:
        raise InvalidParams(f"{model!r} param {key!r} must be {T} numbers, got {v!r}")
    return np.array([finite_number(x, key, f"{model!r} param") for x in v])


def _spec(params: dict, key: str, default: str, model: str) -> tuple[str, dict | None]:
    """Param ``key`` of ``model``, a nested ``{"name": ..., "params": {...}}``
    spec, as its name and params (``InvalidParams`` otherwise)."""
    spec = params.get(key, {"name": default})
    if not (isinstance(spec, dict) and isinstance(spec.get("name"), str)
            and isinstance(spec.get("params") or {}, dict)):
        raise InvalidParams(f"{model!r} param {key!r} must be an object with a name string "
                            f"and optional params object, got {spec!r}")
    return spec["name"], spec.get("params")


def _expit(x: Array) -> Array:
    """Logistic sigmoid; exp(-x) overflows to inf far in the left tail,
    where the result is the exact limit 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _fd_hessian(model: "CostModel", x: Array, a: Array, step: float = 1e-5) -> Array:
    """Central differences of the control gradient; fallback when no
    analytic Hessian is supplied."""
    T = x.shape[1]
    out = np.empty((x.shape[0], T, T))
    for t in range(T):
        e = np.zeros(T)
        e[t] = step
        out[:, :, t] = (model.grad_a_fn(x, a + e) - model.grad_a_fn(x, a - e)) / (2.0 * step)
    return 0.5 * (out + np.swapaxes(out, 1, 2))


def _as_batch(arr, T: int, name: str) -> tuple[Array, bool]:
    a = np.asarray(arr, dtype=np.float64)
    if a.ndim == 1:
        if a.shape[0] != T:
            raise DimensionMismatch(f"{name} has length {a.shape[0]}, expected {T}")
        return a[None, :], True
    if a.ndim == 2:
        if a.shape[1] != T:
            raise DimensionMismatch(f"{name} has {a.shape[1]} columns, expected {T}")
        return a, False
    raise DimensionMismatch(f"{name} must be a vector or a batch of vectors")


@dataclass(frozen=True)
class CostModel:
    """An objective with partial derivatives in path and control coordinates."""

    kind: str  # terminal | controlled | stopping
    name: str
    horizon: int
    params: dict
    value_fn: Callable
    grad_x_fn: Callable
    grad_a_fn: Callable | None = None
    hess_a_fn: Callable | None = None
    utility: "UtilityModel | None" = None
    bind_fn: Callable | None = None

    def _args(self, x, a, t):
        if self.kind == "terminal":
            if a is not None or t is not None:
                raise InvalidParams("terminal models take the path only")
            return ()
        if self.kind == "controlled":
            if a is None or t is not None:
                raise InvalidParams("controlled models take a control vector")
            return (a,)
        if t is None or a is not None:
            raise InvalidParams("stopping models take a stopping stage t")
        if not (1 <= int(t) <= self.horizon):
            raise InvalidParams(f"stopping stage {t} outside 1..{self.horizon}")
        return (int(t),)

    def eval(self, x, a=None, t=None):
        xb, single = _as_batch(x, self.horizon, "x")
        extra = self._args(x, a, t)
        if self.kind == "controlled":
            ab, asingle = _as_batch(extra[0], self.horizon, "a")
            if asingle != single and ab.shape[0] != xb.shape[0]:
                raise DimensionMismatch("x and a batches differ")
            out = self.value_fn(xb, ab)
        else:
            out = self.value_fn(xb, *extra)
        return float(out[0]) if single else out

    def grad_x(self, x, a=None, t=None):
        xb, single = _as_batch(x, self.horizon, "x")
        extra = self._args(x, a, t)
        if self.kind == "controlled":
            ab, _ = _as_batch(extra[0], self.horizon, "a")
            out = self.grad_x_fn(xb, ab)
        else:
            out = self.grad_x_fn(xb, *extra)
        return out[0] if single else out

    def grad_a(self, x, a):
        if self.kind != "controlled" or self.grad_a_fn is None:
            raise InvalidParams(f"model {self.name!r} has no control gradient")
        xb, single = _as_batch(x, self.horizon, "x")
        ab, _ = _as_batch(a, self.horizon, "a")
        out = self.grad_a_fn(xb, ab)
        return out[0] if single else out

    def bind(self, x: Array):
        """Fix a path batch of a controlled model: returns ``evaluate(a) ->
        (values, grad)`` over control batches shaped like ``x``, where
        ``values`` and ``grad()`` equal ``value_fn(x, a)`` and
        ``grad_a_fn(x, a)`` bit for bit; ``grad`` reuses what ``values``
        computed."""
        if self.kind != "controlled" or self.grad_a_fn is None:
            raise InvalidParams(f"model {self.name!r} has no control gradient")
        if self.bind_fn is not None:
            return self.bind_fn(x)
        return lambda a: (self.value_fn(x, a), lambda: self.grad_a_fn(x, a))

    def hess_a(self, x, a):
        if self.kind != "controlled":
            raise InvalidParams(f"model {self.name!r} has no control Hessian")
        xb, single = _as_batch(x, self.horizon, "x")
        ab, _ = _as_batch(a, self.horizon, "a")
        if self.hess_a_fn is not None:
            out = self.hess_a_fn(xb, ab)
        else:
            out = _fd_hessian(self, xb, ab)
        return out[0] if single else out


# -- univariate losses and payoffs for the hedging model ----------------------


@dataclass(frozen=True)
class LossFunction:
    """Convex loss with first and second derivative callbacks."""

    name: str
    params: dict
    value: Callable[[Array], Array]
    deriv: Callable[[Array], Array]
    second: Callable[[Array], Array]


@dataclass(frozen=True)
class PayoffFunction:
    """Path functional g with its gradient."""

    name: str
    params: dict
    value: Callable[[Array], Array]  # (N, T) -> (N,)
    grad: Callable[[Array], Array]  # (N, T) -> (N, T)


@dataclass(frozen=True)
class UtilityModel:
    """Hedging objective data: loss l, payoff g and the initial level x0.

    The induced cost is f(x, a) = l(g(x) + sum_t a_t (x_t - x_{t-1})) with
    x_0 = ``x0``.
    """

    loss: LossFunction
    payoff: PayoffFunction
    x0: float


def make_loss(name: str, params: dict | None = None) -> LossFunction:
    params = dict(params or {})
    if name == "quadratic":
        return LossFunction(name, params, lambda z: z * z, lambda z: 2.0 * z,
                            lambda z: np.full_like(z, 2.0))
    if name == "exponential":
        rate = _number(params, "rate", 1.0, name)
        if rate == 0.0:
            raise InvalidParams("exponential loss needs a nonzero rate")
        return LossFunction(
            name, {"rate": rate},
            lambda z: np.exp(rate * z),
            lambda z: rate * np.exp(rate * z),
            lambda z: rate * rate * np.exp(rate * z),
        )
    if name == "smoothed_power":
        alpha = _number(params, "exponent", 3.0, name)
        if alpha < 1.0:
            raise InvalidParams("smoothed_power needs exponent >= 1")
        return LossFunction(
            name, {"exponent": alpha},
            lambda z: (1.0 + z * z) ** (alpha / 2.0) / alpha,
            lambda z: z * (1.0 + z * z) ** (alpha / 2.0 - 1.0),
            lambda z: (1.0 + z * z) ** (alpha / 2.0 - 2.0) * (1.0 + (alpha - 1.0) * z * z),
        )
    raise InvalidParams(f"unknown loss {name!r}")


def make_payoff(name: str, params: dict | None, T: int) -> PayoffFunction:
    params = dict(params or {})
    if name == "zero":
        return PayoffFunction(
            name, params,
            lambda x: np.zeros(x.shape[0]),
            lambda x: np.zeros_like(x),
        )
    if name == "linear":
        c = _vector(params, "coeffs", 1.0, T, name)
        return PayoffFunction(
            name, {"coeffs": list(map(float, c))},
            lambda x: x @ c,
            lambda x: np.broadcast_to(c, x.shape).copy(),
        )
    if name == "final_value":
        scale = _number(params, "scale", 1.0, name)

        def g(x):
            return scale * x[:, -1]

        def dg(x):
            out = np.zeros_like(x)
            out[:, -1] = scale
            return out

        return PayoffFunction(name, {"scale": scale}, g, dg)
    if name == "mean":
        return PayoffFunction(
            name, params,
            lambda x: x.mean(axis=1),
            lambda x: np.full_like(x, 1.0 / x.shape[1]),
        )
    if name == "softplus_call":
        K = _number(params, "strike", 0.0, name)
        beta = _number(params, "sharpness", 1.0, name)
        if beta <= 0:
            raise InvalidParams("softplus sharpness must be positive")

        def g(x):
            return np.logaddexp(0.0, beta * (x[:, -1] - K)) / beta

        def dg(x):
            out = np.zeros_like(x)
            out[:, -1] = _expit(beta * (x[:, -1] - K))
            return out

        return PayoffFunction(name, {"strike": K, "sharpness": beta}, g, dg)
    raise InvalidParams(f"unknown payoff {name!r}")


def make_scalar_payoff(name: str, params: dict | None = None):
    """Pointwise payoff g(v) with derivative, for Markovian stopping costs."""
    params = dict(params or {})
    if name == "identity":
        return (lambda v: v), (lambda v: np.ones_like(v)), params
    if name == "linear":
        s = _number(params, "slope", 1.0, name)
        b = _number(params, "intercept", 0.0, name)
        return (lambda v: s * v + b), (lambda v: np.full_like(v, s)), {"slope": s, "intercept": b}
    if name == "quadratic":
        c = _number(params, "center", 0.0, name)
        w = _number(params, "weight", 1.0, name)
        return (
            (lambda v: w * (v - c) ** 2),
            (lambda v: 2.0 * w * (v - c)),
            {"center": c, "weight": w},
        )
    if name == "softplus_put":
        K = _number(params, "strike", 0.0, name)
        beta = _number(params, "sharpness", 1.0, name)
        if beta <= 0:
            raise InvalidParams("softplus sharpness must be positive")
        return (
            (lambda v: np.logaddexp(0.0, beta * (K - v)) / beta),
            (lambda v: -_expit(beta * (K - v))),
            {"strike": K, "sharpness": beta},
        )
    if name == "sin":
        amp = _number(params, "amplitude", 1.0, name)
        freq = _number(params, "frequency", 1.0, name)
        return (
            (lambda v: amp * np.sin(freq * v)),
            (lambda v: amp * freq * np.cos(freq * v)),
            {"amplitude": amp, "frequency": freq},
        )
    raise InvalidParams(f"unknown scalar payoff {name!r}")


# -- controlled model induced by a utility model -------------------------------


def _increments(x: Array, x0: float) -> Array:
    dx = np.empty_like(x)
    dx[:, 0] = x[:, 0] - x0
    if x.shape[1] > 1:
        dx[:, 1:] = x[:, 1:] - x[:, :-1]
    return dx


def build_utility_cost(u: UtilityModel, T: int) -> CostModel:
    """Controlled cost f(x, a) = l(g(x) + sum_t a_t (x_t - x_{t-1})).

    Derivatives:
      d/da_t   = l'(Z) (x_t - x_{t-1})
      d/dx_t   = l'(Z) (d/dx_t g(x) + a_t - a_{t+1}),   a_{T+1} = 0
      Hessian  = l''(Z) dx dx'   (rank one; its diagonal is l'' dx_t^2)
    with Z = g(x) + sum_t a_t (x_t - x_{t-1}).

    ``bind(x)`` computes g(x) and the increments dx once for the batch and
    then only Z per control batch, shared by l(Z) and l'(Z) dx.
    """
    zgrid = np.linspace(-3.0, 3.0, 13)
    if np.any(u.loss.second(zgrid) <= 0.0):
        raise InvalidParams(f"loss {u.loss.name!r} is not strictly convex on the probe grid")

    def bind(x):
        gx, dx = u.payoff.value(x), _increments(x, u.x0)

        def evaluate(a):
            # np.add.reduce is np.sum without its Python wrapper
            z = gx + np.add.reduce(a * dx, axis=1)
            return u.loss.value(z), lambda: u.loss.deriv(z)[:, None] * dx

        return evaluate

    def zval_and_dx(x, a):
        dx = _increments(x, u.x0)
        return u.payoff.value(x) + np.sum(a * dx, axis=1), dx

    def value(x, a):
        return u.loss.value(zval_and_dx(x, a)[0])

    def grad_a(x, a):
        z, dx = zval_and_dx(x, a)
        return u.loss.deriv(z)[:, None] * dx

    def grad_x(x, a):
        lp = u.loss.deriv(zval_and_dx(x, a)[0])
        astep = np.empty_like(a)
        astep[:, :-1] = a[:, :-1] - a[:, 1:]
        astep[:, -1] = a[:, -1]
        return lp[:, None] * (u.payoff.grad(x) + astep)

    def hess_a(x, a):
        z, dx = zval_and_dx(x, a)
        lpp = u.loss.second(z)
        return lpp[:, None, None] * dx[:, :, None] * dx[:, None, :]

    return CostModel(
        kind="controlled",
        name="utility",
        horizon=T,
        params={
            "loss": {"name": u.loss.name, "params": u.loss.params},
            "payoff": {"name": u.payoff.name, "params": u.payoff.params},
            "x0": u.x0,
        },
        value_fn=value,
        grad_x_fn=grad_x,
        grad_a_fn=grad_a,
        hess_a_fn=hess_a,
        utility=u,
        bind_fn=bind,
    )


def make_utility_model(params: dict, T: int) -> UtilityModel:
    return UtilityModel(
        loss=make_loss(*_spec(params, "loss", "quadratic", "utility")),
        payoff=make_payoff(*_spec(params, "payoff", "zero", "utility"), T),
        x0=_number(params, "x0", 0.0, "utility"),
    )


# -- catalog -------------------------------------------------------------------


def make_cost_model(name: str, params: dict | None, T: int) -> CostModel:
    """Instantiate a catalog model for horizon ``T``."""
    params = dict(params or {})
    if T < 1:
        raise InvalidParams(f"horizon must be >= 1, got {T}")

    if name in ("linear", "softplus_call"):  # the payoffs of the same name
        g = make_payoff(name, params, T)
        return CostModel("terminal", name, T, g.params, value_fn=g.value, grad_x_fn=g.grad)

    if name == "quadratic_tracking":
        w = _vector(params, "weights", 1.0, T, name)
        m = _vector(params, "targets", 0.0, T, name)
        return CostModel(
            "terminal", name, T,
            {"weights": list(map(float, w)), "targets": list(map(float, m))},
            value_fn=lambda x: np.sum(w * (x - m) ** 2, axis=1),
            grad_x_fn=lambda x: 2.0 * w * (x - m),
        )

    if name == "exp_sum":
        beta = _number(params, "beta", 1.0, name)
        scale = _number(params, "scale", 1.0, name)

        def es_value(x):
            return scale * np.exp(beta * x.sum(axis=1))

        def es_grad(x):
            return (scale * beta * np.exp(beta * x.sum(axis=1)))[:, None] * np.ones_like(x)

        return CostModel(
            "terminal", name, T, {"beta": beta, "scale": scale},
            value_fn=es_value, grad_x_fn=es_grad,
        )

    if name == "coordinate_product":
        def cp_value(x):
            return np.prod(x, axis=1)

        def cp_grad(x):
            out = np.empty_like(x)
            for t in range(x.shape[1]):
                idx = [s for s in range(x.shape[1]) if s != t]
                out[:, t] = np.prod(x[:, idx], axis=1) if idx else 1.0
            return out

        return CostModel("terminal", name, T, {}, value_fn=cp_value, grad_x_fn=cp_grad)

    if name == "quadratic_control":
        theta = _vector(params, "targets", 0.0, T, name)
        c = _vector(params, "coeffs", 0.0, T, name)
        eye = np.eye(T)
        return CostModel(
            "controlled", name, T,
            {"targets": list(map(float, theta)), "coeffs": list(map(float, c))},
            value_fn=lambda x, a: np.sum((a - theta) ** 2, axis=1) + x @ c,
            grad_x_fn=lambda x, a: np.broadcast_to(c, x.shape).copy(),
            grad_a_fn=lambda x, a: 2.0 * (a - theta),
            hess_a_fn=lambda x, a: np.broadcast_to(2.0 * eye, (x.shape[0], T, T)).copy(),
        )

    if name == "tracking_control":
        lam = _number(params, "weight", 1.0, name)
        x0 = _number(params, "x0", 0.0, name)
        if lam <= 0:
            raise InvalidParams("tracking_control weight must be positive")
        eye = np.eye(T)

        def lagged(x):
            out = np.empty_like(x)
            out[:, 0] = x0
            out[:, 1:] = x[:, :-1]
            return out

        def tc_grad_x(x, a):
            out = np.zeros_like(x)
            out[:, :-1] = -2.0 * lam * (a[:, 1:] - x[:, :-1])
            return out

        return CostModel(
            "controlled", name, T, {"weight": lam, "x0": x0},
            value_fn=lambda x, a: lam * np.sum((a - lagged(x)) ** 2, axis=1),
            grad_x_fn=tc_grad_x,
            grad_a_fn=lambda x, a: 2.0 * lam * (a - lagged(x)),
            hess_a_fn=lambda x, a: np.broadcast_to(2.0 * lam * eye, (x.shape[0], T, T)).copy(),
        )

    if name == "utility":
        return build_utility_cost(make_utility_model(params, T), T)

    if name == "markov_payoff":
        gname, gparams = _spec(params, "g", "identity", name)
        g, dg, gparams = make_scalar_payoff(gname, gparams)

        def mp_value(x, t):
            return g(x[:, t - 1])

        def mp_grad(x, t):
            out = np.zeros_like(x)
            out[:, t - 1] = dg(x[:, t - 1])
            return out

        return CostModel(
            "stopping", name, T, {"g": {"name": gname, "params": gparams}},
            value_fn=mp_value, grad_x_fn=mp_grad,
        )

    if name == "running_sum":
        c = _number(params, "coeff", 1.0, name)

        def rs_value(x, t):
            return c * x[:, :t].sum(axis=1)

        def rs_grad(x, t):
            out = np.zeros_like(x)
            out[:, :t] = c
            return out

        return CostModel("stopping", name, T, {"coeff": c}, value_fn=rs_value, grad_x_fn=rs_grad)

    raise InvalidParams(f"unknown cost model {name!r}")


CATALOG = {
    "terminal": ("linear", "quadratic_tracking", "softplus_call", "exp_sum", "coordinate_product"),
    "controlled": ("quadratic_control", "tracking_control", "utility"),
    "stopping": ("markov_payoff", "running_sum"),
}


def catalog_names() -> tuple[str, ...]:
    return tuple(n for group in CATALOG.values() for n in group)


# -- registration of user models ------------------------------------------------


def register_cost_model(
    kind: str,
    name: str,
    horizon: int,
    value_fn: Callable,
    grad_x_fn: Callable,
    grad_a_fn: Callable | None = None,
    hess_a_fn: Callable | None = None,
    seed: int = 0,
) -> CostModel:
    """Wrap user callbacks into a model, auditing the supplied derivatives.

    Raises InvalidParams when a derivative disagrees with central finite
    differences or when a stopping cost reacts to coordinates after its
    stopping stage.
    """
    if kind not in CATALOG:
        raise InvalidParams(f"unknown model kind {kind!r}")
    if kind == "controlled" and grad_a_fn is None:
        raise InvalidParams("controlled models must supply a control gradient")
    model = CostModel(
        kind=kind, name=name, horizon=horizon, params={},
        value_fn=value_fn, grad_x_fn=grad_x_fn,
        grad_a_fn=grad_a_fn, hess_a_fn=hess_a_fn,
    )
    audit_derivatives(model, n_draws=200, seed=seed)
    if kind == "stopping":
        probe_stopping_measurability(model, n_draws=100, seed=seed)
    return model


def _random_inputs(model: CostModel, n: int, rng) -> tuple[Array, Array | None, np.ndarray | None]:
    T = model.horizon
    x = rng.uniform(-2.0, 2.0, size=(n, T))
    a = rng.uniform(-1.0, 1.0, size=(n, T)) if model.kind == "controlled" else None
    t = rng.integers(1, T + 1, size=n) if model.kind == "stopping" else None
    return x, a, t


def _rel_err(got: Array, want: Array) -> float:
    scale = np.maximum(1.0, np.maximum(np.abs(got), np.abs(want)))
    return float(np.max(np.abs(got - want) / scale)) if got.size else 0.0


def audit_derivatives(
    model: CostModel,
    n_draws: int = 1000,
    seed: int = 0,
    step: float = 1e-5,
    rel_tol: float = 1e-6,
) -> float:
    """Check all derivative callbacks against central finite differences.

    Returns the worst relative error; raises InvalidParams above ``rel_tol``.
    """
    rng = np.random.default_rng(seed)
    T = model.horizon
    x, a, tvals = _random_inputs(model, n_draws, rng)
    worst = 0.0

    def fval(xx):
        if model.kind == "terminal":
            return model.value_fn(xx)
        if model.kind == "controlled":
            return model.value_fn(xx, a)
        return np.concatenate(
            [model.value_fn(xx[tvals == t], int(t)) for t in range(1, T + 1)]
        )

    if model.kind == "stopping":
        order = np.argsort(tvals, kind="stable")
        x, tvals = x[order], tvals[order]
        analytic = np.concatenate(
            [model.grad_x_fn(x[tvals == t], int(t)) for t in range(1, T + 1)]
        )
    elif model.kind == "terminal":
        analytic = model.grad_x_fn(x)
    else:
        analytic = model.grad_x_fn(x, a)
    fd = np.empty_like(x)
    for t in range(T):
        e = np.zeros(T)
        e[t] = step
        fd[:, t] = (fval(x + e) - fval(x - e)) / (2.0 * step)
    worst = max(worst, _rel_err(analytic, fd))

    if model.kind == "controlled":
        ga = model.grad_a_fn(x, a)
        fda = np.empty_like(a)
        for t in range(T):
            e = np.zeros(T)
            e[t] = step
            fda[:, t] = (model.value_fn(x, a + e) - model.value_fn(x, a - e)) / (2.0 * step)
        worst = max(worst, _rel_err(ga, fda))
        hess = model.hess_a(x, a)
        fdh = np.empty((n_draws, T, T))
        for t in range(T):
            e = np.zeros(T)
            e[t] = step
            fdh[:, :, t] = (model.grad_a_fn(x, a + e) - model.grad_a_fn(x, a - e)) / (2.0 * step)
        worst = max(worst, _rel_err(hess, fdh))

    if worst > rel_tol:
        raise InvalidParams(
            f"model {model.name!r} derivative audit failed: relative error {worst:.3e}"
        )
    return worst


def probe_stopping_measurability(model: CostModel, n_draws: int = 100, seed: int = 0) -> None:
    """Perturb coordinates after the stopping stage; values must not move."""
    rng = np.random.default_rng(seed)
    T = model.horizon
    x = rng.uniform(-2.0, 2.0, size=(n_draws, T))
    for t in range(1, T):
        base = model.value_fn(x, t)
        bumped = x.copy()
        bumped[:, t:] += rng.uniform(0.5, 1.5, size=(n_draws, T - t))
        moved = model.value_fn(bumped, t)
        if np.any(moved != base):
            raise InvalidParams(
                f"stopping model {model.name!r} depends on coordinates after stage {t}"
            )


def sampled_hessian_min_eig(model: CostModel, xs: Array, controls: Array) -> float:
    """Smallest relative eigenvalue of the control Hessian over the samples.

    Each Hessian's spectrum is scaled by its own magnitude so badly scaled
    but semidefinite models (exponential losses far from the money) do not
    trip the check on eigensolver dust.
    """
    hess = model.hess_a(xs, controls)
    if hess.ndim == 2:
        hess = hess[None]
    worst = np.inf
    for h in hess:
        scale = max(1.0, float(np.max(np.abs(h))))
        worst = min(worst, float(np.linalg.eigvalsh(h).min()) / scale)
    return worst
