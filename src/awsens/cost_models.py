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
from typing import Callable, NamedTuple

import numpy as np

from .errors import DimensionMismatch, InvalidParams, finite_count, finite_number

Array = np.ndarray
# the derivative audit's central-difference step and its relative tolerance
_AUDIT_STEP = 1e-5
_AUDIT_TOL = 1e-6


# -- the parameter table ---------------------------------------------------------


class Param(NamedTuple):
    """One param of :data:`PARAMS`: its key, its default (None: required),
    its shape and its rule."""

    key: str
    default: object
    shape: str = "scalar"
    rule: object = "finite"


_RULES = {"finite": lambda v: True, "positive": lambda v: v > 0, "nonzero": lambda v: v != 0,
          ">= 1": lambda v: v >= 1, "> 1": lambda v: v > 1}
_CLASSES = ("terminal", "controlled", "stopping")
# what the callbacks of each class take besides the path (see CostModel._call)
_TAKES = {"terminal": "the path only", "controlled": "a control vector",
          "stopping": "a stopping stage t"}
_SOFTPLUS = (Param("strike", 0.0), Param("sharpness", 1.0, rule="positive"))
_LINEAR = (Param("coeffs", 1.0, "T-vector"),)
_T = Param("T", None, "count")

# Every named parameter set: group -> name -> its params, in declaration
# order.  The groups "terminal", "controlled" and "stopping" are the catalog
# models of each class.  Shapes: "scalar" (a finite number), "count" (a
# nonnegative integral number), "T-vector" (T finite numbers; a default
# fills all T), "list" (finite numbers), "spec" (an object with a "name" of
# group ``rule`` and its optional "params"; a rule of None reads no
# further), "block" (an object read as entry ``key`` of group ``rule``) and
# "name" (one of the strings in ``rule``).  A scalar's or count's rule is
# one of :data:`_RULES`.
PARAMS = {
    "terminal": {
        "linear": _LINEAR,  # terminal linear and softplus_call are the payoffs
        "quadratic_tracking": (Param("weights", 1.0, "T-vector"),
                               Param("targets", 0.0, "T-vector")),
        "softplus_call": _SOFTPLUS,
        "exp_sum": (Param("beta", 1.0), Param("scale", 1.0)),
        "coordinate_product": (),
    },
    "controlled": {
        "quadratic_control": (Param("targets", 0.0, "T-vector"),
                              Param("coeffs", 0.0, "T-vector")),
        "tracking_control": (Param("weight", 1.0, rule="positive"), Param("x0", 0.0)),
        "utility": (Param("loss", {"name": "quadratic"}, "spec", "loss"),
                    Param("payoff", {"name": "zero"}, "spec", "payoff"), Param("x0", 0.0)),
    },
    "stopping": {
        "markov_payoff": (Param("g", {"name": "identity"}, "spec", "scalar payoff"),),
        "running_sum": (Param("coeff", 1.0),),
    },
    "loss": {
        "quadratic": (),
        "exponential": (Param("rate", 1.0, rule="nonzero"),),
        "smoothed_power": (Param("exponent", 3.0, rule=">= 1"),),
    },
    "payoff": {
        "zero": (),
        "linear": _LINEAR,
        "final_value": (Param("scale", 1.0),),
        "mean": (),
        "softplus_call": _SOFTPLUS,
    },
    "scalar payoff": {
        "identity": (),
        "linear": (Param("slope", 1.0), Param("intercept", 0.0)),
        "quadratic": (Param("center", 0.0), Param("weight", 1.0)),
        "softplus_put": _SOFTPLUS,
        "sin": (Param("amplitude", 1.0), Param("frequency", 1.0)),
    },
    "generator": {
        "binomial": (_T, Param("start", 0.0), Param("up", 1.0), Param("down", -1.0),
                     Param("p_up", 0.5), Param("drift", 0.0)),
        "lattice": (_T, Param("start", 0.0), Param("steps", None, "list"),
                    Param("probs", None, "list"), Param("drift", 0.0)),
        "random": (_T, Param("branching", 2, "count"), Param("seed", 0, "count")),
    },
    "config": {
        "run": (Param("problem_class", None, "name", _CLASSES),
                Param("model", None, "spec", None), Param("p", None, rule="> 1"),
                Param("radii", (1e-4, 1e-3, 1e-2, 1e-1), "list"),  # ascending, as RobustQuery needs
                Param("seed", 0, "count"),
                *(Param(k, {}, "block", "config") for k in ("bounds", "tolerances", "ascent"))),
        "bounds": (Param("L", 10.0),),
        "tolerances": (Param("value_tol", 1e-9), Param("stopping_tol", 1e-9)),
        "ascent": (Param("restarts", 2, "count"), Param("max_iters", 25, "count")),
    },
}
CATALOG = {kind: tuple(PARAMS[kind]) for kind in _CLASSES}


def _object(v, where: str) -> dict:
    if not isinstance(v, dict):
        raise InvalidParams(f"{where} must be an object, got {v!r}")
    return v


def read_params(group: str, name: str, params: dict | None = None, T: int | None = None,
                where: str | None = None) -> dict:
    """The params of entry ``name`` of ``group`` in :data:`PARAMS`, read
    from the object ``params`` (None: no params) for horizon ``T``: every
    declared key in declaration order, defaults filled in, each value
    checked against its shape and rule and normalised (a float, an int, an
    array for a T-vector, a tuple for a list, ``{"name", "params"}`` for a
    spec).  ``InvalidParams``, prefixed by ``where``, for an unknown name,
    params that are not an object, an unknown or missing key, or a value
    outside its shape or rule."""
    if not isinstance(name, str) or name not in PARAMS[group]:
        raise InvalidParams(f"unknown {group} {name!r}; one of: {', '.join(PARAMS[group])}")
    where = where or f"{name!r} params"
    params = _object({} if params is None else params, where)
    keys = [e.key for e in PARAMS[group][name]]
    for k in params:
        if k not in keys:
            raise InvalidParams(f"{where}: unknown key {k!r}; "
                                f"accepted: {', '.join(keys) or 'none'}")
    out, at = {}, f"{where}:"
    for key, default, shape, rule in PARAMS[group][name]:
        if key not in params and default is None:
            raise InvalidParams(f"{at} missing {key!r}")
        v = params.get(key, [default] * T if shape == "T-vector" else default)
        if shape in ("scalar", "count"):
            v = (finite_number if shape == "scalar" else finite_count)(v, key, at)
            if not _RULES[rule](v):
                raise InvalidParams(f"{at} {key!r} must be {rule}, got {v!r}")
        elif shape in ("T-vector", "list"):
            v = v.tolist() if isinstance(v, np.ndarray) else v
            if not isinstance(v, (list, tuple)) or shape == "T-vector" and len(v) != T:
                size = f"{T} " if shape == "T-vector" else ""
                raise InvalidParams(f"{at} {key!r} must be a list of {size}finite numbers, "
                                    f"got {v!r}")
            v = [finite_number(x, key, at) for x in v]
            v = np.array(v) if shape == "T-vector" else tuple(v)
        elif shape == "spec":
            if not (isinstance(v, dict) and isinstance(v.get("name"), str)
                    and set(v) <= {"name", "params"}):
                raise InvalidParams(f"{at} {key!r} must be an object with a name string and "
                                    f"an optional params object, got {v!r}")
            sub = f"{at} {key!r} params"
            p = _object(v.get("params", {}), sub)
            if rule:
                p = read_params(rule, v["name"], p, T, sub)
            v = {"name": v["name"], "params": p}
        elif shape == "block":
            v = read_params(rule, key, _object(v, f"{where} {key!r}"), T, f"{where} {key!r}")
        elif not (isinstance(v, str) and v in rule):  # a name
            raise InvalidParams(f"{at} unknown {key} {v!r}; one of: {', '.join(rule)}")
        out[key] = v
    return out


def _expit(x: Array) -> Array:
    """Logistic sigmoid; exp(-x) overflows to inf far in the left tail,
    where the result is the exact limit 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _central_differences(f, z: Array) -> Array:
    """Central differences of step ``_AUDIT_STEP`` of ``f`` in each column
    of the batch ``z`` (n, T), stacked along a new last axis."""
    T = z.shape[1]
    cols = []
    for t in range(T):
        e = np.zeros(T)
        e[t] = _AUDIT_STEP
        cols.append((f(z + e) - f(z - e)) / (2.0 * _AUDIT_STEP))
    return np.stack(cols, axis=-1)


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

    def _call(self, fn, x: Array, a: Array | None = None, t=None) -> Array:
        """``fn`` on the path batch ``x`` with its class's argument: none
        (terminal), the control batch ``a`` (controlled) or the stopping
        stage ``t`` (stopping), one stage or one per row.  Rows of one stage
        go to ``fn`` together, in row order, and the results come back in
        the rows' order."""
        if self.kind == "terminal":
            return fn(x)
        if self.kind == "controlled":
            return fn(x, a)
        if np.ndim(t) == 0:
            return fn(x, int(t))
        out = None
        # the stages present, ascending (np.unique would import numpy.ma, 1.7 MB)
        for s in np.flatnonzero(np.bincount(t)).tolist():
            rows = t == s
            part = fn(x[rows], s)
            if out is None:
                out = np.empty(t.shape + part.shape[1:])
            out[rows] = part
        return fn(x, 1) if out is None else out  # an empty batch: fn's empty result

    def _checked(self, fn, x, a=None, t=None):
        """:meth:`_call` on a path vector or batch, after the checks of the
        public methods: ``InvalidParams`` unless the model's class takes
        exactly the argument given, ``DimensionMismatch`` unless ``x`` and
        ``a`` are vectors or equal batches of horizon length.  A vector
        ``x`` gives the result's first row."""
        xb, single = _as_batch(x, self.horizon, "x")
        if (a is not None, t is not None) != (self.kind == "controlled", self.kind == "stopping"):
            raise InvalidParams(f"{self.kind} models take {_TAKES[self.kind]}")
        if a is not None:
            a = _as_batch(a, self.horizon, "a")[0]
            if a.shape != xb.shape:
                raise DimensionMismatch("x and a batches differ")
        if t is not None:
            t = finite_count(t, "t", "stopping stage")
            if not 1 <= t <= self.horizon:
                raise InvalidParams(f"stopping stage {t} outside 1..{self.horizon}")
        out = self._call(fn, xb, a, t)
        return out[0] if single else out

    def eval(self, x, a=None, t=None):
        out = self._checked(self.value_fn, x, a, t)
        return out if np.ndim(out) else float(out)

    def grad_x(self, x, a=None, t=None):
        return self._checked(self.grad_x_fn, x, a, t)

    def grad_a(self, x, a):
        if self.kind != "controlled" or self.grad_a_fn is None:
            raise InvalidParams(f"model {self.name!r} has no control gradient")
        return self._checked(self.grad_a_fn, x, a)

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
        return self._checked(self.hess_a_fn or self._fd_hessian, x, a)

    def _fd_hessian(self, x: Array, a: Array) -> Array:
        """Central differences of the control gradient; the Hessian of a
        model without an analytic one."""
        out = _central_differences(lambda aa: self.grad_a_fn(x, aa), a)
        return 0.5 * (out + np.swapaxes(out, 1, 2))


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
    params = read_params("loss", name, params)
    if name == "quadratic":
        return LossFunction(name, params, lambda z: z * z, lambda z: 2.0 * z,
                            lambda z: np.full_like(z, 2.0))
    if name == "exponential":
        rate = params["rate"]
        return LossFunction(
            name, params,
            lambda z: np.exp(rate * z),
            lambda z: rate * np.exp(rate * z),
            lambda z: rate * rate * np.exp(rate * z),
        )
    alpha = params["exponent"]  # smoothed_power
    return LossFunction(
        name, params,
        lambda z: (1.0 + z * z) ** (alpha / 2.0) / alpha,
        lambda z: z * (1.0 + z * z) ** (alpha / 2.0 - 1.0),
        lambda z: (1.0 + z * z) ** (alpha / 2.0 - 2.0) * (1.0 + (alpha - 1.0) * z * z),
    )


def make_payoff(name: str, params: dict | None, T: int) -> PayoffFunction:
    params = read_params("payoff", name, params, T)
    if name == "zero":
        return PayoffFunction(
            name, params,
            lambda x: np.zeros(x.shape[0]),
            lambda x: np.zeros_like(x),
        )
    if name == "linear":
        c = params["coeffs"]
        return PayoffFunction(
            name, params,
            lambda x: x @ c,
            lambda x: np.broadcast_to(c, x.shape).copy(),
        )
    if name == "final_value":
        scale = params["scale"]

        def g(x):
            return scale * x[:, -1]

        def dg(x):
            out = np.zeros_like(x)
            out[:, -1] = scale
            return out

        return PayoffFunction(name, params, g, dg)
    if name == "mean":
        return PayoffFunction(
            name, params,
            lambda x: x.mean(axis=1),
            lambda x: np.full_like(x, 1.0 / x.shape[1]),
        )
    K, beta = params.values()  # softplus_call

    def g(x):
        return np.logaddexp(0.0, beta * (x[:, -1] - K)) / beta

    def dg(x):
        out = np.zeros_like(x)
        out[:, -1] = _expit(beta * (x[:, -1] - K))
        return out

    return PayoffFunction(name, params, g, dg)


def make_scalar_payoff(name: str, params: dict | None = None):
    """Pointwise payoff g(v) with derivative, for Markovian stopping costs,
    and its params as :func:`read_params` reads them."""
    params = read_params("scalar payoff", name, params)
    if name == "identity":
        return (lambda v: v), (lambda v: np.ones_like(v)), params
    if name == "linear":
        s, b = params.values()
        return (lambda v: s * v + b), (lambda v: np.full_like(v, s)), params
    if name == "quadratic":
        c, w = params.values()
        return (lambda v: w * (v - c) ** 2), (lambda v: 2.0 * w * (v - c)), params
    if name == "softplus_put":
        K, beta = params.values()
        return (
            (lambda v: np.logaddexp(0.0, beta * (K - v)) / beta),
            (lambda v: -_expit(beta * (K - v))),
            params,
        )
    amp, freq = params.values()  # sin
    return (lambda v: amp * np.sin(freq * v)), (lambda v: amp * freq * np.cos(freq * v)), params


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
    loss, payoff, x0 = read_params("controlled", "utility", params, T).values()
    return UtilityModel(make_loss(**loss), make_payoff(**payoff, T=T), x0)


# -- catalog -------------------------------------------------------------------


def make_cost_model(name: str, params: dict | None, T: int) -> CostModel:
    """Instantiate a catalog model for horizon ``T``."""
    if T < 1:
        raise InvalidParams(f"horizon must be >= 1, got {T}")
    kind = next((k for k, names in CATALOG.items() if name in names), None)
    if kind is None:
        raise InvalidParams(f"unknown cost model {name!r}")
    if name in ("linear", "softplus_call"):  # the payoffs of the same name
        g = make_payoff(name, params, T)
        return CostModel(kind, name, T, g.params, value_fn=g.value, grad_x_fn=g.grad)
    if name == "utility":
        return build_utility_cost(make_utility_model(params, T), T)
    params = read_params(kind, name, params, T)

    if name == "quadratic_tracking":
        w, m = params.values()
        return CostModel(
            kind, name, T, params,
            value_fn=lambda x: np.sum(w * (x - m) ** 2, axis=1),
            grad_x_fn=lambda x: 2.0 * w * (x - m),
        )

    if name == "exp_sum":
        beta, scale = params.values()

        def es_value(x):
            return scale * np.exp(beta * x.sum(axis=1))

        def es_grad(x):
            return (scale * beta * np.exp(beta * x.sum(axis=1)))[:, None] * np.ones_like(x)

        return CostModel(kind, name, T, params, value_fn=es_value, grad_x_fn=es_grad)

    if name == "coordinate_product":
        def cp_value(x):
            return np.prod(x, axis=1)

        def cp_grad(x):
            out = np.empty_like(x)
            for t in range(x.shape[1]):
                idx = [s for s in range(x.shape[1]) if s != t]
                out[:, t] = np.prod(x[:, idx], axis=1) if idx else 1.0
            return out

        return CostModel(kind, name, T, params, value_fn=cp_value, grad_x_fn=cp_grad)

    if name == "quadratic_control":
        theta, c = params.values()
        eye = np.eye(T)
        return CostModel(
            kind, name, T, params,
            value_fn=lambda x, a: np.sum((a - theta) ** 2, axis=1) + x @ c,
            grad_x_fn=lambda x, a: np.broadcast_to(c, x.shape).copy(),
            grad_a_fn=lambda x, a: 2.0 * (a - theta),
            hess_a_fn=lambda x, a: np.broadcast_to(2.0 * eye, (x.shape[0], T, T)).copy(),
        )

    if name == "tracking_control":
        lam, x0 = params.values()
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
            kind, name, T, params,
            value_fn=lambda x, a: lam * np.sum((a - lagged(x)) ** 2, axis=1),
            grad_x_fn=tc_grad_x,
            grad_a_fn=lambda x, a: 2.0 * lam * (a - lagged(x)),
            hess_a_fn=lambda x, a: np.broadcast_to(2.0 * lam * eye, (x.shape[0], T, T)).copy(),
        )

    if name == "markov_payoff":
        g, dg, _ = make_scalar_payoff(**params["g"])

        def mp_value(x, t):
            return g(x[:, t - 1])

        def mp_grad(x, t):
            out = np.zeros_like(x)
            out[:, t - 1] = dg(x[:, t - 1])
            return out

        return CostModel(kind, name, T, params, value_fn=mp_value, grad_x_fn=mp_grad)

    c = params["coeff"]  # running_sum

    def rs_value(x, t):
        return c * x[:, :t].sum(axis=1)

    def rs_grad(x, t):
        out = np.zeros_like(x)
        out[:, :t] = c
        return out

    return CostModel(kind, name, T, params, value_fn=rs_value, grad_x_fn=rs_grad)


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
    stopping stage.  ``hess_a_fn`` returns a new (n, T, T) array per call:
    the control solver weights a writeable one in place.
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


def audit_derivatives(model: CostModel, n_draws: int = 1000, seed: int = 0) -> float:
    """Check all derivative callbacks against central finite differences
    of step ``_AUDIT_STEP``.

    Returns the worst relative error; raises InvalidParams above
    ``_AUDIT_TOL``.
    """
    x, a, t = _random_inputs(model, n_draws, np.random.default_rng(seed))
    worst = _rel_err(model._call(model.grad_x_fn, x, a, t),
                     _central_differences(lambda xx: model._call(model.value_fn, xx, a, t), x))
    if model.kind == "controlled":
        for exact, f in ((model.grad_a_fn(x, a), lambda aa: model.value_fn(x, aa)),
                         (model.hess_a(x, a), lambda aa: model.grad_a_fn(x, aa))):
            worst = max(worst, _rel_err(exact, _central_differences(f, a)))

    if worst > _AUDIT_TOL:
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
