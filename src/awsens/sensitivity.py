"""First-order sensitivities of the three problem classes under adapted
perturbations, and the Hoelder-dual direction that attains them.

For each class, the report carries the conditional-gradient process

    G_t = E[ d/dx_t (integrand at the optimizer) | time-t atom ],

its per-stage q-th moments E|G_t|^q, and the scalar first-order term
(sum_t E|G_t|^q)^(1/q), where q is the exponent conjugate to the ball order
p.  The worst-case direction realizes equality in both Hoelder pairings
(stages, then paths) and is attached to nodes, so it is adapted by
construction; shifting the tree along it produces a model inside the
radius-r ball whose value climbs at the first-order rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adapted_wasserstein import (
    AWParams,
    CouplingTree,
    _bicausalize_pairs,
    aw_pth_power,
)
from .cost_models import CostModel, UtilityModel, build_utility_cost
from .errors import AwsensError, DeltaTooSmall, FlatStep, InvalidParams, InvalidTree
from .multistage_opt import ControlBounds, ControlPolicy, solve_value
from .optimal_stopping import solve_stopping
from .process_tree import ScenarioTree, _frozen, backward_sweep


@dataclass(frozen=True, eq=False)
class SensitivityReport:
    problem_class: str
    p: float
    q: float
    cond_grads: np.ndarray  # G_t by node id, read-only, 0.0 at the root
    stage_qnorms: tuple[float, ...]  # E |G_t|^q per stage
    first_order: float


@dataclass(frozen=True, eq=False)
class WorstCaseDirection:
    p: float
    q: float
    values: np.ndarray  # Z_t by node id, read-only, 0.0 at the root
    stage_weights: tuple[float, ...]
    norm_check: float  # sum_t E |Z_t|^p
    pairing: float  # sum_t E [G_t Z_t]
    degenerate: bool


def _scaled(x: float, e: float) -> float:
    """``x * 2**e``, rounded once; inf where it overflows."""
    whole = math.floor(e)
    try:
        return math.ldexp(x * 2.0 ** (e - whole), whole)
    except OverflowError:
        return math.inf


def _scale_exponent(node_vals: np.ndarray, q: float) -> int:
    """0 where the largest |G_t|^q lies inside [2^-970, 2^970]; outside,
    where the powers would lose bits to underflow or overflow, the binary
    exponent k of the largest |G_t|, by which the gradients are scaled down
    before any power is taken."""
    big = float(np.max(np.abs(node_vals)))
    if big > 0.0 and not -970.0 <= q * math.log2(big) <= 970.0:
        return math.frexp(big)[1]
    return 0


def _stage_sums(tree: ScenarioTree, node_vals: np.ndarray, q: float, k: int) -> list[float]:
    """Per stage E|G_t 2^-k|^q: Python float powers, summed in level order."""
    g, prob = node_vals.tolist(), tree.node_prob.tolist()
    return [sum(prob[nid] * abs(math.ldexp(g[nid], -k)) ** q for nid in tree.levels[t].tolist())
            for t in range(1, tree.horizon + 1)]


def _by_node(tree: ScenarioTree, sweep: list[np.ndarray]) -> np.ndarray:
    """The rows of a :func:`backward_sweep` as one matrix by node id, zeros
    at the root."""
    out = np.zeros((len(tree.node_prob), sweep[0].shape[1]))
    out[tree.level_order[1:]] = np.concatenate(sweep[1:])
    return out


def _report_from_node_values(
    tree: ScenarioTree, node_vals: np.ndarray, p: float, problem_class: str
) -> SensitivityReport:
    """The report of these conditional gradients: per stage E|G_t|^q and
    the first-order term (sum_t E|G_t|^q)^(1/q).

    Outside the range of :func:`_scale_exponent` the gradients are scaled
    by 2^-k before the powers are summed, and the sums scaled back: the
    first-order term by 2^k, exactly, and each stage's sum by 2^(kq).
    Inside it the sums run unscaled.
    """
    q = p / (p - 1.0)
    k = _scale_exponent(node_vals, q)
    qnorms = _stage_sums(tree, node_vals, q, k)
    first = _scaled(sum(qnorms) ** (1.0 / q), k)
    if k:
        qnorms = [_scaled(x, k * q) for x in qnorms]
    return SensitivityReport(
        problem_class=problem_class,
        p=p,
        q=q,
        cond_grads=node_vals,
        stage_qnorms=tuple(qnorms),
        first_order=first,
    )


def _condition_leaf_gradients(
    tree: ScenarioTree, leaf_grads: np.ndarray, p: float, problem_class: str
) -> SensitivityReport:
    rows = _by_node(tree, backward_sweep(tree, leaf_grads))
    node_vals = rows[np.arange(len(rows)), tree.time - 1]  # the root's row is zeros
    return _report_from_node_values(tree, _frozen(node_vals), p, problem_class)


def class_solve(
    tree: ScenarioTree,
    model: CostModel,
    bounds: ControlBounds | None,
    tol: float,
    check_convexity: bool = True,
    z0: np.ndarray | None = None,
):
    """Class value plus the optimizer its gradient holds fixed: the control
    policy, the stopping policy, or None for terminal costs.  ``z0`` starts
    the control solve (see ``solve_value``); the other classes have none."""
    if model.kind == "terminal":
        return float(tree.paths.probs @ model.value_fn(tree.paths.values)), None
    if model.kind == "controlled":
        rep = solve_value(tree, model, bounds, tol=tol, z0=z0, check_convexity=check_convexity)
        return rep.value, rep.policy
    return solve_stopping(tree, model, tol=tol)[:2]


def leaf_gradients(tree: ScenarioTree, model: CostModel, optimizer) -> np.ndarray:
    """Path gradient of the integrand at ``class_solve``'s optimizer, one
    row per leaf; a stopped path takes the gradient of its stopping stage."""
    a = optimizer.path_matrix(tree) if model.kind == "controlled" else None
    t = optimizer.tau[tree.ancestor_matrix[:, -1]] if model.kind == "stopping" else None
    return model._call(model.grad_x_fn, tree.paths.values, a, t)


def first_order(
    tree: ScenarioTree,
    model: CostModel,
    p: float,
    bounds: ControlBounds | None = None,
    tol: float = 1e-9,
) -> tuple[SensitivityReport, float, object]:
    """Report, class value and optimizer of one solve, for any model kind."""
    AWParams(p)  # validates p > 1
    value, optimizer = class_solve(tree, model, bounds, tol)
    grads = leaf_gradients(tree, model, optimizer)
    return _condition_leaf_gradients(tree, grads, p, model.kind), value, optimizer


def _expect_kind(model: CostModel, kind: str) -> None:
    if model.kind != kind:
        raise InvalidParams(f"expected a {kind} model, got {model.kind!r}")


def sensitivity_terminal(tree: ScenarioTree, model: CostModel, p: float) -> SensitivityReport:
    """First-order term for plain expectation functionals."""
    _expect_kind(model, "terminal")
    return first_order(tree, model, p)[0]


def sensitivity_control(
    tree: ScenarioTree,
    model: CostModel,
    bounds: ControlBounds,
    p: float,
    tol: float = 1e-9,
) -> tuple[SensitivityReport, ControlPolicy]:
    """First-order term for the controlled problem, at the unique optimizer."""
    _expect_kind(model, "controlled")
    report, _, policy = first_order(tree, model, p, bounds, tol)
    return report, policy


def sensitivity_stopping(
    tree: ScenarioTree, model: CostModel, p: float, tol: float = 1e-9
) -> tuple[SensitivityReport, np.ndarray]:
    """First-order term for optimal stopping, at the unique stopping time."""
    _expect_kind(model, "stopping")
    report, _, policy = first_order(tree, model, p, tol=tol)
    return report, policy.tau


def utility_first_order(
    tree: ScenarioTree,
    u: UtilityModel,
    bounds: ControlBounds,
    p: float,
    tol: float = 1e-9,
) -> tuple[SensitivityReport, ControlPolicy]:
    """Closed-form first-order term for the hedging objective.

    Per stage, the conditional-gradient process is

        E[l'(W) d/dx_t g(X) | F_t] + (a*_t - a*_{t+1}) E[l'(W) | F_t]

    with a*_{T+1} = 0 and W the hedged terminal position at the optimizer:
    the conditioned x-gradient of the utility cost, so the report equals
    :func:`sensitivity_control`'s and its direction raises the value.
    The tree must have no flat steps (no atom with x_t = x_{t-1}).
    """
    AWParams(p)
    xs = tree.paths.values
    lagged = np.concatenate([np.full((xs.shape[0], 1), u.x0), xs[:, :-1]], axis=1)
    if np.any(xs == lagged):
        raise FlatStep("the tree has an atom with x_t equal to x_{t-1}")

    model = build_utility_cost(u, tree.horizon)
    rep = solve_value(tree, model, bounds, tol=tol)
    actions = rep.policy.path_matrix(tree)
    w_leaf = u.payoff.value(xs) + np.sum(actions * (xs - lagged), axis=1)
    lp = u.loss.deriv(w_leaf)
    gpath = u.payoff.grad(xs)

    # column 0 conditions l'(W), column t the stage-t term l'(W) d/dx_t g(X)
    rows = _by_node(tree, backward_sweep(tree, np.column_stack([lp, lp[:, None] * gpath])))
    action = rep.policy.values  # 0.0 at the leaves: a*_{T+1} = 0
    # the root reads action[-1] as its parent's; its row of zeros keeps it at 0.0
    node_vals = rows[np.arange(len(rows)), tree.time] + (action[tree.parent] - action) * rows[:, 0]
    return _report_from_node_values(tree, _frozen(node_vals), p, "utility"), rep.policy


def worst_case_direction(tree: ScenarioTree, report: SensitivityReport) -> WorstCaseDirection:
    """Adapted direction achieving equality in both Hoelder pairings.

    Stage weights a_t = u_t^(q/p) / (sum_s u_s^q)^(1/p) with u_t the stage
    L^q norm of the conditional gradients, and per node
    Z_t = a_t sign(G_t) |G_t|^(q-1) / u_t^(q-1) (zero on stages with u_t = 0).
    Then sum_t E|Z_t|^p = 1 and sum_t E[G_t Z_t] equals the first-order term.

    Z_t does not change when every G_t is scaled by one factor, so outside
    the range of :func:`_scale_exponent` it is computed from the gradients
    scaled by 2^-k, whose powers neither overflow nor underflow; inside it
    from the report's stage sums and the gradients as they are.  A report
    without one gradient per node of ``tree`` raises ``InvalidParams``.
    """
    p, q = report.p, report.q
    _check_per_node(tree, report.cond_grads, "report")
    k = _scale_exponent(report.cond_grads, q)
    qnorms = _stage_sums(tree, report.cond_grads, q, k) if k else report.stage_qnorms
    S = sum(qnorms)
    values = [0.0] * len(tree.node_prob)
    if S <= 0.0:
        return WorstCaseDirection(p, q, _frozen(np.array(values)),
                                  tuple(0.0 for _ in report.stage_qnorms), 0.0, 0.0, True)
    u_stage = [qn ** (1.0 / q) for qn in qnorms]
    weights = [ut ** (q / p) / S ** (1.0 / p) for ut in u_stage]
    grads, prob = report.cond_grads.tolist(), tree.node_prob.tolist()
    norm_check = 0.0
    pairing = 0.0
    for t in range(1, tree.horizon + 1):
        ut = u_stage[t - 1]
        for nid in tree.levels[t].tolist():
            g, z = grads[nid], 0.0
            if ut > 0.0 and g != 0.0:
                z = (weights[t - 1] * math.copysign(abs(math.ldexp(g, -k)) ** (q - 1.0), g)
                     / ut ** (q - 1.0))
            values[nid] = z
            norm_check += prob[nid] * abs(z) ** p
            pairing += prob[nid] * g * z
    return WorstCaseDirection(p, q, _frozen(np.array(values)), tuple(weights), norm_check,
                              pairing, False)


def _check_per_node(tree: ScenarioTree, values: np.ndarray, what: str) -> None:
    """``InvalidParams`` unless ``values`` holds one entry per node of ``tree``."""
    n = len(tree.node_prob)
    if np.shape(values) != (n,):
        raise InvalidParams(f"a {what} of shape {np.shape(values)} does not fit a {n}-node tree")


def displace(tree: ScenarioTree, values, delta: float):
    """Move every value-carrying node to ``values[node id]`` (indexed by node
    id; the root's entry is ignored).

    Returns ``(tree.with_values(values), None)`` when shifted siblings stay
    distinct, and otherwise ``(tree, coupling)`` of the bicausal repair with
    resolution ``delta``.
    """
    values = np.asarray(values, dtype=np.float64)
    try:
        return tree.with_values(values), None
    except InvalidTree:
        if tree._collision(values) is None:
            raise
    if delta <= 0.0:
        raise DeltaTooSmall(
            "shifted sibling values collide and delta = 0 leaves nothing to separate them"
        )
    coupling, out = _bicausalize_pairs(tree, tree.parent, tree.time, np.arange(len(values)),
                                       values, tree.node_prob, delta)
    return out, coupling


def perturbed_model(
    tree: ScenarioTree,
    direction: WorstCaseDirection,
    r: float,
    delta: float | None = None,
    verify: bool = True,
) -> ScenarioTree:
    """Shift node values along the direction: the law of X + r Z.

    The shift is node-wise, hence adapted; when shifted sibling values
    collide, the second marginal is bicausalized with resolution ``delta``
    (default r/100, so the repair cost is second order in r).  With
    ``verify`` the construction checks its own ball bound
    distance <= r * norm + delta * T^(1/p).  A direction without one value
    per node of ``tree`` raises ``InvalidParams``.
    """
    out, _coupling, _delta_used = perturbed_model_with_coupling(
        tree, direction, r, delta=delta, verify=verify
    )
    return out


def perturbed_model_with_coupling(
    tree: ScenarioTree,
    direction: WorstCaseDirection,
    r: float,
    delta: float | None = None,
    verify: bool = True,
):
    """Like :func:`perturbed_model` but also returns the displacement
    coupling (bicausal by construction) and the repair resolution used."""
    if not 0.0 <= r < math.inf:  # NaN fails too
        raise InvalidParams(f"radius must be nonnegative and finite, got {r}")
    if delta is not None and not math.isfinite(delta):
        raise InvalidParams(f"delta must be finite, got {delta}")
    _check_per_node(tree, direction.values, "direction")
    if r == 0.0:
        return tree, None, 0.0
    if delta is None:
        delta = r / 100.0
    out, coupling = displace(tree, tree.values + r * direction.values, delta)
    delta_used = delta
    if coupling is None:  # the identity coupling is bicausal
        delta_used = 0.0
        ids = np.arange(len(tree.parent))
        coupling = CouplingTree(tree, out, tree.parent, tree.time, ids, ids, tree.cond_prob)

    if verify:
        norm = direction.norm_check ** (1.0 / direction.p) if direction.norm_check > 0 else 1.0
        bound = r * max(norm, 1.0) + delta_used * tree.horizon ** (1.0 / direction.p) + 1e-9
        dist = aw_pth_power(tree, out, AWParams(direction.p)) ** (1.0 / direction.p)
        if dist > bound:
            raise AwsensError(
                f"perturbed tree left its ball: distance {dist!r} exceeds bound {bound!r}"
            )
    return out, coupling, delta_used
