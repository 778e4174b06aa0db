"""Convex multistage control on a scenario tree over box-bounded predictable
controls.

Predictability is structural: one scalar control lives on each non-leaf node
and applies to the step leaving it, so the control acting over (t-1, t]
depends only on the history up to t-1 (the root's control is deterministic).
The resulting finite convex program is solved by projected gradient with a
Barzilai-Borwein initial step and Armijo backtracking along the projected
arc.  After ``NEWTON_AFTER`` iterations of a cold start, and from the first
iteration of a start ``z0`` (a warm start needs no gradient warm-up), each
step is a projected Newton step (Bertsekas, SIAM J. Control Optim. 20,
1982): controls held at a wall take the gradient step and the free ones the
Newton step, found by truncated conjugate gradients on Hessian-vector
products (Steihaug, SIAM J. Numer. Anal. 20, 1983) that cost
O(paths * T^2) and build no n x n matrix.  The per-path Hessians come from
the model evaluation the line search made at the current point
(``CostModel.bind``).  The CG is preconditioned by the Hessian's diagonal
(Jacobi; Nocedal & Wright, Numerical Optimization, 2nd ed., 2006, sections
5.1 and 7.1), which undoes the node probabilities' scaling of the controls.
A Newton step that meets non-positive curvature at once, or finds no
Armijo point, gives way to the projected-gradient step for that iteration.
Its independent check, the control-grid sweep, lives in
:mod:`awsens.oracles`, which reads none of the layout, sums or products here.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .cost_models import CostModel, sampled_hessian_min_eig
from .errors import InvalidParams, MaxIterations, NotConvex, finite_count, is_number, tolerance
from .process_tree import ScenarioTree, _frozen, _memo

ARMIJO_C = 1e-4
BACKTRACK = 0.5
MAX_ITER_DEFAULT = 100_000
NEWTON_AFTER = 5  # projected-gradient iterations before the Newton phase
NEWTON_TRIALS = 30  # Armijo trials of a Newton step, from the full step down


@dataclass(frozen=True)
class ControlBounds:
    """Box half-width: admissible controls lie in [-L, L]."""

    L: float

    def __post_init__(self):
        # NaN, the infinities and integers beyond the float range fail the comparison
        if not (is_number(self.L) and 0 < self.L <= sys.float_info.max):
            raise InvalidParams(f"control bound must be a positive finite number, got {self.L!r}")


@dataclass(frozen=True, eq=False)
class ControlPolicy:
    """Control values as a read-only array by node id: each non-leaf node
    holds the control applied over the step leaving it, the leaves 0.0."""

    values: np.ndarray

    def path_matrix(self, tree: ScenarioTree) -> np.ndarray:
        """(n_paths, T) matrix: entry (k, t-1) is the control applied over (t-1, t]."""
        return self.values[tree.ancestor_matrix[:, :-1]]

    def vector(self, tree: ScenarioTree) -> np.ndarray:
        """The controls in ``solve_value``'s variable order, as its ``z0``."""
        return self.values[_variable_layout(tree)[0]]


@dataclass(frozen=True)
class ValueReport:
    value: float
    policy: ControlPolicy
    kkt_residual: float
    iterations: int


def _variable_layout(tree: ScenarioTree):
    """Non-leaf node ids in level order and the per-path variable index
    matrix, read-only and built once per structure."""
    def build():
        T = tree.horizon
        aidx = tree.level_start[:T] + tree.level_pos[tree.ancestor_matrix[:, :T]]
        return tree.level_order[:tree.level_start[T]], _frozen(aidx)

    return _memo(tree._shared, "variables", build)


def scatter_sum(idx: np.ndarray, vals: np.ndarray, n: int) -> np.ndarray:
    """Length-n sums of ``vals`` grouped by ``idx`` (same shape), added in C
    order from zero: bit for bit ``np.add.at(np.zeros(n), idx, vals)``."""
    return np.bincount(idx.ravel(), weights=vals.ravel(), minlength=n)


def _check_convex(tree: ScenarioTree, model: CostModel, bounds: ControlBounds, seed: int = 0):
    rng = np.random.default_rng(seed)
    xs = tree.paths.values
    rows = xs[rng.integers(0, xs.shape[0], size=32)]
    controls = rng.uniform(-bounds.L, bounds.L, size=rows.shape)
    if sampled_hessian_min_eig(model, rows, controls) < -1e-10:
        raise NotConvex(f"model {model.name!r} fails the sampled-Hessian convexity check")


def _weighted(hess: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``w[k] * hess[k]`` for per-path Hessians ``hess`` (paths, T, T),
    in place unless ``hess`` is read-only."""
    if not hess.flags.writeable:  # a model may hand back a broadcast view
        return w[:, None, None] * hess
    hess *= w[:, None, None]
    return hess


def _hessian_product(
    hw: np.ndarray, aidx: np.ndarray, held: np.ndarray | None, v: np.ndarray
) -> np.ndarray:
    """H_FF v_F: the objective Hessian's product with ``v``, which is zero
    on the held controls (``held``; None: none), restricted to the free
    ones and zero on the held ones, from the weighted per-path blocks
    ``hw``."""
    out = scatter_sum(aidx, (hw @ v[aidx][:, :, None])[:, :, 0], v.shape[0])
    if held is not None:
        out[held] = 0.0
    return out


def _newton_direction(
    hw: np.ndarray, aidx: np.ndarray, z: np.ndarray, g: np.ndarray, L: float, residual: float
) -> np.ndarray | None:
    """Projected Newton direction, or None when the first conjugate-gradient
    step meets non-positive curvature.

    A control within min(1e-3 L, residual) of a wall that the gradient
    pushes outward is held and takes -g; the free ones take a truncated CG
    solve of H_FF d = -g_F, stopped at a relative residual of
    min(0.5, sqrt(|g_F|)) or after one step per control.  The CG is
    preconditioned by M = diag(H_FF) (Jacobi; Nocedal & Wright, Numerical
    Optimization, 2nd ed., 2006, sections 5.1 and 7.1): node controls carry
    their node's probability, so H's diagonal spans orders of magnitude
    while diag^-1/2 H diag^-1/2 is well conditioned.  Held controls, and any
    whose diagonal is not positive, take 1 in M, so M stays positive
    definite; the stopping test reads the unpreconditioned residual.  The
    residual and every search direction stay exactly 0.0 on the held
    controls, so the products need not mask their input.
    """
    n = z.shape[0]
    eps = min(1e-3 * L, residual)
    m = scatter_sum(aidx, np.diagonal(hw, axis1=1, axis2=2), n)
    m[m <= 0.0] = 1.0
    r = -g
    held = None
    # |z| >= L - eps exactly when z <= -L + eps or z >= L - eps
    if float(np.maximum.reduce(np.abs(z))) >= L - eps:
        held = ((z <= -L + eps) & (g > 0.0)) | ((z >= L - eps) & (g < 0.0))
        m[held] = 1.0
        r[held] = 0.0
    rr = float(r @ r)
    stop = min(0.5, math.sqrt(math.sqrt(rr))) * math.sqrt(rr)
    x = np.zeros(n)
    p = ry = None
    for k in range(n):
        if math.sqrt(rr) <= stop:
            break
        y = r / m
        ry, ry_prev = float(r @ y), ry
        p = y if k == 0 else y + (ry / ry_prev) * p
        hp = _hessian_product(hw, aidx, held, p)
        curv = float(p @ hp)
        if curv <= 0.0:
            if k == 0:
                return None
            break
        alpha = ry / curv
        x += alpha * p
        r = r - alpha * hp
        rr = float(r @ r)
    if held is not None:
        x[held] = -g[held]
    return x


def solve_value(
    tree: ScenarioTree,
    model: CostModel,
    bounds: ControlBounds,
    tol: float = 1e-9,
    max_iter: int = MAX_ITER_DEFAULT,
    z0: np.ndarray | None = None,
    check_convexity: bool = True,
) -> ValueReport:
    """Minimize the expected cost over box-bounded node controls.

    ``z0`` is a start in ``_variable_layout`` order (default: zero).  A
    cold start takes ``NEWTON_AFTER`` projected-gradient iterations before
    its projected Newton steps; a start ``z0`` takes Newton steps from the
    first iteration, since a warm start near an optimum needs no gradient
    warm-up (see the module docstring).  Terminates when the
    projected-gradient sup-norm, the KKT residual, falls below ``tol``;
    raises MaxIterations otherwise.
    """
    if model.kind != "controlled":
        raise InvalidParams(f"solve_value needs a controlled model, got {model.kind!r}")
    tol = tolerance(tol, "tol")
    max_iter = finite_count(max_iter, "max_iter", "solve_value")
    ids, aidx = _variable_layout(tree)
    nvar = len(ids)
    newton_after = NEWTON_AFTER if z0 is None else 0
    z0 = np.zeros(nvar) if z0 is None else np.asarray(z0, dtype=np.float64)
    if z0.shape != (nvar,) or not np.isfinite(z0).all():
        raise InvalidParams(f"z0 must be a finite vector of length {nvar}")
    if check_convexity:
        _check_convex(tree, model, bounds)
    w = tree.paths.probs
    wcol = w[:, None]
    L = bounds.L
    evaluate = model.bind(tree.paths.values)

    def search(z, phi, g, d, s, trials):
        """Armijo backtracking along the projected arc z + s d; returns the
        last trial point, its value, its gradient and Hessian callbacks,
        and whether it passed.  The noise-floor term keeps the test
        meaningful once objective differences shrink below float
        resolution."""
        noise = 1e-15 * (1.0 + abs(phi))
        for _ in range(trials):
            # the ufuncs are np.clip and np.max without their Python wrappers
            z_new = np.minimum(np.maximum(z + s * d, -L), L)
            vals, grad_a, hess_a = evaluate(z_new[aidx])
            phi_new = float(w @ vals)
            if phi_new <= phi + ARMIJO_C * float(g @ (z_new - z)) + noise:
                return z_new, phi_new, grad_a, hess_a, True
            s *= BACKTRACK
        return z_new, phi_new, grad_a, hess_a, False

    z = np.minimum(np.maximum(z0, -L), L)
    vals, grad_a, hess_a = evaluate(z[aidx])
    phi, g = float(w @ vals), scatter_sum(aidx, wcol * grad_a(), nvar)
    step = 1.0 / max(1.0, float(np.maximum.reduce(np.abs(g))))
    z_prev = g_prev = None
    for it in range(1, max_iter + 1):
        residual = float(np.maximum.reduce(np.abs(z - np.minimum(np.maximum(z - g, -L), L))))
        if residual <= tol:
            controls = np.zeros(len(tree.node_prob))  # 0.0 at the leaves
            controls[ids] = z
            return ValueReport(value=phi, policy=ControlPolicy(_frozen(controls)),
                               kkt_residual=residual, iterations=it - 1)
        passed = False
        if it > newton_after:
            d = _newton_direction(_weighted(hess_a(), w), aidx, z, g, L, residual)
            if d is not None:
                z_new, phi_new, grad_a, hess_a, passed = search(z, phi, g, d, 1.0, NEWTON_TRIALS)
        if not passed:  # the Barzilai-Borwein projected-gradient step
            if z_prev is not None:
                dz = z - z_prev
                dg = g - g_prev
                curv = float(dz @ dg)
                step = float(dz @ dz) / curv if curv > 1e-18 else min(step * 2.0, 1e8)
                step = min(max(step, 1e-12), 1e8)
            z_new, phi_new, grad_a, hess_a, _ = search(z, phi, g, -g, step, 60)
        z_prev, g_prev = z, g
        z, phi, g = z_new, phi_new, scatter_sum(aidx, wcol * grad_a(), nvar)
    raise MaxIterations(f"projected gradient and Newton steps did not reach tolerance {tol} "
                        f"in {max_iter} iterations")


def uniqueness_spread(
    tree: ScenarioTree,
    model: CostModel,
    bounds: ControlBounds,
    tol: float = 1e-9,
    restarts: int = 16,
    seed: int = 0,
) -> float:
    """Max sup-norm spread of the optimizers found from random starts."""
    rng = np.random.default_rng(seed)
    ids, _ = _variable_layout(tree)
    sols = []
    for _ in range(restarts):
        z0 = rng.uniform(-bounds.L, bounds.L, size=len(ids))
        rep = solve_value(tree, model, bounds, tol=tol, z0=z0, check_convexity=False)
        sols.append(rep.policy.vector(tree))
    stack = np.stack(sols)
    return float(np.max(stack.max(axis=0) - stack.min(axis=0)))
