"""Convex multistage control on a scenario tree over box-bounded predictable
controls.

Predictability is structural: one scalar control lives on each non-leaf node
and applies to the step leaving it, so the control acting over (t-1, t]
depends only on the history up to t-1 (the root's control is deterministic).
The resulting finite convex program is solved by projected gradient with a
Barzilai-Borwein initial step and Armijo backtracking along the projected
arc.  After ``NEWTON_AFTER`` iterations each step is a projected Newton step
(Bertsekas, SIAM J. Control Optim. 20, 1982): controls held at a wall take
the gradient step and the free ones the Newton step, found by truncated
conjugate gradients on Hessian-vector products (Steihaug, SIAM J. Numer.
Anal. 20, 1983) that cost O(paths * T^2) and build no n x n matrix.  The CG
is preconditioned by the Hessian's diagonal (Jacobi; Nocedal & Wright,
Numerical Optimization, 2nd ed., 2006, sections 5.1 and 7.1), which undoes
the node probabilities' scaling of the controls.  A Newton step that meets
non-positive curvature at once, or finds no Armijo point, gives way to the
projected-gradient step for that iteration.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .cost_models import CostModel, sampled_hessian_min_eig
from .errors import (InvalidParams, MaxIterations, NotConvex, TooLarge, finite_count, is_number,
                     tolerance)
from .process_tree import ScenarioTree, _frozen

ARMIJO_C = 1e-4
BACKTRACK = 0.5
MAX_ITER_DEFAULT = 100_000
NEWTON_AFTER = 5  # projected-gradient iterations before the Newton phase
NEWTON_TRIALS = 30  # Armijo trials of a Newton step, from the full step down
BRUTE_FORCE_MAX_POINTS = 1_000_000


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
    """Non-leaf node ids in level order and the per-path variable index matrix."""
    T = tree.horizon
    ids = tree.level_order[:tree.level_start[T]]
    return ids, tree.level_start[:T] + tree.level_pos[tree.ancestor_matrix[:, :T]]


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


def _path_hessians(model: CostModel, xs: np.ndarray, w: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The per-path control Hessians weighted by the path probabilities,
    ``w[k] * hess_a(xs[k], a[k])``, shape (paths, T, T)."""
    hess = model.hess_a(xs, a)
    if not hess.flags.writeable:  # a model may hand back a broadcast view
        return w[:, None, None] * hess
    hess *= w[:, None, None]
    return hess


def _hessian_product(
    hw: np.ndarray, aidx: np.ndarray, held: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """H_FF v_F: the objective Hessian's product with ``v`` restricted to the
    free controls (``~held``), zero on the held ones, from the weighted
    per-path blocks ``hw``."""
    v = np.where(held, 0.0, v)
    out = scatter_sum(aidx, (hw @ v[aidx][:, :, None])[:, :, 0], v.shape[0])
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
    definite; the stopping test reads the unpreconditioned residual.
    """
    eps = min(1e-3 * L, residual)
    held = ((z <= -L + eps) & (g > 0.0)) | ((z >= L - eps) & (g < 0.0))
    m = scatter_sum(aidx, np.diagonal(hw, axis1=1, axis2=2), z.shape[0])
    m[held | (m <= 0.0)] = 1.0
    r = np.where(held, 0.0, -g)
    rr = float(r @ r)
    stop = min(0.5, math.sqrt(math.sqrt(rr))) * math.sqrt(rr)
    x = np.zeros_like(z)
    y = r / m
    ry = float(r @ y)
    p = y
    for k in range(z.shape[0]):
        if math.sqrt(rr) <= stop:
            break
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
        y = r / m
        ry, ry_prev = float(r @ y), ry
        p = y + (ry / ry_prev) * p
    return np.where(held, -g, x)


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

    ``z0`` is a start in ``_variable_layout`` order (default: zero).  The
    first ``NEWTON_AFTER`` iterations are projected-gradient steps, the rest
    projected Newton steps (see the module docstring).  Terminates when the
    projected-gradient sup-norm, the KKT residual, falls below ``tol``;
    raises MaxIterations otherwise.
    """
    if model.kind != "controlled":
        raise InvalidParams(f"solve_value needs a controlled model, got {model.kind!r}")
    tol = tolerance(tol, "tol")
    max_iter = finite_count(max_iter, "max_iter", "solve_value")
    ids, aidx = _variable_layout(tree)
    nvar = len(ids)
    z0 = np.zeros(nvar) if z0 is None else np.asarray(z0, dtype=np.float64)
    if z0.shape != (nvar,) or not np.all(np.isfinite(z0)):
        raise InvalidParams(f"z0 must be a finite vector of length {nvar}")
    if check_convexity:
        _check_convex(tree, model, bounds)
    xs = tree.paths.values
    w = tree.paths.probs
    wcol = w[:, None]
    L = bounds.L
    evaluate = model.bind(xs)

    def search(z, phi, g, d, s, trials):
        """Armijo backtracking along the projected arc z + s d; returns the
        last trial point, its value and gradient callback, and whether it
        passed.  The noise-floor term keeps the test meaningful once
        objective differences shrink below float resolution."""
        noise = 1e-15 * (1.0 + abs(phi))
        for _ in range(trials):
            # the ufuncs are np.clip and np.max without their Python wrappers
            z_new = np.minimum(np.maximum(z + s * d, -L), L)
            vals, grad_a = evaluate(z_new[aidx])
            phi_new = float(w @ vals)
            if phi_new <= phi + ARMIJO_C * float(g @ (z_new - z)) + noise:
                return z_new, phi_new, grad_a, True
            s *= BACKTRACK
        return z_new, phi_new, grad_a, False

    z = np.minimum(np.maximum(z0, -L), L)
    vals, grad_a = evaluate(z[aidx])
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
        if it > NEWTON_AFTER:
            d = _newton_direction(_path_hessians(model, xs, w, z[aidx]), aidx, z, g, L, residual)
            if d is not None:
                z_new, phi_new, grad_a, passed = search(z, phi, g, d, 1.0, NEWTON_TRIALS)
        if not passed:  # the Barzilai-Borwein projected-gradient step
            if z_prev is not None:
                dz = z - z_prev
                dg = g - g_prev
                curv = float(dz @ dg)
                step = float(dz @ dz) / curv if curv > 1e-18 else min(step * 2.0, 1e8)
                step = min(max(step, 1e-12), 1e8)
            z_new, phi_new, grad_a, _ = search(z, phi, g, -g, step, 60)
        z_prev, g_prev = z, g
        z, phi, g = z_new, phi_new, scatter_sum(aidx, wcol * grad_a(), nvar)
    raise MaxIterations(f"projected gradient and Newton steps did not reach tolerance {tol} "
                        f"in {max_iter} iterations")


def brute_force_value(
    tree: ScenarioTree, model: CostModel, bounds: ControlBounds, grid_n: int
) -> float:
    """Exhaustive minimum over a uniform control grid; upper-bounds the value."""
    if model.kind != "controlled":
        raise InvalidParams(f"brute_force_value needs a controlled model, got {model.kind!r}")
    if grid_n < 2:
        raise InvalidParams(f"grid_n must be >= 2, got {grid_n}")
    ids, aidx = _variable_layout(tree)
    nvar = len(ids)
    if grid_n**nvar > BRUTE_FORCE_MAX_POINTS:
        raise TooLarge(f"{grid_n}^{nvar} grid points exceed {BRUTE_FORCE_MAX_POINTS}")
    grid = np.linspace(-bounds.L, bounds.L, grid_n)
    combos = np.stack(
        np.meshgrid(*([grid] * nvar), indexing="ij"), axis=-1
    ).reshape(-1, nvar)
    xs = tree.paths.values
    w = tree.paths.probs
    total = np.zeros(combos.shape[0])
    for k in range(xs.shape[0]):
        actions = combos[:, aidx[k]]
        xrow = np.broadcast_to(xs[k], actions.shape)
        total += w[k] * model.value_fn(xrow, actions)
    return float(total.min())


def objective_hessian(tree: ScenarioTree, model: CostModel, policy_vec: np.ndarray) -> np.ndarray:
    """Hessian of the expected cost in node-control space at the given point."""
    ids, aidx = _variable_layout(tree)
    hw = _path_hessians(model, tree.paths.values, tree.paths.probs, policy_vec[aidx])
    n = len(ids)
    # flat (vi, vj) cells in (k, ti, tj) C order: each cell sums its terms in k order
    cells = aidx[:, :, None] * n + aidx[:, None, :]
    return scatter_sum(cells, hw, n * n).reshape(n, n)


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


def control_grid_error_bound(
    tree: ScenarioTree, model: CostModel, bounds: ControlBounds,
    policy_vec: np.ndarray, grid_n: int,
) -> float:
    """Curvature bound on the gap between the grid minimum and the true one.

    The nearest grid point sits within half a grid cell of the optimum per
    coordinate, so for objectives whose control Hessian does not depend on
    the control (all quadratic-in-a catalog entries) the excess cost is at
    most lambda_max/2 times the squared distance.
    """
    h = 2.0 * bounds.L / (grid_n - 1)
    H = objective_hessian(tree, model, policy_vec)
    lam = float(np.linalg.eigvalsh(H).max())
    n = H.shape[0]
    return 0.5 * lam * n * (0.5 * h) ** 2 + 1e-12
