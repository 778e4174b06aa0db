"""Convex multistage control on a scenario tree over box-bounded predictable
controls.

Predictability is structural: one scalar control lives on each non-leaf node
and applies to the step leaving it, so the control acting over (t-1, t]
depends only on the history up to t-1 (the root's control is deterministic).
The resulting finite convex program is solved by projected gradient with a
Barzilai-Borwein initial step and Armijo backtracking along the projected
arc.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .cost_models import CostModel, sampled_hessian_min_eig
from .errors import InvalidParams, MaxIterations, NotConvex, TooLarge
from .process_tree import ScenarioTree

ARMIJO_C = 1e-4
BACKTRACK = 0.5
MAX_ITER_DEFAULT = 100_000
BRUTE_FORCE_MAX_POINTS = 1_000_000


@dataclass(frozen=True)
class ControlBounds:
    """Box half-width: admissible controls lie in [-L, L]."""

    L: float

    def __post_init__(self):
        if not (self.L > 0 and np.isfinite(self.L)):
            raise InvalidParams(f"control bound must be positive and finite, got {self.L}")


@dataclass(frozen=True)
class ControlPolicy:
    """Control values keyed by the non-leaf node they are attached to."""

    values: dict[int, float]

    def path_matrix(self, tree: ScenarioTree) -> np.ndarray:
        """(n_paths, T) matrix: entry (k, t-1) is the control applied over (t-1, t]."""
        return self.vector(tree)[_variable_layout(tree)[1]]

    def vector(self, tree: ScenarioTree) -> np.ndarray:
        """The controls in ``solve_value``'s variable order, as its ``z0``."""
        return np.array([self.values[nid] for nid in _variable_layout(tree)[0]])


@dataclass(frozen=True)
class ValueReport:
    value: float
    policy: ControlPolicy
    kkt_residual: float
    iterations: int


def _variable_layout(tree: ScenarioTree):
    """Non-leaf nodes in level order and the per-path variable index matrix."""
    T = tree.horizon
    ids = tree.level_order[:tree.level_start[T]].tolist()
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

    ``z0`` is a start in ``_variable_layout`` order (default: zero).
    Terminates when the projected-gradient sup-norm falls below ``tol``;
    raises MaxIterations otherwise.
    """
    if model.kind != "controlled":
        raise InvalidParams(f"solve_value needs a controlled model, got {model.kind!r}")
    if not tol >= 0.0:
        raise InvalidParams(f"tol must be nonnegative, got {tol}")
    if not isinstance(max_iter, numbers.Integral) or max_iter < 0:
        raise InvalidParams(f"max_iter must be a nonnegative integer, got {max_iter!r}")
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
    # the ufuncs below are np.clip and np.max without their Python wrappers
    z = np.minimum(np.maximum(z0, -L), L)
    vals, grad_a = evaluate(z[aidx])
    phi, g = float(w @ vals), scatter_sum(aidx, wcol * grad_a(), nvar)
    step = 1.0 / max(1.0, float(np.maximum.reduce(np.abs(g))))
    z_prev = g_prev = None
    for it in range(1, max_iter + 1):
        residual = float(np.maximum.reduce(np.abs(z - np.minimum(np.maximum(z - g, -L), L))))
        if residual <= tol:
            return ValueReport(
                value=phi,
                policy=ControlPolicy({nid: float(z[k]) for k, nid in enumerate(ids)}),
                kkt_residual=residual,
                iterations=it - 1,
            )
        if z_prev is not None:
            dz = z - z_prev
            dg = g - g_prev
            curv = float(dz @ dg)
            step = float(dz @ dz) / curv if curv > 1e-18 else min(step * 2.0, 1e8)
            step = min(max(step, 1e-12), 1e8)
        # Armijo along the projected arc; the noise-floor term keeps the test
        # meaningful once objective differences shrink below float resolution
        noise = 1e-15 * (1.0 + abs(phi))
        s = step
        for _ in range(60):
            z_new = np.minimum(np.maximum(z - s * g, -L), L)
            vals, grad_a = evaluate(z_new[aidx])
            phi_new = float(w @ vals)
            if phi_new <= phi + ARMIJO_C * float(g @ (z_new - z)) + noise:
                break
            s *= BACKTRACK
        z_prev, g_prev = z, g
        z, phi, g = z_new, phi_new, scatter_sum(aidx, wcol * grad_a(), nvar)
    raise MaxIterations(f"projected gradient did not reach tolerance {tol} in {max_iter} iterations")


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
    w = tree.paths.probs
    hess = model.hess_a(tree.paths.values, policy_vec[aidx])
    n = len(ids)
    # flat (vi, vj) cells in (k, ti, tj) C order: each cell sums its terms in k order
    cells = aidx[:, :, None] * n + aidx[:, None, :]
    return scatter_sum(cells, w[:, None, None] * hess, n * n).reshape(n, n)


def strong_convexity_probe(
    tree: ScenarioTree, model: CostModel, bounds: ControlBounds, samples: int = 8, seed: int = 0
) -> float:
    """Smallest objective-Hessian eigenvalue over random feasible controls."""
    ids, _ = _variable_layout(tree)
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(samples):
        z = rng.uniform(-bounds.L, bounds.L, size=len(ids))
        worst = min(worst, float(np.linalg.eigvalsh(objective_hessian(tree, model, z)).min()))
    return worst


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
