"""Lower bounds on the worst-case value over adapted-distance balls.

For each radius, candidate models are adapted Monge perturbations of the
base tree (one displacement per value-carrying node, weights untouched) and
the class value is pushed up by projected gradient ascent over the
displacements.  Membership in the ball is enforced a posteriori by computing
the exact adapted distance and shrinking the displacement radially until it
holds, because the l^p norm of the displacements only upper-bounds the
adapted distance.  The ascent is seeded with the Hoelder-dual direction, so
reported lower bounds never fall below the direction-induced value, and the
extrapolated slope of lower_bound / r as r -> 0 estimates the first-order
coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adapted_wasserstein import AWParams, aw_pth_power
from .cost_models import CATALOG, CostModel
from .errors import (
    AmbiguousStopping,
    DeltaTooSmall,
    InvalidParams,
    InvalidTree,
    MaxIterations,
    NonFinite,
    NotConvex,
    finite_count,
)
from .multistage_opt import ControlBounds, scatter_sum
from .process_tree import ScenarioTree
from .sensitivity import (
    class_solve,
    displace,
    first_order,
    leaf_gradients,
    worst_case_direction,
)


@dataclass(frozen=True)
class RobustQuery:
    problem_class: str
    tree: ScenarioTree
    model: CostModel
    p: float
    radii: tuple[float, ...]
    bounds: ControlBounds | None = None
    restarts: int = 2
    max_iters: int = 25
    seed: int = 0
    solver_tol: float = 1e-9

    def __post_init__(self):
        if self.problem_class not in CATALOG:
            raise InvalidParams(f"unknown problem class {self.problem_class!r}")
        AWParams(self.p)
        for name in ("restarts", "max_iters", "seed"):
            object.__setattr__(self, name, finite_count(getattr(self, name), name, "RobustQuery"))
        radii = tuple(float(r) for r in self.radii)
        object.__setattr__(self, "radii", radii)
        if not radii or not all(0.0 < r < math.inf for r in radii):  # NaN fails too
            raise InvalidParams(f"radii must be positive and finite, got {radii!r}")
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise InvalidParams("radii must be strictly ascending")
        if self.problem_class == "controlled" and self.bounds is None:
            raise InvalidParams("controlled queries need control bounds")
        if self.model.kind != self.problem_class:
            raise InvalidParams(
                f"model kind {self.model.kind!r} does not match class {self.problem_class!r}"
            )


@dataclass(frozen=True)
class CurveRow:
    radius: float
    lower_bound: float
    seeded_value: float
    first_order_value: float  # radius times the first-order coefficient
    distance: float
    displacement: dict[int, float]
    converged: bool


@dataclass(frozen=True)
class RobustCurve:
    problem_class: str
    base_value: float
    first_order: float
    rows: tuple[CurveRow, ...]
    slope_estimate: float
    slope_stderr: float

    def to_csv(self) -> str:
        lines = ["r,lower_bound,seeded_value,r_times_V,distance_of_maximizer"]
        for row in self.rows:
            lines.append(
                f"{row.radius!r},{row.lower_bound!r},{row.seeded_value!r},"
                f"{row.first_order_value!r},{row.distance!r}"
            )
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "problem_class": self.problem_class,
            "base_value": self.base_value,
            "first_order": self.first_order,
            "slope_estimate": self.slope_estimate,
            "slope_stderr": self.slope_stderr,
            "rows": [
                {
                    "r": row.radius,
                    "lower_bound": row.lower_bound,
                    "seeded_value": row.seeded_value,
                    "r_times_V": row.first_order_value,
                    "distance_of_maximizer": row.distance,
                    "converged": row.converged,
                    "displacement": {str(k): v for k, v in sorted(row.displacement.items())},
                }
                for row in self.rows
            ],
        }


def ball_membership(
    P: ScenarioTree, Q: ScenarioTree, p: float, r: float
) -> tuple[bool, float]:
    """Exact distance plus a boolean with 1e-8 slack."""
    dist = aw_pth_power(P, Q, AWParams(p)) ** (1.0 / p)
    return dist <= r + 1e-8, dist


class _Ascent:
    """Displacement-ascent machinery shared across radii."""

    def __init__(self, query: RobustQuery):
        self.query = query
        self.tree = query.tree
        self.params = AWParams(query.p)
        tree = self.tree
        # the displaced nodes, in level order, and per path their indices there
        self.vnodes = tree.level_order[1:]
        self.vidx = tree.level_start[1:-1] - 1 + tree.level_pos[tree.ancestor_matrix[:, 1:]]
        self.vprob = tree.node_prob[self.vnodes]
        self.last = None  # (shifts bytes, try_solve result) of the last solve
        self.carried = None  # the same for the maximizer seeding this radius
        self.warm = None  # control vector of the last solve, if it kept the structure

    # -- candidate trees --------------------------------------------------

    def displace(self, shifts: np.ndarray) -> tuple[ScenarioTree, bool]:
        """Tree with node values moved by ``shifts``; False when collisions
        forced a bicausal repair (structure then differs from the base)."""
        shifted = self.tree.values.copy()
        shifted[self.vnodes] += shifts
        delta = max(float(np.max(np.abs(shifts))), 1e-12) * 1e-6
        out, coupling = displace(self.tree, shifted, delta)
        return out, coupling is None

    def distance(self, shifts: np.ndarray, tree: ScenarioTree | None = None) -> float:
        """Exact adapted distance from the base tree of ``displace(shifts)``
        (``tree``, when known)."""
        pth = aw_pth_power(self.tree, tree or self.displace(shifts)[0], self.params)
        return pth ** (1.0 / self.params.p)

    def shrink_to_ball(self, shifts: np.ndarray, r: float):
        """Scale the displacement until the exact distance fits the radius.

        Two tests accept a shift, both at ``r * (1 + 1e-12)``.  When the
        base structure survives, the identity coupling is bicausal and its
        cost bounds the distance from above, so a bound within the slack
        accepts the shift without a solve; otherwise the exact distance is
        solved and tested.  In exact arithmetic the bound accepts only
        shifts the solved distance would pass.  In floating point the two
        differ by rounding: the recursion takes |x - y| of absolute values,
        so cancellation can lift the computed distance above the bound.
        Over 300 normal shifts of scale 1e-4 on ``gen_random(3, 3, 0)`` it
        did so by up to 2.6e-13 relative, 1.6e-12 with the tree translated
        by 4, 2.0e-10 by 1e3 and 2.1e-7 by 1e6.  Near the boundary the
        slack then decides on rounding either way.
        """
        p = self.params.p
        slack = r * (1.0 + 1e-12)
        for _ in range(40):
            try:
                tree, same = self.displace(shifts)
            except (InvalidTree, DeltaTooSmall):
                shifts = 0.5 * shifts
                continue
            if same and float(self.vprob @ np.abs(shifts) ** p) ** (1.0 / p) <= slack:
                return shifts, tree, same
            dist = self.distance(shifts, tree)
            if dist <= slack:
                return shifts, tree, same
            shifts = shifts * min(0.999, r / dist)
        return None

    # -- class values ------------------------------------------------------

    def gradient(self, tree: ScenarioTree, optimizer) -> np.ndarray:
        """Gradient of the class value in the node displacements, with the
        optimizer fixed (envelope argument), so it needs no further solve."""
        leaf_grads = leaf_gradients(tree, self.query.model, optimizer)
        return scatter_sum(self.vidx, tree.paths.probs[:, None] * leaf_grads, len(self.vnodes))

    def try_solve(self, shifts: np.ndarray, tree: ScenarioTree, same: bool):
        """``class_solve`` of the candidate ``(tree, same) = displace(shifts)``,
        or None when its inner problem fails.  The last solve is kept, since
        refitting the seeded shifts as the first start rebuilds the same
        tree, and so is the solve of the previous radius's maximizer, which
        seeds this one.

        A control solve starts from the policy of the last successful solve
        when both trees keep the base structure, so its node ids and
        variable order are the base tree's; it ends at the same KKT test as
        a cold start."""
        key = shifts.tobytes()
        for known in (self.last, self.carried):
            if known is not None and known[0] == key:
                return known[1]
        q = self.query
        try:
            sol = class_solve(tree, q.model, q.bounds, q.solver_tol, check_convexity=False,
                              z0=self.warm if same else None)
        except (AmbiguousStopping, NotConvex, MaxIterations):
            sol = None
        if sol is not None and q.problem_class == "controlled":
            self.warm = sol[1].vector(tree) if same else None
        self.last = (key, sol)
        return sol

    # -- per-radius ascent ---------------------------------------------------

    def run_radius(self, r: float, zvec: np.ndarray, extra_seeds: list[np.ndarray], rng):
        q = self.query
        best_val = -math.inf
        best = best_sol = None  # shifts and solve of the best candidate
        seeded_value = None

        ladder = [1.0, 1.0 - 1e-3, 1.0 - 1e-2, 1.0 - 1e-1]
        for fac in ladder:
            fit = self.shrink_to_ball(fac * r * zvec, r)
            if fit is None:
                continue
            shifts, tree, same = fit
            sol = self.try_solve(shifts, tree, same)
            if sol is not None:
                seeded_value = sol[0]
                best_val, best, best_sol = sol[0], shifts, sol
                break

        starts: list[np.ndarray] = []
        if best is not None:
            starts.append(best)
        starts.extend(extra_seeds)
        while len(starts) < max(1, q.restarts):
            starts.append(rng.normal(scale=r / math.sqrt(len(self.vnodes)),
                                     size=len(self.vnodes)))

        for start in starts[: max(1, q.restarts) + len(extra_seeds)]:
            fit = self.shrink_to_ball(start.copy(), r)
            if fit is None:
                continue
            shifts, tree, same = fit
            sol = self.try_solve(shifts, tree, same)
            if sol is None:
                continue
            if sol[0] > best_val:
                best_val, best, best_sol = sol[0], shifts, sol
            eta = 0.5
            cur_shifts, cur_tree, cur_same, (cur_val, cur_policy) = shifts, tree, same, sol
            grad = None  # of the current candidate, kept until it changes
            for _ in range(q.max_iters):
                if not cur_same:
                    break
                if grad is None:
                    grad = self.gradient(cur_tree, cur_policy)
                gmax = float(np.max(np.abs(grad)))
                if gmax == 0.0:
                    break
                trial = cur_shifts + eta * r * grad / gmax
                fit = self.shrink_to_ball(trial, r)
                if fit is None:
                    eta *= 0.5
                    if eta < 1e-3:
                        break
                    continue
                t_shifts, t_tree, t_same = fit
                t_sol = self.try_solve(t_shifts, t_tree, t_same)
                if t_sol is not None and t_sol[0] > cur_val + 1e-15:
                    cur_shifts, cur_tree, cur_same, (cur_val, cur_policy) = (
                        t_shifts, t_tree, t_same, t_sol)
                    grad = None
                    if cur_val > best_val:
                        best_val, best, best_sol = cur_val, cur_shifts, t_sol
                    eta = min(eta * 1.5, 1.0)
                else:
                    eta *= 0.5
                    if eta < 1e-3:
                        break
        return best_val, best, best_sol, seeded_value


def robust_curve(query: RobustQuery) -> RobustCurve:
    """Ascent lower bounds on the worst-case value for each radius.

    Radii are processed in ascending order and each maximizer is carried to
    the next radius, so the reported lower bounds are nondecreasing in r.
    A model that overflows on the tree, so that the base value or the
    first-order term is not finite, raises ``NonFinite`` before the ascent.
    """
    engine = _Ascent(query)
    report, base, _ = first_order(query.tree, query.model, query.p, query.bounds,
                                  query.solver_tol)
    for name, v in (("base_value", base), ("first_order", report.first_order)):
        if not math.isfinite(v):
            raise NonFinite(f"robust_curve: {name} is {v!r}; the model overflows on this tree")
    zvec = worst_case_direction(query.tree, report).values[engine.vnodes]

    rows: list[CurveRow] = []
    carry: list[np.ndarray] = []
    prev_lb = -math.inf
    prev_best = prev_sol = None
    for k, r in enumerate(query.radii):
        rng = np.random.default_rng(query.seed + 7919 * k)
        best_val, best, best_sol, seeded = engine.run_radius(r, zvec, carry, rng)
        converged = best is not None
        lb = best_val - base if converged else -math.inf
        seeded_lb = (seeded - base) if seeded is not None else math.nan
        if lb < prev_lb and prev_best is not None:
            lb = prev_lb
            best, best_sol = prev_best, prev_sol
        if best is None:
            rows.append(CurveRow(r, math.nan, seeded_lb, r * report.first_order,
                                 math.nan, {}, False))
            continue
        shifts = best
        rows.append(
            CurveRow(
                radius=r,
                lower_bound=lb,
                seeded_value=seeded_lb,
                first_order_value=r * report.first_order,
                distance=engine.distance(shifts),
                displacement=dict(zip(engine.vnodes.tolist(), shifts.tolist())),
                converged=converged,
            )
        )
        prev_lb, prev_best, prev_sol = lb, best, best_sol
        carry = [shifts.copy()]
        engine.carried = (shifts.tobytes(), best_sol)
    slope, stderr = _extrapolate_slope(rows)
    return RobustCurve(
        problem_class=query.problem_class,
        base_value=base,
        first_order=report.first_order,
        rows=tuple(rows),
        slope_estimate=slope,
        slope_stderr=stderr,
    )


def _extrapolate_slope(rows: list[CurveRow]) -> tuple[float, float]:
    """Weighted least squares of lower_bound / r against r, extrapolated to 0.

    Weights 1/r emphasize the small radii; the intercept is the slope
    estimate and its standard error is reported for auditability.
    """
    pts = [(row.radius, row.lower_bound / row.radius) for row in rows if row.converged]
    if not pts:
        return math.nan, math.nan
    if len(pts) == 1:
        return pts[0][1], math.nan
    rvals = np.array([a for a, _ in pts])
    yvals = np.array([b for _, b in pts])
    X = np.stack([np.ones_like(rvals), rvals], axis=1)
    W = np.diag(1.0 / rvals)
    XtW = X.T @ W
    beta, *_ = np.linalg.lstsq(XtW @ X, XtW @ yvals, rcond=None)
    if len(pts) == 2:
        return float(beta[0]), math.nan
    resid = yvals - X @ beta
    dof = len(pts) - 2
    sigma2 = float(resid @ W @ resid) / dof
    cov = sigma2 * np.linalg.inv(XtW @ X)
    return float(beta[0]), float(math.sqrt(max(cov[0, 0], 0.0)))
