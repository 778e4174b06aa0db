import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from awsens import (
    Infeasible,
    InvalidParams,
    MaxIterations,
    TransportProblem,
    solve_exact,
    solve_sorted_1d,
)
from awsens import discrete_ot
from awsens.adapted_wasserstein import _per_pair, _starts
from awsens.discrete_ot import solve_sorted_1d_batch, transport_simplex, transport_simplex_batch


def random_problem(rng, m, n):
    mu = rng.dirichlet(np.ones(m))
    nu = rng.dirichlet(np.ones(n))
    cost = rng.normal(size=(m, n)) ** 2
    return TransportProblem(mu, nu, cost)


def lp_reference(prob: TransportProblem) -> float:
    m, n = prob.cost.shape
    A = []
    b = []
    for i in range(m):
        row = np.zeros(m * n)
        row[i * n : (i + 1) * n] = 1.0
        A.append(row)
        b.append(prob.mu[i])
    for j in range(n):
        row = np.zeros(m * n)
        row[j::n] = 1.0
        A.append(row)
        b.append(prob.nu[j])
    res = linprog(prob.cost.reshape(-1), A_eq=np.array(A), b_eq=np.array(b),
                  bounds=(0, None), method="highs")
    assert res.status == 0
    return float(res.fun)


def test_single_atom():
    plan = solve_exact(TransportProblem([1.0], [1.0], [[3.5]]))
    assert plan.plan.tolist() == [[1.0]]
    assert plan.objective == 3.5


def test_equal_measures_zero_cost_on_diagonal():
    points = np.array([0.0, 1.0])
    cost = np.abs(points[:, None] - points[None, :]) ** 2
    plan = solve_exact(TransportProblem([0.5, 0.5], [0.5, 0.5], cost))
    assert plan.objective == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(plan.plan, np.diag([0.5, 0.5]))


def test_forced_plan_hand_value():
    # mass at -1 must travel to 1: 0.5 * 4 + 0.5 * 0 = 2
    cost = np.abs(np.array([-1.0, 1.0])[:, None] - np.array([[1.0]])) ** 2
    plan = solve_exact(TransportProblem([0.5, 0.5], [1.0], cost))
    assert plan.objective == pytest.approx(2.0, abs=1e-12)


def test_mismatched_weights_rejected():
    with pytest.raises(Infeasible):
        TransportProblem([0.5, 0.4], [1.0], [[1.0], [1.0]])
    with pytest.raises(InvalidParams):
        TransportProblem([0.5, 0.5], [1.0], [[np.inf], [1.0]])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_weights_rejected(bad):
    with pytest.raises(Infeasible):
        TransportProblem([bad, 0.5], [1.0], [[1.0], [1.0]])
    with pytest.raises(Infeasible):
        TransportProblem([1.0], [0.5, bad], [[1.0, 2.0]])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_batch_non_finite_weights_rejected(bad):
    x = np.array([[0.0, 1.0], [0.0, 1.0]])
    mu = np.array([[0.5, 0.5], [bad, 0.5]])
    good = np.array([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(Infeasible):
        solve_sorted_1d_batch(x, mu, x, good, 2.0)
    with pytest.raises(Infeasible):
        solve_sorted_1d_batch(x, good, x, mu, 2.0)


def test_sorted_1d_identity():
    plan = solve_sorted_1d([0.0, 1.0], [0.5, 0.5], [0.0, 1.0], [0.5, 0.5], 2.0)
    assert plan.objective == pytest.approx(0.0, abs=1e-15)


def test_sorted_1d_matches_forced_example():
    plan = solve_sorted_1d([-1.0, 1.0], [0.5, 0.5], [1.0], [1.0], 2.0)
    assert plan.objective == pytest.approx(2.0, abs=1e-12)


def test_sorted_1d_requires_sorted_points():
    with pytest.raises(InvalidParams):
        solve_sorted_1d([1.0, -1.0], [0.5, 0.5], [0.0], [1.0], 2.0)
    with pytest.raises(InvalidParams):
        solve_sorted_1d([0.0], [1.0], [0.0], [1.0], 1.0)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_sorted_1d_agrees_with_simplex(p):
    rng = np.random.default_rng(int(p * 100))
    for _ in range(100):
        m, n = rng.integers(1, 7), rng.integers(1, 7)
        x = np.sort(rng.normal(size=m))
        y = np.sort(rng.normal(size=n))
        mu = rng.dirichlet(np.ones(m))
        nu = rng.dirichlet(np.ones(n))
        fast = solve_sorted_1d(x, mu, y, nu, p)
        cost = np.abs(x[:, None] - y[None, :]) ** p
        exact = solve_exact(TransportProblem(mu, nu, cost))
        assert fast.objective == pytest.approx(exact.objective, abs=1e-9)


@given(seed=st.integers(0, 100_000))
@settings(max_examples=60, deadline=None)
def test_simplex_against_scipy(seed):
    rng = np.random.default_rng(seed)
    prob = random_problem(rng, int(rng.integers(1, 10)), int(rng.integers(1, 10)))
    plan = solve_exact(prob)
    assert plan.objective == pytest.approx(lp_reference(prob), abs=1e-9)


@given(seed=st.integers(0, 100_000))
@settings(max_examples=60, deadline=None)
def test_plan_is_feasible_vertex_with_certificate(seed):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(2, 9)), int(rng.integers(2, 9))
    prob = random_problem(rng, m, n)
    plan = solve_exact(prob)
    assert np.all(plan.plan >= 0.0)
    assert np.allclose(plan.plan.sum(axis=1), prob.mu, atol=1e-9)
    assert np.allclose(plan.plan.sum(axis=0), prob.nu, atol=1e-9)
    assert int(np.count_nonzero(plan.plan)) <= m + n - 1
    assert plan.objective == pytest.approx(float(np.vdot(plan.plan, prob.cost)), abs=1e-9)
    # complementary slackness: reduced costs nonnegative, zero on the support
    red = prob.cost - plan.row_potentials[:, None] - plan.col_potentials[None, :]
    assert float(red.min()) >= -1e-8
    assert float(np.max(np.abs(red[plan.plan > 1e-12]))) <= 1e-8


def test_objective_invariant_under_permutation():
    rng = np.random.default_rng(5)
    prob = random_problem(rng, 5, 4)
    base = solve_exact(prob).objective
    pr = rng.permutation(5)
    pc = rng.permutation(4)
    shuffled = TransportProblem(prob.mu[pr], prob.nu[pc], prob.cost[np.ix_(pr, pc)])
    assert solve_exact(shuffled).objective == pytest.approx(base, abs=1e-10)


def test_degenerate_weights_terminate():
    # many zero-mass rows force degenerate pivots
    mu = np.array([1.0, 0.0, 0.0, 0.0])
    nu = np.array([0.25, 0.25, 0.25, 0.25])
    cost = np.arange(16.0).reshape(4, 4)
    plan = solve_exact(TransportProblem(mu, nu, cost))
    assert plan.objective == pytest.approx(0.25 * (0 + 1 + 2 + 3), abs=1e-12)


# -- reference: the simplex that rebuilds its basis tree at every pivot --------


def _ref_northwest_corner(mu, nu):
    m, n = mu.size, nu.size
    plan = np.zeros((m, n))
    basis = []
    a = mu.copy()
    b = nu.copy()
    i = j = 0
    while True:
        w = min(a[i], b[j])
        plan[i, j] = w
        basis.append((i, j))
        a[i] -= w
        b[j] -= w
        if i == m - 1 and j == n - 1:
            break
        if (a[i] <= b[j] and i < m - 1) or j == n - 1:
            i += 1
        else:
            j += 1
    return plan, basis


def _ref_potentials(cost, basis):
    m, n = cost.shape
    u = np.zeros(m)
    v = np.zeros(n)
    row_adj = [[] for _ in range(m)]
    col_adj = [[] for _ in range(n)]
    for i, j in basis:
        row_adj[i].append(j)
        col_adj[j].append(i)
    seen_rows, seen_cols = [False] * m, [False] * n
    seen_rows[0] = True
    stack = [("r", 0)]
    while stack:
        kind, k = stack.pop()
        if kind == "r":
            for j in row_adj[k]:
                if not seen_cols[j]:
                    seen_cols[j] = True
                    v[j] = cost[k, j] - u[k]
                    stack.append(("c", j))
        else:
            for i in col_adj[k]:
                if not seen_rows[i]:
                    seen_rows[i] = True
                    u[i] = cost[i, k] - v[k]
                    stack.append(("r", i))
    return u, v


def _ref_cycle(basis, enter, m, n):
    """Cells of the cycle that ``enter`` closes, from row i0 to column j0."""
    i0, j0 = enter
    row_adj = [[] for _ in range(m)]
    col_adj = [[] for _ in range(n)]
    for i, j in basis:
        row_adj[i].append(j)
        col_adj[j].append(i)
    start, goal = ("r", i0), ("c", j0)
    parent = {start: start}
    stack = [start]
    while stack:
        node = stack.pop()
        if node == goal:
            break
        kind, k = node
        nbrs = [("c", j) for j in row_adj[k]] if kind == "r" else [("r", i) for i in col_adj[k]]
        for nxt in nbrs:
            if nxt not in parent:
                parent[nxt] = node
                stack.append(nxt)
    path = [goal]
    while path[-1] != start:
        path.append(parent[path[-1]])
    path.reverse()
    cells = [enter]
    for (ka, xa), (_, xb) in zip(path, path[1:]):
        cells.append((xa, xb) if ka == "r" else (xb, xa))
    return cells


def reference_solve_exact(prob, stats=None):
    """The simplex with potentials and cycle rebuilt from scratch per pivot:
    the same start, pricing, leaving rule and Bland switch as ``solve_exact``
    (reading ``discrete_ot._BLAND_TRIGGER`` at call time).  ``stats`` counts
    the pivots taken under Bland's rule."""
    mu = prob.mu
    nu = prob.nu * (prob.mu.sum() / prob.nu.sum())
    cost = prob.cost
    m, n = cost.shape
    plan, basis_list = _ref_northwest_corner(mu, nu)
    basis = set(basis_list)
    tol = 1e-11 * (1.0 + float(np.max(np.abs(cost))))
    degenerate_run = 0
    bland = False
    for _ in range(2000 + 40 * m * n):
        u, v = _ref_potentials(cost, basis)
        red = cost - u[:, None] - v[None, :]
        for i, j in basis:
            red[i, j] = 0.0
        if bland:
            cand = np.argwhere(red < -tol)
            if cand.size == 0:
                break
            enter = (int(cand[0, 0]), int(cand[0, 1]))
            if stats is not None:
                stats["bland"] = stats.get("bland", 0) + 1
        else:
            flat = int(np.argmin(red))
            enter = (flat // n, flat % n)
            if red[enter] >= -tol:
                break
        cycle = _ref_cycle(basis, enter, m, n)
        minus = cycle[1::2]
        theta = min(plan[c] for c in minus)
        leave = min(c for c in minus if plan[c] == theta)
        for k, c in enumerate(cycle):
            if k % 2 == 0:
                plan[c] += theta
            else:
                plan[c] -= theta
        plan[leave] = 0.0
        basis.remove(leave)
        basis.add(enter)
        if theta == 0.0:
            degenerate_run += 1
            if degenerate_run >= discrete_ot._BLAND_TRIGGER:
                bland = True
        else:
            degenerate_run = 0
            bland = False
    else:
        raise AssertionError("reference simplex did not terminate")
    np.clip(plan, 0.0, None, out=plan)
    u, v = _ref_potentials(cost, basis)
    return plan, float(np.vdot(plan, cost)), u, v, tuple(sorted(basis))


def assert_same_as_reference(prob, stats=None):
    got = solve_exact(prob)
    plan, objective, u, v, basis = reference_solve_exact(prob, stats)
    assert got.plan.tobytes() == plan.tobytes()
    assert got.objective.hex() == objective.hex()
    assert got.row_potentials.tobytes() == u.tobytes()
    assert got.col_potentials.tobytes() == v.tobytes()
    assert got.basis == basis
    return got


def structured_problem(rng, m, n, tied, masses):
    """Random or small-integer (tied) costs; Dirichlet weights, Dirichlet
    weights with zero-mass rows and columns, or small-integer weights, whose
    equal partial sums make degenerate pivots."""
    if tied:
        cost = rng.integers(0, 3, size=(m, n)).astype(float)
    else:
        cost = rng.normal(size=(m, n)) ** 2

    def weights(k):
        if masses == "integer":
            w = rng.integers(0, 3, size=k).astype(float)
        else:
            w = rng.dirichlet(np.ones(k))
            if masses == "zero":  # of either sign: -0.0 passes the checks too
                w[rng.random(k) < 0.4] = rng.choice([0.0, -0.0])
        w[rng.integers(k)] += 1.0
        return w / w.sum()

    return TransportProblem(weights(m), weights(n), cost)


@given(m=st.integers(1, 12), n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       tied=st.booleans(), masses=st.sampled_from(["dirichlet", "zero", "integer"]))
@settings(max_examples=200, deadline=None)
def test_simplex_equals_rebuilding_reference(m, n, seed, tied, masses):
    assert_same_as_reference(structured_problem(np.random.default_rng(seed), m, n, tied, masses))


def test_simplex_equals_rebuilding_reference_40x40():
    rng = np.random.default_rng(40)
    for tied, masses in ((False, "dirichlet"), (True, "integer")):
        assert_same_as_reference(structured_problem(rng, 40, 40, tied, masses))


def test_bland_fallback_equals_reference_and_linprog(monkeypatch):
    # one degenerate pivot switches rules, so tied costs run Bland's branch
    monkeypatch.setattr(discrete_ot, "_BLAND_TRIGGER", 1)
    rng = np.random.default_rng(64)
    stats = {}
    for _ in range(30):
        m, n = int(rng.integers(3, 9)), int(rng.integers(3, 9))
        prob = structured_problem(rng, m, n, True, "integer")
        got = assert_same_as_reference(prob, stats)
        assert got.objective == pytest.approx(lp_reference(prob), abs=1e-9)
    prob = TransportProblem([1.0, 0.0, 0.0, 0.0], [0.25] * 4, np.arange(16.0).reshape(4, 4))
    got = assert_same_as_reference(prob, stats)
    assert got.objective == pytest.approx(lp_reference(prob), abs=1e-12)
    assert stats["bland"] > 0


def test_bland_fallback_above_the_pricing_threshold(monkeypatch):
    # the test above prices in Python floats; 20 x 20 cells are priced by numpy
    monkeypatch.setattr(discrete_ot, "_BLAND_TRIGGER", 1)
    prob = structured_problem(np.random.default_rng(65), 20, 20, True, "integer")
    assert prob.cost.size > discrete_ot._PRICE_SCALAR_MAX
    stats = {}
    got = assert_same_as_reference(prob, stats)
    assert got.objective == pytest.approx(lp_reference(prob), abs=1e-9)
    assert stats["bland"] > 0


def test_pivot_budget_exhausted_raises_max_iterations(monkeypatch):
    # uniform marginals on an anti-diagonal cost: the north-west start is
    # the diagonal, one pivot away from optimal
    prob = TransportProblem([0.5, 0.5], [0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]])
    assert solve_exact(prob).objective == 0.0
    monkeypatch.setattr(discrete_ot, "_PIVOT_BUDGET", (1, 0))
    with pytest.raises(MaxIterations, match="within 1 pivots"):
        solve_exact(prob)
    # a start that is already optimal needs no pivot and fits the budget
    optimal = TransportProblem([0.5, 0.5], [0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]])
    assert solve_exact(optimal).objective == 0.0


# -- the lockstep simplex against the per-problem simplex ------------------------


def _at_tolerance(ulps):
    """The cost c with c == 1e-11 * (1 + c), moved by ``ulps`` ulps: as the
    only nonzero entry, its reduced cost sits at, below or above -tol."""
    c = 1e-11
    for _ in range(8):
        c = 1e-11 * (1.0 + c)
    assert c == 1e-11 * (1.0 + c)
    for _ in range(abs(ulps)):
        c = np.nextafter(c, np.inf if ulps > 0 else 0.0)
    return c


_MASSES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.25, 0.5, 0.75, 1.0, 0.1, 0.3, 1.0 / 3.0]),
    st.floats(0.0, 1.0),
)


@st.composite
def two_by_two(draw):
    """One 2 x 2 problem as the recursion poses it: family weights summing
    to 1 up to rounding, the second rescaled by the ratio of the sums."""
    x0 = draw(_MASSES)
    y0 = x0 if draw(st.booleans()) else draw(_MASSES)
    xw = np.array([x0, 1.0 - x0 + draw(st.sampled_from([0.0, 1e-12, -1e-12]))])
    yw = np.array([y0, 1.0 - y0 + draw(st.sampled_from([0.0, 1e-12, -1e-12]))])
    kind = draw(st.sampled_from(["scaled", "near tolerance", "integer", "tolerance"]))
    if kind in ("scaled", "near tolerance"):
        cost = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4)))
        cost *= 10.0 ** draw(st.integers(-3, 3))
        if kind == "near tolerance":
            # c01 + c10 - c00 - c11 within a few ulps of -tol, so the two
            # start directions' rounding decides the pivot
            tol = 1e-11 * (1.0 + cost.max())
            cost[1] = cost[0] + cost[3] - cost[2] - tol
            for _ in range(draw(st.integers(0, 4))):
                cost[1] = np.nextafter(cost[1], draw(st.sampled_from([-np.inf, np.inf])))
    elif kind == "integer":  # ties in the costs and in theta
        cost = np.array(draw(st.lists(st.integers(0, 3), min_size=4, max_size=4)), dtype=float)
    else:  # the reduced cost at -tol and one ulp on either side
        cost = np.zeros(4)
        cost[draw(st.sampled_from([1, 2]))] = -_at_tolerance(draw(st.sampled_from([-1, 0, 1])))
    return xw, yw * (xw.sum() / yw.sum()), cost.reshape(2, 2)


def simplex(mu, nu, cost):
    """``transport_simplex`` from the north-west corner of the lists ``mu``
    and ``nu``, its flow made the clipped plan with the ``np.vdot``
    objective, as ``solve_exact`` makes it: ``(plan, objective, basis,
    pivots, switches)``."""
    flow, _, pivots, switches = transport_simplex(*discrete_ot._northwest_corner(mu, nu), cost)
    plan = np.zeros(cost.shape)
    for c, w in flow.items():
        plan[c] = w
    np.maximum(plan, 0.0, out=plan)
    return plan, float(np.vdot(plan, cost)), list(flow), pivots, switches


def assert_batch_equals_simplex(mu, nu, cost):
    """``transport_simplex_batch`` against ``transport_simplex`` problem by
    problem: plan bytes, objective bits, pivots and Bland switches.
    Returns the batch's pivots and switches."""
    plan, obj, pivots, switches = transport_simplex_batch(mu, nu, cost)
    for k in range(len(cost)):
        want, want_obj, _, want_pivots, want_switches = simplex(
            mu[k].tolist(), nu[k].tolist(), cost[k])
        assert plan[k].tobytes() == want.tobytes()
        assert obj[k].hex() == want_obj.hex()
        assert (pivots[k], switches[k]) == (want_pivots, want_switches)
    return pivots, switches


def structured_batch(rng, size, m, n, tied, masses):
    """``size`` problems of :func:`structured_problem`, the second marginal
    rescaled as ``solve_exact`` rescales it."""
    probs = [structured_problem(rng, m, n, tied, masses) for _ in range(size)]
    return (np.array([p.mu for p in probs]),
            np.array([p.nu * (p.mu.sum() / p.nu.sum()) for p in probs]),
            np.array([p.cost for p in probs]))


@given(m=st.integers(1, 8), n=st.integers(1, 8), size=st.integers(1, 10),
       seed=st.integers(0, 2**32 - 1), tied=st.booleans(),
       masses=st.sampled_from(["dirichlet", "zero", "integer"]))
@settings(max_examples=200, deadline=None)
def test_batch_simplex_equals_simplex(m, n, size, seed, tied, masses):
    assert_batch_equals_simplex(*structured_batch(np.random.default_rng(seed), size, m, n, tied,
                                                  masses))


def test_batch_simplex_switches_to_bland_per_problem(monkeypatch):
    # one degenerate pivot switches rules: integer masses on tied costs
    # switch, Dirichlet masses on continuous costs do not, in one batch
    monkeypatch.setattr(discrete_ot, "_BLAND_TRIGGER", 1)
    rng = np.random.default_rng(64)
    parts = zip(structured_batch(rng, 6, 6, 6, True, "integer"),
                structured_batch(rng, 6, 6, 6, False, "dirichlet"))
    order = rng.permutation(12)
    mu, nu, cost = (np.concatenate(part)[order] for part in parts)
    _, switches = assert_batch_equals_simplex(mu, nu, cost)
    assert (switches > 0).any() and (switches == 0).any()


def test_batch_simplex_pivot_budget_is_per_problem(monkeypatch):
    mu, nu, cost = structured_batch(np.random.default_rng(13), 6, 5, 5, False, "dirichlet")
    pivots, _ = assert_batch_equals_simplex(mu, nu, cost)
    worst = int(pivots.argmax())
    others = np.arange(6) != worst
    budget = int(pivots[others].max()) + 1
    assert budget <= pivots[worst]  # only the slowest problem runs out
    monkeypatch.setattr(discrete_ot, "_PIVOT_BUDGET", (budget, 0))
    with pytest.raises(MaxIterations) as scalar:
        simplex(mu[worst].tolist(), nu[worst].tolist(), cost[worst])
    with pytest.raises(MaxIterations) as batch:
        transport_simplex_batch(mu, nu, cost)
    assert str(batch.value) == str(scalar.value) == (
        f"transportation simplex did not terminate within {budget} pivots")
    assert_batch_equals_simplex(mu[others], nu[others], cost[others])


@given(probs=st.lists(two_by_two(), min_size=1, max_size=6))
@settings(max_examples=300, deadline=None)
def test_batch_simplex_2x2_equals_simplex(probs):
    mu, nu, cost = (np.array(col) for col in zip(*probs))
    pivots, _ = assert_batch_equals_simplex(mu, nu, cost)
    for k, (xw, yw, c) in enumerate(probs):
        basis = simplex(xw.tolist(), yw.tolist(), c)[2]
        # the start's basis holds one off-diagonal cell; a pivot adds the
        # other, and no problem pivots twice
        assert pivots[k] == ((0, 1) in basis and (1, 0) in basis)


def test_batch_simplex_2x2_tolerance_boundary():
    # the same cases as above, checked by hand: only the cost one ulp
    # beyond -tol pivots, in either start direction
    for cell, mu in (((0, 1), [0.5, 0.5]), ((1, 0), [0.75, 0.25])):
        for ulps, pivots in ((-1, 0), (0, 0), (1, 1)):
            cost = np.zeros((2, 2))
            cost[cell] = -_at_tolerance(ulps)
            nu = [0.25, 0.75] if cell == (1, 0) else [0.5, 0.5]
            got, _ = assert_batch_equals_simplex(np.array([mu]), np.array([nu]), cost[None])
            assert got[0] == pivots


# -- the adapted-distance recursion's per-pair kernel against solve_exact -------


def assert_per_pair_equals_solve_exact(rng, m, n, cx, cy, tied, masses):
    """Every pair of ``cx`` x families and ``cy`` y families, solved by
    ``adapted_wasserstein._per_pair`` from the north-west starts of
    ``_starts``, against one ``solve_exact`` per problem: plan bytes and
    objective bits.  Returns the switches to Bland's rule taken."""
    xw = np.array([structured_problem(rng, m, 1, tied, masses).mu for _ in range(cx)])
    yw = np.array([structured_problem(rng, 1, n, tied, masses).nu for _ in range(cy)])
    cost = np.array([structured_problem(rng, m, n, tied, masses).cost for _ in range(cx * cy)])
    starts = _starts(xw, xw.sum(axis=-1), yw, yw.sum(axis=-1))
    plans, obj = _per_pair(starts, cost)
    for k in range(cx * cy):
        want = solve_exact(TransportProblem(xw[k // cy], yw[k % cy], cost[k]))
        assert plans[k].tobytes() == want.plan.tobytes()
        assert obj[k].hex() == want.objective.hex()
    return sum(transport_simplex(*start, c)[3] for start, c in zip(starts, cost))


@given(m=st.integers(1, 5), n=st.integers(1, 5), cx=st.integers(1, 3), cy=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1), tied=st.booleans(),
       masses=st.sampled_from(["dirichlet", "zero", "integer"]), bland=st.booleans())
@settings(max_examples=200, deadline=None)
def test_per_pair_equals_solve_exact(m, n, cx, cy, seed, tied, masses, bland):
    # zero masses make degenerate starts and pivots, tied costs make ties
    # in pricing and in the leaving cell, and with _BLAND_TRIGGER 1 one
    # degenerate pivot switches to Bland's rule
    trigger = 1 if bland else discrete_ot._BLAND_TRIGGER
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(discrete_ot, "_BLAND_TRIGGER", trigger)
        assert_per_pair_equals_solve_exact(np.random.default_rng(seed), m, n, cx, cy, tied,
                                           masses)


def test_per_pair_equals_solve_exact_under_blands_rule(monkeypatch):
    monkeypatch.setattr(discrete_ot, "_BLAND_TRIGGER", 1)
    rng = np.random.default_rng(17)
    switches = sum(assert_per_pair_equals_solve_exact(rng, 4, 4, 2, 3, True, "integer")
                   for _ in range(10))
    assert switches > 0
