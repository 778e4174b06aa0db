import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from awsens import (
    Infeasible,
    InvalidParams,
    TransportProblem,
    solve_exact,
    solve_sorted_1d,
)
from awsens.discrete_ot import solve_sorted_1d_batch


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
