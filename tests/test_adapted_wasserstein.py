import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from awsens import (
    AWParams,
    DeltaTooSmall,
    HorizonMismatch,
    InvalidCoupling,
    InvalidParams,
    InvalidTree,
    NotCausal,
    Node,
    ScenarioTree,
    TooLarge,
    TransportProblem,
    aw_distance,
    aw_pth_power,
    bicausalize,
    brute_force_bicausal,
    check_causal,
    flat_wasserstein,
    gen_binomial,
    gen_lattice,
    gen_random,
    is_bicausal,
    is_isomorphic,
    product_coupling,
    solve_exact,
    tree_from_nested,
)
from awsens import adapted_wasserstein, discrete_ot
from awsens.discrete_ot import _objectives
from pair_records import PairNode, child_ids, coupling_of, records

P2 = AWParams(2.0)


def _sorted_1d(x, mu, y, nu, p):
    """One last-stage pair as the recursion solves it, alone: the north-west
    plan of points already sorted (:func:`_monotone_plans` on one pair) and
    its cost summed by ``np.vdot``; returns ``(plan, objective)``."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    orders = np.arange(len(x))[None], np.arange(len(y))[None]
    plan = adapted_wasserstein._monotone_plans(None, None, np.asarray(mu)[None], orders[0],
                                               np.asarray(nu)[None], orders[1])[0]
    return plan, float(np.vdot(plan, np.abs(x[:, None] - y[None, :]) ** p))


def _start_orders(xv, xw, yv, yw):
    """The orders of an interior pair's children that the recursion's
    north-west start reads: sorted by value (stable), or tree order when
    the two marginals are equal."""
    if np.array_equal(xw, yw):
        return np.arange(len(xv)), np.arange(len(yv))
    return np.argsort(xv, kind="stable"), np.argsort(yv, kind="stable")


def _interior_solve(xv, xw, yv, yw, cost):
    """One interior pair as the recursion solves it, alone: ``solve_exact``
    from the north-west plan of the children in :func:`_start_orders`, the
    plan put back in tree order and its cost summed by ``np.vdot``; returns
    ``(plan, objective)``."""
    ox, oy = _start_orders(xv, xw, yv, yw)
    sorted_plan = solve_exact(TransportProblem(xw[ox], yw[oy], cost[np.ix_(ox, oy)])).plan
    plan = np.empty_like(sorted_plan)
    plan[np.ix_(ox, oy)] = sorted_plan
    return plan, float(np.vdot(plan, cost))


def make_causal_only_coupling():
    """Adapted Monge map merging both first-stage atoms into one y value.

    P is the symmetric walk; Y1 = 0 and Y2 = X2.  Knowing Y2 reveals X1, so
    the reversed direction fails.
    """
    P = gen_binomial(2, 0.0, 1.0, -1.0, 0.5, 0.0)
    Q = tree_from_nested(2, [(0.0, 1.0, [(2.0, 0.25), (0.0, 0.5), (-2.0, 0.25)])])
    pairs = [
        PairNode(0, 0, 0, 0, 1.0, None),
        PairNode(1, 1, 1, 1, 0.5, 0),
        PairNode(2, 1, 2, 1, 0.5, 0),
        PairNode(3, 2, 3, 2, 0.5, 1),
        PairNode(4, 2, 4, 3, 0.5, 1),
        PairNode(5, 2, 5, 3, 0.5, 2),
        PairNode(6, 2, 6, 4, 0.5, 2),
    ]
    return coupling_of(P, Q, pairs), P, Q


def test_params_validation():
    assert AWParams(2.0).q == 2.0
    assert abs(1 / AWParams(1.5).p + 1 / AWParams(1.5).q - 1.0) <= 1e-14
    with pytest.raises(InvalidParams):
        AWParams(1.0)
    with pytest.raises(InvalidParams):
        AWParams(math.inf)


def test_identical_trees_distance_zero(iid_signs):
    res = aw_distance(iid_signs, iid_signs, P2)
    assert res.distance == 0.0
    for pn in records(res.coupling):
        if pn.parent is not None:
            assert res.coupling.first.nodes[pn.x_node].value == res.coupling.second.nodes[pn.y_node].value


def test_one_period_equals_flat():
    rng = np.random.default_rng(3)
    for seed in range(20):
        A = gen_random(1, 3, seed)
        B = gen_random(1, 3, seed + 500)
        nested = aw_distance(A, B, P2).distance
        flat, _ = flat_wasserstein(A, B, P2)
        assert nested == pytest.approx(flat, abs=1e-10)


def test_split_dirac_fixture(split_dirac_pair):
    P, Q = split_dirac_pair
    res = aw_distance(P, Q, P2)
    assert res.pth_power == pytest.approx(2.01, abs=1e-9)
    assert res.distance == pytest.approx(math.sqrt(2.01), abs=1e-9)
    assert res.per_stage_costs[0] == pytest.approx(0.01, abs=1e-12)
    assert res.per_stage_costs[1] == pytest.approx(2.0, abs=1e-12)
    flat, _ = flat_wasserstein(P, Q, P2)
    assert flat == pytest.approx(0.1, abs=1e-10)
    # oracle agrees
    assert brute_force_bicausal(P, Q, P2).pth_power == pytest.approx(2.01, abs=1e-9)


def test_result_invariants(split_dirac_pair):
    P, Q = split_dirac_pair
    for res in (aw_distance(P, Q, P2), brute_force_bicausal(P, Q, P2)):
        assert res.pth_power == pytest.approx(sum(res.per_stage_costs), abs=1e-9)
        assert res.distance == res.pth_power ** 0.5


def test_horizon_mismatch(iid_signs):
    one = gen_binomial(1, 0.0, 1.0, -1.0, 0.5)
    with pytest.raises(HorizonMismatch):
        aw_distance(iid_signs, one, P2)
    with pytest.raises(HorizonMismatch):
        flat_wasserstein(iid_signs, one, P2)


@given(seed=st.integers(0, 20_000))
@settings(max_examples=40, deadline=None)
def test_oracle_equivalence_random_pairs(seed):
    A = gen_random(2, 2, seed)
    B = gen_random(2, 2, seed + 10_000)
    direct = aw_distance(A, B, P2)
    oracle = brute_force_bicausal(A, B, P2)
    assert direct.pth_power == pytest.approx(oracle.pth_power, abs=1e-7)


def test_oracle_guards(iid_signs):
    big = gen_random(4, 2, 0)
    with pytest.raises(TooLarge):
        brute_force_bicausal(big, big, P2)


@given(seed=st.integers(0, 20_000))
@settings(max_examples=25, deadline=None)
def test_metric_axioms_random_triples(seed):
    A = gen_random(2, 2, seed)
    B = gen_random(2, 2, seed + 30_000)
    C = gen_random(2, 2, seed + 60_000)
    ab = aw_distance(A, B, P2).distance
    ba = aw_distance(B, A, P2).distance
    ac = aw_distance(A, C, P2).distance
    cb = aw_distance(C, B, P2).distance
    assert ab == pytest.approx(ba, abs=1e-9)
    assert ab <= ac + cb + 1e-8
    assert aw_distance(A, A, P2).distance == 0.0
    assert ab > 0.0
    assert not is_isomorphic(A, B)


@given(seed=st.integers(0, 20_000))
@settings(max_examples=25, deadline=None)
def test_metric_axioms_at_lockstep_scale(seed):
    # T=3, b=4 is beyond the bicausal LP; the 16 pairs of 4-child families
    # at time 1 are solved by the lockstep simplex
    A, B, C = (gen_random(3, 4, seed + k) for k in (0, 30_000, 60_000))
    assert len(A.levels[1]) * len(B.levels[1]) >= discrete_ot._SIMPLEX_BATCH_MIN

    def d(X, Y):
        return aw_pth_power(X, Y, P2) ** 0.5

    ab = d(A, B)
    assert abs(ab - d(B, A)) <= 1e-12 * ab
    assert ab <= (d(A, C) + d(C, B)) * (1.0 + 1e-12)


@given(seed=st.integers(0, 20_000))
@settings(max_examples=25, deadline=None)
def test_dominates_flat_distance(seed):
    A = gen_random(2, 3, seed)
    B = gen_random(2, 3, seed + 40_000)
    nested = aw_distance(A, B, P2).distance
    flat, _ = flat_wasserstein(A, B, P2)
    assert nested >= flat - 1e-10


@given(seed=st.integers(0, 20_000))
@settings(max_examples=20, deadline=None)
def test_dropping_last_stage_never_increases(seed):
    A = gen_random(2, 2, seed)
    B = gen_random(2, 2, seed + 70_000)
    full = aw_distance(A, B, P2).pth_power
    # ids are breadth first, so the nodes before time 2 are a prefix
    short = aw_distance(*(ScenarioTree(1, [n for n in X.nodes if n.time < 2]) for X in (A, B)),
                        P2).pth_power
    assert short <= full + 1e-12


def test_distance_zero_iff_isomorphic():
    A = gen_random(2, 2, 11)
    # same law with the two time-1 subtrees listed in the opposite order
    B = tree_from_nested(
        2,
        [
            (
                A.nodes[nid].value,
                A.nodes[nid].cond_prob,
                [(A.nodes[c].value, A.nodes[c].cond_prob) for c in A.children[nid]],
            )
            for nid in (A.levels[1][1], A.levels[1][0])
        ],
    )
    assert is_isomorphic(A, B)
    assert aw_distance(A, B, P2).distance == pytest.approx(0.0, abs=1e-12)


# -- batched recursion against the per-pair solvers ---------------------------


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_batched_last_stage_matches_per_pair_fast_path(p):
    # the last stage's plans of every pair of an x and a y family, with the
    # children unsorted, as the recursion builds them and costs them
    rng = np.random.default_rng(int(10 * p))
    for m in range(1, 9):
        for n in range(1, 9):
            Fx, Fy = 3, 4
            x, y = rng.normal(size=(Fx, m)), rng.normal(size=(Fy, n))
            mu = rng.dirichlet(np.ones(m), size=Fx)
            nu = rng.dirichlet(np.ones(n), size=Fy)
            ox, oy = np.argsort(x, axis=1), np.argsort(y, axis=1)
            xs, ys = np.take_along_axis(x, ox, axis=1), np.take_along_axis(y, oy, axis=1)
            plans = adapted_wasserstein._monotone_plans(None, None, mu, ox, nu, oy)
            cost = (np.abs(xs[:, None, :, None] - ys[None, :, None, :]) ** p).reshape(-1, m, n)
            objectives = _objectives(plans, cost)
            for f, (i, j) in enumerate(np.ndindex(Fx, Fy)):
                plan, objective = _sorted_1d(xs[i], mu[i][ox[i]], ys[j], nu[j][oy[j]], p)
                assert np.array_equal(plans[f], plan)
                assert objectives[f] == objective


def _per_pair_pth_power(P, Q, p, problems=None):
    """The recursion solved one node pair at a time, as a reference: the
    last stage by :func:`_sorted_1d`, the others by
    :func:`_interior_solve`.  With ``problems`` given, each interior pair's
    ``(xv, xw, yv, yw, cost)``, children in tree order, is appended to it."""
    values = {}
    for t in range(P.horizon - 1, -1, -1):
        level = {}
        for xn in P.levels[t]:
            xc = P.children[xn]
            xv = np.array([P.nodes[c].value for c in xc])
            xw = np.array([P.nodes[c].cond_prob for c in xc])
            for yn in Q.levels[t]:
                yc = Q.children[yn]
                yv = np.array([Q.nodes[c].value for c in yc])
                yw = np.array([Q.nodes[c].cond_prob for c in yc])
                if t == P.horizon - 1:
                    ox, oy = np.argsort(xv, kind="stable"), np.argsort(yv, kind="stable")
                    level[(xn, yn)] = _sorted_1d(xv[ox], xw[ox], yv[oy], yw[oy], p)[1]
                    continue
                cost = np.abs(xv[:, None] - yv[None, :]) ** p
                for i, cx in enumerate(xc):
                    for j, cy in enumerate(yc):
                        cost[i, j] += values[(cx, cy)]
                if problems is not None:
                    problems.append((xv, xw, yv, yw, cost))
                level[(xn, yn)] = _interior_solve(xv, xw, yv, yw, cost)[1]
        values = level
    return values[(P.root, Q.root)]


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_recursion_matches_per_pair_reference_with_mixed_family_sizes(p):
    # last-stage families of sizes 1, 2, 3 against 4, 2: each size class is
    # one batch, and the batches must land on the right node pairs
    P = tree_from_nested(2, [
        (0.5, 0.25, [(1.0, 1.0)]),
        (-0.25, 0.5, [(0.75, 0.5), (-1.5, 0.5)]),
        (2.0, 0.25, [(3.0, 0.125), (-1.0, 0.375), (0.5, 0.5)]),
    ])
    Q = tree_from_nested(2, [
        (0.0, 0.75, [(2.0, 0.25), (-2.0, 0.25), (0.25, 0.25), (1.0, 0.25)]),
        (1.0, 0.25, [(-0.5, 0.625), (1.5, 0.375)]),
    ])
    for A, B in ((P, Q), (Q, P)):
        res = aw_distance(A, B, AWParams(p))
        assert res.pth_power == _per_pair_pth_power(A, B, p)
        # the coupling's last-stage kernels are the per-pair monotone plans
        c = res.coupling
        pairs, children = records(c), child_ids(c)
        for pn in pairs:
            if pn.time != 1:
                continue
            xc, yc = A.children[pn.x_node], B.children[pn.y_node]
            xv = np.array([A.nodes[k].value for k in xc])
            yv = np.array([B.nodes[k].value for k in yc])
            ox, oy = np.argsort(xv, kind="stable"), np.argsort(yv, kind="stable")
            ref, _ = _sorted_1d(xv[ox], np.array([A.nodes[k].cond_prob for k in xc])[ox],
                                yv[oy], np.array([B.nodes[k].cond_prob for k in yc])[oy], p)
            want = {(xc[ox[i]], yc[oy[j]]): ref[i, j] for i, j in zip(*np.nonzero(ref > 1e-15))}
            got = {(pairs[k].x_node, pairs[k].y_node): pairs[k].cond_prob
                   for k in children[pn.id]}
            assert got == want


def test_chunked_last_stage_is_bit_identical(monkeypatch):
    A, B = gen_random(3, 3, 5), gen_random(3, 4, 6)
    whole = aw_distance(A, B, P2)
    monkeypatch.setattr(adapted_wasserstein, "_BATCH_CELLS", 20)  # one x family per chunk
    chunked = aw_distance(A, B, P2)
    assert chunked.pth_power == whole.pth_power
    assert records(chunked.coupling) == records(whole.coupling)


@pytest.mark.parametrize("T,b", [(1, 5), (2, 3), (3, 3), (4, 2)])
def test_pth_power_entry_matches_full_result(T, b):
    for k, p in enumerate((1.5, 2.0, 3.0)):
        A = gen_random(T, b, 100 * T + k)
        B = gen_random(T, b + k % 2, 200 * T + k)
        prm = AWParams(p)
        full = aw_distance(A, B, prm)
        assert aw_pth_power(A, B, prm) == full.pth_power
        assert aw_pth_power(A, B, prm) == _per_pair_pth_power(A, B, p)
        assert full.distance == aw_pth_power(A, B, prm) ** (1.0 / p)


# -- properties beyond the oracle's size guard ---------------------------------


def _moved(tree, shift):
    """``tree`` with every node value moved by ``shift(node_id)``."""
    return ScenarioTree(tree.horizon, [
        Node(nd.id, nd.time, None if nd.parent is None else nd.value + shift(nd.id),
             nd.cond_prob, nd.parent)
        for nd in tree.nodes
    ])


@given(seed=st.integers(0, 20_000), scale=st.sampled_from([1e-3, 0.1, 2.0]),
       p=st.sampled_from([1.5, 2.0, 3.0]))
@settings(max_examples=10, deadline=None)
def test_identity_coupling_bounds_displacement_distance(seed, scale, p):
    A = gen_random(4, 4, seed)
    shifts = np.random.default_rng(seed).normal(scale=scale, size=len(A.nodes))
    try:
        B = _moved(A, lambda nid: float(shifts[nid]))
    except InvalidTree:  # shifted siblings collided
        assume(False)
    bound = sum(A.node_prob[nd.id] * abs(shifts[nd.id]) ** p
                for nd in A.nodes if nd.parent is not None) ** (1.0 / p)
    assert aw_pth_power(A, B, AWParams(p)) ** (1.0 / p) <= bound * (1.0 + 1e-12)


@given(seed=st.integers(0, 20_000), p=st.sampled_from([1.5, 2.0, 3.0]))
@settings(max_examples=10, deadline=None)
def test_symmetry_at_scale(seed, p):
    A = gen_random(4, 4, seed)
    B = gen_random(4, 3, seed + 50_000)
    prm = AWParams(p)
    assert aw_pth_power(A, B, prm) == pytest.approx(aw_pth_power(B, A, prm), rel=1e-12)


@given(seed=st.integers(0, 20_000), offset=st.integers(-512, 512))
@settings(max_examples=10, deadline=None)
def test_common_translation_invariance_at_scale(seed, offset):
    A = gen_random(4, 4, seed)
    B = gen_random(4, 4, seed + 60_000)
    c = offset / 64.0
    before = aw_pth_power(A, B, P2)
    after = aw_pth_power(_moved(A, lambda _: c), _moved(B, lambda _: c), P2)
    assert after == pytest.approx(before, rel=1e-12)



@given(seed=st.integers(0, 20_000), c=st.sampled_from([-3.0, -0.5, 0.1, 0.75, 2.0]),
       p=st.sampled_from([1.5, 2.0, 3.0]))
@settings(max_examples=10, deadline=None)
def test_homogeneity_at_scale(seed, c, p):
    A = gen_random(4, 4, seed)
    B = gen_random(4, 4, seed + 80_000)
    prm = AWParams(p)

    def scaled(tree):
        return ScenarioTree(tree.horizon, [
            Node(nd.id, nd.time, None if nd.value is None else c * nd.value,
                 nd.cond_prob, nd.parent)
            for nd in tree.nodes
        ])

    before = aw_pth_power(A, B, prm) ** (1.0 / p)
    after = aw_pth_power(scaled(A), scaled(B), prm) ** (1.0 / p)
    assert after == pytest.approx(abs(c) * before, rel=1e-12)

# -- causality ----------------------------------------------------------------


def test_product_coupling_bicausal(iid_signs, split_dirac_pair):
    P, Q = split_dirac_pair
    assert is_bicausal(product_coupling(P, Q))
    assert is_bicausal(product_coupling(iid_signs, P))


def test_optimal_couplings_bicausal(split_dirac_pair):
    P, Q = split_dirac_pair
    assert is_bicausal(aw_distance(P, Q, P2).coupling)
    for seed in range(5):
        A = gen_random(2, 2, seed)
        B = gen_random(2, 2, seed + 99)
        assert is_bicausal(aw_distance(A, B, P2).coupling)


def test_anticipating_coupling_fails_forward_direction(split_dirac_pair):
    P, Q = split_dirac_pair
    # X2's sign is matched to Y1's sign: the Y past leaks into X's future
    pairs = [
        PairNode(0, 0, 0, 0, 1.0, None),
        PairNode(1, 1, 1, 1, 0.5, 0),  # (X1=0, Y1=+0.1)
        PairNode(2, 1, 1, 3, 0.5, 0),  # (X1=0, Y1=-0.1)
        PairNode(3, 2, 2, 2, 1.0, 1),  # (X2=+1, Y2=+1)
        PairNode(4, 2, 3, 4, 1.0, 2),  # (X2=-1, Y2=-1)
    ]
    coupling = coupling_of(P, Q, pairs)
    assert not check_causal(coupling, "x_to_y")
    assert check_causal(coupling, "y_to_x")
    assert not is_bicausal(coupling)


def test_coupling_validation_rejects_bad_marginals(split_dirac_pair):
    P, Q = split_dirac_pair
    pairs = [
        PairNode(0, 0, 0, 0, 1.0, None),
        PairNode(1, 1, 1, 1, 0.7, 0),
        PairNode(2, 1, 1, 3, 0.3, 0),
        PairNode(3, 2, 2, 2, 1.0, 1),
        PairNode(4, 2, 3, 4, 1.0, 2),
    ]
    with pytest.raises(InvalidCoupling):
        coupling_of(P, Q, pairs)


def test_check_causal_rejects_unknown_direction(split_dirac_pair):
    P, Q = split_dirac_pair
    with pytest.raises(InvalidParams):
        check_causal(product_coupling(P, Q), "sideways")


# -- bicausalization -----------------------------------------------------------


def test_bicausalize_flips_causal_only_coupling():
    coupling, P, Q = make_causal_only_coupling()
    assert check_causal(coupling, "x_to_y")
    assert not check_causal(coupling, "y_to_x")
    delta = 0.05
    fixed, Qd = bicausalize(coupling, delta)
    assert check_causal(fixed, "x_to_y")
    assert check_causal(fixed, "y_to_x")
    # per-stage displacement of the second marginal stays below delta:
    # each new pair node's y value sits within delta of the y it came from
    orig = {
        (pn.x_node,): Q.nodes[pn.y_node].value for pn in records(coupling) if pn.parent is not None
    }
    for pn in records(fixed):
        if pn.parent is None:
            continue
        moved = abs(Qd.nodes[pn.y_node].value - orig[(pn.x_node,)])
        assert moved <= delta
    # mass bookkeeping preserved
    assert sum(Qd.node_prob[leaf] for leaf in Qd.leaves) == pytest.approx(1.0, abs=1e-12)


def test_bicausalize_keeps_bicausal_monge_fixed_points(iid_signs):
    shifted = tree_from_nested(
        2,
        [
            (1.5, 0.5, [(1.25, 0.5), (-0.75, 0.5)]),
            (-0.5, 0.5, [(1.25, 0.5), (-0.75, 0.5)]),
        ],
    )
    # node-aligned Monge coupling between iid_signs and its shift
    pairs = [PairNode(0, 0, 0, 0, 1.0, None)]
    stack = [(0, iid_signs.root, shifted.root)]
    while stack:
        pid, xn, yn = stack.pop()
        for xc, yc in zip(iid_signs.children[xn], shifted.children[yn]):
            nid = len(pairs)
            pairs.append(PairNode(nid, iid_signs.nodes[xc].time, xc, yc,
                                  iid_signs.nodes[xc].cond_prob, pid))
            stack.append((nid, xc, yc))
    coupling = coupling_of(iid_signs, shifted, pairs)
    assert is_bicausal(coupling)
    delta = 0.125
    fixed, Qd = bicausalize(coupling, delta)
    assert is_bicausal(fixed)
    # values move by at most delta and the support does not split further
    assert len(Qd.leaves) == len(shifted.leaves)
    d, _ = flat_wasserstein(shifted, Qd, P2)
    assert d <= delta * math.sqrt(2) + 1e-12


def test_bicausalize_requires_causal_input(split_dirac_pair):
    P, Q = split_dirac_pair
    pairs = [
        PairNode(0, 0, 0, 0, 1.0, None),
        PairNode(1, 1, 1, 1, 0.5, 0),
        PairNode(2, 1, 1, 3, 0.5, 0),
        PairNode(3, 2, 2, 2, 1.0, 1),
        PairNode(4, 2, 3, 4, 1.0, 2),
    ]
    anticipating = coupling_of(P, Q, pairs)
    with pytest.raises(NotCausal):
        bicausalize(anticipating, 0.1)
    for delta in (0.0, math.nan, math.inf):
        with pytest.raises(InvalidParams):
            bicausalize(product_coupling(P, Q), delta)


def test_bicausalize_delta_sequence_bounds():
    # as delta -> 0 the repaired marginal approaches the original in the flat
    # distance at rate delta * T^(1/p), and the repaired coupling keeps
    # aw(P, Q_delta) within the original coupling cost plus the same budget.
    # (The adapted distance between Q and Q_delta need NOT vanish: revealing
    # the x atom genuinely refines the filtration.)
    coupling, P, Q = make_causal_only_coupling()
    cost = sum(coupling.stage_costs(2.0)) ** 0.5
    prev_flat = math.inf
    for delta in (0.2, 0.05, 0.01, 0.002):
        _, Qd = bicausalize(coupling, delta)
        flat, _ = flat_wasserstein(Q, Qd, P2)
        assert flat <= delta * math.sqrt(2.0) + 1e-12
        assert flat <= prev_flat + 1e-12
        prev_flat = flat
        assert aw_distance(P, Qd, P2).distance <= cost + delta * math.sqrt(2.0) + 1e-9


def test_bicausalize_delta_collision_detected():
    coupling, P, Q = make_causal_only_coupling()
    # at y = 1e16, sub-delta offsets of order 1e-18 vanish in binary64
    huge = tree_from_nested(2, [(1e16, 1.0, [(2.0, 0.25), (0.0, 0.5), (-2.0, 0.25)])])
    pairs = records(coupling)
    # reuse the same structure but against the huge-valued first stage
    moved = coupling_of(P, huge, [
        pairs[0],
        PairNode(1, 1, 1, 1, 0.5, 0),
        PairNode(2, 1, 2, 1, 0.5, 0),
        PairNode(3, 2, 3, 2, 0.5, 1),
        PairNode(4, 2, 4, 3, 0.5, 1),
        PairNode(5, 2, 5, 3, 0.5, 2),
        PairNode(6, 2, 6, 4, 0.5, 2),
    ])
    with pytest.raises(DeltaTooSmall):
        bicausalize(moved, 1e-2)


# -- caches on trees that share a structure -----------------------------------


def _result_bits(res) -> tuple:
    return (res.distance.hex(), res.pth_power.hex(), [c.hex() for c in res.per_stage_costs],
            [(pn.id, pn.time, pn.x_node, pn.y_node, pn.cond_prob.hex(), pn.parent)
             for pn in records(res.coupling)])


def _constructed(tree: ScenarioTree, values: np.ndarray) -> ScenarioTree:
    """A new tree with these node values, through the validating constructor."""
    return ScenarioTree(tree.horizon, [
        Node(nd.id, nd.time, None if nd.parent is None else float(values[nd.id]),
             nd.cond_prob, nd.parent)
        for nd in tree.nodes
    ])


@given(seed=st.integers(0, 20_000), order=st.permutations(range(7)))
@settings(max_examples=15, deadline=None)
def test_recursion_caches_do_not_leak_between_trees(seed, order):
    # aw_pth_power and aw_distance give the same bits on fresh trees, on
    # with_values children of one base and on their parse/serialize round
    # trips, whatever the call order; the reference builds every tree anew
    from awsens.cli import parse_tree, serialize_tree

    params = AWParams(2.0)
    rng = np.random.default_rng(seed)
    base = gen_random(3, 3, seed)
    values = [base.values] + [base.values + rng.normal(scale=0.05, size=len(base.values))
                              for _ in range(2)]
    kids = [base.with_values(v) for v in values[1:]]
    trips = [parse_tree(serialize_tree(k)) for k in kids]
    trees = [base, *kids, *trips]  # value sets 0, 1, 2, 1, 2
    which = [0, 1, 2, 1, 2]
    ops = [(aw_pth_power, 0, 1), (aw_distance, 0, 2), (aw_distance, 1, 2),
           (aw_pth_power, 2, 1), (aw_distance, 3, 2), (aw_pth_power, 0, 4), (aw_distance, 2, 1)]

    def bits(fn, x):
        return x.hex() if fn is aw_pth_power else _result_bits(x)

    for k in order:
        fn, a, b = ops[k]
        want = fn(_constructed(base, values[which[a]]), _constructed(base, values[which[b]]),
                  params)
        assert bits(fn, fn(trees[a], trees[b], params)) == bits(fn, want)
    # children share the structure cache and keep their own per-tree cache
    assert kids[0]._shared is kids[1]._shared is base._shared
    assert kids[0]._cache is not kids[1]._cache
    for kid in kids:
        for entries in kid._cache.values():
            for vals, *_ in entries:
                assert set(vals.ravel()) <= set(kid.values)


def _plan_bits(P: ScenarioTree, Q: ScenarioTree, p: float) -> dict:
    """The recursion's kept plans, as bytes by stage and pair of classes."""
    plans: dict = {}
    adapted_wasserstein._recursion(P, Q, p, plans)
    return {(t, ab): a.tobytes() for t, kept in plans.items() for ab, a in kept.items()}


@given(shape=st.sampled_from([(2, 3), (3, 3), (3, 4), (4, 2)]), seed=st.integers(0, 20_000),
       scales=st.lists(st.sampled_from([1e-6, 0.05, 1.0]), min_size=2, max_size=4),
       p=st.sampled_from([1.5, 2.0, 3.0]), cells=st.sampled_from([1, 40, None]))
@settings(max_examples=25, deadline=None)
def test_same_structure_pairs_match_the_uncached_recursion(shape, seed, scales, p, cells):
    # trees of one structure read the last stage's plans (per pair of
    # sibling orders) from the structure cache; trees built anew share
    # nothing, so their recursion builds every plan afresh and is the
    # reference.  Candidates of large shifts reorder siblings, and the
    # first comes back after the others, so kept plans are both replaced
    # and reused; (3, 4) runs its 16-pair interior level in lockstep unless
    # chunks are cut smaller
    T, b = shape
    params = AWParams(p)
    rng = np.random.default_rng(seed)
    base = gen_random(T, b, seed)
    fresh_base = _constructed(base, base.values)
    values = [base.values + rng.normal(scale=s, size=len(base.values)) for s in scales]
    with mock.patch.object(adapted_wasserstein, "_BATCH_CELLS",
                           cells or adapted_wasserstein._BATCH_CELLS):
        for v in values + values[:1]:
            cand, fresh = base.with_values(v), _constructed(base, v)
            for (P, Q), (A, B) in (((base, cand), (fresh_base, fresh)),
                                   ((cand, base), (fresh, fresh_base))):
                assert aw_pth_power(P, Q, params).hex() == aw_pth_power(A, B, params).hex()
                got, want = aw_distance(P, Q, params), aw_distance(A, B, params)
                assert _result_bits(got) == _result_bits(want)
                assert got.coupling.prob.tobytes() == want.coupling.prob.tobytes()
                assert _plan_bits(P, Q, p) == _plan_bits(A, B, p)
    # chunked last stages exceed _BATCH_CELLS and keep no plans
    assert any(key[:2] == ("plans", T - 1) for key in base._shared) == (cells is None)
    assert not any(key[0] == "plans" for key in fresh_base._shared)


def test_structure_cache_keeps_only_levels_within_batch_cells(monkeypatch):
    # a same-structure pair keeps weight-only entries only for the last
    # stage, and only when it fits _BATCH_CELLS: on binomial T=7 the last
    # stage has 64^2 pairs of 2x2 plans, which the default fits and 256
    # does not; interior stages keep nothing
    T = 7
    for cells in (None, 256):
        if cells is not None:
            monkeypatch.setattr(adapted_wasserstein, "_BATCH_CELLS", cells)
        base = gen_binomial(T, 0.0, 1.0, -1.0, 0.5)
        cand = base.with_values(base.values + 0.01)
        fresh = _constructed(base, cand.values)
        params = AWParams(2.0)
        assert _result_bits(aw_distance(base, cand, params)) == _result_bits(
            aw_distance(_constructed(base, base.values), fresh, params))
        assert aw_pth_power(cand, base, params).hex() == aw_pth_power(
            fresh, _constructed(base, base.values), params).hex()
        kept = [key for key in base._shared if key[0] in ("plans", "starts", "marginals")]
        assert sorted(kept) == ([("plans", T - 1, 0, 0)] if cells is None else [])
        assert len(base.levels[T - 1]) ** 2 * 2 * 2 > 256


def test_cached_arrays_are_read_only():
    base = gen_random(3, 3, 4)
    child = base.with_values(base.values + 0.01)
    aw_distance(base, child, AWParams(2.0))
    aw_distance(child, base, AWParams(2.0))
    arrays = [child.values, child.paths.values, child.paths.probs, child.ancestor_matrix]

    def collect(obj):
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
        else:
            assert isinstance(obj, (tuple, int, float))  # no mutable container
            if isinstance(obj, tuple):
                for item in obj:
                    collect(item)

    for cache in (base._shared, base._cache, child._cache):
        assert cache
        collect(tuple(cache.values()))
    assert len(arrays) > 20
    for a in arrays:
        assert a.size
        with pytest.raises(ValueError):
            a.flat[0] = 7.0


# -- the certified path for trees of one structure -----------------------------


def _base_tree(kind: str, seed: int) -> ScenarioTree:
    """A ``gen_random`` or ``gen_binomial`` tree, or one whose families have
    1 to 4 children, with dyadic probabilities and values."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        T, b = [(1, 3), (2, 4), (3, 3), (4, 2), (3, 4)][seed % 5]
        return gen_random(T, b, seed)
    if kind == "binomial":
        return gen_binomial(1 + seed % 5, 0.0, 1.0 + rng.uniform(-0.3, 0.3), -1.0,
                            0.5 + rng.uniform(-0.2, 0.2), rng.uniform(-0.1, 0.1))
    horizon = 1 + seed % 4

    def family(t):
        b = int(rng.integers(1, 5))
        counts = rng.multinomial(64 - b, [1.0 / b] * b) + 1
        values = rng.choice(64, size=b, replace=False) / 16.0 - 2.0
        return [(float(v), c / 64.0, family(t + 1) if t < horizon else [])
                for v, c in zip(values, counts)]

    return tree_from_nested(horizon, family(1))


def _shifted(base: ScenarioTree, shift: str, scale: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    n = len(base.values)
    if shift == "normal":
        return base.values + rng.normal(scale=scale, size=n)
    if shift == "integer":  # ties between the two trees' values
        return base.values + rng.integers(-2, 3, size=n).astype(float)
    return base.values + 1e3 + rng.normal(scale=scale, size=n)  # translated


@given(kind=st.sampled_from(["random", "binomial", "mixed"]), seed=st.integers(0, 20_000),
       shift=st.sampled_from(["normal", "integer", "translated"]),
       scale=st.sampled_from([1e-8, 1e-4, 0.05, 1.0, 3.0]), p=st.sampled_from([1.5, 2.0, 3.0]))
@settings(max_examples=200, deadline=None)
def test_certified_path_matches_the_recursion_bit_for_bit(kind, seed, shift, scale, p):
    # whenever the identity certificate accepts, the diagonal pairs alone
    # give the recursion's bits; either way aw_pth_power does, in both orders
    base = _base_tree(kind, seed)
    try:
        cand = base.with_values(_shifted(base, shift, scale, seed))
    except InvalidTree:  # shifted siblings collided
        assume(False)
    for A, B in ((base, cand), (cand, base)):
        want = adapted_wasserstein._recursion(A, B, p, None)
        got = adapted_wasserstein._certified_pth_power(A, B, p)
        assert got is None or got.hex() == want.hex()
        assert aw_pth_power(A, B, AWParams(p)).hex() == want.hex()


@pytest.mark.parametrize("kind", ["random", "binomial", "mixed"])
def test_certified_path_takes_every_small_shift(kind):
    # a small shift keeps every family's identity strictly optimal, so the
    # certificate accepts it at every size class of every level
    for seed in range(10):
        base = _base_tree(kind, seed)
        cand = base.with_values(_shifted(base, "normal", 1e-4, seed))
        for A, B in ((base, cand), (cand, base)):
            got = adapted_wasserstein._certified_pth_power(A, B, 2.0)
            assert got is not None
            assert got.hex() == adapted_wasserstein._recursion(A, B, 2.0, None).hex()


def _mixed_sibling_sizes() -> ScenarioTree:
    """T=3: the first time-1 node's children have families of 1, 2 and 3
    children, so its sibling pairs meet three last-stage size classes."""
    def fam(values, probs, kids=None):
        return [(v, q, k) for v, q, k in zip(values, probs, kids or [[]] * len(values))]

    return tree_from_nested(3, [
        (0.0, 0.25, fam([1.0, -1.0, 0.5], [0.5, 0.25, 0.25], [
            fam([2.0], [1.0]), fam([-1.5, -0.5], [0.75, 0.25]),
            fam([0.25, 1.25, -0.75], [0.125, 0.375, 0.5])])),
        (1.0, 0.75, fam([3.0, 2.0], [0.5, 0.5], [fam([2.5, 3.5], [0.5, 0.5]),
                                                 fam([1.5, 2.5], [0.25, 0.75])])),
    ])


@pytest.mark.parametrize("shape", ["random 4 5", "random 5 4", "binomial 10", "binomial 2",
                                   "random 2 3", "mixed"])
def test_certified_path_sibling_stage_matches_the_recursion(shape):
    # the certified path solves the last stage only at the sibling pairs,
    # F_{T-2} m^2 of them: with small shifts it certifies, at larger ones it
    # may refuse, and whatever it returns has the recursion's bits
    kind, *size = shape.split()
    for seed in range(2):
        if kind == "random":
            base = gen_random(*map(int, size), seed)
        elif kind == "binomial":
            base = gen_binomial(int(size[0]), 0.0, 1.0, -1.0, 0.5 + 0.125 * seed)
        else:
            base = _mixed_sibling_sizes()
        for scale in (1e-4, 0.3):
            cand = base.with_values(_shifted(base, "normal", scale, seed))
            for A, B in ((base, cand), (cand, base)):
                got = adapted_wasserstein._certified_pth_power(A, B, 2.0)
                want = adapted_wasserstein._recursion(A, B, 2.0, None)
                assert got is None or got.hex() == want.hex()
                assert scale > 1e-4 or got is not None
    groups, pairs = adapted_wasserstein._sibling_pairs(base)
    T = base.horizon
    assert pairs == sum(len(base.children[u]) ** 2 for u in base.levels[T - 2])
    assert pairs == sum(len(at) for _, _, at, *_ in groups)
    assert len(groups) == (9 if kind == "mixed" else 1)


def test_certified_path_sibling_stage_rescales_as_the_recursion():
    # rolled last-stage families sort their weights 0.1, 0.2, 0.7 in orders
    # whose sums differ in the last bit, so a sibling pair's second marginal
    # is rescaled by a ratio other than 1, and must be by the same one
    base = gen_lattice(3, 0.1, (0.5, -1.0, 2.0), (0.1, 0.2, 0.7))
    v = base.values.copy()
    for k, u in enumerate(base.levels[2]):
        kids = list(base.children[u])
        v[kids] = np.roll(v[kids], k % 3)
    cand = base.with_values(v)
    (_, order), = cand._sorted_families(2)
    w = adapted_wasserstein._size_classes(cand, 2)[2][0][3]
    assert len(set(np.take_along_axis(w, order, axis=1).sum(axis=1).tolist())) == 2
    for A, B in ((base, cand), (cand, base)):
        got = adapted_wasserstein._certified_pth_power(A, B, 2.0)
        assert got is not None
        assert got.hex() == adapted_wasserstein._recursion(A, B, 2.0, None).hex()


def test_certified_path_keeps_its_sibling_plans_in_the_structure_cache(monkeypatch):
    # the sibling stage's plans live under their own key, checked against
    # the sibling orders as the full last stage's are, per pair of classes
    # whose plans fit _BATCH_CELLS cells; a candidate that reorders
    # siblings replaces them
    base = gen_random(3, 3, 0)
    near = base.with_values(base.values + 2.0**-12)
    aw_pth_power(base, near, P2)
    kept = [key for key in base._shared if key[0] == "siblings"]
    assert kept == [("siblings", 0, 0)]
    first = base._shared[kept[0]]
    assert not any(a.flags.writeable for a in first)  # orders and plans, read-only
    aw_pth_power(base, base.with_values(base.values - 2.0**-12), P2)
    assert base._shared[kept[0]] is first
    swapped = base.with_values(_swap(base, "first"))
    aw_pth_power(base, swapped, P2)
    assert base._shared[kept[0]] is not first
    assert aw_pth_power(base, near, P2).hex() == adapted_wasserstein._recursion(
        base, near, 2.0, None).hex()
    monkeypatch.setattr(adapted_wasserstein, "_BATCH_CELLS", 100)
    small = gen_random(3, 3, 0)  # 27 sibling pairs of 3x3 plans exceed 100 cells
    aw_pth_power(small, small.with_values(small.values + 2.0**-12), P2)
    assert not any(key[0] == "siblings" for key in small._shared)


def test_candidates_sort_their_families_on_demand():
    # a with_values candidate keeps no sorted family until a distance reads
    # one; both entries read only the last level's
    base = gen_random(4, 3, 2)
    for entry in (aw_pth_power, aw_distance):
        cand = base.with_values(base.values + 2.0**-10)
        assert cand._cache == {}
        entry(base, cand, P2)
        assert list(cand._cache) == [("sorted", 3)]
        for (vals, order), (_, kids) in zip(cand._cache["sorted", 3], base._sibling_groups(3)):
            assert np.array_equal(vals, np.sort(cand.values[kids], axis=1))
            assert np.array_equal(order, np.argsort(cand.values[kids], axis=1, kind="stable"))


@pytest.mark.parametrize("cells", [40, 100, 400])
def test_batch_cells_bound_every_chunk(cells, monkeypatch):
    # with _BATCH_CELLS below one x family against all y families, the y
    # side splits too: no chunk holds more cells than the bound (a chunk of
    # one pair may, when that pair alone is larger), and every bit stays
    pairs = [(gen_random(3, 3, 5), gen_random(3, 4, 6)), (gen_random(2, 4, 1), gen_random(2, 4, 2))]
    base = gen_random(3, 3, 7)
    pairs.append((base, base.with_values(base.values + 2.0**-12)))
    want = [(_result_bits(aw_distance(A, B, P2)), aw_pth_power(A, B, P2).hex()) for A, B in pairs]
    sizes = []
    real_plans, real_batch = adapted_wasserstein._monotone_plans, adapted_wasserstein.solve_batch

    def plans(shared, key, xw, ox, yw, oy, paired=False):
        problems = len(xw) if paired else len(xw) * len(yw)
        sizes.append((problems, problems * xw.shape[1] * yw.shape[1]))
        return real_plans(shared, key, xw, ox, yw, oy, paired)

    def batch(mu, nu, cost):
        F, m, n = cost.shape
        sizes.append((F, F * (m + n) ** 2))
        return real_batch(mu, nu, cost)

    monkeypatch.setattr(adapted_wasserstein, "_BATCH_CELLS", cells)
    monkeypatch.setattr(adapted_wasserstein, "_monotone_plans", plans)
    monkeypatch.setattr(adapted_wasserstein, "solve_batch", batch)
    for (A, B), (bits, pth) in zip(pairs, want):
        fresh = [_constructed(X, X.values) for X in (A, B)]
        assert _result_bits(aw_distance(*fresh, P2)) == bits
        assert aw_pth_power(A, B, P2).hex() == pth
    assert sizes and all(n <= cells or F == 1 for F, n in sizes)
    assert any(F > 1 for F, _ in sizes)


def _pivots(mu, nu, cost):
    """Simplex pivots of one problem from its north-west start, the second
    marginal rescaled as ``solve_exact`` rescales it."""
    (cells, masses), = discrete_ot._starts(mu[None], (nu * (mu.sum() / nu.sum()))[None])
    return discrete_ot.transport_simplex(cells, masses, cost)[2]


@pytest.mark.parametrize("seeds", [(3, 8, 1, 2), (4, 4, 3, 4)])
def test_sorted_starts_halve_the_interior_pivots(seeds, monkeypatch):
    # the north-west plan of sorted children is optimal for the stage cost
    # alone, so starting there leaves the simplex at most half the pivots
    # of a start in tree order; the recursion's pivots are the reference's
    T, b, s1, s2 = seeds
    A, B = gen_random(T, b, s1), gen_random(T, b, s2)
    problems = []
    _per_pair_pth_power(A, B, 2.0, problems)
    tree_order = sum(_pivots(xw, yw, cost) for _, xw, _, yw, cost in problems)
    started = 0
    for xv, xw, yv, yw, cost in problems:
        ox, oy = _start_orders(xv, xw, yv, yw)
        started += _pivots(xw[ox], yw[oy], cost[np.ix_(ox, oy)])
    seen = []
    real = adapted_wasserstein.solve_batch

    def batch(mu, nu, cost):
        seen.append(int(discrete_ot.transport_simplex_batch(mu, nu, cost)[1].sum()))
        return real(mu, nu, cost)

    monkeypatch.setattr(adapted_wasserstein, "solve_batch", batch)
    aw_distance(A, B, P2)
    assert sum(seen) == started
    assert 2 * started <= tree_order


def test_equal_marginal_pairs_start_in_tree_order(monkeypatch):
    # every family of the second tree lists its children in the reverse
    # order of their values, against the first's; the diagonal pairs have
    # equal marginals and must reach solve_batch with both sides in tree
    # order, where the north-west start is the identity plan
    base = gen_random(3, 3, 0)
    flipped = base.with_values(-base.values)
    seen = []
    real = adapted_wasserstein.solve_batch

    def batch(mu, nu, cost):
        seen.extend(zip(map(tuple, mu.tolist()), map(tuple, nu.tolist())))
        return real(mu, nu, cost)

    monkeypatch.setattr(adapted_wasserstein, "solve_batch", batch)
    aw_distance(base, flipped, P2)
    reordered = 0
    for t in range(base.horizon - 1):
        for u in base.levels[t]:
            kids = np.array(base.children[u])
            w = base.cond_prob[kids]
            assert (tuple(w.tolist()), tuple(w.tolist())) in seen
            # a sorted start would have handed over the weights in two orders
            reordered += not np.array_equal(w[np.argsort(base.values[kids])],
                                            w[np.argsort(flipped.values[kids])])
    assert reordered


def test_certified_candidate_with_reordered_siblings_matches_the_recursion():
    # moving the lowest child of a time-1 node just past its next sibling
    # reorders that family but keeps the identity plan certified: the
    # diagonal pair there has equal marginals and starts from the identity,
    # so the certified value keeps aw_distance's bits
    base = gen_random(3, 3, 0)
    kids = np.array(base.children[base.levels[1][1]])
    low, nxt = kids[np.argsort(base.values[kids])[:2]]
    v = base.values.copy()
    v[low] += 1.01 * (v[nxt] - v[low])
    cand = base.with_values(v)
    assert not np.array_equal(np.argsort(base.values[kids]), np.argsort(cand.values[kids]))
    for A, B in ((base, cand), (cand, base)):
        assert adapted_wasserstein._certified_pth_power(A, B, 2.0) is not None
        assert aw_pth_power(A, B, P2).hex() == aw_distance(A, B, P2).pth_power.hex()


def _swap(tree: ScenarioTree, where: str) -> np.ndarray:
    """gen_random(3, 3, 0)'s values with two sibling subtrees exchanged:
    two children of the root, or of the first or last time-1 node."""
    v = tree.values.copy()
    parent = {"root": tree.root, "first": tree.levels[1][0], "last": tree.levels[1][-1]}[where]
    pairs = [(tree.children[parent][0], tree.children[parent][-1])]
    for a, b in pairs:  # the subtrees have one shape
        v[[a, b]] = v[[b, a]]
        pairs.extend(zip(tree.children[a], tree.children[b]))
    return v


@pytest.mark.parametrize("where", ["root", "first", "last"])
def test_certified_path_refuses_an_interior_swap(where):
    # a swap makes the crossed plan cheaper than the identity at one family
    # of an interior level: the certificate refuses, whichever family it
    # is, and the recursion decides
    base = gen_random(3, 3, 0)
    cand = base.with_values(_swap(base, where))
    for A, B in ((base, cand), (cand, base)):
        assert adapted_wasserstein._certified_pth_power(A, B, 2.0) is None
        want = adapted_wasserstein._recursion(A, B, 2.0, None).hex()
        assert aw_pth_power(A, B, P2).hex() == want == aw_distance(A, B, P2).pth_power.hex()


def test_certified_path_refuses_crossed_subtrees_above_the_last_two_levels():
    # the two halves' subtrees are translates, exchanged between the trees:
    # each time-1 family's identity is optimal, as for a translation, but
    # the root's crossed plan costs |0 - 0.25|^2 against 2 * 2^2 for the
    # identity.  Only the cross values' bound, 0, shows it at the root
    def half(s):
        return [(1.0 + s, 0.25, [(1.5 + s, 0.5), (0.5 + s, 0.5)]),
                (-1.0 + s, 0.75, [(-0.5 + s, 0.25), (-2.0 + s, 0.75)])]

    P = tree_from_nested(3, [(0.0, 0.5, half(0.0)), (0.25, 0.5, half(2.0))])
    Q = P.with_values(tree_from_nested(3, [(0.0, 0.5, half(2.0)), (0.25, 0.5, half(0.0))]).values)
    for A, B in ((P, Q), (Q, P)):
        assert adapted_wasserstein._certified_pth_power(A, B, 2.0) is None
        assert aw_pth_power(A, B, P2) == adapted_wasserstein._recursion(A, B, 2.0, None) == 0.0625


def test_certified_path_refuses_trees_whose_costs_could_overflow():
    # the diagonal pairs' costs are finite here, but the recursion's cost of
    # the time-1 pair of the two halves is |1e154|^2 plus a last-stage value
    # of 1.3e308, infinite: the path refuses by the size of the values, and
    # the recursion raises as before
    big = 1e154
    P = tree_from_nested(3, [
        (0.0, 0.5, [(big, 0.5, [(big, 0.5), (1.2 * big, 0.5)]),
                    (1.1 * big, 0.5, [(1.05 * big, 0.25), (1.15 * big, 0.75)])]),
        (1.0, 0.5, [(0.0, 0.5, [(0.0, 0.5), (1.0, 0.5)]),
                    (1.0, 0.5, [(-1.0, 0.5), (2.0, 0.5)])]),
    ])
    with np.errstate(over="ignore"):
        for Q in (P, P.with_values(P.values * 0.75), P.with_values(P.values * 2.0)):
            assert adapted_wasserstein._certified_pth_power(P, Q, 2.0) is None
            with pytest.raises(InvalidParams, match="cost entries must be finite"):
                adapted_wasserstein._recursion(P, Q, 2.0, None)
            with pytest.raises(InvalidParams, match="cost entries must be finite"):
                aw_pth_power(P, Q, P2)
    # well inside the ceiling the same shape is certified
    small = P.with_values(np.where(P.values > 1e100, P.values / big, P.values))
    assert adapted_wasserstein._certified_pth_power(
        small, small.with_values(small.values + 2.0**-10), 2.0) is not None


def test_identity_certificate_against_every_permutation():
    # integer costs sum exactly: the identity is certified exactly when
    # every other assignment costs more, as a cycle decomposition says
    rng = np.random.default_rng(5)
    for m in range(1, 5):
        cost = rng.integers(0, 6, size=(300, m, m)).astype(float)
        eye = list(range(m))
        want = [all(c[eye, list(s)].sum() > c[eye, eye].sum()
                    for s in itertools.permutations(eye) if list(s) != eye) for c in cost]
        assert adapted_wasserstein._identity_certified(cost).tolist() == want
        assert m == 1 or 0 < sum(want) < len(want)


@pytest.mark.parametrize("s", [1.0, 2.0**20, 2.0**-20])
def test_identity_certificate_refuses_ties_and_near_ties(s):
    # one 2-cycle of weight w in a 2x2 block of scale s: refused at or below
    # 8 * m^2 * eps * (1 + max c), accepted above it
    margin = 32 * np.finfo(float).eps * (1.0 + s)
    for w, ok in ((-margin, False), (0.0, False), (margin / 2, False), (2 * margin, True),
                  (s, True)):
        cost = np.array([[[s, s + w], [s, s]], [[s, s], [s + w, s]]])
        assert adapted_wasserstein._identity_certified(cost).tolist() == [ok, ok]
