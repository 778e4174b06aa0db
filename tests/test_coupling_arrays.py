"""The array-built coupling against the per-record construction it replaced.

The references below are the record-by-record assembly, validator,
causality check and stage costs that ``CouplingTree`` and ``aw_distance``
used before the coupling became arrays; the plans come from solving one
node pair at a time, and the records are ``pair_records.PairNode``.  The
array path must give the same pair ids, order and bits, and fail with the
same error on the same pair node.  The constructor must also refuse
malformed fields and tolerances with a typed error, and build every
coupling the library returns.
"""

import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awsens import (
    AWParams,
    CouplingTree,
    HorizonMismatch,
    InvalidCoupling,
    InvalidParams,
    RobustQuery,
    TransportProblem,
    aw_distance,
    bicausalize,
    brute_force_bicausal,
    check_causal,
    gen_binomial,
    gen_random,
    is_bicausal,
    make_cost_model,
    perturbed_model_with_coupling,
    product_coupling,
    robust_curve,
    sensitivity_terminal,
    solve_exact,
    tree_from_nested,
    worst_case_direction,
)
from awsens import adapted_wasserstein, discrete_ot
from awsens.sensitivity import displace
from pair_records import PairNode, arrays, child_ids, coupling_of, records

# -- references: the per-record construction ----------------------------------


def _sorted_1d(x, mu, y, nu, p):
    """One last-stage pair as the recursion solves it, alone: the north-west
    plan of points already sorted (:func:`_monotone_plans` on one pair) and
    its cost summed by ``np.vdot``; returns ``(plan, objective)``."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    orders = np.arange(len(x))[None], np.arange(len(y))[None]
    plan = adapted_wasserstein._monotone_plans(None, None, np.asarray(mu)[None], orders[0],
                                               np.asarray(nu)[None], orders[1])[0]
    return plan, float(np.vdot(plan, np.abs(x[:, None] - y[None, :]) ** p))


def _interior_solve(xv, xw, yv, yw, cost):
    """One interior pair as the recursion solves it, alone: ``solve_exact``
    from the north-west plan of the children sorted by value (stable), or
    in tree order when the two marginals are equal, the plan put back in
    tree order and its cost summed by ``np.vdot``; returns ``(plan,
    objective)``."""
    same = np.array_equal(xw, yw)
    ox = np.arange(len(xv)) if same else np.argsort(xv, kind="stable")
    oy = np.arange(len(yv)) if same else np.argsort(yv, kind="stable")
    sorted_plan = solve_exact(TransportProblem(xw[ox], yw[oy], cost[np.ix_(ox, oy)])).plan
    plan = np.empty_like(sorted_plan)
    plan[np.ix_(ox, oy)] = sorted_plan
    return plan, float(np.vdot(plan, cost))


def _reference_plans(P, Q, p):
    """Per node pair, its optimal plan with the children in tree order,
    solved one pair at a time from the recursion's start (sorted, or in
    tree order when the marginals are equal; see :func:`_interior_solve`);
    returns ``(pth_power, plans)``."""
    values, plans = {}, {}
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
                    sorted_plan, objective = _sorted_1d(xv[ox], xw[ox], yv[oy], yw[oy], p)
                    plan = np.empty_like(sorted_plan)
                    plan[np.ix_(ox, oy)] = sorted_plan
                else:
                    cost = np.abs(xv[:, None] - yv[None, :]) ** p
                    for i, cx in enumerate(xc):
                        for j, cy in enumerate(yc):
                            cost[i, j] += values[(cx, cy)]
                    plan, objective = _interior_solve(xv, xw, yv, yw, cost)
                level[(xn, yn)] = objective
                plans[(xn, yn)] = plan
        values = level
    return values[(P.root, Q.root)], plans


def _reference_assembly(P, Q, plans):
    """Pair records in last-in-first-out expansion order."""
    T = P.horizon
    pairs = [PairNode(0, 0, P.root, Q.root, 1.0, None)]
    queue = [(0, P.root, Q.root)]
    while queue:
        pid, xn, yn = queue.pop()
        plan, xc, yc = plans[(xn, yn)], P.children[xn], Q.children[yn]
        for i, j in zip(*np.nonzero(plan > 1e-15)):
            nid = len(pairs)
            pairs.append(PairNode(nid, P.nodes[xc[i]].time, xc[i], yc[j], float(plan[i, j]), pid))
            if P.nodes[xc[i]].time < T:
                queue.append((nid, xc[i], yc[j]))
    return pairs


def _reference_product(P, Q):
    pairs = [PairNode(0, 0, P.root, Q.root, 1.0, None)]
    queue = [(0, P.root, Q.root)]
    while queue:
        pid, xn, yn = queue.pop()
        for xc in P.children[xn]:
            for yc in Q.children[yn]:
                w = P.nodes[xc].cond_prob * Q.nodes[yc].cond_prob
                nid = len(pairs)
                pairs.append(PairNode(nid, P.nodes[xc].time, xc, yc, w, pid))
                queue.append((nid, xc, yc))
    return pairs


def _reference_validate(first, second, pair_nodes, marginal_tol=1e-10):
    """The record-by-record checks; returns ``(children, prob)``."""
    if first.horizon != second.horizon:
        raise HorizonMismatch("coupled trees must share one horizon")
    pair_nodes = list(pair_nodes)
    n = len(pair_nodes)
    for k, pn in enumerate(pair_nodes):
        if pn.id != k:
            raise InvalidCoupling(f"pair node ids must equal list positions; got {pn.id} at {k}")
    roots = [pn for pn in pair_nodes if pn.parent is None]
    if len(roots) != 1 or roots[0].x_node != first.root or roots[0].y_node != second.root:
        raise InvalidCoupling("expected exactly one root pair covering both tree roots")
    root = roots[0].id

    children = [[] for _ in range(n)]
    for pn in pair_nodes:
        if pn.parent is None:
            continue
        par = pair_nodes[pn.parent]
        if pn.time != par.time + 1:
            raise InvalidCoupling(f"pair node {pn.id} skips time levels")
        if pn.x_node not in first.children[par.x_node]:
            raise InvalidCoupling(f"pair node {pn.id} breaks the first tree's edges")
        if pn.y_node not in second.children[par.y_node]:
            raise InvalidCoupling(f"pair node {pn.id} breaks the second tree's edges")
        if not (0.0 < pn.cond_prob <= 1.0):
            raise InvalidCoupling(f"pair node {pn.id} has cond_prob outside (0, 1]")
        children[pn.parent].append(pn.id)

    prob = [0.0] * n
    prob[root] = 1.0
    order = [root]
    for nid in order:
        kids = children[nid]
        if kids:
            s = sum(pair_nodes[c].cond_prob for c in kids)
            if abs(s - 1.0) > 1e-9:
                raise InvalidCoupling(f"joint kernel at pair node {nid} sums to {s!r}")
            seenxy = set()
            for c in kids:
                key = (pair_nodes[c].x_node, pair_nodes[c].y_node)
                if key in seenxy:
                    raise InvalidCoupling(f"duplicate child pair {key} under pair node {nid}")
                seenxy.add(key)
                prob[c] = prob[nid] * pair_nodes[c].cond_prob
                order.append(c)
        elif pair_nodes[nid].time != first.horizon:
            raise InvalidCoupling(f"pair node {nid} ends before the horizon")
    if len(order) != n:
        raise InvalidCoupling("coupling contains pair nodes unreachable from the root")

    marg_x = [0.0] * len(first.node_prob)
    marg_y = [0.0] * len(second.node_prob)
    for pn in pair_nodes:
        marg_x[pn.x_node] += prob[pn.id]
        marg_y[pn.y_node] += prob[pn.id]
    for nid, target in enumerate(first.node_prob.tolist()):
        if abs(marg_x[nid] - target) > marginal_tol:
            raise InvalidCoupling(f"first marginal off by {marg_x[nid] - target!r} at node {nid}")
    for nid, target in enumerate(second.node_prob.tolist()):
        if abs(marg_y[nid] - target) > marginal_tol:
            raise InvalidCoupling(f"second marginal off by {marg_y[nid] - target!r} at node {nid}")
    return tuple(tuple(c) for c in children), tuple(prob)


def _reference_check_causal(coupling, direction, tol=1e-10):
    tree = coupling.first if direction == "x_to_y" else coupling.second
    pick = (lambda pn: pn.x_node) if direction == "x_to_y" else (lambda pn: pn.y_node)
    pairs, children = records(coupling), child_ids(coupling)
    for pn in pairs:
        kids = children[pn.id]
        if not kids:
            continue
        proj = {}
        for c in kids:
            child = pairs[c]
            proj[pick(child)] = proj.get(pick(child), 0.0) + child.cond_prob
        for marg_child in tree.children[pick(pn)]:
            if abs(proj.pop(marg_child, 0.0) - tree.nodes[marg_child].cond_prob) > tol:
                return False
        if proj:
            return False
    return True


def _reference_stage_costs(first, second, pair_nodes, prob, p):
    out = [0.0] * first.horizon
    for pn in pair_nodes:
        if pn.time == 0:
            continue
        dx = first.nodes[pn.x_node].value - second.nodes[pn.y_node].value
        out[pn.time - 1] += prob[pn.id] * abs(dx) ** p
    return tuple(out)


# -- trees --------------------------------------------------------------------


def _mixed_tree(seed: int, horizon: int):
    """Random tree whose families have 1 to 4 children, with dyadic
    probabilities and values, so every family sums to exactly 1."""
    rng = np.random.default_rng(seed)

    def family(t):
        b = int(rng.integers(1, 5))
        counts = rng.multinomial(64 - b, [1.0 / b] * b) + 1
        values = rng.choice(64, size=b, replace=False) / 16.0 - 2.0
        return [(float(v), c / 64.0, family(t + 1) if t < horizon else [])
                for v, c in zip(values, counts)]

    return tree_from_nested(horizon, family(1))


def _cycled_tree(seed: int, horizon: int, phase: int):
    """Random tree with dyadic probabilities and values whose root has 3
    children and whose other families have 1, 2 and 3 children in turn
    along each level, starting at ``phase``."""
    rng = np.random.default_rng(seed)
    seen = [0] * (horizon + 1)

    def family(t):
        b = 3 if t == 1 else (1, 2, 3)[(seen[t] + phase) % 3]
        seen[t] += 1
        counts = rng.multinomial(64 - b, [1.0 / b] * b) + 1
        values = rng.choice(64, size=b, replace=False) / 16.0 - 2.0
        return [(float(v), c / 64.0, family(t + 1) if t < horizon else [])
                for v, c in zip(values, counts)]

    return tree_from_nested(horizon, family(1))


def _pair(kind: str, seed: int):
    if kind == "random":
        rng = np.random.default_rng(seed)
        T, a, b = int(rng.integers(1, 4)), int(rng.integers(2, 5)), int(rng.integers(2, 5))
        return gen_random(T, a, seed), gen_random(T, b, seed + 1)
    if kind == "binomial":
        rng = np.random.default_rng(seed)
        T = int(rng.integers(1, 5))
        return (gen_binomial(T, 0.0, 1.0, -1.0, 0.5),
                gen_binomial(T, 0.0, 1.0 + rng.uniform(-0.3, 0.3), -1.0 + rng.uniform(-0.3, 0.3),
                             0.5 + rng.uniform(-0.2, 0.2), rng.uniform(-0.1, 0.1)))
    T = 1 + seed % 3
    return _mixed_tree(seed, T), _mixed_tree(seed + 7, T)


def _records(pairs):
    return [(pn.id, pn.time, pn.x_node, pn.y_node, pn.cond_prob.hex(), pn.parent)
            for pn in pairs]


def _hexes(values):
    return [float(v).hex() for v in values]


# -- the array path against the references ------------------------------------


def _check_against_references(A, B, p, cells):
    with mock.patch.object(adapted_wasserstein, "_BATCH_CELLS",
                           cells or adapted_wasserstein._BATCH_CELLS):
        res = aw_distance(A, B, AWParams(p))
    pth, plans = _reference_plans(A, B, p)
    pairs = _reference_assembly(A, B, plans)
    children, prob = _reference_validate(A, B, pairs)
    c = res.coupling
    assert res.pth_power == pth
    assert _records(records(c)) == _records(pairs)
    assert child_ids(c) == children
    assert _hexes(c.prob) == _hexes(prob)
    assert _hexes(res.per_stage_costs) == _hexes(_reference_stage_costs(A, B, pairs, prob, p))
    for direction in ("x_to_y", "y_to_x"):
        assert check_causal(c, direction) is _reference_check_causal(c, direction) is True


@given(kind=st.sampled_from(["random", "binomial", "mixed"]), seed=st.integers(0, 10_000),
       p=st.sampled_from([1.5, 2.0, 3.0]), cells=st.sampled_from([None, 1, 40]))
@settings(max_examples=40, deadline=None)
def test_aw_coupling_matches_per_record_assembly(kind, seed, p, cells):
    _check_against_references(*_pair(kind, seed), p, cells)


@pytest.mark.parametrize("cells", [1, None])
@given(seed=st.integers(0, 10_000), p=st.sampled_from([1.5, 2.0, 3.0]))
@settings(max_examples=15, deadline=None)
def test_mixed_family_sizes_share_a_level(cells, seed, p):
    # 2 x 2, 2 x 3, 1 x 2 and 3 x 1 pairs side by side at every interior
    # level but the root's, each size class in lockstep or per pair
    T = 3 + seed % 2
    A, B = _cycled_tree(seed, T, 0), _cycled_tree(seed + 7, T, 1)
    for t in range(1, T - 1):
        shapes = {(len(A.children[x]), len(B.children[y]))
                  for x in A.levels[t] for y in B.levels[t]}
        assert {(2, 2), (2, 3), (1, 2), (3, 1)} <= shapes
    _check_against_references(A, B, p, cells)


def _solves_by_shape(run):
    """Interior transport problems that ``run`` solves, as counts keyed by
    ``("batch", F, m, n)`` per lockstep batch of F problems and by
    ``("pair", m, n)`` per per-pair solve, with the recursions it ran."""
    counts = Counter()

    def counting(name, key):
        solve = getattr(discrete_ot, name)

        def wrapper(mu, nu, cost):
            counts[key(cost)] += 1
            return solve(mu, nu, cost)
        return mock.patch.object(discrete_ot, name, wrapper)

    with counting("transport_simplex_batch", lambda c: ("batch", *c.shape)), \
            counting("transport_simplex", lambda c: ("pair", *c.shape)), \
            mock.patch.object(adapted_wasserstein, "_recursion",
                              wraps=adapted_wasserstein._recursion) as recursion:
        run()
    return counts, recursion.call_count


def test_simplex_calls_by_family_shape():
    # a binomial tree's time-t level has 4^t pairs of 2-child families, but
    # only one solve per pair of subtree classes: t + 1 classes at level t
    # in A and 1, 2, 3, 4, 6 in B, whose steps do not recombine exactly, so
    # the levels of 16 and 30 class pairs run in lockstep, the three above
    # per pair
    A = gen_binomial(6, 0.0, 1.0, -1.0, 0.5)
    B = gen_binomial(6, 0.0, 1.1, -0.9, 0.45, 0.02)
    counts, _ = _solves_by_shape(lambda: aw_distance(A, B, AWParams(2.0)))
    assert discrete_ot._SIMPLEX_BATCH_MIN == 16
    assert counts == {("batch", 16, 2, 2): 1, ("batch", 30, 2, 2): 1, ("pair", 2, 2): 14}
    # the curve's trees branch by 3: its 9-pair level stays below the batch
    # size, so each of its 10 interior pairs is solved alone, in each of
    # the curve's 76 exact ball checks, when they run the recursion; the
    # certified path takes them all and solves no transport problem
    query = RobustQuery("terminal", gen_random(3, 3, 0), make_cost_model("linear", None, 3), 2.0,
                        (1e-3, 1e-2, 1e-1))
    with mock.patch.object(adapted_wasserstein, "_certified_pth_power", lambda P, Q, p: None):
        counts, recursions = _solves_by_shape(lambda: robust_curve(query))
    assert (counts, recursions) == ({("pair", 3, 3): 760}, 76)
    assert _solves_by_shape(lambda: robust_curve(query)) == ({}, 0)
    # the aw benchmark's random pairs: 8 x 8 and 4 x 4 levels in lockstep
    counts, _ = _solves_by_shape(lambda: aw_distance(gen_random(3, 8, 1), gen_random(3, 8, 2),
                                                     AWParams(2.0)))
    assert counts == {("batch", 64, 8, 8): 1, ("pair", 8, 8): 1}
    counts, _ = _solves_by_shape(lambda: aw_distance(gen_random(4, 4, 3), gen_random(4, 4, 4),
                                                     AWParams(2.0)))
    assert counts == {("batch", 256, 4, 4): 1, ("batch", 16, 4, 4): 1, ("pair", 4, 4): 1}


@given(kind=st.sampled_from(["random", "binomial", "mixed"]), seed=st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_product_coupling_matches_per_record_assembly(kind, seed):
    A, B = _pair(kind, seed)
    c = product_coupling(A, B)
    pairs = _reference_product(A, B)
    children, prob = _reference_validate(A, B, pairs)
    assert _records(records(c)) == _records(pairs)
    assert child_ids(c) == children
    assert _hexes(c.prob) == _hexes(prob)
    assert _hexes(c.stage_costs(2.0)) == _hexes(_reference_stage_costs(A, B, pairs, prob, 2.0))
    for direction in ("x_to_y", "y_to_x"):
        assert check_causal(c, direction) is _reference_check_causal(c, direction) is True


def test_coupling_arrays_are_read_only():
    A, B = gen_random(3, 3, 1), gen_random(3, 2, 2)
    c = aw_distance(A, B, AWParams(2.0)).coupling
    for a in (c.parent, c.time, c.x_node, c.y_node, c.cond_prob, c.prob):
        assert len(a) == len(c.parent)
        with pytest.raises(ValueError):
            a[0] = a[1]
    # the constructor keeps read-only arrays of its dtypes and copies the
    # rest, so it never makes a caller's array read-only
    fields = [np.array(col) for col in (c.parent, c.time, c.x_node, c.y_node, c.cond_prob)]
    fields[1].setflags(write=False)
    d = CouplingTree(A, B, *fields)
    assert d.time is fields[1]
    assert all(f.flags.writeable for k, f in enumerate(fields) if k != 1)
    assert not any(a is f for a in (d.parent, d.x_node, d.y_node, d.cond_prob) for f in fields)


# -- malformed couplings -------------------------------------------------------

FAULTS = ["second root", "root node", "time", "x node", "y node", "x out of range",
          "cond zero", "cond above one", "cond nan", "kernel", "duplicate", "marginal", "leaf",
          "sibling swap"]


def _inject(pairs, fault, k, nx):
    """``pairs`` with one fault at pair ``k`` (a non-root pair)."""
    pairs = list(pairs)
    pn = pairs[k]
    sibs = [q for q in pairs if q.parent == pn.parent and q.id != pn.id]

    def put(**changes):
        fields = dict(id=pn.id, time=pn.time, x_node=pn.x_node, y_node=pn.y_node,
                      cond_prob=pn.cond_prob, parent=pn.parent)
        fields.update(changes)
        pairs[k] = PairNode(**fields)

    if fault == "second root":
        put(parent=None)
    elif fault == "root node":
        r = pairs[0]
        pairs[0] = PairNode(0, 0, pn.x_node, r.y_node, 1.0, None)
    elif fault == "time":
        put(time=pn.time + 1)
    elif fault == "x node":
        put(x_node=(pn.x_node + 1) % nx)
    elif fault == "y node":
        put(y_node=pn.y_node + 1)
    elif fault == "x out of range":
        put(x_node=nx + 2)
    elif fault == "cond zero":
        put(cond_prob=0.0)
    elif fault == "cond above one":
        put(cond_prob=1.5)
    elif fault == "cond nan":
        put(cond_prob=math.nan)
    elif fault == "kernel":
        put(cond_prob=pn.cond_prob * 0.5)
    elif fault == "duplicate" and sibs:
        put(x_node=sibs[0].x_node, y_node=sibs[0].y_node)
    elif fault == "marginal":
        put(cond_prob=pn.cond_prob * (1.0 - 4e-10))
    elif fault == "leaf":
        # cut every pair below pair k, renumbering the rest
        below = {k}
        for q in pairs:
            if q.parent in below:
                below.add(q.id)
        below.discard(k)
        keep = [q for q in pairs if q.id not in below]
        new = {q.id: i for i, q in enumerate(keep)}
        pairs = [PairNode(new[q.id], q.time, q.x_node, q.y_node, q.cond_prob,
                          None if q.parent is None else new[q.parent]) for q in keep]
    elif fault == "sibling swap" and sibs:
        put(cond_prob=sibs[0].cond_prob)
        s = sibs[0]
        pairs[s.id] = PairNode(s.id, s.time, s.x_node, s.y_node, pn.cond_prob, s.parent)
    return pairs


def _outcome(build):
    try:
        build()
    except (InvalidCoupling, HorizonMismatch) as e:
        return type(e), str(e)
    return None


@given(kind=st.sampled_from(["random", "binomial", "mixed"]), seed=st.integers(0, 10_000),
       fault=st.sampled_from(FAULTS), where=st.integers(1, 10_000),
       source=st.sampled_from(["aw", "product"]))
@settings(max_examples=80, deadline=None)
def test_malformed_couplings_fail_as_the_record_checks_did(kind, seed, fault, where, source):
    A, B = _pair(kind, seed)
    good = records(aw_distance(A, B, AWParams(2.0)).coupling if source == "aw"
                   else product_coupling(A, B))
    k = 1 + where % (len(good) - 1)
    if fault == "leaf":
        internal = [pn.id for pn in good if pn.parent is not None and pn.time < A.horizon]
        if not internal:
            return
        k = internal[where % len(internal)]
    bad = _inject(good, fault, k, len(A.node_prob))
    want = _outcome(lambda: _reference_validate(A, B, bad))
    assert _outcome(lambda: coupling_of(A, B, bad)) == want
    if fault not in ("duplicate", "sibling swap", "marginal", "x node"):
        assert want is not None


def test_parent_outside_the_pair_list_is_invalid():
    P = gen_binomial(1, 0.0, 1.0, -1.0, 0.5, 0.0)
    good = [PairNode(0, 0, 0, 0, 1.0, None), PairNode(1, 1, 1, 1, 0.5, 0),
            PairNode(2, 1, 2, 2, 0.5, 0)]
    coupling_of(P, P, good)
    for parent in (7, 3, -3, -2):
        with pytest.raises(InvalidCoupling, match=f"node 2 references unknown parent {parent}"):
            coupling_of(P, P, good[:2] + [PairNode(2, 1, 2, 2, 0.5, parent)])
    with pytest.raises(InvalidCoupling, match="must hold integers"):
        coupling_of(P, P, good[:2] + [PairNode(2, 1.5, 2, 2, 0.5, 0)])
    with pytest.raises(InvalidCoupling, match="unknown parent 5"):
        CouplingTree(P, P, np.array([-1, 0, 5]), np.array([0, 1, 1]), np.array([0, 1, 2]),
                     np.array([0, 1, 2]), np.array([1.0, 0.5, 0.5]))


# -- causality ------------------------------------------------------------------


@given(kind=st.sampled_from(["random", "binomial", "mixed"]), seed=st.integers(0, 10_000),
       direction=st.sampled_from(["x_to_y", "y_to_x"]), where=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_check_causal_matches_the_record_walk(kind, seed, direction, where):
    # moving mass between two child pairs that share the other coordinate
    # breaks this direction's kernel factorization at one pair node and no
    # other: the array check and the record walk must both see it
    A, B = _pair(kind, seed)
    c = product_coupling(A, B)
    pairs = records(c)
    mine, other = ("x_node", "y_node") if direction == "x_to_y" else ("y_node", "x_node")
    moves = [(u, v) for kids in child_ids(c) for u in kids for v in kids
             if getattr(pairs[u], other) == getattr(pairs[v], other)
             and getattr(pairs[u], mine) != getattr(pairs[v], mine)]
    if not moves:
        return
    u, v = moves[where % len(moves)]
    eps = 1e-7
    for k, d in ((u, -eps), (v, eps)):
        q = pairs[k]
        pairs[k] = PairNode(q.id, q.time, q.x_node, q.y_node, q.cond_prob + d, q.parent)
    bent = coupling_of(A, B, pairs, marginal_tol=1e-6)
    for dirn in ("x_to_y", "y_to_x"):
        assert check_causal(bent, dirn) is _reference_check_causal(bent, dirn)
    assert not check_causal(bent, direction)
    flipped = "y_to_x" if direction == "x_to_y" else "x_to_y"
    assert check_causal(bent, flipped)


# -- typed input ----------------------------------------------------------------

FIELDS = ("parent", "time", "x_node", "y_node", "cond_prob")
# entries of another type than a valid coupling's: floats where integers
# belong, strings, None, booleans, NaN, infinities, integers beyond 64 bits
# and beyond the float range, numpy scalars
ENTRY_VALUES = st.sampled_from([0, 1, 2, -1, 0.0, 1.0, 0.5, "0.5", "abc", None, True, False,
                                math.nan, math.inf, 2 ** 64, 10 ** 400, np.float64(0.5),
                                np.int64(1), np.bool_(True)])
# whole fields of another shape or dtype
WHOLE_FIELDS = {
    "scalar": lambda col: 3,
    "none": lambda col: None,
    "string": lambda col: "abc",
    "empty": lambda col: [],
    "short": lambda col: col[:-1],
    "2-d list": lambda col: [col, col],
    "2-d array": lambda col: np.array([col, col]),
    "generator": lambda col: iter(col),
    "dict": lambda col: {0: 1},
    "bool array": lambda col: np.ones(len(col), dtype=bool),
    "object array": lambda col: np.array(col, dtype=object),
    "uint64 array": lambda col: np.full(len(col), 2 ** 64 - 1, dtype=np.uint64),
    "float32 array": lambda col: np.full(len(col), 0.5, dtype=np.float32),
    "0-d array": lambda col: np.array(1),
}


@given(changes=st.lists(st.tuples(st.integers(0, 20), st.sampled_from(FIELDS), ENTRY_VALUES),
                        max_size=3),
       whole=st.lists(st.tuples(st.sampled_from(FIELDS), st.sampled_from(sorted(WHOLE_FIELDS))),
                      max_size=2),
       container=st.sampled_from(["list", "tuple", "array"]))
@settings(max_examples=300, deadline=None)
def test_coupling_field_fuzz_raises_only_invalid_coupling(changes, whole, container):
    # the library entry below the recursion: pair fields straight to CouplingTree
    P = gen_binomial(2, 0.0, 1.0, -1.0, 0.5, 0.0)
    cols = dict(zip(FIELDS, arrays(records(product_coupling(P, P)))))
    for k, field, value in changes:
        cols[field][k % len(cols[field])] = value
    wrap = {"list": list, "tuple": tuple, "array": np.array}[container]
    args = {f: wrap(col) for f, col in cols.items()}
    for field, kind in whole:
        args[field] = WHOLE_FIELDS[kind](cols[field])
    try:
        CouplingTree(P, P, *(args[f] for f in FIELDS))
    except InvalidCoupling:
        pass


def _one_step():
    P = gen_binomial(1, 0.0, 1.0, -1.0, 0.5, 0.0)
    return P, arrays([PairNode(0, 0, 0, 0, 1.0, None), PairNode(1, 1, 1, 1, 0.5, 0),
                      PairNode(2, 1, 2, 2, 0.5, 0)])


@pytest.mark.parametrize("value", ["0.5", "abc", 10 ** 400, True, None, 1 + 0j])
def test_cond_prob_must_hold_numbers(value):
    P, (parent, time, x_node, y_node, cond_prob) = _one_step()
    CouplingTree(P, P, parent, time, x_node, y_node, cond_prob)
    cond_prob[1] = value
    with pytest.raises(InvalidCoupling, match="field 'cond_prob' must hold numbers"):
        CouplingTree(P, P, parent, time, x_node, y_node, cond_prob)


def test_pair_ids_are_1d_integer_arrays_of_one_length():
    P, fields = _one_step()
    parent, time, x_node, y_node, cond_prob = map(np.array, fields)
    for short in range(5):
        cut = [f[:2] if k == short else f for k, f in enumerate(map(np.array, fields))]
        with pytest.raises(InvalidCoupling, match="fields must share one length"):
            CouplingTree(P, P, *cut)
    with pytest.raises(InvalidCoupling, match="field 'x_node' must hold integers in a 1-d array"):
        CouplingTree(P, P, parent, time, np.stack([x_node, x_node]), y_node, cond_prob)
    with pytest.raises(InvalidCoupling, match="field 'y_node' must hold integers"):
        CouplingTree(P, P, parent, time, x_node, y_node.astype(float), cond_prob)
    with pytest.raises(InvalidCoupling, match="field 'time' must hold integers"):
        CouplingTree(P, P, parent, [0, 1, True], x_node, y_node, cond_prob)


# -- tolerances -------------------------------------------------------------------

BAD_TOLERANCES = [math.nan, -1e-12, -math.inf, "x", "1e-9", None, True, [1e-10]]


@pytest.mark.parametrize("tol", BAD_TOLERANCES)
def test_marginal_tol_refuses_nan_negatives_and_non_numbers(tol):
    # the second marginal is off by 0.4 at both children
    P = gen_binomial(1, 0.0, 1.0, -1.0, 0.5, 0.0)
    Q = tree_from_nested(1, [(1.0, 0.1), (-1.0, 0.9)])
    fields = ([-1, 0, 0], [0, 1, 1], [0, 1, 2], [0, 1, 2], [1.0, 0.5, 0.5])
    with pytest.raises(InvalidCoupling, match="second marginal off by 0.4"):
        CouplingTree(P, Q, *fields)
    assert CouplingTree(P, Q, *fields, marginal_tol=0.5).prob.tolist() == [1.0, 0.5, 0.5]
    CouplingTree(P, Q, *fields, marginal_tol=10 ** 400)  # reads as inf
    with pytest.raises(InvalidParams, match="marginal_tol must be a nonnegative number"):
        CouplingTree(P, Q, *fields, marginal_tol=tol)


@pytest.mark.parametrize("tol", BAD_TOLERANCES)
def test_causality_tol_refuses_nan_negatives_and_non_numbers(tol, split_dirac_pair):
    P, Q = split_dirac_pair
    # X2's sign follows Y1's: not causal from x to y at the default tol
    anticipating = coupling_of(P, Q, [
        PairNode(0, 0, 0, 0, 1.0, None), PairNode(1, 1, 1, 1, 0.5, 0),
        PairNode(2, 1, 1, 3, 0.5, 0), PairNode(3, 2, 2, 2, 1.0, 1), PairNode(4, 2, 3, 4, 1.0, 2),
    ])
    assert not check_causal(anticipating, "x_to_y")
    assert check_causal(anticipating, "x_to_y", 0.5)
    for check in (lambda: check_causal(anticipating, "x_to_y", tol),
                  lambda: check_causal(anticipating, "y_to_x", tol=tol),
                  lambda: is_bicausal(anticipating, tol)):
        with pytest.raises(InvalidParams, match="tol must be a nonnegative number"):
            check()


# -- one constructor ------------------------------------------------------------


def test_every_coupling_is_built_by_the_constructor():
    # each entry returns a coupling that CouplingTree.__init__ built and
    # validated, and builds no other
    A, B = gen_random(2, 2, 1), gen_random(2, 2, 2)
    tree = gen_random(2, 3, 0)
    model = make_cost_model("linear", None, 2)
    direction = worst_case_direction(tree, sensitivity_terminal(tree, model, 2.0))
    colliding = tree.values.copy()
    kids = tree.children[tree.root]
    colliding[kids[1]] = colliding[kids[0]]
    causal = aw_distance(A, B, AWParams(2.0)).coupling
    runs = {
        "aw_distance": lambda: aw_distance(A, B, AWParams(2.0)).coupling,
        "product_coupling": lambda: product_coupling(A, B),
        "bicausalize": lambda: bicausalize(causal, 0.05)[0],
        "brute_force_bicausal": lambda: brute_force_bicausal(A, B, AWParams(2.0)).coupling,
        "perturbed_model_with_coupling":
            lambda: perturbed_model_with_coupling(tree, direction, 0.05)[1],
        "displace": lambda: displace(tree, colliding, 1e-3)[1],
    }
    built = []
    init = CouplingTree.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    with mock.patch.object(CouplingTree, "__init__", spy):
        for name, run in runs.items():
            built.clear()
            coupling = run()
            assert isinstance(coupling, CouplingTree), name
            assert len(built) == 1 and built[0] is coupling, name
