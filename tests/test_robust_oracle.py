import math
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest

from awsens import (
    AWParams,
    ControlBounds,
    InvalidParams,
    NonFinite,
    RobustQuery,
    aw_distance,
    aw_pth_power,
    ball_membership,
    build_utility_cost,
    gen_binomial,
    gen_random,
    make_cost_model,
    make_utility_model,
    perturbed_model,
    perturbed_model_with_coupling,
    robust_curve,
    sensitivity_terminal,
    solve_stopping,
    tree_from_nested,
    utility_first_order,
    worst_case_direction,
)
from awsens import adapted_wasserstein, discrete_ot
from awsens.robust_oracle import _Ascent
from awsens.sensitivity import WorstCaseDirection, first_order

RADII = (1e-4, 1e-3, 1e-2, 1e-1)


def test_query_validation(iid_signs):
    m = make_cost_model("linear", {"coeffs": [0.0, 1.0]}, 2)
    with pytest.raises(InvalidParams):
        RobustQuery("terminal", iid_signs, m, 2.0, (1e-1, 1e-2))  # not ascending
    with pytest.raises(InvalidParams):
        RobustQuery("terminal", iid_signs, m, 2.0, ())
    with pytest.raises(InvalidParams):
        RobustQuery("nonsense", iid_signs, m, 2.0, RADII)
    with pytest.raises(InvalidParams):
        RobustQuery("stopping", iid_signs, m, 2.0, RADII)  # kind mismatch
    cm = make_cost_model("quadratic_control", {}, 2)
    with pytest.raises(InvalidParams):
        RobustQuery("controlled", iid_signs, cm, 2.0, RADII)  # missing bounds


def _query(iid_signs, problem_class="terminal", **fields):
    name = {"terminal": "linear", "stopping": "markov_payoff"}[problem_class]
    fields = {"p": 2.0, "radii": RADII, **fields}
    return RobustQuery(problem_class, iid_signs, make_cost_model(name, None, 2), **fields)


@pytest.mark.parametrize("call", [
    lambda tree: AWParams("2"),
    lambda tree: AWParams(None),
    lambda tree: sensitivity_terminal(tree, make_cost_model("linear", None, 2), "2"),
    lambda tree: first_order(tree, make_cost_model("linear", None, 2), None),
    lambda tree: utility_first_order(tree, make_utility_model({}, 2), ControlBounds(1.0), "2"),
    lambda tree: robust_curve(_query(tree, p="2")),
    lambda tree: robust_curve(_query(tree, restarts="2")),
    lambda tree: robust_curve(_query(tree, max_iters="3")),
    lambda tree: robust_curve(_query(tree, seed="3")),
    lambda tree: robust_curve(_query(tree, seed=-1)),
    lambda tree: robust_curve(_query(tree, "stopping", solver_tol="x")),
    lambda tree: solve_stopping(tree, make_cost_model("markov_payoff", None, 2), tol="x"),
    lambda tree: make_cost_model("markov_payoff", None, 2).eval(np.zeros(2), t="x"),
], ids=["AWParams-str", "AWParams-None", "sensitivity_terminal", "first_order",
        "utility_first_order", "p", "restarts", "max_iters", "seed-str", "seed-negative",
        "solver_tol", "solve_stopping", "stopping-stage"])
def test_public_number_arguments_raise_invalid_params(iid_signs, call):
    # each was a bare TypeError or ValueError before the number rules
    with pytest.raises(InvalidParams):
        call(iid_signs)


@pytest.mark.parametrize("radii", [(math.nan,), (1e-3, math.inf), (-math.inf, 1e-3),
                                   (1e-3, math.nan)])
def test_query_refuses_non_finite_radii(iid_signs, radii):
    # a NaN radius would give a NaN row, an infinite one a bare ValueError
    m = make_cost_model("linear", {"coeffs": [0.0, 1.0]}, 2)
    with pytest.raises(InvalidParams, match="finite"):
        RobustQuery("terminal", iid_signs, m, 2.0, radii)


def test_linear_instance_exact_at_every_radius(iid_signs):
    m = make_cost_model("linear", {"coeffs": [0.0, 1.0]}, 2)
    curve = robust_curve(RobustQuery("terminal", iid_signs, m, 2.0, RADII, seed=3))
    assert curve.first_order == pytest.approx(1.0, abs=1e-12)
    for row in curve.rows:
        assert row.converged
        assert row.lower_bound == pytest.approx(row.radius, abs=1e-9)
        assert row.seeded_value == pytest.approx(row.radius, abs=1e-9)
        assert row.lower_bound >= row.seeded_value - 1e-12
    assert curve.slope_estimate == pytest.approx(1.0, abs=1e-9)


def test_constant_cost_curve_is_flat(iid_signs):
    m = make_cost_model("quadratic_tracking", {"weights": [0.0, 0.0], "targets": [0.0, 0.0]}, 2)
    curve = robust_curve(RobustQuery("terminal", iid_signs, m, 2.0, (1e-3, 1e-2), max_iters=5))
    for row in curve.rows:
        assert row.lower_bound == pytest.approx(0.0, abs=1e-12)
        assert row.first_order_value == 0.0


def test_rows_monotone_and_inside_ball(iid_signs):
    m = make_cost_model("softplus_call", {"strike": 0.2, "sharpness": 1.5}, 2)
    curve = robust_curve(RobustQuery("terminal", iid_signs, m, 2.0, RADII, seed=1))
    lbs = [row.lower_bound for row in curve.rows]
    assert all(b >= a - 1e-12 for a, b in zip(lbs, lbs[1:]))
    for row in curve.rows:
        assert row.distance <= row.radius + 1e-8
        assert row.lower_bound >= row.seeded_value - 1e-12
        # re-audit the reported maximizer from its displacement
        from awsens.process_tree import Node, ScenarioTree

        nodes = [
            Node(nd.id, nd.time,
                 None if nd.parent is None else nd.value + row.displacement[nd.id],
                 nd.cond_prob, nd.parent)
            for nd in iid_signs.nodes
        ]
        rebuilt = ScenarioTree(2, nodes)
        ok, dist = ball_membership(iid_signs, rebuilt, 2.0, row.radius)
        assert ok
        assert dist == pytest.approx(row.distance, abs=1e-12)


def test_sandwich_against_first_order(iid_signs):
    for name, params in (
        ("quadratic_tracking", {"weights": [1.0, 0.6], "targets": [0.2, -0.1]}),
        ("exp_sum", {"beta": 0.4, "scale": 0.7}),
    ):
        m = make_cost_model(name, params, 2)
        curve = robust_curve(RobustQuery("terminal", iid_signs, m, 2.0, RADII, seed=2))
        for row in curve.rows:
            assert row.lower_bound >= row.seeded_value - 1e-12
            if row.radius <= 1e-2:
                assert row.lower_bound / row.radius <= curve.first_order * 1.02 + 1e-12
        assert curve.slope_estimate == pytest.approx(curve.first_order, rel=0.01)


def test_controlled_curve_slope():
    tree = gen_binomial(2, 0.0, 1.0, -1.0, 0.6, 0.0)
    u = make_utility_model(
        {"loss": {"name": "exponential", "params": {"rate": 1.0}},
         "payoff": {"name": "zero"}, "x0": 0.0},
        2,
    )
    cm = build_utility_cost(u, 2)
    curve = robust_curve(
        RobustQuery("controlled", tree, cm, 2.0, RADII, bounds=ControlBounds(10.0),
                    max_iters=15, seed=5)
    )
    assert curve.slope_estimate == pytest.approx(curve.first_order, rel=0.02)


def test_stopping_curve_slope(drifted_binomial):
    model = make_cost_model("markov_payoff", {"g": {"name": "identity"}}, 2)
    curve = robust_curve(
        RobustQuery("stopping", drifted_binomial, model, 2.0, RADII, max_iters=15, seed=6)
    )
    assert curve.first_order == pytest.approx(1.0, abs=1e-12)
    assert curve.slope_estimate == pytest.approx(1.0, rel=0.01)
    # at r = 0.1 the seeded shift ties the stopping rule; the ladder backs off
    assert curve.rows[-1].converged


def test_ball_membership_on_split_dirac(split_dirac_pair):
    P, Q = split_dirac_pair
    assert ball_membership(P, P, 2.0, 0.0) == (True, 0.0)
    ok_tight, dist = ball_membership(P, Q, 2.0, 1.4)
    assert not ok_tight
    assert dist == pytest.approx(math.sqrt(2.01), abs=1e-9)
    ok_loose, _ = ball_membership(P, Q, 2.0, 1.42)
    assert ok_loose


def test_perturbed_tree_passes_membership_with_repair_budget(iid_signs):
    m = make_cost_model("quadratic_tracking", {"weights": [1.0, 1.0], "targets": [0.4, 0.1]}, 2)
    rep = sensitivity_terminal(iid_signs, m, 2.0)
    wcd = worst_case_direction(iid_signs, rep)
    r, delta = 0.05, 0.0005
    moved = perturbed_model(iid_signs, wcd, r, delta=delta)
    ok, _ = ball_membership(iid_signs, moved, 2.0, r + delta * 2 ** 0.5 + 1e-8)
    assert ok


def test_csv_and_json_emission(iid_signs):
    m = make_cost_model("linear", {"coeffs": [0.0, 1.0]}, 2)
    curve = robust_curve(RobustQuery("terminal", iid_signs, m, 2.0, (1e-2, 1e-1)))
    csv = curve.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "r,lower_bound,seeded_value,r_times_V,distance_of_maximizer"
    assert len(lines) == 3
    assert float(lines[1].split(",")[0]) == 1e-2
    doc = curve.to_json_dict()
    assert doc["problem_class"] == "terminal"
    assert len(doc["rows"]) == 2
    assert doc["rows"][0]["r"] == 1e-2
    assert math.isfinite(doc["slope_estimate"])


def test_distance_audit_matches_direct_computation(split_dirac_pair):
    P, Q = split_dirac_pair
    params = AWParams(2.0)
    _, dist = ball_membership(P, Q, 2.0, 10.0)
    assert dist == aw_distance(P, Q, params).distance


def test_controlled_curve_solves_each_candidate_once(monkeypatch):
    from awsens import sensitivity

    solved = []
    real = sensitivity.solve_value

    def counting(tree, *args, **kwargs):
        solved.append(tree.paths.values.tobytes())
        return real(tree, *args, **kwargs)

    monkeypatch.setattr(sensitivity, "solve_value", counting)
    tree = gen_random(3, 3, 0)
    spec = {"loss": {"name": "exponential", "params": {"rate": 1.0}}, "payoff": {"name": "zero"}}
    radii = (1e-2, 1e-1)
    curve = robust_curve(RobustQuery("controlled", tree, make_cost_model("utility", spec, 3),
                                     2.0, radii, bounds=ControlBounds(10.0)))
    assert all(row.converged for row in curve.rows)
    # pinned to the ascent whose candidate solves start from the last
    # solve's policy and take Newton steps from the first iteration:
    # reusing solves must not move a bit
    assert [row.lower_bound for row in curve.rows] == [0.046900258059327626, 0.3798415552574398]
    counts = Counter(solved)
    assert counts[tree.paths.values.tobytes()] == 1  # the base, for value and sensitivity
    # no candidate is solved twice, not even the previous radius's maximizer
    # that seeds the next radius
    assert all(a != b for a, b in zip(solved, solved[1:]))
    assert len(solved) == len(counts)


def test_last_stage_plans_are_built_once_per_sibling_order(monkeypatch):
    # every ball check of a curve pass measures a candidate of the base
    # structure whose siblings keep the base's order, so one north-west
    # walk per last-stage chunk serves all of them; another order replaces
    # the kept plans, and trees of different structures keep none.  The
    # checks run the full recursion here: the certified path, which runs
    # the same last stage, is switched off
    monkeypatch.setattr(adapted_wasserstein, "_certified_pth_power", lambda P, Q, p: None)
    tree = gen_random(3, 3, 0)
    models = {"terminal": make_cost_model("linear", None, 3),
              "stopping": make_cost_model("markov_payoff", {"g": {"name": "identity"}}, 3)}
    with mock.patch.object(adapted_wasserstein, "_northwest_batch",
                           wraps=adapted_wasserstein._northwest_batch) as walks, \
            mock.patch.object(adapted_wasserstein, "_recursion",
                              wraps=adapted_wasserstein._recursion) as recursions:
        for kind, model in models.items():
            robust_curve(RobustQuery(kind, tree, model, 2.0, (1e-3, 1e-2, 1e-1)))
        assert (walks.call_count, recursions.call_count) == (1, 175)
        swapped = tree.values.copy()
        leaves = list(tree.children[tree.levels[2][0]])
        swapped[leaves] = swapped[leaves[::-1]]
        params = AWParams(2.0)
        for Q, calls in ((tree.with_values(swapped), 2), (tree, 3),
                         (tree.with_values(tree.values + 2.0**-20), 3),
                         (gen_random(3, 3, 0), 4), (gen_random(3, 3, 0), 5)):
            aw_pth_power(tree, Q, params)
            assert walks.call_count == calls
        # a last stage of more than _BATCH_CELLS cells (729 here) keeps no
        # plans: every recursion walks once per chunk of one x family
        monkeypatch.setattr(adapted_wasserstein, "_BATCH_CELLS", 81)
        small, walked, recursed = gen_random(3, 3, 0), walks.call_count, recursions.call_count
        robust_curve(RobustQuery("terminal", small, models["terminal"], 2.0, (1e-3, 1e-2, 1e-1)))
        assert walks.call_count - walked == (recursions.call_count - recursed) * len(small.levels[2])
        assert not any(key[0] == "plans" for key in small._shared)


def test_candidates_share_the_base_structure(monkeypatch):
    # on a curve without bicausal repairs, no candidate goes through the
    # validating constructor or builds Node records, the families' weight
    # checks run once per curve for the base and every candidate together
    # (once per size class at every level), the batched last stage checks
    # no weights again, and no ball check is solved twice
    from awsens import (ScenarioTree, adapted_wasserstein, discrete_ot, process_tree,
                        robust_oracle, sensitivity)

    counts = Counter()

    def counting(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ScenarioTree, "__init__", counting("constructed", ScenarioTree.__init__))
    monkeypatch.setattr(ScenarioTree, "with_values",
                        counting("with_values", ScenarioTree.with_values))
    monkeypatch.setattr(adapted_wasserstein, "check_weights",
                        counting("family checks", adapted_wasserstein.check_weights))
    monkeypatch.setattr(sensitivity, "_bicausalize_pairs",
                        counting("repairs", sensitivity._bicausalize_pairs))
    monkeypatch.setattr(discrete_ot, "check_weights",
                        counting("batch checks", discrete_ot.check_weights))
    monkeypatch.setattr(process_tree, "Node", counting("Node records", process_tree.Node))
    checked = []
    real_pth = robust_oracle.aw_pth_power

    def recording(P, Q, params):
        checked.append(Q.paths.values.tobytes())
        return real_pth(P, Q, params)

    monkeypatch.setattr(robust_oracle, "aw_pth_power", recording)
    for kind, name, spec, checks in (("terminal", "linear", None, 76),
                                     ("stopping", "markov_payoff", {"g": {"name": "identity"}}, 99)):
        fresh = gen_random(3, 3, 0)  # so no cache is left from a previous curve
        counts.clear()
        checked.clear()
        robust_curve(RobustQuery(kind, fresh, make_cost_model(name, spec, 3), 2.0,
                                 (1e-3, 1e-2, 1e-1)))
        assert counts["repairs"] == 0 and counts["constructed"] == 0
        assert counts["with_values"] > 100
        assert counts["family checks"] == sum(len(fresh._sibling_groups(t)) for t in range(3))
        assert counts["batch checks"] == 0 and counts["Node records"] == 0
        assert len(checked) == len(set(checked)) == checks


@pytest.mark.parametrize("offset", [0.0, -4.0, -2.5, 1.25, 3.875])
def test_identity_bound_accepts_every_structure_keeping_fit(offset, monkeypatch):
    # the identity bound accepts at the exact test's slack, so on these
    # curves a structure-keeping candidate is solved exactly only to be
    # shrunk again; the dyadic offsets translate the tree exactly, and the
    # maximizers the bound accepted still lie in the ball up to that slack
    solved, exact, bound = set(), [], []
    real_distance, real_shrink = _Ascent.distance, _Ascent.shrink_to_ball

    def distance(self, shifts, tree=None):
        solved.add(shifts.tobytes())
        return real_distance(self, shifts, tree)

    def shrink(self, shifts, r):
        solved.clear()
        fit = real_shrink(self, shifts, r)
        if fit is not None and fit[2]:
            (exact if fit[0].tobytes() in solved else bound).append(r)
        return fit

    monkeypatch.setattr(_Ascent, "distance", distance)
    monkeypatch.setattr(_Ascent, "shrink_to_ball", shrink)
    base = gen_random(3, 3, 0)
    tree = base.with_values(base.values + offset)
    for kind, model in (("terminal", make_cost_model("linear", None, 3)),
                        ("stopping", make_cost_model("markov_payoff",
                                                     {"g": {"name": "identity"}}, 3))):
        exact.clear()
        bound.clear()
        curve = robust_curve(RobustQuery(kind, tree, model, 2.0, (1e-3, 1e-2, 1e-1)))
        assert exact == [] and len(bound) > 50
        assert all(row.converged and row.distance <= row.radius * (1.0 + 1e-12)
                   for row in curve.rows)


def test_carried_solve_is_the_maximizers(monkeypatch):
    # the solve that travels with a radius's maximizer into the next radius
    # must be that maximizer's, wherever the ascent found it: a fresh solve
    # of the maximizer from the start its own solve had gives the same bits
    from awsens import robust_oracle

    real_solve = robust_oracle.class_solve
    starts = {}

    def recording(tree, *args, z0=None, **kwargs):
        starts[tree.paths.values.tobytes()] = z0
        return real_solve(tree, *args, z0=z0, **kwargs)

    checked = []
    real = _Ascent.run_radius

    def checking(self, r, zvec, extra_seeds, rng):
        best_val, best, best_sol, seeded = real(self, r, zvec, extra_seeds, rng)
        q = self.query
        tree = self.displace(best)[0]
        z0 = starts[tree.paths.values.tobytes()]
        fresh = real_solve(tree, q.model, q.bounds, q.solver_tol, check_convexity=False, z0=z0)
        checked.append((best_sol, best_val, fresh, z0))
        return best_val, best, best_sol, seeded

    monkeypatch.setattr(robust_oracle, "class_solve", recording)
    monkeypatch.setattr(_Ascent, "run_radius", checking)
    spec = {"loss": {"name": "exponential", "params": {"rate": 1.0}}, "payoff": {"name": "zero"}}
    robust_curve(RobustQuery("controlled", gen_random(3, 3, 0),
                             make_cost_model("utility", spec, 3), 2.0, (1e-2, 1e-1),
                             bounds=ControlBounds(10.0)))
    assert len(checked) == 2
    assert all(sol[0] == val == fresh[0] and sol[1].values.tobytes() == fresh[1].values.tobytes()
               for sol, val, fresh, _ in checked)
    # both maximizers were solved from a warm start
    assert all(z0 is not None for *_, z0 in checked)


@pytest.mark.parametrize("collide", [False, True])
def test_ascent_and_perturbed_model_build_the_same_tree(collide):
    if collide:  # siblings 0.2 apart, pushed together by opposite unit shifts
        tree = tree_from_nested(1, [(0.1, 0.5), (-0.1, 0.5)])
        values = np.zeros(len(tree.node_prob))
        values[list(tree.levels[1])] = [-1.0, 1.0]
        direction = WorstCaseDirection(2.0, 2.0, values, (1.0,), 1.0, 0.0, False)
        model, r = make_cost_model("linear", {"coeffs": [1.0]}, 1), 0.1
    else:
        tree = gen_random(3, 3, 5)
        model, r = make_cost_model("quadratic_tracking", None, 3), 0.05
        direction = worst_case_direction(tree, sensitivity_terminal(tree, model, 2.0))
    engine = _Ascent(RobustQuery("terminal", tree, model, 2.0, (r,)))
    shifts = r * direction.values[engine.vnodes]  # the ascent's seed
    got, same = engine.displace(shifts)
    # the ascent's repair resolution, handed to the library entry
    delta = max(float(np.max(np.abs(shifts))), 1e-12) * 1e-6
    want, _, delta_used = perturbed_model_with_coupling(tree, direction, r, delta=delta,
                                                        verify=False)
    assert same is not collide and (delta_used > 0.0) is collide
    assert got.horizon == want.horizon and got.nodes == want.nodes


def test_only_structure_keeping_candidates_start_warm(monkeypatch):
    # a repaired candidate's nodes are not the base tree's: its control solve
    # starts cold, and so does the next one, whose predecessor was repaired
    from awsens import robust_oracle

    starts = []
    real = robust_oracle.class_solve

    def recording(tree, *args, z0=None, **kwargs):
        starts.append(z0)
        return real(tree, *args, z0=z0, **kwargs)

    monkeypatch.setattr(robust_oracle, "class_solve", recording)
    tree = tree_from_nested(1, [(0.1, 0.5), (-0.1, 0.5)])
    model = make_cost_model("quadratic_control", {"targets": [0.5], "coeffs": [1.0]}, 1)
    engine = _Ascent(RobustQuery("controlled", tree, model, 2.0, (0.1,),
                                 bounds=ControlBounds(1.0)))
    sames, solved = [], []
    for shifts in ([0.01, 0.02], [0.02, 0.01], [-0.1, 0.1], [0.03, 0.0]):
        shifts = np.array(shifts)
        cand, same = engine.displace(shifts)
        sames.append(same)
        solved.append((cand, engine.try_solve(shifts, cand, same)))
    assert sames == [True, True, False, True]
    assert starts[0] is None and starts[2] is None and starts[3] is None
    cand, sol = solved[0]
    assert starts[1].tobytes() == sol[1].vector(cand).tobytes()


# lower_bound and distance per radius of robust_curve on gen_random(3, 3, 0),
# whose ball checks solve 3x3 interior transport problems one pair at a time
_PINNED_3X3 = {
    "terminal": (
        ("0x1.c60bf64b488a4p-10", "0x1.0624dd2f1aa02p-10"),
        ("0x1.1bc779ef0d4e2p-6", "0x1.47ae147ae1480p-7"),
        ("0x1.62b9586ad0a23p-3", "0x1.999999999999ap-4"),
    ),
    "stopping": (
        ("0x1.0624dd2f1a980p-10", "0x1.0624dd2f1a989p-10"),
        ("0x1.47ae147ae1480p-7", "0x1.47ae147ae1480p-7"),
        ("0x1.850219a1835a9p-4", "0x1.9999999999999p-4"),
    ),
}


@pytest.mark.parametrize("kind", sorted(_PINNED_3X3))
def test_curve_bits_with_per_pair_3x3_solves(kind, monkeypatch):
    # the same bits whether the ball checks take the certified path, with
    # no simplex solve, or the recursion, with per-pair 3x3 solves
    shapes = Counter()
    solve = discrete_ot.transport_simplex
    certified = adapted_wasserstein._certified_pth_power

    def counted(mu, nu, cost):
        shapes[cost.shape] += 1
        return solve(mu, nu, cost)

    monkeypatch.setattr(discrete_ot, "transport_simplex", counted)
    model = (make_cost_model("linear", None, 3) if kind == "terminal" else
             make_cost_model("markov_payoff", {"g": {"name": "identity"}}, 3))
    for route in (certified, lambda P, Q, p: None):
        shapes.clear()
        monkeypatch.setattr(adapted_wasserstein, "_certified_pth_power", route)
        curve = robust_curve(RobustQuery(kind, gen_random(3, 3, 0), model, 2.0,
                                         (1e-3, 1e-2, 1e-1)))
        got = tuple((row.lower_bound.hex(), row.distance.hex()) for row in curve.rows)
        assert got == _PINNED_3X3[kind]
        if route is certified:
            assert not shapes
        else:
            assert shapes[(3, 3)] > 0 and set(shapes) == {(3, 3)}


def test_every_curve_ball_check_is_certified(monkeypatch):
    # the curve's candidates keep the base structure and move it by small
    # shifts: every exact ball check of the terminal and stopping curves
    # takes the certified path, and none runs the recursion
    results = []
    certified = adapted_wasserstein._certified_pth_power

    def recording(P, Q, p):
        results.append(certified(P, Q, p))
        return results[-1]

    monkeypatch.setattr(adapted_wasserstein, "_certified_pth_power", recording)
    tree = gen_random(3, 3, 0)
    models = {"terminal": make_cost_model("linear", None, 3),
              "stopping": make_cost_model("markov_payoff", {"g": {"name": "identity"}}, 3)}
    with mock.patch.object(adapted_wasserstein, "_recursion",
                           wraps=adapted_wasserstein._recursion) as recursions:
        for kind, model in models.items():
            robust_curve(RobustQuery(kind, tree, model, 2.0, (1e-3, 1e-2, 1e-1)))
    assert len(results) == 175 and None not in results
    assert recursions.call_count == 0


def _plan_arrays(obj) -> list:
    """Every array of a check plan; its containers are tuples, its other
    entries floats."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, tuple):
        return [a for item in obj for a in _plan_arrays(item)]
    assert isinstance(obj, float)
    return []


def test_curve_ball_checks_read_one_check_plan_per_base(monkeypatch):
    # every ball check of the terminal curve reads the one plan of its base
    # tree, kept read-only in the base's per-tree cache; a second base of
    # the same structure with other values gets its own plan, and its
    # checks keep the recursion's bits
    plans = []
    real = adapted_wasserstein._check_plan

    def recording(P):
        plans.append((P, real(P)))
        return plans[-1][1]

    monkeypatch.setattr(adapted_wasserstein, "_check_plan", recording)
    tree = gen_random(3, 3, 0)
    robust_curve(RobustQuery("terminal", tree, make_cost_model("linear", None, 3), 2.0,
                             (1e-3, 1e-2, 1e-1)))
    assert len(plans) > 50 and all(P is tree for P, _ in plans)
    plan = tree._cache["check plan"]
    assert all(got is plan for _, got in plans)
    arrays = _plan_arrays(plan)
    assert len(arrays) == 4 + 5 * 2 and not any(a.flags.writeable for a in arrays)

    other = tree.with_values(tree.values * 1.5 + 0.25)
    for shift in (2.0**-12, -(2.0**-12), 0.01):
        cand = other.with_values(other.values + shift)
        got = aw_pth_power(other, cand, AWParams(2.0))
        assert got.hex() == adapted_wasserstein._recursion(other, cand, 2.0, None).hex()
    assert other._cache["check plan"] is not plan
    assert tree._cache["check plan"] is plan
    top, _, upper = other._cache["check plan"]
    assert top == float(np.abs(other.values).max()) != plan[0]
    for (_, kids, _, values, _), (*_, base_values, _) in zip(upper[0] + upper[1],
                                                             plan[2][0] + plan[2][1]):
        assert np.array_equal(values[:, :, 0], other.values[kids])
        assert not np.array_equal(values, base_values)


def test_overflowing_model_stops_before_the_ascent(iid_signs):
    # exp(800 x) overflows on the tree: the curve raises NonFinite once the
    # base value is infinite, with no ball check and none of the ascent's
    # warnings (its step divides by the gradient's largest entry)
    from awsens import robust_oracle

    model = make_cost_model("exp_sum", {"beta": 800.0}, 2)
    with mock.patch.object(robust_oracle, "aw_pth_power") as checks, \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NonFinite, match="base_value is inf"):
            robust_curve(RobustQuery("terminal", iid_signs, model, 2.0, (1e-3, 1e-2)))
    assert checks.call_count == 0
    assert caught and all("overflow encountered in exp" in str(w.message) for w in caught)
