"""Acceptance criteria, one test per criterion.

Every test prints a single PASS line with the measured quantities so a full
run doubles as an audit record.  Tolerances are pinned here and nowhere
else; trees stay at desk scale (at most 64 leaves).
"""

import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from awsens import (
    AmbiguousStopping,
    AWParams,
    ControlBounds,
    FlatStep,
    Node,
    RobustQuery,
    ScenarioTree,
    aw_distance,
    audit_derivatives,
    ball_membership,
    bicausalize,
    brute_force_bicausal,
    brute_force_stopping,
    brute_force_value,
    build_utility_cost,
    catalog_names,
    check_causal,
    flat_wasserstein,
    gen_binomial,
    gen_random,
    is_isomorphic,
    make_cost_model,
    make_utility_model,
    perturbed_model_with_coupling,
    robust_curve,
    sensitivity_control,
    sensitivity_stopping,
    sensitivity_terminal,
    solve_stopping,
    solve_value,
    tree_from_nested,
    uniqueness_spread,
    utility_first_order,
    worst_case_direction,
)
from awsens.multistage_opt import _variable_layout

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
P2 = AWParams(2.0)
RADII = (1e-4, 1e-3, 1e-2, 1e-1)


def iid_signs_tree():
    return tree_from_nested(
        2,
        [
            (1.0, 0.5, [(1.0, 0.5), (-1.0, 0.5)]),
            (-1.0, 0.5, [(1.0, 0.5), (-1.0, 0.5)]),
        ],
    )


def split_dirac_trees():
    P = tree_from_nested(2, [(0.0, 1.0, [(1.0, 0.5), (-1.0, 0.5)])])
    Q = tree_from_nested(2, [(0.1, 0.5, [(1.0, 1.0)]), (-0.1, 0.5, [(-1.0, 1.0)])])
    return P, Q


def test_acceptance_1_adapted_distance_correctness():
    worst = 0.0
    for k in range(200):
        A = gen_random(2, 2, 100_000 + k)
        B = gen_random(2, 2, 200_000 + k)
        gap = abs(aw_distance(A, B, P2).pth_power - brute_force_bicausal(A, B, P2).pth_power)
        worst = max(worst, gap)
    assert worst <= 1e-7

    worst_flat = 0.0
    for k in range(50):
        A = gen_random(1, 3, 300_000 + k)
        B = gen_random(1, 3, 400_000 + k)
        worst_flat = max(
            worst_flat,
            abs(aw_distance(A, B, P2).distance - flat_wasserstein(A, B, P2)[0]),
        )
    assert worst_flat <= 1e-10

    P, Q = split_dirac_trees()
    nested = aw_distance(P, Q, P2).distance
    flat = flat_wasserstein(P, Q, P2)[0]
    assert nested == pytest.approx(math.sqrt(2.01), abs=1e-9)
    assert flat == pytest.approx(0.1, abs=1e-10)
    print(
        f"\nACCEPT 1 PASS: oracle gap {worst:.2e} over 200 pairs; flat gap {worst_flat:.2e}; "
        f"fixture nested {nested:.9f} vs flat {flat:.3f}"
    )


def test_acceptance_2_metric_axioms():
    sym_worst = 0.0
    tri_worst = 0.0
    for k in range(500):
        A = gen_random(2, 2, 500_000 + k)
        B = gen_random(2, 2, 600_000 + k)
        C = gen_random(2, 2, 700_000 + k)
        ab = aw_distance(A, B, P2).distance
        ba = aw_distance(B, A, P2).distance
        ac = aw_distance(A, C, P2).distance
        cb = aw_distance(C, B, P2).distance
        sym_worst = max(sym_worst, abs(ab - ba))
        tri_worst = max(tri_worst, ab - (ac + cb))
        assert ab > 0.0 and not is_isomorphic(A, B)
    assert sym_worst <= 1e-9
    assert tri_worst <= 1e-8
    # indiscernibles: zero distance on an isomorphic relabeling, and self-distance zero
    A = gen_random(2, 2, 42)
    relabeled = tree_from_nested(
        2,
        [
            (
                A.nodes[nid].value,
                A.nodes[nid].cond_prob,
                [(A.nodes[c].value, A.nodes[c].cond_prob) for c in A.children[nid]],
            )
            for nid in reversed(A.levels[1])
        ],
    )
    assert is_isomorphic(A, relabeled)
    assert aw_distance(A, relabeled, P2).distance == pytest.approx(0.0, abs=1e-12)
    assert aw_distance(A, A, P2).distance == 0.0
    print(
        f"\nACCEPT 2 PASS: symmetry {sym_worst:.2e}, triangle slack {tri_worst:.2e}, "
        "identity of indiscernibles on 500 triples"
    )


TERMINAL_INSTANCES = [
    ("linear", {"coeffs": [0.0, 1.0]}),
    ("quadratic_tracking", {"weights": [1.0, 0.6], "targets": [0.2, -0.1]}),
    ("exp_sum", {"beta": 0.4, "scale": 0.7}),
    ("softplus_call", {"strike": 0.25, "sharpness": 1.3}),
    ("coordinate_product", {}),
    ("quadratic_tracking", {"weights": [0.5, 1.5], "targets": [-0.3, 0.4]}),
]


def test_acceptance_3_terminal_expansion():
    tree = iid_signs_tree()
    lines = []
    for k, (name, params) in enumerate(TERMINAL_INSTANCES):
        model = make_cost_model(name, params, 2)
        rep = sensitivity_terminal(tree, model, 2.0)
        curve = robust_curve(
            RobustQuery("terminal", tree, model, 2.0, RADII, seed=k, max_iters=25)
        )
        rel = abs(curve.slope_estimate - rep.first_order) / max(rep.first_order, 1e-12)
        assert rel <= 0.01, (name, curve.slope_estimate, rep.first_order)
        lines.append(f"{name}: slope {curve.slope_estimate:.6f} vs V {rep.first_order:.6f}")
        if name == "linear":
            for row in curve.rows:
                assert abs(row.lower_bound - row.radius * rep.first_order) <= 1e-9
    print("\nACCEPT 3 PASS: " + "; ".join(lines))


CONTROLLED_INSTANCES = [
    ("quadratic_control", {"targets": [0.3, -0.2], "coeffs": [0.5, 1.0]}, None),
    (
        "utility",
        {
            "loss": {"name": "exponential", "params": {"rate": 1.0}},
            "payoff": {"name": "zero"},
            "x0": 0.0,
        },
        None,
    ),
    (
        "utility",
        {
            "loss": {"name": "quadratic"},
            "payoff": {"name": "softplus_call", "params": {"strike": 0.0, "sharpness": 1.0}},
            "x0": 0.0,
        },
        None,
    ),
]


def test_acceptance_4_controlled_expansion():
    tree = gen_binomial(2, 0.0, 1.0, -1.0, 0.6, 0.0)
    bounds = ControlBounds(10.0)
    lines = []
    for k, (name, params, _) in enumerate(CONTROLLED_INSTANCES):
        model = make_cost_model(name, params, 2)
        rep = solve_value(tree, model, bounds)
        # grid agreement: the grid minimum is sandwiched between the solver
        # value and the value at the grid point nearest the solver's policy
        grid_n = 41
        grid_val = brute_force_value(tree, model, bounds, grid_n)
        ids, aidx = _variable_layout(tree)
        zstar = np.array([rep.policy.values[n] for n in ids])
        grid = np.linspace(-bounds.L, bounds.L, grid_n)
        snapped = grid[np.argmin(np.abs(grid[None, :] - zstar[:, None]), axis=1)]
        xs, w = tree.paths.values, tree.paths.probs
        snap_val = float(w @ model.value_fn(xs, snapped[aidx]))
        assert rep.value - 1e-9 <= grid_val <= snap_val + 1e-12
        spread = uniqueness_spread(tree, model, bounds, restarts=16, seed=17 + k)
        assert spread <= 1e-6
        sens, _ = sensitivity_control(tree, model, bounds, 2.0)
        curve = robust_curve(
            RobustQuery(
                "controlled", tree, model, 2.0, RADII, bounds=bounds, seed=31 + k, max_iters=20
            )
        )
        rel = abs(curve.slope_estimate - sens.first_order) / max(sens.first_order, 1e-12)
        assert rel <= 0.02, (name, curve.slope_estimate, sens.first_order)
        lines.append(
            f"{name}[{k}]: grid gap {grid_val - rep.value:.2e} <= {snap_val - rep.value:.2e}, "
            f"spread {spread:.1e}, slope {curve.slope_estimate:.6f} vs V {sens.first_order:.6f}"
        )
    print("\nACCEPT 4 PASS: " + "; ".join(lines))


def _dyadic_translate(tree, offset):
    return ScenarioTree(tree.horizon, [
        Node(n.id, n.time, None if n.parent is None else n.value + offset, n.cond_prob, n.parent)
        for n in tree.nodes
    ])


WARM_START_QUERIES = [
    (name, params, gen_binomial(2, 0.0, 1.0, -1.0, 0.6, 0.0), RADII, 31 + k, 20)
    for k, (name, params, _) in enumerate(CONTROLLED_INSTANCES)
] + [
    # the benchmark's hedge query at seeds 0 and 97: gen_random(3, 3, 0)
    # translated by the seed's dyadic offset, which x0 follows
    ("utility", {"loss": {"name": "exponential", "params": {"rate": 1.0}},
                 "payoff": {"name": "zero"}, "x0": off},
     _dyadic_translate(gen_random(3, 3, 0), off), (1e-2, 1e-1), 0, 25)
    for off in (-3.962890625, 1.634765625)
]


@pytest.mark.parametrize("name, params, tree, radii, seed, max_iters", WARM_START_QUERIES,
                         ids=["acc4-0", "acc4-1", "acc4-2", "hedge-seed0", "hedge-seed97"])
def test_acceptance_4_warm_started_curve_matches_cold(monkeypatch, name, params, tree, radii,
                                                      seed, max_iters):
    """Candidate solves in the ascent start from the last solve's policy.

    Every solve ends at the same KKT test as a cold start, so the values
    agree to the solver tolerance; the ascent path can then differ in its
    accept decisions.  The cold curve itself moves by up to 6e-8 relative
    when the same problem is merely translated (the hedge query at seeds 0
    and 97 against gen_random(3, 3, 0)), so 1e-7 relative is the bound.
    The base solve starts cold, so the base value and the first-order
    term agree exactly."""
    from awsens import robust_oracle

    query = RobustQuery("controlled", tree, make_cost_model(name, params, tree.horizon), 2.0,
                        radii, bounds=ControlBounds(10.0), seed=seed, max_iters=max_iters)
    warm = robust_curve(query)
    real = robust_oracle.class_solve
    monkeypatch.setattr(robust_oracle, "class_solve",
                        lambda *args, z0=None, **kwargs: real(*args, **kwargs))
    cold = robust_curve(query)
    assert warm.base_value == cold.base_value
    assert warm.first_order == cold.first_order
    for w, c in zip(warm.rows, cold.rows, strict=True):
        assert w.converged and c.converged
        assert w.lower_bound == pytest.approx(c.lower_bound, rel=1e-7, abs=0.0)
        assert w.distance <= w.radius * (1.0 + 1e-12)


def test_acceptance_5_utility_formula_consistency():
    losses = [
        ("quadratic", {}),
        ("exponential", {"rate": 0.5}),
        ("smoothed_power", {"exponent": 3.0}),
    ]
    payoffs = [
        ("zero", {}),
        ("linear", {"coeffs": [0.3, -0.2]}),
        ("mean", {}),
        ("softplus_call", {"strike": 0.1, "sharpness": 1.0}),
        ("final_value", {"scale": 0.8}),
    ]
    worst = 0.0
    for k in range(50):
        tree = gen_random(2, 2, 800_000 + k)
        lname, lparams = losses[k % len(losses)]
        pname, pparams = payoffs[k % len(payoffs)]
        u = make_utility_model(
            {"loss": {"name": lname, "params": lparams},
             "payoff": {"name": pname, "params": pparams},
             "x0": 5.0},
            2,
        )
        cm = build_utility_cost(u, 2)
        a, _ = sensitivity_control(tree, cm, ControlBounds(5.0), 2.0)
        b, _ = utility_first_order(tree, u, ControlBounds(5.0), 2.0)
        worst = max(worst, abs(a.first_order - b.first_order) / max(abs(b.first_order), 1e-12))
    assert worst <= 1e-8
    flat = tree_from_nested(2, [(0.5, 1.0, [(0.5, 0.5), (1.5, 0.5)])])
    u0 = make_utility_model(
        {"loss": {"name": "quadratic"}, "payoff": {"name": "zero"}, "x0": 0.0}, 2
    )
    with pytest.raises(FlatStep):
        utility_first_order(flat, u0, ControlBounds(5.0), 2.0)
    print(f"\nACCEPT 5 PASS: worst relative gap {worst:.2e} over 50 instances; FlatStep raised")


def test_acceptance_6_stopping_expansion():
    # oracle equivalence on 200 random instances
    worst = 0.0
    policy_checks = 0
    gcat = [
        {"g": {"name": "quadratic", "params": {"center": 0.2, "weight": 1.1}}},
        {"g": {"name": "sin", "params": {"amplitude": 1.2, "frequency": 0.9}}},
        {"g": {"name": "linear", "params": {"slope": -0.8, "intercept": 0.1}}},
    ]
    for k in range(200):
        tree = gen_random(2, 2, 900_000 + k)
        model = make_cost_model("markov_payoff", gcat[k % 3], 2)
        try:
            value, policy, table = solve_stopping(tree, model)
        except AmbiguousStopping:
            continue
        bvalue, bpolicy, _ = brute_force_stopping(tree, model)
        worst = max(worst, abs(value - bvalue))
        if table.uniqueness_margin > 1e-9:
            assert policy.stop_set == bpolicy.stop_set
            policy_checks += 1
    assert worst <= 1e-12
    assert policy_checks >= 150

    martingale = gen_binomial(2, 0.0, 1.0, -1.0, 0.5, 0.0)
    identity = make_cost_model("markov_payoff", {"g": {"name": "identity"}}, 2)
    with pytest.raises(AmbiguousStopping):
        solve_stopping(martingale, identity)

    drifted = gen_binomial(2, 0.1, 1.0, -1.0, 0.5, -0.1)
    rep, tau = sensitivity_stopping(drifted, identity, 2.0)
    assert rep.first_order == pytest.approx(1.0, abs=1e-12)
    curve = robust_curve(RobustQuery("stopping", drifted, identity, 2.0, RADII, max_iters=20))
    assert abs(curve.slope_estimate - 1.0) <= 0.01

    # Markovian shortcut equals the general conditional formula
    shortcut_worst = 0.0
    for k in range(40):
        tree = gen_random(2, 2, 950_000 + k)
        model = make_cost_model("markov_payoff", gcat[k % 3], 2)
        try:
            rep_k, tau_k = sensitivity_stopping(tree, model, 2.0)
        except AmbiguousStopping:
            continue
        gname = gcat[k % 3]["g"]
        from awsens.cost_models import make_scalar_payoff

        _, dg, _ = make_scalar_payoff(gname["name"], gname.get("params"))
        xs = tree.paths.values
        probs = tree.paths.probs
        taus = np.array([tau_k[leaf] for leaf in tree.leaves])
        xtau = xs[np.arange(len(taus)), taus - 1]
        shortcut = float(probs @ np.abs(dg(xtau)) ** 2) ** 0.5
        shortcut_worst = max(shortcut_worst, abs(rep_k.first_order - shortcut))
    assert shortcut_worst <= 1e-10
    print(
        f"\nACCEPT 6 PASS: oracle gap {worst:.1e}, {policy_checks} policy matches, ambiguity "
        f"raised, drifted slope {curve.slope_estimate:.6f}, shortcut gap {shortcut_worst:.1e}"
    )


def test_acceptance_7_dual_direction_and_perturbation():
    report_count = 0
    for p in (1.5, 2.0, 3.0):
        for k in range(34):
            tree = gen_random(2, 2, 50_000 + k)
            name, params = TERMINAL_INSTANCES[k % len(TERMINAL_INSTANCES)]
            model = make_cost_model(name, params, 2)
            rep = sensitivity_terminal(tree, model, p)
            wcd = worst_case_direction(tree, rep)
            if rep.first_order <= 1e-12:
                assert wcd.degenerate
                continue
            assert abs(wcd.pairing - rep.first_order) <= 1e-9
            assert abs(wcd.norm_check - 1.0) <= 1e-9
            report_count += 1
    assert report_count >= 100

    # perturbed trees live inside their prescribed ball and stay bicausal
    for k in range(10):
        tree = gen_random(2, 2, 60_000 + k)
        model = make_cost_model("quadratic_tracking",
                                {"weights": [1.0, 0.7], "targets": [0.1, -0.4]}, 2)
        rep = sensitivity_terminal(tree, model, 2.0)
        wcd = worst_case_direction(tree, rep)
        r = 0.05
        delta = r / 100.0
        moved, coupling, delta_used = perturbed_model_with_coupling(tree, wcd, r, delta=delta)
        ok, dist = ball_membership(tree, moved, 2.0, r + delta_used * 2 ** 0.5 + 1e-8)
        assert ok, dist
        assert check_causal(coupling, "x_to_y") and check_causal(coupling, "y_to_x")
    print(f"\nACCEPT 7 PASS: {report_count} reports satisfy both dual equalities at p in "
          "{1.5, 2, 3}; 10 perturbed trees pass membership and bicausality")


def test_acceptance_8_discrete_bicausalization():
    from pair_records import PairNode, coupling_of, records

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
    coupling = coupling_of(P, Q, pairs)
    assert check_causal(coupling, "x_to_y") and not check_causal(coupling, "y_to_x")
    delta = 0.05
    fixed, Qd = bicausalize(coupling, delta)
    assert check_causal(fixed, "x_to_y") and check_causal(fixed, "y_to_x")
    moved = 0.0
    # each x node appears in exactly one pair here, so it identifies the
    # original y value the perturbed one must stay close to
    orig_y = {pn.x_node: Q.nodes[pn.y_node].value
              for pn in records(coupling) if pn.parent is not None}
    for pn in records(fixed):
        if pn.parent is None:
            continue
        moved = max(moved, abs(Qd.nodes[pn.y_node].value - orig_y[pn.x_node]))
    assert moved <= delta
    print(f"\nACCEPT 8 PASS: causal-only coupling repaired; max displacement {moved:.3f} <= "
          f"delta {delta}")


def test_acceptance_9_derivative_hygiene():
    worst = 0.0
    for name in catalog_names():
        params = {}
        if name == "utility":
            params = {
                "loss": {"name": "smoothed_power", "params": {"exponent": 3.0}},
                "payoff": {"name": "softplus_call", "params": {"strike": 0.2}},
                "x0": 0.4,
            }
        if name == "markov_payoff":
            params = {"g": {"name": "sin", "params": {"amplitude": 1.5, "frequency": 0.7}}}
        model = make_cost_model(name, params, 3)
        worst = max(worst, audit_derivatives(model, n_draws=1000, seed=123))
    assert worst <= 1e-6
    print(f"\nACCEPT 9 PASS: worst relative derivative error {worst:.2e} over "
          f"{len(catalog_names())} catalog entries x 1000 draws")


def test_acceptance_10_cli_determinism(tmp_path):
    def run(tag: str):
        outs = {}
        base = [sys.executable, "-m", "awsens.cli"]
        aw_out = tmp_path / f"aw_{tag}.json"
        subprocess.run(
            base + ["aw", str(FIXTURES / "split_dirac_p.json"),
                    str(FIXTURES / "split_dirac_q.json"), "--p", "2.0",
                    "--out", str(aw_out)],
            check=True, capture_output=True, timeout=300,
        )
        outs["aw"] = aw_out.read_bytes()
        for cmd, tree, cfg in (
            ("sens", "iid_signs.json", "config_sens_linear.json"),
            ("stop", "drifted_binomial.json", "config_stop_identity.json"),
            ("value", "drifted_binomial.json", "config_value_hedge.json"),
        ):
            out = tmp_path / f"{cmd}_{tag}.json"
            subprocess.run(
                base + [cmd, str(FIXTURES / tree), "--config", str(FIXTURES / cfg),
                        "--out", str(out)],
                check=True, capture_output=True, timeout=300,
            )
            outs[cmd] = out.read_bytes()
        csv = tmp_path / f"curve_{tag}.csv"
        js = tmp_path / f"curve_{tag}.json"
        subprocess.run(
            base + ["curve", str(FIXTURES / "iid_signs.json"),
                    "--config", str(FIXTURES / "config_sens_linear.json"),
                    "--out-csv", str(csv), "--out-json", str(js)],
            check=True, capture_output=True, timeout=300,
        )
        outs["curve_csv"] = csv.read_bytes()
        outs["curve_json"] = js.read_bytes()
        return outs

    first = run("a")
    expected = {
        "aw": "aw_split_dirac.json",
        "sens": "sens_linear.json",
        "stop": "stop_drifted.json",
        "value": "value_hedge.json",
        "curve_csv": "curve_linear.csv",
        "curve_json": "curve_linear.json",
    }
    for key, fname in expected.items():
        assert first[key] == (FIXTURES / "expected" / fname).read_bytes(), key
    again = run("b")
    assert again == first
    print("\nACCEPT 10 PASS: committed bytes reproduced, and again on a second run")
