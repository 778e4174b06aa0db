"""Regenerate the committed fixture trees, configs and expected outputs.

Run from the repository root:

    python fixtures/generate.py

Expected outputs are produced by the CLI itself; committing them pins the
byte-level behavior that the determinism tests and the acceptance suite
check against.
"""

import json
import pathlib
import sys

from awsens import gen_binomial, tree_from_nested
from awsens.cli import main, serialize_tree

HERE = pathlib.Path(__file__).resolve().parent


def write_json(path: pathlib.Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def build_trees() -> None:
    split_p = tree_from_nested(2, [(0.0, 1.0, [(1.0, 0.5), (-1.0, 0.5)])])
    split_q = tree_from_nested(2, [(0.1, 0.5, [(1.0, 1.0)]), (-0.1, 0.5, [(-1.0, 1.0)])])
    iid_signs = tree_from_nested(
        2,
        [
            (1.0, 0.5, [(1.0, 0.5), (-1.0, 0.5)]),
            (-1.0, 0.5, [(1.0, 0.5), (-1.0, 0.5)]),
        ],
    )
    drifted = gen_binomial(T=2, start=0.1, up=1.0, down=-1.0, p_up=0.5, drift=-0.1)
    for name, tree in (("split_dirac_p", split_p), ("split_dirac_q", split_q),
                       ("iid_signs", iid_signs), ("drifted_binomial", drifted)):
        (HERE / f"{name}.json").write_text(serialize_tree(tree), encoding="utf-8")


def build_configs() -> None:
    write_json(
        HERE / "config_sens_linear.json",
        {
            "problem_class": "terminal",
            "model": {"name": "linear", "params": {"coeffs": [0.0, 1.0]}},
            "p": 2.0,
            "radii": [1e-4, 1e-3, 1e-2, 1e-1],
            "seed": 0,
        },
    )
    write_json(
        HERE / "config_stop_identity.json",
        {
            "problem_class": "stopping",
            "model": {"name": "markov_payoff", "params": {"g": {"name": "identity"}}},
            "p": 2.0,
            "radii": [1e-4, 1e-3, 1e-2, 1e-1],
            "seed": 0,
        },
    )
    write_json(
        HERE / "config_value_hedge.json",
        {
            "problem_class": "controlled",
            "model": {
                "name": "utility",
                "params": {
                    "loss": {"name": "exponential", "params": {"rate": 1.0}},
                    "payoff": {"name": "zero"},
                    "x0": 0.0,
                },
            },
            "p": 2.0,
            "bounds": {"L": 10.0},
            "radii": [1e-3, 1e-2, 1e-1],
            "seed": 0,
            "ascent": {"restarts": 2, "max_iters": 15},
        },
    )


def build_expected() -> None:
    exp = HERE / "expected"
    exp.mkdir(exist_ok=True)
    runs = [
        (
            ["aw", str(HERE / "split_dirac_p.json"), str(HERE / "split_dirac_q.json"),
             "--p", "2.0", "--out", str(exp / "aw_split_dirac.json")],
            None,
        ),
        (
            ["sens", str(HERE / "iid_signs.json"),
             "--config", str(HERE / "config_sens_linear.json"),
             "--out", str(exp / "sens_linear.json")],
            None,
        ),
        (
            ["stop", str(HERE / "drifted_binomial.json"),
             "--config", str(HERE / "config_stop_identity.json"),
             "--out", str(exp / "stop_drifted.json")],
            None,
        ),
        (
            ["value", str(HERE / "drifted_binomial.json"),
             "--config", str(HERE / "config_value_hedge.json"),
             "--out", str(exp / "value_hedge.json")],
            None,
        ),
        (
            ["curve", str(HERE / "iid_signs.json"),
             "--config", str(HERE / "config_sens_linear.json"),
             "--out-csv", str(exp / "curve_linear.csv"),
             "--out-json", str(exp / "curve_linear.json")],
            None,
        ),
    ]
    for argv, _ in runs:
        code = main(argv)
        if code != 0:
            raise SystemExit(f"fixture run failed: {argv} -> {code}")


if __name__ == "__main__":
    build_trees()
    build_configs()
    build_expected()
    print("fixtures regenerated", file=sys.stderr)
