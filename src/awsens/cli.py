"""Tree file schema, run configuration and the command-line surface.

Trees travel as JSON (schema "aw-tree/1"): tiny files whose diffability in
fixtures matters more than speed.  Floats are written with 17 significant
digits so parse(serialize(tree)) reproduces every node bit for bit.  All
commands are deterministic given the config seed; outputs are byte-stable
across runs.

At module level this file imports only ``errors`` and the standard library,
so that the parser is built and the arguments are checked before numpy
loads; each command imports the modules it runs, before it reads a file.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import AwsensError, InvalidParams, InvalidTree, NonFinite, is_number

if TYPE_CHECKING:
    from .adapted_wasserstein import CouplingTree
    from .cost_models import CostModel
    from .process_tree import ScenarioTree

TREE_SCHEMA = "aw-tree/1"


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def serialize_tree(tree: ScenarioTree) -> str:
    cols = zip(tree.parent.tolist(), tree.time.tolist(), tree.values.tolist(),
               tree.cond_prob.tolist())
    rows = (f'    {{"id": {k}, "parent": {"null" if par < 0 else par}, "time": {t}, '
            f'"value": {"null" if par < 0 else _fmt(v)}, "cond_prob": {_fmt(c)}}}'
            for k, (par, t, v, c) in enumerate(cols))
    return (f'{{\n  "schema_version": "{TREE_SCHEMA}",\n  "horizon": {tree.horizon},\n'
            '  "nodes": [\n' + ",\n".join(rows) + "\n  ]\n}\n")


def _read_json(error: type[AwsensError], where: str, text: str | None = None):
    """The JSON document in ``text`` or, without it, in the UTF-8 file at
    the path ``where``.  Anything else raises ``error``, prefixed by
    ``where``: a file that cannot be read or is not UTF-8, and text that is
    not JSON, nests too deep for the parser or holds an integer literal too
    long to convert."""
    at = f"{where}: " if where else ""
    try:
        if text is None:
            with open(where, "r", encoding="utf-8") as fh:
                text = fh.read()
        return json.loads(text)
    except OSError as e:
        raise error(f"{at}{e}") from None
    except (ValueError, RecursionError) as e:  # ValueError covers the decode errors
        raise error(f"{at}not valid JSON: {e}") from None


def parse_tree(text: str) -> ScenarioTree:
    """Parse and validate a tree file, anchoring errors to node entries."""
    return _tree_from_doc(_read_json(InvalidTree, "", text))


def _tree_from_doc(doc) -> ScenarioTree:
    """Validate a parsed tree file, anchoring errors to node entries."""
    from .process_tree import _read_records

    if not isinstance(doc, dict):
        raise InvalidTree("top level must be an object")
    if doc.get("schema_version") != TREE_SCHEMA:
        raise InvalidTree(f'schema_version must be "{TREE_SCHEMA}"')
    horizon = doc.get("horizon")
    if isinstance(horizon, bool) or not isinstance(horizon, int) or horizon < 1:
        raise InvalidTree(f"horizon must be a positive integer, got {horizon!r}")
    raw_nodes = doc.get("nodes")
    if not isinstance(raw_nodes, list) or not raw_nodes:
        raise InvalidTree("nodes must be a nonempty array")

    ids = {}
    for i, row in enumerate(raw_nodes):
        if not isinstance(row, dict) or "id" not in row:
            raise InvalidTree(f"nodes[{i}]: each node needs an id")
        label = row["id"]
        if isinstance(label, (list, dict)):
            raise InvalidTree(f"nodes[{i}]: id must be a string or a number, got {label!r}")
        if label in ids:
            raise InvalidTree(f"nodes[{i}] (id={label!r}): duplicate id")
        ids[label] = i

    fields = []  # (time, value, cond_prob, parent) per node
    for i, row in enumerate(raw_nodes):
        label = row["id"]
        where = f"nodes[{i}] (id={label!r})"
        parent = row.get("parent")
        if parent is not None:
            if isinstance(parent, (list, dict)) or parent not in ids:
                raise InvalidTree(f"{where}: unknown parent {parent!r}")
            parent = ids[parent]
        time = row.get("time")
        if isinstance(time, bool) or not isinstance(time, int):
            raise InvalidTree(f"{where}: time must be an integer")
        value = row.get("value")
        if value is not None and not is_number(value):
            raise InvalidTree(f"{where}: value must be a number or null")
        cond_prob = row.get("cond_prob", 1.0)
        if not is_number(cond_prob):
            raise InvalidTree(f"{where}: cond_prob must be a number")
        try:
            fields.append((time, None if value is None else float(value), float(cond_prob),
                           parent))
        except OverflowError:  # an integer literal beyond the float range
            raise InvalidTree(f"{where}: number out of range") from None
    return _read_records(horizon, *zip(*fields))


def load_tree(path: str) -> ScenarioTree:
    doc = _read_json(InvalidTree, path)
    try:
        return _tree_from_doc(doc)
    except InvalidTree as e:
        raise InvalidTree(f"{path}: {e}") from None


def _write(flag: str, path: str, text: str) -> None:
    """Write ``text`` to the file ``path`` given by the option ``flag``: the
    one route of every output file.  A file that cannot be written ends in
    ``AwsensError`` (exit 1) naming both."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise AwsensError(f"{flag} {path}: {e.strerror or e}") from None


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def serialize_coupling(coupling: CouplingTree) -> dict:
    keys = ("parent", "time", "x_node", "y_node", "cond_prob")
    rows = zip(*(getattr(coupling, k).tolist() for k in keys))
    return {"pair_nodes": [dict(zip(keys, row), id=k, parent=None if row[0] < 0 else row[0])
                           for k, row in enumerate(rows)]}


# -- run configuration ---------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """A run config, with the fields and defaults of ``PARAMS["config"]``."""

    problem_class: str
    model_name: str
    model_params: dict
    p: float
    L: float
    radii: tuple[float, ...]
    seed: int
    value_tol: float
    stopping_tol: float
    restarts: int
    max_iters: int

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        from .cost_models import CATALOG, read_params

        v = read_params("config", "run", doc, where="config")
        problem_class, model = v["problem_class"], v["model"]
        if model["name"] not in CATALOG[problem_class]:
            raise InvalidParams(
                f"unknown {problem_class} model {model['name']!r}; "
                f"catalog: {', '.join(CATALOG[problem_class])}"
            )
        return cls(problem_class, model["name"], model["params"], v["p"], radii=v["radii"],
                   seed=v["seed"], **v["bounds"], **v["tolerances"], **v["ascent"])

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        return cls.from_dict(_read_json(InvalidParams, path))

    @property
    def solver_tol(self) -> float:
        """The tolerance of this problem class's inner solve."""
        return self.stopping_tol if self.problem_class == "stopping" else self.value_tol

    def build_model(self, T: int) -> CostModel:
        from .cost_models import make_cost_model

        return make_cost_model(self.model_name, self.model_params, T)


def _finite(payload, command: str, skip: str | None = None):
    """``payload``, or ``NonFinite`` for its first number that is not finite
    (Python's ``json`` would write it as ``NaN`` or ``Infinity``, which are
    not JSON); the top-level field ``skip`` is not checked."""
    def walk(v, path):
        if isinstance(v, dict):
            for k, x in v.items():
                if not (path == "" and k == skip):
                    walk(x, f"{path}.{k}" if path else k)
        elif isinstance(v, (list, tuple)):
            for i, x in enumerate(v):
                walk(x, f"{path}[{i}]")
        elif isinstance(v, float) and not math.isfinite(v):
            raise NonFinite(f"{command}: {path} is {v!r}; the model overflows on this tree")

    walk(payload, "")
    return payload


def _by_id(values, ids) -> dict:
    """``{str(id): value}`` over ``ids`` of an array by node id."""
    vals = values.tolist()
    return {str(k): vals[k] for k in ids.tolist()}


def _emit(payload: dict, out_path: str | None) -> None:
    """Print ``payload`` as JSON, after writing it to ``--out`` if given."""
    text = _dumps(payload)
    if out_path:
        _write("--out", out_path, text)
    sys.stdout.write(text)


# -- commands -------------------------------------------------------------------


GENERATORS = ("binomial", "lattice", "random")


def cmd_gen(args) -> int:
    from .cost_models import read_params
    from .process_tree import gen_binomial, gen_lattice, gen_random

    params = _read_json(InvalidParams, "--params", args.params)
    where = f"--params for {args.kind}"
    generate = {"binomial": gen_binomial, "lattice": gen_lattice, "random": gen_random}[args.kind]
    try:
        tree = generate(**read_params("generator", args.kind, params, where=where))
    except InvalidTree as e:  # finite params whose tree rounds to repeated or infinite values
        raise InvalidParams(f"{where}: {e}") from None
    _write("--out", args.out, serialize_tree(tree))
    return 0


def cmd_aw(args) -> int:
    from .adapted_wasserstein import AWParams, aw_distance

    first = load_tree(args.tree_a)
    second = load_tree(args.tree_b)
    result = aw_distance(first, second, AWParams(args.p))
    payload = {
        "distance": result.distance,
        "pth_power": result.pth_power,
        "per_stage_costs": list(result.per_stage_costs),
        "p": args.p,
    }
    if args.coupling_out:
        _write("--coupling-out", args.coupling_out, _dumps(serialize_coupling(result.coupling)))
    _emit(payload, args.out)
    return 0


def _load(args):
    """The tree file, the config file and the model built for the tree."""
    tree, cfg = load_tree(args.tree), RunConfig.from_file(args.config)
    return tree, cfg, cfg.build_model(tree.horizon)


def cmd_value(args) -> int:
    from .multistage_opt import ControlBounds, solve_value

    tree, cfg, model = _load(args)
    report = solve_value(tree, model, ControlBounds(cfg.L), tol=cfg.value_tol)
    _emit(_finite({
        "value": report.value,
        "kkt_residual": report.kkt_residual,
        "iterations": report.iterations,
        "policy": _by_id(report.policy.values, tree.level_order[:tree.level_start[-2]]),
    }, "value"), args.out)
    return 0


def cmd_stop(args) -> int:
    from .optimal_stopping import solve_stopping

    tree, cfg, model = _load(args)
    value, policy, table = solve_stopping(tree, model, tol=cfg.stopping_tol)
    # with no node before the horizon the margin is an empty minimum, +inf
    _emit(_finite({
        "value": value,
        "stop_nodes": sorted(policy.stop_set),
        "tau": _by_id(policy.tau, tree.leaves),
        "uniqueness_margin": table.uniqueness_margin,
    }, "stop", skip="uniqueness_margin" if tree.horizon == 1 else None), args.out)
    return 0


def cmd_sens(args) -> int:
    # sens and curve run most of the library, so they load it whole through
    # ``_api``, in the package's order: with no bytecode cache the peak memory
    # of curve's child depends on the order its modules compile in, and this
    # order measured about 0.4 MB lower than importing module by module
    from ._api import ControlBounds, utility_first_order, worst_case_direction
    from .sensitivity import first_order

    tree, cfg, model = _load(args)
    if model.utility is not None:
        report, _ = utility_first_order(
            tree, model.utility, ControlBounds(cfg.L), cfg.p, tol=cfg.solver_tol
        )
    else:
        report = first_order(tree, model, cfg.p, ControlBounds(cfg.L), cfg.solver_tol)[0]
    direction = worst_case_direction(tree, report)
    stages = range(1, tree.horizon + 1)
    _emit(_finite(
        {
            "problem_class": report.problem_class,
            "p": report.p,
            "q": report.q,
            "first_order": report.first_order,
            "stage_qnorms": list(report.stage_qnorms),
            "cond_grads": {str(t): _by_id(report.cond_grads, tree.levels[t]) for t in stages},
            "direction": {
                "stage_weights": list(direction.stage_weights),
                "norm_check": direction.norm_check,
                "pairing": direction.pairing,
                "degenerate": direction.degenerate,
                "values": {str(t): _by_id(direction.values, tree.levels[t]) for t in stages},
            },
        },
        "sens",
    ), args.out)
    return 0


def cmd_curve(args) -> int:
    from ._api import ControlBounds, RobustQuery, robust_curve

    tree, cfg, model = _load(args)
    query = RobustQuery(
        problem_class=cfg.problem_class,
        tree=tree,
        model=model,
        p=cfg.p,
        radii=cfg.radii,
        bounds=ControlBounds(cfg.L),
        restarts=cfg.restarts,
        max_iters=cfg.max_iters,
        seed=cfg.seed,
        solver_tol=cfg.solver_tol,
    )
    # robust_curve refuses a non-finite base value or first-order term; the
    # slope and the rows keep their documented NaNs
    curve = robust_curve(query)
    _write("--out-csv", args.out_csv, curve.to_csv())
    if args.out_json:
        _write("--out-json", args.out_json, _dumps(curve.to_json_dict()))
    _emit(
        {
            "slope_estimate": curve.slope_estimate,
            "slope_stderr": curve.slope_stderr,
            "first_order": curve.first_order,
            "base_value": curve.base_value,
        },
        None,
    )
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse's parser, but a usage error exits 1, the code of anything
    not listed in the README, rather than 2, an invalid tree file's;
    subcommand parsers are built from the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="awsens",
        description="Adapted-Wasserstein distances and model-risk sensitivities on scenario trees",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="emit a generator tree as JSON")
    g.add_argument("--kind", required=True, choices=GENERATORS)
    g.add_argument("--params", required=True, help="generator parameters as JSON")
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    a = sub.add_parser("aw", help="adapted distance between two tree files")
    a.add_argument("tree_a")
    a.add_argument("tree_b")
    a.add_argument("--p", type=float, default=2.0)
    a.add_argument("--out")
    a.add_argument("--coupling-out", dest="coupling_out")
    a.set_defaults(func=cmd_aw)

    for name, func, text in (
        ("value", cmd_value, "multistage control value and optimal policy"),
        ("stop", cmd_stop, "optimal stopping value and policy"),
        ("sens", cmd_sens, "first-order sensitivity and worst-case direction"),
    ):
        c = sub.add_parser(name, help=text)
        c.add_argument("tree")
        c.add_argument("--config", required=True)
        c.add_argument("--out")
        c.set_defaults(func=func)

    c = sub.add_parser("curve", help="robust lower-bound curve over a radius grid")
    c.add_argument("tree")
    c.add_argument("--config", required=True)
    c.add_argument("--out-csv", dest="out_csv", required=True)
    c.add_argument("--out-json", dest="out_json")
    c.set_defaults(func=cmd_curve)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except AwsensError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
