"""Command-line front end.

Subcommands:
    optimize        fit buffered-decay noise parameters for a schema
    eval            loss report for saved parameters, a saved matrix (.npy
                    or CSV), or the tree baseline
    sweep           loss grid over min-separation values, CSV out
    noisegen        stream correlated noise rows to CSV
    account         zCDP and (epsilon, delta) for a sensitivity / sigma pair
    simulate        run the federated-averaging simulator from a JSON config

All floats are printed with repr (shortest round-trip form), so outputs
are byte-reproducible across runs on the same platform. JSON output is
strict (RFC 8259): an unbounded value, such as the rho of a noiseless
release, prints as null.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import operator
import os
import sys

from corrnoise.accountant import DEFAULT_DELTA, METHOD_LABEL, eps_of_zcdp, zcdp_of
from corrnoise.blt_core import (
    _CHUNK,
    IDENTITY_MECHANISM,
    OBJECTIVES,
    load_params,
    make_noise_generator,
    save_params,
    stream_mult_inverse,
)
from corrnoise.blt_optimizer import OptimizerConfig, optimize_blt
from corrnoise.ftrl_sim import TrainConfig, make_population, run_training
from corrnoise.loss_metrics import (
    blt_mechanism_loss,
    blt_mechanism_loss_fn,
    mechanism_loss,
)
from corrnoise.participation import ParticipationSchema, max_participations
from corrnoise.tree_baseline import eval_tree, load_strategy_matrix, tree_loss_fn

SWEEP_HEADER = (
    "mechanism,n,b,k,sens,max_error,rms_error,max_loss,rms_loss,sens_method,status"
)


def _number(kind, rule, bound):
    """argparse type: a ``kind`` whose value is ``rule`` ``bound``; NaN and Inf exit with usage."""
    holds = {">": operator.gt, ">=": operator.ge}[rule]
    finite = "finite and " if kind is float else ""

    def parse(text):
        try:
            value = kind(text)
        except ValueError:  # no number at all
            noun = "an integer" if kind is int else "a finite number"
            raise argparse.ArgumentTypeError(f"must be {noun} {rule} {bound}, got {text!r}")
        if not (holds(value, bound) and value < math.inf):  # NaN fails both
            raise argparse.ArgumentTypeError(f"must be {finite}{rule} {bound}, got {value}")
        return value

    return parse


def _schema_args(p: argparse.ArgumentParser):
    p.add_argument("--n", type=_number(int, ">=", 1), required=True, help="number of rounds")
    p.add_argument(
        "--min-sep", type=_number(int, ">=", 1), default=1, help="min rounds between repeats"
    )
    p.add_argument(
        "--max-part",
        type=_number(int, ">=", 1),
        default=None,
        help="participation cap (default: worst case for n and min-sep)",
    )


def _make_schema(args):
    """Schema of --n, --min-sep and --max-part; a cap that cannot fit raises ValueError."""
    k = args.max_part or max_participations(args.n, args.min_sep)
    try:
        return ParticipationSchema(n=args.n, b=args.min_sep, k=k)
    except ValueError as exc:
        raise ValueError(f"--max-part: {exc}") from None


def _load_mechanism(path):
    """Parameters from a file that ``validate()`` accepts; any other raises ValueError."""
    params, _ = load_params(path)
    try:
        return params.validate()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _loss_dict(bundle, noise_multiplier=1.0):
    """The bundle's fields, its per-unit losses scaled by the noise multiplier."""
    return {
        "n": bundle.schema.n,
        "b": bundle.schema.b,
        "k": bundle.schema.k,
        "sens": bundle.sens,
        "max_error": bundle.max_error,
        "rms_error": bundle.rms_error,
        "max_loss": noise_multiplier * bundle.max_error * bundle.sens,
        "rms_loss": noise_multiplier * bundle.rms_error * bundle.sens,
        "sens_method": bundle.sens_method,
    }


def _print_json(doc):
    """Strict JSON: a non-finite float prints as null (unbounded), never as Infinity."""
    doc = {
        key: None if isinstance(val, float) and not math.isfinite(val) else val
        for key, val in doc.items()
    }
    sys.stdout.write(json.dumps(doc, indent=2, allow_nan=False) + "\n")


def cmd_optimize(args) -> int:
    schema = _make_schema(args)
    config = OptimizerConfig(
        schema=schema,
        d=args.buffers,
        objective=args.objective,
        restarts=args.restarts,
        seed=args.seed,
    )
    result = optimize_blt(config)
    bundle = blt_mechanism_loss(result.params, schema)
    doc = _loss_dict(bundle)
    doc["objective"] = args.objective
    doc["converged"] = result.converged
    doc["iterations"] = result.iterations
    # written before the report, so an --out that cannot be written prints nothing
    if args.out is not None:
        save_params(
            args.out,
            result.params,
            opt_n=schema.n,
            opt_min_sep=schema.b,
            opt_max_part=schema.k,
            objective=args.objective,
        )
    _print_json(doc)
    if not result.converged:
        print("optimizer did not converge", file=sys.stderr)
        return 1
    return 0


def cmd_eval(args) -> int:
    schema = _make_schema(args)
    if args.params is not None:
        bundle = blt_mechanism_loss(_load_mechanism(args.params), schema)
    elif args.matrix is not None:
        C = load_strategy_matrix(args.matrix)
        try:
            bundle = mechanism_loss(C, schema)
        except ValueError as exc:
            raise ValueError(f"{args.matrix}: {exc}") from None
    else:
        bundle = eval_tree(schema)
    _print_json(_loss_dict(bundle, args.noise_multiplier))
    return 0


def _write_csv(path, header, rows):
    """The ``header`` line, then one CSV line per row, to ``path`` or stdout.

    csv writes a float as its repr and quotes a field with a comma, such
    as an error message.
    """
    with contextlib.nullcontext(sys.stdout) if path is None else open(path, "w") as fh:
        fh.write(header + "\n")
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _sweep_cell(loss_fn, n, b, k):
    """A sweep cell's MechanismLoss from ``loss_fn``, or its status if it has none."""
    if k > max_participations(n, b):
        return "infeasible"
    try:
        return loss_fn(ParticipationSchema(n=n, b=b, k=k))
    except ValueError as exc:  # surface per-cell failures in the table
        return f"error:{exc}"


def cmd_sweep(args) -> int:
    if args.b_stop < args.b_start:
        raise ValueError(f"--b-stop {args.b_stop} is below --b-start {args.b_start}")
    # one evaluator per mechanism: its b-independent errors are computed
    # once, on the first feasible cell, and only the sensitivity per b
    n = args.n
    mechanisms = []
    for path in args.params or []:
        # parameters that fail validate() get an error: status in each cell
        name = os.path.splitext(os.path.basename(path))[0]
        mechanisms.append((name, blt_mechanism_loss_fn(load_params(path)[0], n)))
    if args.tree:
        mechanisms.append(("tree", tree_loss_fn(n)))
    if args.identity:
        mechanisms.append(("identity", blt_mechanism_loss_fn(IDENTITY_MECHANISM, n)))
    if not mechanisms:
        raise ValueError("no mechanisms given (use --params / --tree / --identity)")

    rows = []
    for name, loss_fn in mechanisms:
        for b in range(args.b_start, args.b_stop + 1, args.b_step):
            k = args.max_part or max_participations(n, b)
            cell = _sweep_cell(loss_fn, n, b, k)
            if isinstance(cell, str):
                rows.append([name, n, b, k, *[""] * 6, cell])
            else:  # the row's n, b, k, ... sens_method in SWEEP_HEADER's order
                rows.append([name, *_loss_dict(cell, args.noise_multiplier).values(), "ok"])
    _write_csv(args.out, SWEEP_HEADER, rows)
    return 0


def _write_csv_line(fh, first, m, cells):
    """``first``, then the m cells ``cells(lo, hi)`` gives column chunk by chunk.

    A chunk is ``_CHUNK`` columns, so neither the line nor a list of its
    m cells is ever held whole.
    """
    fh.write(first)
    for lo in range(0, m, _CHUNK):
        fh.write("," + ",".join(cells(lo, min(lo + _CHUNK, m))))
    fh.write("\n")


def cmd_noisegen(args) -> int:
    state = make_noise_generator(
        _load_mechanism(args.params),
        m=args.dim,
        noise_std=args.noise_std,
        seed=args.seed,
        max_rounds=args.rounds,
    )
    # each row is written as it is made, in column chunks, so memory stays
    # constant in --rounds and near the noise state plus one row in --dim
    with (
        contextlib.nullcontext(sys.stdout) if args.out is None else open(args.out, "w")
    ) as fh:
        _write_csv_line(fh, "round", args.dim, lambda lo, hi: map("z{}".format, range(lo, hi)))
        for t in range(args.rounds):
            row, state = stream_mult_inverse(state)
            _write_csv_line(fh, str(t), args.dim, lambda lo, hi: map(repr, row[lo:hi].tolist()))
    return 0


def cmd_account(args) -> int:
    if math.isinf(args.sens):
        raise ValueError(f"sensitivity must be finite, got {args.sens} (rho unbounded)")
    rho = zcdp_of(args.sens, args.sigma)
    eps = eps_of_zcdp(rho, args.delta, refined=args.refined)
    _print_json(
        {"rho": rho, "epsilon": eps, "sens": args.sens, "method": METHOD_LABEL}
    )
    return 0


def cmd_simulate(args) -> int:
    try:
        with open(args.config) as fh:
            doc = json.load(fh)
        pop_doc = dict(doc["population"])
        train_doc = dict(doc["training"])
        # absent or null is independent noise; open() must never see a number
        params_file = train_doc.pop("params_file", None)
        if params_file is not None and not (isinstance(params_file, str) and params_file):
            raise ValueError(f"params_file must be a path or null, got {params_file!r}")
    except KeyError as exc:
        raise ValueError(f"{args.config}: missing block {exc}") from None
    except (OSError, TypeError, ValueError) as exc:
        raise ValueError(f"{args.config}: {exc}") from None
    mechanism = None if params_file is None else _load_mechanism(params_file)
    try:
        population = make_population(**pop_doc)
        config = TrainConfig(mechanism=mechanism, **train_doc)
    except (TypeError, ValueError) as exc:  # TypeError: a key neither one takes
        raise ValueError(f"{args.config}: {exc}") from None
    try:  # bad input, such as too few clients for the cohorts; a TypeError is a defect
        result = run_training(config, population)
    except ValueError as exc:
        raise ValueError(f"{args.config}: {exc}") from None
    os.makedirs(args.outdir, exist_ok=True)
    _write_csv(
        os.path.join(args.outdir, "metrics.csv"),
        "round,eval_loss,eval_acc,rho_so_far",
        (row.values() for row in result.metrics),
    )
    # one cohort at a time is turned into Python ints
    _write_csv(
        os.path.join(args.outdir, "participation.csv"),
        "round,client_id",
        ((t, cid) for t, cohort in enumerate(result.cohorts) for cid in cohort.tolist()),
    )
    _print_json(
        {
            "rounds": len(result.metrics),
            "final_eval_loss": result.metrics[-1]["eval_loss"],
            "realized_b": result.realized_b,
            "realized_k": result.realized_k,
            "rho_realized": result.rho_realized,
            "sigma_zeta": result.sigma_zeta,
        }
    )
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on the first call in a process and shared after.

    A build costs more than the cells of a small sweep. The tree binds no
    command function: ``main`` looks each up when it runs.
    """
    ap = argparse.ArgumentParser(
        prog="corrnoise",
        description="correlated-noise mechanisms for private learning",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optimize", help="fit noise parameters for a schema")
    _schema_args(p)
    p.add_argument("--buffers", type=_number(int, ">=", 1), default=3, help="decay buffers d")
    p.add_argument("--objective", choices=OBJECTIVES, default="max")
    p.add_argument("--restarts", type=_number(int, ">=", 1), default=8)
    p.add_argument("--seed", type=_number(int, ">=", 0), default=0)
    p.add_argument("--out", type=str, default=None, help="write params JSON here")

    p = sub.add_parser("eval", help="loss report for a mechanism")
    _schema_args(p)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--params", type=str, help="params JSON file")
    src.add_argument("--matrix", type=str, help="strategy matrix, .npy or CSV")
    src.add_argument("--tree", action="store_true", help="binary-tree baseline")
    p.add_argument("--noise-multiplier", type=_number(float, ">", 0), default=1.0)

    p = sub.add_parser("sweep", help="loss grid over min-separation values")
    p.add_argument("--n", type=_number(int, ">=", 1), required=True)
    p.add_argument("--b-start", type=_number(int, ">=", 1), required=True)
    p.add_argument("--b-stop", type=int, required=True)
    p.add_argument("--b-step", type=_number(int, ">=", 1), default=10)
    p.add_argument("--max-part", type=_number(int, ">=", 1), default=None)
    p.add_argument("--noise-multiplier", type=_number(float, ">", 0), default=1.0)
    p.add_argument("--params", type=str, nargs="*", help="params JSON files")
    p.add_argument("--tree", action="store_true")
    p.add_argument("--identity", action="store_true")
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("noisegen", help="stream correlated noise rows to CSV")
    p.add_argument("--params", type=str, required=True)
    p.add_argument("--rounds", type=_number(int, ">=", 1), required=True)
    p.add_argument("--dim", type=_number(int, ">=", 1), default=1)
    p.add_argument("--noise-std", type=_number(float, ">=", 0), default=1.0)
    p.add_argument("--seed", type=_number(int, ">=", 0), default=0)
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("account", help="zCDP and epsilon for sens / sigma")
    p.add_argument("--sens", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    p.add_argument("--refined", action="store_true")

    p = sub.add_parser("simulate", help="run the training simulator")
    p.add_argument("--config", type=str, required=True, help="JSON config file")
    p.add_argument("--outdir", type=str, required=True)
    for p in sub.choices.values():  # main reports bad input on the command's own usage
        p.set_defaults(parser=p)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # read from the module on each call, like every other global, so that a
    # command swapped in after the parser was built is the one that runs
    commands = {
        "optimize": cmd_optimize,
        "eval": cmd_eval,
        "sweep": cmd_sweep,
        "noisegen": cmd_noisegen,
        "account": cmd_account,
        "simulate": cmd_simulate,
    }
    # the one exit for bad input, which a command raises as ValueError or
    # OSError; a closed pipe is not bad input, and anything else is a defect
    try:
        return commands[args.command](args)
    except BrokenPipeError:
        # as Python itself does on EPIPE: exit 1 quietly, with stdout sent to
        # devnull so that the flush at exit meets no closed pipe again
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1
    except (OSError, ValueError) as exc:
        args.parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
