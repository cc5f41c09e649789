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
import os
import sys

from corrnoise.accountant import METHOD_LABEL, eps_of_zcdp, zcdp_of
from corrnoise.blt_core import (
    IDENTITY_MECHANISM,
    OBJECTIVES,
    load_params,
    make_noise_generator,
    save_params,
    stream_mult_inverse,
)
from corrnoise.blt_optimizer import OptimizerConfig, optimize_blt
from corrnoise.ftrl_sim import (
    TrainConfig,
    make_population,
    run_training,
    write_metrics_csv,
    write_participation_csv,
)
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


def _positive_int(text):
    """argparse type: an int >= 1, so bad grid and schema values exit with usage."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_int(text):
    """argparse type: an int >= 0, so a negative seed exits with usage."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_float(text):
    """argparse type: a finite float > 0, so NaN and negative multipliers exit with usage."""
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {value}")
    return value


def _nonnegative_float(text):
    """argparse type: a finite float >= 0; NaN, Inf and negatives exit with usage."""
    value = float(text)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {value}")
    return value


def _schema_args(p: argparse.ArgumentParser):
    p.add_argument("--n", type=_positive_int, required=True, help="number of rounds")
    p.add_argument(
        "--min-sep", type=_positive_int, default=1, help="min rounds between repeats"
    )
    p.add_argument(
        "--max-part",
        type=_positive_int,
        default=None,
        help="participation cap (default: worst case for n and min-sep)",
    )
    p.set_defaults(parser=p)


def _make_schema(args):
    """Schema of --n, --min-sep and --max-part; a cap that cannot fit exits with usage."""
    k = args.max_part or max_participations(args.n, args.min_sep)
    try:
        return ParticipationSchema(n=args.n, b=args.min_sep, k=k)
    except ValueError as exc:
        args.parser.error(f"--max-part: {exc}")


def _read_params(parser, path):
    """Parameters from a file; one that cannot be read or parsed exits with usage."""
    try:
        params, _ = load_params(path)
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    return params


def _load_mechanism(parser, path):
    """Parameters from a file that ``validate()`` accepts; any other exits with usage."""
    params = _read_params(parser, path)
    try:
        return params.validate()
    except ValueError as exc:
        parser.error(f"{path}: {exc}")


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
    _print_json(doc)
    if args.out:
        save_params(
            args.out,
            result.params,
            opt_n=schema.n,
            opt_min_sep=schema.b,
            opt_max_part=schema.k,
            objective=args.objective,
        )
    if not result.converged:
        print("optimizer did not converge", file=sys.stderr)
        return 1
    return 0


def cmd_eval(args) -> int:
    schema = _make_schema(args)
    if args.params:
        params = _load_mechanism(args.parser, args.params)
        bundle = blt_mechanism_loss(params, schema)
    elif args.matrix:
        try:
            C = load_strategy_matrix(args.matrix)
        except (OSError, ValueError) as exc:
            args.parser.error(str(exc))
        try:
            bundle = mechanism_loss(C, schema)
        except ValueError as exc:
            args.parser.error(f"{args.matrix}: {exc}")
    else:
        bundle = eval_tree(schema)
    _print_json(_loss_dict(bundle, args.noise_multiplier))
    return 0


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
        args.parser.error(f"--b-stop {args.b_stop} is below --b-start {args.b_start}")
    # one evaluator per mechanism: its b-independent errors are computed
    # once, on the first feasible cell, and only the sensitivity per b
    n = args.n
    mechanisms = []
    for path in args.params or []:
        # parameters that fail validate() get an error: status in each cell
        params = _read_params(args.parser, path)
        name = os.path.splitext(os.path.basename(path))[0]
        mechanisms.append((name, blt_mechanism_loss_fn(params, n)))
    if args.tree:
        mechanisms.append(("tree", tree_loss_fn(n)))
    if args.identity:
        mechanisms.append(("identity", blt_mechanism_loss_fn(IDENTITY_MECHANISM, n)))
    if not mechanisms:
        print("no mechanisms given (use --params / --tree / --identity)", file=sys.stderr)
        return 1

    rows = []
    for name, loss_fn in mechanisms:
        for b in range(args.b_start, args.b_stop + 1, args.b_step):
            k = args.max_part or max_participations(n, b)
            cell = _sweep_cell(loss_fn, n, b, k)
            if isinstance(cell, str):
                rows.append([name, n, b, k, *[""] * 6, cell])
            else:  # the row's n, b, k, ... sens_method in SWEEP_HEADER's order
                rows.append([name, *_loss_dict(cell, args.noise_multiplier).values(), "ok"])
    # csv quotes a field with a comma, such as an error message
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        fh.write(SWEEP_HEADER + "\n")
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return 0


def cmd_noisegen(args) -> int:
    params = _load_mechanism(args.parser, args.params)
    state = make_noise_generator(
        params,
        m=args.dim,
        noise_std=args.noise_std,
        seed=args.seed,
        max_rounds=args.rounds,
    )
    # each row is written as it is made, so memory stays constant in --rounds
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        fh.write("round," + ",".join(f"z{j}" for j in range(args.dim)) + "\n")
        for t in range(args.rounds):
            row, state = stream_mult_inverse(state)
            fh.write(f"{t}," + ",".join(map(repr, row.tolist())) + "\n")
    return 0


def cmd_account(args) -> int:
    if math.isinf(args.sens):
        args.parser.error(f"sensitivity must be finite, got {args.sens} (rho unbounded)")
    try:
        rho = zcdp_of(args.sens, args.sigma)
        eps = eps_of_zcdp(rho, args.delta, refined=args.refined)
    except ValueError as exc:
        args.parser.error(str(exc))
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
    except KeyError as exc:
        args.parser.error(f"{args.config}: missing block {exc}")
    except (OSError, TypeError, ValueError) as exc:
        args.parser.error(f"{args.config}: {exc}")
    mechanism = None
    params_file = train_doc.pop("params_file", None)
    if params_file:
        mechanism = _load_mechanism(args.parser, params_file)
    try:
        population = make_population(**pop_doc)
        config = TrainConfig(mechanism=mechanism, **train_doc)
    except (TypeError, ValueError) as exc:
        args.parser.error(f"{args.config}: {exc}")
    # each client sits out min_sep - 1 rounds after joining one: no round
    # starves exactly when there are this many clients
    needed = config.clients_per_round * min(config.rounds, config.min_sep)
    if population.n_clients < needed:
        args.parser.error(
            f"{args.config}: the cohorts need {needed} clients, not {population.n_clients}"
        )
    result = run_training(config, population)
    os.makedirs(args.outdir, exist_ok=True)
    write_metrics_csv(os.path.join(args.outdir, "metrics.csv"), result.metrics)
    write_participation_csv(
        os.path.join(args.outdir, "participation.csv"), result.participation
    )
    _print_json(
        {
            "rounds": config.rounds,
            "final_eval_loss": result.metrics[-1]["eval_loss"],
            "realized_b": result.realized_b,
            "realized_k": result.realized_k,
            "rho_realized": result.rho_realized,
            "sigma_zeta": result.sigma_zeta,
        }
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on the first call in a process and shared after.

    A build costs more than the cells of a small sweep. The tree binds no
    command function: ``main`` looks each up when it runs. A plain function
    over the cached ``_parser``, so perfbench's tracer still wraps it.
    """
    return _parser()


@functools.cache
def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="corrnoise",
        description="correlated-noise mechanisms for private learning",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optimize", help="fit noise parameters for a schema")
    _schema_args(p)
    p.add_argument("--buffers", type=_positive_int, default=3, help="decay buffers d")
    p.add_argument("--objective", choices=OBJECTIVES, default="max")
    p.add_argument("--restarts", type=_positive_int, default=8)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--out", type=str, default=None, help="write params JSON here")

    p = sub.add_parser("eval", help="loss report for a mechanism")
    _schema_args(p)
    src = p.add_mutually_exclusive_group()
    src.add_argument("--params", type=str, help="params JSON file")
    src.add_argument("--matrix", type=str, help="strategy matrix, .npy or CSV")
    src.add_argument("--tree", action="store_true", help="binary-tree baseline")
    p.add_argument("--noise-multiplier", type=_positive_float, default=1.0)

    p = sub.add_parser("sweep", help="loss grid over min-separation values")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--b-start", type=_positive_int, required=True)
    p.add_argument("--b-stop", type=int, required=True)
    p.add_argument("--b-step", type=_positive_int, default=10)
    p.add_argument("--max-part", type=_positive_int, default=None)
    p.add_argument("--noise-multiplier", type=_positive_float, default=1.0)
    p.add_argument("--params", type=str, nargs="*", help="params JSON files")
    p.add_argument("--tree", action="store_true")
    p.add_argument("--identity", action="store_true")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(parser=p)

    p = sub.add_parser("noisegen", help="stream correlated noise rows to CSV")
    p.add_argument("--params", type=str, required=True)
    p.add_argument("--rounds", type=_positive_int, required=True)
    p.add_argument("--dim", type=_positive_int, default=1)
    p.add_argument("--noise-std", type=_nonnegative_float, default=1.0)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(parser=p)

    p = sub.add_parser("account", help="zCDP and epsilon for sens / sigma")
    p.add_argument("--sens", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--delta", type=float, default=1e-10)
    p.add_argument("--refined", action="store_true")
    p.set_defaults(parser=p)

    p = sub.add_parser("simulate", help="run the training simulator")
    p.add_argument("--config", type=str, required=True, help="JSON config file")
    p.add_argument("--outdir", type=str, required=True)
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
    return commands[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
