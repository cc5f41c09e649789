"""Train on a synthetic federated task with correlated vs independent noise.

Fits a small buffered-decay mechanism for the training schema, runs the
simulator once with that mechanism and once with independent noise at
the same noise multiplier (identical privacy cost), and reports final
eval losses plus the realized-participation accounting.

Usage:
    python3 scripts/run_simulation.py [--rounds 64] [--noise 0.3] [--outdir out]
"""

import argparse
import os

from corrnoise import (
    OptimizerConfig,
    ParticipationSchema,
    TrainConfig,
    make_population,
    optimize_blt,
    run_training,
)
from corrnoise.cli import _nonnegative_int
from corrnoise.ftrl_sim import write_metrics_csv, write_participation_csv


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rounds", type=int, default=64)
    ap.add_argument("--clients", type=int, default=100)
    ap.add_argument("--cohort", type=int, default=8)
    ap.add_argument("--min-sep", type=int, default=8)
    ap.add_argument("--dim", type=int, default=16)
    ap.add_argument("--task", choices=("linear", "logistic"), default="linear")
    ap.add_argument("--noise", type=float, default=0.3)
    ap.add_argument("--buffers", type=int, default=2)
    ap.add_argument("--seed", type=_nonnegative_int, default=0)
    ap.add_argument("--outdir", type=str, default=None)
    args = ap.parse_args()

    res = optimize_blt(
        OptimizerConfig(
            schema=ParticipationSchema.worst_case(args.rounds, args.min_sep),
            d=args.buffers,
            seed=args.seed,
        )
    )
    print(f"mechanism fit: max_loss={res.loss:.4f}")

    population = make_population(
        n_clients=args.clients,
        dim=args.dim,
        samples_per_client=32,
        task=args.task,
        seed=args.seed,
    )
    for label, mechanism in (("correlated", res.params), ("independent", None)):
        config = TrainConfig(
            rounds=args.rounds,
            clients_per_round=args.cohort,
            client_lr=0.1,
            server_lr=0.3,
            noise_multiplier=args.noise,
            mechanism=mechanism,
            min_sep=args.min_sep,
            seed=args.seed,
        )
        result = run_training(config, population)
        last = result.metrics[-1]
        print(
            f"{label:<12} final eval_loss={last['eval_loss']:.4f} "
            f"realized (b={result.realized_b}, k={result.realized_k}) "
            f"rho={result.rho_realized:.4f}"
        )
        if args.outdir:
            d = os.path.join(args.outdir, label)
            os.makedirs(d, exist_ok=True)
            write_metrics_csv(os.path.join(d, "metrics.csv"), result.metrics)
            write_participation_csv(
                os.path.join(d, "participation.csv"), result.participation
            )


if __name__ == "__main__":
    main()
