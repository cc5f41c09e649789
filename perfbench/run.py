"""corrnoise benchmark: four workloads, end-to-end metrics, and a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload {fit,sweep,noise,simulate} \\
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` the workload's operation repeats, untraced, until S
seconds of operations have run, and the end-to-end metrics of
BENCHMARK.json are reported. With ``--trace 1`` the same untraced phase
gives the baseline, then a fixed number of operations run with every
public corrnoise function wrapped (``tracer.py``), followed by the
noise-round split, the machine triad and the scaling probes
(``probes.py``); the per-layer metrics are reported. Every operation's
output is checked; a failed check or a raised exception counts as a
failed operation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; lines before it
starting with ``#`` describe the environment and the run.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up is timed from here: imports, inputs, warm-up

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
SETUP_RUNS = 3  # set-ups per run: this process plus two fresh ones
# operation time after which no further operation starts, so that a run
# on a pathologically slow machine still ends within its time limit
OP_BUDGET_S = 100.0
MAX_ERRORS_SHOWN = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("fit", "sweep", "noise", "simulate"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: set up once in a fresh process, print the seconds, exit
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    # internal: toy sizes, for the self-test
    ap.add_argument("--toy", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


class Ops:
    """What a run keeps of its operations; the outputs themselves are dropped.

    Each output is checked as soon as its operation ends, outside the
    timing, and then released, so kept outputs neither grow the heap the
    next operations allocate and collect in nor inflate the peak RSS.
    """

    def __init__(self):
        self.times = []  # seconds per operation
        self.failures = []  # first error of each failed operation
        self.max_loss = []
        self.restarts_dropped = 0

    def run(self, wl, seconds=None, count=None):
        """Repeat ``wl.op`` for ``seconds`` of operation time, or ``count`` times.

        Returns the seconds of the operations this call ran.
        """
        done = []
        while True:
            t0 = time.perf_counter()
            try:
                out = wl.op()
            except Exception as exc:  # counted as a failed operation
                out, errors = None, [f"raised {type(exc).__name__}: {exc}"]
            done.append(time.perf_counter() - t0)
            if out is not None:
                try:
                    errors = wl.check(out)
                    self.max_loss.append(wl.max_loss(out))
                    self.restarts_dropped += wl.restarts_dropped(out)
                except Exception as exc:
                    errors = [f"check raised {type(exc).__name__}: {exc}"]
            if errors:
                self.failures.append(errors[0])
            if count is not None and len(done) >= count:
                break
            if seconds is not None and (
                sum(done) >= seconds or sum(done) + max(done) > OP_BUDGET_S
            ):
                break
        self.times += done
        return done


def tail(samples):
    """(value, label): the highest whole percentile with >= 10 samples beyond it.

    Percentiles are nearest-rank. Below 20 samples that percentile would
    fall under the median, so the maximum is reported instead.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 20:
        return xs[-1], f"max of {n}"
    p = (100 * (n - 10)) // n
    return xs[math.ceil(p * n / 100) - 1], f"p{p} of {n}"


def setup_samples(args, own):
    samples = [own]
    for _ in range(SETUP_RUNS - 1):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
            + (["--toy"] if args.toy else []),
            capture_output=True, text=True, timeout=170, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def end_to_end(args, wl, own_setup, ops):
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = setup_samples(args, own_setup)
    rounds = wl.round_times(ops.times)
    tail_s, tail_label = tail(rounds)
    print(f"# run ops={len(ops.times)} rounds={len(rounds)} round_ms_tail={tail_label} "
          f"setup_samples_s={[round(s, 4) for s in setups]}")
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(ops.times),
        "peak_rss_mb": peak_rss_mb,
        "round_ms_p50": 1e3 * statistics.median(rounds),
        "round_ms_tail": 1e3 * tail_s,
    }
    if ops.max_loss:
        values["max_loss"] = statistics.median(ops.max_loss)
    return values


def tracer_hooks():
    import numpy as np

    def blt_loss(args, kwargs, result, extra):
        theta = args[0] if args else kwargs.get("theta")
        if np.iscomplexobj(theta):
            extra["blt_loss.complex"] = extra.get("blt_loss.complex", 0) + 1
        elif result == math.inf:
            extra["blt_loss.inf"] = extra.get("blt_loss.inf", 0) + 1

    def full_decoder(args, kwargs, result, extra):
        tree = args[0] if args else kwargs.get("tree")
        extra.setdefault("full_decoder.horizons", set()).add(tree.n)

    return {"blt_optimizer.blt_loss": blt_loss, "tree_baseline.full_decoder": full_decoder}


def layer_values(tracer, restarts_dropped):
    from tracer import LAYERS

    v = {}
    for layer in LAYERS:
        if layer in tracer.layers_present:
            v[f"{layer}.calls"] = tracer.mod_calls[layer]
            v[f"{layer}.s"] = tracer.mod_s[layer]
            v[f"{layer}.self_s"] = tracer.mod_self_s[layer]
    for label in tracer.wrapped_labels:
        v[f"{label}.calls"] = tracer.fn_calls[label]
        v[f"{label}.s"] = tracer.fn_s[label]
    extra = tracer.extra
    if "blt_optimizer.blt_loss" in tracer.wrapped_labels:
        calls = tracer.fn_calls["blt_optimizer.blt_loss"]
        v["blt_optimizer.blt_loss.inf_frac"] = extra.get("blt_loss.inf", 0) / calls if calls else 0.0
        v["blt_optimizer.complex_calls"] = extra.get("blt_loss.complex", 0)
    if "blt_optimizer" in tracer.layers_present:
        v["blt_optimizer.restarts_dropped"] = restarts_dropped
    if "tree_baseline.full_decoder" in tracer.wrapped_labels:
        calls = tracer.fn_calls["tree_baseline.full_decoder"]
        distinct = len(extra.get("full_decoder.horizons", ()))
        v["tree_baseline.full_decoder.useful_frac"] = distinct / calls if calls else 0.0
    if "ftrl_sim" in tracer.layers_present:
        # per-round accounting: the sensitivity and zCDP calls made by ftrl_sim
        v["ftrl_sim.accounting.s"] = (
            tracer.site_s[("ftrl_sim", "participation.toeplitz_sensitivity")]
            + tracer.site_s[("ftrl_sim", "accountant.zcdp_of")]
        )
    return v


def per_layer(args, wl, ops):
    """Traced operations, then the noise split, the triad and the probes."""
    import probes
    import workloads
    from tracer import Tracer

    untraced = list(ops.times)
    dropped_before = ops.restarts_dropped
    with Tracer(tracer_hooks()) as tracer:
        traced = ops.run(wl, count=wl.trace_ops)
    print(f"# run untraced_ops={len(untraced)} traced_ops={len(traced)}")
    values = layer_values(tracer, ops.restarts_dropped - dropped_before)
    values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    draw_ms = rec_ms = gbs = 0.0  # rounds at model scale run in ``noise`` only
    if wl.name == "noise":
        draw_ms, rec_ms = probes.noise_split(wl.state, wl.NOISE_STD, args.seed + 1)
        gbs = probes.recurrence_bytes(wl.params.d, wl.m) / (rec_ms / 1e3) / 1e9
    values["blt_core.rng_draw_ms"] = draw_ms
    values["blt_core.recurrence_ms"] = rec_ms
    values["blt_core.recurrence_gbs_computed"] = gbs
    values["machine.triad_gbs"] = probes.triad_gbs(workloads.Noise.FULL["m"])
    print("# bandwidth: GB/s are bytes computed from array sizes over time "
          "(triad 24 B per element; recurrence 8 B x (2 + 2d) per element), "
          "not measured traffic")
    values.update(probes.scaling_probes(workloads.load_mechanism(), SRC))
    return values


def emit(spec_metrics, values, attempted, failed):
    metrics, absent = {}, []
    for m in spec_metrics:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        else:
            absent.append(m["name"])
    if absent:
        print(f"# absent (function or module no longer exists): {', '.join(absent)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "corrnoise", "__init__.py")):
        print(f"corrnoise sources not found under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    with open(SPEC) as fh:
        spec = json.load(fh)
    # one sweep worker, so Python and BLAS threads stay within the 2 cores
    os.environ["CORRNOISE_THREADS"] = "1"
    sys.path.insert(0, SRC)

    import corrnoise
    import probes
    import workloads

    if not os.path.abspath(corrnoise.__file__).startswith(SRC + os.sep):
        print(f"imported corrnoise from {corrnoise.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed, toy=args.toy)
    own_setup = time.perf_counter() - T0
    if args.setup_only:
        print(repr(own_setup))
        return 0

    for line in probes.environment(args.seed, workloads.Noise.FULL["m"], 4):
        print(f"# env {line}")
    ops = Ops()
    ops.run(wl, seconds=args.seconds)
    if args.trace == 0:
        values = end_to_end(args, wl, own_setup, ops)
        spec_metrics = spec["end_to_end"]
    else:
        values = per_layer(args, wl, ops)
        spec_metrics = spec["per_layer"]
    for msg in ops.failures[:MAX_ERRORS_SHOWN]:
        print(f"# failure: {msg}", file=sys.stderr)
    emit(spec_metrics, values, len(ops.times), len(ops.failures))
    return 0


if __name__ == "__main__":
    sys.exit(main())
