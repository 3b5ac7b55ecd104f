"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload transfer --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends half
the time untraced and half with the outside-in layer tracer installed,
prints the per-layer metrics and writes the traced spans to
``.perfbench/spans-<workload>-<seed>.jsonl`` under the working
directory.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every correctness check passed.  See
``perfbench/README.md`` for the metrics and the layer map.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Input generation is timed between the ops of the untraced passes, at
#: most once in this many seconds, so that its samples spread over the
#: whole measured time.  setup_s is the fastest sample, not the median:
#: on a shared host, other tenants slow stretches of a run by up to 2x,
#: and the median of a run's samples moved with the share of the run
#: they took.  The one-off import of the program cannot be repeated in
#: a process, so it is printed as import_s and kept out of setup_s.
SETUP_INTERVAL_S = 0.5

#: At each sampling point, generations are timed back to back until they
#: have taken this long: the first one after an op runs on cold caches,
#: and the serving inputs take only a few milliseconds to generate.
SETUP_POINT_S = 0.02

#: Metric name -> unit for the ``--trace 0`` set (BENCHMARK.json's
#: ``end_to_end``).
END_TO_END_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "link_bytes_ratio": "ratio",
    "hit_ratio": "ratio", "bytes_saved_ratio": "ratio",
}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("transfer", "serving", "observed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time; at least one pass always runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "small"), default="full",
                        help="small: reduced inputs for the self-test")
    return parser.parse_args(argv)


def load_program() -> float:
    """Import the program from the checkout's ``src``; returns seconds."""
    started = perf_counter()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"repro was imported from {repro.__file__}, "
                          f"not from {SRC}")
    import workloads  # noqa: F401  (imports the rest of the program)

    return perf_counter() - started


def time_setup(workload) -> float:
    gc.collect()
    started = perf_counter()
    workload.setup()
    return perf_counter() - started


def measure(workload, budget: float, tracer: Any = None,
            setups: Optional[List[float]] = None) -> List[Any]:
    """Repeat passes until ``budget`` seconds have elapsed (at least one).

    With ``setups``, the inputs are regenerated between ops, at most
    once every :data:`SETUP_INTERVAL_S`, and the timings appended to it.
    """
    last_setup = [-SETUP_INTERVAL_S]

    def after_op() -> None:
        if perf_counter() - last_setup[0] >= SETUP_INTERVAL_S:
            spent = 0.0
            while spent < SETUP_POINT_S:
                setups.append(time_setup(workload))
                spent += setups[-1]
            last_setup[0] = perf_counter()

    passes = []
    started = perf_counter()
    while not passes or perf_counter() - started < budget:
        # The previous pass's garbage is collected here, untimed, not
        # inside the next pass.
        gc.collect()
        passes.append(workload.run_pass(
            tracer, after_op if setups is not None else None))
    return passes


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    try:
        import_s = load_program()
    except ImportError as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    scale = workloads.FULL if args.scale == "full" else workloads.SMALL
    workload = workloads.WORKLOADS[args.workload](args.seed, scale)

    budget = args.seconds / 2 if args.trace else args.seconds
    generation = [time_setup(workload)]
    passes = measure(workload, budget, setups=generation)
    setup_s = min(generation)
    # Read before the traced passes and the untimed replays, so it is
    # the peak of the timed workload.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced: List[Any] = []
    layer_tracer = None
    if args.trace:
        layer_tracer = tracing.LayerTracer()
        with layer_tracer:
            traced = measure(workload, budget, layer_tracer)
        layer_tracer.write_spans(os.path.join(
            ".perfbench", f"spans-{args.workload}-{args.seed}.jsonl"))

    workload.replay()
    gated, printed = workload.summary(passes[0])
    problems = list(workload.problems)
    runs = passes + traced
    for index, done in enumerate(runs):
        problems.extend(p for p in done.problems if p not in problems)
        if done.outcome != runs[0].outcome:
            problems.append(f"pass {index} did not reproduce pass 0")

    attempted = sum(done.ops for done in runs)
    failed = sum(done.failed for done in runs)
    wall_s = statistics.median(done.wall_s for done in passes)
    values: Dict[str, float] = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        **gated,
    }
    # The pass timings are printed, not gated: on a shared host their
    # run-to-run spread exceeds the largest bound a metric may carry.
    printed["wall_s"] = (wall_s, "s")
    printed["gw_pkts_per_s"] = (passes[0].gw_data_pkts / wall_s, "pkt/s")
    printed["failed_frac"] = (failed / attempted, "ratio")
    printed["import_s"] = (import_s, "s")

    print(f"perfbench {args.workload} seed={args.seed} scale={args.scale}: "
          f"{len(passes)} untraced passes, {len(traced)} traced, "
          f"{attempted} ops, {failed} failed")
    for name, value in values.items():
        print(f"  {name:<22} {value:>14.6g} {END_TO_END_UNITS[name]}")
    for name, (value, unit) in printed.items():
        print(f"  {name:<22} {value:>14.6g} {unit}  (printed, not gated)")
    print("  pass wall_s: " + " ".join(f"{done.wall_s:.4f}" for done in passes))
    print(f"  setup samples: {len(generation)}, fastest {setup_s:.4f} s, "
          f"median {statistics.median(generation):.4f} s")

    if layer_tracer is not None:
        overhead = (statistics.median(done.wall_s for done in traced)
                    / wall_s)
        metrics = tracing.per_layer_metrics(layer_tracer, len(traced),
                                            overhead)
        print(f"  traced wall {layer_tracer.root_s:.4f} s over "
              f"{len(traced)} passes, trace.overhead {overhead:.3f}, "
              f"{len(layer_tracer.spans)} spans kept, "
              f"{layer_tracer.dropped} not kept")
        by_share = sorted(tracing.LAYERS,
                          key=lambda layer: -metrics[f"{layer}.share"]["value"])
        for layer in by_share:
            print(f"  {layer:<18} self {metrics[layer + '.self_s']['value']:>9.4f}"
                  f" s/pass  share {metrics[layer + '.share']['value']:6.1%}"
                  f"  calls {metrics[layer + '.calls']['value']:>10.0f}/pass")
        for name in sorted(metrics):
            if not name.endswith((".self_s", ".share", ".calls")):
                print(f"  {name:<26} {metrics[name]['value']:>14.6g} "
                      f"{metrics[name]['unit']}")
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in values.items()}

    for problem in problems:
        print(f"  FAIL: {problem}")
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
