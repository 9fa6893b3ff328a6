"""Run one grovergeo benchmark workload and print its metrics.

    python3 perfbench/run.py --workload path_oracle --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; grovergeo is imported from ./src.

Both modes start with a warm-up pass whose times are dropped; it counts
against ``--seconds``.  ``--trace 0`` measures the end-to-end metrics with
tracing off: untimed references and checks gate every item, fresh child
processes give ``setup_s`` (median over several) and ``peak_rss_mb`` (one
workload pass).
``--trace 1`` runs untraced passes, then traced passes, and reports the
per-layer metrics per pass plus the tracing overhead.  ``--smoke`` runs
one timed pass of the smallest configuration of each item list.

Human-readable lines come first; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.  Exit code 2 means
the benchmark could not run at all, and then no result line is printed.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import harness  # noqa: E402  (pins threads before numpy loads)

SETUP_CHILDREN = 3
MIN_PASSES = 2
TAIL_PERCENTILE = 90


def _parse(argv):
    from perfbench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measurement time of one run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one pass of the smallest configs")
    return ap.parse_args(argv)


def _children(args) -> tuple[list[float], float, dict, list[str]]:
    """Set-up times, peak RSS of one pass, that pass's digests and failures."""
    setups = [harness.run_child("setup")["setup_s"] for _ in range(1 if args.smoke else SETUP_CHILDREN)]
    probe = harness.run_child("pass", args.workload, str(args.seed), *(["smoke"] if args.smoke else []))
    setups.append(probe["setup_s"])
    return setups, probe["peak_rss_mb"], probe["digests"], probe["failures"]


def _end_to_end(args, items) -> tuple[dict, harness.Session, list[str]]:
    setups, rss_mb, child_digests, problems = _children(args)
    session = harness.Session(items)
    warm_s = session.warm_up()
    passes = session.run_for(0.0 if args.smoke else args.seconds - warm_s, 1 if args.smoke else MIN_PASSES)
    verified = session.pass_digests()
    for label, key in child_digests.items():
        if verified.get(label, key) != key:
            problems.append(f"{label}: fresh-process output bytes differ")
    samples = session.samples() or [float("nan")]
    tail = samples[0]
    if len(samples) > 1:
        tail = statistics.quantiles(samples, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    beyond = sum(1 for t in samples if t > tail)
    print(f"warm-up {warm_s:.2f} s; passes {passes}; item_p90_ms: {beyond} of {len(samples)} item samples lie beyond it")
    metrics = {
        "wall_s": (session.wall_s(), "s"),
        "item_p50_ms": (1e3 * statistics.median(samples), "ms"),
        "item_p90_ms": (1e3 * tail, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return metrics, session, problems


def _per_layer(args, items) -> tuple[dict, harness.Session, list[str]]:
    from perfbench.tracer import Tracer, layer_metric_units

    half = 0.0 if args.smoke else args.seconds / 2.0
    session = harness.Session(items)
    warm_s = session.warm_up()
    session.run_for(half - warm_s, 1)
    plain_wall = session.wall_s()
    session.times = [[] for _ in items]
    with Tracer() as tracer:
        session.tracer = tracer
        passes = session.run_for(half, 1)
    session.tracer = None
    units = layer_metric_units()
    values = tracer.layer_metrics()
    for name, unit in units.items():
        if unit in ("count", "s", "B"):  # additive: report per pass
            values[name] /= passes
    values["trace.wall_s"] = session.wall_s()
    values["trace.overhead_s"] = session.wall_s() - plain_wall
    selfs = {k[: -len(".self_s")]: v for k, v in values.items() if k.endswith(".self_s")}
    total = sum(selfs.values()) or 1.0
    print(f"traced passes {passes}; largest self-time shares:")
    for name, secs in sorted(selfs.items(), key=lambda kv: -kv[1])[:6]:
        print(f"  {name:<48} {100 * secs / total:6.2f} %  {secs:.4f} s/pass")
    for label in tracer.missing:
        print(f"note: patch point {label} is missing; its metrics read 0")
    for label in sorted(tracer.broken_counters):
        print(f"note: the counters of {label} no longer fit its arguments or result")
    return {k: (v, units[k]) for k, v in values.items()}, session, []


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        harness.bootstrap()
        from perfbench.workloads import WORKLOADS

        host = harness.host_info(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
        print("host " + json.dumps(host, sort_keys=True))
        items = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
        measure = _per_layer if args.trace else _end_to_end
        metrics, session, problems = measure(args, items)
    except harness.BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    for failure in session.failures + problems:
        print(f"FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    fail_ratio = session.failed / max(session.attempted, 1)
    print(f"fail_ratio {fail_ratio:.6g} ({session.failed} of {session.attempted}); check.max_err {session.max_err:.3e}")
    result = {
        "correct": session.failed == 0 and not problems,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
