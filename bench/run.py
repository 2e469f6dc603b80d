"""Benchmark of the legfronts package.

Run from the root of a checkout:

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (see workloads.py for why each exists): verify-small,
skein-deep, census-sum, rulings-list.  Each is a closed loop with one
caller on one thread.  The seed makes the inputs; the same seed gives the
same inputs.

Set-up imports ``legfronts`` from ``src/`` of this checkout, generates
the first pass of inputs and warms up on a fixed few ops.  With
``--trace 0`` it is timed ``SETUP_REPS`` times and ``setup_s`` is the
median: once before the first op, and again on a throwaway re-import
between ops, spread evenly over the run's passes.  The host's speed
drifts over seconds, so set-ups done back to back would all see the
same moment of it; spread out, they see the whole run like the ops do.

With ``--trace 0`` the run is ceil(seconds / PASS_S) whole passes, a
fixed amount of work that took about ``--seconds`` of timed ops when the
benchmark was defined (workloads.py).  It stops early only if the timed
ops exceed ``MAX_STRETCH`` times ``--seconds``.  Only the op itself is
timed; checks run between ops.

Every time in the metrics is stated at the reference speed of speed.py,
because the host's own speed drifts by up to 2x between runs.  A speed
sample is taken before the first op and after every ``CAL_EVERY_S``
seconds of ops, and each op's time is scaled by the two samples around
it; each set-up is scaled by samples taken just before and after it.
The times as measured are printed and kept in the record.  The metrics
are ``setup_s``, ``ops_per_s`` (ops per second of timed op time),
``latency_p50_ms``, ``latency_tail_ms`` and ``peak_rss_mb``.  The tail
is the highest percentile with at least ten samples beyond it,
100 * (1 - 10/N); the percentile and N are printed beside it.

With ``--trace 1`` the distinct items of the first pass are run untraced
for at least a quarter of ``--seconds``, then traced (tracer.py) for at
least half of it, in whole rounds, so call counts per op repeat exactly
for a seed.  The metrics are the per-layer figures of the traced rounds;
their times are stated at the reference speed by the median of the speed
samples taken between the ops of each phase.

Every output is checked.  An op fails when it raised, when its check
fails (an identity reported FAIL, or counts disagree), when its
polynomials differ from reference.json, or when two ops on the same input
disagree.  ``failed`` counts those ops and they are listed by input name.
``correct`` is false only when outputs differ from reference.json or
between repeats, i.e. when the program computes different values from
the recorded commit; a FAIL the program itself reports shows in
``failed``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
goes to bench/out/<workload>-seed<N>-trace<T>.json, with the spans of a
traced run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import speed
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
DEFAULT_SECONDS = 20.0
SETUP_REPS = 15
TAIL_BEYOND = 10
MAX_STRETCH = 5  # a run that is this much slower than its budget stops early
CAL_EVERY_S = 0.2  # seconds of ops between two speed samples

# functions whose calls are listed per op in the trace record
PER_OP_CALLS = {
    "homfly": "skein.homfly",
    "kauffman": "skein.kauffman_dubrovnik",
    "sweep_geometry": "fronts.sweep_geometry",
    "enumerate_rulings": "rulings.enumerate_rulings",
    "census": "rulings.census",
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def package_modules() -> list[str]:
    return [m for m in sys.modules if m == "legfronts" or m.startswith("legfronts.")]


def fresh_import():
    """Import legfronts from this checkout, dropping any earlier import."""
    for name in package_modules():
        del sys.modules[name]
    lf = importlib.import_module("legfronts")
    if not Path(lf.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"legfronts was imported from {lf.__file__}, not from {SRC}")
    return lf


def set_up(workload_cls, seed: int):
    """One set-up: (seconds at the reference speed, package, workload,
    first pass, pass stream)."""
    before = speed.sample()
    t0 = time.perf_counter()
    lf = fresh_import()
    wl = workload_cls(lf, seed, OUT)
    passes = wl.passes()
    first = next(passes)
    for item in wl.warmup():
        wl.op(item)
    seconds = time.perf_counter() - t0
    return speed.scale(seconds, before, speed.sample()), lf, wl, first, passes


def throwaway_set_up(workload_cls, seed: int) -> float:
    """Time a set-up whose package is dropped afterwards, so the run goes
    on with the modules it started with."""
    kept = {name: sys.modules[name] for name in package_modules()}
    seconds = set_up(workload_cls, seed)[0]
    for name in package_modules():
        del sys.modules[name]
    sys.modules.update(kept)
    gc.collect()  # free the dropped copy now, not during a timed op
    return seconds


class Verifier:
    """Checks every op's output outside the timed region."""

    def __init__(self, wl, reference: dict):
        self.wl = wl
        self.reference = reference
        self.seen: dict[str, tuple[str, str | None]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()
        self.reasons: dict[str, str] = {}
        self.correct = True

    def record(self, item, output, error) -> None:
        self.attempted += 1
        if error is not None:
            reason = f"raised {type(error).__name__}: {error}"
        else:
            fp = digest(self.wl.fingerprint(output))
            known = self.seen.get(item.name)
            if known is None:
                reason = self.wl.check(item, output)
                expected = self.reference.get(item.name)
                if expected is not None and digest(self.wl.reference(item, output)) != expected:
                    reason = "; ".join(filter(None, [reason, "polynomials differ from reference.json"]))
                    self.correct = False
                self.seen[item.name] = (fp, reason)
            elif known[0] != fp:
                reason = "output differs from an earlier op on the same input"
                self.correct = False
            else:
                reason = known[1]
        if reason:
            self.failed += 1
            self.failures[item.name] += 1
            self.reasons[item.name] = reason

    def report_lines(self) -> list[str]:
        lines = [f"failed {self.failed} of {self.attempted} ops"]
        for name in sorted(self.failures):
            lines.append(f"  FAIL {name} (x{self.failures[name]}): {self.reasons[name]}")
        return lines

    def record_json(self) -> list[dict]:
        return [
            {"input": name, "ops": self.failures[name], "reason": self.reasons[name]}
            for name in sorted(self.failures)
        ]


def timed_call(op, item):
    """(seconds, output, error) of one op; an op that raises is counted
    as failed, not fatal."""
    t0 = time.perf_counter()
    try:
        output, error = op(item), None
    except Exception as exc:
        output, error = None, exc
    return time.perf_counter() - t0, output, error


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least
    TAIL_BEYOND samples beyond it, or the maximum when there are too few."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (1 - TAIL_BEYOND / n), ordered[n - TAIL_BEYOND - 1]


def measure(args, wl, first, passes, verifier, setup_times):
    raw: list[float] = []  # seconds of each op as measured
    latencies: list[float] = []  # ... at the reference speed (speed.py)
    names: list[str] = []
    n_passes = math.ceil(args.seconds / wl.PASS_S)
    cal = speed.sample()
    block_s = 0.0

    def calibrate():
        nonlocal cal, block_s
        now = speed.sample()
        latencies.extend(speed.scale(dt, cal, now) for dt in raw[len(latencies):])
        cal, block_s = now, 0.0

    items = first
    for done in range(1, n_passes + 1):
        for i, item in enumerate(items, 1):
            dt, output, error = timed_call(wl.op, item)
            raw.append(dt)
            names.append(item.name)
            block_s += dt
            if block_s >= CAL_EVERY_S:
                calibrate()
            verifier.record(item, output, error)
            # the share of the run done so far, by passes, not by time, so
            # the set-ups land at the same ops however fast the program is
            progress = (done - 1 + i / len(items)) / n_passes
            while len(setup_times) < SETUP_REPS and progress * SETUP_REPS >= len(setup_times):
                setup_times.append(throwaway_set_up(type(wl), args.seed))
        if done == n_passes or sum(raw) > MAX_STRETCH * args.seconds:
            break
        items = next(passes)
    calibrate()
    while len(setup_times) < SETUP_REPS:  # a run stopped early
        setup_times.append(throwaway_set_up(type(wl), args.seed))
    timed = sum(latencies)
    pct, tail_s = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(latencies) / timed, "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    _, raw_tail = tail(raw)
    lines = [
        f"{wl.name} seed {args.seed}: {done} of {n_passes} passes, {len(latencies)} ops "
        f"in {sum(raw):.3f} s of timed ops, {timed:.3f} s at the reference speed",
        f"  latency p50 {metrics['latency_p50_ms'][0]:.3f} ms, "
        f"tail p{pct:.2f} (N={len(latencies)}) {tail_s * 1e3:.3f} ms "
        f"(as measured: {statistics.median(raw) * 1e3:.3f} ms, {raw_tail * 1e3:.3f} ms)",
        f"  setup {metrics['setup_s'][0]:.4f} s (median of {SETUP_REPS}: "
        + ", ".join(f"{t:.4f}" for t in setup_times) + ")",
    ]
    by_input: dict[str, list[float]] = {}
    for name, dt in zip(names, latencies):
        by_input.setdefault(name, []).append(dt)
    extra = {
        "n": len(latencies),
        "tail_percentile": pct,
        "timed_s": timed,
        "timed_s_as_measured": sum(raw),
        "latency_p50_ms_as_measured": statistics.median(raw) * 1e3,
        "latency_tail_ms_as_measured": raw_tail * 1e3,
        "setup_reps_s": setup_times,
        "latency_ms_by_input": {
            name: {"ops": len(v), "median": statistics.median(v) * 1e3} for name, v in by_input.items()
        },
    }
    return metrics, lines, extra


def rounds(op, items, seconds):
    """Whole rounds over ``items`` until the timed ops add up to ``seconds``.
    Returns the latencies as measured, the round count, the median of the
    speed samples taken between ops, and each op's (item, output, error)
    for checking afterwards."""
    latencies, results, samples = [], [], [speed.sample()]
    n_rounds, block_s = 0, 0.0
    while sum(latencies) < seconds:
        for item in items:
            dt, output, error = timed_call(op, item)
            latencies.append(dt)
            results.append((item, output, error))
            block_s += dt
            if block_s >= CAL_EVERY_S:
                samples.append(speed.sample())
                block_s = 0.0
        n_rounds += 1
    samples.append(speed.sample())
    return latencies, n_rounds, statistics.median(samples), results


def measure_traced(args, lf, wl, first, verifier):
    items = list({item.name: item for item in first}.values())
    plain, _, plain_speed, results = rounds(wl.op, items, args.seconds / 4)
    for result in results:
        verifier.record(*result)

    tr = tracing.Tracer()
    wrapped = tr.wrap(wl.op, "op", "bench", tracing.OUTSIDE, tracing.OUTSIDE)
    tr.install(lf)
    watched = {label: tr.fn_names.index(fn) for label, fn in PER_OP_CALLS.items()}
    per_op: dict[str, dict[str, int]] = {}

    def traced_op(item):
        tr.op_id += 1
        before = list(tr.calls)
        output = wrapped(item)
        per_op.setdefault(item.name, {k: tr.calls[i] - before[i] for k, i in watched.items()})
        return output

    try:
        latencies, n_rounds, traced_speed, results = rounds(traced_op, items, args.seconds / 2)
    finally:
        tr.uninstall()
    # checked only now, so that the checks' own calls stay out of the trace
    for result in results:
        verifier.record(*result)

    ops = len(latencies)
    traced_rate = ops / speed.scale(sum(latencies), traced_speed)
    plain_rate = len(plain) / speed.scale(sum(plain), plain_speed)
    limit_errors = sum(isinstance(e, lf.skein.ResourceLimitError) for _, _, e in results)
    metrics = layer_metrics(tr, ops, speed.scale(1.0, traced_speed))
    metrics["cli.output_bytes"] = (sum(wl.output_bytes(o) for _, o, e in results if e is None) / ops, "B/op")
    metrics["skein.limit_errors"] = (limit_errors / ops, "errors/op")
    metrics["trace.ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.untraced_ops_per_s"] = (plain_rate, "1/s")
    metrics["trace.overhead"] = (plain_rate / traced_rate, "ratio")
    lines = [
        f"{wl.name} seed {args.seed}: traced {n_rounds} round(s) of {len(items)} ops; "
        f"{traced_rate:.3f} ops/s traced vs {plain_rate:.3f} untraced "
        f"(overhead x{plain_rate / traced_rate:.2f})",
    ]
    if "T(2,7)" in per_op:
        lines.append("  op T(2,7): " + ", ".join(f"{k} {v}" for k, v in per_op["T(2,7)"].items()))
    extra = {
        "rounds": n_rounds,
        "ops_per_round": len(items),
        "calls_per_op_by_input": per_op,
        "calls_total": dict(zip(tr.fn_names, tr.calls)),
        "self_s_by_group": dict(zip(tr.group_names, tr.group_self)),
        "spans_kept": len(tr.spans),
        "spans_total": tr.next_span,
        "spans": tr.span_records(),
    }
    return metrics, lines, extra


def layer_metrics(tr, ops: int, scale: float) -> dict:
    """Per-layer figures per op; self times are multiplied by ``scale`` to
    state them at the reference speed."""
    def ms(group):
        return (tr.group_seconds(group) * scale * 1e3 / ops, "ms/op")

    def per_op(count, unit):
        return (count / ops, unit)

    def calls(pred):
        return per_op(tr.calls_of(pred), "calls/op")

    out = {}
    for layer in ("fronts", "rulings", "laurent", "skein", "analysis", "cli"):
        out[f"{layer}.self_ms"] = ms(layer)
        out[f"{layer}.calls_per_op"] = calls(lambda n, p=layer + ".": n.startswith(p))
    out["fronts.parse.self_ms"] = ms("fronts.parse")
    out["fronts.sweep.self_ms"] = ms("fronts.sweep")
    out["fronts.sweep.calls_per_op"] = calls(lambda n: n == "fronts.sweep_geometry")
    out["rulings.enumerate.self_ms"] = ms("rulings.enumerate")
    out["rulings.enumerate.calls_per_op"] = calls(lambda n: n == "rulings.enumerate_rulings")
    out["rulings.census.self_ms"] = ms("rulings.census")
    out["rulings.rulings_per_op"] = per_op(tr.rulings, "rulings/op")
    out["laurent.ops"] = per_op(
        tr.calls_of(lambda n: n.startswith("laurent.")
                    and n.rsplit(".", 1)[1] in tracing.LAURENT_ARITHMETIC),
        "ops/op")
    out["skein.diagram.self_ms"] = ms("skein.diagram")
    for poly, fn in (("homfly", "skein.homfly"), ("kauffman", "skein.kauffman_dubrovnik")):
        out[f"skein.{poly}.self_ms"] = ms(f"skein.{poly}")
        out[f"skein.{poly}.calls_per_op"] = calls(lambda n, fn=fn: n == fn)
        out[f"skein.{poly}.nodes"] = per_op(tr.nodes.get(f"skein.{poly}", 0), "nodes/op")
        out[f"skein.{poly}.leaves"] = per_op(tr.leaves.get(f"skein.{poly}", 0), "leaves/op")
    out["outside.self_ms"] = ms("outside")
    return out


def load_reference(workload: str) -> dict:
    if not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text())["workloads"].get(workload, {})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "legfronts" / "__init__.py").is_file():
        print(f"no legfronts sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    setup_s, lf, wl, first, passes = set_up(workloads.WORKLOADS[args.workload], args.seed)
    verifier = Verifier(wl, load_reference(args.workload))
    if args.trace:
        metrics, lines, extra = measure_traced(args, lf, wl, first, verifier)
    else:
        metrics, lines, extra = measure(args, wl, first, passes, verifier, [setup_s])

    lines += verifier.report_lines()
    if not verifier.correct:
        lines.append("  outputs differ from reference.json or between repeats: correct = false")
    for line in lines:
        print(line)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": verifier.correct,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "failures": verifier.record_json(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **extra,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))
    print(json.dumps({
        "correct": verifier.correct,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
