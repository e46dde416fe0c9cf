"""mdprolog benchmark: seeded closed-loop workloads, checked answers, metrics.

    python3 perfbench/run.py --workload classic --seed 1 --seconds 14 --trace 0

Run from the root of a checkout; the engine is imported from ``src/``.
One caller sends the next query only after the previous one returned.
Every measurement happens in a child process of its own, so a crash of
the interpreter (exit 139, a segfault in deep recursion) becomes failed
operations instead of a dead harness.

``--trace 0`` reports the end-to-end metrics:

* the workload child runs whole rounds until ``--seconds`` have passed
  (and at least 110 operations, so that ten or more fall beyond p90):
  ``ops_per_s``, ``latency_p50_ms``, ``latency_p90_ms``, ``peak_rss_mb``;
* a kernel child measures ``nrev_lips``, ``dispatch_overhead_x`` and
  ``depth_growth_x`` the same way on every workload;
* seven fresh set-up children give ``setup_s`` (median).

Kernel rounds and set-up samples run between workload rounds, spread over
the run, so that all figures sample the same drifting machine.  Every
child also times a fixed reference loop now and then, and the timings are
scaled to the nominal machine speed (see timed_run); the unscaled figures
are kept in the report.

``--trace 1`` runs a fixed number of rounds twice, untraced and then under
the outside-in tracer (tracer.py), and reports the per-layer metrics and
the tracing overhead.  Spans are written to ``perfbench/out/``.

The report goes to standard output; its last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 7
# The reference loop of child.py takes about this long at speed 1.0.
NOMINAL_S = 0.004
MIN_OPS = 110             # at least ten samples beyond the 90th percentile
DEADLINE_S = 170          # children still running then are killed
TRACE_ROUNDS = {"classic": 1, "dispatch": 10, "objects": 10, "corpus": 8}

END_TO_END_UNITS = {
    "ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
    "peak_rss_mb": "MB", "setup_s": "s", "nrev_lips": "1/s",
    "dispatch_overhead_x": "x", "depth_growth_x": "x"}


class Registry(list):
    """Every child process started, so that the deadline can stop them all."""

    expired = False

    def kill_all(self):
        self.expired = True
        for proc in self:
            proc.kill()


class Child:
    """A child.py process: its op lines, result, exit code and peak RSS."""

    def __init__(self, args, registry):
        self.args = [str(a) for a in args]
        self.latencies_ns = []
        self.failed_ops = 0
        self.rounds_ns = []
        self.done = None
        self.returncode = None
        self.maxrss_kb = 0
        self.alive = True
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), *self.args], cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        registry.append(self.proc)
        if registry.expired:   # started after the deadline: stop it at once
            self.proc.kill()

    def expect(self, tag):
        """Read lines until one starts with tag; False if the child died."""
        for line in self.proc.stdout:
            head, _, rest = line.partition(" ")
            head = head.strip()
            if head == "op":
                _, ok, ns = rest.split()
                self.latencies_ns.append(int(ns))
                self.failed_ops += ok != "1"
            elif head == "round":
                self.rounds_ns.append(int(rest))
            elif head == "done":
                self.done = json.loads(rest)
            if head == tag:
                return True
        self.alive = False
        return False

    def command(self, command, tag):
        try:
            self.proc.stdin.write(command + "\n")
            self.proc.stdin.flush()
        except (BrokenPipeError, OSError):
            self.alive = False
            return False
        return self.expect(tag)

    def round(self):
        return self.alive and self.command("round", "round")

    def close(self):
        """Stop the child, reap it and count the operation it died in."""
        if self.alive and self.done is None:
            if self.args[0] in ("serve", "kernel"):
                self.command("stop", "done")
            else:
                self.expect("done")
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.maxrss_kb = usage.ru_maxrss
        if self.returncode != 0 or self.done is None:
            # The operation in flight when the child died did not complete.
            self.latencies_ns.append(0)
            self.failed_ops += 1
            print("child %s exited with %s" % (self.args[0], self.returncode),
                  file=sys.stderr)
        return self


def one_shot(args, registry):
    return Child(args, registry).close()


def process_speed(child):
    """NOMINAL_S over the median time of the child's reference loop."""
    references = (child.done or {}).get("references")
    return NOMINAL_S / statistics.median(references) if references else 1.0


def percentile(values, q):
    """q-th percentile (0 < q < 100), exclusive method, as statistics does."""
    return statistics.quantiles(values, n=100)[q - 1]


# -- self-checks -------------------------------------------------------------


def inputs(name, seed, rounds=2):
    wl, _ = workloads.make(name, seed)
    it = wl.rounds()
    return wl.programs(), [next(it) for _ in range(rounds)]


def wrong(expected):
    if expected is True:
        return False
    return expected + [("wrong",)] if expected else [("wrong",)]


def self_check(name, seed):
    """Same seed, same inputs; another seed, other inputs; wrong is caught."""
    problems = []
    first = inputs(name, seed)
    if first != inputs(name, seed):
        problems.append("the same seed generated different inputs")
    if first == inputs(name, seed + 1):
        problems.append("another seed generated the same inputs")
    for op in first[1][0]:
        if not workloads.check(op, op.expected):
            problems.append("the checker rejected the reference answer")
        if workloads.check(op, wrong(op.expected)):
            problems.append("the checker accepted a wrong answer")
    return sorted(set(problems))


# -- runs --------------------------------------------------------------------


def timed_run(name, seed, seconds, registry):
    """Workload rounds, kernel rounds and set-up samples, taking turns.

    The machine's speed drifts over seconds, so the kernel rounds and the
    set-up samples are spread over the run instead of following it.
    """
    run = Child(["serve", name, seed], registry)
    kernel = Child(["kernel", name, seed], registry)
    setups = []
    run.expect("ready")
    kernel.expect("ready")
    elapsed = 0.0
    while run.round():
        elapsed = sum(run.rounds_ns) / 1e9
        due = min(1.0, elapsed / seconds)
        while kernel.alive and len(kernel.rounds_ns) < workloads.KERNEL_ROUNDS * due:
            kernel.round()
        while len(setups) < SETUP_SAMPLES * due:
            setups.append(one_shot(["setup", name, seed], registry))
        if elapsed >= seconds and len(run.latencies_ns) >= MIN_OPS:
            break
    while kernel.alive and len(kernel.rounds_ns) < workloads.KERNEL_ROUNDS:
        kernel.round()
    while len(setups) < SETUP_SAMPLES:
        setups.append(one_shot(["setup", name, seed], registry))
    run.close()
    kernel.close()

    raw_ms = [ns / 1e6 for ns in run.latencies_ns]
    attempted = len(raw_ms)
    failed = run.failed_ops
    done = run.done or {}
    k = kernel.done or {}
    attempted += k.get("ops", 1)
    failed += k.get("failed", 0) + (kernel.done is None)
    attempted += len(setups)
    failed += sum(s.done is None for s in setups)

    # The machine's speed drifts by tens of percent for a minute or more, and
    # differs between processes, so each process's timings are scaled to
    # speed 1.0 by its own reference loop.  The two ratios compare loops
    # timed side by side and are not scaled.
    speed = process_speed(run)
    lat_ms = [v * speed for v in raw_ms]
    setup_values = [s.done["setup_s"] * process_speed(s) for s in setups if s.done]
    completed = len(lat_ms) - run.failed_ops
    p90 = percentile(lat_ms, 90) if len(lat_ms) >= 2 else 0.0
    metrics = {
        "ops_per_s": completed / elapsed / speed if elapsed else 0.0,
        "latency_p50_ms": statistics.median(lat_ms) if lat_ms else 0.0,
        "latency_p90_ms": p90,
        "peak_rss_mb": run.maxrss_kb / 1024,
        "setup_s": statistics.median(setup_values) if setup_values else 0.0,
        "nrev_lips": k.get("nrev_lips", 0.0) / process_speed(kernel),
        "dispatch_overhead_x": k.get("dispatch_overhead_x", 0.0),
        "depth_growth_x": k.get("depth_growth_x", 0.0),
    }
    unscaled = {
        "ops_per_s": completed / elapsed if elapsed else 0.0,
        "latency_p50_ms": statistics.median(raw_ms) if raw_ms else 0.0,
        "latency_p90_ms": percentile(raw_ms, 90) if len(raw_ms) >= 2 else 0.0,
        "setup_s": statistics.median(s.done["setup_s"] for s in setups if s.done)
        if setup_values else 0.0,
        "nrev_lips": k.get("nrev_lips", 0.0),
    }
    samples = {
        "ops_per_s": "%d operations in %.2f s (%s rounds)"
        % (len(lat_ms), elapsed, done.get("rounds")),
        "latency_p50_ms": "%d samples" % len(lat_ms),
        "latency_p90_ms": "%d samples, %d beyond p90"
        % (len(lat_ms), sum(v > p90 for v in lat_ms)),
        "setup_s": "median of %d fresh processes: %s"
        % (len(setup_values), ", ".join("%.4f" % v for v in setup_values)),
        "peak_rss_mb": "ru_maxrss of the workload child",
        "nrev_lips": "%s nrev runs" % k.get("samples", {}).get("nrev"),
        "dispatch_overhead_x": "%s alternating pairs"
        % k.get("samples", {}).get("dispatch_overhead_pairs"),
        "depth_growth_x": "%s alternating pairs"
        % k.get("samples", {}).get("depth_growth_pairs"),
    }
    report = {"workload": name, "seed": seed, "seconds": seconds,
              "env": done.get("env"), "params": done.get("params"),
              "kernel_params": k.get("params"),
              "exit_codes": {"run": run.returncode, "kernel": kernel.returncode,
                             "setup": [s.returncode for s in setups]},
              "error_rate": failed / attempted,
              "speed": {"run": speed, "kernel": process_speed(kernel),
                        "setup": [process_speed(s) for s in setups]},
              "unscaled": unscaled,
              "samples": samples}
    return attempted, failed, metrics, report


def per_layer(summary, untraced, traced):
    fn = summary["functions"]
    counts = summary["counts"]
    layers = summary["layers"]

    def calls(name):
        return fn.get(name, {}).get("calls", 0)

    def self_s(name):
        return fn.get(name, {}).get("self_s", 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    dispatches = counts["dispatcher.dispatch.calls"]
    scored = calls("dispatcher.score_signature")
    metrics = {
        "dispatcher.score_signature.calls": (scored, "count"),
        "dispatcher.score_signature.s": (self_s("dispatcher.score_signature"), "s"),
        "dispatcher.updated_context.s": (self_s("dispatcher.updated_context"), "s"),
        "dispatcher.dispatch.calls": (dispatches, "count"),
        "dispatcher.candidates_per_dispatch":
            (ratio(counts["dispatcher.candidates"], dispatches), "count"),
        "dispatcher.eligible_ratio":
            (ratio(counts["dispatcher.eligible"], scored), "ratio"),
        "dispatcher.winners_per_dispatch":
            (ratio(counts["dispatcher.winners"], dispatches), "count"),
        "terms.unify.calls": (calls("terms.unify"), "count"),
        "terms.unify.s": (self_s("terms.unify"), "s"),
        "terms.unify.success_ratio":
            (ratio(counts["terms.unify.success"], calls("terms.unify")), "ratio"),
        "kb.clauses_for.calls": (calls("kb.clauses_for"), "count"),
        "kb.clauses_for.items": (counts["kb.clauses_for.items"], "count"),
        "kb.clauses_for.s": (self_s("kb.clauses_for"), "s"),
        "kb.add_clause.calls": (counts["kb.add_clause.calls"], "count"),
        "terms.rename_term.calls": (calls("terms.rename_term"), "count"),
        "terms.rename_term.s": (self_s("terms.rename_term"), "s"),
        "terms.resolve.s": (self_s("terms.resolve"), "s"),
        "solver.inferences": (counts["solver.tick.calls"], "count"),
        "solver.solve.calls": (counts["solver.solve.calls"], "count"),
        "solver.call_predicate.calls": (counts["solver.call_predicate.calls"], "count"),
        "solver.self_s": (layers["solver"], "s"),
        "runtime.gc_s": (layers["runtime"], "s"),
        "runtime.gc_collections": (summary["gc_collections"], "count"),
        "reader.parse_program.calls": (counts["reader.parse_program.calls"], "count"),
        "reader.parse_program.s": (self_s("reader.parse_program"), "s"),
        "reader.parse_term.s": (self_s("reader.parse_term"), "s"),
        "transformer.expand_source_item.calls":
            (calls("transformer.expand_source_item"), "count"),
        "transformer.expand_source_item.s":
            (self_s("transformer.expand_source_item"), "s"),
        "transformer.phase1_rewrite.calls":
            (counts["transformer.phase1_rewrite.calls"], "count"),
        "engine.apply_term_hook.calls": (counts["engine.apply_term_hook.calls"], "count"),
        "engine.consult_text.s": (self_s("engine.consult_text"), "s"),
        "render.render.calls": (calls("render.render"), "count"),
        "render.render.s": (self_s("render.render"), "s"),
        "corpus.run_case.calls": (counts["corpus.run_case.calls"], "count"),
    }
    for layer in ("reader", "transformer", "kb", "terms", "dispatcher", "render",
                  "engine", "corpus"):
        metrics["%s.self_s" % layer] = (layers.get(layer, 0.0), "s")
    untraced_rate = ratio(untraced["ops"], untraced["op_s"])
    traced_rate = ratio(traced["ops"], traced["op_s"])
    # The two children run one after the other, so each rate is first
    # scaled by its own reference loop (see timed_run).
    slowdown = ratio(untraced_rate * statistics.median(untraced["references"]),
                     traced_rate * statistics.median(traced["references"]))
    metrics.update({
        "trace.ops_s": (summary["ops_s"], "s"),
        "trace.layers_sum_ratio": (ratio(sum(layers.values()), summary["ops_s"]),
                                   "ratio"),
        "trace.ops": (traced["ops"], "count"),
        "trace.untraced_ops_per_s": (untraced_rate, "1/s"),
        "trace.traced_ops_per_s": (traced_rate, "1/s"),
        "trace.overhead_x": (slowdown, "x"),
        "trace.spans": (summary["spans"], "count"),
    })
    return metrics


def traced_run(name, seed, registry):
    rounds = TRACE_ROUNDS[name]
    spans = OUT / ("spans-%s-seed%d.csv.gz" % (name, seed))
    plain = one_shot(["rounds", name, seed, rounds, 0, "-"], registry)
    traced = one_shot(["rounds", name, seed, rounds, 1, spans], registry)
    attempted = len(plain.latencies_ns) + len(traced.latencies_ns)
    failed = plain.failed_ops + traced.failed_ops
    report = {"workload": name, "seed": seed, "rounds": rounds,
              "exit_codes": {"untraced": plain.returncode,
                             "traced": traced.returncode},
              "spans_file": str(spans.relative_to(ROOT))}
    if plain.done is None or traced.done is None:
        return attempted, max(failed, 1), {}, report
    summary = traced.done["trace"]
    report.update(speed={"untraced": process_speed(plain),
                         "traced": process_speed(traced)})
    report.update(env=traced.done["env"], params=traced.done["params"],
                  trace=summary, error_rate=failed / attempted)
    return attempted, failed, per_layer(summary, plain.done, traced.done), report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mdprolog" / "__init__.py").is_file():
        print("no engine source at %s; run from a checkout of the repository"
              % (ROOT / "src" / "mdprolog"), file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    problems = self_check(args.workload, args.seed)
    if problems:
        print("harness self-check failed: %s" % "; ".join(problems), file=sys.stderr)
        return 3

    # Only one process measures at a time.  Keeping all of them on one CPU
    # keeps them in the same speed state of the shared machine.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    registry = Registry()
    watchdog = threading.Timer(DEADLINE_S, registry.kill_all)
    watchdog.start()
    try:
        if args.trace:
            attempted, failed, metrics, report = traced_run(
                args.workload, args.seed, registry)
            units = {k: u for k, (_, u) in metrics.items()}
            values = {k: v for k, (v, _) in metrics.items()}
        else:
            attempted, failed, values, report = timed_run(
                args.workload, args.seed, args.seconds, registry)
            units = END_TO_END_UNITS
    finally:
        watchdog.cancel()

    OUT.mkdir(exist_ok=True)
    report.update(cpu=cpu, attempted=attempted, failed=failed,
                  metrics={k: {"value": v, "unit": units[k]} for k, v in values.items()})
    path = OUT / ("report-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    path.write_text(json.dumps(report, indent=1) + "\n")

    print("workload %s, seed %d, trace %d (report: %s)"
          % (args.workload, args.seed, args.trace, path.relative_to(ROOT)))
    if report.get("env"):
        print("environment: %s" % json.dumps(report["env"]))
        print("parameters: %s" % json.dumps(report.get("params")))
    print("attempted %d, failed %d, error_rate %.4f"
          % (attempted, failed, failed / attempted if attempted else 1.0))
    if "speed" in report:
        print("machine speed of each child (1.0 nominal): %s"
              % json.dumps(report["speed"]))
    if report.get("unscaled"):
        print("unscaled: %s" % json.dumps(report["unscaled"]))
    for key, value in values.items():
        note = report.get("samples", {}).get(key, "")
        print("  %-40s %14.6g %-6s %s" % (key, value, units[key], note))
    print(json.dumps({"correct": failed == 0 and bool(values), "attempted": attempted,
                      "failed": failed,
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
