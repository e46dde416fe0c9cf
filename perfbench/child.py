"""Measurements in a fresh process; started by run.py, never by hand.

    python3 perfbench/child.py setup  WORKLOAD SEED
    python3 perfbench/child.py serve  WORKLOAD SEED
    python3 perfbench/child.py kernel WORKLOAD SEED
    python3 perfbench/child.py rounds WORKLOAD SEED ROUNDS TRACED SPANS_PATH

``setup`` and ``rounds`` run once.  ``serve`` (the workload) and ``kernel``
set up, print ``ready`` and then take commands on standard input: each
``round`` runs one more round and answers ``round NS`` with its wall time,
``stop`` ends.  The parent takes turns between them, so that both sample
the whole run while the machine's speed drifts.

``op KIND OK NS`` reports a finished operation as soon as it can, so that
the parent still knows what completed if this process dies.  The last
line is ``done JSON``.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FLUSH_EVERY_S = 0.1

# The speed of a shared machine drifts by tens of percent for seconds to
# minutes at a time.  Every process that measures also times this fixed
# pure-Python loop now and then and reports the times; run.py scales the
# run's timings by them.
REFERENCE_LOOP = 50_000
PROBE_EVERY_S = 0.25


def reference_s():
    """Time of the reference loop: the machine's present speed."""
    start = time.perf_counter()
    sum(i * i for i in range(REFERENCE_LOOP))
    return time.perf_counter() - start


def environment():
    """Where the figures were measured; call it after Engine() was built."""
    stack = [v if v != resource.RLIM_INFINITY else "unlimited"
             for v in resource.getrlimit(resource.RLIMIT_STACK)]
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "cpus_used": sorted(os.sched_getaffinity(0)),
            "recursion_limit_after_engine": sys.getrecursionlimit(),
            "stack_ulimit": stack,
            "gc_enabled": gc.isenabled()}


def to_python(term):
    """Engine term -> Python value, for comparison with reference answers."""
    from mdprolog.terms import Atom, Struct, Var

    if isinstance(term, Atom):
        return term.name
    if isinstance(term, Var):
        return "_"
    if isinstance(term, Struct):
        if term.functor == "." and len(term.args) == 2:
            items = []
            while (isinstance(term, Struct) and term.functor == "."
                   and len(term.args) == 2):
                items.append(to_python(term.args[0]))
                term = term.args[1]
            return items if term is Atom("[]") else ("|", items, to_python(term))
        return (term.functor,) + tuple(to_python(a) for a in term.args)
    return term


def build_engine(wl):
    from mdprolog import Engine

    engine = Engine()
    for filename, text in wl.programs():
        engine.consult_text(text, filename)
    # One inference budget for every query of the workload, so a runaway
    # query fails instead of hanging the run.  It is set once: the engine
    # resets its inference count only after preparing a query, so lowering
    # the budget between queries fails the next one in its goal-term hook.
    engine.budget = wl.BUDGET
    return engine


class Runner:
    """Runs operations closed-loop: the next one starts when one returns."""

    def __init__(self, engine, cases, out):
        import mdprolog.corpus

        self.engine = engine
        self.corpus = mdprolog.corpus   # looked up per call, so tracing sees it
        self.cases = cases
        self.out = out
        self.last_flush = time.perf_counter()
        self.references = [reference_s()]
        self.last_probe = time.perf_counter()
        self.probe_ns = 0    # time spent timing the reference loop

    def execute(self, op):
        """Run one operation; returns the answer (raises on engine errors)."""
        if op.kind == "case":
            return self.corpus.run_case(self.cases[op.query]).passed
        return self.engine.query(op.query)

    def answer(self, op, raw):
        if op.kind == "case":
            return raw
        return [tuple(to_python(s.bindings[v]) for v in op.outputs) for s in raw]

    def run(self, op, tracer=None, op_id=0):
        """Time one operation and check it; reports and returns (ok, ns)."""
        ok = False
        if tracer is not None:
            tracer.begin_op(op_id)
        start = time.perf_counter_ns()
        try:
            raw = self.execute(op)
        except Exception as exc:  # an engine error fails this operation only
            ns = time.perf_counter_ns() - start
            if tracer is not None:
                tracer.end_op()
            print("error %s %s: %s" % (op.kind, type(exc).__name__,
                                       str(exc)[:200]), file=sys.stderr)
        else:
            ns = time.perf_counter_ns() - start
            if tracer is not None:
                tracer.end_op()
            ok = workloads.check(op, self.answer(op, raw))
            if not ok:
                print("wrong answer %s: %s" % (op.kind, op.query[:200]),
                      file=sys.stderr)
        self.out.write("op %s %d %d\n" % (op.kind, ok, ns))
        now = time.perf_counter()
        if now - self.last_flush >= FLUSH_EVERY_S:
            self.out.flush()
            self.last_flush = now
        if now - self.last_probe >= PROBE_EVERY_S:
            start = time.perf_counter_ns()
            self.references.append(reference_s())
            self.last_probe = time.perf_counter()
            self.probe_ns += time.perf_counter_ns() - start
        return ok, ns


def mode_setup(name, seed):
    """Fresh-process set-up: import, Engine() and consulting the inputs."""
    programs = workloads.WORKLOADS[name](seed).programs()   # before the clock
    references = [reference_s() for _ in range(3)]
    start = time.perf_counter()
    from mdprolog import Engine

    engine = Engine()
    for filename, text in programs:
        engine.consult_text(text, filename)
    if name == "corpus":
        from mdprolog.corpus import load_cases

        load_cases()
    return {"setup_s": time.perf_counter() - start, "references": references}


def serve(step, finish):
    """Run one step per ``round`` command until ``stop``; returns finish().

    step() returns the nanoseconds of the round spent outside the work
    itself (timing the reference loop), which the round's time leaves out.
    """
    print("ready", flush=True)
    for line in sys.stdin:
        command = line.strip()
        if command == "round":
            start = time.perf_counter_ns()
            aside = step()
            sys.stdout.write("round %d\n" % (time.perf_counter_ns() - start - aside))
            sys.stdout.flush()
        elif command == "stop":
            break
    return finish()


def mode_serve(name, seed):
    """The workload, one round per command, closed loop inside a round."""
    wl, cases = workloads.make(name, seed)
    engine = build_engine(wl)
    runner = Runner(engine, cases, sys.stdout)
    rounds = wl.rounds()
    tally = {"ops": 0, "failed": 0, "rounds": 0}

    def step():
        probed = runner.probe_ns
        for op in next(rounds):
            ok, _ = runner.run(op)
            tally["ops"] += 1
            tally["failed"] += not ok
        tally["rounds"] += 1
        return runner.probe_ns - probed

    def finish():
        return dict(tally, references=runner.references,
                    params=wl.params(), env=environment())
    return serve(step, finish)


def mode_rounds(name, seed, rounds, traced, spans_path):
    """A fixed number of whole rounds, traced or not, set-up included."""
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    wl, cases = workloads.make(name, seed)
    if tracer is not None:
        tracer.begin_op(0)   # the set-up is operation 0
    engine = build_engine(wl)
    if tracer is not None:
        tracer.end_op()
        setup_ops_s = tracer.ops_s
    runner = Runner(engine, cases, sys.stdout)
    ops = failed = 0
    op_ns = 0
    iterator = wl.rounds()
    for _ in range(rounds):
        for op in next(iterator):
            ops += 1
            ok, ns = runner.run(op, tracer, ops)
            failed += not ok
            op_ns += ns
    result = {"ops": ops, "failed": failed, "op_s": op_ns / 1e9,
              "references": runner.references,
              "params": wl.params(), "env": environment()}
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        result["trace"]["setup_ops_s"] = setup_ops_s
        Path(spans_path).parent.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(spans_path)
    return result


def mode_kernel(name, seed):
    """Fixed engine kernels: nrev speed, dispatch overhead, depth growth.

    One round runs each kernel once; each figure comes from the times
    summed over the rounds.  The heap is collected before every timed
    query, so that each one starts from the same GC state.
    """
    from mdprolog import Engine

    engine = Engine()
    engine.consult_text(workloads.KERNEL_PROGRAM, "kernel.pl")
    engine.budget = workloads.KERNEL_BUDGET
    rng = workloads.seeded_rng(seed, "kernel")
    checks = failed = 0

    def timed(op):
        nonlocal checks, failed
        gc.collect()
        start = time.perf_counter()
        sols = engine.query(op.query)
        elapsed = time.perf_counter() - start
        answer = [tuple(to_python(s.bindings[v]) for v in op.outputs) for s in sols]
        checks += 1
        if not workloads.check(op, answer):
            failed += 1
            print("wrong kernel answer: %s" % op.query[:200], file=sys.stderr)
        return elapsed

    length, reps = workloads.NREV_KERNEL
    dispatched = workloads.loop_op("dispatched_loop", workloads.OVERHEAD_KERNEL)
    plain = workloads.loop_op("plain_loop", workloads.OVERHEAD_KERNEL)
    deep = workloads.loop_op("dispatched_loop", workloads.DEPTH_KERNEL)
    shallow = workloads.loop_op("dispatched_loop", workloads.DEPTH_KERNEL // 4)
    # Summed times: the time of one loop swings between two levels from one
    # repetition to the next, and a sum averages that where a median of a
    # few would jump between the levels.
    sums = dict.fromkeys(("nrev", "dispatched", "plain", "deep", "shallow"), 0.0)
    references = []
    rounds = [0]

    def step():
        references.extend(reference_s() for _ in range(3))
        for _ in range(reps):
            sums["nrev"] += timed(workloads.nrev_op(rng, length))
        # Each pair alternates which of its two loops runs first.
        pairs = (("dispatched", dispatched), ("plain", plain)), \
            (("deep", deep), ("shallow", shallow))
        for pair in pairs:
            for key, op in (pair if rounds[0] % 2 else reversed(pair)):
                sums[key] += timed(op)
        rounds[0] += 1
        return 0

    def finish():
        if not rounds[0]:
            return {"ops": checks, "failed": failed}
        lips = rounds[0] * reps * workloads.nrev_inferences(length) / sums["nrev"]
        return {"nrev_lips": lips,
                "references": references,
                "dispatch_overhead_x": sums["dispatched"] / sums["plain"],
                "depth_growth_x": sums["deep"] / sums["shallow"] / 4,
                "samples": {"nrev": rounds[0] * reps,
                            "dispatch_overhead_pairs": rounds[0],
                            "depth_growth_pairs": rounds[0]},
                "ops": checks, "failed": failed,
                "params": workloads.kernel_params()}
    return serve(step, finish)


def main(argv):
    sys.path.insert(0, str(SRC))
    mode, name, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        result = mode_setup(name, seed)
    elif mode == "serve":
        result = mode_serve(name, seed)
    elif mode == "rounds":
        result = mode_rounds(name, seed, int(argv[3]), argv[4] == "1", argv[5])
    elif mode == "kernel":
        result = mode_kernel(name, seed)
    else:
        raise SystemExit("unknown mode %r" % mode)
    sys.stdout.write("done %s\n" % json.dumps(result))
    sys.stdout.flush()


if __name__ == "__main__":
    main(sys.argv[1:])
