"""Seeded workloads, their programs and the reference answers for each query.

Everything here is plain Python: it builds program text and query text
from a seed, and works out the expected answer of every query without
running the engine.  The engine sees only the text.

A workload is consumed in *rounds*.  Every round holds the same mix of
operation kinds and sizes (sizes are jittered a little by the seed), so a
run made of whole rounds does about the same work whatever the seed.  The
seed picks the data: list contents, looked-up keys, signature shapes,
contexts, objects and their attributes, and the order inside a round.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

# The engine's bundled example programs, read as files so that generating
# the inputs does not import the engine before set-up is timed.
BUNDLED_PROGRAMS = (Path(__file__).resolve().parent.parent
                    / "src" / "mdprolog" / "corpus" / "programs")


class Op(NamedTuple):
    """One closed-loop operation: a query and the answer it must give.

    For engine workloads ``query`` is query text, ``outputs`` names the
    variables read from each solution and ``expected`` is the list of
    solutions as tuples of Python values (see ``to_python``).  For the
    corpus workload ``query`` is a case name and ``expected`` is True.
    """

    kind: str
    query: str
    outputs: tuple
    expected: object


def check(op, answer):
    """True when an answer equals the reference answer of the operation."""
    return answer == op.expected


def seeded_rng(seed, *parts):
    # String seeds hash with SHA-512, so they do not depend on PYTHONHASHSEED.
    return random.Random(":".join([str(seed), *map(str, parts)]))


def _jitter(rng, value, share, low, high):
    return max(low, min(high, round(value * (1 + rng.uniform(-share, share)))))


def _list_text(items):
    return "[%s]" % ", ".join(str(i) for i in items)


# -- shared loop programs ------------------------------------------------------

# Deterministic count loops.  The dispatched twin has the same two clauses
# as context rules with an empty specification, so every recursive step is
# one `?` dispatch where the plain loop makes one plain call.  Both rules of
# the twin tie and run in definition order, which is why the recursion is
# guarded by N > 0 and not by a cut.
LOOP_PROGRAM = """
psum(0, A, A).
psum(N, A, S) :- N > 0, A1 is A + N, N1 is N - 1, psum(N1, A1, S).

[] # dsum(0, A, A).
[] # dsum(N, A, S) :- N > 0, A1 is A + N, N1 is N - 1, [] ? dsum(N1, A1, S).
"""

NREV_PROGRAM = """
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
"""


def loop_op(kind, n):
    goal = "psum" if kind == "plain_loop" else "[] ? dsum"
    return Op(kind, "%s(%d, 0, S)" % (goal, n), ("S",),
              [(n * (n + 1) // 2,)])


def nrev_op(rng, n):
    items = [rng.randrange(1000) for _ in range(n)]
    return Op("nrev", "nrev(%s, R)" % _list_text(items), ("R",),
              [(items[::-1],)])


def nrev_inferences(n):
    """Standard naive-reverse count of logical inferences for a list of n."""
    return (n + 1) * (n + 2) // 2


# -- classic -----------------------------------------------------------------


class Classic:
    """Plain Prolog: naive reverse, first-argument fact lookup, count loops."""

    name = "classic"
    BUDGET = 1_000_000   # inferences per query; nrev of 300 takes about 135k
    NREV_LADDER = (30, 65, 139, 300)   # geometric from 30 to 300
    FACTS = 5000
    LOOKUPS = 40
    LOOPS = 12
    LOOP_RANGE = (500, 2000)

    def __init__(self, seed):
        self.seed = seed
        order = list(range(self.FACTS))
        seeded_rng(seed, self.name, "facts").shuffle(order)
        self.facts_text = "".join("fact(%d, v%d).\n" % (k, k) for k in order)

    def params(self):
        return {"nrev_lengths": list(self.NREV_LADDER), "nrev_jitter": 0.03,
                "facts": self.FACTS, "lookups_per_round": self.LOOKUPS,
                "loops_per_round": self.LOOPS, "loop_steps": list(self.LOOP_RANGE)}

    def programs(self):
        return [("classic.pl", NREV_PROGRAM + LOOP_PROGRAM),
                ("facts.pl", self.facts_text)]

    def rounds(self):
        k = 0
        while True:
            rng = seeded_rng(self.seed, self.name, "round", k)
            ops = [nrev_op(rng, _jitter(rng, n, 0.03, 30, 300))
                   for n in self.NREV_LADDER]
            for _ in range(self.LOOKUPS):
                key = rng.randrange(self.FACTS)
                ops.append(Op("lookup", "fact(%d, V)" % key, ("V",),
                              [("v%d" % key,)]))
            low, high = self.LOOP_RANGE
            width = (high - low) / self.LOOPS
            for i in range(self.LOOPS):  # one draw from each stratum
                n = int(low + width * (i + rng.random()))
                ops.append(loop_op("plain_loop", n))
            rng.shuffle(ops)
            yield ops
            k += 1


# -- dispatch ----------------------------------------------------------------


class Dispatch:
    """Dimension-only context rules: count loops and 1 vs 50 signatures."""

    name = "dispatch"
    BUDGET = 100_000     # a 500-step dispatched loop takes about 5k
    DIMS = ["d%d" % i for i in range(10)]      # used by signatures
    ABSENT = ["e%d" % i for i in range(10)]    # used by no signature
    SIGNATURES = 50
    LOOP_PAIRS = 2
    LOOP_RANGE = (100, 500)
    # Per (predicate, dimensions present or missing).  With 80 calls the 4
    # loop runs are a twentieth of a round, so p90 falls among the calls.
    CALLS_PER_CELL = 20

    def __init__(self, seed):
        self.seed = seed
        rng = seeded_rng(seed, self.name, "signatures")
        # Signature tables: predicate -> [(dims, index)] in definition order.
        self.table = {"p1": [(("d0",), 0)], "p50": []}
        for i in range(self.SIGNATURES):   # a third each of 1, 2 and 3 dims
            dims = tuple(rng.sample(self.DIMS, i % 3 + 1))
            self.table["p50"].append((dims, i))

    def params(self):
        return {"signatures": {"p1": 1, "p50": self.SIGNATURES},
                "dims": len(self.DIMS), "dims_per_signature": [1, 3],
                "loop_pairs_per_round": self.LOOP_PAIRS,
                "loop_steps": list(self.LOOP_RANGE),
                "calls_per_round": 4 * self.CALLS_PER_CELL}

    def programs(self):
        lines = ["[] # via(Given, G) :- Given ? G."]
        for pred, sigs in self.table.items():
            for dims, i in sigs:
                spec = ", ".join("%s: X%d" % (d, j) for j, d in enumerate(dims))
                lines.append("[%s] # %s(R) :- R = w(%d, X0)." % (spec, pred, i))
        return [("dispatch.mdp", LOOP_PROGRAM + "\n".join(lines) + "\n")]

    def winners(self, pred, ctx):
        """Reference dispatch: maximal-score eligible signatures, in order."""
        eligible = [(dims, i) for dims, i in self.table[pred]
                    if all(d in ctx for d in dims)]
        if not eligible:
            return []
        best = max(len(dims) for dims, _ in eligible)
        return [("w", i, ctx[dims[0]]) for dims, i in eligible
                if len(dims) == best]

    def _context(self, rng, pred, present):
        """Outer context, call-site update and the resulting dimensions.

        The call site removes some outer dimensions and upserts others, so
        the final context comes from both `-name` removals and `name: V`
        upserts.
        """
        while True:
            pool = self.DIMS if present else self.ABSENT
            outer = OrderedDict((d, rng.randrange(100))
                                for d in rng.sample(pool, rng.randint(2, 4)))
            removals = rng.sample(list(outer), rng.randint(0, 1))
            upserts = OrderedDict((d, rng.randrange(100))
                                  for d in rng.sample(pool, rng.randint(1, 2)))
            ctx = OrderedDict((d, v) for d, v in outer.items()
                              if d not in removals)
            ctx.update(upserts)
            if bool(self.winners(pred, ctx)) == present:
                return outer, removals, upserts, ctx

    def rounds(self):
        k = 0
        while True:
            rng = seeded_rng(self.seed, self.name, "round", k)
            ops = []
            for pred in ("p1", "p50"):
                for present in (True, False):
                    for _ in range(self.CALLS_PER_CELL):
                        outer, removals, upserts, ctx = self._context(
                            rng, pred, present)
                        given = ["-%s" % d for d in removals] + \
                            ["%s: %d" % kv for kv in upserts.items()]
                        query = "[%s] ? via([%s], %s(R))" % (
                            ", ".join("%s: %d" % kv for kv in outer.items()),
                            ", ".join(given), pred)
                        kind = "%s_%s" % (pred, "present" if present else "missing")
                        ops.append(Op(kind, query, ("R",),
                                      [(w,) for w in self.winners(pred, ctx)]))
            rng.shuffle(ops)
            # Each dispatched loop runs next to its plain twin, the two in
            # alternating order, so that machine drift hits both alike.
            low, high = self.LOOP_RANGE
            width = (high - low) / self.LOOP_PAIRS
            for i in range(self.LOOP_PAIRS):
                n = int(low + width * (i + rng.random()))
                pair = [loop_op("plain_loop", n), loop_op("dispatched_loop", n)]
                if (k + i) % 2:
                    pair.reverse()
                at = rng.randrange(len(ops) + 1)
                ops[at:at] = pair
            yield ops
            k += 1


# -- objects -----------------------------------------------------------------

SHAPE_TYPES = ("rectangle", "special_rectangle", "circle")


class Objects:
    """The prelude's prototype objects plus the generic memo rules."""

    name = "objects"
    BUDGET = 100_000     # a representation send takes about 1.6k
    POOL = 24
    PRIMES_UP_TO = 200
    MIX = (("write", 8), ("read", 8), ("type", 4), ("clone", 4),
           ("representation", 6), ("memo", 4))
    PROGRAMS = ("shapes.mdp", "primes.mdp", "memo_generic.mdp")

    def __init__(self, seed):
        self.seed = seed
        rng = seeded_rng(seed, self.name, "pool")
        # Shadow of data/3: object -> ordered attributes, in clause order.
        self.pool = []
        for i in range(self.POOL):
            kind = SHAPE_TYPES[i % len(SHAPE_TYPES)]
            attrs = OrderedDict(type=kind)
            if kind == "circle":
                attrs["radius"] = rng.randint(1, 99)
            else:
                attrs["width"] = rng.randint(1, 99)
                attrs["height"] = rng.randint(1, 99)
            attrs["color"] = rng.choice(("red", "green", "blue"))
            self.pool.append(attrs)
        self.pool_text = "".join(
            "data(obj(%d), %s, %s).\n" % (i, name, value)
            for i, attrs in enumerate(self.pool)
            for name, value in attrs.items())

    def params(self):
        return {"objects": self.POOL, "types": list(SHAPE_TYPES),
                "mix_per_round": dict(self.MIX),
                "memo_numbers": [2, self.PRIMES_UP_TO]}

    def programs(self):
        texts = [(n, (BUNDLED_PROGRAMS / n).read_text()) for n in self.PROGRAMS]
        return texts + [("objects.pl", self.pool_text)]

    @staticmethod
    def _is_prime(n):
        return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    def _op(self, rng, kind):
        i = rng.randrange(self.POOL)
        attrs = self.pool[i]
        obj = "obj(%d)" % i
        if kind == "write":
            name = rng.choice([a for a in attrs if a != "type"])
            value = (rng.choice(("red", "green", "blue")) if name == "color"
                     else rng.randint(1, 99))
            # write/2 retracts the attribute and asserts it again at the end.
            del attrs[name]
            attrs[name] = value
            return Op(kind, "%s ! write(%s, %s)" % (obj, name, value), (),
                      [()])
        if kind == "read":
            name = rng.choice(list(attrs))
            return Op(kind, "%s ! read(%s, V)" % (obj, name), ("V",),
                      [(attrs[name],)])
        if kind == "type":
            return Op(kind, "%s ! type(T)" % obj, ("T",), [(attrs["type"],)])
        if kind == "clone":
            # The clone is retracted at once, so data/3 keeps its size.
            query = ("%s ! clone(C), findall(N-V, C ! read(N, V), L), "
                     "retractall(data(C, _, _))" % obj)
            return Op(kind, query, ("L",),
                      [([("-", n, v) for n, v in attrs.items()],)])
        if kind == "representation":
            shape = attrs["type"]
            if shape == "circle":
                rep = ("circle", attrs["radius"])
            else:
                rep = (shape, attrs["width"], attrs["height"])
            return Op(kind, "%s ! representation(R)" % obj, ("R",), [(rep,)])
        # memo: the first call evaluates is_prime twice (once to collect the
        # solutions, once to test for failure), the second replays the table.
        n = rng.randint(2, self.PRIMES_UP_TO)
        answer = "yes" if self._is_prime(n) else "no"
        call = "([memoize: yes] ? is_prime(%d) -> P%%d = yes ; P%%d = no)" % n
        query = ", ".join(["retractall(memoized(_, _)), base_evals(B0)",
                           call % (1, 1), call % (2, 2),
                           "base_evals(B1), E is B1 - B0"])
        return Op(kind, query, ("P1", "P2", "E"), [(answer, answer, 2)])

    def rounds(self):
        k = 0
        while True:
            rng = seeded_rng(self.seed, self.name, "round", k)
            kinds = [kind for kind, count in self.MIX for _ in range(count)]
            rng.shuffle(kinds)
            yield [self._op(rng, kind) for kind in kinds]
            k += 1


# -- corpus --------------------------------------------------------------------


class Corpus:
    """Every bundled example case through corpus.run_case, in seeded order."""

    name = "corpus"
    BUDGET = 1_000_000   # for the cases that set no budget of their own

    def __init__(self, seed, case_names=None):
        self.seed = seed
        self.case_names = case_names

    def params(self):
        return {"cases": len(self.case_names) if self.case_names else None,
                "budget": self.BUDGET}

    def programs(self):
        return []

    def rounds(self):
        if not self.case_names:
            raise ValueError("corpus workload needs the case names")
        k = 0
        while True:
            names = sorted(self.case_names)
            seeded_rng(self.seed, self.name, "round", k).shuffle(names)
            yield [Op("case", n, (), True) for n in names]
            k += 1


WORKLOADS = {w.name: w for w in (Classic, Dispatch, Objects, Corpus)}


def make(name, seed):
    """The workload and, for the corpus, its cases by name.

    Only the corpus imports the engine here, to load its case files.
    """
    if name != "corpus":
        return WORKLOADS[name](seed), None
    from mdprolog.corpus import load_cases

    cases = {c.name: replace(c, budget=c.budget or Corpus.BUDGET)
             for c in load_cases()}
    return Corpus(seed, sorted(cases)), cases


# -- kernels -------------------------------------------------------------------

# Fixed engine kernels behind nrev_lips, dispatch_overhead_x and
# depth_growth_x.  They run in a child process of their own beside every
# workload run, the same on every workload, in KERNEL_ROUNDS rounds spread
# over the run; each figure is a median over the rounds.
KERNEL_PROGRAM = NREV_PROGRAM + LOOP_PROGRAM
KERNEL_BUDGET = 1_000_000
KERNEL_ROUNDS = 8
NREV_KERNEL = (60, 2)           # list length, repetitions per round
OVERHEAD_KERNEL = 500           # loop steps, one dispatched/plain pair per round
DEPTH_KERNEL = 800              # deeper loop steps, one pair per round with a
                                # loop of a quarter of the depth


def kernel_params():
    return {"rounds": KERNEL_ROUNDS,
            "nrev": {"length": NREV_KERNEL[0],
                     "repetitions": NREV_KERNEL[1] * KERNEL_ROUNDS},
            "dispatch_overhead": {"steps": OVERHEAD_KERNEL, "pairs": KERNEL_ROUNDS},
            "depth_growth": {"steps": [DEPTH_KERNEL // 4, DEPTH_KERNEL],
                             "pairs": KERNEL_ROUNDS}}
