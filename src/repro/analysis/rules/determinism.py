"""Determinism rules: one seed must give exactly one trace.

The original three-rule lint (wall-clock, unseeded-random, set-iteration)
lives here as registry rules, joined by three discipline rules the
sanitizer work surfaced: unnamed RNG streams, salted ``hash()`` values and
mutable default arguments (a shared-state trap that makes behaviour depend
on call history) — and by the rule that keeps identity per deployment: no
id counter bound at module level.
"""

from __future__ import annotations

import ast
from typing import Iterator

from . import Finding, LintContext, Rule, Severity, register

#: fully-qualified callables that read the wall clock
WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.localtime",
    "time.gmtime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: constructors that are fine *when given an explicit seed argument*
SEEDABLE_CTORS = {
    "random.Random",
    "numpy.random.default_rng",
    "numpy.random.RandomState",
    "numpy.random.Generator",
}

#: always nondeterministic, seed or not
FORBIDDEN_RANDOM = {
    "random.SystemRandom",
    "os.urandom",
    "secrets.token_bytes",
    "secrets.token_hex",
    "secrets.randbelow",
    "uuid.uuid4",
}


@register
class WallClockRule(Rule):
    """Flags wall-clock reads inside simulation code."""

    id = "wall-clock"
    severity = Severity.ERROR
    summary = "reads the host wall clock inside simulation code"
    rationale = """
        Reading real time (time.time and friends) inside simulation logic
        couples results to the host machine: the same seed gives different
        traces on different hardware or under different load.  Simulated
        time (sim.now) is the only clock simulation code may consult;
        benchmark harnesses that legitimately time wall seconds carry a
        pragma.
    """
    example = """
        t0 = time.perf_counter()      # flagged

        t0 = sim.now                  # simulated time is deterministic
    """

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        """Yield this rule's findings for one module."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = ctx.resolve(node.func)
            if name in WALL_CLOCK_CALLS:
                yield self.finding(
                    ctx, node,
                    f"{name}() couples results to the host clock; use "
                    "sim.now for simulated time",
                )


@register
class UnseededRandomRule(Rule):
    """Flags global/unseeded randomness sources."""

    id = "unseeded-random"
    severity = Severity.ERROR
    summary = "draws from a global / unseeded RNG stream"
    rationale = """
        Drawing from the global random module (or numpy.random) bypasses
        the engine's named RNG streams (Simulator.rng), so adding one draw
        anywhere perturbs every stream everywhere — and entropy-seeded
        generators (random.Random(), SystemRandom, os.urandom, uuid4) are
        nondeterministic by construction.
    """
    example = """
        x = random.random()           # flagged: shared global stream

        x = sim.rng("workload").random()   # named, seed-derived stream
    """

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        """Yield this rule's findings for one module."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = ctx.resolve(node.func)
            if name is None:
                continue
            if name in FORBIDDEN_RANDOM:
                yield self.finding(
                    ctx, node, f"{name}() is nondeterministic by construction"
                )
            elif name in SEEDABLE_CTORS:
                if not node.args and not node.keywords:
                    yield self.finding(
                        ctx, node,
                        f"{name}() without a seed is entropy-seeded; pass an "
                        "explicit seed or use sim.rng(<stream>)",
                    )
            elif name.startswith("random.") or name.startswith("numpy.random."):
                yield self.finding(
                    ctx, node,
                    f"{name}() draws from the shared global stream; use "
                    "sim.rng(<stream>) so draws stay isolated per purpose",
                )


def _is_set_expr(node: ast.AST, ctx: LintContext) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return ctx.resolve(node.func) in ("set", "frozenset")
    return False


@register
class SetIterationRule(Rule):
    """Flags iteration over unordered sets."""

    id = "set-iteration"
    severity = Severity.ERROR
    summary = "iterates an unordered set (hash-seed dependent order)"
    rationale = """
        Iterating a set/frozenset/set literal in code that schedules events
        makes event order depend on PYTHONHASHSEED: two runs of the same
        seed produce different traces.  Sort the set, or dedupe in
        insertion order with dict.fromkeys.
    """
    example = """
        for sw in set(switches): ...          # flagged

        for sw in sorted(set(switches)): ...  # hash-seed independent
    """

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        """Yield this rule's findings for one module."""
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if _is_set_expr(node.iter, ctx):
                    yield self.finding(
                        ctx, node,
                        "iterating a set makes order depend on the hash seed; "
                        "sort it or use dict.fromkeys to dedupe in order",
                    )
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                                   ast.DictComp)):
                for gen in node.generators:
                    if _is_set_expr(gen.iter, ctx):
                        yield self.finding(
                            ctx, gen.iter,
                            "comprehension iterates a set; order depends on "
                            "the hash seed — sort it or dedupe with "
                            "dict.fromkeys",
                        )


@register
class UnnamedRngStreamRule(Rule):
    """Flags sim.rng() lookups without a stream name."""

    id = "unnamed-rng-stream"
    severity = Severity.WARNING
    summary = "sim.rng() without a stream name shares the default stream"
    rationale = """
        Simulator.rng(stream) exists so separate subsystems draw from
        separate deterministic streams.  Calling it with no stream name
        puts the caller on the shared "default" stream, where any new draw
        in one subsystem shifts every later draw in another — the exact
        coupling named streams prevent.  The runtime sanitizer flags the
        same pattern dynamically as rng-stream-sharing.
    """
    example = """
        rng = sim.rng()               # flagged: shared "default" stream

        rng = sim.rng("mn-decoys")    # isolated per-purpose stream
    """

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        """Yield this rule's findings for one module."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = ctx.resolve(node.func)
            if name is None or not name.endswith(".rng"):
                continue
            if not node.args and not node.keywords:
                yield self.finding(
                    ctx, node,
                    f"{name}() with no stream name draws from the shared "
                    "'default' stream; name a per-purpose stream",
                )


@register
class SaltedHashRule(Rule):
    """Flags builtin hash(), which is salted per process."""

    id = "salted-hash"
    severity = Severity.WARNING
    summary = "builtin hash() is PYTHONHASHSEED-salted for str/bytes"
    rationale = """
        hash() over str/bytes is salted per interpreter start, so any value
        derived from it (bucket choice, sampling decision, tie-break)
        varies run to run unless PYTHONHASHSEED is pinned.  Use
        zlib.crc32 over encoded text — the convention content_tag sampling
        already follows — for a stable fingerprint.
    """
    example = """
        bucket = hash(flow_name) % N          # flagged: salted

        bucket = zlib.crc32(flow_name.encode()) % N   # stable
    """

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        """Yield this rule's findings for one module."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if ctx.resolve(node.func) == "hash":
                yield self.finding(
                    ctx, node,
                    "builtin hash() is salted by PYTHONHASHSEED for "
                    "str/bytes; use zlib.crc32(text.encode()) for a stable "
                    "fingerprint",
                )


_MUTABLE_CTORS = ("list", "dict", "set", "collections.defaultdict",
                  "collections.deque", "collections.OrderedDict")


@register
class MutableDefaultRule(Rule):
    """Flags mutable default argument values."""

    id = "mutable-default"
    severity = Severity.WARNING
    summary = "mutable default argument shared across calls"
    rationale = """
        A mutable default ([], {}, set(), deque()) is created once at
        definition time and shared by every call, so behaviour depends on
        call history — hidden global state in a codebase whose whole
        contract is that one seed gives one trace.  Default to None and
        materialize inside the function.
    """
    example = """
        def f(items: list = []): ...          # flagged: shared instance

        def f(items: Optional[list] = None):
            items = [] if items is None else items
    """

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        """Yield this rule's findings for one module."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if isinstance(default, (ast.List, ast.Dict, ast.Set)):
                    yield self.finding(
                        ctx, default,
                        "mutable default argument is shared across calls; "
                        "default to None and materialize inside",
                    )
                elif isinstance(default, ast.Call):
                    if ctx.resolve(default.func) in _MUTABLE_CTORS:
                        yield self.finding(
                            ctx, default,
                            "mutable default argument is shared across "
                            "calls; default to None and materialize inside",
                        )


@register
class ProcessGlobalMintRule(Rule):
    """Flags an ``itertools.count`` bound at module or class level."""

    id = "process-global-mint"
    severity = Severity.ERROR
    summary = "id counter bound at module level is shared by every deployment"
    rationale = """
        An itertools.count bound at module (or class) level is one sequence
        for the whole process, so every deployment continues where the
        previous one stopped: channel ids feed RNG stream names and shard
        ownership, so simulated results come to depend on what ran earlier
        in the interpreter.  MAGA's collision freedom and the MC's channel /
        cookie / group books are properties of one controller over one
        fabric; mint from the deployment's namespace (sim.ids(name)),
        fetched once by the object that draws from it.
    """
    example = """
        _next_id = itertools.count(1)         # flagged: one per process

        self._next_id = sim.ids("mic.channel")   # one per deployment
    """

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        """Yield this rule's findings for one module."""
        if not ctx.module or ctx.module.split(".")[0] != "repro":
            return
        scopes = [ctx.tree]
        while scopes:
            for node in scopes.pop().body:
                if isinstance(node, ast.ClassDef):
                    scopes.append(node)
                elif (
                    isinstance(node, (ast.Assign, ast.AnnAssign))
                    and isinstance(node.value, ast.Call)
                    and ctx.resolve(node.value.func) == "itertools.count"
                ):
                    yield self.finding(
                        ctx, node,
                        "module-level itertools.count is shared by every "
                        "deployment in the process; mint from sim.ids(name)",
                    )
