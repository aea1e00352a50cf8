"""In-memory spans around calls into pmatch's modules, made from outside the
program by wrapping the names its callers look up.

Every span is folded into per-name totals when it ends: call count,
inclusive time, and self time (inclusive time minus the time of the spans
that ran inside it). Nothing is written until the run ends.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

from pmatch import cli, graph, matching, oracle, solvers, theorems


class Tracer:
    def __init__(self):
        self.stack: list[list[float]] = []
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.patches: list[tuple[object, str, object]] = []

    def reset(self):
        self.calls.clear()
        self.incl.clear()
        self.self_time.clear()
        self.counts.clear()

    def _close(self, name: str, frame: list[float], elapsed: float):
        self.stack.pop()
        if self.stack:
            self.stack[-1][0] += elapsed
        self.calls[name] += 1
        self.incl[name] += elapsed
        self.self_time[name] += elapsed - frame[0]

    def wrap(self, owner, attr: str, name: str, observe=None):
        """Replace ``owner.attr`` by a span-recording wrapper. ``observe(args,
        result, elapsed)`` adds layer-specific totals; ``result`` is None when
        the call raised."""
        fn = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            frame = [0.0]
            tracer.stack.append(frame)
            started = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = perf_counter() - started
                tracer._close(name, frame, elapsed)
                if observe is not None:
                    observe(args, result, elapsed)

        traced.__wrapped__ = fn
        setattr(owner, attr, traced)
        self.patches.append((owner, attr, fn))

    def install(self):
        """Wrap every traced name. Names imported with ``from .x import y``
        are wrapped in each importing module, where the caller looks them up."""
        for mod in (cli, solvers, theorems):
            self.wrap(mod, "compute_parameter", "solvers", self._observe_solver)
        self.wrap(cli, "main", "cli")
        self.wrap(solvers, "property_holds", "properties")
        for mod in (solvers, matching):
            self.wrap(mod, "max_matching_size", "matching.blossom")
            self.wrap(mod, "lexmin_maximum_matching", "matching.lexmin")
        self.wrap(graph.Graph, "__post_init__", "graph")
        self.wrap(oracle, "oracle_parameter", "oracle", self._observe_oracle)
        self.wrap(theorems, "applicable_checks", "theorems")
        self.wrap(theorems, "run_check", "theorems", self._observe_check)

    def uninstall(self):
        while self.patches:
            owner, attr, fn = self.patches.pop()
            setattr(owner, attr, fn)

    def _observe_solver(self, args, result, elapsed):
        tag = args[1].value
        self.incl[f"solvers.{tag}"] += elapsed
        if result is None:
            return
        self.counts[f"solvers.{tag}.nodes"] += result.nodes_explored
        route = "search" if result.route == "search" else "fastpath"
        self.incl[f"solvers.{route}"] += elapsed
        self.counts[f"solvers.{route}.nodes"] += result.nodes_explored

    def _observe_oracle(self, args, result, elapsed):
        if result is not None:
            self.counts["oracle.enumerated"] += result.enumerated

    def _observe_check(self, args, result, elapsed):
        if result is not None:
            self.counts["theorems.checks"] += 1
