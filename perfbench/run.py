"""Run one workload of the pmatch benchmark and print its metrics.

    python3 perfbench/run.py --workload desk|verify|kernels --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout: pmatch is imported from ./src, never from an
installed copy. With ``--trace 0`` the run repeats passes over the workload's
items for ``--seconds``, and at least the workload's ``min_passes`` times, and
reports the end-to-end metrics. With ``--trace 1`` it makes one untraced pass
and two traced passes and reports the per-layer metrics; the exact counters of
the two traced passes must agree. Every answer is checked. The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (each metric as value and unit);
the line before it records the environment. See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3

# This benchmark's 2-vCPU host shares its cores: the same pure-Python loop runs
# up to 2x slower for stretches of seconds to minutes. End-to-end times are
# therefore scaled by a probe of fixed pure-Python work sampled throughout the
# run: each timed call's wall time is multiplied by PROBE_NOMINAL_S over the
# mean probe time around that call. The unit is "seconds on a host where the
# probe takes PROBE_NOMINAL_S"; raw wall times are kept in the environment
# record.
PROBE_INTERVAL_S = 0.04
PROBE_LOOPS = 2000
PROBE_NOMINAL_S = 0.00125
PROBE_NEAREST = 12

# Interpreter start-up is mostly loader work, which the probe does not track.
# So each fresh-interpreter ``import pmatch`` sample is followed at once by a
# fresh import of a fixed set of standard-library modules, and import_s is the
# median over pairs of their ratio, reported at REFERENCE_NOMINAL_S for the
# reference import. Single samples swing by 40%; the ratio within a pair
# cancels most of it, where a ratio of two separate medians does not. The
# IMPORT_PAIRS pairs are taken after the timed passes, not between items, so
# that nothing but the workload runs from the first timed item to the last.
IMPORT_PAIRS = 16
IMPORT_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import {}; print(time.perf_counter() - t)"
)
REFERENCE_MODULES = "decimal, fractions, email.parser, http.client, xml.dom.minidom, logging, argparse, csv, zipfile"
REFERENCE_NOMINAL_S = 0.05


@dataclass
class PassResult:
    times: list = field(default_factory=list)  # (item name, seconds)
    spans: list = field(default_factory=list)  # (start, end) of each timed call
    errors: list = field(default_factory=list)  # (item, message)
    layer_items: dict = field(default_factory=dict)  # layer -> per-item seconds

    @property
    def seconds(self) -> float:
        return sum(t for _, t in self.times)

    def scaled_times(self, probe) -> list[float]:
        return [probe.scaled(t, *span) for (_, t), span in zip(self.times, self.spans)]


class SpeedProbe:
    """Runs a fixed piece of pure-Python work every PROBE_INTERVAL_S of CPU
    time, from a SIGPROF handler, and keeps its durations. The work touches
    nothing of pmatch, so a change to the program cannot move it."""

    def __init__(self):
        self.stamps: list[float] = []
        self.samples: list[float] = []
        self.spent = 0.0
        self.table = dict.fromkeys(range(1009), 0)

    def _sample(self, signum, frame):
        # At most one new container object is alive at a time: the cyclic
        # collector runs on the count of live ones, and a probe that moved its
        # schedule would move the program's peak memory.
        started = perf_counter()
        try:
            table = self.table
            acc = 0
            for i in range(PROBE_LOOPS):
                k = (i * 7919) % 1009
                table[k] = (table[k] + ((i & 0x55) ^ (i >> 3))) & 0xFFFF
                acc += len((i, k, acc & 7))
        finally:
            elapsed = perf_counter() - started
            self.stamps.append(started)
            self.samples.append(elapsed)
            self.spent += elapsed

    def __enter__(self):
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def scaled(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` measured over [start, end], at the nominal probe speed:
        the probe samples taken inside the interval, or the PROBE_NEAREST
        nearest to it when fewer fell inside, give the speed."""
        lo = bisect.bisect_left(self.stamps, start)
        hi = bisect.bisect_right(self.stamps, end)
        while hi - lo < PROBE_NEAREST and (lo > 0 or hi < len(self.stamps)):
            if hi == len(self.stamps) or (lo > 0 and start - self.stamps[lo - 1] < self.stamps[hi] - end):
                lo -= 1
            else:
                hi += 1
        return seconds * PROBE_NOMINAL_S / statistics.fmean(self.samples[lo:hi])


class ImportTimer:
    """Times ``import pmatch``, each time followed by the reference import,
    in fresh interpreters."""

    def __init__(self):
        self.samples: list[float] = []
        self.reference: list[float] = []

    @staticmethod
    def _time(modules: str) -> float:
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_CODE.format(modules), str(SRC)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        return float(out.stdout.strip())

    def sample(self, pairs: int):
        for _ in range(pairs):
            self.samples.append(self._time("pmatch"))
            self.reference.append(self._time(REFERENCE_MODULES))

    def seconds(self) -> float:
        ratios = [t / ref for t, ref in zip(self.samples, self.reference)]
        return statistics.median(ratios) * REFERENCE_NOMINAL_S


def run_pass(wl, items, probe: SpeedProbe, tracer=None) -> PassResult:
    """One pass over ``items``; only ``wl.run`` is timed, minus the time the
    speed probe took inside it. Answers are checked with tracing paused, so
    checking adds no spans."""
    res = PassResult()
    layers = ("solvers", "oracle", "theorems")
    if tracer is not None:
        res.layer_items = {name: [] for name in layers}
    wl.before_pass()
    for item in items:
        if tracer is not None:
            before = [tracer.incl[name] for name in layers]
            tracer.install()
        probed = probe.spent
        started = perf_counter()
        try:
            result = wl.run(item)
            error = None
        except Exception as exc:  # a crash is a failed item, not a failed run
            error = f"{type(exc).__name__}: {str(exc)[:160]}"
        ended = perf_counter()
        elapsed = ended - started - (probe.spent - probed)
        if tracer is not None:
            tracer.uninstall()
            for name, was in zip(layers, before):
                res.layer_items[name].append(tracer.incl[name] - was)
        if error is None:
            error = wl.check(item, result)
        res.times.append((item.name, elapsed))
        res.spans.append((started, ended))
        if error is not None:
            res.errors.append((item, error))
    return res


def quantile(values, q: int) -> float:
    """The q-th percentile, interpolated between samples."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def exact_counters(W, tracer) -> dict:
    """The counts that must repeat exactly from one traced pass to the next."""
    out = {f"solvers.{pid.value}.nodes": tracer.counts[f"solvers.{pid.value}.nodes"] for pid in W.PIDS}
    out["properties.calls"] = tracer.calls["properties"]
    out["graph.constructions"] = tracer.calls["graph"]
    out["oracle.enumerated"] = tracer.counts["oracle.enumerated"]
    out["theorems.checks"] = tracer.counts["theorems.checks"]
    return out


def layer_metrics(W, workload: str, tracer, traced: PassResult, untraced: PassResult, probe) -> dict:
    """Per-layer metrics of one traced pass. Span times are scaled by the
    pass's overall probe factor. Kernel item times come from the untraced
    pass, so wrapper overhead does not bend the growth slopes."""
    to_ms = 1000.0 * sum(traced.scaled_times(probe)) / traced.seconds
    m = {"cli.self_ms": (tracer.self_time["cli"] * to_ms, "ms")}
    for pid in W.PIDS:
        tag = pid.value
        m[f"solvers.{tag}.ms"] = (tracer.incl[f"solvers.{tag}"] * to_ms, "ms")
        m[f"solvers.{tag}.nodes"] = (tracer.counts[f"solvers.{tag}.nodes"], "count")
    search_nodes = tracer.counts["solvers.search.nodes"]
    m["solvers.search_ms"] = (tracer.incl["solvers.search"] * to_ms, "ms")
    m["solvers.fastpath_ms"] = (tracer.incl["solvers.fastpath"] * to_ms, "ms")
    m["solvers.us_per_node"] = (tracer.incl["solvers.search"] * to_ms * 1000.0 / search_nodes if search_nodes else 0.0, "us")
    calls = tracer.calls["properties"]
    m["properties.calls"] = (calls, "count")
    m["properties.ms"] = (tracer.incl["properties"] * to_ms, "ms")
    m["properties.us_per_call"] = (tracer.incl["properties"] * to_ms * 1000.0 / calls if calls else 0.0, "us")
    for name in ("blossom", "lexmin"):
        m[f"matching.{name}.calls"] = (tracer.calls[f"matching.{name}"], "count")
        m[f"matching.{name}.ms"] = (tracer.incl[f"matching.{name}"] * to_ms, "ms")
    kernel_s = {}
    if workload == W.Kernels.name:
        kernel_s = {name: t for (name, _), t in zip(untraced.times, untraced.scaled_times(probe))}
    for kernel, fam, n, _ in W.KERNEL_ITEMS:
        name = W.kernel_name(kernel, fam, n)
        m[f"kernel.{name}.ms"] = (kernel_s.get(name, 0.0) * 1000.0, "ms")
    m["kernel.blossom.growth"] = (growth(kernel_s, "max_matching_size", 1000, 10_000), "exponent")
    m["kernel.lexmin.growth"] = (growth(kernel_s, "lexmin_maximum_matching", 200, 400), "exponent")
    m["graph.constructions"] = (tracer.calls["graph"], "count")
    m["graph.ms"] = (tracer.incl["graph"] * to_ms, "ms")
    for layer in ("solvers", "oracle", "theorems"):
        per_item = traced.layer_items[layer]
        m[f"{layer}.item_ms"] = (statistics.median(per_item) * to_ms if per_item else 0.0, "ms")
    m["oracle.enumerated"] = (tracer.counts["oracle.enumerated"], "count")
    m["theorems.checks"] = (tracer.counts["theorems.checks"], "count")
    m["trace.overhead_s"] = (sum(traced.scaled_times(probe)) - sum(untraced.scaled_times(probe)), "s")
    return m


def growth(kernel_s: dict, kernel: str, small: int, large: int) -> float:
    """Log-log slope of the summed tree and gnp times between two sizes."""
    t_small = sum(kernel_s.get(f"{kernel}.{fam}.{small}", 0.0) for fam in ("tree", "gnp"))
    t_large = sum(kernel_s.get(f"{kernel}.{fam}.{large}", 0.0) for fam in ("tree", "gnp"))
    if t_small <= 0 or t_large <= 0:
        return 0.0
    return math.log(t_large / t_small) / math.log(large / small)


def environment(args, passes: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "pmatch").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "log", "-1", "--format=%H", "--", "src"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("desk", "verify", "kernels"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pmatch" / "__init__.py").is_file():
        print(f"error: no pmatch sources at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    import pmatch

    if Path(pmatch.__file__).resolve().parent != SRC / "pmatch":
        print(f"error: imported pmatch from {pmatch.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads as W

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    passes: list[PassResult] = []
    drift = None
    with SpeedProbe() as probe:
        setups = []
        for _ in range(SETUP_REPEATS):
            wl = items = None  # free the previous inputs before rebuilding them
            probed = probe.spent
            started = perf_counter()
            wl = W.WORKLOADS[args.workload](args.seed)
            items = wl.build()
            wl.warm(items)
            ended = perf_counter()
            setups.append((ended - started - (probe.spent - probed), started, ended))
        if args.trace:
            tracer = tracing.Tracer()
            untraced = run_pass(wl, items, probe)
            traced = run_pass(wl, items, probe, tracer)
            metrics = layer_metrics(W, args.workload, tracer, traced, untraced, probe)
            first = exact_counters(W, tracer)
            tracer.reset()
            passes = [untraced, traced, run_pass(wl, items, probe, tracer)]
            second = exact_counters(W, tracer)
            drift = sorted(k for k in first if first[k] != second[k])
        else:
            started = perf_counter()
            while len(passes) < wl.min_passes or perf_counter() - started < args.seconds:
                passes.append(run_pass(wl, items, probe))
            importer = ImportTimer()
            importer.sample(IMPORT_PAIRS)

    raw = {"setup_s": statistics.median(t for t, _, _ in setups)}
    if args.trace:
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        import_s = importer.seconds()
        raw["import_s"] = statistics.median(importer.samples)
        raw["import_samples_s"] = importer.samples
        raw["reference_import_samples_s"] = importer.reference
        times = [t for p in passes for _, t in p.times]
        attempted = len(times)
        all_failed = sum(len(p.errors) for p in passes)
        raw.update({
            "pass_s": statistics.median(p.seconds for p in passes),
            "item_ms_p50": statistics.median(times) * 1000.0,
            "item_ms_p99": quantile(times, 99) * 1000.0,
        })
        scaled = [p.scaled_times(probe) for p in passes]
        flat = [t for ts in scaled for t in ts]
        metrics = {
            "setup_s": (import_s + statistics.median(probe.scaled(*rep) for rep in setups), "s"),
            "import_s": (import_s, "s"),
            "pass_s": (statistics.median(sum(ts) for ts in scaled), "s"),
            "item_ms_p50": (statistics.median(flat) * 1000.0, "ms"),
            "item_ms_p99": (quantile(flat, 99) * 1000.0, "ms"),
        }
        metrics["ok_frac"] = ((attempted - all_failed) / attempted, "ratio")
        metrics["rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        wanted = [m["name"] for m in spec["end_to_end"]]

    if sorted(metrics) != sorted(wanted):
        print(f"error: metrics {sorted(set(metrics) ^ set(wanted))} disagree with BENCHMARK.json", file=sys.stderr)
        return 1

    attempted = sum(len(p.times) for p in passes)
    unexpected = [(item, msg) for p in passes for item, msg in p.errors if not item.known_defect]
    known = {item.name: msg for p in passes for item, msg in p.errors if item.known_defect}
    for name, msg in sorted(known.items()):
        print(f"known defect still fails: {name}: {msg}", file=sys.stderr)
    for item, msg in unexpected[:20]:
        print(f"FAILED {item.name}: {msg}", file=sys.stderr)
    if drift:
        print(f"error: exact counters differ between the two traced passes: {drift}", file=sys.stderr)

    env = environment(args, len(passes))
    env["known_defect_failures"] = sorted(known)
    env["wall"] = raw
    env["pass_wall_s"] = [p.seconds for p in passes]
    env["probe"] = {"samples": len(probe.samples), "mean_s": statistics.fmean(probe.samples)}
    if args.trace:
        env["trace_overhead_s"] = metrics["trace.overhead_s"][0]
    print(json.dumps({"environment": env}, sort_keys=True))
    print(json.dumps({
        "correct": not unexpected and not drift,
        "attempted": attempted,
        "failed": len(unexpected),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
