"""The benchmark in ``perfbench/`` wraps and reads names of the package
(``solvers.property_holds``, ``theorems.run_check``, ``PROPERTY_MAX_PARAM``,
the desk's CLI entry point, ...). A refactor that drops one of them fails
here instead of breaking ``--trace 1`` or every desk item."""

import sys
from pathlib import Path

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


def _load_bench():
    sys.path.insert(0, PERFBENCH)
    try:
        import tracing
        import workloads
    finally:
        sys.path.remove(PERFBENCH)
    return tracing, workloads


def test_bench_tracer_hooks_and_desk_item():
    tracing, workloads = _load_bench()
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert not tracer.patches
    desk = workloads.Desk(seed=0)
    item = next(i for i in desk.build() if i.name == "fig3")
    assert desk.check(item, desk.run(item)) is None
