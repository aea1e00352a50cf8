"""The benchmark in ``perfbench/`` wraps and reads names of the package
(``solvers.property_holds``, ``theorems.run_check``, ``PROPERTY_MAX_PARAM``,
the desk's CLI entry point, ...). A refactor that drops one of them fails
here instead of breaking ``--trace 1`` or every desk item."""

import sys
from pathlib import Path

import pytest

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
    # Every desk item through the workload's own run and check, about 1.2 s:
    # its references hold witnesses past the oracle's cap (hypercube-4,
    # gnp-14, gnp-16) as well as the paper's figures.
    desk = workloads.Desk(seed=0)
    items = desk.build()
    assert len(items) == 9
    for item in items:
        assert desk.check(item, desk.run(item)) is None, item.name


def _desk_nodes(tags):
    """The search nodes of ``tags`` summed over the eight graphs that the
    desk runs with ``--params all``."""
    from pmatch.solvers import ParameterId, compute_parameter

    _, workloads = _load_bench()
    graphs = [workloads.desk_graph(family, n, p)
              for _, family, n, p, params in workloads.DESK_CORPUS if params == "all"]
    assert len(graphs) == 8
    return sum(compute_parameter(G, ParameterId.from_string(tag)).nodes_explored
               for G in graphs for tag in tags)


def test_desk_maximum_search_nodes():
    """Counter gate on the desk's share of the core's maximum search: its six
    tags. A take/drop branch on the highest-degree element took 40,170
    nodes."""
    tags = ("beta0", "alpha0", "beta_star", "beta_on", "beta_cn", "beta_total_max")
    assert _desk_nodes(tags) == 14239


def test_desk_dominating_search_nodes():
    """Counter gate on the desk's share of the core's dominating search: its
    nine tags. With children that did not exclude their older siblings'
    candidates and no tie cut it took 211,979 nodes, and with the tie cut
    in plain order only, not in the total matchings' (vertices, edges)
    order, 64,523."""
    tags = ("gamma", "beta1_minus", "beta_plain_minus", "beta_star_minus", "beta_on_minus",
            "beta_cn_minus", "beta_c_minus", "beta_if_minus", "beta_total_min")
    assert _desk_nodes(tags) == 21716


def test_desk_first_hit_nodes():
    """Counter gate on the desk's share of the first-hit search: the seven
    maxima that walk from k = 1 and the seven minima. Without the
    disconnected far-edge cut and the vertex-irredundant private count it
    took 117,934 nodes, without the hereditary maxima's failing-pair rows
    76,917, and without the minima's maximality cut 62,014."""
    tags = ("beta_ur", "beta_dc", "beta_ac", "beta_i", "beta_b", "beta_v_IR", "beta_e_IR",
            "beta_ur_minus", "beta_dc_minus", "beta_ac_minus", "beta_i_minus", "beta_b_minus",
            "beta_v_ir", "beta_e_ir")
    assert _desk_nodes(tags) == 50244


def test_desk_first_hit_minima_nodes():
    """Counter gate on the seven first-hit minima, the ones whose walks cut
    a prefix when a target that a hit must reach has no remaining edge to
    reach it. Without that cut they took 28,008 nodes."""
    tags = ("beta_ur_minus", "beta_dc_minus", "beta_ac_minus", "beta_i_minus", "beta_b_minus",
            "beta_v_ir", "beta_e_ir")
    assert _desk_nodes(tags) == 16238


def test_desk_hereditary_first_hit_maxima_nodes():
    """Counter gate on the six hereditary first-hit maxima, the ones that
    drop each child's failing pairs from its candidates. Without those rows
    they took 42,253 nodes."""
    tags = ("beta_ur", "beta_ac", "beta_i", "beta_b", "beta_v_IR", "beta_e_IR")
    assert _desk_nodes(tags) == 27350


def test_kernels_uniquely_restricted_on_long_paths():
    # The kernels workload's two path items, built here rather than through
    # kernel_graphs(), which also builds its 10^5-vertex inputs.
    from pmatch.graph import Graph

    _, workloads = _load_bench()
    kernels = workloads.Kernels(seed=0)
    for n in (1000, 4000):
        G = Graph(n, tuple((i, i + 1) for i in range(n - 1)))
        payload = ("is_uniquely_restricted", (G, tuple((i, i + 1) for i in range(0, n, 2))))
        item = workloads.Item(workloads.kernel_name("is_uniquely_restricted", "path", n), payload)
        assert kernels.check(item, kernels.run(item)) is None


@pytest.fixture(scope="module")
def kernel_items():
    # The kernels workload's own inputs, built once: about a second.
    _, workloads = _load_bench()
    kernels = workloads.Kernels(seed=0)
    return kernels, {item.name: item for item in kernels.build()}


@pytest.mark.parametrize(
    "name",
    [
        "block_decomposition.gnp.100000",
        "components.gnp.100000",
        "tree_b_matching_max.tree.100000",
        "parse_serialize.tree.100000",
        "max_matching_size.gnp.10000",
        "lexmin_maximum_matching.gnp.400",
        "sdr_solve.random.5000",
        "sdr_solve.chain.5000",
        "bipartite_matching_and_cover.tree.10000",
    ],
)
def test_kernels_graph_layer_answers(kernel_items, name):
    kernels, items = kernel_items
    item = items[name]
    assert kernels.check(item, kernels.run(item)) is None


def test_verify_workload_answers():
    # The verify workload's first 18 items: two of each of its nine (n, p)
    # strata, through its own run and check, from a cold oracle.
    _, workloads = _load_bench()
    verify = workloads.Verify(seed=1)
    items = verify.build()[:18]
    verify.before_pass()
    for item in items:
        assert verify.check(item, verify.run(item)) is None, item.name
