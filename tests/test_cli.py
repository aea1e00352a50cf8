import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from pmatch.cli import main
from pmatch.graph import edge_mask_of, from_edge_mask
from pmatch.solvers import ParameterId
from pmatch.theorems import graph_id, random_graphs


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "pmatch", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_compute_path8_beta1(capsys):
    code = main(["compute", "--family", "path", "--n", "8",
                 "--params", "beta1,beta1minus"])
    out = capsys.readouterr().out
    assert code == 0
    table = json.loads(out)
    assert table["params"]["beta1"]["value"] == 4
    assert table["params"]["beta1"]["witness"]["edges"] == [[0, 1], [2, 3], [4, 5], [6, 7]]
    assert table["params"]["beta1_minus"]["value"] == 3


def test_compute_complete2_all(capsys):
    code = main(["compute", "--family", "complete", "--n", "2", "--params", "all"])
    out = capsys.readouterr().out
    assert code == 0
    params = json.loads(out)["params"]
    assert params["beta_v_IR"]["value"] == 0
    assert params["beta_e_IR"]["value"] == 0
    assert params["beta_v_ir"]["value"] == "undefined"
    assert params["beta_e_ir"]["value"] == "undefined"
    for tag in ("beta1", "beta_star", "beta_ur", "beta_c", "beta_if", "beta_dc",
                "beta_ac", "beta_i", "beta_b", "beta_on", "beta_cn"):
        assert params[tag]["value"] == 1


def test_compute_fig2l_beta_ur(capsys):
    code = main(["compute", "--family", "fig2l", "--params", "beta_ur"])
    out = capsys.readouterr().out
    assert code == 0
    entry = json.loads(out)["params"]["beta_ur"]
    assert entry["value"] == 4
    assert len(entry["witness"]["edges"]) == 4


def test_compute_from_file(tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text("0 1\n1 2\n")
    code = main(["compute", "--input", str(f), "--params", "beta1"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["params"]["beta1"]["value"] == 1


def test_compute_tsv(capsys):
    code = main(["compute", "--family", "cycle", "--n", "4",
                 "--params", "beta1,gamma", "--format", "tsv"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert len(out) == 2
    first = out[0].split("\t")
    assert first[1] == "beta1" and first[2] == "2"


def test_compute_tsv_timing_adds_a_column(capsys):
    # Under --timing each row, error rows too, ends in its milliseconds, as
    # JSON's "ms"; without it the six columns stay as they are.
    argv = ["compute", "--family", "gnp", "--n", "4", "--p", "0.0",
            "--params", "beta1,alpha1", "--format", "tsv"]
    assert main(argv) == 1
    plain = [row.split("\t") for row in capsys.readouterr().out.splitlines()]
    assert main([*argv, "--timing"]) == 1
    timed = [row.split("\t") for row in capsys.readouterr().out.splitlines()]
    assert [len(row) for row in plain] == [6, 6] and [len(row) for row in timed] == [7, 7]
    assert timed[1][2] == "error"
    for row, timed_row in zip(plain, timed):
        assert timed_row[:6] == row and float(timed_row[6]) >= 0


def test_closed_stdout_ends_quietly():
    # The command prints about 116 KB, more than a pipe holds, so it is still
    # writing when the reader closes the pipe after one line.
    proc = subprocess.Popen(
        [sys.executable, "-m", "pmatch", "theorems", "--all-n", "5", "--check", "gallai"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert json.loads(proc.stdout.readline())["theorem"] == "gallai"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def test_stdout_closed_at_start_ends_quietly():
    # With file descriptor 1 closed, Python's sys.stdout is None and print
    # writes nothing: the command still runs and exits 0.
    proc = subprocess.run(
        [sys.executable, "-m", "pmatch", "compute", "--family", "path", "--n", "3",
         "--params", "beta1"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1),
    )
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_compute_alpha1_isolates_reports_error(capsys):
    code = main(["compute", "--family", "gnp", "--n", "4", "--p", "0.0",
                 "--params", "alpha1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "error" in json.loads(out)["params"]["alpha1"]


def test_compute_budget_exhaustion(capsys):
    code = main(["compute", "--family", "complete", "--n", "6",
                 "--params", "beta_star", "--budget", "3"])
    out = capsys.readouterr().out
    assert code == 3
    entry = json.loads(out)["params"]["beta_star"]
    assert entry.get("budget_exceeded") is True
    assert entry["error"].startswith("beta_star: node budget exceeded after ")


def test_compute_budget_error_reports_elapsed_time(capsys):
    code = main(["compute", "--family", "hypercube", "--n", "3",
                 "--params", "beta_total_max", "--budget", "5", "--timing"])
    entry = json.loads(capsys.readouterr().out)["params"]["beta_total_max"]
    assert code == 3
    assert entry["budget_exceeded"] is True
    assert entry["ms"] > 0


@pytest.mark.parametrize("spec, vertex", [("99:1", "99"), ("0:1,-1:1", "-1")])
def test_b_bounds_vertex_out_of_range(spec, vertex):
    code, out, err = run_cli("compute", "--family", "path", "--n", "4",
                             "--params", "b_matching_max", f"--b-bounds={spec}")
    assert code == 2
    assert out == "" and "Traceback" not in err
    assert f"bound for vertex {vertex} outside 0..3" in err


@pytest.mark.parametrize("spec", ["0:1,0:0", "0:1,2:1,0:1"])
def test_b_bounds_vertex_named_twice(spec):
    # The later value used to win in silence.
    code, out, err = run_cli("compute", "--family", "path", "--n", "4",
                             "--params", "b_matching_max", f"--b-bounds={spec}")
    assert code == 2
    assert out == "" and "Traceback" not in err
    assert "bound for vertex 0 given twice" in err


@pytest.mark.parametrize("spec, value", [("-1", "-1"), ("0:-5", "-5")])
def test_b_bounds_value_out_of_range(spec, value):
    code, out, err = run_cli("compute", "--family", "path", "--n", "4",
                             "--params", "b_matching_max", f"--b-bounds={spec}")
    assert code == 2
    assert out == "" and "Traceback" not in err
    assert f"bound b(0) = {value} outside [0, d(0) = 1]" in err


def test_verify_perfect(capsys):
    code = main(["verify", "--family", "path", "--n", "8",
                 "--matching", "0 1,2 3,4 5,6 7", "--property", "perfect"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["holds"] is True


def test_verify_not_matching(capsys):
    code = main(["verify", "--family", "path", "--n", "8",
                 "--matching", "0 1,1 2", "--property", "matching"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and out["holds"] is False
    assert out["certificate"]["violating_vertex"] == 1


def test_verify_figure_matchings(capsys):
    code = main(["verify", "--family", "fig2l", "--matching", "drawn", "--property", "ur"])
    assert code == 0
    capsys.readouterr()
    code = main(["verify", "--family", "fig2r", "--matching", "drawn", "--property", "ur"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["certificate"]["alternating_cycle"]
    code = main(["verify", "--family", "fig3", "--matching", "drawn", "--property", "independent"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["certificate"]["orientation"]
    code = main(["verify", "--family", "fig4", "--matching", "drawn", "--property", "bipartite"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["certificate"]["orientation"]


def test_verify_total(capsys):
    code = main(["verify", "--family", "path", "--n", "3",
                 "--matching", "0 1", "--vertices", "2", "--property", "total"])
    assert code == 0
    capsys.readouterr()
    code = main(["verify", "--family", "path", "--n", "3",
                 "--matching", "0 1", "--vertices", "2", "--property", "maximal_total"])
    assert code == 0


def test_verify_maximal_variant(capsys):
    code = main(["verify", "--family", "path", "--n", "8",
                 "--matching", "3 4", "--property", "maximal_induced"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and out["holds"] is False


def test_verify_vertices_only_for_total_matchings(capsys):
    # --vertices names the vertex part of a total matching; any other
    # property would ignore it.
    code = main(["verify", "--family", "path", "--n", "4", "--matching", "0-1",
                 "--vertices", "3", "--property", "induced"])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and "--vertices" in err


def test_theorems_all_n_small(capsys):
    code = main(["theorems", "--all-n", "3"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert all(json.loads(line)["holds"] for line in lines)


def test_theorems_named_check(capsys):
    code = main(["theorems", "--family", "cycle", "--n", "4", "--check", "konig"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["theorem"] == "konig" and out["holds"]


@pytest.mark.parametrize("family, n, checked", [("path", 20, 10946), ("cycle", 22, 39603)])
def test_theorems_ur_check_past_sixteen_saturated_vertices(capsys, family, n, checked):
    code = main(["theorems", "--family", family, "--n", str(n),
                 "--check", "ur_characterization"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["holds"]
    assert out["details"] == {"matchings_checked": checked}


def test_theorems_ur_check_refuses_past_the_edge_cap():
    code, out, err = run_cli("theorems", "--family", "path", "--n", "60",
                             "--check", "ur_characterization")
    assert code == 2 and out == ""
    assert "59 edges exceed the 22-edge enumeration cap" in err


def test_theorems_lists_every_applicable_check(capsys):
    code = main(["theorems", "--family", "path", "--n", "18"])
    names = [json.loads(line)["theorem"] for line in capsys.readouterr().out.splitlines()]
    assert code == 0
    assert names == ["gallai", "chains", "konig", "frobenius", "connected",
                     "ur_characterization", "collapse"]


def test_theorems_streams_its_corpus(monkeypatch, capsys):
    # Each verdict is printed as its graph is drawn, so a corpus too large to
    # hold (--all-n 8 has 2^28 graphs) starts printing at once.
    import pmatch.cli

    def one_then_fault(n):
        yield from_edge_mask(n, 0)
        raise RuntimeError("injected fault")

    monkeypatch.setattr(pmatch.cli, "all_graphs", one_then_fault)
    code = main(["theorems", "--all-n", "3", "--check", "gallai"])
    out, err = capsys.readouterr()
    assert code == 4 and err == "error: RuntimeError: injected fault\n"
    assert [json.loads(line)["theorem"] for line in out.splitlines()] == ["gallai"]


@pytest.mark.parametrize("argv, error", [
    (["--family", "random_tree", "--n", "28", "--seed", "1", "--check", "collapse",
      "--budget", "10"], "beta_plain: node budget exceeded after 11 nodes"),
    (["--family", "random_tree", "--n", "28", "--seed", "1", "--check", "connected",
      "--budget", "10"], "beta_c: node budget exceeded after 11 nodes"),
    (["--family", "gnp", "--n", "12", "--p", "0.4", "--seed", "1", "--check", "chains",
      "--budget", "5"], "beta_star: node budget exceeded after 6 nodes"),
])
def test_theorems_budget_reaches_the_checks(argv, error, capsys):
    # The collapse and connected checks run the search route past the
    # oracle's cap, and the chains check the solver; each gets the budget.
    code = main(["theorems", *argv])
    out, err = capsys.readouterr()
    assert code == 3 and out == "" and err == f"error: {error}\n"


def test_scan_budget_reaches_the_solver(capsys):
    code = main(["scan", "--family", "gnp", "--n", "12", "--p", "0.4", "--seed", "1",
                 "--property", "ur", "--budget", "5"])
    record, summary = map(json.loads, capsys.readouterr().out.splitlines())
    assert code == 0
    assert record["error"] == "beta_ur: node budget exceeded after 6 nodes"
    assert summary["summary"]["skipped"] == 1 and summary["summary"]["count"] == 0


def test_theorems_hall_and_blocks(capsys):
    code = main(["theorems", "--hall-samples", "25", "--block-samples", "10", "--seed", "4"])
    verdicts = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    assert code == 0 and len(verdicts) == 35
    assert [v["theorem"] for v in verdicts] == ["hall"] * 25 + ["collapse"] * 10


@pytest.mark.parametrize(
    "p, masks",
    [(None, (133, 7936, 18690, 2375, 0)), (0.4, (10380, 25456, 4131, 513, 684))],
)
def test_theorems_random_corpus_is_pinned(capsys, p, masks):
    """``--random`` draws the same graphs with and without a fixed ``--p``."""
    extra = [] if p is None else ["--p", str(p)]
    code = main(["theorems", "--random", "5", "--n", "6", "--seed", "2", *extra,
                 "--check", "gallai"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert [json.loads(line)["graph"] for line in lines] == [
        graph_id(from_edge_mask(6, mask)) for mask in masks
    ]
    assert [edge_mask_of(G) for G in random_graphs(6, 5, 2, p=p)] == list(masks)


def test_scan_cli(capsys):
    code = main(["scan", "--property", "induced", "--all-n", "4"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    summary = json.loads(lines[-1])["summary"]
    assert summary["count"] == 64
    records = [json.loads(l) for l in lines[:-1]]
    assert len(records) == 64


def test_usage_errors():
    code, _, err = run_cli("compute", "--family", "path", "--n", "8", "--params", "beta_unknown")
    assert code == 2
    code, _, err = run_cli("compute", "--params", "beta1")
    assert code == 2 and "no graph" in err
    code, _, err = run_cli("compute", "--family", "mystery", "--n", "3", "--params", "beta1")
    assert code == 2
    code, _, _ = run_cli("nonsense")
    assert code == 2
    for argv in (["compute", "--family", "path", "--n", "5", "--params", "beta0"],
                 ["theorems", "--family", "path", "--n", "5"],
                 ["scan", "--family", "path", "--n", "5", "--property", "plain"]):
        code, out, err = run_cli(*argv, "--budget", "-1")
        assert code == 2 and out == "" and "--budget must be 0 or more" in err


@pytest.mark.parametrize("argv, flag", [
    (["theorems", "--random", "-3", "--n", "4"], "--random"),
    (["theorems", "--hall-samples", "-1"], "--hall-samples"),
    (["theorems", "--block-samples", "-5"], "--block-samples"),
    (["scan", "--random", "-1", "--n", "4", "--property", "plain"], "--random"),
])
def test_negative_counts_are_usage_errors(argv, flag, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"{flag} must be 0 or more, got -" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["theorems", "--random", "1", "--n", "4", "--p", "nan"], "edge probability must lie in [0, 1]"),
    (["theorems", "--random", "1", "--n", "4", "--p", "-1"], "edge probability must lie in [0, 1]"),
    (["scan", "--random", "1", "--n", "4", "--p", "3", "--property", "plain"],
     "edge probability must lie in [0, 1]"),
    (["theorems", "--all-n", "2", "--p", "5"], "edge probability must lie in [0, 1]"),
    (["theorems", "--random", "2", "--n", "-3"], "--random needs n >= 0"),
    (["scan", "--random", "2", "--n", "-3", "--property", "plain"], "--random needs n >= 0"),
])
def test_random_corpus_checks_p_and_n(argv, message, capsys):
    # A density outside [0, 1] built edgeless or complete graphs, or went
    # unread, and exited 0; a negative n failed inside the graph layer.
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and message in captured.err


@pytest.mark.parametrize("argv", [
    ["--family", "hypercube", "--n", "30"],
    ["--family", "complete", "--n", "200000"],
    ["--family", "gnp", "--n", "100000", "--p", "0.5"],
])
def test_oversized_families_fail_fast(argv, capsys):
    # Each would build over 10^9 edges; the family is refused before that.
    code = main(["compute", *argv, "--params", "beta1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and "is too large" in captured.err


@pytest.mark.parametrize("argv, token", [
    (["compute", "--family", "path", "--n", "4", "--params", "b_matching_max",
      "--b-bounds", "1:2:3"], "'1:2:3'"),
    (["compute", "--family", "path", "--n", "4", "--params", "b_matching_max",
      "--b-bounds", "x"], "'x'"),
    (["verify", "--family", "path", "--n", "4", "--matching", "0-x",
      "--property", "matching"], "'0-x'"),
    (["verify", "--family", "path", "--n", "4", "--matching", "0 1",
      "--vertices", "a", "--property", "total"], "'a'"),
])
def test_bad_option_tokens_are_named(argv, token, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: bad ") and token in err and err.count("\n") == 1


@pytest.mark.parametrize("command", ["compute", "oracle"])
@pytest.mark.parametrize("spec", ["", ",", " , "])
def test_empty_params_is_a_usage_error(command, spec, capsys):
    code = main([command, "--family", "path", "--n", "4", "--params", spec])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: --params names no parameter") and err.count("\n") == 1


@pytest.mark.parametrize("command, callee", [("compute", "compute_parameter"),
                                             ("oracle", "oracle_parameter")])
def test_repeated_params_run_once(command, callee, monkeypatch, capsys):
    import pmatch.cli

    calls = []
    inner = getattr(pmatch.cli, callee)
    monkeypatch.setattr(pmatch.cli, callee, lambda G, pid, *a, **kw: calls.append(pid.value)
                        or inner(G, pid, *a, **kw))
    code = main([command, "--family", "path", "--n", "4",
                 "--params", "gamma,beta1,beta_1,gamma,beta1"])
    assert code == 0 and calls == ["gamma", "beta1"]
    assert sorted(json.loads(capsys.readouterr().out)["params"]) == ["beta1", "gamma"]


def test_repeated_params_print_once_in_tsv(capsys):
    code = main(["compute", "--family", "path", "--n", "4",
                 "--params", "gamma,beta1,beta_1,gamma", "--format", "tsv"])
    rows = capsys.readouterr().out.strip().splitlines()
    assert code == 0 and [row.split("\t")[1] for row in rows] == ["gamma", "beta1"]


def test_oracle_subcommand(capsys):
    code = main(["oracle", "--family", "path", "--n", "8", "--params", "beta1,beta1_minus"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["params"]["beta1"]["value"] == 4
    assert out["params"]["beta1_minus"]["value"] == 3


def test_threads_do_not_change_output():
    args = ("compute", "--family", "random_tree", "--n", "9", "--seed", "3",
            "--params", "beta1,beta_star,beta_ur_minus,beta_total_max")
    code1, out1, _ = run_cli(*args, "--threads", "1")
    code2, out2, _ = run_cli(*args, "--threads", "3")
    assert code1 == code2 == 0
    assert out1 == out2


def test_witness_feeds_back_through_verify(tmp_path, capsys):
    # every computed witness must re-verify under its own property
    code = main(["compute", "--family", "fig2l",
                 "--params", "beta1,beta_star,beta_ur,beta_ur_minus,beta_i,beta_b"])
    table = json.loads(capsys.readouterr().out)
    assert code == 0
    prop_of = {"beta1": "matching", "beta_star": "induced", "beta_ur": "ur",
               "beta_ur_minus": "maximal_ur", "beta_i": "independent", "beta_b": "bipartite"}
    for tag, prop in prop_of.items():
        witness = table["params"][tag]["witness"]["edges"]
        spec = ",".join(f"{u} {v}" for u, v in witness)
        code = main(["verify", "--family", "fig2l", "--matching", spec, "--property", prop])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["holds"] is True, (tag, prop)


def test_multiple_inputs_ordered(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("0 1\n")
    b.write_text("0 1\n1 2\n2 0\n")
    code = main(["compute", "--input", str(a), "--input", str(b), "--params", "beta1"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0 and len(lines) == 2
    assert json.loads(lines[0])["graph"] == "a.txt"
    assert json.loads(lines[1])["graph"] == "b.txt"
    assert json.loads(lines[1])["params"]["beta1"]["value"] == 1


def test_compute_long_path_has_no_traceback():
    # The first-hit search keeps its own stack: a 1500-edge witness must not
    # run into the interpreter's recursion limit.
    code, out, err = run_cli("compute", "--family", "path", "--n", "3000",
                             "--params", "beta_c,beta_if")
    assert code == 0 and "Traceback" not in err
    params = json.loads(out)["params"]
    assert params["beta_c"]["value"] == params["beta_if"]["value"] == 1500


def test_compute_separating_minimum_of_a_long_path_takes_no_search(capsys):
    # Every edge of a path is a bridge, so the smallest one answers before
    # the matching-cut search starts: under a budget of 1,000 nodes it once
    # exited 3.
    code = main(["compute", "--family", "path", "--n", "40000", "--params", "beta_sep_min",
                 "--budget", "1000"])
    entry = json.loads(capsys.readouterr().out)["params"]["beta_sep_min"]
    assert code == 0
    assert entry == {"nodes": 0, "route": "fast-path", "value": 1, "witness": {"edges": [[0, 1]]}}


def test_compute_budget_on_a_long_path_is_a_budget_error(capsys):
    # The dominating search keeps its own stack: its first dive on a
    # 2,500-vertex path runs past the interpreter's recursion limit.
    code = main(["compute", "--family", "path", "--n", "2500", "--params", "gamma",
                 "--budget", "20000"])
    entry = json.loads(capsys.readouterr().out)["params"]["gamma"]
    assert code == 3
    assert entry["error"] == "gamma: node budget exceeded after 20001 nodes"


def test_compute_budget_on_a_first_hit_maximum_is_a_budget_error(capsys):
    # The vertex-irredundant maximum of a 40-vertex tree walks about 600,000
    # prefixes in its one walk; the budget stops it.
    code = main(["compute", "--family", "random_tree", "--n", "40", "--seed", "1",
                 "--params", "beta_v_IR", "--budget", "20000"])
    entry = json.loads(capsys.readouterr().out)["params"]["beta_v_IR"]
    assert code == 3
    assert entry["error"] == "beta_v_IR: node budget exceeded after 20001 nodes"


@pytest.mark.parametrize("graph, params, budget", [
    (["--family", "hypercube", "--n", "4"], "alpha0,beta1_minus,beta_i_minus,beta_cn_minus", "10"),
    (["--family", "path", "--n", "8000"], "beta_star,beta1_minus", "1000"),
])
def test_compute_budget_errors_name_the_asked_tag(capsys, graph, params, budget):
    # alpha0 runs the beta0 search, and beta1_minus and the collapsed minima
    # on Q4 run the plain minimum; each error names the tag asked for. On the
    # 8,000-vertex path the conflict masks are built per vertex and per
    # edge, not per pair of edges, so the budget is reached at once.
    code = main(["compute", *graph, "--params", params, "--budget", budget])
    entries = json.loads(capsys.readouterr().out)["params"]
    assert code == 3
    assert sorted(entries) == sorted(params.split(","))
    for tag, entry in entries.items():
        assert entry["budget_exceeded"] is True
        assert entry["error"].startswith(f"{tag}: node budget exceeded after ")


def test_compute_collapsed_maxima_run_no_search(capsys):
    # A tree is in every class of the collapse table: with a node budget of
    # 0, any search would exit 3.
    code = main(["compute", "--family", "random_tree", "--n", "10000", "--seed", "1",
                 "--params", "beta_i,beta_b,beta_on,beta_cn,beta_ac,beta_ur", "--budget", "0"])
    params = json.loads(capsys.readouterr().out)["params"]
    assert code == 0
    assert {entry["route"] for entry in params.values()} == {"fast-path"}
    assert len({entry["value"] for entry in params.values()}) == 1


GOLDEN = Path(__file__).parent / "golden" / "compute.jsonl"


def _without_nodes(table):
    for entry in table["params"].values():
        entry.pop("nodes", None)
    return table


@pytest.mark.parametrize("record", [json.loads(line) for line in GOLDEN.read_text().splitlines()],
                         ids=lambda record: record["name"])
def test_compute_all_matches_golden(record, capsys):
    # Value, witness and route of every parameter; node counts are pinned in
    # test_solvers.py instead.
    code = main(["compute", *record["argv"], "--params", "all", "--format", "json"])
    table = _without_nodes(json.loads(capsys.readouterr().out))
    assert code == record["exit"]
    assert table == record["table"]


def test_verify_ur_on_a_long_path(capsys):
    # The alternating-cycle search keeps its own stack: a 2,000-edge
    # matching on a path stays clear of the interpreter's recursion limit.
    spec = ",".join(f"{v} {v + 1}" for v in range(0, 4000, 2))
    code = main(["verify", "--family", "path", "--n", "4000", "--matching", spec,
                 "--property", "ur"])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    assert '"holds":true' in out


def test_unexpected_exception_is_an_internal_error(monkeypatch, capsys):
    import pmatch.cli

    def broken(G, m):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(pmatch.cli, "find_alternating_cycle", broken)
    code = main(["verify", "--family", "path", "--n", "4", "--matching", "0 1,2 3",
                 "--property", "ur"])
    out, err = capsys.readouterr()
    assert code == 4 and out == ""
    assert err == "error: RuntimeError: injected fault\n"


_TAGS = [pid.value for pid in ParameterId]
_FAMILIES = st.one_of(
    st.tuples(st.sampled_from(["path", "cycle", "complete", "random_tree"]),
              st.integers(-1, 8)).map(lambda t: ["--family", t[0], "--n", str(t[1])]),
    st.integers(-1, 3).map(lambda d: ["--family", "hypercube", "--n", str(d)]),
    st.tuples(st.integers(1, 8), st.sampled_from(["0.3", "0.6", "1.5", "-0.1"])).map(
        lambda t: ["--family", "gnp", "--n", str(t[0]), "--p", t[1]]),
    st.tuples(st.integers(-1, 4), st.integers(-1, 4)).map(
        lambda t: ["--family", "complete_bipartite", "--a", str(t[0]), "--b-part", str(t[1])]),
    st.sampled_from(["fig2l", "fig2r", "fig3", "fig4", "mystery"]).map(
        lambda f: ["--family", f]),
    st.just([]),
)
_BUDGETS = st.one_of(
    st.just([]),
    st.integers(-3, 400).map(lambda b: ["--budget", str(b)]),
    st.sampled_from(["", "x", "1e3", "-", "2.5"]).map(lambda b: ["--budget", b]),
)
_PARAMS = st.one_of(
    st.lists(st.sampled_from(_TAGS + ["all", "beta_unknown", ""]), max_size=4).map(",".join),
    st.text(alphabet="abet_1,- ", max_size=12),
)
_EDGES = st.lists(st.tuples(st.integers(-1, 9), st.integers(-1, 9)), max_size=4).map(
    lambda es: ",".join(f"{u} {v}" for u, v in es))


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["compute", "verify", "theorems"]))
    argv = [command] + draw(_FAMILIES)
    if command == "compute":
        argv += ["--params", draw(_PARAMS)] + draw(_BUDGETS)
    elif command == "verify":
        prop = draw(st.sampled_from(["matching", "maximal", "perfect", "separating", "total",
                                     "maximal_total", "ur", "maximal_c", "induced", "nope"]))
        argv += ["--matching", draw(st.one_of(_EDGES, st.just("drawn"))), "--property", prop]
        if draw(st.booleans()):
            argv += ["--vertices", draw(st.sampled_from(["0", "1,2", "9", "x"]))]
    else:
        argv += draw(_BUDGETS)
    return argv


@given(_argv())
@settings(max_examples=50, deadline=None)
def test_cli_argv_never_ends_in_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3, 4), argv
    assert "Traceback" not in err.getvalue(), argv
