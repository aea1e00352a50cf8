import json
import subprocess
import sys

import pytest

from pmatch.cli import main


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


def test_theorems_all_n_small(capsys):
    code = main(["theorems", "--all-n", "3"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert all(json.loads(line)["holds"] for line in lines)


def test_theorems_named_check(capsys):
    code = main(["theorems", "--family", "cycle", "--n", "4", "--check", "konig"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["theorem"] == "konig" and out["holds"]


def test_theorems_hall_and_blocks(capsys):
    code = main(["theorems", "--hall-samples", "25", "--block-samples", "10", "--seed", "4"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0 and len(lines) == 35


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
