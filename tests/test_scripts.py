import importlib.util
import re
from pathlib import Path

from pmatch.theorems import all_graphs, applicable_checks, random_graphs

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ng_scan_runs(capsys):
    ng_scan = _load("ng_scan")
    assert ng_scan.main(["--all-n", "4", "--property", "connected"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("connected") and "graphs=    64" in out


def test_theorem_sweep_runs(capsys):
    theorem_sweep = _load("theorem_sweep")
    argv = ["--max-n", "4", "--random", "5", "--n", "6", "--seed", "1", "--hall", "20",
            "--blocks", "5"]
    assert theorem_sweep.main(argv) == 0
    out = capsys.readouterr().out
    assert out.rstrip().endswith("no counterexamples")
    # The corpus graphs in some collapse class, plus the five block graphs.
    corpus = [G for n in range(5) for G in all_graphs(n)] + list(random_graphs(6, 5, 1))
    collapse = sum("collapse" in applicable_checks(G) for G in corpus) + 5
    assert re.search(rf"^collapse +{collapse} checks$", out, re.MULTILINE)
