import importlib.util
from pathlib import Path

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
    assert capsys.readouterr().out.rstrip().endswith("no counterexamples")
