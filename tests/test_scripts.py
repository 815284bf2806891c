import importlib.util
import os

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_asymmetry_scan_finds_the_peak_at_strong_asymmetry(capsys):
    # a fixed window at 1.004 +- 0.0044 put the b = 1e-2 maximum on its edge
    scan = load_script("asymmetry_scan")
    assert scan.run(["--sigma-beta", "0.03", "--points", "3",
                     "--b-min", "1e-4", "--b-max", "1e-2"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [float(r.split(",")[0]) for r in rows] == [1e-4, 1e-3, 1e-2]
