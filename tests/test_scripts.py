import importlib.util
import json
import os
import re

import pytest

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


@pytest.mark.parametrize("flag", ["--b-min", "--b-max"])
def test_asymmetry_scan_refuses_a_window_that_reaches_zero(capsys, flag):
    # at |b| >= 0.095 the revival window reaches t <= 0: exit 2 naming the
    # flag, before any state is prepared, rather than a traceback
    scan = load_script("asymmetry_scan")
    with pytest.raises(SystemExit) as exc:
        scan.run(["--sigma-beta", "0.1", flag, "0.2"])
    assert exc.value.code == 2
    assert f"{flag}: the revival window of b = 0.2" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["--b-min", "0", "--b-max", "1e-3"], "--b-min: must be positive"),
    (["--b-min=-1e-3", "--b-max", "1e-3"], "--b-min: must be positive"),
    (["--b-min", "1e-4", "--b-max", "0"], "--b-max: must be positive"),
    (["--points", "0"], "--points: must be at least 1"),
    (["--points", "-1"], "--points: must be at least 1"),
])
def test_asymmetry_scan_refuses_a_grid_it_cannot_log_space(capsys, argv, message):
    # b <= 0 made np.log10 give nan (a DomainError traceback on b = nan),
    # --points -1 a numpy ValueError and --points 0 a header without rows
    scan = load_script("asymmetry_scan")
    with pytest.raises(SystemExit) as exc:
        scan.run(["--sigma-beta", "0.1", *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_compare_outputs_finds_a_tree_identical_to_itself(capsys):
    compare = load_script("compare_outputs")
    src = os.path.join(os.path.dirname(SCRIPTS), "src")
    assert compare.run([src, src, "--only", "params", "fig2d"]) == 0
    lines = capsys.readouterr().out.splitlines()
    modules = sorted(f for f in os.listdir(os.path.join(src, "nanorotor")) if f.endswith(".py"))
    counts = {f: sum(1 for _ in open(os.path.join(src, "nanorotor", f))) for f in modules}
    assert lines[:len(modules) + 1] == [
        f"src lines: {sum(counts.values())} / {sum(counts.values())}",
        *(f"  {f}: {counts[f]} / {counts[f]}" for f in modules)]
    lines = lines[len(modules) + 1:]
    assert [line for line in lines if not line.startswith(" ")] == [
        "params: exit 0 / 0; 0/0 CSVs byte-identical",
        "fig2d: exit 0 / 0; 4/4 CSVs byte-identical"]
    details = [line for line in lines if line.startswith(" ")]
    assert sum("largest |difference| 0" in line for line in details) == 4
    assert sum("manifests equal; jump histograms equal" in line for line in details) == 2
    times = [re.fullmatch(r"  wall time: (\S+) s / (\S+) s, cpu time: (\S+) s / (\S+) s "
                          r"\(one sample each, not a benchmark\)", line)
             for line in details if line.startswith("  wall time: ")]
    assert len(times) == 2 and all(t and all(float(x) > 0 for x in t.groups()) for t in times)
    assert len(details) == 8


@pytest.mark.parametrize("new_hist,code", [({"0": 5, "1": 3}, 0), ({"0": 4, "1": 4}, 1)])
def test_compare_outputs_fails_a_run_whose_jump_histograms_differ(capsys, monkeypatch,
                                                                 new_hist, code):
    # equal exits, files and CSVs, but one trajectory's jump count moved: a
    # flipped channel pick, which the exit code must report
    compare = load_script("compare_outputs")

    def simulate(src, args, out_dir):
        out_dir.mkdir()
        hist = {"0": 5, "1": 3} if out_dir.name == "old" else new_hist
        (out_dir / "out_manifest.json").write_text(json.dumps({
            "wall_time_s": 1.0, "config": {"output": {"prefix": str(out_dir)}},
            "diagnostics": {"jump_histograms": {"3p14159": hist}}}))
        return 0, 0.1, 0.1

    monkeypatch.setattr(compare, "_simulate", simulate)
    src = os.path.join(os.path.dirname(SCRIPTS), "src")
    assert compare.run([src, src, "--only", "fig2c"]) == code
    verdict = "equal" if code == 0 else "DIFFER"
    assert (f"  out_manifest.json: manifests {verdict}; jump histograms {verdict}"
            in capsys.readouterr().out.splitlines())
