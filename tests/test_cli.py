import contextlib
import dataclasses
import gc
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import typing

import numpy as np
import pytest
from hypothesis import event, example, given, strategies as st

import oracles
from nanorotor import cli, config as cfgmod, observables, rotor
from nanorotor.angular import AngularGrid
from nanorotor.errors import ConfigError, DomainError


def read_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("# manifest: ")
    header = lines[1].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[2:]])
    return header, rows


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_rejects_degenerate_gaussian():
    cfg = cfgmod.ExperimentConfig()
    cfg.rotor.inertia_ratio = 41.8
    cfg.state.mode = "gaussian_beta"
    cfg.state.sigma_beta = 0.0
    report = cfgmod.validate(cfg)
    assert any("sigma_beta" in p for p in report.problems)


def test_validate_rejects_missing_rotor():
    cfg = cfgmod.ExperimentConfig()
    cfg.state.sigma_j_sq = 800.0
    report = cfgmod.validate(cfg)
    assert any(p.startswith("rotor") for p in report.problems)


def test_validate_rejects_double_pulse_spec():
    cfg = cfgmod.ExperimentConfig()
    cfg.rotor.inertia_ratio = 41.8
    cfg.state.sigma_j_sq = 800.0
    cfg.pulse.phi = 1.0
    cfg.pulse.laser = cfgmod.LaserConfig(1e-3, 30e-6, 1e-7, 1e-35)
    report = cfgmod.validate(cfg)
    assert any("pulse" in p for p in report.problems)


def test_fig1_jmax_estimate():
    preset = json.loads(cli._preset_path("fig1").read_text())
    cfg = cfgmod.config_from_dict(preset)
    report = cfgmod.validate(cfg)
    assert report.ok
    assert 120 <= report.jmax_estimate <= 160


def test_unknown_override_key_rejected():
    cfg = cfgmod.ExperimentConfig()
    with pytest.raises(Exception):
        cfgmod.apply_overrides(cfg, {"state.nonsense": 1})


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def test_params_preset_reports_presets(tmp_path):
    out = tmp_path / "p"
    code = cli.main(["params", "--out", str(out)])
    assert code == 0
    manifest = json.loads((tmp_path / "p_manifest.json").read_text())
    d = manifest["diagnostics"]
    assert d["mass_amu"] == pytest.approx(1.1e6, rel=0.02)
    assert d["t_rev_ms"] == pytest.approx(14.0, rel=0.02)
    assert d["variant_b_asym"] == pytest.approx(2.3e-5, rel=0.05)


def test_exit_code_2_on_bad_config(tmp_path, capsys):
    code = cli.main(["evolve", "--out", str(tmp_path / "x"),
                     "--state.sigma_j_sq", "-5"])
    assert code == 2
    assert "sigma_j_sq" in capsys.readouterr().err


def _exit2(key, value, preset="fig1", *extra, id=None):
    return pytest.param([preset, f"--{key}", value, *extra], key, id=id or f"{key}-{value}")


DIRECT_ROTOR = ("--rotor.inertia_ratio", "41.8", "--state.sigma_j_sq", "100")
SMALL_RUN = ("--rotor.inertia_ratio", "41.8", "--state.sigma_j_sq", "60", "--times.n_points", "8")
BIG_INT = "1" + "0" * 400
# a laser whose phase is valid
LASER = '{"power_w": 1e-3, "waist_m": 3e-5, "duration_s": 1e-7, "delta_alpha": 1e-35}'

EXIT2_CASES = [
    _exit2("state.sigma_j_sq", "abc"),
    _exit2("times.n_points", "2.5"),
    _exit2("pulse.schedule_t", "0.1"),
    _exit2("rotor.semi_axes_nm", "[25,2.75,2.75]"),
    _exit2("pulse.phi", "-1.0", "fig1", "--times.n_points", "8"),
    _exit2("sweep.phi", "[-1.0]", "fig2c", "--ensemble.n", "2"),
    _exit2("rotor.variant_minor_axis_nm", "30", "params"),
    _exit2("ensemble.seed", "-1", "fig2c", "--sweep.phi", "[1.0]", "--ensemble.n", "3"),
    _exit2("times.refine_halfwidth", "-1.0", "fig1", "--times.n_points", "8"),
    _exit2("state.jmax", "-5"),
    _exit2("state.jmax", "2", "fig1", "--state.k0", "3"),
    _exit2("sweep.b_points", "-1", "fig2b"),
    _exit2("sweep.sigma_beta", "[-0.1]", "fig2a", "--sweep.sigma_k", "[0.0]"),
    _exit2("sweep.sigma_k", "[-1.0]", "fig2a", "--sweep.sigma_beta", "[0.1]"),
    # a sigma_k mixture spans |k0| <= 8, beyond jmax
    _exit2("state.jmax", "2", "fig2a", "--sweep.sigma_beta", "[0.1]", "--sweep.sigma_k",
           "[2.0]", id="state.jmax-2-below-the-mixture"),
    _exit2("sweep.sigma_beta", "[]", "fig2a"),
    _exit2("sweep.sigma_k", "[]", "fig2a"),
    _exit2("sweep.phi", "[]", "fig2c"),
    _exit2("pulse.phi", "[]"),
    _exit2("sweep.b_points", "0", "fig2b", "--sweep.b_include", "[]"),
    _exit2("state.sigma_k", "1.0", "evolve", *DIRECT_ROTOR),
    _exit2("state.k0", "2", "evolve", *DIRECT_ROTOR[:2], "--state.mode", "gaussian_beta",
           "--state.sigma_beta", "0.1", "--state.sigma_k", "1.0"),
    _exit2("state.k0", "2", "fig2a", "--sweep.sigma_beta", "[0.1]",
           id="state.k0-2-in-the-sigma-sweep"),
    _exit2("gamma.hz", "1.0", "evolve", *DIRECT_ROTOR),
    _exit2("state.sigma_j_sq", "1e400"),
    _exit2("state.sigma_j_sq", "NaN"),
    # widths whose weight profile would span more j levels than any grid holds
    _exit2("state.sigma_j_sq", "1e16"),
    _exit2("state.sigma_beta", "1e-12", "fig2a"),
    _exit2("sweep.sigma_beta", "[1e-12]", "fig2a", "--sweep.sigma_k", "[0.0]"),
    pytest.param(["params", "--pulse.laser.power_w", "0", "--pulse.laser.waist_m", "0"],
                 "pulse.laser", id="pulse.laser-zero"),
    pytest.param(["params", "--pulse.laser.power_w", "1e300"], "pulse.laser",
                 id="pulse.laser-infinite-phase"),
    # spectrum.kmax has no reader: any value but null is rejected
    _exit2("spectrum.kmax", "100000", "fig1", "--times.n_points", "8"),
    _exit2("spectrum.kmax", "-5", "fig1", "--times.n_points", "8"),
    # nor has output.format: every table is written as CSV
    _exit2("output.format", "parquet", "fig1", "--times.n_points", "8"),
    # a jmax beyond the state-width ceiling would not fit in memory
    _exit2("state.jmax", "1000000000000", "fig1", "--times.n_points", "8"),
    # sweep_sigma runs one phase; a list would silently drop all but the first
    _exit2("pulse.phi", "[1.0,2.0]", "fig2a", "--sweep.sigma_beta", "[0.1]",
           "--sweep.sigma_k", "[0.0]"),
    # the pulse headroom of a huge phase would take jmax past the ceiling
    _exit2("pulse.phi", "1e6", "evolve", *DIRECT_ROTOR, "--times.n_points", "8"),
    _exit2("sweep.phi", "[1e6]", "fig2c", "--ensemble.n", "2"),
    # ... and is rejected before a Bessel table of ~phi orders is built
    _exit2("pulse.phi", "1e12", "evolve", *DIRECT_ROTOR, "--times.n_points", "8"),
    _exit2("sweep.phi", "[1e12]", "fig2c", "--ensemble.n", "2"),
    # sweep_asymmetry always sweeps the asymmetric spectrum, and without jumps
    _exit2("spectrum.method", "symmetric", "fig2b", "--sweep.b_points", "1"),
    _exit2("gamma.hz", "20.7", "fig2b", "--sweep.b_points", "1"),
    _exit2("gamma.dimensionless", "1.0", "fig2b", "--sweep.b_points", "1"),
    # fractional runs without jumps and without a pulse, and sweep_phi takes its
    # phases from sweep.phi: a value they would record but never apply is rejected
    _exit2("gamma.dimensionless", "5", "fractional", *DIRECT_ROTOR,
           id="gamma.dimensionless-fractional"),
    _exit2("gamma.hz", "20.7", "fractional", *DIRECT_ROTOR, "--rotor.t_rev_s", "1e-3",
           id="gamma.hz-fractional"),
    _exit2("pulse.phi", "3.0", "fractional", *DIRECT_ROTOR, id="pulse.phi-fractional"),
    _exit2("pulse.laser", LASER, "fractional", *DIRECT_ROTOR, id="pulse.laser-fractional"),
    _exit2("pulse.phi", "2.0", "sweep_phi", *DIRECT_ROTOR, "--sweep.phi", "[1.0]",
           id="pulse.phi-sweep_phi"),
    _exit2("pulse.laser", LASER, "fig2c", "--ensemble.n", "2", "--sweep.phi", "[1.0]",
           id="pulse.laser-sweep_phi"),
    # a time grid of more than a million samples, named by the key that drives it
    _exit2("times.n_points", "1000000000"),
    _exit2("times.refine_factor", "1000000000"),
    _exit2("times.t_end", "1e6"),
    # a swept b whose revival window reaches t <= 0 (|b| >= 0.095), where the
    # unevolved state would be the maximum, is rejected before any b is
    # computed: far beyond the window's limit, up to 10^x beyond float range
    _exit2("sweep.b_log10_max", "3", "fig2b"),
    _exit2("sweep.b_log10_max", "400", "fig2b", id="sweep.b_log10_max-beyond-float-range"),
    _exit2("sweep.b_include", "[20.0]", "fig2b"),
    _exit2("sweep.b_include", "[2.0]", "fig2b", "--sweep.b_points", "0",
           "--state.sigma_beta", "0.03"),
    _exit2("sweep.b_include", "[-1.5]", "fig2b", "--sweep.b_points", "0",
           "--state.sigma_beta", "0.03"),
    _exit2("sweep.b_log10_max", "0.5", "fig2b", "--sweep.b_points", "2",
           "--sweep.b_log10_min", "-5", "--state.sigma_beta", "0.03"),
    _exit2("sweep.b_log10_min", "0.5", "fig2b", "--sweep.b_points", "1",
           "--state.sigma_beta", "0.03"),
    # ... and just past it
    *(_exit2("sweep.b_include", f"[{b}]", "fig2b", "--sweep.b_points", "0",
             "--state.sigma_beta", "0.03", id=f"sweep.b_include-{b}-window-reaches-0")
      for b in ("0.1", "0.3", "1.0")),
    _exit2("sweep.b_log10_max", "-0.5", "fig2b", "--sweep.b_points", "2",
           "--state.sigma_beta", "0.03", id="sweep.b_log10_max-window-reaches-0"),
    # values whose 6-digit tags repeat would name one output twice
    _exit2("pulse.phi", "[1.0000001,1.0000002]", "evolve", "--rotor.inertia_ratio", "41.8",
           "--state.sigma_j_sq", "20", "--times.n_points", "8", "--gamma.dimensionless", "0.5",
           "--ensemble.n", "2", id="pulse.phi-shared-tag"),
    _exit2("sweep.phi", "[1.0,1.0000001]", "fig2c", "--ensemble.n", "2",
           id="sweep.phi-shared-tag"),
    _exit2("sweep.sigma_beta", "[0.1,0.1000000001]", "fig2a", "--sweep.sigma_k", "[0.0]",
           id="sweep.sigma_beta-shared-tag"),
    _exit2("sweep.sigma_k", "[1.0,1.0]", "fig2a", "--sweep.sigma_beta", "[0.1]",
           id="sweep.sigma_k-shared-tag"),
    # a revival time of zero or below; moments beyond float range, from a huge
    # asymmetry or an ellipsoid whose mass underflows or overflows
    _exit2("rotor.t_rev_s", "0", "evolve", *SMALL_RUN),
    _exit2("rotor.t_rev_s", "-1.0", "evolve", *SMALL_RUN),
    pytest.param(["evolve", *SMALL_RUN, "--rotor.b_asym", "1e300"], "rotor",
                 id="rotor.b_asym-1e300"),
    pytest.param(["evolve", *SMALL_RUN[2:], "--rotor.semi_axes_nm", "[1e-300,1e-300,1e-299]",
                  "--rotor.density_kg_m3", "1"], "rotor.semi_axes_nm", id="rotor-mass-underflow"),
    pytest.param(["evolve", *SMALL_RUN[2:], "--rotor.semi_axes_nm", "[1e300,1e300,1e301]",
                  "--rotor.density_kg_m3", "1e300"], "rotor.semi_axes_nm",
                 id="rotor-mass-overflow"),
    # more expected jumps per trajectory than MAX_EXPECTED_JUMPS
    _exit2("gamma.hz", "1e300", "fig2c", "--ensemble.n", "2", "--sweep.phi", "[1.0]"),
    _exit2("gamma.dimensionless", "20000", "evolve", *SMALL_RUN),
    # found by the property test below: a float key given an integer beyond
    # float range, a mixture width past the j ceiling, a waist whose square
    # overflows; and an asymmetry whose reconstruction divides by zero
    _exit2("rotor.b_asym", BIG_INT, "evolve", *SMALL_RUN, id="rotor.b_asym-beyond-float-range"),
    _exit2("state.sigma_k", "1e300", "params"),
    _exit2("sweep.sigma_k", "[1e300]", "fig2a", "--sweep.sigma_beta", "[0.1]"),
    pytest.param(["params", "--pulse.laser.waist_m", "1e300"], "pulse.laser",
                 id="pulse.laser.waist_m-1e300"),
    pytest.param(["evolve", *SMALL_RUN, "--rotor.b_asym", "5000"], "rotor",
                 id="rotor.b_asym-5000"),
    # an asymmetry no prolate set of moments gives (|b| = 1 where I_b = I_c)
    pytest.param(["evolve", *SMALL_RUN, "--rotor.b_asym", "1.01"], "rotor",
                 id="rotor.b_asym-1.01"),
    # moments off the prolateness rule: a near-sphere within 1e-12 of prolate
    # ordering, a sphere, and I/I_c = 1 + 1 ulp, whose b was read as 0
    pytest.param(["evolve", *SMALL_RUN[2:], "--rotor.semi_axes_nm", "[1,1.0000000000001,1]",
                  "--rotor.density_kg_m3", "2329"], "rotor.semi_axes_nm", id="rotor-near-sphere"),
    pytest.param(["evolve", *SMALL_RUN[2:], "--rotor.semi_axes_nm", "[1,1,1]",
                  "--rotor.density_kg_m3", "2329"], "rotor.semi_axes_nm", id="rotor-sphere"),
    pytest.param(["evolve", *SMALL_RUN, "--rotor.inertia_ratio", "1.0000000000000002",
                  "--rotor.b_asym", "0.05"], "rotor", id="rotor.inertia_ratio-1-ulp-above-1"),
    # a revival time beyond float range, which JSON cannot hold
    pytest.param(["params", "--rotor.semi_axes_nm", "[1e69,1e69,1e70]",
                  "--rotor.density_kg_m3", "1"], "rotor.semi_axes_nm", id="rotor-t_rev-overflow"),
]


@pytest.mark.parametrize("argv,key", EXIT2_CASES)
def test_exit_code_2_names_the_key(tmp_path, capsys, argv, key):
    # wrong JSON types, out-of-range values, a negative semiclassical phase
    # and non-prolate geometry (the rotor's or the params variant's) are
    # config errors, not tracebacks, zero states or numerical failures
    assert cli.main([*argv, "--out", str(tmp_path / "x")]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("argv,key", EXIT2_CASES)
def test_validate_only_names_the_same_key(capsys, argv, key):
    # --validate-only applies the rules the run applies
    assert cli.main([*argv, "--validate-only"]) == 2
    captured = capsys.readouterr()
    assert key in captured.err and captured.out == ""


def _simulate(argv):
    """``simulate`` in a subprocess on this checkout's src, output captured."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "nanorotor.cli", *argv],
                          capture_output=True, text=True, env=env)


# inputs that ended in tracebacks before they had a rule: an ensemble.n
# beyond float range (OverflowError in the time forecast), a subnormal t_end
# (ZeroDivisionError in the time grid), a billion b points (np.logspace of
# 7.45 GiB), time-grid sizes beyond float range in scenarios that read no
# time grid (OverflowError in the time forecast)
BREAK_CASES = [
    pytest.param(["fig1", "--ensemble.n", "1" + "0" * 400, "--times.n_points", "8"],
                 "ensemble.n", id="ensemble.n-beyond-float-range"),
    pytest.param(["fig1", "--times.t_end", "5e-324"], "times.t_end", id="times.t_end-subnormal"),
    pytest.param(["fig2b", "--sweep.b_points", "1000000000"], "sweep.b_points",
                 id="sweep.b_points-1e9"),
    pytest.param(["fig2a", "--times.n_points", BIG_INT], "times.n_points",
                 id="times.n_points-beyond-float-range"),
    pytest.param(["params", "--times.refine_factor", BIG_INT], "times.refine_factor",
                 id="times.refine_factor-beyond-float-range"),
]


@pytest.mark.parametrize("extra", [[], ["--validate-only"]], ids=["run", "validate-only"])
@pytest.mark.parametrize("argv,key", BREAK_CASES)
def test_break_inputs_exit_2_without_traceback(tmp_path, argv, key, extra):
    proc = _simulate(argv + extra + ["--out", str(tmp_path / "x")])
    assert proc.returncode == 2
    assert key in proc.stderr and "Traceback" not in proc.stderr


def _schema_keys(section=cfgmod.ExperimentConfig, prefix=""):
    """Every dotted key of the config schema, sections included."""
    keys = []
    for name, hint in typing.get_type_hints(section).items():
        keys.append(prefix + name)
        for tp in typing.get_args(hint) or (hint,):
            if dataclasses.is_dataclass(tp):
                keys += _schema_keys(tp, f"{prefix}{name}.")
    return keys


SCHEMA_KEYS = _schema_keys()
# tiny configs of each kind of run, cheap to validate
PROPERTY_BASES = {
    "params": ["params"],
    "evolve": ["evolve", *SMALL_RUN],
    "geometry": ["fig1", "--times.n_points", "8"],
    "sweep_phi": ["fig2c", "--ensemble.n", "2", "--sweep.phi", "[1.0]"],
    "sweep_sigma": ["fig2a", "--sweep.sigma_beta", "[0.1]", "--sweep.sigma_k", "[0.0]"],
    "sweep_asymmetry": ["fig2b", "--sweep.b_points", "1"],
}
JSON_VALUES = st.sampled_from([0, 0.0, -1, -0.5, 1e300, -1e300, 10 ** 400, -10 ** 400,
                               [], [0], [-1.0], [1e300], "", "abc", None])


@given(base=st.sampled_from(sorted(PROPERTY_BASES)),
       overrides=st.lists(st.tuples(st.sampled_from(SCHEMA_KEYS), JSON_VALUES),
                          min_size=1, max_size=3))
@example(base="sweep_sigma", overrides=[("times.n_points", 10 ** 400)])
@example(base="params", overrides=[("times.refine_factor", 10 ** 400)])
@example(base="evolve", overrides=[("rotor.t_rev_s", 0)])
@example(base="evolve", overrides=[("rotor.b_asym", 1e300)])
@example(base="evolve", overrides=[("rotor.inertia_ratio", None),
                                   ("rotor.semi_axes_nm", [1e-300, 1e-300, 1e-299]),
                                   ("rotor.density_kg_m3", 1)])
@example(base="evolve", overrides=[("rotor.inertia_ratio", None),
                                   ("rotor.semi_axes_nm", [1e300, 1e300, 1e301]),
                                   ("rotor.density_kg_m3", 1e300)])
@example(base="sweep_phi", overrides=[("gamma.hz", 1e300)])
def test_validate_only_exits_0_or_2_naming_a_key(base, overrides):
    # the CLI contract under --validate-only: any schema key set to any JSON
    # value exits 0 or 2, raises nothing, and each config error names a key
    argv = list(PROPERTY_BASES[base])
    for key, value in overrides:
        argv += [f"--{key}", json.dumps(value)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--validate-only"])
    assert code in (0, 2)
    lines = err.getvalue().splitlines()
    assert bool(lines) == (code == 2)
    for line in lines:
        head = line.removeprefix("config error: ").split(":")[0].split()[0]
        assert head in SCHEMA_KEYS, line


_TINY_ROTOR = ("--rotor.inertia_ratio", "41.8", "--state.sigma_j_sq", "60")
# tiny runs of every scenario: jmax in the tens, at most 4 trajectories
RUN_BASES = {
    "params": ["params"],
    "evolve": ["evolve", *_TINY_ROTOR, "--times.n_points", "8", "--pulse.phi", "1.0"],
    "decohere": ["decohere", *_TINY_ROTOR, "--times.n_points", "8", "--pulse.phi", "1.0",
                 "--gamma.dimensionless", "1.0", "--ensemble.n", "2"],
    "fractional": ["fractional", *_TINY_ROTOR],
    "sweep_phi": ["sweep_phi", *_TINY_ROTOR, "--sweep.phi", "[1.0]",
                  "--gamma.dimensionless", "1.0", "--ensemble.n", "2"],
    "sweep_sigma": ["sweep_sigma", "--rotor.inertia_ratio", "41.8", "--state.mode",
                    "gaussian_beta", "--state.sigma_beta", "0.1", "--pulse.phi", "1.0",
                    "--sweep.sigma_beta", "[0.1]", "--sweep.sigma_k", "[0.0]"],
    "sweep_asymmetry": ["sweep_asymmetry", *_TINY_ROTOR, "--spectrum.method", "asymmetric",
                        "--pulse.phi", "1.0", "--sweep.b_points", "1"],
}
# small, bounded values per key: whatever passes validation keeps the run tiny
# (at most 57 time samples, ensemble.n <= 4, jmax in the tens), unlike the
# +-1e300 of JSON_VALUES; sweep_asymmetry keeps its fixed revival grid
RUN_VALUES = {
    "rotor.semi_axes_nm": [None, [2.75, 2.75, 25.0], [-1.0, 1.0, 2.0], [1.0, 1.0, 1.0]],
    "rotor.density_kg_m3": [None, 2329.0, 0.0],
    "rotor.inertia_ratio": [None, 41.8, 1.0, 2.0, 1.0000000000000002],
    "rotor.b_asym": [None, 0.0, 1e-4, -1e-3],
    "rotor.t_rev_s": [None, 1e-3, 0.0],
    "state.mode": ["gaussian_j", "gaussian_beta", "other"],
    "state.sigma_j_sq": [None, 20.0, 60.0, 0.0],
    "state.sigma_beta": [None, 0.1, 0.3, 0.0],
    "state.sigma_k": [0.0, 0.5, 1.0, -1.0],
    "state.k0": [0, 2, -3],
    "state.jmax": [None, 2, 8, 40],
    "pulse.phi": [None, 0.0, 1.0, math.pi, -1.0, [0.0, 2.0], []],
    "pulse.schedule_t": [[], [0.125], [0.125, 0.375], [0.0], [9.0]],
    "pulse.method": ["exact", "semiclassical", "other"],
    "gamma.hz": [None, 0.0, 20.7, -1.0],
    "gamma.dimensionless": [None, 0.0, 0.5, 2.0, -1.0],
    "times.t_end": [0.0, 0.3, 1.05, 2.0],
    "times.n_points": [0, 2, 4, 8],
    "times.refine_factor": [0, 1, 2, 8],
    "times.refine_halfwidth": [-0.1, 0.0, 0.02],
    "ensemble.n": [0, 1, 2, 4],
    "ensemble.seed": [0, 7, -1],
    "ensemble.threads": [None, 1, 2],
    "sweep.phi": [None, [], [1.0], [0.0, 2.0], [-1.0]],
    "sweep.sigma_k": [None, [], [0.0], [0.0, 0.5], [-1.0]],
    "sweep.sigma_beta": [None, [], [0.1], [0.1, 0.3], [0.0]],
    "sweep.b_log10_min": [-6.0, -4.0, -3.0],
    "sweep.b_log10_max": [-6.0, -4.0, -3.0, 0.5],
    "sweep.b_points": [0, 1, 2],
    "sweep.b_include": [[], [1e-4], [-3e-3], [2.0]],
    "spectrum.method": ["symmetric", "asymmetric", "other"],
    "spectrum.kmax": [None, 3],
    "output.format": ["csv", "other"],
}


def _csv_bodies(prefix):
    folder, name = os.path.split(prefix)
    return {f[len(name):]: open(os.path.join(folder, f)).read().splitlines()[1:]
            for f in sorted(os.listdir(folder)) if f.startswith(name) and f.endswith(".csv")}


def test_run_values_are_schema_keys():
    assert set(RUN_VALUES) <= set(SCHEMA_KEYS)


@given(base=st.sampled_from(sorted(RUN_BASES)),
       overrides=st.lists(st.sampled_from(sorted(RUN_VALUES)).flatmap(
           lambda key: st.tuples(st.just(key), st.sampled_from(RUN_VALUES[key]))),
           max_size=3))
@example(base="evolve", overrides=[("rotor.inertia_ratio", 1.0000000000000002),
                                   ("rotor.b_asym", 1e-4)])
@example(base="evolve", overrides=[("rotor.inertia_ratio", None),
                                   ("rotor.semi_axes_nm", [1.0, 1.0, 1.0]),
                                   ("rotor.density_kg_m3", 2329.0)])
def test_runs_exit_0_2_or_3_and_replay(base, overrides):
    # the CLI contract on real runs: any of these values exits 0, 2 or 3,
    # raises nothing, names a key in each config error, and every run that
    # succeeds replays from its manifest byte for byte
    argv = list(RUN_BASES[base])
    for key, value in overrides:
        argv += [f"--{key}", json.dumps(value)]
    with tempfile.TemporaryDirectory() as tmp:
        first, again = os.path.join(tmp, "first"), os.path.join(tmp, "again")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([*argv, "--out", first])
        event(f"exit {code}")
        assert code in (0, 2, 3)
        lines = err.getvalue().splitlines()
        assert bool(lines) == (code != 0)
        if code == 2:
            for line in lines:
                head = line.removeprefix("config error: ").split(":")[0].split()[0]
                assert head in SCHEMA_KEYS, line
        if code == 0:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main([first + "_manifest.json", "--out", again]) == 0
            assert _csv_bodies(again) == _csv_bodies(first)


@pytest.mark.parametrize("argv", [["params"], ["fig1", "--times.n_points", "8"]])
def test_a_run_validates_once(tmp_path, monkeypatch, argv):
    calls = []
    real = cfgmod.validate

    def counted(cfg):
        calls.append(cfg)
        return real(cfg)

    monkeypatch.setattr(cfgmod, "validate", counted)
    assert cli.main([*argv, "--out", str(tmp_path / "x")]) == 0
    assert len(calls) == 1


# inputs the files behind them make unreadable or unwritable: all but the
# one that is not JSON (whose message named no key) ended in tracebacks from
# load_config or from the output directory's makedirs
IO_CASES = [
    pytest.param(lambda d: [str(d)], "scenario", id="scenario-is-a-directory"),
    pytest.param(lambda d: [_write(d / "c.json", b'{"scenario": "\xff"}')], "scenario",
                 id="scenario-not-utf8"),
    pytest.param(lambda d: [_write(d / "c.json", b"not json")], "scenario",
                 id="scenario-not-json"),
    pytest.param(lambda d: ["params", "--out", _write(d / "f", b"") + "/x"], "output.prefix",
                 id="out-below-a-regular-file"),
    pytest.param(lambda d: ["params", "--out", _write(d / "f", b"") + "/sub/x"], "output.prefix",
                 id="out-two-below-a-regular-file"),
]


def _write(path, data: bytes) -> str:
    path.write_bytes(data)
    return str(path)


@pytest.mark.parametrize("argv,key", IO_CASES)
def test_io_failures_exit_2_without_traceback(tmp_path, argv, key):
    proc = _simulate(argv(tmp_path))
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"config error: {key}: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_a_failed_run_leaves_no_csv_without_a_manifest(tmp_path):
    # the second phi's CSV cannot be written, after the first one was
    (tmp_path / "x_phi3p14159.csv").mkdir()
    proc = _simulate(["evolve", "--rotor.inertia_ratio", "41.8", "--state.sigma_j_sq", "800",
                      "--pulse.phi", "[0.0,3.14159]", "--times.n_points", "16",
                      "--out", str(tmp_path / "x")])
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: output.prefix: ")
    assert proc.stderr.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x_phi3p14159.csv"]


def test_every_scenario_has_a_runner():
    assert sorted(cli.SCENARIO_RUNNERS) == sorted(cfgmod.SCENARIOS)


def test_exit_code_2_on_unknown_scenario(tmp_path):
    assert cli.main(["not_a_thing", "--out", str(tmp_path / "x")]) == 2


def test_evolve_csv_format_and_override(tmp_path):
    out = tmp_path / "run"
    code = cli.main([
        "evolve", "--out", str(out), "--seed", "7",
        "--rotor.inertia_ratio", "41.8",
        "--state.sigma_j_sq", "100",
        "--pulse.phi", "3.141592653589793",
        "--times.n_points", "64", "--times.t_end", "1.0",
    ])
    assert code == 0
    header, rows = read_csv(str(out) + ".csv")
    assert header == ["t_over_Trev", "value"]
    assert rows[0, 0] == 0.0 and rows[-1, 0] == 1.0
    # eighth multiples are exact sample points
    for mult in (0.125, 0.25, 0.5, 1.0):
        assert np.any(rows[:, 0] == mult)
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["config"]["ensemble"]["seed"] == 7
    assert manifest["config"]["pulse"]["phi"] == math.pi


def test_manifest_rerun_reproduces_outputs(tmp_path):
    out1 = tmp_path / "a"
    args = ["evolve", "--rotor.inertia_ratio", "41.8",
            "--state.sigma_j_sq", "60",
            "--pulse.phi", "1.0", "--times.n_points", "48",
            "--gamma.dimensionless", "0.4", "--ensemble.n", "6"]
    assert cli.main(args + ["--out", str(out1)]) == 0
    manifest_path = str(out1) + "_manifest.json"
    out2 = tmp_path / "b"
    assert cli.main([manifest_path, "--out", str(out2)]) == 0
    a = open(str(out1) + ".csv").read().splitlines()[1:]
    b = open(str(out2) + ".csv").read().splitlines()[1:]
    assert a == b


def _manifest_without_run_fields(path):
    manifest = json.loads(path.read_text())
    del manifest["wall_time_s"], manifest["config"]["output"]["prefix"]
    return manifest


def test_a_fresh_process_writes_what_main_writes(tmp_path):
    # the CLI freezes the collector as its interpreter exits, so nothing the
    # run writes may wait for a shutdown collection to be closed
    assert _simulate(["fig2d", "--out", str(tmp_path / "fresh" / "run")]).returncode == 0
    assert cli.main(["fig2d", "--out", str(tmp_path / "main" / "run")]) == 0
    names = sorted(p.name for p in (tmp_path / "main").iterdir())
    assert sorted(p.name for p in (tmp_path / "fresh").iterdir()) == names
    assert sum(name.endswith(".csv") for name in names) == 4
    for name in names:
        if name.endswith(".csv"):
            assert ((tmp_path / "fresh" / name).read_bytes()
                    == (tmp_path / "main" / name).read_bytes()), name
    assert (_manifest_without_run_fields(tmp_path / "fresh" / "run_manifest.json")
            == _manifest_without_run_fields(tmp_path / "main" / "run_manifest.json"))


def test_main_leaves_the_collector_alone(tmp_path):
    # the heap is frozen only as the interpreter exits: a frozen heap is
    # never collected, and tests and scripts call main many times
    assert cli.main(["fig2d", "--out", str(tmp_path / "x")]) == 0
    assert gc.get_freeze_count() == 0


def test_thread_count_does_not_change_bytes(tmp_path):
    # --threads is accepted for old command lines and has no effect
    base = ["evolve", "--rotor.inertia_ratio", "41.8",
            "--state.sigma_j_sq", "60",
            "--pulse.phi", "1.0", "--times.n_points", "32",
            "--gamma.dimensionless", "0.5", "--ensemble.n", "12"]
    assert cli.main(base + ["--out", str(tmp_path / "t1"), "--threads", "1"]) == 0
    assert cli.main(base + ["--out", str(tmp_path / "t3"), "--threads", "3"]) == 0
    a = open(tmp_path / "t1.csv").read().splitlines()[1:]
    b = open(tmp_path / "t3.csv").read().splitlines()[1:]
    assert a == b


def test_replays_manifest_with_threads(tmp_path):
    # manifests written while ensembles could run in a process pool carry
    # ensemble.threads and a top-level "threads"; they still replay
    args = ["decohere", "--rotor.inertia_ratio", "41.8", "--state.sigma_j_sq", "60",
            "--pulse.phi", "1.0", "--times.n_points", "32",
            "--gamma.dimensionless", "0.5", "--ensemble.n", "12"]
    assert cli.main(args + ["--out", str(tmp_path / "a")]) == 0
    manifest = json.loads((tmp_path / "a_manifest.json").read_text())
    manifest["config"]["ensemble"]["threads"] = 2
    manifest["threads"] = 2
    old = tmp_path / "old_manifest.json"
    old.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    assert cli.main([str(old), "--out", str(tmp_path / "b")]) == 0
    names = sorted(p.name[1:] for p in tmp_path.glob("a*.csv"))
    assert len(names) == 1 + 8  # the ensemble and its first 8 trajectories
    for name in names:
        a = (tmp_path / f"a{name}").read_text().splitlines()[1:]
        b = (tmp_path / f"b{name}").read_text().splitlines()[1:]
        assert a == b, name


def test_fractional_scenario_windows(tmp_path):
    out = tmp_path / "fr"
    code = cli.main(["fractional", "--out", str(out),
                     "--rotor.inertia_ratio", "41.8",
                     "--state.sigma_j_sq", "800"])
    assert code == 0
    header, rows = read_csv(str(out) + "_windows.csv")
    assert header == ["t_over_Trev", "window_center", "mass"]
    eighth = rows[rows[:, 0] == 0.125]
    assert len(eighth) == 4
    assert np.allclose(eighth[:, 2], 0.25, atol=0.02)


def test_validate_only_flag(tmp_path, capsys):
    code = cli.main(["fig1", "--validate-only"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] and 120 <= payload["jmax_estimate"] <= 160


def _record_grids(monkeypatch) -> list:
    """The orders of the quadrature grids built or fetched from now on."""
    orders = []

    def record(fn):
        def wrapper(cls, *args):
            grid = fn(*args)
            orders.append(grid.order)
            return grid
        return classmethod(wrapper)

    monkeypatch.setattr(AngularGrid, "for_jmax", record(AngularGrid.for_jmax))
    monkeypatch.setattr(AngularGrid, "gauss_legendre", record(AngularGrid.gauss_legendre))
    return orders


def _validated_grid_order(argv, capsys):
    assert cli.main([*argv, "--validate-only"]) == 0
    return json.loads(capsys.readouterr().out)["grid_order"]


@pytest.mark.parametrize("argv", [
    pytest.param(["evolve", *SMALL_RUN], id="gaussian_j"),
    pytest.param(["evolve", *SMALL_RUN[:2], "--state.mode", "gaussian_beta",
                  "--state.sigma_beta", "0.1", "--times.n_points", "8"], id="gaussian_beta"),
    pytest.param(["evolve", *SMALL_RUN[:2], "--state.mode", "gaussian_beta",
                  "--state.sigma_beta", "0.1", "--state.jmax", "90", "--times.n_points", "8"],
                 id="gaussian_beta-jmax"),
    pytest.param(["fractional", *SMALL_RUN], id="fractional"),
])
def test_grid_order_is_the_largest_grid_the_run_builds(tmp_path, capsys, monkeypatch, argv):
    # null where the run builds no grid; the pulse headroom adds none
    reported = _validated_grid_order(argv, capsys)
    orders = _record_grids(monkeypatch)
    assert cli.main([*argv, "--out", str(tmp_path / "x")]) == 0
    assert reported == max(orders, default=None)


def test_params_grid_order_is_the_grid_its_state_takes(capsys, monkeypatch):
    reported = _validated_grid_order(["params"], capsys)
    orders = _record_grids(monkeypatch)
    cli.prepare_state(cfgmod.config_from_dict(
        json.loads(cli._preset_path("params").read_text())).state)
    assert reported == max(orders) == 2294


def test_fig1_preset_writes_three_series(tmp_path):
    code = cli.main(["fig1", "--out", str(tmp_path / "f1"),
                     "--times.n_points", "128"])
    assert code == 0
    names = sorted(p.name for p in tmp_path.glob("f1_phi*.csv"))
    assert len(names) == 3
    for name in names:
        _, rows = read_csv(str(tmp_path / name))
        assert rows[0, 0] == 0.0 and rows[-1, 0] == 1.05


def test_fig2b_preset_reduced_grid(tmp_path):
    code = cli.main(["fig2b", "--out", str(tmp_path / "b"),
                     "--sweep.b_points", "3", "--sweep.b_include", "[2.3e-5]"])
    assert code == 0
    diagnostics = json.loads((tmp_path / "b_manifest.json").read_text())["diagnostics"]
    # gamma = 0: no jump histograms; every j certified on the first cut
    assert "jump_histograms" not in diagnostics
    assert diagnostics["spectrum_widened_j"] == 0
    assert 0.0 < diagnostics["min_dominant_weight"] < 1.0
    _, tpeak = read_csv(str(tmp_path / "b_tpeak.csv"))
    assert np.any(np.isclose(tpeak[:, 0], 2.3e-5))
    assert np.all(np.diff(tpeak[:, 1]) > 0)  # revival delayed as b grows
    _, phi0 = read_csv(str(tmp_path / "b_phi0.csv"))
    assert np.all(np.diff(phi0[:, 1]) < 0)   # alignment degrades with b


def test_fig2b_negative_b_gives_the_values_of_positive_b(tmp_path):
    # -b has the moments and the revival window of b
    base = ["fig2b", "--state.sigma_beta", "0.03", "--sweep.b_points", "0"]
    for name, b in (("minus", "[-3e-3]"), ("plus", "[3e-3]")):
        assert cli.main([*base, "--sweep.b_include", b, "--out", str(tmp_path / name)]) == 0
    minus, plus = _csv_bodies(str(tmp_path / "minus")), _csv_bodies(str(tmp_path / "plus"))
    assert sorted(minus) == ["_phi0.csv", "_phi3p14159.csv", "_tpeak.csv"]
    for suffix, lines in minus.items():
        header, row = lines
        assert row.startswith("-0.003,")
        assert [header, row[1:]] == plus[suffix]


def test_fig2b_runs_a_window_that_stays_above_zero(tmp_path):
    # b = 0.09 is just below the 0.095 where the revival window reaches t = 0
    code = cli.main(["fig2b", "--out", str(tmp_path / "b"), "--state.sigma_beta", "0.03",
                     "--sweep.b_points", "0", "--sweep.b_include", "[0.09]"])
    assert code == 0
    _, tpeak = read_csv(str(tmp_path / "b_tpeak.csv"))
    centre, halfwidth = observables.revival_window(0.09)
    assert 0.0 < centre - halfwidth < tpeak[0, 1] < centre + halfwidth


def test_fig2b_samples_the_whole_revival_window(tmp_path):
    # at b = 1e-2 the revival window reaches past 1.08, and the peak lies there
    code = cli.main(["fig2b", "--out", str(tmp_path / "b"), "--state.sigma_beta", "0.03",
                     "--sweep.b_points", "1", "--sweep.b_log10_min", "-2",
                     "--sweep.b_log10_max", "-2", "--sweep.b_include", "[]"])
    assert code == 0
    _, tpeak = read_csv(str(tmp_path / "b_tpeak.csv"))
    centre, halfwidth = observables.revival_window(1e-2)
    assert 1.08 < tpeak[0, 1] < centre + halfwidth


MAX = cfgmod.MAX_TIME_SAMPLES


@pytest.mark.parametrize("build,below,above,key", [
    # 9 refinement centres of 2 samples plus themselves: 27 samples
    (cfgmod.build_time_grid, cfgmod.TimesConfig(n_points=MAX - 27, refine_halfwidth=0.0),
     cfgmod.TimesConfig(n_points=MAX + 1), "times.n_points"),
    (cfgmod.build_time_grid, cfgmod.TimesConfig(refine_factor=6040),
     cfgmod.TimesConfig(refine_factor=6041), "times.refine_factor"),
    (cfgmod.build_time_grid, None, cfgmod.TimesConfig(refine_factor=10 ** 400),
     "times.refine_factor"),
    (cfgmod.build_time_grid, None, cfgmod.TimesConfig(t_end=cfgmod.EIGHTH * MAX / 3),
     "times.t_end"),
    # a b beyond float range: revival_window refuses it, as it does every
    # b whose window reaches t <= 0, and the grid needs no ceiling of its own
    (cfgmod.revival_time_grid, None, math.inf, "revival window"),
    (cfgmod.revival_time_grid, None, math.nan, "revival window"),
], ids=["n_points", "refine_factor", "refine_factor-beyond-float-range", "t_end",
        "revival-inf", "revival-nan"])
def test_time_grid_builders_stop_at_the_ceiling(build, below, above, key):
    # each builder refuses a grid past MAX_TIME_SAMPLES before it allocates
    # it, naming what drives it, and builds one just below
    with pytest.raises((ConfigError, DomainError), match=key):
        build(above)
    if below is not None:
        grid = build(below)
        assert 0.999 * MAX < len(grid) <= MAX and np.all(np.diff(grid) > 0)


def test_time_grid_matches_the_window_loop():
    # the refinement windows, built in one pass, equal one np.linspace each
    rng = np.random.default_rng(7)
    for _ in range(2000):
        t_end = float(rng.choice([rng.uniform(1e-3, 12.0), cfgmod.EIGHTH * rng.integers(1, 90),
                                  cfgmod.EIGHTH * rng.integers(1, 90) - 1e-11]))
        times = cfgmod.TimesConfig(
            t_end=t_end, n_points=int(rng.integers(1, 3000)),
            refine_factor=int(rng.integers(0, 40)),
            refine_halfwidth=float(rng.choice([0.0, rng.uniform(0.0, 0.2), 1e-13])))
        assert cfgmod.build_time_grid(times).tobytes() == oracles.time_grid_loop(times).tobytes()


def test_revival_grid_is_bounded_where_its_window_is_admitted():
    # revival_window refuses every b whose window reaches t <= 0, so the
    # grid needs no ceiling: at the largest |b| it admits, just below 0.095,
    # the window spans (0, 3.9) and the grid holds 15,600 samples
    largest = 0.095
    while largest > 0.0:
        try:
            observables.revival_window(largest)
            break
        except DomainError:
            largest = math.nextafter(largest, 0.0)
    assert 0.0949 < largest < 0.095
    for b in (largest, -largest):
        grid = cfgmod.revival_time_grid(b)
        assert len(grid) == 15_600 and np.all(np.diff(grid) > 0)
        assert grid[0] == 0.0 and 0.0 < grid[1] and grid[-1] < 3.9
    for b in (0.095, -0.1, 1.0, 8.3):
        with pytest.raises(DomainError, match="revival window"):
            cfgmod.revival_time_grid(b)


@pytest.mark.parametrize("b", [1e-6, 2.3e-5, 4.64e-5, 1e-4, 1e-2, 0.09, -0.05])
def test_revival_grid_count_bounds_the_grid(b):
    grid = cfgmod.revival_time_grid(b)
    assert np.all(np.diff(grid) > 0)
    # the lattice keeps the old samples; windows inside [0.95, 1.08] add none
    old = np.concatenate([[0.0], np.round(np.linspace(0.95, 1.08, 521), 12)])
    assert np.isin(old, grid).all()
    if b in (1e-6, 2.3e-5):
        assert grid.tobytes() == old.tobytes()
    if b < 0:  # the moments of -b are those of b
        assert grid.tobytes() == cfgmod.revival_time_grid(-b).tobytes()


def test_asymmetric_mixture_run_matches_lapack_oracle(tmp_path, monkeypatch):
    # kmax >= 1 through the CLI: a sigma_k mixture with the asymmetric
    # spectrum, against the same run on the per-j LAPACK spectrum
    args = ["evolve", "--rotor.inertia_ratio", "41.8", "--rotor.b_asym", "1e-3",
            "--state.mode", "gaussian_beta", "--state.sigma_beta", "0.1",
            "--state.sigma_k", "1.0", "--spectrum.method", "asymmetric",
            "--pulse.phi", "1.0", "--pulse.method", "exact", "--times.n_points", "32"]
    assert cli.main(args + ["--out", str(tmp_path / "new")]) == 0
    monkeypatch.setattr(rotor, "rotational_energies",
                        lambda jmax, kmax, model, method: oracles.lapack_energies(
                            jmax, kmax, model))
    assert cli.main(args + ["--out", str(tmp_path / "lapack")]) == 0
    _, new = read_csv(str(tmp_path / "new.csv"))
    _, ref = read_csv(str(tmp_path / "lapack.csv"))
    assert np.max(np.abs(new - ref)) < 1e-12
    assert np.ptp(new[:, 1]) > 0.1  # the run does evolve


def test_fig2c_manifest_keeps_jump_histogram(tmp_path):
    # the vacuum series is the gamma > 0 ensemble's own jump-free pass; the
    # manifest keeps that ensemble's histogram, which counts every trajectory
    n = 20
    code = cli.main(["fig2c", "--out", str(tmp_path / "c"), "--sweep.phi", "[3.14159265]",
                     "--ensemble.n", str(n), "--state.sigma_j_sq", "100"])
    assert code == 0
    manifest = json.loads((tmp_path / "c_manifest.json").read_text())
    (hist,) = manifest["diagnostics"]["jump_histograms"].values()
    assert sum(hist.values()) == n
    assert any(int(jumps) > 0 and count > 0 for jumps, count in hist.items())
    assert (tmp_path / "c_vacuum.csv").exists()


def test_sweep_sigma_keeps_one_histogram_per_point(tmp_path):
    n = 8
    code = cli.main(["fig2a", "--out", str(tmp_path / "a"), "--sweep.sigma_beta", "[0.1]",
                     "--sweep.sigma_k", "[0.0,1.0]", "--gamma.dimensionless", "0.5",
                     "--ensemble.n", str(n)])
    assert code == 0
    manifest = json.loads((tmp_path / "a_manifest.json").read_text())
    hists = manifest["diagnostics"]["jump_histograms"]
    assert sorted(hists) == ["sb0p1_sk0", "sb0p1_sk1"]
    assert all(sum(h.values()) == n for h in hists.values())


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def run_probe(probe: str, blas_env: dict | None = None) -> str:
    """Standard output of ``probe`` run in a fresh interpreter on this tree;
    with ``blas_env``, the BLAS thread variables are exactly those it sets."""
    env = dict(os.environ)
    if blas_env is not None:
        env = {k: v for k, v in env.items() if k not in BLAS_THREAD_VARS} | blas_env
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, check=True)
    return out.stdout.strip()


@pytest.mark.parametrize("module", [
    "scipy",            # about 0.4 s of every run's start-up
    "scipy.integrate",  # about a quarter second of every run's start-up
    "multiprocessing",  # ensembles run in one process
    "nanorotor.eightstate",  # the packet model, which no run reaches
    "nanorotor.philox",  # the Monte Carlo streams, loaded with the first one
])
def test_cli_import_leaves_out(module):
    assert run_probe(f"import sys, nanorotor.cli; print({module!r} in sys.modules)") == "False"


def test_cli_import_freezes_the_collector_at_exit():
    # atexit runs its handlers last in, first out, so a handler registered
    # before the import sees the heap after the CLI's exit hook has run
    probe = ("import atexit, gc; atexit.register(lambda: print(gc.get_freeze_count() > 0)); "
             "print(gc.get_freeze_count() > 0); import nanorotor.cli")
    assert run_probe(probe).split() == ["False", "True"]


def _counts_blas_threads() -> bool:
    """Whether a process's tasks show numpy's OpenBLAS worker threads."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return False
    return os.path.isdir("/proc/self/task") and "openblas" in blas.lower()


TASKS_AND_BLAS_VARS = f"""
import os, nanorotor.cli
tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else 0
print(tasks, [os.environ.get(k) for k in {BLAS_THREAD_VARS!r}])
"""


def test_cli_import_asks_blas_for_one_thread():
    # a run is single-threaded: OpenBLAS would otherwise start a spinning
    # worker for every further core as numpy loads
    tasks, blas_vars = run_probe(TASKS_AND_BLAS_VARS, blas_env={}).split(" ", 1)
    assert blas_vars == "['1', None, None]"
    if _counts_blas_threads():
        assert tasks == "1"


def test_cli_import_keeps_a_callers_thread_setting():
    tasks, blas_vars = run_probe(TASKS_AND_BLAS_VARS,
                                 blas_env={"OMP_NUM_THREADS": "2"}).split(" ", 1)
    assert blas_vars == "[None, None, '2']"
    if _counts_blas_threads() and min(os.cpu_count(), len(os.sched_getaffinity(0))) >= 2:
        assert tasks == "2"


def test_import_after_numpy_leaves_the_environment_alone():
    # there the setting could no longer reach OpenBLAS
    probe = ("import os; before = dict(os.environ); import numpy, nanorotor; "
             "print(dict(os.environ) == before, 'OPENBLAS_NUM_THREADS' in os.environ)")
    assert run_probe(probe, blas_env={}) == "True False"


RANDOM_MODULES = ("nanorotor.philox", "numpy.random", "secrets", "_hashlib")


def _modules_after_run(argv: list) -> str:
    """The exit code of ``cli.main(argv)`` in a fresh interpreter, and which
    of ``RANDOM_MODULES`` it loaded."""
    probe = ("import sys; from nanorotor import cli; "
             f"code = cli.main({argv!r}); "
             f"print(code, [m for m in {RANDOM_MODULES!r} if m in sys.modules])")
    return run_probe(probe).splitlines()[-1]


def test_gamma_zero_mixture_sweep_imports_no_random(tmp_path):
    # a gamma = 0 sigma_k mixture reads no trajectory, so it makes no Philox
    # stream and loads no module that draws one
    argv = ["fig2a", "--sweep.sigma_beta", "[0.1]", "--sweep.sigma_k", "[1.0]",
            "--out", str(tmp_path / "x")]
    assert _modules_after_run(argv) == "0 []"


def test_jump_run_imports_no_numpy_random(tmp_path):
    # the benchmark's fig2c cut draws its jumps from nanorotor.philox; numpy.random
    # would add about 6 MiB, 3.5 of them OpenSSL's, through secrets and _hashlib
    argv = ["fig2c", "--threads", "1", "--sweep.phi",
            "[0.0,0.78539816,1.57079633,2.35619449,3.14159265]", "--out", str(tmp_path / "x")]
    assert _modules_after_run(argv) == "0 ['nanorotor.philox']"


@pytest.mark.parametrize("argv", [
    ["fig2a", "--sweep.sigma_beta", "[0.01]", "--sweep.sigma_k", "[2.0]"],
    ["fig2b", "--sweep.b_points", "1"],
], ids=lambda argv: argv[0])
def test_grid_runs_import_no_numpy_polynomial(tmp_path, argv):
    # the quadrature grid evaluates its Legendre series itself: runs that
    # build grids of orders 710-2,294 leave numpy.polynomial out
    probe = ("import sys; from nanorotor import cli; "
             f"code = cli.main({[*argv, '--out', str(tmp_path / 'x')]!r}); "
             "print(code, 'numpy.polynomial' in sys.modules)")
    assert run_probe(probe).splitlines()[-1] == "0 False"


@pytest.mark.parametrize("argv", [
    ["params"], ["fig1"],
    # the benchmark's cuts of the slower presets
    ["fig2a", "--sweep.sigma_beta", "[0.01]", "--sweep.sigma_k", "[2.0]"],
    ["fig2b", "--sweep.b_points", "1"],
    ["fig2c", "--threads", "1", "--sweep.phi", "[0.0,0.78539816,1.57079633,2.35619449,3.14159265]"],
    ["fig2d"],
], ids=lambda argv: argv[0])
def test_preset_runs_with_scipy_blocked(tmp_path, argv):
    # the package needs numpy alone: with None in sys.modules every scipy import raises
    probe = ("import sys; sys.modules['scipy'] = None; from nanorotor import cli; "
             f"print(cli.main({[*argv, '--out', str(tmp_path / 'x')]!r}))")
    assert run_probe(probe).splitlines()[-1] == "0"
