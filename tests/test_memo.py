"""The process-wide memo of ``nanorotor.angular``: what it charges, what it
evicts, that no output depends on it, and that it stays the package's one
process-lifetime cache."""

import ast
import glob
import json
import os
from dataclasses import dataclass

import numpy as np
import pytest

from nanorotor import angular, cli

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src",
                   "nanorotor")

# the caches that keep another scope: one ensemble's phase vectors and one
# result's trajectories
ALLOWED = {"decoherence._phase_memo", "decoherence.EnsembleResult.trajectories"}
CACHES = {"lru_cache", "cache", "cached_property"}  # as functools.<name>; bare, all but cache


def _cache_sites(tree: ast.Module, module: str) -> set:
    """module.qualname of each def or class that names a functools cache, in
    its decorators or in its body."""
    sites = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{node.name}"
            for deco in getattr(node, "decorator_list", ()):
                for sub in ast.walk(deco):
                    if _names_a_cache(sub):
                        sites.add(inner)
            for child in node.body:
                visit(child, inner)
            return
        if _names_a_cache(node):
            sites.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for node in tree.body:
        visit(node, module)
    return sites


def _names_a_cache(node) -> bool:
    return ((isinstance(node, ast.Name) and node.id in CACHES - {"cache"})
            or (isinstance(node, ast.Attribute) and node.attr in CACHES
                and isinstance(node.value, ast.Name) and node.value.id == "functools"))


def test_the_package_keeps_one_process_lifetime_memo():
    sites = set()
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        sites |= _cache_sites(tree, os.path.basename(path)[:-3])
    assert sites <= ALLOWED, sorted(sites - ALLOWED)
    assert "decoherence.EnsembleResult.trajectories" in sites  # the walk finds decorators


def _memoised_functions(tree: ast.Module):
    """Each def of ``tree`` whose decorators call a ``memo``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for deco in node.decorator_list:
                func = deco.func if isinstance(deco, ast.Call) else None
                if (isinstance(func, ast.Name) and func.id == "memo") or (
                        isinstance(func, ast.Attribute) and func.attr == "memo"):
                    yield node


def test_no_memoised_function_freezes_its_own_arrays():
    # the memo makes every array it stores read-only, so that rule is stated once
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for fn in _memoised_functions(tree):
            found.append(fn.name)
            for node in ast.walk(fn):
                assert not (isinstance(node, ast.Attribute) and node.attr == "writeable"
                            and isinstance(node.ctx, ast.Store)), (path, fn.name)
    assert {"for_jmax", "cos2_band", "_cos2_form", "_draws"} <= set(found)


@dataclass
class _Holder:
    values: dict


def test_the_memo_hands_back_read_only_arrays():
    # arrays in a tuple, a dict and a dataclass field, a view among them
    @angular.memo("_sealing_probe")
    def probe(n):
        return (np.arange(n, dtype=float)[1:], {"a": np.ones(n)}, _Holder({"b": np.zeros(n)}))

    try:
        view, named, holder = probe(3)
        for arr in (view, named["a"], holder.values["b"]):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 1.0
        assert probe(3)[0] is view
    finally:
        angular.memo_clear()
        del angular.MEMO_STATS["_sealing_probe"]


def test_an_entry_is_charged_the_arrays_it_owns():
    angular.memo_clear()
    band = angular.cos2_band(3, 40, 1, 2)
    # the band is charged its diagonals; d and -d share one array
    owned = sum(band.diagonals[d].nbytes for d in (0, 1, 2))
    assert angular.MEMO_STATS["cos2_band"].bytes > owned
    assert angular.MEMO_STATS["cos2_band"].bytes < owned + 2048
    # the quadratic form is charged its doubled arrays, on its first read
    assert angular.MEMO_STATS["_cos2_form"].bytes == 0
    angular.cos2_expectation(np.ones(band.size, dtype=complex), 3, 40, 1, 2)
    doubled = sum(2 * band.diagonals[d].nbytes for d in (0, 1, 2))
    assert angular.MEMO_STATS["_cos2_form"].bytes > doubled
    assert angular.MEMO_STATS["_cos2_form"].bytes < doubled + 2048
    assert angular.MEMO_STATS["cos2_band"].misses == 1  # the form read the stored band
    # a block is a view of its build, so it is charged its key and its object only
    built = angular.MEMO_STATS["_cosine_elements"].bytes
    assert built > 3 * 8 * 256
    assert 0 < angular.MEMO_STATS["_cosine_block"].bytes < 1024
    assert angular.MEMO_STATS["_cosine_block"].bytes < built


def test_keys_compare_as_lru_cache_keys_and_the_oldest_goes_first(monkeypatch):
    angular.memo_clear()
    grid = angular.AngularGrid.for_jmax(40)
    assert angular.AngularGrid.for_jmax(40.0) is grid  # 40 == 40.0, as lru_cache(typed=False)
    assert angular.AngularGrid.for_jmax(40, np.pi) is not grid  # another key
    stats = angular.MEMO_STATS["for_jmax"]
    assert (stats.hits, stats.misses, stats.evictions) == (1, 2, 0)
    # room for two grids of jmax 40 or 41, not three: a third evicts the least recently used
    monkeypatch.setattr(angular, "MEMO_BUDGET", stats.bytes * 5 // 4)
    angular.AngularGrid.for_jmax(40)
    angular.AngularGrid.for_jmax(41)
    assert stats.evictions == 1
    assert angular.AngularGrid.for_jmax(40) is grid
    assert stats.misses == 3


_TINY = ["--rotor.inertia_ratio", "41.8", "--state.sigma_j_sq", "60"]
BIT_CASES = {
    "evolve": ["evolve", *_TINY, "--times.n_points", "16", "--pulse.phi", "1.0"],
    "decohere": ["decohere", *_TINY, "--times.n_points", "16", "--pulse.phi", "1.0",
                 "--gamma.dimensionless", "2.0", "--ensemble.n", "6"],
    "sweep_sigma": ["sweep_sigma", "--rotor.inertia_ratio", "41.8", "--state.mode",
                    "gaussian_beta", "--state.sigma_beta", "0.1", "--pulse.phi", "1.0",
                    "--pulse.method", "exact", "--sweep.sigma_beta", "[0.1]",
                    "--sweep.sigma_k", "[1.0]"],
}


def _bodies(argv, out) -> tuple[dict, dict]:
    """Each CSV of one in-process run from its second line on, and the manifest."""
    assert cli.main([*argv, "--out", str(out)]) == 0
    bodies = {}
    for path in sorted(glob.glob(f"{out}*.csv")):
        with open(path) as fh:
            bodies[path[len(str(out)):]] = fh.read().split("\n", 1)[1]
    with open(f"{out}_manifest.json") as fh:
        return bodies, json.load(fh)


@pytest.mark.parametrize("name", sorted(BIT_CASES))
def test_caching_never_changes_a_bit(name, tmp_path, monkeypatch):
    angular.memo_clear()
    kept, manifest = _bodies(BIT_CASES[name], tmp_path / "kept")
    assert kept and not any(s.evictions for s in angular.MEMO_STATS.values())
    if name == "decohere":
        assert any(int(jumps) for hist in manifest["diagnostics"]["jump_histograms"].values()
                   for jumps in hist)
    angular.memo_clear()
    monkeypatch.setattr(angular, "MEMO_BUDGET", 0)  # every entry is evicted as it is stored
    evicted, _ = _bodies(BIT_CASES[name], tmp_path / "evicted")
    assert evicted == kept
    stats = angular.MEMO_STATS.values()
    assert sum(s.evictions for s in stats) > 0
    assert all(s.evictions == s.misses and s.bytes == 0 for s in stats)
