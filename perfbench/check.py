"""Output check of one benchmark process against the stored reference.

The references in ``perfbench/reference`` were written by the seed commit at
each preset's own seed, which the benchmark also runs.  A value may differ
from its reference by at most 1e-9 absolute, which admits last-bit changes
(another quadrature routine, a reordered sum) and nothing a reader of the CSV
would see.
"""

from __future__ import annotations

import json
from pathlib import Path

ABS_TOL = 1e-9


def read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    lines = path.read_text().splitlines()
    if not lines or not lines[0].startswith("# manifest:"):
        raise ValueError(f"{path.name}: missing manifest line")
    return lines[1].split(","), [[float(x) for x in row.split(",")] for row in lines[2:]]


def csv_body(path: Path) -> str:
    """The CSV without its first line, which names the manifest file."""
    return path.read_text().split("\n", 1)[1]


def _compare(name, header, rows, ref_rows) -> list[str]:
    if len(rows) != len(ref_rows) or any(len(r) != len(f) for r, f in zip(rows, ref_rows)):
        return [f"{name}: shape differs from the reference"]
    problems = []
    for r, (row, ref) in enumerate(zip(rows, ref_rows)):
        for c, (x, y) in enumerate(zip(row, ref)):
            if not abs(x - y) <= ABS_TOL:
                problems.append(f"{name} row {r} {header[c]}: {x!r} vs reference {y!r}")
    return problems


def check_outputs(out_dir: Path, reference: Path) -> list[str]:
    """Problems found in the outputs written under ``out_dir/out``."""
    problems = []
    refs = sorted(reference.glob("*.csv"))
    manifest = out_dir / "out_manifest.json"
    try:
        listed = json.loads(manifest.read_text()).get("outputs", [])
    except (OSError, ValueError) as exc:
        return [f"manifest: {exc}"]
    if sorted(listed) != [p.name for p in refs]:
        problems.append(f"manifest lists {sorted(listed)}, expected {[p.name for p in refs]}")
    for ref in refs:
        path = out_dir / ref.name
        try:
            header, rows = read_csv(path)
            ref_header, ref_rows = read_csv(ref)
        except (OSError, ValueError, IndexError) as exc:
            problems.append(f"{ref.name}: {exc}")
            continue
        if header != ref_header:
            problems.append(f"{ref.name}: header {header} vs reference {ref_header}")
            continue
        problems += _compare(ref.name, header, rows, ref_rows)
    return problems


def check_identical(out_dir: Path, other_dir: Path, names: list[str]) -> list[str]:
    """CSV bodies under ``out_dir`` must equal those under ``other_dir`` byte for byte."""
    problems = []
    for name in names:
        try:
            if csv_body(out_dir / name) != csv_body(other_dir / name):
                problems.append(f"{name}: differs from the 1-worker run")
        except (OSError, IndexError) as exc:
            problems.append(f"{name}: {exc}")
    return problems
