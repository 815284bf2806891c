#!/usr/bin/env python3
"""Run all packaged figure presets into out/figures/.

Usage: python scripts/run_figures.py [--quick] [--out-dir DIR]

--quick shrinks the Monte Carlo ensembles so the whole set finishes in about a
minute; drop it for publication-quality statistics.
"""

import argparse
import sys

from nanorotor.cli import main as simulate

PRESETS = ["params", "fig1", "fig2a", "fig2b", "fig2c", "fig2d"]


def run(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out-dir", default="out/figures")
    args = parser.parse_args(argv)
    for preset in PRESETS:
        cli_args = [preset, "--out", f"{args.out_dir}/{preset}"]
        if args.quick and preset == "fig2c":
            cli_args += ["--ensemble.n", "40"]
        print(f"== simulate {' '.join(cli_args)}")
        code = simulate(cli_args)
        if code != 0:
            print(f"preset {preset} failed with exit code {code}", file=sys.stderr)
            return code
    return 0


if __name__ == "__main__":
    sys.exit(run())
