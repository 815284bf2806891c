#!/usr/bin/env python3
"""Scan the revival peak against the shape-asymmetry parameter.

Finer-grained than the fig2b preset: reports the peak alignment, the nominal
revival-time alignment, and the peak-time shift for each b on a log grid,
with the spectrum's smallest dominant weight and the number of j values
whose asymmetric levels needed more than the first cut (the strongly mixed
regime shows in both).  The peak window follows b as the fig2b preset's does
(``observables.revival_window``), sampled every 4e-5 T_rev, and each b's
series is one jump-free pass of ``decoherence.run_ensemble``, as in the CLI.

Usage: python scripts/asymmetry_scan.py [--sigma-beta 0.003] [--points 12]
"""

import argparse

# nanorotor before numpy, so that numpy's OpenBLAS starts with one thread (nanorotor/__init__.py)
from nanorotor import decoherence, observables, rotor
from nanorotor.errors import DomainError

import numpy as np


def run(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--sigma-beta", type=float, default=0.003)
    parser.add_argument("--points", type=int, default=12)
    parser.add_argument("--b-min", type=float, default=1e-6)
    parser.add_argument("--b-max", type=float, default=1e-4)
    args = parser.parse_args(argv)
    if args.points < 1:
        parser.error(f"--points: must be at least 1, got {args.points}")
    for flag, b in (("--b-min", args.b_min), ("--b-max", args.b_max)):
        if b <= 0:
            parser.error(f"{flag}: must be positive (b is log-spaced), got {b}")
        try:
            observables.revival_window(b)
        except DomainError as exc:
            parser.error(f"{flag}: {exc}")

    state = rotor.prepare_aligned_state("gaussian_beta", args.sigma_beta)
    base = rotor.inertia_from_ellipsoid(rotor.SILICON_NANOROD_SEMI_AXES,
                                        rotor.SILICON_DENSITY)
    print(f"# sigma_beta={args.sigma_beta}  jmax={state.jmax}")
    print("b_asym,peak_alignment,t_peak_shift,alignment_at_Trev,"
          "min_dominant_weight,widened_j")
    for b in np.logspace(np.log10(args.b_min), np.log10(args.b_max), args.points):
        model = rotor.inertia_from_parameters(base.ratio, float(b), t_rev=base.t_rev)
        sp = rotor.rotational_energies(state.jmax, 0, model, "asymmetric")
        center, halfwidth = observables.revival_window(float(b))
        ts = np.linspace(center - halfwidth, center + halfwidth,
                         int(2.0 * halfwidth / 4e-5) + 1)
        tc = decoherence.TrajectoryConfig(gamma=0.0, observation_times=tuple(ts))
        vals = decoherence.run_ensemble(rotor.Mixture.pure(state), sp, tc, 1).mean_alignment
        series = observables.TimeSeries(ts, vals)
        t_peak, a_peak = observables.find_revival_peak(series, center, halfwidth)
        a_nominal = float(vals[np.argmin(np.abs(ts - 1.0))])
        print(f"{b:.6e},{a_peak:.6f},{t_peak - 1.0:.6e},{a_nominal:.6f},"
              f"{sp.dominant_weight.min():.6f},{sp.widened_j}")
    return 0


if __name__ == "__main__":
    raise SystemExit(run())
