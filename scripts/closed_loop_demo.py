#!/usr/bin/env python3
"""Stabilize the open-loop-unstable 6DOF model by chain pole placement and
watch the regulation transient from a perturbed start.

Prints the decay of the state norm over time. The open-loop model has its
entire spectrum at the origin, so without feedback the same perturbation
grows quadratically; with all poles placed at the chosen location the norm
decays once the repeated-pole polynomial transients die off.

Usage: python scripts/closed_loop_demo.py [--params FILE] [--pole -2.0]
       [--out traj.csv]

Its run is `quadmodel sim --dof 6 --mode closed`'s, formed by the same
call (cli.sim_blocks), so its --out is that command's CSV for the same
start, poles and horizon.
Like sim, it refuses a --t-final below its 1 ms step or beyond sim's step
guard and poles whose gains or closed loop leave float64 (exit 2, such as
-1e80), and a sampled loop that is unstable at its 1 ms step (exit 4, such
as -3000 or -1e60), and an --out it could not write (exit 2, such as a
directory or ""), with one line on stderr, before it prints or writes
anything.
"""

import argparse
import math

from quadmodel.analysis import analyze_rows
from quadmodel.cli import (InputError, _staging_file, _write_file, csv_chunks, load_params,
                           sim_blocks)
from quadmodel.models import LABELS, model_matrices
from quadmodel.params import ParameterError
from quadmodel.simulate import SimConfig
from quadmodel.stabilize import PoleSpec, UnstableSampledLoop

DT = 0.001  # s, the step of the run and of its sampled-loop check
WIDTH = 17  # a row: t, 12 states, 4 inputs


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--params", default="params.example.json")
    ap.add_argument("--pole", type=float, default=-2.0,
                    help="repeated closed-loop pole for every chain")
    ap.add_argument("--t-final", type=float, default=10.0, dest="t_final")
    ap.add_argument("--out", help="optional trajectory CSV")
    args = ap.parse_args()

    try:
        p = load_params(args.params)
    except (InputError, ParameterError) as e:
        ap.error(str(e))
    x0 = [0.0] * 12
    x0[0] = x0[1] = x0[2] = 0.5   # half a metre off in every axis
    x0[6] = x0[7] = 0.05          # three degrees of tilt
    try:
        cfg = SimConfig(t_final=args.t_final, dt=DT)
        _, blocks = sim_blocks(p, 6, "linear", PoleSpec.uniform_6dof(args.pole), None, x0, cfg)
        if args.out is not None:  # a path the CSV could not be written to fails before the run
            _staging_file(args.out, "output").close()
    except (ValueError, InputError) as e:  # SimConfig, a PolePlacementError, or --out
        ap.exit(2, f"{ap.prog}: error: {e}\n")
    except UnstableSampledLoop:
        # the demo's step is fixed, so sim's advice to pass a smaller --dt does not apply
        ap.exit(4, f"{ap.prog}: simulation refused: the sampled closed loop Phi - Gamma K is "
                   f"unstable at the demo's fixed {DT * 1e3:g} ms step; use a slower --pole\n")

    a, b, c, _ = model_matrices(p, 6)
    report = analyze_rows(a, b, c)
    print(f"open loop: stability={report.stability_class}, "
          f"controllability rank {report.controllability_rank}/12")

    blocks = list(blocks)
    rows = [(block[k], math.hypot(*block[k + 1:k + 13]))
            for block in blocks for k in range(0, len(block), WIDTH)]

    n0 = math.hypot(*x0)
    print(f"\nclosed loop, all poles at {args.pole}:")
    print(f"{'t [s]':>6}  {'|x|/|x0|':>10}")
    for t in range(math.ceil(args.t_final + 1e-9)):
        print(f"{t:6.1f}  {rows[round(t / DT)][1] / n0:10.3e}")

    below = next((t for t, norm in rows if norm / n0 < 1e-3), None)
    if below is not None:
        print(f"\nnorm first drops below 1e-3 of initial at t = {below:.3f} s")
    else:
        print("\nnorm never drops below 1e-3 of initial on this horizon")

    if args.out is not None:
        try:
            _write_file(args.out, "output", csv_chunks(LABELS[6][0] + LABELS[6][1], blocks))
        except InputError as e:
            ap.exit(2, f"{ap.prog}: error: {e}\n")
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
