#!/usr/bin/env python3
"""Stabilize the open-loop-unstable 6DOF model by chain pole placement and
watch the regulation transient from a perturbed start.

Prints the decay of the state norm over time. The open-loop model has its
entire spectrum at the origin, so without feedback the same perturbation
grows quadratically; with all poles placed at the chosen location the norm
decays once the repeated-pole polynomial transients die off.

Usage: python scripts/closed_loop_demo.py [--params FILE] [--pole -2.0]
       [--out traj.csv]

Like `quadmodel sim`, it refuses poles whose gains or closed loop leave
float64 (exit 2, such as -1e80) and a sampled loop that is unstable at its
1 ms step (exit 4, such as -3000 or -1e60) with one line on stderr, before
it prints or writes anything.
"""

import argparse

import numpy as np

from quadmodel import (
    ParameterError,
    PolePlacementError,
    PoleSpec,
    SimConfig,
    UnstableSampledLoop,
    analyze,
    build_6dof,
    check_sampled_loop,
    design_6dof_gains,
    simulate_feedback,
)
from quadmodel.cli import InputError, load_params, write_trajectory_csv

DT = 0.001  # s, the step of the run and of its sampled-loop check


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
    model = build_6dof(p)
    try:
        gains = design_6dof_gains(p, PoleSpec.uniform_6dof(args.pole))
        check_sampled_loop(model, gains.K, DT)
    except PolePlacementError as e:
        ap.exit(2, f"{ap.prog}: error: {e}\n")
    except UnstableSampledLoop:
        # the demo's step is fixed, so sim's advice to pass a smaller --dt does not apply
        ap.exit(4, f"{ap.prog}: simulation refused: the sampled closed loop Phi - Gamma K is "
                   f"unstable at the demo's fixed {DT * 1e3:g} ms step; use a slower --pole\n")

    report = analyze(model)
    print(f"open loop: stability={report.stability_class}, "
          f"controllability rank {report.controllability_rank}/12")

    x0 = np.zeros(12)
    x0[0] = x0[1] = x0[2] = 0.5   # half a metre off in every axis
    x0[6] = x0[7] = 0.05          # three degrees of tilt
    traj = simulate_feedback(model, x0, gains.K, np.zeros(4),
                             SimConfig(t_final=args.t_final, dt=DT))

    n0 = np.linalg.norm(x0)
    print(f"\nclosed loop, all poles at {args.pole}:")
    print(f"{'t [s]':>6}  {'|x|/|x0|':>10}")
    norms = np.linalg.norm(traj.states, axis=1) / n0
    for t in np.arange(0.0, args.t_final + 1e-9, 1.0):
        i = int(round(t / DT))
        print(f"{t:6.1f}  {norms[i]:10.3e}")

    below = np.nonzero(norms < 1e-3)[0]
    if below.size:
        print(f"\nnorm first drops below 1e-3 of initial at t = {traj.times[below[0]]:.3f} s")
    else:
        print("\nnorm never drops below 1e-3 of initial on this horizon")

    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            write_trajectory_csv(traj, fh)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
