#!/usr/bin/env python3
"""Sweep the initial pitch angle and measure how far the nonlinear plant
drifts from the linear model over one second of open-loop fall.

Prints a table of final x-positions and relative divergence; the knee
around 0.3-0.5 rad is the practical edge of the small-angle regime.

Usage: python scripts/linearization_sweep.py [--params FILE] [--out FILE.csv]
"""

import argparse
import math

import numpy as np

from quadmodel import (
    ParameterError,
    RotorForces,
    SimConfig,
    build_6dof,
    hover_thrust_per_rotor,
    simulate_feedback,
    simulate_nonlinear,
)
from quadmodel.cli import InputError, load_params

ANGLES = [0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5]


def run(p, theta0, dt=1e-4, t_final=1.0):
    model = build_6dof(p)
    x0 = np.zeros(12)
    x0[7] = theta0
    lin = simulate_feedback(model, x0, np.zeros((4, 12)), np.zeros(4),
                            SimConfig(t_final=t_final, dt=dt))
    h = hover_thrust_per_rotor(p)
    hover = RotorForces(h, h, h, h)
    cfg = SimConfig(t_final=t_final, dt=dt, integrator="rk4", plant="nonlinear_6dof")
    nl = simulate_nonlinear(p, x0, lambda t, x: hover, cfg)
    return lin.states[-1, 0], nl.states[-1, 0]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--params", default="params.example.json")
    ap.add_argument("--out", help="optional CSV of the sweep results")
    args = ap.parse_args()
    try:
        p = load_params(args.params)
    except (InputError, ParameterError) as e:
        ap.error(str(e))

    rows = []
    print(f"{'theta0 [rad]':>12}  {'x_lin(1s) [m]':>14}  {'x_nl(1s) [m]':>14}  "
          f"{'divergence':>10}  {'sin(a)/a':>9}")
    for theta0 in ANGLES:
        x_lin, x_nl = run(p, theta0)
        div = abs(x_nl - x_lin) / abs(x_lin)
        rows.append((theta0, x_lin, x_nl, div))
        print(f"{theta0:12.2f}  {x_lin:14.6f}  {x_nl:14.6f}  {div:9.3%}  "
              f"{math.sin(theta0) / theta0:9.6f}")

    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("theta0,x_linear,x_nonlinear,relative_divergence\n")
            for row in rows:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
        print(f"\nwrote {args.out}")


if __name__ == "__main__":
    main()
