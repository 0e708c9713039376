#!/usr/bin/env python3
"""Sweep the initial pitch angle and measure how far the nonlinear plant
drifts from the linear model over one second of open-loop fall.

Prints a table of final x-positions and relative divergence; the knee
around 0.3-0.5 rad is the practical edge of the small-angle regime.

Both legs are `quadmodel sim --dof 6 --mode open --t-final 1 --dt 1e-4`
runs, formed by the same call (cli.sim_blocks): the linear model under
u = 0, the nonlinear plant under held hover thrust.

Usage: python scripts/linearization_sweep.py [--params FILE] [--out FILE.csv]

Like sim, it refuses an --out it could not write (exit 2, such as a
directory or "") with one line on stderr, before it prints anything.
"""

import argparse
import math

from quadmodel.cli import InputError, _staging_file, _write_file, load_params, sim_blocks
from quadmodel.params import ParameterError, hover_thrust_per_rotor
from quadmodel.simulate import SimConfig

ANGLES = [0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5]
DT = 1e-4  # s
T_FINAL = 1.0  # s


def run(p, theta0):
    x0 = [0.0] * 12
    x0[7] = theta0
    cfg = SimConfig(t_final=T_FINAL, dt=DT)
    *_, lin = sim_blocks(p, 6, "linear", None, [0.0] * 4, x0, cfg)[1]
    *_, nl = sim_blocks(p, 6, "nonlinear", None, [hover_thrust_per_rotor(p)] * 4, x0, cfg)[1]
    return lin[-16], nl[-16]  # x in the last block's last row: t, x (12 states), u (4 inputs)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--params", default="params.example.json")
    ap.add_argument("--out", help="optional CSV of the sweep results")
    args = ap.parse_args()
    try:
        p = load_params(args.params)
    except (InputError, ParameterError) as e:
        ap.error(str(e))
    if args.out is not None:  # a path the CSV could not be written to fails before the run
        try:
            _staging_file(args.out, "output").close()
        except InputError as e:
            ap.exit(2, f"{ap.prog}: error: {e}\n")

    rows = []
    print(f"{'theta0 [rad]':>12}  {'x_lin(1s) [m]':>14}  {'x_nl(1s) [m]':>14}  "
          f"{'divergence':>10}  {'sin(a)/a':>9}")
    for theta0 in ANGLES:
        x_lin, x_nl = run(p, theta0)
        div = abs(x_nl - x_lin) / abs(x_lin)
        rows.append((theta0, x_lin, x_nl, div))
        print(f"{theta0:12.2f}  {x_lin:14.6f}  {x_nl:14.6f}  {div:9.3%}  "
              f"{math.sin(theta0) / theta0:9.6f}")

    if args.out is not None:
        lines = ["theta0,x_linear,x_nonlinear,relative_divergence\n"]
        lines += [",".join(f"{v:.17g}" for v in row) + "\n" for row in rows]
        try:
            _write_file(args.out, "output", [line.encode() for line in lines])
        except InputError as e:
            ap.exit(2, f"{ap.prog}: error: {e}\n")
        print(f"\nwrote {args.out}")


if __name__ == "__main__":
    main()
