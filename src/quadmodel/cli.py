"""Command-line surface: build/serialize models, analyze them, run
simulations to CSV, and convert between rotor forces and generalized
inputs.

Exit codes are fixed for scriptability:
    0  success
    2  input problem (missing/garbled file, bad flag combination, bad spec,
       poles whose gains leave float64, mix/demix values that overflow)
    3  physical parameter validation failure
    4  runtime failure: a simulation left the finite floats, a closed-loop
       run on either plant whose sampled loop Phi - Gamma K is unstable at
       its dt (refused before it runs), or a designed closed loop that
       failed its own stability check

Error paths print a one-line diagnostic on stderr and nothing on stdout.

`sim` opens its CSV only after the run succeeded, so no exit 4 leaves
one, and writes it as UTF-8 bytes, CSV_BLOCK_ROWS rows per %-format: the
blocks a run on either plant is held in from its first step, which lowers
peak RSS.

Every command runs on the package's float core: `model` prints the nested
lists of models.model_matrices, `analyze` reads them through
analysis.analyze_rows, and `sim` runs both plants on Python floats. None
imports numpy or the numpy face, quadmodel.arrays, where this module's
write_trajectory_csv lives and resolves here lazily.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import _twin
from .linalg import nonzeros
from .models import CHAINS, LABELS, ROTOR_FORCE_LABELS, model_matrices, model_rows
from .params import ParameterError, QuadParams, hover_thrust_per_rotor, validate
from .rotor_forces import GeneralizedInput, RotorForces, demix, demix_values, mix
from .simulate import (
    CSV_BLOCK_ROWS,
    NonFiniteDerivative,
    NonFiniteState,
    SimConfig,
    feedback_rows,
    nonlinear_rows,
)
from .stabilize import (
    InternalStabilityCheckFailed,
    PolePlacementError,
    PoleSpec,
    UnstableSampledLoop,
    check_sampled_rows,
    design_rows,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VALIDATION = 3
EXIT_RUNTIME = 4

OPTIONAL_PARAM_KEYS = tuple(QuadParams._field_defaults)
PARAM_KEYS = tuple(k for k in QuadParams._fields if k not in OPTIONAL_PARAM_KEYS)

DEFAULT_POLE = -2.0
DEFAULT_POLES_OUT_OF_RANGE = ("these parameters put the default poles' gains beyond float64: a "
                              "gain overflows or underflows, or a closed-loop entry overflows")


class InputError(Exception):
    """Anything wrong with what the user handed us (exit code 2)."""


def load_params(path: str) -> QuadParams:
    """Read and validate a JSON parameter file.

    Required numeric keys: m, d, c, Ix, Iy, Iz; optional: g (defaults to
    9.81). Unknown keys are rejected so typos cannot silently become
    defaults. Units are SI (kg, m, kg*m^2, m/s^2); see the README.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as e:
        raise InputError(f"cannot read parameter file {path!r}: {e}") from e
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as e:
        raise InputError(f"parameter file {path!r} is not valid JSON: {e}") from e
    except (ValueError, RecursionError) as e:  # an integer of over 4300 digits, deep nesting
        raise InputError(f"parameter file {path!r} cannot be parsed: {e}") from e
    if not isinstance(doc, dict):
        raise InputError(f"parameter file {path!r} must hold a JSON object")
    unknown = sorted(set(doc) - set(QuadParams._fields))
    if unknown:
        raise InputError(f"parameter file {path!r} has unknown keys: {', '.join(unknown)}")
    missing = [k for k in PARAM_KEYS if k not in doc]
    if missing:
        raise InputError(f"parameter file {path!r} is missing keys: {', '.join(missing)}")
    values = {}
    for key, value in doc.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise InputError(f"parameter {key!r} must be a number, got {value!r}")
        try:
            values[key] = float(value)
        except OverflowError:  # an integer beyond float64 reads as 1e400 does
            values[key] = math.inf if value > 0 else -math.inf
    return validate(QuadParams(**values))


def model_to_dict(matrices, labels) -> dict:
    """The JSON document of `model`: the sizes, the nested lists A, B, C and
    D, and the state, input and output labels."""
    a, b, c, _ = matrices
    doc = {"n": len(a), "p": len(b[0]), "q": len(c)}
    doc.update(zip("ABCD", matrices))
    doc.update(zip(("state_labels", "input_labels", "output_labels"), map(list, labels)))
    return doc


def _matrix_lines(name, mat, row_labels, col_labels):
    cells = [[f"{v:g}" for v in row] for row in mat]
    widths = [
        max(len(col_labels[j]), max((len(r[j]) for r in cells), default=1))
        for j in range(len(col_labels))
    ]
    label_w = max((len(s) for s in row_labels), default=0)
    lines = [f"{name} ({len(row_labels)}x{len(col_labels)}):"]
    lines.append(
        " " * (label_w + 2) + "  ".join(col_labels[j].rjust(widths[j]) for j in range(len(col_labels)))
    )
    for i, row in enumerate(cells):
        lines.append(
            row_labels[i].ljust(label_w + 2) + "  ".join(row[j].rjust(widths[j]) for j in range(len(row)))
        )
    lines.append("")
    return lines


def format_model_pretty(matrices, labels, title: str) -> str:
    """The text of `model --format pretty` for the nested lists A, B, C and
    D and the state, input and output labels."""
    states, inputs, outputs = labels
    lines = [f"{title} state-space model: n={len(states)} states, p={len(inputs)} inputs, "
             f"q={len(outputs)} outputs", ""]
    for name, mat, rows, cols in zip("ABCD", matrices, (states, states, outputs, outputs),
                                     (states, inputs, states, inputs)):
        lines += _matrix_lines(name, mat, rows, cols)
    return "\n".join(lines).rstrip("\n")


def parse_assignments(specs, labels, what: str, defaults=None) -> list[float]:
    """Turn repeated ``label=value`` flags into a list over ``labels``.

    Unassigned entries keep ``defaults`` (zeros when not given). Values
    must be finite.
    """
    values = [0.0] * len(labels) if defaults is None else [float(v) for v in defaults]
    for spec in specs or []:
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            name, sep, raw = part.partition("=")
            name = name.strip()
            if not sep:
                raise InputError(f"bad {what} assignment {part!r}; expected label=value")
            if name not in labels:
                raise InputError(
                    f"unknown {what} label {name!r}; choose from {', '.join(labels)}"
                )
            try:
                value = float(raw)
            except ValueError:
                raise InputError(f"bad numeric value in {what} assignment {part!r}") from None
            if not math.isfinite(value):
                raise InputError(f"{what} value for {name!r} must be finite")
            values[labels.index(name)] = value
    return values


def parse_pole_spec(pole_args, dof: int) -> PoleSpec:
    """Build a PoleSpec from --poles flags.

    Accepted forms: a bare value (``--poles=-2.5``) placing every chain at
    that repeated pole, or chain assignments (``--poles z=-1,-2``,
    ``--poles roll=-2,-2,-3,-3``), repeatable. Defaults to all poles at -2.
    """
    chain_sizes = {ch.name: len(ch.states) for ch in CHAINS[dof]}
    named: dict[str, tuple] = {}
    bare = None
    for spec in pole_args or []:
        if "=" in spec:
            name, _, raw = spec.partition("=")
            name = name.strip()
            if name not in chain_sizes:
                raise InputError(
                    f"unknown pole chain {name!r}; choose from {', '.join(chain_sizes)}"
                )
            try:
                named[name] = tuple(float(s) for s in raw.split(","))
            except ValueError:
                raise InputError(f"bad pole list in {spec!r}") from None
        else:
            try:
                bare = float(spec)
            except ValueError:
                raise InputError(f"bad pole value {spec!r}") from None
    if bare is not None and named:
        raise InputError("give either one bare pole value or chain=pole,... specs, not both")
    default = DEFAULT_POLE if bare is None else bare
    try:
        return PoleSpec(
            **{name: named.get(name, (default,) * size) for name, size in chain_sizes.items()}
        )
    except PolePlacementError as e:
        raise InputError(str(e)) from e


def csv_chunks(labels, blocks):
    """The CSV as UTF-8 bytes: the header, then one chunk per block, each
    block a flat sequence of whole rows (t first) in full double precision
    by one bytes %-format (PEP 461: the bytes of the str "%.17g" encoded).
    A block of CSV_BLOCK_ROWS rows is about 22 KB of text at 17 columns,
    small enough that each chunk reuses memory the last one freed."""
    width = 1 + len(labels)
    yield ("t," + ",".join(labels) + "\n").encode()
    row = b",".join([b"%.17g"] * width) + b"\n"
    for block in blocks:
        yield (row * (len(block) // width)) % tuple(block)


def cmd_model(args) -> int:
    matrices = model_matrices(load_params(args.params), args.dof)
    if args.format == "json":
        print(json.dumps(model_to_dict(matrices, LABELS[args.dof]), indent=2))
    else:
        print(format_model_pretty(matrices, LABELS[args.dof], f"{args.dof}DOF"))
    return EXIT_OK


def cmd_analyze(args) -> int:
    from .analysis import analyze_rows

    a, b, c, _ = model_matrices(load_params(args.params), args.dof)
    print(json.dumps(vars(analyze_rows(a, b, c)), indent=2))
    return EXIT_OK


def _write_gains(K, state_labels, input_labels, path: str) -> None:
    doc = {"input_labels": list(input_labels), "state_labels": list(state_labels), "K": K}
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(doc, indent=2) + "\n")
    except OSError as e:
        raise InputError(f"cannot write gains file {path!r}: {e}") from e


def cmd_sim(args) -> int:
    p = load_params(args.params)
    nonlinear = args.plant == "nonlinear"
    if nonlinear and args.dof != 6:
        raise InputError("the nonlinear plant is only available with --dof 6")
    if args.mode == "open" and args.poles:
        raise InputError("--poles only applies to --mode closed")
    if args.mode == "open" and args.gains_out:
        raise InputError("--gains-out only applies to --mode closed")
    if args.mode == "closed" and args.input:
        raise InputError("--input only applies to --mode open (closed mode drives u = r - K x)")

    state_labels, model_inputs, _ = LABELS[args.dof]
    input_labels = ROTOR_FORCE_LABELS if nonlinear else model_inputs
    x0 = parse_assignments(args.x0, state_labels, "state")

    try:
        cfg = SimConfig(t_final=args.t_final, dt=args.dt)
    except ValueError as e:
        raise InputError(str(e)) from e

    hover = hover_thrust_per_rotor(p)
    a, b = model_rows(p, args.dof)
    K = [[0.0] * len(state_labels) for _ in model_inputs]  # open loop: no feedback
    if args.mode == "closed":
        try:
            K = design_rows(p, parse_pole_spec(args.poles, args.dof), args.dof)
            check_sampled_rows(a, b, K, cfg.dt)
        except PolePlacementError as e:  # the default poles are valid: the parameters are at fault
            raise InputError(str(e) if args.poles else DEFAULT_POLES_OUT_OF_RANGE) from e
        if args.gains_out:
            _write_gains(K, state_labels, model_inputs, args.gains_out)

    if nonlinear and args.mode == "open":
        held = tuple(parse_assignments(args.input, input_labels, "input", defaults=[hover] * 4))
        blocks = nonlinear_rows(p, lambda t, x: held, x0, cfg)
    elif nonlinear:  # u = -K x over K's nonzeros, demixed: an overflow fails the step
        gains = nonzeros(K, -1.0)

        def forces(t, x):
            return demix_values(*[sum([v * x[j] for j, v in row], 0.0) for row in gains], p)

        blocks = nonlinear_rows(p, forces, x0, cfg)
    else:
        # open loop holds r; closed loop r = hover equilibrium input: zero in
        # the 6DOF deviation coordinates, equal per-rotor hover thrust for the
        # 3DOF model (which adds no torque, so regulation is unaffected).
        r = ([0.0 if args.dof == 6 else hover] * 4 if args.mode == "closed"
             else parse_assignments(args.input, input_labels, "input"))
        blocks = feedback_rows(a, b, K, r, x0, cfg)

    try:
        with open(args.out, "wb") as fh:
            fh.writelines(csv_chunks(state_labels + input_labels, blocks))
    except OSError as e:
        raise InputError(f"cannot write output file {args.out!r}: {e}") from e
    return EXIT_OK


def cmd_convert(args) -> int:
    """mix or demix: finite values whose result leaves float64 are an input error."""
    given, convert, result = ((RotorForces, mix, "the generalized input") if args.command == "mix"
                              else (GeneralizedInput, demix, "a rotor force"))
    p = load_params(args.params)
    try:
        value = given(*args.values)
    except ValueError as e:
        raise InputError(str(e)) from e
    try:
        out = convert(value, p)
    except ValueError:
        raise InputError(f"the values are too extreme for float64: {result} overflows") from None
    print(" ".join(f"{v:.12g}" for v in out.as_tuple()))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadmodel",
        description="Quadcopter state-space models: build, analyze, simulate, stabilize.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--dof", type=int, choices=(3, 6), required=True,
                        help="which model: 3 (attitude) or 6 (full)")
        sp.add_argument("--params", required=True, metavar="FILE",
                        help="JSON parameter file (see params.example.json)")

    sp = sub.add_parser("model", help="build a model and print it")
    add_common(sp)
    sp.add_argument("--format", choices=("json", "pretty"), default="json")
    sp.set_defaults(func=cmd_model)

    sp = sub.add_parser("analyze", help="controllability/observability/stability report")
    add_common(sp)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("sim", help="simulate a trajectory and write CSV")
    add_common(sp)
    sp.add_argument("--mode", choices=("open", "closed"), default="open")
    sp.add_argument("--plant", choices=("linear", "nonlinear"), default="linear")
    sp.add_argument("--x0", action="append", metavar="LABEL=VALUE",
                    help="initial state entries (repeatable; unset entries are 0)")
    sp.add_argument("--input", action="append", metavar="LABEL=VALUE",
                    help="held input entries for open loop (default 0 for the "
                         "linear models, hover thrust for the nonlinear plant)")
    sp.add_argument("--poles", action="append", metavar="SPEC",
                    help="closed-loop poles: a bare value (--poles=-2.5) or "
                         "chain=p1,p2,... specs (z/roll/pitch/yaw); default all -2")
    sp.add_argument("--t-final", type=float, required=True, dest="t_final",
                    help="simulation horizon, seconds")
    sp.add_argument("--dt", type=float, default=0.001, help="step size, seconds")
    sp.add_argument("--out", required=True, metavar="FILE", help="CSV output path")
    sp.add_argument("--gains-out", metavar="FILE", dest="gains_out",
                    help="also write the feedback gain matrix as JSON (closed mode)")
    sp.set_defaults(func=cmd_sim)

    sp = sub.add_parser("mix", help="rotor forces -> generalized input (U1..U4)")
    sp.add_argument("--params", required=True, metavar="FILE")
    sp.add_argument("values", type=float, nargs=4, metavar="F")
    sp.set_defaults(func=cmd_convert)

    sp = sub.add_parser("demix", help="generalized input -> rotor forces (F1..F4)")
    sp.add_argument("--params", required=True, metavar="FILE")
    sp.add_argument("values", type=float, nargs=4, metavar="U")
    sp.set_defaults(func=cmd_convert)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except InputError as e:
        print(f"quadmodel: error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except ParameterError as e:
        print(f"quadmodel: invalid parameters: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NonFiniteState, NonFiniteDerivative) as e:
        print(f"quadmodel: simulation failed: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    except InternalStabilityCheckFailed as e:
        print(f"quadmodel: gain design failed: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    except UnstableSampledLoop as e:
        print(f"quadmodel: simulation refused: {e}", file=sys.stderr)
        return EXIT_RUNTIME


def entry() -> None:
    sys.exit(main())


def __getattr__(name):  # the numpy twin, in quadmodel.arrays
    return _twin(__name__, name, "write_trajectory_csv")
