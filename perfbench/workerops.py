"""Operations of each workload, run in the worker process (see worker.py).

Each operation is a function ``op(tr, ctx, *args) -> (record, state)``:
``record`` is pickled for the oracles in the parent, ``state`` stays here
and feeds the replays of the traced run. ``tr`` is a Tracer in the traced
phase and a NullTracer otherwise, so the untraced phase calls quadmodel
directly and hands the simulators unwrapped callables.
"""

import json
import os
import pickle
import resource
from time import perf_counter, process_time

import numpy as np

import quadmodel as qm
from quadmodel import cli

from . import inputs, reference
from .outputs import csv_summary, remove
from .setups import DESK_PARAMS, TILT_POLE, tilt_setup
from .tracing import PROBE_OP, NullTracer

NULL = NullTracer()
RK4_REPLAYS = 200  # recorded (x, F) pairs replayed through rk4_step and nonlinear_deriv


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {str(exc)[:300]}"


# ---------------------------------------------------------------- replays
# Functions that are only called from inside other functions are timed by
# calling them again, on the inputs the workload itself just used.

def replay_design(tr, p, model, spec, K):
    chain = spec.roll
    tr.call("stabilize.place_integrator_chain", qm.place_integrator_chain,
            len(chain), p.g / p.Ix, chain)
    tr.call("stabilize.poles_to_monic", qm.poles_to_monic, chain)
    if K is not None:
        coeffs = tr.call("linalg.char_poly", qm.char_poly, model.A - model.B @ K)
        tr.call("linalg.is_hurwitz", qm.is_hurwitz, coeffs)


def replay_zoh(tr, model, dt):
    tr.call("linalg.nilpotency_index", qm.nilpotency_index, model.A)
    tr.call("linalg.expm_nilpotent", qm.expm_nilpotent, model.A, dt)


def replay_analysis(tr, model):
    tr.call("analysis.controllability_rank", qm.controllability_rank, model)
    tr.call("analysis.observability_rank", qm.observability_rank, model)
    tr.call("linalg.rank", qm.rank, qm.controllability_matrix(model), 1e-9)


# ---------------------------------------------------------------- cli_sim
# In-process `cli.main` with the argv the subprocess operation uses; the
# untraced cli_sim operation itself is a subprocess started by run.py.

def cli_op(tr, ctx, x0, pole):
    argv = inputs.cli_argv(ctx["params_path"], ctx["out_path"], x0, pole,
                           ctx["t_final"], ctx["dt"])
    return {"rc": tr.call("cli.main", cli.main, argv)}, (x0, pole)


def cli_finish(tr, ctx, record, state):
    record["csv"] = csv_summary(ctx["out_path"]) if record["rc"] == 0 else None
    if tr.enabled:
        cli_replay(tr, ctx, *state)


def cli_replay(tr, ctx, x0, pole):
    """The calls cmd_sim makes, replayed one by one with the same values."""
    p = tr.call("cli.load_params", cli.load_params, ctx["params_path"])
    spec = tr.call("cli.parse_pole_spec", cli.parse_pole_spec, [repr(float(pole))], 6)
    tr.call("params.validate", qm.validate, p)
    model = tr.call("models.build_6dof", qm.build_6dof, p)
    gains = tr.call("stabilize.design_6dof_gains", qm.design_6dof_gains, p, spec)
    replay_design(tr, p, model, spec, gains.K)
    tr.call("simulate.zoh_discretize", qm.zoh_discretize, model, ctx["dt"])
    replay_zoh(tr, model, ctx["dt"])
    cfg = qm.SimConfig(t_final=ctx["t_final"], dt=ctx["dt"])
    K, r = gains.K, np.zeros(4)

    def feedback(t, x):
        return r - K @ x

    x0 = np.asarray(x0, dtype=float)
    # untraced callable: this span is what cli.main spent in simulate
    traj = tr.call("cli.replay.simulate", qm.simulate, model, x0, feedback, cfg)
    tr.call("simulate.simulate", qm.simulate, model, x0,
            tr.wrap("simulate.input_fn", feedback), cfg)
    with open(ctx["out_path"], "w", encoding="utf-8", newline="\n") as fh:
        tr.call("cli.write_trajectory_csv", cli.write_trajectory_csv, traj, fh)


# ---------------------------------------------------------------- tilt_sweep

def tilt_op(tr, ctx, theta0, full):
    """Linear open loop, nonlinear open loop at hover, and nonlinear closed
    loop with the feedback cmd_sim builds, all from one initial pitch."""
    p, model, k_matrix, hover = ctx["p"], ctx["model"], ctx["K"], ctx["hover"]
    x0 = np.zeros(12)
    x0[7] = theta0
    lin_cfg = qm.SimConfig(t_final=ctx["t_final"], dt=ctx["dt"])
    nl_cfg = qm.SimConfig(t_final=ctx["t_final"], dt=ctx["dt"], integrator="rk4",
                          plant="nonlinear_6dof")
    zero = np.zeros(4)
    demix = tr.wrap("rotor_forces.demix", qm.demix)

    def forces_fn(t, x):
        u = -k_matrix @ x
        if not np.all(np.isfinite(u)):
            raise qm.NonFiniteState("feedback input became non-finite")
        return demix(qm.GeneralizedInput(*u), p)

    lin = tr.call("simulate.simulate", qm.simulate, model, x0,
                  tr.wrap("simulate.input_fn", lambda t, x: zero), lin_cfg)
    ol = tr.call("simulate.simulate_nonlinear", qm.simulate_nonlinear, p, x0,
                 tr.wrap("simulate.forces_fn", lambda t, x: hover), nl_cfg)
    cl = tr.call("simulate.simulate_nonlinear", qm.simulate_nonlinear, p, x0,
                 tr.wrap("simulate.forces_fn", forces_fn), nl_cfg)
    record = {
        "theta0": theta0,
        "final": np.array([lin.states[-1], ol.states[-1], cl.states[-1]]),
        "rows": [len(lin), len(ol), len(cl)],
    }
    if full:
        record["closed_states"] = cl.states
        record["closed_forces"] = cl.inputs
    return record, (p, cl, ctx["dt"], model)


def tilt_finish(tr, ctx, record, state):
    if not tr.enabled:
        return
    p, cl, dt, model = state
    tr.call("simulate.zoh_discretize", qm.zoh_discretize, model, dt)
    replay_zoh(tr, model, dt)
    pick = np.linspace(0, len(cl) - 2, RK4_REPLAYS).astype(int)
    for x, f in zip(cl.states[pick], cl.inputs[pick]):
        forces = qm.RotorForces(*f)
        tr.call("simulate.nonlinear_deriv", qm.nonlinear_deriv, p, x, forces)
        tr.call("simulate.rk4_step", qm.rk4_step,
                lambda tt, xx: qm.nonlinear_deriv(p, xx, forces), x, 0.0, dt)


# ---------------------------------------------------------------- design_sweep

def _report(r):
    return (r.controllability_rank, r.observability_rank, r.is_controllable,
            r.is_observable, tuple(r.open_loop_char_poly), r.stability_class,
            r.nilpotency_index)


def design_op(tr, _ctx, params, poles6, poles3, dt):
    """One design request. Every call runs even when an earlier one raised,
    so that a failure does not shorten the operation."""
    errors, out = {}, {}
    p = spec6 = spec3 = None
    try:
        p = qm.QuadParams(*params)
        spec6 = qm.PoleSpec(**inputs.split_chains(poles6, inputs.CHAINS_6DOF))
        spec3 = qm.PoleSpec(**inputs.split_chains(poles3, inputs.CHAINS_3DOF))
    except Exception as e:  # noqa: BLE001 - recorded as the request's failure
        errors["request"] = _error(e)
    m6 = m3 = g6 = None
    steps = (
        ("params.validate", lambda: qm.validate(p)),
        ("models.build_6dof", lambda: qm.build_6dof(p)),
        ("models.build_3dof", lambda: qm.build_3dof(p)),
        ("analysis.analyze_6dof", lambda: qm.analyze(m6)),
        ("analysis.analyze_3dof", lambda: qm.analyze(m3)),
        ("stabilize.design_6dof_gains", lambda: qm.design_6dof_gains(p, spec6)),
        ("stabilize.design_3dof_gains", lambda: qm.design_3dof_gains(p, spec3)),
        ("simulate.zoh_discretize", lambda: qm.zoh_discretize(m6, dt)),
        ("simulate.zoh_discretize_3dof", lambda: qm.zoh_discretize(m3, dt)),
    )
    for name, thunk in steps:
        try:
            value = tr.call(name, thunk)
        except Exception as e:  # noqa: BLE001 - each call's failure is recorded
            errors[name] = _error(e)
            continue
        if name == "models.build_6dof":
            m6 = value
        elif name == "models.build_3dof":
            m3 = value
        elif name.startswith("analysis."):
            out[name] = _report(value)
        elif name.startswith("stabilize."):
            out[name] = value.K
            if name == "stabilize.design_6dof_gains":
                g6 = value
        elif name.startswith("simulate."):
            out[name] = value
    record = {"errors": errors, "out": out}
    return record, (p, m6, spec6, None if g6 is None else g6.K, dt)


def design_finish(tr, _ctx, record, state):
    p, m6, spec6, K, dt = state
    if not tr.enabled or m6 is None:
        return
    replay_analysis(tr, m6)
    replay_design(tr, p, m6, spec6, K)
    replay_zoh(tr, m6, dt)


# ---------------------------------------------------------------- running a workload

def _workload(workload, seed, workdir, setup):
    """(context, op, finish, per-index op arguments) for one workload."""
    data = inputs.generate(workload, seed)
    if workload == "cli_sim":
        ctx = _cli_ctx(workdir, data["params"], data["t_final"], data["dt"])
        n = len(data["poles"])
        return ctx, cli_op, cli_finish, lambda i: (data["x0"][i % n], data["poles"][i % n])
    if workload == "tilt_sweep":
        ctx = dict(setup, t_final=data["t_final"], dt=data["dt"])
        return ctx, tilt_op, tilt_finish, lambda i: (data["theta0"], i == 0)
    n = len(data["dt"])
    return None, design_op, design_finish, lambda i: (
        tuple(float(v) for v in data["params"][i % n]), data["poles6"][i % n],
        data["poles3"][i % n], float(data["dt"][i % n]))


def _cli_ctx(workdir, params, t_final, dt):
    params_path = os.path.join(workdir, "params.json")
    with open(params_path, "w", encoding="utf-8") as fh:
        json.dump(params, fh)
    return {"params_path": params_path, "out_path": os.path.join(workdir, "worker.csv"),
            "t_final": t_final, "dt": dt}


def run_phase(tr, op, finish, ctx, arg, first, stop, seconds, units, sink):
    """Closed loop over operations ``first``, ``first + 1``, ... until
    ``stop`` or, when ``stop`` is None, for ``seconds`` of wall time; returns
    (operations run, reference unit timings taken after the last one).
    Before each operation ``units`` reference units are timed (reference.py).
    Only ``op`` is inside the latency and CPU time of an operation;
    ``finish`` summarizes outputs and, when traced, runs the replays."""
    deadline = perf_counter() + seconds
    i = first
    while stop is None or i < stop:
        tr.op = i
        args = arg(i)
        refs = reference.sample(units)
        start, cpu = perf_counter(), process_time()
        try:
            record, state = op(tr, ctx, *args)
        except Exception as e:  # noqa: BLE001 - a failed operation is a result
            record, state = {"error": _error(e)}, None
        latency, cpu = perf_counter() - start, process_time() - cpu
        if state is not None:
            finish(tr, ctx, record, state)
        record.update(index=i, latency=latency, cpu=cpu, traced=tr.enabled, ref=refs)
        pickle.dump(record, sink)
        i += 1
        if stop is None and perf_counter() >= deadline:
            break
    return i - first, reference.sample(units)


def probe(tr, workdir):
    """One small pass over every layer, run after the traced phase. Layer
    metrics that the workload's own traffic never reaches are taken from
    these spans (and reported as such). Each of its three parts has its own
    operation id, so that per-operation sums such as cli.glue_ms stay apart."""
    tr.op = PROBE_OP
    ctx = _cli_ctx(workdir, DESK_PARAMS, 0.5, 0.001)
    x0 = np.zeros(12)
    x0[2], x0[7] = 0.5, 0.05
    rec, state = cli_op(tr, ctx, x0, -2.0)
    cli_finish(tr, ctx, rec, state)
    probe_csv = rec["csv"]
    remove(ctx["out_path"])
    tr.op = PROBE_OP - 1
    tctx = dict(tilt_setup(tr, DESK_PARAMS, TILT_POLE), t_final=0.02, dt=1e-4)
    rec, state = tilt_op(tr, tctx, 0.1, False)
    tilt_finish(tr, tctx, rec, state)
    tr.op = PROBE_OP - 2
    desk = tuple(DESK_PARAMS[k] for k in inputs.PARAM_KEYS)
    rec, state = design_op(tr, None, desk, np.array([-1.0, -2.0, -1.0, -2.0, -3.0, -4.0,
                                                   -1.0, -2.0, -3.0, -4.0, -1.0, -2.0]),
                         np.array([-1.0, -2.0, -3.0, -4.0, -5.0, -6.0]), 1e-3)
    design_finish(tr, None, rec, state)
    return {"csv": probe_csv}


def peak_rss_kb() -> int:
    """This process's peak RSS since exec. ru_maxrss would also count the
    parent's memory at spawn time, so VmHWM is read where Linux offers it."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run(workload, mode, seed, seconds, workdir, tracer, setup) -> int:
    ctx, op, finish, arg = _workload(workload, seed, workdir, setup)
    # cli_sim runs in a worker only when traced, and traced runs are not scaled
    units = reference.UNITS_PER_OP.get(workload, 0)
    # design_sweep sends a fixed batch (inputs.design_batch); the others
    # run for a fixed time
    batch = inputs.design_batch(seconds) if workload == "design_sweep" else None
    with open(os.path.join(workdir, "records.pkl"), "wb") as sink:
        end = {"end": True}
        if mode == "run":
            end["ops"], end["ref_after"] = run_phase(NULL, op, finish, ctx, arg, 0, batch,
                                                     seconds, units, sink)
        else:
            half = None if batch is None else batch // 2
            n, _ = run_phase(NULL, op, finish, ctx, arg, 0, half, seconds / 2, units, sink)
            run_phase(tracer, op, finish, ctx, arg, n, batch, seconds / 2, units, sink)
        end["rss_kb"] = peak_rss_kb()
        if mode == "trace":
            end["probe"] = probe(tracer, workdir)
            end["spans"] = tracer.export()
        pickle.dump(end, sink)
    if ctx is not None and "out_path" in ctx:
        remove(ctx["out_path"])
    return 0
