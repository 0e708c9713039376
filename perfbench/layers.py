"""Per-layer metrics of the traced run, named after quadmodel's modules.

Each timing comes from the workload's own spans when its traffic reaches
that layer, and otherwise from the layer probe that the traced worker runs
last; ``source`` says which. Counts are per operation of the workload's own
traced traffic, so a layer the workload never reaches counts 0 there.
"""

from __future__ import annotations

import numpy as np

from .stats import median
from .tracing import PROBE_OP, self_times

# name: (unit, better)
METRICS = {
    "cli.interpreter_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.import_own_s": ("s", "lower"),
    "cli.main_ms": ("ms", "lower"),
    "cli.glue_ms": ("ms", "lower"),
    "cli.load_params_us": ("us", "lower"),
    "cli.parse_pole_spec_us": ("us", "lower"),
    "cli.write_trajectory_csv_ms": ("ms", "lower"),
    "cli.csv_ns_per_value": ("ns", "lower"),
    "cli.csv_bytes": ("bytes", "lower"),
    "simulate.linear_step_us": ("us", "lower"),
    "simulate.input_fn_us": ("us", "lower"),
    "simulate.input_fn_calls": ("count/op", "lower"),
    "simulate.nonlinear_step_us": ("us", "lower"),
    "simulate.forces_fn_us": ("us", "lower"),
    "simulate.rk4_step_us": ("us", "lower"),
    "simulate.nonlinear_deriv_us": ("us", "lower"),
    "rotor_forces.demix_us": ("us", "lower"),
    "rotor_forces.demix_calls": ("count/op", "lower"),
    "simulate.zoh_discretize_us": ("us", "lower"),
    "linalg.expm_nilpotent_us": ("us", "lower"),
    "linalg.nilpotency_index_us": ("us", "lower"),
    "stabilize.design_6dof_gains_us": ("us", "lower"),
    "stabilize.design_3dof_gains_us": ("us", "lower"),
    "stabilize.place_integrator_chain_us": ("us", "lower"),
    "stabilize.poles_to_monic_us": ("us", "lower"),
    "linalg.char_poly_us": ("us", "lower"),
    "linalg.is_hurwitz_us": ("us", "lower"),
    "stabilize.designs": ("count/op", "lower"),
    "stabilize.check_failed": ("count/op", "lower"),
    "stabilize.useful_ratio": ("1", "higher"),
    "analysis.analyze_6dof_us": ("us", "lower"),
    "analysis.analyze_3dof_us": ("us", "lower"),
    "analysis.controllability_rank_us": ("us", "lower"),
    "analysis.observability_rank_us": ("us", "lower"),
    "linalg.rank_us": ("us", "lower"),
    "models.build_6dof_us": ("us", "lower"),
    "models.build_3dof_us": ("us", "lower"),
    "params.validate_us": ("us", "lower"),
    "simulate.steps": ("count/op", "lower"),
    "simulate.trajectories": ("count/op", "lower"),
    "simulate.trajectory_bytes": ("bytes/op", "lower"),
    "bench.trace_overhead_ratio": ("1", "lower"),
}

# Per-call median of a span, in microseconds: metric -> span name.
MEDIAN_US = {
    "cli.load_params_us": "cli.load_params",
    "cli.parse_pole_spec_us": "cli.parse_pole_spec",
    "simulate.zoh_discretize_us": "simulate.zoh_discretize",
    "linalg.expm_nilpotent_us": "linalg.expm_nilpotent",
    "linalg.nilpotency_index_us": "linalg.nilpotency_index",
    "stabilize.design_6dof_gains_us": "stabilize.design_6dof_gains",
    "stabilize.design_3dof_gains_us": "stabilize.design_3dof_gains",
    "stabilize.place_integrator_chain_us": "stabilize.place_integrator_chain",
    "stabilize.poles_to_monic_us": "stabilize.poles_to_monic",
    "linalg.char_poly_us": "linalg.char_poly",
    "linalg.is_hurwitz_us": "linalg.is_hurwitz",
    "analysis.analyze_6dof_us": "analysis.analyze_6dof",
    "analysis.analyze_3dof_us": "analysis.analyze_3dof",
    "analysis.controllability_rank_us": "analysis.controllability_rank",
    "analysis.observability_rank_us": "analysis.observability_rank",
    "linalg.rank_us": "linalg.rank",
    "models.build_6dof_us": "models.build_6dof",
    "models.build_3dof_us": "models.build_3dof",
    "params.validate_us": "params.validate",
}

# Per-call mean of a callable called once per step (total time / calls).
MEAN_US = {
    "simulate.input_fn_us": "simulate.input_fn",
    "simulate.forces_fn_us": "simulate.forces_fn",
    "rotor_forces.demix_us": "rotor_forces.demix",
    "simulate.rk4_step_us": "simulate.rk4_step",
    "simulate.nonlinear_deriv_us": "simulate.nonlinear_deriv",
}

# Self time per step of a simulator: metric -> (simulator span, callable span).
STEP_US = {
    "simulate.linear_step_us": ("simulate.simulate", "simulate.input_fn"),
    "simulate.nonlinear_step_us": ("simulate.simulate_nonlinear", "simulate.forces_fn"),
}

# The calls cmd_sim makes that the traced run replays one by one; what is
# left of cli.main after them is its own glue (argparse, x0 parsing, file
# handling).
GLUE_PARTS = ("cli.load_params", "cli.parse_pole_spec", "models.build_6dof",
              "stabilize.design_6dof_gains", "cli.replay.simulate", "cli.write_trajectory_csv")

DESIGN_SPANS = ("stabilize.design_6dof_gains", "stabilize.design_3dof_gains")
SIMULATOR_SPANS = ("simulate.simulate", "simulate.simulate_nonlinear")
TRAJECTORY_COLUMNS = 1 + 12 + 4  # times, 6DOF states, 4 inputs


class Spans:
    """Exported spans with durations and self times, in nanoseconds."""

    def __init__(self, exported: dict):
        self.names = exported["names"]
        self.name = exported["name"]
        self.start, self.end = exported["start"], exported["end"]
        self.parent, self.op = exported["parent"], exported["op"]
        self.dur = self.end - self.start
        self.self = self_times(self.start, self.end, self.parent)

    def of(self, name: str, where: str) -> np.ndarray:
        """Indices of spans called ``name``: the workload's or the probe's."""
        if name not in self.names:
            return np.zeros(0, dtype=np.int64)
        mask = self.name == self.names.index(name)
        mask &= (self.op <= PROBE_OP) if where == "probe" else (self.op > PROBE_OP)
        return np.flatnonzero(mask)

    def pick(self, name: str):
        """The workload's spans of ``name`` if it has any, else the probe's."""
        idx = self.of(name, "workload")
        return (idx, "workload") if idx.size else (self.of(name, "probe"), "probe")

    def children(self, parents: np.ndarray, name: str) -> np.ndarray:
        """How many ``name`` spans each of ``parents`` directly encloses."""
        kids = np.concatenate([self.of(name, w) for w in ("workload", "probe")])
        counts = np.bincount(self.parent[kids], minlength=len(self.dur)) if kids.size else \
            np.zeros(len(self.dur), dtype=np.int64)
        return counts[parents]


def _median_over(values) -> float:
    values = [v for v in values if np.isfinite(v)]
    return median(values) if values else float("nan")


def compute(spans: Spans, traced_ops: int, check_failed: int, csv_by_op: dict,
            op_cpu: dict, spawn: dict, useful: tuple) -> tuple[dict, dict]:
    """(metric values, metric sources) for the traced run.

    traced_ops  operations run in the traced phase
    csv_by_op   op id -> CSV summary, for the cli metrics
    check_failed  InternalStabilityCheckFailed refusals in the traced ops
    op_cpu      {"traced": [...], "untraced": [...]} CPU seconds per operation
    spawn       {"interpreter": [...], "import": [...], "import_own": [...]}, s
    useful      (designs verified, designs attempted) over the run
    """
    values, sources = {}, {}

    def put(metric, value, source):
        values[metric], sources[metric] = float(value), source

    for metric, name in MEDIAN_US.items():
        idx, src = spans.pick(name)
        put(metric, _median_over(spans.dur[idx] / 1e3), src)
    for metric, name in MEAN_US.items():
        idx, src = spans.pick(name)
        put(metric, spans.dur[idx].sum() / 1e3 / idx.size if idx.size else float("nan"), src)
    for metric, (sim, fn) in STEP_US.items():
        idx, src = spans.pick(sim)
        steps = spans.children(idx, fn) - 1
        put(metric, _median_over(spans.self[idx] / 1e3 / np.maximum(steps, 1)), src)

    main, src = spans.pick("cli.main")
    put("cli.main_ms", _median_over(spans.dur[main] / 1e6), src)
    parts = np.concatenate([spans.of(n, src) for n in GLUE_PARTS])
    glue = [(spans.dur[i] - spans.dur[parts[spans.op[parts] == spans.op[i]]].sum()) / 1e6
            for i in main]
    put("cli.glue_ms", _median_over(glue), src)
    writes, src = spans.pick("cli.write_trajectory_csv")
    put("cli.write_trajectory_csv_ms", _median_over(spans.dur[writes] / 1e6), src)
    per_value, sizes = [], []
    for i in writes:
        csv = csv_by_op.get(int(spans.op[i]))
        if csv:
            cells = (csv["newlines"] - 1) * len(csv["header"].split(","))
            per_value.append(spans.dur[i] / cells)
            sizes.append(csv["bytes"])
    put("cli.csv_ns_per_value", _median_over(per_value), src)
    put("cli.csv_bytes", _median_over(sizes), src)

    ops = max(traced_ops, 1)
    sims = np.concatenate([spans.of(n, "workload") for n in SIMULATOR_SPANS])
    sims = sims[spans.op[sims] >= 0]
    rows = sum(spans.children(sims, fn) for fn in ("simulate.input_fn", "simulate.forces_fn"))

    def own(name):
        return int(np.count_nonzero(spans.op[spans.of(name, "workload")] >= 0))

    put("simulate.input_fn_calls", own("simulate.input_fn") / ops, "workload")
    put("rotor_forces.demix_calls", own("rotor_forces.demix") / ops, "workload")
    put("simulate.steps", float(np.sum(rows - 1)) / ops, "workload")
    put("simulate.trajectories", sims.size / ops, "workload")
    put("simulate.trajectory_bytes",
        float(np.sum(rows)) * TRAJECTORY_COLUMNS * 8 / ops, "computed")
    put("stabilize.designs", sum(own(n) for n in DESIGN_SPANS) / ops, "workload")
    put("stabilize.check_failed", check_failed / ops, "workload")
    verified, attempted = useful
    put("stabilize.useful_ratio", verified / attempted if attempted else float("nan"), "workload")

    put("cli.interpreter_s", median(spawn["interpreter"]), "spawn")
    put("cli.import_s", median(spawn["import"]), "spawn")
    put("cli.import_own_s", median(spawn["import_own"]), "spawn")
    put("bench.trace_overhead_ratio",
        median(op_cpu["traced"]) / median(op_cpu["untraced"]), "workload")
    missing = set(METRICS) - set(values)
    if missing:
        raise RuntimeError(f"layer metrics not computed: {sorted(missing)}")
    return values, sources
