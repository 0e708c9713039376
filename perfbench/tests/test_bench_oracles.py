"""Oracle checks on real program outputs: exceptions and mismatches both
count as failed, and only mismatches and unexpected errors make a run
incorrect."""

import numpy as np
import pytest

from perfbench import inputs, oracles
from perfbench.tracing import NullTracer

workerops = pytest.importorskip("perfbench.workerops")

NULL = NullTracer()
PARAMS = tuple(inputs.DESK_PARAMS[k] for k in inputs.PARAM_KEYS)
POLES6 = np.array([-1.0, -2.0, -1.0, -2.0, -3.0, -4.0, -1.5, -2.5, -3.5, -4.5, -1.0, -3.0])
POLES3 = np.array([-1.0, -2.0, -3.0, -4.0, -5.0, -6.0])
# roll and pitch spread over four decades: design_6dof_gains refuses this valid request
SPREAD6 = np.array([-0.05, -100.0, -0.05, -1.0, -2.0, -100.0,
                    -0.05, -1.0, -2.0, -100.0, -0.05, -100.0])


def design(poles6=POLES6):
    record, _ = workerops.design_op(NULL, None, PARAMS, poles6, POLES3, 1e-3)
    return record


def check(record, poles6=POLES6):
    return oracles.check_design(record, PARAMS, poles6, POLES3, 1e-3)


def test_valid_design_request_passes():
    out = check(design())
    assert not out.failed and out.designs_verified == 2


def test_wrong_gain_is_a_mismatch():
    record = design()
    K = record["out"]["stabilize.design_6dof_gains"].copy()
    K[2, 7] *= -1.0  # the pitch chain's tilt-coupling sign
    record["out"]["stabilize.design_6dof_gains"] = K
    out = check(record)
    assert out.failed and out.wrong


def test_wrong_discretization_is_a_mismatch():
    record = design()
    phi, gamma = record["out"]["simulate.zoh_discretize"]
    record["out"]["simulate.zoh_discretize"] = (phi, gamma * (1 + 1e-6))
    assert check(record).wrong


def test_false_rejection_counts_as_failed_known_defect():
    out = check(design(SPREAD6), SPREAD6)
    assert out.failed and out.known_defect and not out.wrong
    assert out.designs_verified == 1  # the 3DOF gain still came back and holds


def test_other_exception_is_failed_and_unexpected():
    out = check({"error": "TypeError: boom"})
    assert out.failed and not out.known_defect and not out.wrong


def test_mismatches_and_exceptions_both_count_in_failed_ratio():
    bad = design()
    bad["out"]["analysis.analyze_6dof"] = (11,) + bad["out"]["analysis.analyze_6dof"][1:]
    outcomes = [check(design()), check(bad), check(design(SPREAD6), SPREAD6),
                check({"error": "ValueError: x"})]
    counts = oracles.count(outcomes)
    assert counts["attempted"] == 4 and counts["failed"] == 3
    assert counts["failed_ratio"] == 0.75
    assert counts["wrong"] == 1 and counts["known_defect"] == 1
    assert counts["unexpected_errors"] == 1


def _cli_record(tmp_path, x0, pole):
    ctx = workerops._cli_ctx(str(tmp_path), inputs.DESK_PARAMS, 0.2, 0.001)
    record, state = workerops.cli_op(NULL, ctx, x0, pole)
    workerops.cli_finish(NULL, ctx, record, state)
    return record


def test_cli_output_checks(tmp_path):
    x0 = np.zeros(12)
    x0[2], x0[7] = 0.5, 0.05
    record = _cli_record(tmp_path, x0, -2.0)
    args = (inputs.DESK_PARAMS, x0, -2.0, 0.2, 0.001)
    assert not oracles.check_cli(record, *args).failed
    csv = dict(record["csv"], last=list(record["csv"]["last"]))
    csv["last"][3] += 1e-6
    assert oracles.check_cli({"rc": 0, "csv": csv}, *args).wrong
    short = dict(record["csv"], newlines=record["csv"]["newlines"] - 1)
    assert oracles.check_cli({"rc": 0, "csv": short}, *args).wrong
    refused = oracles.check_cli({"rc": 1, "stderr": "InternalStabilityCheckFailed: ..."}, *args)
    assert refused.failed and refused.known_defect
    assert not oracles.check_cli({"rc": 2, "stderr": "quadmodel: error: bad"}, *args).known_defect
    raised = oracles.check_cli({"error": "InternalStabilityCheckFailed: x"}, *args)
    assert raised.failed and raised.known_defect and not raised.wrong


def test_tilt_oracle_accepts_the_program_and_rejects_a_perturbed_run():
    from perfbench.setups import tilt_setup

    ctx = dict(tilt_setup(NULL, inputs.DESK_PARAMS, -3.0), t_final=0.01, dt=1e-4)
    record, _ = workerops.tilt_op(NULL, ctx, 0.4, True)
    oracle = oracles.TiltOracle(inputs.DESK_PARAMS, 0.4, -3.0, 0.01, 1e-4)
    assert oracle.check_closed_loop(record["closed_states"], record["closed_forces"]) == ""
    assert not oracle.check(record).failed
    forces = record["closed_forces"].copy()
    forces[5, 0] += 1e-3
    assert oracle.check_closed_loop(record["closed_states"], forces) != ""
    record["final"] = record["final"].copy()
    record["final"][1, 0] += 1e-6
    assert oracle.check(record).wrong
