import numpy as np
import pytest

from perfbench import inputs


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
@pytest.mark.parametrize("seed", [0, 1, 7, 2**31 + 5])
def test_same_seed_gives_byte_identical_inputs(workload, seed):
    a, b = inputs.generate(workload, seed), inputs.generate(workload, seed)
    assert inputs.digest(a) == inputs.digest(b)
    for key in a:
        if isinstance(a[key], np.ndarray):
            assert a[key].tobytes() == b[key].tobytes()
        else:
            assert a[key] == b[key]


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_other_seed_gives_other_inputs(workload):
    assert inputs.digest(inputs.generate(workload, 1)) != inputs.digest(inputs.generate(workload, 2))


def test_generated_values_stay_in_their_bands():
    cli = inputs.cli_sim(3)
    assert np.all(np.abs(cli["x0"][:, :3]) <= 1.0) and np.all(np.abs(cli["x0"][:, 6:9]) <= 0.1)
    assert np.all((cli["poles"] >= -5.0) & (cli["poles"] <= -1.0))
    assert 0.01 <= inputs.tilt_sweep(3)["theta0"] <= 0.6
    design = inputs.design_sweep(3)
    lo, hi = inputs.POLE_BAND
    for key in ("poles6", "poles3"):
        assert np.all((-design[key] >= lo) & (-design[key] <= hi))
    assert np.all((design["dt"] >= inputs.DT_BAND[0]) & (design["dt"] <= inputs.DT_BAND[1]))


def test_negative_seed_is_rejected():
    with pytest.raises(ValueError):
        inputs.generate("cli_sim", -1)


def test_cli_argv_carries_exact_values():
    x0 = np.zeros(12)
    x0[0], x0[7] = 0.1 + 0.2, -1e-17
    argv = inputs.cli_argv("p.json", "o.csv", x0, -2.5, 5.0, 0.001)
    assert "--poles=-2.5" in argv
    assignment = argv[argv.index("--out") - 5]
    assert assignment == f"--x0=x={0.1 + 0.2!r},theta={-1e-17!r}"
