import collections
import math
import struct
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quadmodel import (
    CHAINS_3DOF,
    CHAINS_6DOF,
    GainMatrix,
    PoleCountMismatch,
    PolePlacementError,
    PoleSpec,
    QuadParams,
    SimConfig,
    UnstablePoleRequested,
    UnstableSampledLoop,
    ZeroInputGain,
    build_3dof,
    build_6dof,
    char_poly,
    check_sampled_loop,
    design_3dof_gains,
    design_6dof_gains,
    is_hurwitz,
    place_integrator_chain,
    poles_to_monic,
    simulate,
    zoh_discretize,
)
from quadmodel.linalg import char_poly_ints, expm_rows, is_hurwitz_ints, matmul
from quadmodel.models import CHAINS, model_rows
from quadmodel.stabilize import _OUT_OF_RANGE, _chains_stable, check_sampled_rows, design_rows
from util import assert_close, quad_params

negative_pole = st.floats(min_value=-5.0, max_value=-0.5)


def wide_chain(size, low=-2.0):
    """size poles, magnitudes log-uniform from 10^low to 1e3 (1e-2..1e3
    is wider than design_sweep's 0.1..100), at least 0.1 % apart.
    design_sweep's oracle widens its tolerance for closer poles, to
    10 * eps^(1/m) of a pole repeated m times, but an exact repeat five
    decades below another pole of its chain is split further than that by
    the rounding of the gains themselves: up to 12 times, by the exact
    eigenvalues of the float64 loop over 3,000 draws. Repeated poles are
    covered at desk scale by the chain-product tests."""
    exponents = st.lists(st.floats(min_value=low, max_value=3.0), min_size=size, max_size=size)
    return exponents.filter(
        lambda e: all(abs(a - b) >= 5e-4 for i, a in enumerate(e) for b in e[:i])
    ).map(lambda e: tuple(-(10.0 ** x) for x in e))

P = QuadParams(m=1.0, d=0.25, c=0.01, Ix=0.01, Iy=0.01, Iz=0.02, g=9.81)


def pole_sets_6dof():
    return st.builds(
        PoleSpec,
        z=st.tuples(negative_pole, negative_pole),
        roll=st.tuples(negative_pole, negative_pole, negative_pole, negative_pole),
        pitch=st.tuples(negative_pole, negative_pole, negative_pole, negative_pole),
        yaw=st.tuples(negative_pole, negative_pole),
    )


# ---------------------------------------------------------------- chain placement


def _convolved_monic(poles):
    """prod (s - p_i) by repeated np.convolve, real part: the expansion the
    gains were formed from before the Python-float core."""
    coeffs = np.array([1.0 + 0.0j])
    for s in poles:
        coeffs = np.convolve(coeffs, np.array([1.0, -complex(s)]))
    return coeffs.real


_magnitude = st.floats(min_value=-8.0, max_value=8.0).map(lambda e: 10.0 ** e)


@st.composite
def conjugate_closed_poles(draw):
    """2 or 4 poles: each pair is a conjugate pair or two real poles."""
    poles = []
    for _ in range(draw(st.sampled_from([1, 2]))):
        re = -draw(_magnitude)
        if draw(st.booleans()):
            im = draw(_magnitude)
            poles += [complex(re, im), complex(re, -im)]
        else:
            poles += [complex(re, 0.0), complex(-draw(_magnitude), 0.0)]
    return draw(st.permutations(poles))


@settings(max_examples=2000, deadline=None)
@given(poles=conjugate_closed_poles())
@example(poles=(-2.0,) * 4)  # the desk set, on the real path
@example(poles=(-0.5, -3.0, -70.0, -1e4))
@example(poles=(-1e-200,) * 4)  # a^2 and on underflow to 0
def test_pole_expansion_matches_convolve_to_the_bit(poles):
    # the gains, and so the --gains-out bytes, are these coefficients over
    # the input gain; numpy's convolve sums each coefficient with a complex
    # dot product, which the Python expansion groups the same way
    assert poles_to_monic(poles).tobytes() == _convolved_monic(poles).tobytes()


def _split_monic(poles):
    """The expansion of every pole set before real sets took the real half
    alone: the real and imaginary halves of each pole, residue check and all."""
    re, im = [1.0], [0.0]
    for s in map(complex, poles):
        tr, ti = -s.real, -s.imag
        lr, li, hr, hi = [0.0] + re, [0.0] + im, re + [0.0], im + [0.0]
        re, im = ([(xr * tr + yr) - xi * ti for xr, xi, yr in zip(lr, li, hr)],
                  [xr * ti + (xi * tr + yi) for xr, xi, yi in zip(lr, li, hi)])
    scale = max(1.0, max(map(abs, map(complex, re, im))))
    if any(abs(v) > 1e-9 * scale for v in im):
        raise PolePlacementError(f"pole set {tuple(poles)!r} is not conjugate-closed")
    return re


@settings(max_examples=1000, deadline=None)
@given(poles=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=8))
@example(poles=[-1e200] * 4)  # (s + 1e200)^4 overflows from s^2 on
@example(poles=[-1e200] * 3 + [0.0])  # inf * -0.0 is NaN on both paths
@example(poles=[0.0, 1.0, -0.0])
@example(poles=[5e-324, -5e-324])
def test_real_pole_expansion_matches_the_complex_split(poles):
    # a real set takes the real half alone: each coefficient keeps the
    # complex split's bits wherever that reads a number or +-inf; where the
    # split's zero imaginary half meets an inf as 0 * inf = NaN, the real
    # half reads +-inf, or NaN where its own product is inf * 0 or inf - inf
    got, want = poles_to_monic(poles).tolist(), _split_monic(poles)
    assert len(got) == len(want) == len(poles) + 1
    for g, w in zip(got, want):
        if math.isnan(w):
            assert not math.isfinite(g)
        else:
            assert struct.pack("<d", g) == struct.pack("<d", w)


def test_chain_gains_double_integrator():
    gains = place_integrator_chain(2, 1.0, (-1.0, -2.0))
    # target (s+1)(s+2) = s^2 + 3 s + 2 -> gains (2, 3) on (position, rate)
    assert np.array_equal(gains, [2.0, 3.0])


def test_chain_gains_scale_with_input_gain():
    gains = place_integrator_chain(2, 1.0 / 0.02, (-3.0, -3.0))
    # target s^2 + 6 s + 9, gain b = 50
    assert gains == pytest.approx([0.18, 0.12], rel=1e-14)


def test_chain_gains_complex_pair():
    gains = place_integrator_chain(2, 1.0, (-1 + 1j, -1 - 1j))
    # (s+1-j)(s+1+j) = s^2 + 2 s + 2
    assert gains == pytest.approx([2.0, 2.0], rel=1e-14)


def test_chain_rejects_unstable_pole():
    with pytest.raises(UnstablePoleRequested):
        place_integrator_chain(2, 1.0, (1.0, -2.0))


def test_chain_rejects_wrong_pole_count():
    with pytest.raises(PoleCountMismatch):
        place_integrator_chain(4, 1.0, (-1.0, -2.0))


def test_chain_rejects_zero_gain():
    with pytest.raises(ZeroInputGain):
        place_integrator_chain(2, 0.0, (-1.0, -2.0))


def test_chain_rejects_unpaired_complex_pole():
    with pytest.raises(PolePlacementError):
        place_integrator_chain(2, 1.0, (-1 + 1j, -2.0))


@pytest.mark.parametrize("order,pole", [(4, -1e200), (2, -1e-200)], ids=["overflow", "underflow"])
def test_chain_refuses_gains_that_are_not_normal_floats(order, pole):
    # (s + 1e200)^4 has coefficients beyond float64 (gains inf, inf, inf,
    # 4e200), and (s + 1e-200)^2 a constant 1e-400 that rounds to 0: refused
    # as every design refuses them
    with pytest.raises(PolePlacementError, match="too extreme for float64"):
        place_integrator_chain(order, 1.0, (pole,) * order)


@pytest.mark.parametrize("make", [list, lambda poles: (p for p in poles)],
                         ids=["list", "generator"])
def test_an_unpaired_expansion_names_the_poles_as_given(make):
    with pytest.raises(PolePlacementError) as info:
        poles_to_monic(make((-1 + 1j, -2.0)))
    assert str(info.value) == "pole set ((-1+1j), -2.0) is not conjugate-closed"


def test_pole_spec_validates_at_construction():
    with pytest.raises(UnstablePoleRequested):
        PoleSpec(z=(0.5, -1.0))
    with pytest.raises(PolePlacementError):
        PoleSpec(yaw=(-1 + 2j, -1 + 3j))
    with pytest.raises(PolePlacementError, match=r"^z pole \(nan\+0j\) is not finite$"):
        PoleSpec(z=(math.nan, -1.0))
    spec = PoleSpec.uniform_6dof(-2.0)
    assert len(spec.roll) == 4 and len(spec.z) == 2


# ---------------------------------------------------------------- 6DOF design


def test_6dof_uniform_placement_hits_target(params):
    m = build_6dof(params)
    gains = design_6dof_gains(params, PoleSpec.uniform_6dof(-2.0))
    achieved = char_poly(m.A - m.B @ gains.K)
    target = poles_to_monic([-2.0] * 12)  # (s+2)^12 by convolution oracle
    np.testing.assert_allclose(achieved, target, rtol=1e-8)
    assert is_hurwitz(achieved)


def test_6dof_flipped_gain_destabilizes(params):
    m = build_6dof(params)
    gains = design_6dof_gains(params, PoleSpec.uniform_6dof(-2.0))
    assert not is_hurwitz(char_poly(m.A + m.B @ gains.K))


def test_6dof_gain_layout(params):
    gains = design_6dof_gains(params, PoleSpec.uniform_6dof(-2.0))
    assert gains.K.shape == (4, 12)
    assert gains.input_labels == ("U1", "U2", "U3", "U4")
    # each input row touches only its own chain's states
    chains = {0: {2, 5}, 1: {1, 4, 6, 9}, 2: {0, 3, 7, 10}, 3: {8, 11}}
    for row, allowed in chains.items():
        touched = {j for j in range(12) if gains.K[row, j] != 0.0}
        assert touched == allowed


@settings(max_examples=25, deadline=None)
@given(spec=pole_sets_6dof())
# float Faddeev-LeVerrier on the 12x12 lost 1.1e-8 and 5.9e-8 relative here
@example(PoleSpec(z=(-1, -1), roll=(-1, -1, -4, -5), pitch=(-1, -1, -0.5, -0.5), yaw=(-1, -1)))
@example(PoleSpec(z=(-0.5, -0.5), roll=(-1, -1, -4, -5), pitch=(-1, -1, -0.5, -0.5),
                  yaw=(-0.5, -0.5)))
def test_6dof_placement_matches_chain_products(spec):
    m = build_6dof(P)
    gains = design_6dof_gains(P, spec)
    achieved = char_poly(m.A - m.B @ gains.K)
    target = np.array([1.0])
    for chain in (spec.z, spec.roll, spec.pitch, spec.yaw):
        target = np.convolve(target, poles_to_monic(chain))
    np.testing.assert_allclose(achieved, target, rtol=1e-8, atol=1e-10)
    assert is_hurwitz(achieved)


def spectrum_matches(block, requested) -> bool:
    """numpy's eigenvalues of block equal the requested multiset, each
    within 1e-7 of its pole's magnitude: design_sweep's spectrum oracle,
    whose tolerance widens only for poles less than 0.1 % apart."""
    requested = np.asarray(requested, dtype=complex)
    eig = np.linalg.eigvals(block)
    cost = np.abs(eig[:, None] - requested[None, :]) / (1e-7 * np.abs(requested))[None, :]
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    return bool(np.all(cost[rows, cols] <= 1.0))


def assert_chain_spectra(m, K, blocks, poles, off_rtol):
    """A - B K is block diagonal after permutation: outside the blocks its
    entries are at most off_rtol times those of |A| + |B| |K|, the scale
    of the rounding that cancelling products leave. Each chain block has
    its requested poles. numpy's eigenvalues of the whole 12x12 are less
    accurate than the tolerance for poles five decades apart, so the
    spectrum is taken per block, which is exact for a block-diagonal
    matrix."""
    a_closed = m.A - m.B @ K
    scale = np.abs(m.A) + np.abs(m.B) @ np.abs(K)
    outside = np.ones(a_closed.shape, dtype=bool)
    for s in blocks:
        outside[np.ix_(s, s)] = False
    assert np.all(np.abs(a_closed[outside]) <= off_rtol * scale[outside])
    for s, chain in zip(blocks, poles):
        assert spectrum_matches(a_closed[np.ix_(s, s)], chain)


@settings(max_examples=300, deadline=None)
@given(p=quad_params, chains=st.tuples(wide_chain(2), wide_chain(4), wide_chain(4), wide_chain(2)))
def test_6dof_design_hits_wide_pole_sets(p, chains):
    spec = PoleSpec(z=chains[0], roll=chains[1], pitch=chains[2], yaw=chains[3])
    m = build_6dof(p)
    gains = design_6dof_gains(p, spec)
    blocks = ((2, 5), (1, 4, 6, 9), (0, 3, 7, 10), (8, 11))
    assert_chain_spectra(m, gains.K, blocks, chains, 0.0)


@settings(max_examples=300, deadline=None)
@given(p=quad_params, chains=st.tuples(wide_chain(2), wide_chain(2), wide_chain(2)))
def test_3dof_design_hits_wide_pole_sets(p, chains):
    spec = PoleSpec(roll=chains[0], pitch=chains[1], yaw=chains[2])
    m = build_3dof(p)
    gains = design_3dof_gains(p, spec)
    assert_chain_spectra(m, gains.K, ((0, 3), (1, 4), (2, 5)), chains, 1e-12)


@settings(max_examples=100, deadline=None)
@given(p=quad_params,
       chains=st.tuples(wide_chain(2, 0.0), wide_chain(4, 0.0), wide_chain(4, 0.0),
                        wide_chain(2, 0.0)),
       dt=st.floats(-4.0, -2.0).map(lambda e: 10.0 ** e), dof=st.sampled_from([6, 3]))
def test_sampled_loop_check_agrees_with_the_spectral_radius(p, chains, dt, dof):
    # poles of 1..1000 rad/s keep most loops 1e-3 or more from the unit
    # circle at these steps, on either side of it
    if dof == 6:
        spec = PoleSpec(z=chains[0], roll=chains[1], pitch=chains[2], yaw=chains[3])
        m, gains = build_6dof(p), design_6dof_gains(p, spec)
    else:
        # two poles per 3DOF chain
        spec = PoleSpec(roll=chains[0], pitch=chains[3], yaw=chains[1][:2])
        m, gains = build_3dof(p), design_3dof_gains(p, spec)
    phi, gamma = zoh_discretize(m, dt)
    radius = np.max(np.abs(np.linalg.eigvals(phi - gamma @ gains.K)))
    assume(abs(radius - 1.0) > 1e-3)  # numpy's radius decides only away from the circle
    try:
        check_sampled_loop(m, gains.K, dt)
        stable = True
    except UnstableSampledLoop:
        stable = False
    assert stable == (radius < 1.0)


def test_sampled_loop_check_at_the_cli_repro(params):
    m = build_6dof(params)
    gains = design_6dof_gains(params, PoleSpec.uniform_6dof(-300.0))
    with pytest.raises(UnstableSampledLoop, match=r"unstable at dt=0\.01;"):
        check_sampled_loop(m, gains.K, 0.01)
    check_sampled_loop(m, gains.K, 0.001)
    # slow poles at a fine step sit just inside the unit circle
    gains = design_6dof_gains(params, PoleSpec.uniform_6dof(-0.01))
    check_sampled_loop(m, gains.K, 1e-4)


U4 = 0.511127743816468  # the least positive root of u^3 - 12 u + 6
OFF_DESK = QuadParams(m=37, d=0.001, c=3, Ix=1e5, Iy=1e-4, Iz=7)


@pytest.mark.parametrize("p", [P, OFF_DESK], ids=["desk", "off-desk"])
@pytest.mark.parametrize("a", [2.0 ** -10, 2.0, 2.0 ** 8, 2.0 ** 130])
@pytest.mark.parametrize("dof,u,unstable", [(6, U4, (U4 * (1 + 1e-9),)),
                                            (3, 1.0, (1.0, 1 + 1e-9))], ids=["6dof", "3dof"])
def test_sampled_gate_flips_at_the_uniform_pole_threshold(p, a, dof, u, unstable):
    # with every pole at -a, a chain of k integrators under ZOH at step dt has
    # a sampled loop that depends on a dt alone, and is stable iff a dt < u_k:
    # u_2 = 1, where z = -1, and u_4 = U4, the 6DOF roll and pitch chains'
    spec = PoleSpec.uniform_6dof(-a) if dof == 6 else PoleSpec.uniform_3dof(-a)
    a_rows, b_rows = model_rows(p, dof)
    K = design_rows(p, spec, dof)
    check_sampled_rows(a_rows, b_rows, K, u * (1 - 1e-9) / a)
    for a_dt in unstable:
        with pytest.raises(UnstableSampledLoop):
            check_sampled_rows(a_rows, b_rows, K, a_dt / a)


def _pole_set(size, least_damping=-6.0):
    """A conjugate-closed set of size stable poles, |p| from 0.1 to 30:
    real poles and complex pairs r (-zeta +- i sqrt(1 - zeta^2)), with the
    damping zeta log-uniform from 10^least_damping to 1. Far below 1e-6, a
    6DOF chain's rounded gains need not be Hurwitz, and the design refuses
    the request as a PolePlacementError
    (test_near_undamped_pairs_that_float64_cannot_hold_are_refused)."""
    magnitude = st.floats(-1.0, math.log10(30.0)).map(lambda e: 10.0 ** e)
    real = magnitude.map(lambda r: (-r,))
    damping = st.floats(least_damping, 0.0, exclude_max=True).map(lambda e: 10.0 ** e)
    pair = st.tuples(magnitude, damping).map(
        lambda rz: (rz[0] * complex(-rz[1], math.sqrt(1.0 - rz[1] ** 2)),
                    rz[0] * complex(-rz[1], -math.sqrt(1.0 - rz[1] ** 2))))
    return st.integers(0, size // 2).flatmap(
        lambda pairs: st.tuples(*[pair] * pairs, *[real] * (size - 2 * pairs))).map(
        lambda groups: tuple(s for group in groups for s in group))


def _sampled_verdict(p, spec, dof, dt):
    a_rows, b_rows = model_rows(p, dof)
    try:
        check_sampled_rows(a_rows, b_rows, design_rows(p, spec, dof), dt)
    except UnstableSampledLoop:
        return "unstable"
    return "stable"


@settings(max_examples=300, deadline=None)
@given(dof=st.sampled_from([6, 3]), data=st.data(),
       dt=st.floats(-3.0, math.log10(0.3)).map(lambda e: 10.0 ** e), k=st.integers(-30, 30))
def test_sampled_gate_is_invariant_over_random_pole_sets(dof, data, dt, k):
    # the sampled loop depends on the products p_i dt alone: the verdict is
    # equal under (poles, dt) -> (2^k poles, dt / 2^k), both exact, and under
    # a change of the vehicle parameters, which cancel against the gains
    sets = {ch.name: data.draw(_pole_set(len(ch.states)), label=ch.name) for ch in CHAINS[dof]}
    scaled = {name: tuple(2.0 ** k * s for s in poles) for name, poles in sets.items()}
    verdict = _sampled_verdict(P, PoleSpec(**sets), dof, dt)
    assert _sampled_verdict(P, PoleSpec(**scaled), dof, dt / 2.0 ** k) == verdict
    assert _sampled_verdict(OFF_DESK, PoleSpec(**sets), dof, dt) == verdict


def _pair(re, im):
    return complex(re, im), complex(re, -im)


@pytest.mark.parametrize("chain", [
    pytest.param("pitch", id="one-pair-at-zeta-1.6e-16"),
    pytest.param("roll", id="two-pairs-at-zeta-1e-12-and-1e-4"),
])
def test_near_undamped_pairs_that_float64_cannot_hold_are_refused(chain):
    # PoleSpec accepts pairs this close to the imaginary axis, but the rounded
    # gains of a 6DOF 4-chain need not be Hurwitz. At desk parameters they
    # are; at OFF_DESK they are not, and the request is refused
    poles = {"pitch": _pair(-0.27732327736596635, 0.9607766649076149)
                      + _pair(-1.6081226496766364e-16, 1.0),
             "roll": _pair(-1e-4, 0.9999999949999999) + _pair(-1e-12, 1.0)}[chain]
    spec = PoleSpec(**{"z": (-1.0,) * 2, "roll": (-1.0,) * 4, "pitch": (-1.0,) * 4,
                       "yaw": (-1.0,) * 2, chain: poles})
    design_rows(P, spec, 6)
    with pytest.raises(PolePlacementError, match=r"^the requested poles are too near the "
                                                 r"imaginary axis for float64: "):
        design_rows(OFF_DESK, spec, 6)


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from([P, OFF_DESK]), dof=st.sampled_from([6, 3]), data=st.data())
def test_near_undamped_pairs_design_a_hurwitz_loop_or_are_refused(p, dof, data):
    # with damping down to 1e-18, a request either designs a loop whose every
    # chain block is exactly Hurwitz, or is refused; nothing else is raised
    sets = {ch.name: data.draw(_pole_set(len(ch.states), -18.0), label=ch.name)
            for ch in CHAINS[dof]}
    try:
        K = design_rows(p, PoleSpec(**sets), dof)
    except PolePlacementError:
        return
    assert _chains_stable(*model_rows(p, dof), K, sampled=False) is True


def test_sampled_block_with_an_eigenvalue_at_minus_one_fails():
    # F + I is singular: |z| = 1 is not strictly inside the unit circle
    b, K = np.zeros((12, 4)), np.zeros((4, 12))
    assert _chains_stable(-np.eye(12), b, K, sampled=True) is False
    assert _chains_stable(0.5 * np.eye(12), b, K, sampled=True) is True


def _sampled_blocks(block):
    """a, b and K whose sampled loop is block on the roll chain (4x4) or on
    the roll axis (2x2), and stable elsewhere; b K = 0."""
    n = 12 if len(block) == 4 else 6
    states = (1, 4, 6, 9) if n == 12 else (0, 3)
    a = 0.5 * np.eye(n)
    a[np.ix_(states, states)] = block
    return a, np.zeros((n, 4)), np.zeros((4, n))


@pytest.mark.parametrize("block", [
    pytest.param([[-1.0, 0.0], [0.0, 0.5]], id="z=-1"),
    pytest.param([[0.0, 1.0], [1.0, 0.0]], id="z=+-1"),
    pytest.param([[1.0, 0.0], [0.25, 0.5]], id="z=+1"),
    pytest.param([[0.0, 1.0], [-1.0, 0.0]], id="z=+-i"),
    pytest.param([[0.0, 1.0, 0, 0], [-1.0, 0.0, 0, 0], [0, 0, 0.5, 0], [0, 0, 0, 0.25]],
                 id="4x4-z=+-i"),
    pytest.param([[0.5, 1.0, 0, 0], [0, 0.5, 0, 0], [0, 0, 0.0, 1.0], [0, 0, -1.0, -2.0]],
                 id="4x4-z=-1-twice"),
])
def test_sampled_blocks_on_the_unit_circle_fail(block):
    # |z| = 1 is not strictly inside: z = -1 drops the bilinear polynomial's
    # degree, z = +1 puts its root at w = 0 and z = +-i at w = +-i
    assert _chains_stable(*_sampled_blocks(np.array(block)), sampled=True) is False


@settings(max_examples=300, deadline=None)
@given(f=st.sampled_from([2, 4]).flatmap(
    lambda n: st.lists(st.floats(-1.5, 1.5), min_size=n * n, max_size=n * n).map(
        lambda v: np.array(v).reshape(n, -1))))
@example(f=np.array([[0.0, 0.999998], [-0.999998, 0.0]]))
@example(f=np.array([[0.0, 1.000002], [-1.000002, 0.0]]))
def test_sampled_gate_agrees_with_the_eigenvalue_moduli(f):
    moduli = np.abs(np.linalg.eigvals(f))
    assume(np.min(np.abs(moduli - 1.0)) >= 1e-6)
    assert _chains_stable(*_sampled_blocks(f), sampled=True) is bool(np.all(moduli < 1.0))


def test_closed_loop_entries_outside_the_chain_blocks_must_vanish():
    a, b, K = -np.eye(12), np.zeros((12, 4)), np.zeros((4, 12))
    assert _chains_stable(a, b, K, sampled=False) is True
    a[2, 0] = 1e-300  # z row, x column: a different chain
    assert _chains_stable(a, b, K, sampled=False) is False
    # 3DOF has the same rule, however large the mixer's products there
    a, b, K = -np.eye(6), np.zeros((6, 4)), np.zeros((4, 6))
    b[0, :2] = 1.0
    K[:2, 1] = (1.0, -1.0)  # (b K)[0, 1] cancels to exactly 0
    assert _chains_stable(a, b, K, sampled=False) is True
    a[0, 1] = 1e-300  # phi row, theta column: a different axis
    assert _chains_stable(a, b, K, sampled=False) is False


def test_closed_loop_check_takes_its_chain_table_from_the_state_count():
    a, b, K = -np.eye(4), np.zeros((4, 4)), np.zeros((4, 4))
    with pytest.raises(ValueError, match=r"^no chain table has 4 states; a closed loop has 12 or 6$"):
        _chains_stable(a, b, K, sampled=False)


@pytest.mark.parametrize("dof,pole", [(6, -1e100), (6, -1e80), (6, -2e77), (6, -1e-78),
                                      (6, -1e-300), (3, -1e160), (3, -1e-155), (3, -1e-300)])
def test_poles_beyond_float64_are_refused_as_a_request_error(params, dof, pole):
    # the true gains are finite and nonzero; the computed ones overflow, or
    # underflow to subnormals or 0
    design, spec = ((design_6dof_gains, PoleSpec.uniform_6dof) if dof == 6
                    else (design_3dof_gains, PoleSpec.uniform_3dof))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PolePlacementError, match=r"^the requested poles are too extreme"):
            design(params, spec(pole))


@pytest.mark.parametrize("pole,dt", [pytest.param(-1e-60, 1e-3, id="-1e-60"),
                                     pytest.param(-1e-20, 1e-3, id="-1e-20"),
                                     pytest.param(-1e-75, 1e-6, id="-1e-75-dt1e-06")])
def test_slow_poles_are_designed_and_checked_at_their_own_scale(params, pole, dt):
    # the Routh array of (s + 1e-60)^4 underflowed, 1 + (F - I) rounded a
    # slow sampled loop onto the unit circle, and at -1e-75 with dt 1e-6 the
    # coefficients of a float bilinear block underflowed; all are stable
    for m, gains in ((build_6dof(params), design_6dof_gains(params, PoleSpec.uniform_6dof(pole))),
                     (build_3dof(params), design_3dof_gains(params, PoleSpec.uniform_3dof(pole)))):
        check_sampled_loop(m, gains.K, dt)


def test_poles_with_normal_gains_are_designed_and_checked_at_their_dt(params):
    # gains of about 1e237 and block coefficients up to 1e240 are normal
    # floats; only a float recursion's intermediate products overflowed
    m = build_6dof(params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gains = design_6dof_gains(params, PoleSpec.uniform_6dof(-1e60))
        with pytest.raises(UnstableSampledLoop):
            check_sampled_loop(m, gains.K, 1e-3)
        check_sampled_loop(m, gains.K, 1e-62)


GRID_PARAMS = (
    P,
    QuadParams(m=1.0, d=0.0625, c=4.845750806847613, Ix=1.0, Iy=20.0, Iz=0.0625, g=1.0),
    QuadParams(m=1e-3, d=1e3, c=1e-4, Ix=1e-6, Iy=1e4, Iz=1e2, g=9.81),
)


@pytest.mark.filterwarnings("error")
def test_verdict_grid():
    # desk, cancelling-mixer and extreme parameters x both models x uniform
    # poles -1e-320 .. -1e308 in whole decades x three steps: every request
    # runs, is unstable at its dt (exit 4) or has gains or a closed loop
    # beyond float64 (exit 2); no design is refused as not Hurwitz
    verdicts = collections.Counter()
    for p in GRID_PARAMS:
        for dof, model, design, uniform in (
                (6, build_6dof(p), design_6dof_gains, PoleSpec.uniform_6dof),
                (3, build_3dof(p), design_3dof_gains, PoleSpec.uniform_3dof)):
            for e in range(-320, 309):
                try:
                    K = design(p, uniform(-(10.0 ** e))).K
                except PolePlacementError as refusal:
                    assert str(refusal) == _OUT_OF_RANGE
                    verdicts[dof, 2] += 3
                    continue
                for dt in (1e-6, 1e-3, 0.3):
                    try:
                        check_sampled_loop(model, K, dt)
                        verdicts[dof, 0] += 1
                    except UnstableSampledLoop:
                        verdicts[dof, 4] += 1
    assert verdicts == {(6, 0): 711, (6, 4): 666, (6, 2): 4284,
                        (3, 0): 1395, (3, 4): 1332, (3, 2): 2934}


def _real_pole_set(size):
    """size real stable poles, as --poles reads them: magnitudes of any
    exponent, subnormal to 1e308, or in the desk band 0.1 to 100, each
    drawn from a few distinct values, so that some are tied."""
    magnitude = st.one_of(st.floats(-320.0, 308.0), st.floats(-1.0, 2.0)).map(lambda e: 10.0 ** e)
    return st.lists(magnitude, min_size=1, max_size=size).flatmap(
        lambda distinct: st.lists(st.sampled_from(distinct), min_size=size, max_size=size)).map(
        lambda magnitudes: tuple(-r for r in magnitudes))


@settings(max_examples=300, deadline=None)
@given(p=st.sampled_from((OFF_DESK,) + GRID_PARAMS), dof=st.sampled_from([6, 3]), data=st.data())
def test_real_pole_sets_design_or_leave_float64(p, dof, data):
    # --poles reads real values only, so `sim` never meets the not-Hurwitz
    # refusal: every real set designs, or its gains or closed loop leave float64
    sets = {ch.name: data.draw(_real_pole_set(len(ch.states)), label=ch.name)
            for ch in CHAINS[dof]}
    try:
        design_rows(p, PoleSpec(**sets), dof)
    except PolePlacementError as e:
        assert str(e) == _OUT_OF_RANGE


def per_block_verdict(a, b, K, sampled: bool) -> bool:
    """_chains_stable with each chain block on its own shift: char_poly_ints
    of the block, through the bilinear map at T = 2^(s+1) when sampled, then
    is_hurwitz_ints. The loop is formed in _chains_stable's order of
    operations, (a - I) - b K when sampled, so every entry has its bits."""
    n = len(a)
    d = [[(x - (i == c) if sampled else x) - y for c, (x, y) in enumerate(zip(ra, rb))]
         for i, (ra, rb) in enumerate(zip(a, matmul(b, K)))]
    if not all(math.isfinite(x) for row in d for x in row):
        if sampled:
            return False
        raise PolePlacementError("a closed-loop entry overflows")
    chains = next(c for c in CHAINS.values() if sum(len(ch.states) for ch in c) == n)
    block = {i: ch.name for ch in chains for i in ch.states}
    if any(d[i][c] and block[i] != block[c] for i in range(n) for c in range(n)):
        return False
    for ch in chains:
        poly, s = char_poly_ints([[d[i][j] for j in ch.states] for i in ch.states])
        if sampled:
            k_max, q = len(poly) - 1, [0] * len(poly)
            for k, c in enumerate(poly):
                for j in range(k + 1):
                    q[k - j] += (-1) ** j * math.comb(k, j) * (c << (s + 1) * (k_max - k))
            if not q[0]:
                return False
            poly = q
        if not is_hurwitz_ints(poly):
            return False
    return True


@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from(GRID_PARAMS), dof=st.sampled_from([6, 3]), e=st.integers(-155, 155),
       dt=st.sampled_from([1e-6, 1e-3, 0.3]))
def test_one_shift_for_the_loop_gives_the_per_block_verdicts_on_the_grid(p, dof, e, dt):
    # test_verdict_grid's requests, where a design exists (|e| <= 76 on 6DOF)
    spec = (PoleSpec.uniform_6dof if dof == 6 else PoleSpec.uniform_3dof)(-(10.0 ** e))
    try:
        K = design_rows(p, spec, dof)
    except PolePlacementError:
        assume(False)
    a, b = model_rows(p, dof)
    assert _chains_stable(a, b, K, sampled=False) is per_block_verdict(a, b, K, False) is True
    phi, gamma = expm_rows(a, b, dt)
    assert _chains_stable(phi, gamma, K, sampled=True) is per_block_verdict(phi, gamma, K, True)


def scaled_blocks(dof, blocks, exponents):
    """A block-diagonal loop a, with b K = 0, whose chain blocks are the
    given square lists, each times 2^e."""
    n = 12 if dof == 6 else 6
    a = [[0.0] * n for _ in range(n)]
    for ch, blk, e in zip(CHAINS[dof], blocks, exponents):
        for r, i in enumerate(ch.states):
            for c, j in enumerate(ch.states):
                a[i][j] = math.ldexp(blk[r][c], e)
    return a, [[0.0] * 4 for _ in range(n)], [[0.0] * n for _ in range(4)]


def block_loops(dof):
    """(dof, one square block per chain with entries in [-1.5, 1.5], one
    binary exponent per block from -1070 to 1000)."""
    sizes = [len(ch.states) for ch in CHAINS[dof]]
    blocks = st.tuples(*(st.lists(st.lists(st.floats(-1.5, 1.5), min_size=k, max_size=k),
                                  min_size=k, max_size=k) for k in sizes))
    exponents = st.lists(st.integers(-1070, 1000), min_size=len(sizes), max_size=len(sizes))
    return st.tuples(st.just(dof), blocks, exponents)


# 6DOF loops whose z, roll, pitch and yaw blocks sit at 2^-1070, 2^-40, 2^0
# and 2^900, stable in every block: the one shift of the loop, about 1,070,
# comes from the z block, and the yaw block alone needs none. WIDE_A is
# Hurwitz, and WIDE_F has every eigenvalue inside the unit circle (its yaw
# block is nilpotent)
WIDE_EXPONENTS = [-1070, -40, 0, 900]
WIDE_A = (6, ([[0.0, 1.0], [-1.0, -1.5]],
              [[-1.0, 1.0, 0.0, 0.0], [0.0, -1.0, 1.0, 0.0], [0.0, 0.0, -1.0, 1.0],
               [-0.5, 0.25, 0.0, -1.0]],
              [[-0.5, 1.0, 0.0, 0.0], [0.0, -0.5, 0.0, 0.0], [0.0, 0.0, -0.5, 1.0],
               [0.0, 0.0, 0.0, -0.25]],
              [[-0.25, 1.5], [-1.5, -0.25]]), WIDE_EXPONENTS)
WIDE_F = (6, ([[0.5, 1.0], [-1.0, -1.5]],
              [[0.5, 1.0, 0.0, 0.0], [0.0, -0.5, 1.0, 0.0], [0.0, 0.0, 0.25, 1.0],
               [-0.5, 0.25, 0.0, -0.25]],
              [[-0.5, 1.0, 0.0, 0.0], [0.0, -0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 1.0],
               [0.0, 0.0, 0.0, 0.25]],
              [[0.0, 1.5], [0.0, 0.0]]), WIDE_EXPONENTS)


@settings(max_examples=200, deadline=None)
@given(loop=st.sampled_from([6, 3]).flatmap(block_loops), sampled=st.booleans())
@example(loop=WIDE_A, sampled=False)
@example(loop=WIDE_F, sampled=True)
def test_one_shift_for_the_loop_gives_the_per_block_verdicts_far_apart(loop, sampled):
    a, b, K = scaled_blocks(*loop)
    assert _chains_stable(a, b, K, sampled) is per_block_verdict(a, b, K, sampled)


def test_the_pinned_far_apart_loops_are_stable():
    assert _chains_stable(*scaled_blocks(*WIDE_A), sampled=False) is True
    assert _chains_stable(*scaled_blocks(*WIDE_F), sampled=True) is True


@pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0, -1e-3])
def test_sampled_checks_refuse_a_step_that_is_not_finite_and_positive(params, dt):
    # before, nan, 0 and -1e-3 were refused as "unstable at dt=..."
    m = build_6dof(params)
    K = design_6dof_gains(params, PoleSpec.uniform_6dof(-2.0)).K
    with pytest.raises(ValueError, match=r"^the sampled loop needs a finite step dt > 0, got "):
        check_sampled_loop(m, K, dt)
    with pytest.raises(ValueError, match=r"^the sampled loop needs a finite step dt > 0, got "):
        check_sampled_rows(m.A.tolist(), m.B.tolist(), K.tolist(), dt)


def test_the_design_check_refuses_a_zeroed_gain(params):
    # a gain the bookkeeping left at 0 fails the check that every design
    # passes, and is not read as float64 running out
    m = build_6dof(params)
    K = design_6dof_gains(params, PoleSpec.uniform_6dof(-2.0)).K.copy()
    K.flat[np.flatnonzero(K)[0]] = 0.0
    assert _chains_stable(m.A.tolist(), m.B.tolist(), K.tolist(), sampled=False) is False


@pytest.mark.parametrize("dt", [1e80, 1e300])
def test_a_sampled_loop_beyond_float64_is_unstable_at_its_dt(params, dt):
    # Phi and Gamma K overflow: the request's dt, not its poles, is at fault
    m = build_6dof(params)
    gains = design_6dof_gains(params, PoleSpec.uniform_6dof(-2.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnstableSampledLoop):
            check_sampled_loop(m, gains.K, dt)


def test_3dof_design_keeps_cancelling_mixer_products_apart():
    # d/Iy is small and c/Iz large: the yaw row of B K cancels products of
    # 1.2e5. A fused multiply-add left 1.2e-11 of them outside the blocks,
    # and the check refused the design; summed from separately rounded
    # products they cancel to exactly 0
    p = QuadParams(m=1.0, d=0.0625, c=4.845750806847613, Ix=1.0, Iy=20.0, Iz=0.0625, g=1.0)
    spec = PoleSpec(roll=(-1.0, -10.0), pitch=(-1.0, -10.0), yaw=(-1.0, -10.0))
    m = build_3dof(p)
    gains = design_3dof_gains(p, spec)
    assert_chain_spectra(m, gains.K, ((0, 3), (1, 4), (2, 5)), (spec.roll, spec.pitch, spec.yaw),
                         1e-12)


def test_6dof_pole_count_mismatch(params):
    with pytest.raises(PoleCountMismatch, match=r"^6DOF roll chain needs 4 poles, got 3$"):
        design_6dof_gains(params, PoleSpec(z=(-1.0,) * 2, roll=(-1.0,) * 3,
                                           pitch=(-1.0,) * 4, yaw=(-1.0,) * 2))


# ---------------------------------------------------------------- 3DOF design


def test_3dof_placement_hits_target(params):
    m = build_3dof(params)
    spec = PoleSpec(roll=(-1.0, -2.0), pitch=(-1.0, -2.0), yaw=(-1.0, -2.0))
    gains = design_3dof_gains(params, spec)
    assert gains.K.shape == (4, 6)
    achieved = char_poly(m.A - m.B @ gains.K)
    target = poles_to_monic([-1.0, -2.0] * 3)  # (s^2+3s+2)^3
    np.testing.assert_allclose(achieved, target, rtol=1e-8, atol=1e-10)
    assert is_hurwitz(achieved)


def test_3dof_force_rows_add_no_net_thrust(params):
    gains = design_3dof_gains(params, PoleSpec.uniform_3dof(-2.0))
    # column sums vanish: the four rotors never change total thrust
    assert_close(np.sum(gains.K, axis=0), np.zeros(6), rel=1e-12)


def test_3dof_pole_count_mismatch(params):
    with pytest.raises(PoleCountMismatch, match=r"^3DOF roll axis needs 2 poles, got 3$"):
        design_3dof_gains(params, PoleSpec(roll=(-1.0, -2.0, -3.0),
                                           pitch=(-1.0, -2.0), yaw=(-1.0, -2.0)))


def test_3dof_rejects_poles_for_the_z_chain_it_lacks(params):
    spec = PoleSpec(z=(-1.0, -2.0), roll=(-1.0, -2.0), pitch=(-1.0, -2.0), yaw=(-1.0, -2.0))
    with pytest.raises(PoleCountMismatch, match=r"^3DOF z axis needs 0 poles, got 2$"):
        design_3dof_gains(params, spec)


def test_uniform_specs_follow_the_chain_tables():
    for spec, chains in ((PoleSpec.uniform_6dof(-3.0), CHAINS_6DOF),
                         (PoleSpec.uniform_3dof(-3.0), CHAINS_3DOF)):
        sizes = {ch.name: len(ch.states) for ch in chains}
        for name in ("z", "roll", "pitch", "yaw"):
            assert getattr(spec, name) == (-3.0 + 0j,) * sizes.get(name, 0)


# ---------------------------------------------------------------- closed loop behavior


def test_6dof_chains_stay_decoupled(params):
    m = build_6dof(params)
    gains = design_6dof_gains(params, PoleSpec.uniform_6dof(-2.0))
    x0 = np.zeros(12)
    x0[2], x0[5] = 0.4, -0.1  # z-chain only
    traj = simulate(m, x0, lambda t, x: gains.feedback_input(x),
                    SimConfig(t_final=2.0, dt=0.001))
    others = [j for j in range(12) if j not in (2, 5)]
    assert np.max(np.abs(traj.states[:, others])) <= 1e-10


def test_6dof_regulation_matches_modal_oracle(params):
    # the closed loop is fully determined by the chain structure; compare the
    # simulated decay against the continuous-time matrix exponential
    m = build_6dof(params)
    gains = design_6dof_gains(params, PoleSpec.uniform_6dof(-2.0))
    x0 = np.zeros(12)
    x0[0] = x0[1] = x0[2] = 0.5
    x0[6] = x0[7] = 0.05
    traj = simulate(m, x0, lambda t, x: gains.feedback_input(x),
                    SimConfig(t_final=5.0, dt=0.001))
    oracle = scipy.linalg.expm((m.A - m.B @ gains.K) * 5.0) @ x0
    # discrete (sampled feedback) vs continuous: agree to ~dt
    np.testing.assert_allclose(traj.states[-1], oracle, rtol=0.0, atol=2e-4)
    ratio = np.linalg.norm(traj.states[-1]) / np.linalg.norm(x0)
    # repeated poles at -2 leave t^3 e^(-2t) transients: the norm has only
    # decayed to ~1.75e-2 of the initial value by t = 5 s
    assert ratio == pytest.approx(1.754e-2, rel=1e-2)


def test_6dof_regulation_converges_given_time(params):
    m = build_6dof(params)
    gains = design_6dof_gains(params, PoleSpec.uniform_6dof(-2.0))
    x0 = np.zeros(12)
    x0[0] = x0[1] = x0[2] = 0.5
    x0[6] = x0[7] = 0.05
    traj = simulate(m, x0, lambda t, x: gains.feedback_input(x),
                    SimConfig(t_final=8.0, dt=0.001))
    assert np.linalg.norm(traj.states[-1]) < 1e-3 * np.linalg.norm(x0)


def test_3dof_regulation(params):
    m = build_3dof(params)
    gains = design_3dof_gains(params, PoleSpec.uniform_3dof(-2.0))
    x0 = np.array([0.3, -0.2, 0.5, 0.0, 0.0, 0.0])
    traj = simulate(m, x0, lambda t, x: gains.feedback_input(x),
                    SimConfig(t_final=8.0, dt=0.001))
    assert np.linalg.norm(traj.states[-1]) < 1e-3 * np.linalg.norm(x0)


def test_gain_matrix_feedback_with_reference(params):
    gains = design_6dof_gains(params, PoleSpec.uniform_6dof(-1.0))
    x = np.zeros(12)
    r = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(gains.feedback_input(x, r), r)


def test_gain_matrix_shape_check():
    with pytest.raises(PolePlacementError):
        GainMatrix(np.zeros((4, 11)), state_labels=("s",) * 12, input_labels=("u",) * 4)
