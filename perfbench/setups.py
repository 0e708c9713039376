"""What a workload does before its first operation: the part timed as
``setup_s``. Import-light on purpose, because the worker imports it before
it reports ready."""

# Desk-scale vehicle, the same values as params.example.json.
DESK_PARAMS = {"m": 1.0, "d": 0.25, "c": 0.01, "Ix": 0.01, "Iy": 0.01, "Iz": 0.02, "g": 9.81}

# tilt_sweep designs its closed loop once, with every chain at this pole.
TILT_POLE = -3.0


def tilt_setup(tr, params: dict, pole: float) -> dict:
    """Build the 6DOF model and the feedback gain the tilt sweep reuses."""
    import quadmodel as qm

    p = qm.QuadParams(**params)
    model = tr.call("models.build_6dof", qm.build_6dof, p)
    gains = tr.call("stabilize.design_6dof_gains", qm.design_6dof_gains, p,
                    qm.PoleSpec.uniform_6dof(pole))
    h = qm.hover_thrust_per_rotor(p)
    return {"p": p, "model": model, "K": gains.K, "hover": qm.RotorForces(h, h, h, h)}
