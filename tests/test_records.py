"""The ten frozen record classes: construction, validation, equality, hash,
repr, frozenness, pickle and copy, checked the same way for each."""

import copy
import pickle
from types import SimpleNamespace

import numpy as np
import pytest

import quadmodel as qm
from quadmodel.models import Chain

# class: (field names in order, one value per field, the defaults of the
# trailing fields, one field=value that its __post_init__ refuses, or None)
RECORDS = {
    qm.QuadParams: ("m d c Ix Iy Iz g", (0.5, 0.25, 0.01, 0.01, 0.01, 0.02, 9.8),
                    {"g": 9.81}, None),
    Chain: ("name input_row states inertia tilt", ("roll", 1, (1, 4, 6, 9), "Ix", 1),
            {"tilt": 0}, None),
    qm.StateSpaceModel: (
        "A B C D state_labels input_labels output_labels",
        (np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]]),
         np.array([[1.0, 0.0]]), np.array([[0.0]]), ("x", "v"), ("u",), ("y",)),
        {}, ("A", [1.0, 2.0])),
    qm.PoleSpec: ("z roll pitch yaw", ((-1 + 0j, -2 + 0j), (-1 + 0j,) * 4, (-2 + 0j,) * 4,
                                        (-3 + 0j, -4 + 0j)),
                  {"z": (), "roll": (), "pitch": (), "yaw": ()}, ("z", (1.0,))),
    qm.GainMatrix: ("K state_labels input_labels",
                    (np.array([[1.0, 2.0]]), ("x", "v"), ("u",)), {}, ("K", [[1.0]])),
    qm.SimConfig: ("t_final dt integrator plant", (1.0, 0.01, "rk4", "nonlinear_6dof"),
                   {"dt": 0.001, "integrator": "exact_zoh", "plant": "linear_6dof"},
                   ("dt", 2.0)),
    qm.Trajectory: ("times states inputs state_labels input_labels",
                    (np.arange(3.0), np.zeros((3, 2)), np.ones((3, 1)), ("x", "v"), ("u",)),
                    {}, None),
    qm.RotorForces: ("f1 f2 f3 f4", (1.0, 2.0, -3.0, 4.0), {}, ("f3", float("inf"))),
    qm.GeneralizedInput: ("u1 u2 u3 u4", (0.5, -1.0, 0.0, 2.0), {}, ("u1", float("nan"))),
    qm.AnalysisReport: (
        "controllability_rank observability_rank is_controllable is_observable "
        "open_loop_char_poly stability_class nilpotency_index",
        (12, 12, True, True, (1.0, 0.0, 0.0), "marginal_or_unstable", 3), {}, None),
}
CLASSES = list(RECORDS)
# classes with an ndarray field: no hash, and == only for shared arrays
WITH_ARRAYS = {qm.StateSpaceModel, qm.GainMatrix, qm.Trajectory}


def _spec(cls):
    names, values, defaults, bad = RECORDS[cls]
    return names.split(), values, defaults, bad


def _same(a, b, names):
    """Equal class and fields, arrays compared by value."""
    assert type(a) is type(b)
    for name in names:
        x, y = getattr(a, name), getattr(b, name)
        assert np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y, name


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_construction_by_position_keyword_and_defaults(cls):
    names, values, defaults, _ = _spec(cls)
    assert cls.__match_args__ == tuple(names)  # positional match patterns
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(reversed(names), reversed(values))))
    _same(by_position, by_keyword, names)
    for name, value in zip(names, values):
        got = getattr(by_position, name)
        assert np.array_equal(got, value) if isinstance(got, np.ndarray) else got == value
    required = values[: len(names) - len(defaults)]
    with_defaults = cls(*required)
    for name in defaults:
        assert getattr(with_defaults, name) == defaults[name]
        assert getattr(cls(**dict(zip(names, required))), name) == defaults[name]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_bad_arguments_raise_type_error(cls):
    names, values, defaults, _ = _spec(cls)
    with pytest.raises(TypeError):
        cls(*values, values[0])  # one positional too many
    with pytest.raises(TypeError):
        cls(*values, no_such_field=1)
    with pytest.raises(TypeError):
        cls(*values[:1], **{names[0]: values[0]})  # given twice
    required = len(names) - len(defaults)
    if required:
        with pytest.raises(TypeError):
            cls(*values[: required - 1])


@pytest.mark.parametrize("cls", [c for c in CLASSES if RECORDS[c][3]], ids=lambda c: c.__name__)
def test_post_init_validates_every_construction(cls):
    names, values, _, (field, bad) = _spec(cls)
    kwargs = dict(zip(names, values), **{field: bad})
    with pytest.raises(ValueError):
        cls(**kwargs)
    with pytest.raises(ValueError):
        cls(*kwargs.values())


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equality_and_hash(cls):
    names, values, _, _ = _spec(cls)
    record = cls(*values)
    twin = cls(*values)
    assert record == record and not record != record
    assert record == copy.copy(record)
    assert record != SimpleNamespace(**dict(zip(names, values)))
    assert record != tuple(values)
    if cls in WITH_ARRAYS:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
        return
    assert record == twin and hash(record) == hash(twin)
    assert hash(record) == hash(tuple(getattr(record, n) for n in names))
    assert {record: 1}[twin] == 1
    changed = dict(zip(names, values), **{names[-1]: RECORDS[cls][2].get(names[-1], 0)})
    assert cls(**changed) != record


def test_records_of_different_classes_with_equal_fields_differ():
    forces, inputs = qm.RotorForces(1.0, 2.0, 3.0, 4.0), qm.GeneralizedInput(1.0, 2.0, 3.0, 4.0)
    assert forces.as_tuple() == inputs.as_tuple()
    assert forces != inputs and not forces == inputs


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_repr_names_every_field(cls):
    names, values, _, _ = _spec(cls)
    record = cls(*values)
    fields = ", ".join(f"{n}={getattr(record, n)!r}" for n in names)
    assert repr(record) == f"{cls.__qualname__}({fields})"


def test_repr_text():
    assert repr(qm.RotorForces(1.0, 2.0, 3.0, 4.0)) == "RotorForces(f1=1.0, f2=2.0, f3=3.0, f4=4.0)"
    assert repr(qm.SimConfig(1.0)) == (
        "SimConfig(t_final=1.0, dt=0.001, integrator='exact_zoh', plant='linear_6dof')")


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_assignment_and_deletion_raise_attribute_error(cls):
    names, values, _, _ = _spec(cls)
    record = cls(*values)
    before = repr(record)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.no_such_field = 1
    assert repr(record) == before


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_pickle_and_copy_round_trip(cls):
    names, values, _, _ = _spec(cls)
    record = cls(*values)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        _same(pickle.loads(pickle.dumps(record, protocol)), record, names)
    _same(copy.copy(record), record, names)
    _same(copy.deepcopy(record), record, names)
    with pytest.raises(AttributeError):
        setattr(copy.copy(record), names[0], values[0])


def test_a_subclass_declaring_no_field_keeps_its_parents_fields_defaults_and_validation():
    class Desk(qm.QuadParams):
        def weight(self):
            return self.m * self.g

    assert (Desk._fields, Desk._field_defaults) == (qm.QuadParams._fields, {"g": 9.81})
    desk = Desk(0.5, 0.25, 0.01, 0.01, 0.01, 0.02)
    assert desk.as_tuple() == (0.5, 0.25, 0.01, 0.01, 0.01, 0.02, 9.81)
    assert desk.weight() == 0.5 * 9.81 and qm.validate(desk) is desk
    with pytest.raises(qm.NonPositiveParameter) as excinfo:
        qm.validate(Desk(0.5, 0.25, 0.01, 0.01, 0.01, -0.02))
    assert excinfo.value.name == "Iz"


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_defaults_and_as_tuple_replace_dataclasses_fields(cls):
    names, values, defaults, _ = _spec(cls)
    assert cls._fields == tuple(names)
    assert cls._field_defaults == defaults
    record = cls(*values)
    assert all(a is b for a, b in zip(record.as_tuple(), map(vars(record).get, names)))
