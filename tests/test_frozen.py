"""The record base `model.Frozen`: a record is its `_fields`, bound by the
base from positional or keyword arguments, and anything else it offers is
derived from them on first read."""
from __future__ import annotations

import timeit

import pytest

from qhopper.coevents import MultiplicativeCoevent, primitive_profile
from qhopper.histories import Event, amplitude_classes, enumerate_histories
from qhopper.measure import sector_tables
from qhopper.model import Frozen, FrozenValue, InitialState, LatticeSpec, initial_state


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


@pytest.fixture(scope="module")
def records():
    """One record of every Frozen subclass the package defines."""
    spec = LatticeSpec(3, 2)
    space = enumerate_histories(spec, initial_state(spec, "plus"), 0)
    classes = amplitude_classes(space)
    event = Event(space, 5)
    built = [
        spec, space.state, space, event, MultiplicativeCoevent(event), classes,
        classes.classes[0], sector_tables(classes)[0], primitive_profile(space),
    ]
    assert {type(r) for r in built} == set(_subclasses(Frozen)) - {FrozenValue}
    return built


def _values(record) -> list:
    return [getattr(record, name) for name in record._fields]


def test_a_record_built_by_position_or_keyword_compares_and_prints_the_same(records):
    for record in records:
        cls, values = type(record), _values(record)
        named = dict(zip(cls._fields, values))
        mixed = dict(list(named.items())[1:])
        for twin in (cls(*values), cls(**named), cls(values[0], **mixed)):
            assert repr(twin) == repr(record)
            assert all(a is b for a, b in zip(_values(twin), values))
            if not isinstance(record, FrozenValue):
                assert twin != record  # identity records
                continue
            assert twin == record and twin._values() == tuple(values)
            if not isinstance(record, InitialState):  # CycInt values have no hash
                assert hash(twin) == hash(record)


def test_a_missing_extra_repeated_or_unknown_argument_raises_type_error(records):
    for record in records:
        cls, values = type(record), _values(record)
        first = cls._fields[0]
        for args, kwargs in (
            (values[:-1], {}),
            ((*values, values[-1]), {}),
            (values, {first: values[0]}),
            (values, {"unknown": 1}),
            (values[:-1], {"unknown": 1}),
        ):
            with pytest.raises(TypeError):
                cls(*args, **kwargs)


def test_the_base_binder_names_the_fields_it_takes(records):
    cls = type(records[-1])  # PrimitiveProfile, bound by the base alone
    takes = r"PrimitiveProfile\(\) takes classes, minimal, once each; got "
    with pytest.raises(TypeError, match=takes + "1 of them$"):
        cls(None)
    with pytest.raises(TypeError, match=takes + "3 of them$"):
        cls(None, None, None)
    with pytest.raises(TypeError, match=takes + "1 of them and 'classes' besides$"):
        cls(None, classes=None)
    with pytest.raises(TypeError, match=takes + "2 of them and 'bogus' besides$"):
        cls(None, None, bogus=None)


def test_only_validating_constructors_define_init_and_none_defines_values(records):
    types = {type(r) for r in records}
    assert {cls for cls in types if "__init__" in vars(cls)} == {LatticeSpec, InitialState, Event}
    assert not [cls for cls in types if "_values" in vars(cls)]


def test_a_lattice_builds_in_constant_time_and_its_phase_row_on_first_read():
    assert min(timeit.repeat(lambda: LatticeSpec(10**9, 2), number=1, repeat=5)) < 1e-3
    huge = LatticeSpec(10**9, 2)
    assert huge.phase_order == 2 * 10**9
    assert "hop_exponents" not in vars(huge)
    spec = LatticeSpec(5, 1)
    assert vars(spec) == {}
    row = spec.hop_exponents
    assert row == (0, 1, 4, 4, 1) and vars(spec) == {"hop_exponents": row}
    assert spec.hop_exponents is row
    for n, steps in ((3.0, 2), (3, 2.0), ("3", 2)):
        with pytest.raises(TypeError):
            LatticeSpec(n, steps)
