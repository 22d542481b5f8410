"""Contracts of the package's record types: equality, hashing, immutability,
pickling and copying, keyword construction, defaults, validation and repr."""
from __future__ import annotations

import copy
import pickle

import pytest

from qhopper import measure
from qhopper.analysis import (
    DiscriminationReport,
    EventVerdicts,
    ShiftSymmetry,
    SymmetryReport,
    discrimination_report,
    ensemble_symmetry_report,
)
from qhopper.coevents import MultiplicativeCoevent, PrimitiveProfile, primitive_profile
from qhopper.cyclotomic import CycInt
from qhopper.histories import (
    AmplitudeClass,
    AmplitudeClasses,
    Event,
    HistorySpace,
    amplitude_classes,
    enumerate_histories,
)
from qhopper.measure import SectorTable, sector_tables
from qhopper.model import InitialState, LatticeSpec, initial_state


@pytest.fixture(scope="module")
def space():
    spec = LatticeSpec(3, 2)
    return enumerate_histories(spec, initial_state(spec, "plus"), 0)


def _kernels(space):
    table = sector_tables(amplitude_classes(space))[0]
    return [measure._sector_kernel(table.values, table.counts) for _ in range(2)], table.counts


def _value_pairs(space):
    """Two separately built, equal instances of each value type."""
    spec = space.spec
    (k1, k2), _ = _kernels(space)
    return [
        (LatticeSpec(3, 2), LatticeSpec(3, 2)),
        (initial_state(spec, "plus"), initial_state(spec, "plus")),
        (Event(space, 5), Event(space, 5)),
        (MultiplicativeCoevent(Event(space, 6)), MultiplicativeCoevent(Event(space, 6))),
        (k1, k2),
    ]


def _identity_records(space):
    """Each record type that compares by identity, and a twin built from the
    same field values."""
    classes = amplitude_classes(space)
    cls = classes.classes[0]
    table = sector_tables(classes)[0]
    profile = primitive_profile(space)
    return [
        (
            space,
            HistorySpace(
                space.spec, space.state, space.final, space.histories, space.amps, space.order
            ),
        ),
        (cls, AmplitudeClass(cls.value, cls.members, cls.count, cls.final)),
        (classes, AmplitudeClasses(space, classes.classes)),
        (
            table,
            SectorTable(
                table.final,
                table.class_ids,
                table.values,
                table.counts,
                table.kernel,
            ),
        ),
        (profile, PrimitiveProfile(profile.classes, profile.minimal)),
    ]


def test_value_types_compare_and_hash_by_value(space):
    for a, b in _value_pairs(space):
        assert a is not b
        assert a == b and not a != b
        if not isinstance(a, InitialState):
            assert hash(a) == hash(b)
    assert LatticeSpec(3, 2) != LatticeSpec(3, 3)
    assert Event(space, 5) != Event(space, 6)
    assert initial_state(space.spec, "plus") != initial_state(space.spec, "minus")
    assert len({LatticeSpec(3, 2), LatticeSpec(3, 2), LatticeSpec(2, 3)}) == 2


def test_an_initial_state_is_as_unhashable_as_its_amplitudes(space):
    with pytest.raises(TypeError):
        hash(space.state)


def test_value_types_equal_only_their_own_class(space):
    assert LatticeSpec(3, 2) != (3, 2)
    assert Event(space, 5) != MultiplicativeCoevent(Event(space, 5))
    assert MultiplicativeCoevent(Event(space, 5)) != Event(space, 5)


def test_a_rebuilt_equal_kernel_hits_the_walk_memo(space):
    (k1, k2), counts = _kernels(space)
    measure._kernel_walk(k1, counts)
    hits = measure._kernel_walk.cache_info().hits
    assert measure._kernel_walk(k2, counts) == measure._kernel_walk(k1, counts)
    assert measure._kernel_walk.cache_info().hits == hits + 2


def test_identity_records_equal_only_themselves(space):
    for record, twin in _identity_records(space):
        assert record == record
        assert record != twin
        assert hash(record) == hash(record)
        assert len({record, twin}) == 2


def test_a_discrimination_report_is_its_eight_values():
    rep = discrimination_report(LatticeSpec(3, 2), ["plus", "ground"], 0)
    fields = (
        rep.n, rep.steps, rep.final, rep.states, rep.counts,
        rep.overlaps, rep.witness_counts, rep.separators,
    )
    assert rep == DiscriminationReport(*fields)
    assert rep != DiscriminationReport(*fields[:-1], {"plus": None, "ground": None})
    assert DiscriminationReport._fields == (
        "n", "steps", "final", "states", "counts", "overlaps", "witness_counts", "separators"
    )
    with pytest.raises(TypeError):
        hash(rep)


def _all_records(space):
    spec = space.spec
    verdicts = EventVerdicts(2, 1, (True, False))
    return [
        *(a for a, _ in _value_pairs(space)),
        *(r for r, _ in _identity_records(space)),
        verdicts,
        ShiftSymmetry(0, True),
        ensemble_symmetry_report(spec, "plus"),
        discrimination_report(spec, ["plus", "ground"], 0),
    ]


def test_all_fourteen_record_types_are_covered(space):
    assert len({type(r) for r in _all_records(space)}) == 14


def test_records_refuse_assignment_and_deletion(space):
    for record in _all_records(space):
        name = next(n for n in ("n", "label", "support", "members", "pivots", "spec",
                                "classes", "final", "total", "individual_invariant")
                    if hasattr(record, n))
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.unknown_field = 1


def test_cached_properties_still_cache_on_frozen_records(space):
    profile = primitive_profile(space)
    assert profile.count is profile.count
    assert space.circulations is space.circulations


def test_value_types_survive_pickle_and_copy(space):
    for value in (LatticeSpec(3, 2), space.state):
        for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert clone == value and type(clone) is type(value)
    ev = Event(space, 5)
    coev = MultiplicativeCoevent(ev)
    assert copy.copy(ev) == ev and copy.copy(coev) == coev
    for space2, ev2, coev2 in (
        pickle.loads(pickle.dumps((space, ev, coev))),
        copy.deepcopy((space, ev, coev)),
    ):
        assert ev2.space is space2 and coev2.support == ev2
        assert ev2 == Event(space2, 5) and coev2 == MultiplicativeCoevent(Event(space2, 5))


def test_a_history_space_survives_pickle_and_copy(space):
    for clone in (pickle.loads(pickle.dumps(space)), copy.copy(space), copy.deepcopy(space)):
        assert type(clone) is HistorySpace and clone is not space
        assert repr(clone) == repr(space)
        assert (clone.spec, clone.state, clone.final) == (space.spec, space.state, space.final)
        assert (clone.histories, clone.amps, clone.order) == (
            space.histories, space.amps, space.order,
        )
        assert amplitude_classes(clone).counts == amplitude_classes(space).counts


def test_keyword_construction_and_defaults(space):
    assert LatticeSpec(n=3, steps=3) == LatticeSpec(3, 3)
    state = InitialState(label="custom", amps=space.state.amps)
    assert state.amps == space.state.amps
    assert Event(space=space, members=3) == Event(space, 3)
    assert MultiplicativeCoevent(support=Event(space, 3)).size == 2
    verdicts = EventVerdicts(total=3, affirmed=1, verdicts=(True, False, False))
    assert verdicts.complement_affirmed is None and verdicts.both_denied is None
    assert verdicts.denied == 2


def test_constructors_validate_their_fields(space):
    with pytest.raises(ValueError, match="need at least 2 sites, got 1"):
        LatticeSpec(1, 3)
    with pytest.raises(ValueError, match="need at least 1 step, got 0"):
        LatticeSpec(3, 0)
    with pytest.raises(ValueError, match="identically zero"):
        InitialState("custom", (CycInt.zero(3),) * 3)
    with pytest.raises(ValueError, match="wider than the history space"):
        Event(space, space.universe_mask + 1)
    with pytest.raises(ValueError, match="wider than the history space"):
        Event(space, -1)


def test_reprs_keep_the_field_format(space):
    assert repr(LatticeSpec(3, 2)) == "LatticeSpec(n=3, steps=2)"
    assert repr(Event(space, 5)) == f"Event(space={space!r}, members=5)"
    assert repr(MultiplicativeCoevent(Event(space, 5))) == (
        f"MultiplicativeCoevent(support=Event(space={space!r}, members=5))"
    )
    assert repr(ShiftSymmetry(0, True)) == (
        "ShiftSymmetry(individual_invariant=0, ensemble_invariant=True)"
    )
    assert repr(SymmetryReport("plus", 3, 2, {}, 0, {})) == (
        "SymmetryReport(state_label='plus', n=3, steps=2, per_final_counts={}, "
        "ensemble_size=0, shifts={})"
    )
