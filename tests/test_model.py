from __future__ import annotations

import copy
import pickle

import pytest

from qhopper import (
    CycInt,
    InvalidSiteError,
    LatticeSpec,
    UnknownStateError,
    check_unitarity,
    hop_amplitude,
    initial_state,
    is_transfer_eigenvector,
    root,
    transfer_matrix,
)
from qhopper.model import _is_unitary


def test_lattice_validation():
    with pytest.raises(ValueError):
        LatticeSpec(1, 3)
    with pytest.raises(ValueError):
        LatticeSpec(3, 0)


def test_phase_order_odd_and_even():
    assert LatticeSpec(3, 1).phase_order == 3
    assert LatticeSpec(6, 1).phase_order == 12
    assert LatticeSpec(2, 1).phase_order == 4


def test_six_site_hop_phases():
    spec = LatticeSpec(6, 1)
    got = [hop_amplitude(spec, 0, x2) for x2 in (0, 5, 4, 3)]  # hop by 0,1,2,3
    assert got[0] == 1
    assert got[1] == root(12, 1)
    assert got[2] == root(12, 4)
    assert got[3] == root(12, 9)
    assert got[3] == -root(12, 3)  # the half-way hop lands on -i


def test_three_site_hop_phases():
    spec = LatticeSpec(3, 1)
    assert hop_amplitude(spec, 1, 1) == 1
    assert hop_amplitude(spec, 0, 1) == root(3, 1)
    assert hop_amplitude(spec, 0, 2) == root(3, 1)


def test_two_site_hop_phases():
    spec = LatticeSpec(2, 1)
    assert hop_amplitude(spec, 0, 0) == 1
    assert hop_amplitude(spec, 0, 1) == root(4, 1)


def test_site_bounds_checked():
    with pytest.raises(InvalidSiteError):
        hop_amplitude(LatticeSpec(3, 1), 0, 3)


def test_transfer_matrix_three_sites():
    u = transfer_matrix(LatticeSpec(3, 1))
    w = root(3, 1)
    for r in range(3):
        for c in range(3):
            assert u[r][c] == (CycInt.one(3) if r == c else w)


def test_transfer_matrix_two_sites():
    u = transfer_matrix(LatticeSpec(2, 1))
    i = root(4, 1)
    assert u[0][0] == 1 and u[1][1] == 1
    assert u[0][1] == i and u[1][0] == i


@pytest.mark.parametrize("n", range(2, 65))
def test_unitarity(n):
    assert check_unitarity(LatticeSpec(n, 1))


@pytest.mark.parametrize("n", range(2, 9))
def test_unitarity_fails_for_any_perturbed_entry(monkeypatch, n):
    # moving one entry's phase breaks the inner product of its row with every
    # other row, so each position is caught, below the diagonal as well
    import qhopper.model

    spec = LatticeSpec(n, 1)
    exact = transfer_matrix(spec)
    m = spec.phase_order
    for r in range(n):
        for x in range(n):
            (k,) = (k for k, a in enumerate(exact[r][x].coeffs) if a)
            rows = [list(row) for row in exact]
            rows[r][x] = root(m, k + 1)
            perturbed = tuple(tuple(row) for row in rows)
            monkeypatch.setattr(qhopper.model, "transfer_matrix", lambda _: perturbed)
            assert not check_unitarity(spec)
    monkeypatch.setattr(qhopper.model, "transfer_matrix", lambda _: exact)
    assert check_unitarity(spec)


def test_unitarity_fails_for_a_scaled_row(monkeypatch):
    import qhopper.model

    spec = LatticeSpec(3, 1)
    rows = [list(row) for row in transfer_matrix(spec)]
    # the rows stay orthogonal, so only the diagonal entry (2, 2) of U U^dagger
    # is wrong: 12, not 3
    rows[2] = [x * 2 for x in rows[2]]
    monkeypatch.setattr(qhopper.model, "transfer_matrix", lambda _: rows)
    assert not check_unitarity(spec)


def full_product_is_scaled_identity(u, n: int) -> bool:
    """U * U^dagger == n * I, every entry multiplied out: the oracle."""
    m = u[0][0].order
    for r in range(n):
        for c in range(n):
            acc = CycInt.zero(m)
            for x in range(n):
                acc = acc + u[r][x] * u[c][x].conj()
            if acc != (n if r == c else 0):
                return False
    return True


def circulant(first):
    n = len(first)
    return tuple(tuple(first[(x - r) % n] for x in range(n)) for r in range(n))


@pytest.mark.parametrize("n", range(2, 17))
def test_transfer_matrix_is_hop_amplitude_entry_by_entry(n):
    spec = LatticeSpec(n, 1)
    u = transfer_matrix(spec)
    assert len(u) == n
    for x2 in range(n):
        assert u[x2] == tuple(hop_amplitude(spec, x, x2) for x in range(n))
    assert u == circulant(u[0])


@pytest.mark.parametrize("n", range(2, 9))
def test_is_unitary_refuses_a_row_swap(n):
    # swapping two rows keeps U * U^dagger = n * I; only at n = 2 is the
    # result still a circulant, so everywhere else it is refused
    spec = LatticeSpec(n, 1)
    exact = transfer_matrix(spec)
    swapped = [exact[1], exact[0], *exact[2:]]
    assert full_product_is_scaled_identity(swapped, n)
    assert _is_unitary(spec, swapped) is (n == 2)


@pytest.mark.parametrize("n", range(2, 9))
def test_is_unitary_agrees_with_the_full_product_on_circulants(n):
    # a circulant passes the rotation check, so the first row's
    # autocorrelation alone decides it
    spec = LatticeSpec(n, 1)
    first = transfer_matrix(spec)[0]
    z = root(spec.phase_order, 1)
    rows = [first, tuple(CycInt.one(spec.phase_order) for _ in range(n))]
    for x in range(n):
        rows.append(first[:x] + (first[x] * z,) + first[x + 1 :])
        rows.append(first[:x] + (first[x] * 2,) + first[x + 1 :])
    for row in rows:
        u = circulant(row)
        assert _is_unitary(spec, u) is full_product_is_scaled_identity(u, n)
    assert _is_unitary(spec, circulant(first))


def test_phase_row_is_built_once_and_frozen():
    spec = LatticeSpec(6, 2)
    assert spec.phase_order == 12
    assert spec.hop_exponents == (0, 1, 4, 9, 4, 1)
    assert spec.hop_exponents is spec.hop_exponents
    for name in ("phase_order", "hop_exponents", "n"):
        with pytest.raises(AttributeError):
            setattr(spec, name, 1)


def test_lattice_compares_hashes_prints_and_pickles_by_sites_and_steps():
    spec = LatticeSpec(6, 2)
    assert spec == LatticeSpec(6, 2) and spec != LatticeSpec(6, 3)
    assert hash(spec) == hash((6, 2))
    assert repr(spec) == "LatticeSpec(n=6, steps=2)"
    assert spec.__reduce__() == (LatticeSpec, (6, 2))
    for clone in (pickle.loads(pickle.dumps(spec)), copy.copy(spec), copy.deepcopy(spec)):
        assert clone == spec and hash(clone) == hash(spec)
        assert clone.hop_exponents == spec.hop_exponents
        assert clone.phase_order == spec.phase_order


def test_hop_amplitude_translation_invariance_and_symmetry():
    spec = LatticeSpec(5, 1)
    for x in range(5):
        for x2 in range(5):
            shifted = hop_amplitude(spec, (x + 2) % 5, (x2 + 2) % 5)
            assert hop_amplitude(spec, x, x2) == shifted
            assert hop_amplitude(spec, x, x2) == hop_amplitude(spec, x2, x)


# -- initial states ---------------------------------------------------------------


def test_ground_state_three_sites():
    spec = LatticeSpec(3, 3)
    st = initial_state(spec, "ground")
    assert all(a == 1 for a in st.amps)


def test_plus_state_three_sites():
    spec = LatticeSpec(3, 3)
    st = initial_state(spec, "plus")
    assert st.amps[0] == 1
    assert st.amps[1] == root(3, 1)
    assert st.amps[2] == root(3, 2)


def test_standing_state_three_sites():
    # entrywise plus + minus collapses through 1 + w + w^2 = 0
    spec = LatticeSpec(3, 3)
    st = initial_state(spec, "standing")
    assert st.amps[0] == 2
    assert st.amps[1] == -CycInt.one(3)
    assert st.amps[2] == -CycInt.one(3)


def test_unknown_label_rejected():
    with pytest.raises(UnknownStateError):
        initial_state(LatticeSpec(3, 1), "excited")


def test_custom_state_validation():
    spec = LatticeSpec(3, 1)
    with pytest.raises(ValueError):
        initial_state(spec, "custom", (CycInt.one(3),))  # wrong length
    with pytest.raises(ValueError):
        initial_state(spec, "custom", tuple(CycInt.zero(3) for _ in range(3)))


def test_eigenvector_check():
    spec = LatticeSpec(3, 3)
    assert is_transfer_eigenvector(spec, initial_state(spec, "ground"))
    assert is_transfer_eigenvector(spec, initial_state(spec, "plus"))
    assert is_transfer_eigenvector(spec, initial_state(spec, "minus"))
    skew = initial_state(
        spec, "custom", (CycInt.one(3), CycInt.one(3), root(3, 1))
    )
    assert not is_transfer_eigenvector(spec, skew)


def test_row_norms_equal_site_count():
    for n in range(2, 9):
        spec = LatticeSpec(n, 1)
        u = transfer_matrix(spec)
        for r in range(n):
            acc = CycInt.zero(spec.phase_order)
            for c in range(n):
                acc = acc + u[r][c] * u[r][c].conj()
            assert acc == n
