import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landau import maggroup
from landau.maggroup import (
    center,
    clock_and_shift,
    commutant_dimension,
    conjugacy_class_indices,
    elements,
    multiplication_indices,
    represent,
    weyl_deviation,
)
from oracles import (
    center_brute_force,
    conjugacy_classes_brute_force,
    element_index,
    group_law,
    group_table,
    quotient_by_center_table,
)


def inverses(table):
    """inv[i]: the j with table[i, j] the identity, element 0."""
    return np.argmax(table == 0, axis=1)


def test_multiplication_rule_example():
    assert group_law((1, 0, 0), (0, 1, 0), 4) == (1, 1, 3)
    gx, gy, prod = (element_index(g, 4) for g in [(1, 0, 0), (0, 1, 0), (1, 1, 3)])
    assert multiplication_indices(4)[gx, gy] == prod


def test_identity_element():
    # element 0 is g(0, 0, 0), the two-sided identity of the table
    t = multiplication_indices(4)
    ids = np.arange(64)
    assert elements(4)[0] == [0, 0, 0]
    assert np.array_equal(t[0], ids) and np.array_equal(t[:, 0], ids)


@pytest.mark.parametrize("n_phi", [2, 3, 4, 5])
def test_associativity_full_enumeration(n_phi):
    # vectorized reimplementation of the product rule over all n_phi^9 index
    # combinations via broadcasting; then the table is checked to be
    # associative on every triple
    n = n_phi
    idx = np.arange(n**3)
    nx, ny, m = idx // (n * n), (idx // n) % n, idx % n

    def vec_mul(a, b):
        # a, b: tuples of broadcastable integer arrays
        return (
            (a[0] + b[0]) % n,
            (a[1] + b[1]) % n,
            (a[2] + b[2] - a[0] * b[1]) % n,
        )

    g = (nx[:, None, None], ny[:, None, None], m[:, None, None])
    h = (nx[None, :, None], ny[None, :, None], m[None, :, None])
    k = (nx[None, None, :], ny[None, None, :], m[None, None, :])
    lhs = vec_mul(vec_mul(g, h), k)
    rhs = vec_mul(g, vec_mul(h, k))
    for left, right in zip(lhs, rhs):
        assert np.array_equal(left, right)

    t = multiplication_indices(n)
    assert np.array_equal(t[t], t[:, t])  # [g, h, k]: (g h) k and g (h k)


def test_inverse_examples():
    t = multiplication_indices(4)
    g, inv = element_index((1, 1, 0), 4), element_index((3, 3, 3), 4)
    assert t[g, inv] == t[inv, g] == 0
    assert inverses(t)[0] == 0


@pytest.mark.parametrize("n_phi", [1, 2, 3, 4, 5])
def test_inverse_law_and_involution(n_phi):
    t = multiplication_indices(n_phi)
    unit = t == 0
    # one identity per row, at a symmetric position: two-sided inverses
    assert (unit.sum(axis=1) == 1).all() and np.array_equal(unit, unit.T)
    inv = inverses(t)
    assert np.array_equal(inv[inv], np.arange(n_phi**3))
    els = elements(n_phi)
    for g, h in enumerate(inv):
        assert group_law(els[g], els[h], n_phi) == (0, 0, 0)


def test_central_elements_are_singleton_classes():
    classes = conjugacy_class_indices(4)
    for m in range(4):
        assert [m] in classes


def test_conjugacy_class_example():
    g = element_index((1, 0, 0), 4)
    want = [element_index((1, 0, m), 4) for m in range(4)]
    assert want in conjugacy_class_indices(4)
    t = multiplication_indices(4)
    inv = inverses(t)
    assert sorted({t[t[h, g], inv[h]] for h in range(64)}) == want


@pytest.mark.parametrize("n_phi", [2, 3, 4])
def test_conjugacy_closed_form_vs_brute_force(n_phi):
    # each element conjugated by every element, one pair at a time under the
    # oracle's group law
    els = [tuple(g) for g in elements(n_phi)]
    inv = {g: next(h for h in els if group_law(g, h, n_phi) == (0, 0, 0)) for g in els}
    classes = conjugacy_class_indices(n_phi)
    for g in els:
        brute = {group_law(group_law(h, g, n_phi), inv[h], n_phi) for h in els}
        assert sorted(element_index(c, n_phi) for c in brute) in classes, g


@pytest.mark.parametrize("n_phi", [2, 3, 4, 5])
def test_classes_partition_group(n_phi):
    members = sorted(i for c in conjugacy_class_indices(n_phi) for i in c)
    assert members == list(range(n_phi**3))


@pytest.mark.parametrize("n_phi", range(1, 13))
def test_class_indices_match_conjugacy_class(n_phi):
    # what `landau group` writes, against brute-force conjugation under the
    # oracle's group law
    assert conjugacy_class_indices(n_phi) == conjugacy_classes_brute_force(n_phi)


def test_center_small_cases():
    assert center(1) == [0]
    assert center(4) == [0, 1, 2, 3]
    for n_phi in range(1, 7):
        assert center(n_phi) == sorted(element_index(g, n_phi) for g in center_brute_force(n_phi))


def test_representation_matches_printed_matrices():
    rep = clock_and_shift(4)
    tx = np.array([[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], dtype=complex)
    ty = np.diag([1, 1j, -1, -1j]).astype(complex)
    assert np.array_equal(rep.tx, tx)
    assert np.max(np.abs(rep.ty - ty)) < 1e-15


@pytest.mark.parametrize("n_phi", range(2, 9))
def test_weyl_relation(n_phi):
    assert weyl_deviation(clock_and_shift(n_phi)) < 1e-14


@pytest.mark.parametrize("n_phi", [2, 3, 4, 7])
def test_generator_powers_close(n_phi):
    rep = clock_and_shift(n_phi)
    eye = np.eye(n_phi)
    assert np.max(np.abs(np.linalg.matrix_power(rep.tx, n_phi) - eye)) < 1e-13
    assert np.max(np.abs(np.linalg.matrix_power(rep.ty, n_phi) - eye)) < 1e-13
    assert np.max(np.abs(rep.tx @ rep.tx.conj().T - eye)) < 1e-14
    assert np.max(np.abs(rep.ty @ rep.ty.conj().T - eye)) < 1e-14


@pytest.mark.parametrize("n_phi", [2, 3, 4, 7])
def test_representation_homomorphism_random_pairs(n_phi):
    rng = np.random.default_rng(n_phi)
    rep = clock_and_shift(n_phi)
    worst = 0.0
    for _ in range(500):
        g = tuple(rng.integers(0, n_phi, 3).tolist())
        h = tuple(rng.integers(0, n_phi, 3).tolist())
        lhs = represent(rep, *group_law(g, h, n_phi))
        rhs = represent(rep, *g) @ represent(rep, *h)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert worst < 1e-12


@pytest.mark.parametrize("n_phi", [2, 3, 4])
def test_homomorphism_defect_builds_each_matrix_once(n_phi, monkeypatch):
    rep = clock_and_shift(n_phi)
    pairs = list(itertools.product(range(n_phi**3), repeat=2))
    built = []

    def counting(rep, *g):
        built.append(list(g))
        return represent(rep, *g)

    monkeypatch.setattr(maggroup, "represent", counting)
    assert maggroup.homomorphism_defect(rep, multiplication_indices(n_phi), pairs) < 1e-12
    assert sorted(built) == elements(n_phi)


def test_homomorphism_defect_sees_a_wrong_phase():
    # a clock matrix with the conjugate phases breaks the Weyl relation the
    # group law of the multiplication table encodes
    rep = clock_and_shift(3)
    wrong = maggroup.UnitaryRep(3, rep.tx, rep.ty.conj())
    table = multiplication_indices(3)
    pairs = list(itertools.product(range(27), repeat=2))
    assert maggroup.homomorphism_defect(rep, table, pairs) < 1e-12
    assert maggroup.homomorphism_defect(wrong, table, pairs) > 1.0


@pytest.mark.parametrize("n_phi", [2, 3, 4, 5])
def test_quotient_by_center_is_translation_product(n_phi):
    # the coset table, enumerated under the oracle's own group law, must be
    # the table's on the m = 0 representatives and componentwise addition
    table = quotient_by_center_table(n_phi)
    t = multiplication_indices(n_phi)
    els = elements(n_phi)
    assert len(table) == n_phi**4
    for (a, b), prod in table.items():
        g = els[t[element_index((*a, 0), n_phi), element_index((*b, 0), n_phi)]]
        assert prod == tuple(g[:2]) == ((a[0] + b[0]) % n_phi, (a[1] + b[1]) % n_phi)


@pytest.mark.parametrize("n_phi", [2, 3, 4, 5])
def test_group_is_not_a_direct_product(n_phi):
    # the commutator subgroup is nontrivial, unlike Z x Z x Z
    t = multiplication_indices(n_phi)
    inv = inverses(t)
    g, h = element_index((1, 0, 0), n_phi), element_index((0, 1, 0), n_phi)
    comm = t[t[g, h], t[inv[g], inv[h]]]
    assert comm != 0
    assert comm in center(n_phi)


@pytest.mark.parametrize("n_phi", range(1, 7))
def test_representation_irreducible(n_phi):
    assert commutant_dimension(clock_and_shift(n_phi)) == 1


def test_order_is_cubed():
    for n_phi in range(1, 6):
        assert len(elements(n_phi)) == n_phi**3
        assert len(multiplication_indices(n_phi)) == n_phi**3
        # elements in index order: element i sits at i = (nx*n + ny)*n + m
        assert elements(n_phi) == [list(g) for g in itertools.product(range(n_phi), repeat=3)]


@pytest.mark.parametrize("n_phi", range(1, 8))
def test_multiplication_table_matches_group_law(n_phi):
    # one pair at a time, and the oracle's table on every pair at once
    els = elements(n_phi)
    expected = [[element_index(group_law(g, h, n_phi), n_phi) for h in els] for g in els]
    assert multiplication_indices(n_phi).tolist() == expected
    assert group_table(n_phi).tolist() == expected


@settings(max_examples=25, deadline=None)
@given(data=st.data(), n_phi=st.integers(min_value=1, max_value=12))
def test_group_axioms_random(data, n_phi):
    index = st.integers(min_value=0, max_value=n_phi**3 - 1)
    triples = data.draw(st.lists(st.tuples(index, index, index), min_size=1, max_size=20))
    t = multiplication_indices(n_phi)
    inv = inverses(t)
    els = elements(n_phi)
    for g, h, k in triples:
        assert t[t[g, h], k] == t[g, t[h, k]]
        assert t[0, g] == g == t[g, 0]
        assert t[g, inv[g]] == 0 == t[inv[g], g]
        assert element_index(els[g], n_phi) == g
        assert els[t[g, h]] == list(group_law(els[g], els[h], n_phi))
