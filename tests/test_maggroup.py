import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landau import maggroup
from landau.maggroup import (
    GroupElement,
    center,
    clock_and_shift,
    commutant_dimension,
    conjugacy_class,
    elements,
    identity,
    inverse,
    multiply,
    represent,
    weyl_deviation,
)
from oracles import center_brute_force, quotient_by_center_table


def brute_force_class(g):
    els = elements(g.n_phi)
    return frozenset(multiply(multiply(h, g), inverse(h)) for h in els)


def test_multiplication_rule_example():
    assert multiply(GroupElement(1, 0, 0, 4), GroupElement(0, 1, 0, 4)) == GroupElement(1, 1, 3, 4)


def test_identity_element():
    rng = np.random.default_rng(11)
    for _ in range(50):
        g = GroupElement(*rng.integers(0, 4, 3), 4)
        assert multiply(identity(4), g) == g
        assert multiply(g, identity(4)) == g


@pytest.mark.parametrize("n_phi", [2, 3, 4, 5])
def test_associativity_full_enumeration(n_phi):
    # vectorized reimplementation of the product rule over all n_phi^9 index
    # combinations via broadcasting; then the module product is checked to
    # agree with the vectorized rule on every pair
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

    els = elements(n)
    for a, b in itertools.product(els, repeat=2):
        prod = multiply(a, b)
        ref = vec_mul((a.nx, a.ny, a.m), (b.nx, b.ny, b.m))
        assert (prod.nx, prod.ny, prod.m) == ref


def test_inverse_examples():
    assert inverse(GroupElement(1, 1, 0, 4)) == GroupElement(3, 3, 3, 4)
    assert inverse(identity(4)) == identity(4)


@pytest.mark.parametrize("n_phi", [1, 2, 3, 4, 5])
def test_inverse_law_and_involution(n_phi):
    for g in elements(n_phi):
        assert multiply(g, inverse(g)) == identity(n_phi)
        assert multiply(inverse(g), g) == identity(n_phi)
        assert inverse(inverse(g)) == g


def test_central_elements_are_singleton_classes():
    for m in range(4):
        assert conjugacy_class(GroupElement(0, 0, m, 4)) == frozenset({GroupElement(0, 0, m, 4)})


def test_conjugacy_class_example():
    cls = conjugacy_class(GroupElement(1, 0, 0, 4))
    assert cls == frozenset(GroupElement(1, 0, m, 4) for m in range(4))
    assert cls == brute_force_class(GroupElement(1, 0, 0, 4))


@pytest.mark.parametrize("n_phi", [2, 3, 4])
def test_conjugacy_closed_form_vs_brute_force(n_phi):
    for g in elements(n_phi):
        assert conjugacy_class(g) == brute_force_class(g)


@pytest.mark.parametrize("n_phi", [2, 3, 4, 5])
def test_classes_partition_group(n_phi):
    classes = {conjugacy_class(g) for g in elements(n_phi)}
    assert sum(len(c) for c in classes) == n_phi**3
    seen = set()
    for c in classes:
        assert not (seen & c)
        seen |= c


@pytest.mark.parametrize("n_phi", range(1, 13))
def test_class_indices_match_conjugacy_class(n_phi):
    # the element-by-element pass over the group that the closed form replaced
    els = elements(n_phi)
    index = {g: i for i, g in enumerate(els)}
    want, seen = [], set()
    for g in els:
        if g not in seen:
            cl = conjugacy_class(g)
            seen |= cl
            want.append(sorted(index[h] for h in cl))
    assert maggroup.conjugacy_class_indices(n_phi) == want


def test_center_small_cases():
    assert len(center(1)) == 1
    assert len(center(4)) == 4
    for n_phi in range(1, 7):
        assert {(g.nx, g.ny, g.m) for g in center(n_phi)} == center_brute_force(n_phi)


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
        g = GroupElement(*rng.integers(0, n_phi, 3), n_phi)
        h = GroupElement(*rng.integers(0, n_phi, 3), n_phi)
        lhs = represent(rep, multiply(g, h))
        rhs = represent(rep, g) @ represent(rep, h)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert worst < 1e-12


@pytest.mark.parametrize("n_phi", [2, 3, 4])
def test_homomorphism_defect_builds_each_matrix_once(n_phi, monkeypatch):
    rep = clock_and_shift(n_phi)
    els = elements(n_phi)
    pairs = list(itertools.product(range(len(els)), repeat=2))
    built = []

    def counting(rep, g):
        built.append(g)
        return represent(rep, g)

    monkeypatch.setattr(maggroup, "represent", counting)
    assert maggroup.homomorphism_defect(rep, maggroup.multiplication_indices(n_phi), pairs) < 1e-12
    assert sorted(built, key=repr) == sorted(els, key=repr)


def test_homomorphism_defect_sees_a_wrong_phase():
    # a clock matrix with the conjugate phases breaks the Weyl relation the
    # group law of the multiplication table encodes
    rep = clock_and_shift(3)
    wrong = maggroup.UnitaryRep(3, rep.tx, rep.ty.conj())
    table = maggroup.multiplication_indices(3)
    pairs = list(itertools.product(range(27), repeat=2))
    assert maggroup.homomorphism_defect(rep, table, pairs) < 1e-12
    assert maggroup.homomorphism_defect(wrong, table, pairs) > 1.0


def test_modulus_mismatch_errors():
    with pytest.raises(ValueError):
        multiply(GroupElement(0, 0, 0, 2), GroupElement(0, 0, 0, 3))
    with pytest.raises(ValueError):
        represent(clock_and_shift(3), GroupElement(0, 0, 0, 4))


def test_group_element_value_semantics():
    g = GroupElement(5, -1, 11, 4)
    assert (g.nx, g.ny, g.m, g.n_phi) == (1, 3, 3, 4)
    assert repr(g) == "g(1,3,3)"
    # equal elements are equal and hash alike whatever components built them
    same = GroupElement(1, 7, -1, 4)
    assert g == same and hash(g) == hash(same)
    assert len({g, same, GroupElement(1, 3, 3, 4)}) == 1
    assert g != GroupElement(1, 3, 3, 5) and g != GroupElement(1, 3, 2, 4)
    # an element equals only elements, and replace() reduces like the constructor
    assert g != (1, 3, 3, 4)
    assert dataclasses.replace(g, m=6) == GroupElement(1, 3, 2, 4)
    for name in ("nx", "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(g, name, 2)
    for n_phi in (0, -3):
        with pytest.raises(ValueError, match="n_phi must be >= 1"):
            GroupElement(0, 0, 0, n_phi)


@pytest.mark.parametrize("n_phi", [2, 3, 4, 5])
def test_quotient_by_center_is_translation_product(n_phi):
    # the coset table, enumerated under the oracle's own group law, must be
    # multiply's on the m = 0 representatives and componentwise addition
    table = quotient_by_center_table(n_phi)
    assert len(table) == n_phi**4
    for (a, b), prod in table.items():
        g = multiply(GroupElement(*a, 0, n_phi), GroupElement(*b, 0, n_phi))
        assert prod == (g.nx, g.ny) == ((a[0] + b[0]) % n_phi, (a[1] + b[1]) % n_phi)


@pytest.mark.parametrize("n_phi", [2, 3, 4, 5])
def test_group_is_not_a_direct_product(n_phi):
    # the commutator subgroup is nontrivial, unlike Z x Z x Z
    g = GroupElement(1, 0, 0, n_phi)
    h = GroupElement(0, 1, 0, n_phi)
    comm = multiply(multiply(g, h), multiply(inverse(g), inverse(h)))
    assert comm != identity(n_phi)
    assert comm in center(n_phi)


@pytest.mark.parametrize("n_phi", range(1, 7))
def test_representation_irreducible(n_phi):
    assert commutant_dimension(clock_and_shift(n_phi)) == 1


def test_order_is_cubed():
    for n_phi in range(1, 6):
        assert len(elements(n_phi)) == n_phi**3


@pytest.mark.parametrize("n_phi", range(1, 8))
def test_multiplication_table_matches_group_law(n_phi):
    els = elements(n_phi)
    index = {g: i for i, g in enumerate(els)}
    expected = [[index[multiply(g, h)] for h in els] for g in els]
    assert maggroup.multiplication_indices(n_phi).tolist() == expected


def element_in(n_phi):
    # unreduced components: GroupElement must reduce them mod n_phi
    part = st.integers(min_value=-3 * n_phi, max_value=3 * n_phi)
    return st.builds(GroupElement, part, part, part, st.just(n_phi))


@settings(max_examples=25, deadline=None)
@given(data=st.data(), n_phi=st.integers(min_value=1, max_value=12))
def test_group_axioms_random(data, n_phi):
    triples = data.draw(st.lists(st.tuples(*[element_in(n_phi)] * 3), min_size=1, max_size=20))
    e = identity(n_phi)
    table = maggroup.multiplication_indices(n_phi).tolist()

    def index(g):
        return (g.nx * n_phi + g.ny) * n_phi + g.m

    for g, h, k in triples:
        assert multiply(multiply(g, h), k) == multiply(g, multiply(h, k))
        assert multiply(e, g) == g == multiply(g, e)
        assert multiply(g, inverse(g)) == e == multiply(inverse(g), g)
        assert elements(n_phi)[index(g)] == g
        assert table[index(g)][index(h)] == index(multiply(g, h))
