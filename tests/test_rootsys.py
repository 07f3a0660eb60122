"""Roots, reflections, closures, and the signed-permutation group."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from crystallograph import rootsys
from crystallograph.rootsys import (
    SignedPermutation,
    is_root_subsystem,
    is_symmetric,
    reflect,
    reflection_closure,
    reflection_permutation,
    roots_a,
    roots_b,
    roots_bc,
    roots_c,
    roots_d,
    weyl_apply,
    weyl_equivalent,
    weyl_group,
)


def neg(v):
    return tuple(-c for c in v)


def test_reflect_simply_laced_identities():
    # sigma-_{12} maps e-_{23} -> e-_{13} and e+_{23} -> e+_{13}
    assert reflect((1, -1, 0), (0, 1, -1)) == (1, 0, -1)
    assert reflect((1, -1, 0), (0, 1, 1)) == (1, 0, 1)
    # sigma+_{12} maps e-_{23} -> -e+_{13} and e+_{23} -> -e-_{13}
    assert reflect((1, 1, 0), (0, 1, -1)) == (-1, 0, -1)
    assert reflect((1, 1, 0), (0, 1, 1)) == (-1, 0, 1)


def test_reflect_loop_identities():
    # sigma_1 maps e+-_{12} -> -e-+_{12}
    assert reflect((1, 0), (1, 1)) == (-1, 1)
    assert reflect((1, 0), (1, -1)) == (-1, -1)
    # sigma+-_{12}(e_2) = -+e_1, and the long-root versions scale along
    assert reflect((1, -1), (0, 1)) == (1, 0)
    assert reflect((1, 1), (0, 1)) == (-1, 0)
    assert reflect((1, -1), (0, 2)) == (2, 0)


def test_reflect_negates_own_root():
    for alpha in roots_bc(3):
        assert reflect(alpha, alpha) == neg(alpha)


def test_reflect_closure_of_ambient_and_involution():
    bc3 = roots_bc(3)
    for alpha in bc3:
        for beta in bc3:
            image = reflect(alpha, beta)
            assert image in bc3
            assert reflect(alpha, image) == beta


def test_reflect_integer_lattice():
    # off the lattice: e_1 - 2/3 (e_1 + e_2 + e_3)
    with pytest.raises(ValueError, match="integer lattice"):
        reflect((1, 1, 1), (1, 0, 0))
    # on the lattice though (2, 2) is no BC root
    assert reflect((2, 2), (1, 0)) == (0, -1)
    with pytest.raises(ValueError):
        reflect((0, 0), (1, 0))


def test_reflect_dimension_mismatch():
    with pytest.raises(ValueError):
        reflect((1, -1), (1, -1, 0))


def test_is_symmetric():
    assert is_symmetric(frozenset())
    assert is_symmetric({(1, -1), (-1, 1)})
    assert not is_symmetric({(1, 0)})


def test_is_root_subsystem_examples():
    assert is_root_subsystem(roots_bc(3))
    assert not is_root_subsystem({(1, -1, 0), (-1, 1, 0), (0, 1, -1), (0, -1, 1)})
    assert is_root_subsystem({(1, 0), (-1, 0), (2, 0), (-2, 0)})


def test_is_root_subsystem_rejects_non_bc():
    with pytest.raises(ValueError):
        is_root_subsystem({(1, 1, 1), (-1, -1, -1)})


def test_reflection_closure_a2():
    seed = {(1, -1, 0), (-1, 1, 0), (0, 1, -1), (0, -1, 1)}
    closed = reflection_closure(seed)
    # brute-force expectation: the six roots +-(e_i - e_j) on three coordinates
    assert closed == roots_a(3)


def test_reflection_closure_b2():
    seed = {(1, 0), (-1, 0), (1, -1), (-1, 1)}
    assert reflection_closure(seed) == roots_b(2)


def test_reflection_closure_empty_and_idempotent():
    assert reflection_closure(frozenset()) == frozenset()
    seed = frozenset({(1, -1, 0), (-1, 1, 0), (0, 0, 2), (0, 0, -2)})
    once = reflection_closure(seed)
    assert reflection_closure(once) == once


def test_reflection_closure_monotone():
    rng = random.Random(7)
    universe = sorted(roots_bc(3))
    for _ in range(50):
        small = set()
        for alpha in rng.sample(universe, 4):
            small.add(alpha)
            small.add(neg(alpha))
        extra = rng.choice(universe)
        big = small | {extra, neg(extra)}
        assert reflection_closure(small) <= reflection_closure(big)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_subsystem_iff_closure_fixed_point_exhaustive(n):
    lines = sorted({min(a, neg(a)) for a in roots_bc(n)})
    for mask in range(1 << len(lines)):
        phi = frozenset()
        for b, rep in enumerate(lines):
            if mask >> b & 1:
                phi |= {rep, neg(rep)}
        assert is_root_subsystem(phi) == (reflection_closure(phi) == phi)


def test_cardinalities_up_to_6():
    for n in range(1, 7):
        assert len(roots_a(n)) == n * (n - 1)
        assert len(roots_d(n)) == 2 * n * (n - 1)
        assert len(roots_b(n)) == 2 * n * n
        assert len(roots_c(n)) == 2 * n * n
        assert len(roots_bc(n)) == 2 * n * n + 2 * n


def test_signed_permutation_group_laws():
    rng = random.Random(11)
    group = list(weyl_group(3))
    assert len(group) == 48
    for _ in range(100):
        u, v = rng.choice(group), rng.choice(group)
        w = u.compose(v)
        vec = tuple(rng.randint(-2, 2) for _ in range(3))
        assert w.apply(vec) == u.apply(v.apply(vec))
        assert u.compose(u.inverse()) == SignedPermutation.identity(3)


def test_reflection_permutation_matches_reflect():
    for alpha in roots_bc(3):
        w = reflection_permutation(alpha)
        for beta in roots_bc(3):
            assert w.apply(beta) == reflect(alpha, beta)


def test_weyl_apply_examples():
    a1 = frozenset({(1, -1), (-1, 1)})
    assert weyl_apply(SignedPermutation.identity(2), a1) == a1
    flip = SignedPermutation.sign_flip(2, 1)
    assert weyl_apply(flip, a1) == frozenset({(1, 1), (-1, -1)})
    swap = SignedPermutation((1, 0), (1, 1))
    assert weyl_apply(swap, frozenset({(1, 0), (-1, 0)})) == frozenset({(0, 1), (0, -1)})


def test_weyl_apply_preserves_subsystems_and_cardinality():
    rng = random.Random(3)
    group = list(weyl_group(3))
    systems = [roots_a(3), roots_d(3), roots_b(3), roots_bc(3)]
    for phi in systems:
        for _ in range(20):
            w = rng.choice(group)
            image = weyl_apply(w, phi)
            assert len(image) == len(phi)
            assert is_root_subsystem(image)


def test_weyl_equivalent_examples():
    a1_minus = frozenset({(1, -1), (-1, 1)})
    a1_plus = frozenset({(1, 1), (-1, -1)})
    w = weyl_equivalent(a1_minus, a1_plus)
    assert w is not None
    assert weyl_apply(w, a1_minus) == a1_plus

    assert weyl_equivalent(a1_minus, a1_minus) is not None

    short = frozenset({(1,), (-1,)})
    long = frozenset({(2,), (-2,)})
    assert weyl_equivalent(short, long) is None


def test_weyl_equivalent_limit():
    phi = frozenset({tuple([1] + [0] * 6), tuple([-1] + [0] * 6)})
    with pytest.raises(ValueError):
        weyl_equivalent(phi, phi)


def test_enumeration_limit_env(monkeypatch):
    assert rootsys.enumeration_limit(4) == 4
    monkeypatch.setenv(rootsys.MAX_N_ENV, "2")
    assert rootsys.enumeration_limit(4) == 2
    monkeypatch.setenv(rootsys.MAX_N_ENV, "9")
    assert rootsys.enumeration_limit(4) == 9
