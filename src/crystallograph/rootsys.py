"""Exact arithmetic for the nonreduced root system BC_n and its Weyl group.

The ambient space is Q^n with the standard scalar product (e_i | e_j) =
delta_ij.  Roots are integer coordinate vectors of one of the shapes

    e_i - e_j,  e_i + e_j  (i != j),   e_i,   2 e_i,

together with their negatives.  The classical systems sit inside each other
as  A_{n-1} <= D_n <= B_n, C_n <= BC_n,  where

    A_{n-1} = { e_i - e_j },            D_n = A_{n-1} + { +-(e_i + e_j) },
    B_n = D_n + { +-e_i },              C_n = D_n + { +-2 e_i },
    BC_n = B_n | C_n.

The Weyl group W(BC_n) is the hyperoctahedral group of signed permutations,
acting by e_i |-> sign_i * e_{perm(i)}.  Everything here is immutable and
pure; vectors are plain tuples of ints so they hash and compare cheaply.

Node/coordinate indices are 1-based in every serialised form; tuples are
indexed 0-based internally as usual.
"""

from __future__ import annotations

import itertools
import os
from collections.abc import Sequence
from dataclasses import dataclass

Root = tuple[int, ...]
RootSet = frozenset[Root]

MAX_N_ENV = "CRYSTALLOGRAPH_MAX_N"


def enumeration_limit(default: int) -> int:
    """Effective limit for exhaustive operations, overridable via env var."""
    raw = os.environ.get(MAX_N_ENV)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{MAX_N_ENV} must be an integer, got {raw!r}") from None


def dot(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum(a * b for a, b in zip(u, v))


def is_bc_root(v: tuple[int, ...]) -> bool:
    """Whether an integer vector is a root of BC_n (n = len(v))."""
    support = [(i, c) for i, c in enumerate(v) if c != 0]
    if len(support) == 1:
        return support[0][1] in (-2, -1, 1, 2)
    if len(support) == 2:
        return all(c in (-1, 1) for _, c in support)
    return False


def validate_root(v: tuple[int, ...]) -> Root:
    if not is_bc_root(v):
        raise ValueError(f"not a BC root: {v}")
    return v


def validate_root_set(phi: frozenset[Root] | set[Root]) -> None:
    for alpha in phi:
        validate_root(alpha)
    dims = {len(alpha) for alpha in phi}
    if len(dims) > 1:
        raise ValueError(f"mixed ambient dimensions in root set: {sorted(dims)}")


def reflect(alpha: Root, beta: Root) -> Root:
    """Image of beta under the reflection in the hyperplane orthogonal to alpha.

    Computed as beta - 2(beta|alpha)/(alpha|alpha) * alpha in integer
    arithmetic, each coordinate as (b |alpha|^2 - 2(beta|alpha) a) / |alpha|^2;
    an image off the integer lattice raises.  For alpha, beta in BC_n the
    result is again a BC_n root.
    """
    if len(alpha) != len(beta):
        raise ValueError(f"dimension mismatch: {len(alpha)} vs {len(beta)}")
    norm = dot(alpha, alpha)
    if norm == 0:
        raise ValueError("cannot reflect in the zero vector")
    twice = 2 * dot(beta, alpha)
    image = []
    for a, b in zip(alpha, beta):
        x, rem = divmod(b * norm - twice * a, norm)
        if rem:
            raise ValueError(f"reflection left the integer lattice: {alpha} on {beta}")
        image.append(x)
    return tuple(image)


def _negate(alpha: Sequence[int]) -> Root:
    return tuple(-c for c in alpha)


def is_symmetric(phi: frozenset[Root] | set[Root]) -> bool:
    """True iff the set is closed under negation."""
    return all(_negate(alpha) in phi for alpha in phi)


def is_root_subsystem(phi: frozenset[Root] | set[Root]) -> bool:
    """True iff phi is a symmetric subset of BC_n closed under its own reflections."""
    validate_root_set(phi)
    if not is_symmetric(phi):
        return False
    for alpha in phi:
        for beta in phi:
            if reflect(alpha, beta) not in phi:
                return False
    return True


def reflection_closure(phi: frozenset[Root] | set[Root]) -> RootSet:
    """Smallest root subsystem of BC_n containing the symmetric set phi."""
    validate_root_set(phi)
    if not is_symmetric(phi):
        raise ValueError("reflection_closure requires a symmetric input set")
    current: set[Root] = set(phi)
    # One root per line suffices: s_{-a} = s_a and s_a(-b) = -s_a(b).  Each
    # pair of lines is reflected both ways once, when the later of the two
    # leaves the worklist.
    pending = [a for a in current if a > _negate(a)]
    done: list[Root] = []
    while pending:
        a = pending.pop()
        done.append(a)
        for b in done:
            for image in (reflect(a, b), reflect(b, a)):
                if image not in current:
                    current.add(image)
                    current.add(_negate(image))
                    pending.append(image)
    return frozenset(current)


@dataclass(frozen=True)
class SignedPermutation:
    """Element of the hyperoctahedral group W(BC_n).

    ``perm[i]`` is the 0-based image of coordinate i and ``signs[i]`` the
    sign attached to it, so the action on vectors is e_i |-> signs[i] *
    e_{perm[i]}.
    """

    perm: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.perm)
        if sorted(self.perm) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {self.perm}")
        if len(self.signs) != n or any(s not in (-1, 1) for s in self.signs):
            raise ValueError(f"signs must be +-1 of length {n}: {self.signs}")

    @property
    def n(self) -> int:
        return len(self.perm)

    @classmethod
    def identity(cls, n: int) -> SignedPermutation:
        return cls(tuple(range(n)), (1,) * n)

    @classmethod
    def sign_flip(cls, n: int, node: int) -> SignedPermutation:
        """The reflection sigma_{e_node} (node is 1-based)."""
        signs = [1] * n
        signs[node - 1] = -1
        return cls(tuple(range(n)), tuple(signs))

    def apply(self, v: tuple[int, ...]) -> tuple[int, ...]:
        if len(v) != self.n:
            raise ValueError(f"dimension mismatch: {len(v)} vs {self.n}")
        out = [0] * self.n
        for i, c in enumerate(v):
            out[self.perm[i]] = self.signs[i] * c
        return tuple(out)

    def compose(self, other: SignedPermutation) -> SignedPermutation:
        """self after other: (self * other).apply(v) == self.apply(other.apply(v))."""
        if self.n != other.n:
            raise ValueError("size mismatch")
        perm = tuple(self.perm[other.perm[i]] for i in range(self.n))
        signs = tuple(other.signs[i] * self.signs[other.perm[i]] for i in range(self.n))
        return SignedPermutation(perm, signs)

    def inverse(self) -> SignedPermutation:
        perm = [0] * self.n
        signs = [1] * self.n
        for i in range(self.n):
            perm[self.perm[i]] = i
            signs[self.perm[i]] = self.signs[i]
        return SignedPermutation(tuple(perm), tuple(signs))


def reflection_permutation(alpha: Root) -> SignedPermutation:
    """The reflection sigma_alpha as a signed permutation (alpha in BC_n)."""
    validate_root(alpha)
    n = len(alpha)
    support = [(i, c) for i, c in enumerate(alpha) if c != 0]
    if len(support) == 1:
        i = support[0][0]
        signs = [1] * n
        signs[i] = -1
        return SignedPermutation(tuple(range(n)), tuple(signs))
    (i, ci), (j, cj) = support
    perm = list(range(n))
    perm[i], perm[j] = j, i
    signs = [1] * n
    if ci * cj > 0:
        signs[i] = signs[j] = -1
    return SignedPermutation(tuple(perm), tuple(signs))


def weyl_group(n: int) -> "itertools.product":
    """Iterate over all 2^n * n! signed permutations, deterministic order."""
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            yield SignedPermutation(perm, signs)


def weyl_apply(w: SignedPermutation, phi: frozenset[Root] | set[Root]) -> RootSet:
    """Image of a root set under a signed permutation."""
    return frozenset(w.apply(alpha) for alpha in phi)


def weyl_equivalent(
    phi: frozenset[Root] | set[Root],
    psi: frozenset[Root] | set[Root],
    limit: int = 6,
) -> SignedPermutation | None:
    """Some w with w(phi) = psi, or None if the sets are not Weyl-equivalent.

    Searches the full group, pruning on cardinality and the multiset of
    squared lengths (both are Weyl invariants).  Default hard limit n <= 6
    (|W(BC_6)| = 46080); raise it via CRYSTALLOGRAPH_MAX_N at your own risk.
    """
    validate_root_set(phi)
    validate_root_set(psi)
    dims = {len(a) for a in phi} | {len(a) for a in psi}
    if len(dims) > 1:
        raise ValueError("root sets live in different ambient dimensions")
    if not dims:
        return SignedPermutation.identity(0)
    n = dims.pop()
    if n > enumeration_limit(limit):
        raise ValueError(f"n={n} exceeds the Weyl search limit {enumeration_limit(limit)}")
    if len(phi) != len(psi):
        return None
    if sorted(dot(a, a) for a in phi) != sorted(dot(a, a) for a in psi):
        return None
    phi = frozenset(phi)
    psi = frozenset(psi)
    for w in weyl_group(n):
        if weyl_apply(w, phi) == psi:
            return w
    return None


def roots_a(n: int) -> RootSet:
    """The system A_{n-1} inside Q^n: all e_i - e_j."""
    out = set()
    for i in range(n):
        for j in range(n):
            if i != j:
                v = [0] * n
                v[i], v[j] = 1, -1
                out.add(tuple(v))
    return frozenset(out)


def roots_d(n: int) -> RootSet:
    out = set(roots_a(n))
    for i in range(n):
        for j in range(i + 1, n):
            v = [0] * n
            v[i] = v[j] = 1
            out.add(tuple(v))
            out.add(_negate(v))
    return frozenset(out)


def roots_b(n: int) -> RootSet:
    out = set(roots_d(n))
    for i in range(n):
        v = [0] * n
        v[i] = 1
        out.add(tuple(v))
        out.add(_negate(v))
    return frozenset(out)


def roots_c(n: int) -> RootSet:
    out = set(roots_d(n))
    for i in range(n):
        v = [0] * n
        v[i] = 2
        out.add(tuple(v))
        out.add(_negate(v))
    return frozenset(out)


def roots_bc(n: int) -> RootSet:
    return roots_b(n) | roots_c(n)
