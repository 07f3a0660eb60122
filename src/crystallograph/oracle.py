"""Brute-force oracles, exhaustive sweeps, and the verification driver.

Everything here answers questions by enumeration or generic linear algebra,
deliberately avoiding the pattern-matching route of the `crystal` module:
agreement between the two routes is the evidence the library stands on.

The workhorse is a bitmask representation of symmetric subsets of BC_n.
Opposite root pairs +-alpha are "lines"; a symmetric subset is a set of
lines, i.e. an integer mask over the n^2 + n lines.  Each reflection
sigma_alpha permutes the lines, and a subset is a root subsystem exactly
when the masks of its own lines' reflections fix it.  The permutations are
derived from `rootsys.reflect` alone, so no graph code is involved.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from math import comb
from operator import mul

from . import linalg
from .arrange import verify_projectification_compatibility
from .crystal import (
    CRYSTAL_PROPAGATING,
    QUASI_PROPAGATING,
    Component,
    InconsistencyError,
    _mask_map_apply,
    _mask_map_tables,
    _weyl_orbit_masks,
    all_edge_slots,
    bipartite_normalize,
    classify_components,
    closed,
    closure_rules,
    enumerate_crystallographs,
    graph_from_slot_mask,
    is_crystallograph,
    is_quasi_crystallograph,
    model_edges,
    orbit_canonical,
    slot_mask,
)
from .graphs import (
    BICHROMATIC,
    ColouredGraph,
    graph_from_roots,
    graph_to_json,
    roots_from_graph,
    weyl_act_graph,
)
from .quotient import kernel_basis, orthogonal_projection, verify_quotient_theorem
from .rootsys import (
    Root,
    RootSet,
    enumeration_limit,
    reflect,
    roots_a,
    roots_b,
    roots_bc,
    roots_c,
    roots_d,
    weyl_apply,
    weyl_group,
)

RNG_DEFAULT_SEED = 20240801


# ---------------------------------------------------------------------------
# line masks


def _canon_line(alpha: Root) -> Root:
    first = next(c for c in alpha if c != 0)
    return alpha if first > 0 else tuple(-c for c in alpha)


class LineTables:
    """Reflection action of BC_n on its own root lines, as mask permutations.

    For each line a, `apply(a, mask)` is the mask of sigma_a applied to the
    lines in `mask`, a handful of table lookups per call.
    """

    def __init__(self, n: int):
        self.n = n
        self.reps: list[Root] = sorted({_canon_line(a) for a in roots_bc(n)})
        self.index = {rep: i for i, rep in enumerate(self.reps)}
        self.count = len(self.reps)
        self.full_mask = (1 << self.count) - 1
        self._perm_tables = [
            _mask_map_tables([1 << self.index[_canon_line(reflect(a, b))] for b in self.reps])
            for a in self.reps
        ]

    def apply(self, a: int, mask: int) -> int:
        return _mask_map_apply(self._perm_tables[a], mask)

    def is_subsystem(self, mask: int) -> bool:
        m = mask
        while m:
            low = m & -m
            if self.apply(low.bit_length() - 1, mask) != mask:
                return False
            m ^= low
        return True

    def closure(self, mask: int) -> int:
        changed = True
        while changed:
            changed = False
            m = mask
            while m:
                low = m & -m
                image = self.apply(low.bit_length() - 1, mask)
                if image | mask != mask:
                    mask |= image
                    changed = True
                m ^= low
        return mask

    def mask_to_roots(self, mask: int) -> RootSet:
        out: set[Root] = set()
        m = mask
        while m:
            low = m & -m
            rep = self.reps[low.bit_length() - 1]
            out.add(rep)
            out.add(tuple(-c for c in rep))
            m ^= low
        return frozenset(out)

    def roots_to_mask(self, phi) -> int:
        mask = 0
        for alpha in phi:
            mask |= 1 << self.index[_canon_line(alpha)]
        return mask


_TABLE_CACHE: dict[int, LineTables] = {}


def line_tables(n: int) -> LineTables:
    if n not in _TABLE_CACHE:
        _TABLE_CACHE[n] = LineTables(n)
    return _TABLE_CACHE[n]


# ---------------------------------------------------------------------------
# brute-force enumeration


def enumerate_subsystems_bruteforce(n: int):
    """Every root subsystem of BC_n, found by reflection closure over masks.

    Scans all 2^(n^2+n) symmetric subsets; limit n <= 4.  Yields frozensets
    of roots in canonical (sorted-tuple) order.
    """
    if n > enumeration_limit(4):
        raise ValueError(f"n={n} exceeds the brute-force limit {enumeration_limit(4)}")
    tables = line_tables(n)
    found = [
        tables.mask_to_roots(mask)
        for mask in range(1 << tables.count)
        if tables.is_subsystem(mask)
    ]
    found.sort(key=lambda phi: tuple(sorted(phi)))
    yield from found


# ---------------------------------------------------------------------------
# Weyl orbits


def orbit_decomposition(items, n: int, limit: int = 6):
    """Partition graphs into Weyl orbits; lex-minimal serialisations represent.

    Returns [(representative_graph, orbit_item_count)] sorted by
    representative.
    """
    if n > enumeration_limit(limit):
        raise ValueError(f"n={n} exceeds the orbit limit {enumeration_limit(limit)}")
    buckets: dict[str, list] = {}
    for g in items:
        if g.n != n:
            raise ValueError(f"graph on {g.n} nodes in an n={n} decomposition")
        key, representative = orbit_canonical(g)
        buckets.setdefault(key, [representative, 0])[1] += 1
    return [tuple(buckets[key]) for key in sorted(buckets)]


# ---------------------------------------------------------------------------
# closed-form labelled counts (cross-checks for the exhaustive scans)


def _block_type_count(m: int, quasi: bool) -> int:
    """Connected models on a labelled m-node block."""
    if m == 1:
        return 4
    count = 5 + (2 ** (m - 1) - 1)
    if quasi:
        count += 2 * (2**m - 2)
    return count


def _labelled_count(n: int, quasi: bool) -> int:
    memo = [1] + [0] * n
    for total in range(1, n + 1):
        acc = 0
        for k in range(1, total + 1):
            acc += comb(total - 1, k - 1) * _block_type_count(k, quasi) * memo[total - k]
        memo[total] = acc
    return memo[n]


def count_crystallographs(n: int) -> int:
    """Labelled crystallographs on n nodes, by the typed-partition recurrence."""
    return _labelled_count(n, quasi=False)


def count_quasi_crystallographs(n: int) -> int:
    return _labelled_count(n, quasi=True)


def count_weyl_orbits(n: int) -> int:
    """Weyl orbits of crystallographs = multisets of classical components."""

    def menu_size(m: int) -> int:
        return 4 if m == 1 else 5

    def count(remaining: int, max_m: int) -> int:
        if remaining == 0:
            return 1
        total = 0
        for m in range(min(remaining, max_m), 0, -1):
            kinds = menu_size(m)
            # choose how many size-m components, then a type multiset for them
            for count_m in range(1, remaining // m + 1):
                ways = comb(kinds + count_m - 1, count_m)
                total += ways * count(remaining - m * count_m, m - 1)
        return total

    return count(n, n)


# ---------------------------------------------------------------------------
# seeded samplers


def random_bichromatic_graph(n: int, rng: random.Random) -> ColouredGraph:
    return graph_from_slot_mask(n, rng.getrandbits(n * n + n))


def random_crystallograph(n: int, rng: random.Random) -> ColouredGraph:
    """A crystallograph drawn from random typed partitions of the node set."""
    nodes = list(range(1, n + 1))
    rng.shuffle(nodes)
    edges: set = set()
    while nodes:
        size = rng.randint(1, len(nodes))
        block = tuple(sorted(nodes[:size]))
        del nodes[:size]
        tags = ["A", "B", "C", "BC"]
        if size >= 2:
            tags += ["D", "Bipartite"]
        tag = rng.choice(tags)
        if tag == "Bipartite":
            cut = rng.randint(1, size - 1)
            picks = sorted(rng.sample(block, cut))
            rest = tuple(v for v in block if v not in picks)
            parts = sorted([tuple(picks), rest], key=lambda p: (len(p), p[0]))
            comp = Component(block, tag, (len(parts[0]), len(parts[1])), tuple(parts))
        else:
            comp = Component(block, tag, (size,))
        edges |= model_edges(comp)
    return ColouredGraph(n, frozenset(edges))


def random_nested_pair(
    n: int, rng: random.Random
) -> tuple[ColouredGraph, ColouredGraph]:
    """A random crystallograph pair gp <= g with gp in classical normal form.

    gp is the reflection closure of a random subset of g's lines; if that
    closure has bipartite components the pair is normalised by the
    corresponding sign flips, which preserves nesting.
    """
    tables = line_tables(n)
    g = random_crystallograph(n, rng)
    g_mask = tables.roots_to_mask(roots_from_graph(g))
    sub = g_mask & rng.getrandbits(tables.count)
    gp = graph_from_roots(tables.mask_to_roots(tables.closure(sub)), n)
    if classify_components(gp).has_bipartite():
        _, word = bipartite_normalize(gp)
        g = graph_from_roots(weyl_apply(word.element, roots_from_graph(g)), n)
        gp = graph_from_roots(weyl_apply(word.element, roots_from_graph(gp)), n)
    return g, gp


def nested_pairs_exhaustive(n: int):
    """Every nested crystallograph pair (gp classical) on n nodes; n <= 3."""
    if n > enumeration_limit(3):
        raise ValueError(f"n={n} exceeds the exhaustive pair limit {enumeration_limit(3)}")
    rules = closure_rules(n, CRYSTAL_PROPAGATING)
    for g in enumerate_crystallographs(n, "all"):
        edge_list = g.sorted_edges()
        # subsets of g's edges, counted in sorted-edge order, as slot masks
        to_slots = _mask_map_tables(
            [slot_mask(ColouredGraph(n, frozenset((e,)))) for e in edge_list]
        )
        for sub in range(1 << len(edge_list)):
            mask = _mask_map_apply(to_slots, sub)
            if not closed(mask, rules):
                continue
            gp = graph_from_slot_mask(n, mask)
            if classify_components(gp).has_bipartite():
                continue
            yield g, gp


# ---------------------------------------------------------------------------
# verification driver


@dataclass(frozen=True)
class EnumerationSummary:
    n: int
    total_graphs: int
    crystallographs: int
    quasi_crystallographs: int
    orbits: int
    runtime: float

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "total_graphs": self.total_graphs,
            "crystallographs": self.crystallographs,
            "quasi_crystallographs": self.quasi_crystallographs,
            "orbits": self.orbits,
            "runtime": self.runtime,
        }


def bijection_sweep(n: int, samples: int | None = None, seed: int = RNG_DEFAULT_SEED):
    """Compare the graph closure rules with the reflection-closure mask oracle.

    Exhaustive when samples is None (all 2^(n^2+n) graphs); otherwise over
    `samples` seeded random graphs.  Each slot mask is checked against both
    rule sets and, translated to lines, against the oracle; only graphs that
    either side accepts are built, and those also go through
    is_crystallograph.  Returns (checked, crystallograph_list, quasi_count,
    failures).
    """
    tables = line_tables(n)
    slots = all_edge_slots(n)
    # slot -> line bit, transported through the correspondence one edge at a time
    slot_line = []
    for s in slots:
        pair = roots_from_graph(ColouredGraph(n, frozenset([s])))
        slot_line.append(1 << tables.index[_canon_line(min(pair))])
    nslots = len(slots)
    translate = _mask_map_tables(slot_line)
    full_rules = closure_rules(n, CRYSTAL_PROPAGATING)
    quasi_rules = closure_rules(n, QUASI_PROPAGATING)

    if samples is None:
        masks = range(1 << nslots)
    else:
        rng = random.Random(seed)
        masks = [rng.getrandbits(nslots) for _ in range(samples)]

    crystallographs: list[ColouredGraph] = []
    quasi_count = 0
    failures: list[str] = []
    checked = 0
    for mask in masks:
        checked += 1
        graph_side = closed(mask, full_rules)
        root_side = tables.is_subsystem(_mask_map_apply(translate, mask))
        if graph_side or root_side:
            g = graph_from_slot_mask(n, mask)
            if not graph_side == root_side == is_crystallograph(g):
                failures.append(f"bijection mismatch: {graph_to_json(g)}")
            if graph_side:
                crystallographs.append(g)
        if closed(mask, quasi_rules):
            quasi_count += 1
    return checked, crystallographs, quasi_count, failures


def weyl_orbit_failures(n: int, crystallographs) -> list[str]:
    """Count the Weyl orbits of every crystallograph on n nodes, measured.

    Each slot mask is closed under the generators of W(BC_n); the number of
    orbits must equal `count_weyl_orbits(n)`, and every image must be one of
    the given crystallographs, an exhaustive check that the predicate is
    Weyl-invariant.
    """
    masks = [slot_mask(g) for g in crystallographs]
    known = set(masks)
    unseen = set(masks)
    orbits = 0
    failures = []
    for g, mask in zip(crystallographs, masks):
        if mask not in unseen:
            continue
        orbit = _weyl_orbit_masks(n, BICHROMATIC, mask)
        unseen -= orbit
        orbits += 1
        for image in sorted(orbit - known):
            failures.append(
                f"Weyl image {graph_to_json(graph_from_slot_mask(n, image))} "
                f"of crystallograph {graph_to_json(g)} is not a crystallograph"
            )
    if orbits != count_weyl_orbits(n):
        failures.append(f"orbit count {orbits} != closed form {count_weyl_orbits(n)}")
    return failures


def classification_failures(graphs) -> list[str]:
    """classify_components must succeed with exact model reconstruction."""
    failures = []
    for g in graphs:
        try:
            report = classify_components(g)
        except (InconsistencyError, ValueError) as exc:
            failures.append(f"classification failed: {graph_to_json(g)}: {exc}")
            continue
        rebuilt = frozenset().union(*(model_edges(c) for c in report.components)) if report.components else frozenset()
        if rebuilt != g.edges:
            failures.append(f"model reconstruction mismatch: {graph_to_json(g)}")
    return failures


def kernel_failures(graphs) -> list[str]:
    """kernel_basis span must equal the generic nullspace; projections behave."""
    failures = []
    for g in graphs:
        if classify_components(g).has_bipartite():
            continue
        basis = kernel_basis(g)
        generic = linalg.nullspace_basis(sorted(roots_from_graph(g)), g.n)
        if not linalg.span_equal(basis.vectors, generic):
            failures.append(f"kernel span mismatch: {graph_to_json(g)}")
            continue
        proj = orthogonal_projection(g)
        if linalg.mat_mul(proj, proj) != proj:
            failures.append(f"projection not idempotent: {graph_to_json(g)}")
        if any(proj[i][j] != proj[j][i] for i in range(g.n) for j in range(g.n)):
            failures.append(f"projection not symmetric: {graph_to_json(g)}")
        # proj = P / D and vec = v / d, so proj.vec == vec iff P.v == D.v
        P, D = linalg.clear_denominators(proj)
        for vec in basis.vectors:
            (v,), _ = linalg.clear_denominators([vec])
            if any(sum(map(mul, row, v)) != D * x for row, x in zip(P, v)):
                failures.append(f"projection moves a kernel vector: {graph_to_json(g)}")
        columns = list(zip(*P))
        for alpha in sorted(roots_from_graph(g)):
            if any(sum(map(mul, alpha, col)) for col in columns):
                failures.append(f"projection image not annihilated by {alpha}: {graph_to_json(g)}")
                break
    return failures


_ARRANGEMENT_TAGS_OK = {"A", "D", "BorC", "ExoticBD", "Bipartite"}


def pair_failures(pairs) -> list[str]:
    """Quotient theorem, quasi-ness, compatibility, and arrangement tags."""
    from .arrange import classify_restricted_arrangement
    from .quotient import quotient_graph

    failures = []
    for g, gp in pairs:
        label = f"{graph_to_json(g)} / {graph_to_json(gp)}"
        if not verify_quotient_theorem(g, gp):
            failures.append(f"quotient theorem fails: {label}")
            continue
        q = quotient_graph(g, gp)
        if not is_quasi_crystallograph(q):
            failures.append(f"quotient not quasi: {label}")
        if not verify_projectification_compatibility(g, gp):
            failures.append(f"projectification incompatible: {label}")
        report = classify_restricted_arrangement(g, gp)
        for comp in report.components:
            if comp.type not in _ARRANGEMENT_TAGS_OK:
                failures.append(f"unexpected arrangement tag {comp.type}: {label}")
            if comp.type == "ExoticBD":
                r, s = comp.params
                if not 0 < r < r + s:
                    failures.append(f"degenerate ExoticBD{comp.params}: {label}")
    return failures


def weyl_commutation_failures(n: int, samples: int, seed: int) -> list[str]:
    """The graph action must match the root action through the correspondence."""
    rng = random.Random(seed)
    failures = []
    group = list(weyl_group(n))
    for _ in range(samples):
        g = random_bichromatic_graph(n, rng)
        w = rng.choice(group)
        via_roots = graph_from_roots(weyl_apply(w, roots_from_graph(g)), n)
        via_graph = weyl_act_graph(w, g)
        if via_roots != via_graph:
            failures.append(f"weyl action mismatch: {graph_to_json(g)}")
    return failures


def cardinality_failures(limit: int = 6) -> list[str]:
    failures = []
    for n in range(1, limit + 1):
        expected = {
            "A": n * (n - 1),
            "D": 2 * n * (n - 1),
            "B": 2 * n * n,
            "C": 2 * n * n,
            "BC": 2 * n * n + 2 * n,
        }
        actual = {
            "A": len(roots_a(n)),
            "D": len(roots_d(n)),
            "B": len(roots_b(n)),
            "C": len(roots_c(n)),
            "BC": len(roots_bc(n)),
        }
        if expected != actual:
            failures.append(f"classical cardinalities wrong at n={n}: {actual}")
    return failures


def verify_all(
    n: int,
    samples: int = 10000,
    seed: int = RNG_DEFAULT_SEED,
) -> tuple[EnumerationSummary, list[str]]:
    """Run every theorem suite at scale n; failures are data, not errors.

    Exhaustive below the per-suite limits (graph sweeps and the measured
    Weyl orbit count at n <= 4, pair sweeps at n <= 3), seeded sampling
    above.  The summary's `orbits` is always the closed form; at n <= 4 it
    is also checked against the orbits counted from the sweep, while at
    n >= 5 it is closed-form only.  Deterministic for a fixed seed
    regardless of internal ordering.
    """
    if n > enumeration_limit(6):
        raise ValueError(f"n={n} exceeds the verification limit {enumeration_limit(6)}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    start = time.monotonic()
    failures: list[str] = []
    total_graphs = 1 << (n * n + n)

    if n <= 4:
        checked, crystallographs, quasi_count, f = bijection_sweep(n)
        failures += f
        crystallograph_count = len(crystallographs)
        if crystallograph_count != count_crystallographs(n):
            failures.append(
                f"crystallograph count {crystallograph_count} != closed form {count_crystallographs(n)}"
            )
        if quasi_count != count_quasi_crystallographs(n):
            failures.append(
                f"quasi count {quasi_count} != closed form {count_quasi_crystallographs(n)}"
            )
        failures += weyl_orbit_failures(n, crystallographs)
        failures += classification_failures(crystallographs)
        failures += kernel_failures(crystallographs)
    else:
        _, _, _, f = bijection_sweep(n, samples=samples, seed=seed)
        failures += f
        rng = random.Random(seed + 1)
        constructed = [random_crystallograph(n, rng) for _ in range(min(samples, 2000))]
        failures += classification_failures(constructed)
        failures += kernel_failures(constructed)
        crystallograph_count = count_crystallographs(n)
        quasi_count = count_quasi_crystallographs(n)

    if n <= 3:
        failures += pair_failures(nested_pairs_exhaustive(n))
    else:
        rng = random.Random(seed + 2)
        failures += pair_failures(random_nested_pair(n, rng) for _ in range(samples))

    failures += weyl_commutation_failures(n, min(samples, 10000), seed + 3)
    failures += cardinality_failures()

    summary = EnumerationSummary(
        n=n,
        total_graphs=total_graphs,
        crystallographs=crystallograph_count,
        quasi_crystallographs=quasi_count,
        orbits=count_weyl_orbits(n),
        runtime=time.monotonic() - start,
    )
    return summary, failures


def summary_to_json(summary: EnumerationSummary, failures: list[str]) -> str:
    obj = summary.to_json_obj()
    obj["failures"] = failures
    return json.dumps(obj, separators=(",", ":"))
