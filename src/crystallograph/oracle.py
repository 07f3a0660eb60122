"""Brute-force oracles, exhaustive sweeps, and the verification driver.

Everything here answers questions by enumeration or generic linear algebra,
deliberately avoiding the pattern-matching route of the `crystal` module:
agreement between the two routes is the evidence the library stands on.

The workhorse is a bitmask representation of symmetric subsets of BC_n.
Opposite root pairs +-alpha are "lines"; a symmetric subset is a set of
lines, i.e. an integer mask over the n^2 + n lines, numbered by the edge
slots of `graphs.all_edge_slots`, so a graph's slot mask is its line mask.
Each reflection sigma_alpha permutes the lines, and a subset is a root
subsystem exactly when sigma_a(b) lies in it for every two of its lines a
and b.  `LineTables` keeps these images in one table, from `rootsys.reflect`
alone: only the numbering is read from the graph correspondence, never a
closure rule or Weyl action.

`bijection_sweep` compares the crystal rules with the oracle's rules,
`LineTables.rules`: "lines a and b force the lines of sigma_a(b) and
sigma_b(a)", read off the image table, with `LineTables.is_subsystem` as
their one-mask reference.  Exhaustively, `crystal.closed_masks` lists the
family of masks each side accepts, and the quasi family is counted; two
exact families are equal exactly when every mask gets the same answer from
both sides.  Sampled, each draw goes through `crystal.closed` on all three
tables.  No side gates another, and only the masks the crystal rules or
the oracle accept are decoded into graphs.

The sampled suites draw the same graph or pair again and again (at n = 6
and the default seed, 1,500 distinct pairs in 2,000 and 1,404 distinct
graphs in 2,000).  So `classification_failures`, `kernel_failures` and
`pair_failures` check each distinct item once and replay the failure lines
of its first occurrence for every repeat, at the repeat's own place: the
list is the one a check of every item would give.  Their memo lives for
one call and is keyed by slot masks, plain ints scoped by node count and
palette, so it holds no graph.

`verify_all` wires the graph suites once, in `_graph_failures`: they read
the swept crystallographs at n <= SCAN_LIMIT, and one seeded stream of
draws per suite above it.

The kernel suite, `kernel_failures`, compares `quotient.kernel_basis` with
the generic nullspace of the graph's roots, one root per +- line, and then
checks `quotient.orthogonal_projection` in integers: cleared to P / D
(`linalg.clear_denominators`), the projection is idempotent iff
P.P == D.P, symmetric iff P is, fixes a kernel vector v / d iff
P.v == D.v, and its image is annihilated by a root alpha iff alpha.P == 0.
No Fraction matrix is multiplied.
"""

from __future__ import annotations

import random
import time
from collections import defaultdict, namedtuple
from functools import cache
from math import comb, factorial
from operator import mul

from . import linalg
from .arrange import classify_restricted_arrangement, verify_projectification_compatibility
from .crystal import (
    CRYSTAL_PROPAGATING,
    QUASI_PROPAGATING,
    RNG_DEFAULT_SEED,
    SCAN_LIMIT,
    Component,
    InconsistencyError,
    _weyl_orbit_masks,
    bipartite_normalize,
    classify_components,
    closed,
    closed_masks,
    closure_rules,
    enumerate_crystallographs,
    graph_from_slot_mask,
    is_crystallograph,
    is_quasi_crystallograph,
    model_edges,
    slot_mask,
)
from .graphs import (
    BICHROMATIC,
    ColouredGraph,
    all_edge_slots,
    dump_json,
    graph_to_json,
    roots_from_graph,
    weyl_act_graph,
)
from .quotient import (
    kernel_basis,
    orthogonal_projection,
    quotient_graph,
    verify_quotient_theorem,
)
from .rootsys import (
    Root,
    RootSet,
    reflect,
    roots_a,
    roots_b,
    roots_bc,
    roots_c,
    roots_d,
    weyl_apply,
    weyl_group,
)


# ---------------------------------------------------------------------------
# line masks


def _canon_line(alpha: Root) -> Root:
    first = next(c for c in alpha if c != 0)
    return alpha if first > 0 else tuple(-c for c in alpha)


class LineTables:
    """Reflection action of BC_n on its own root lines, as one table.

    Line i is the line of the edge in slot i of `all_edge_slots(n)`; an
    InconsistencyError says the slots do not number BC_n's lines once each.
    `images[a][b]` is the line of sigma_a(b), from `reflect` alone, and
    everything else here is read off that table.

    `pair_images[a][b]` is the mask 1 << images[a][b] | 1 << images[b][a]
    of the lines sigma_a(b) and sigma_b(a), read off `images` once.

    A mask is a subsystem when sigma_a(b) lies in it for every two of its
    lines a and b, which `is_subsystem` checks as stated.  `rules` states
    the same in the format of `crystal.closure_rules`: entry a lists
    (1 << b, pair_images[a][b]) for each line b < a not orthogonal to it:
    the lines of sigma_a(b) and sigma_b(a), neither of them a or b.
    `closure` is the worklist of `rootsys.reflection_closure` on lines,
    which ORs the `pair_images` rows of the lines it reaches.
    """

    def __init__(self, n: int):
        self.n = n
        one_edge = (ColouredGraph(n, frozenset((e,))) for e in all_edge_slots(n))
        self.reps: list[Root] = [_canon_line(min(roots_from_graph(g))) for g in one_edge]
        if sorted(self.reps) != sorted({_canon_line(a) for a in roots_bc(n)}):
            raise InconsistencyError(f"the edge slots on {n} nodes do not number the lines of BC_{n}")
        index = {rep: i for i, rep in enumerate(self.reps)}
        self.count = len(self.reps)
        images = self.images = [[index[_canon_line(reflect(a, b))] for b in self.reps] for a in self.reps]
        pair_images = self.pair_images = [
            [1 << images[a][b] | 1 << images[b][a] for b in range(self.count)] for a in range(self.count)
        ]
        self.rules = tuple(
            tuple((1 << b, pair_images[a][b]) for b in range(a) if row[b] != b)
            for a, row in enumerate(images)
        )

    def is_subsystem(self, mask: int) -> bool:
        lines = [a for a in range(self.count) if mask >> a & 1]
        return all(mask >> self.images[a][b] & 1 for a in lines for b in lines)

    def closure(self, mask: int) -> int:
        # each line leaving the worklist reflects each line done, and is
        # reflected by it, once; the lines this reaches join the worklist
        pair_images = self.pair_images
        pending = [a for a in range(self.count) if mask >> a & 1]
        done: list[int] = []
        while pending:
            a = pending.pop()
            done.append(a)
            row = pair_images[a]
            reached = 0
            for b in done:
                reached |= row[b]
            reached &= ~mask
            mask |= reached
            while reached:
                low = reached & -reached
                pending.append(low.bit_length() - 1)
                reached ^= low
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


@cache
def line_tables(n: int) -> LineTables:
    """The LineTables of BC_n, built once per n."""
    return LineTables(n)


# ---------------------------------------------------------------------------
# closed-form labelled counts (cross-checks for the enumerations)


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
            picks = tuple(rng.sample(block, cut))
            rest = tuple(v for v in block if v not in picks)
            comp = Component(block, tag, (picks, rest))
        else:
            comp = Component(block, tag)
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
    sub = slot_mask(g) & rng.getrandbits(tables.count)
    gp = graph_from_slot_mask(n, tables.closure(sub))
    if classify_components(gp).has_bipartite():
        gp, w = bipartite_normalize(gp)
        g = weyl_act_graph(w, g)
    return g, gp


PAIR_LIMIT = 3  # verify checks every pair: 2,043 at n = 3, 40,244 at n = 4


def nested_pairs_exhaustive(n: int):
    """Every nested crystallograph pair (gp classical) on n nodes; n <= PAIR_LIMIT.

    For each crystallograph g, in enumeration order, gp runs over the masks
    inside g's slot mask that pass the closure rules, listed by
    `closed_masks` within that mask.
    """
    if n > PAIR_LIMIT:
        raise ValueError(f"n={n} exceeds the exhaustive pair limit {PAIR_LIMIT}")
    rules = closure_rules(n, CRYSTAL_PROPAGATING)
    for g in enumerate_crystallographs(n, "all"):
        for mask in closed_masks(rules, within=slot_mask(g)):
            gp = graph_from_slot_mask(n, mask)
            if not classify_components(gp).has_bipartite():
                yield g, gp


# ---------------------------------------------------------------------------
# verification driver


class EnumerationSummary(
    namedtuple("EnumerationSummary", "n total_graphs crystallographs quasi_crystallographs orbits runtime")
):
    __slots__ = ()


def bijection_sweep(n: int, samples: int | None = None, seed: int = RNG_DEFAULT_SEED):
    """Compare the graph closure rules with the reflection-closure mask oracle.

    Exhaustive when samples is None: `closed_masks` lists the family of
    slot masks the crystal rules accept and the family of line masks the
    oracle's `rules` accept (a slot mask is the line mask it also is), and
    counts the quasi family.  Each family is exact, so the two are equal
    exactly when every one of the 2^(n^2+n) masks, all counted as checked,
    gets the same answer from both sides.  Otherwise `samples` seeded random
    masks are drawn one at a time, and each goes through `closed` on the
    quasi, crystal and oracle rules.  Either way only the masks that the
    crystal rules or the oracle accept are decoded, in mask order or draw
    order, and those also go through is_crystallograph.
    Returns (checked, crystallograph_list, quasi_count, failures).
    """
    tables = line_tables(n)
    crystal_rules = closure_rules(n, CRYSTAL_PROPAGATING)
    quasi_rules = closure_rules(n, QUASI_PROPAGATING)

    if samples is None:
        checked = 1 << tables.count
        crystal = set(closed_masks(crystal_rules))
        root = set(closed_masks(tables.rules))
        quasi_count = sum(1 for _ in closed_masks(quasi_rules))
        accepted = ((mask, mask in crystal, mask in root) for mask in sorted(crystal | root))
    else:
        checked = samples
        rng = random.Random(seed)
        quasi_count = 0
        accepted = []
        for _ in range(samples):
            mask = rng.getrandbits(tables.count)
            quasi_count += closed(mask, quasi_rules)
            graph_side, root_side = closed(mask, crystal_rules), closed(mask, tables.rules)
            if graph_side or root_side:
                accepted.append((mask, graph_side, root_side))

    crystallographs: list[ColouredGraph] = []
    failures: list[str] = []
    for mask, graph_side, root_side in accepted:
        g = graph_from_slot_mask(n, mask)
        if not graph_side == root_side == is_crystallograph(g):
            failures.append(f"bijection mismatch: {graph_to_json(g)}")
        if graph_side:
            crystallographs.append(g)
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


def _replayed_failures(items, key, check) -> list[str]:
    """The failure lines of `check` over a stream, each distinct item checked once.

    `key(item)` gives (scope, int) and must be exact: two items with equal
    keys are equal values, so a repeat replays its first occurrence's lines
    at its own place in the stream.  The memo keeps ints and tuples of
    lines, never the items, and lives for this one call.
    """
    memo: defaultdict[tuple, dict[int, tuple[str, ...]]] = defaultdict(dict)
    failures: list[str] = []
    for item in items:
        scope, k = key(item)
        seen = memo[scope]
        lines = seen.get(k)
        if lines is None:
            lines = seen[k] = tuple(check(item))
        failures += lines
    return failures


def _graph_key(g: ColouredGraph) -> tuple[tuple, int]:
    return (g.n, g.palette), slot_mask(g)


def _pair_key(pair: tuple[ColouredGraph, ColouredGraph]) -> tuple[tuple, int]:
    # within one scope gp's mask has fewer than gp.n^2 + 2 gp.n bits (the
    # trichromatic slot count), so the shift keeps the two masks apart
    g, gp = pair
    return (g.n, gp.n, g.palette, gp.palette), slot_mask(g) << gp.n * (gp.n + 2) | slot_mask(gp)


def _classification_lines(g: ColouredGraph) -> list[str]:
    try:
        report = classify_components(g)
    except (InconsistencyError, ValueError) as exc:
        return [f"classification failed: {graph_to_json(g)}: {exc}"]
    rebuilt = frozenset().union(*(model_edges(c) for c in report.components))
    if rebuilt != g.edges:
        return [f"model reconstruction mismatch: {graph_to_json(g)}"]
    return []


def classification_failures(graphs) -> list[str]:
    """classify_components must succeed with exact model reconstruction.

    Each distinct graph is checked once; a repeat replays the failure lines
    of its first occurrence.
    """
    return _replayed_failures(graphs, _graph_key, _classification_lines)


def _kernel_lines(g: ColouredGraph) -> list[str]:
    failures = []
    try:
        if classify_components(g).has_bipartite():
            return []
        basis = kernel_basis(g)
        roots = sorted(roots_from_graph(g))
        # negation reverses the order, so each half of the sorted roots holds
        # one root of every +- line, which both checks on roots need alone
        half = len(roots) // 2
        generic = linalg.nullspace_basis(roots[half:], g.n)
        if not linalg.span_equal(basis.vectors, generic):
            return [f"kernel span mismatch: {graph_to_json(g)}"]
        # the projection is P / D with D > 0, so it is idempotent iff
        # P.P == D.P, symmetric iff P is, and fixes vec = v / d iff P.v == D.v
        P, D = linalg.clear_denominators(orthogonal_projection(g))
        columns = list(zip(*P))
        if any(sum(map(mul, row, col)) != D * x for row in P for col, x in zip(columns, row)):
            failures.append(f"projection not idempotent: {graph_to_json(g)}")
        if any(P[i][j] != P[j][i] for i in range(g.n) for j in range(g.n)):
            failures.append(f"projection not symmetric: {graph_to_json(g)}")
        for vec in basis.vectors:
            (v,), _ = linalg.clear_denominators([vec])
            if any(sum(map(mul, row, v)) != D * x for row, x in zip(P, v)):
                failures.append(f"projection moves a kernel vector: {graph_to_json(g)}")
        # failing roots come in +- pairs, so the least, the one named, is
        # in the lower half
        for alpha in roots[:half]:
            if any(sum(map(mul, alpha, col)) for col in columns):
                failures.append(f"projection image not annihilated by {alpha}: {graph_to_json(g)}")
                break
    except (InconsistencyError, ValueError) as exc:
        failures.append(f"kernel check failed: {graph_to_json(g)}: {exc}")
    return failures


def kernel_failures(graphs) -> list[str]:
    """kernel_basis span must equal the generic nullspace; projections behave.

    Each distinct graph is checked once; a repeat replays the failure lines
    of its first occurrence.
    """
    return _replayed_failures(graphs, _graph_key, _kernel_lines)


_ARRANGEMENT_TAGS_OK = {"A", "D", "BorC", "ExoticBD", "Bipartite"}


def _pair_label(g: ColouredGraph, gp: ColouredGraph) -> str:
    """A nested pair in a failure message; built only when one is reported."""
    return f"{graph_to_json(g)} / {graph_to_json(gp)}"


def _pair_lines(pair: tuple[ColouredGraph, ColouredGraph]) -> list[str]:
    g, gp = pair
    failures = []
    try:
        if not verify_quotient_theorem(g, gp):
            return [f"quotient theorem fails: {_pair_label(g, gp)}"]
        q = quotient_graph(g, gp)
        if not is_quasi_crystallograph(q):
            failures.append(f"quotient not quasi: {_pair_label(g, gp)}")
        if not verify_projectification_compatibility(g, gp):
            failures.append(f"projectification incompatible: {_pair_label(g, gp)}")
        report = classify_restricted_arrangement(g, gp)
        for comp in report.components:
            if comp.type not in _ARRANGEMENT_TAGS_OK:
                failures.append(f"unexpected arrangement tag {comp.type}: {_pair_label(g, gp)}")
            if comp.type == "ExoticBD":
                r, s = comp.params
                if not 0 < r < r + s:
                    failures.append(f"degenerate ExoticBD{comp.params}: {_pair_label(g, gp)}")
    except (InconsistencyError, ValueError) as exc:
        failures.append(f"pair check failed: {_pair_label(g, gp)}: {exc}")
    return failures


def pair_failures(pairs) -> list[str]:
    """Quotient theorem, quasi-ness, compatibility, and arrangement tags.

    Each distinct pair is checked once; a repeat replays the failure lines
    of its first occurrence.
    """
    return _replayed_failures(pairs, _pair_key, _pair_lines)


def weyl_commutation_failures(n: int, samples: int, seed: int) -> list[str]:
    """w(g) must encode w applied to g's roots; `roots_from_graph` is injective.

    Samples are drawn as `random_bichromatic_graph` and `choice` would, twice:
    to pick what one walk over `weyl_group(n)` keeps, then to compare.
    """

    def draws():
        rng = random.Random(seed)
        for _ in range(samples):
            yield rng.getrandbits(n * n + n), rng.randrange(2**n * factorial(n))

    wanted = {i for _, i in draws()}
    drawn = {i: w for i, w in enumerate(weyl_group(n)) if i in wanted}
    failures = []
    for mask, i in draws():
        g, w = graph_from_slot_mask(n, mask), drawn[i]
        if weyl_apply(w, roots_from_graph(g)) != roots_from_graph(weyl_act_graph(w, g)):
            failures.append(f"weyl action mismatch: {graph_to_json(g)}")
    return failures


def cardinality_failures() -> list[str]:
    failures = []
    for n in range(1, 7):
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


def _crystallograph_draws(n: int, count: int, seed: int):
    """`count` graphs drawn by `random_crystallograph` from one seeded stream."""
    rng = random.Random(seed)
    for _ in range(count):
        yield random_crystallograph(n, rng)


def _graph_failures(n: int, samples: int, seed: int) -> tuple[int, int, list[str]]:
    """The bijection, orbit, classification and kernel suites, each called once.

    At n <= SCAN_LIMIT the swept counts are checked against the closed forms
    and the swept list feeds the other three suites.  Above it the bijection
    is sampled, and the classification and kernel suites each read their own
    stream of at most 2,000 seeded draws.  Returns (crystallograph count,
    quasi count, failures), the counts swept or closed-form.
    """
    crystallograph_count, quasi_count = count_crystallographs(n), count_quasi_crystallographs(n)
    if n <= SCAN_LIMIT:
        _, crystallographs, swept_quasi, failures = bijection_sweep(n)
        swept = len(crystallographs)
        if swept != crystallograph_count:
            failures.append(f"crystallograph count {swept} != closed form {crystallograph_count}")
        if swept_quasi != quasi_count:
            failures.append(f"quasi count {swept_quasi} != closed form {quasi_count}")
        failures += weyl_orbit_failures(n, crystallographs)
        crystallograph_count, quasi_count = swept, swept_quasi
        streams = [crystallographs] * 2
    else:
        _, _, _, failures = bijection_sweep(n, samples=samples, seed=seed)
        draws = min(samples, 2000)
        streams = [_crystallograph_draws(n, draws, seed + 1) for _ in range(2)]
    failures += classification_failures(streams[0])
    failures += kernel_failures(streams[1])
    return crystallograph_count, quasi_count, failures


VERIFY_LIMIT = 6  # weyl_commutation_failures walks all 2^n n! = 46080 elements at n = 6


def verify_all(
    n: int,
    samples: int = 10000,
    seed: int = RNG_DEFAULT_SEED,
) -> tuple[EnumerationSummary, list[str]]:
    """Run every theorem suite at scale n; failures are data, not errors.

    Exhaustive up to the per-suite limits (graph sweeps and the measured
    Weyl orbit count at n <= SCAN_LIMIT, pair sweeps at n <= PAIR_LIMIT),
    seeded sampling above.  A repeated draw is checked once: the graph and
    pair suites replay the failure lines of its first occurrence.  The
    summary's `orbits` is always the closed form; at n <= 4 it is also
    checked against the orbits counted from the sweep, while at n >= 5 it
    is closed-form only.  Deterministic for a fixed seed regardless of
    internal ordering.

    No list of graphs outlives `_graph_failures`, which runs the bijection,
    orbit, classification and kernel suites before the pair and Weyl suites
    start; above SCAN_LIMIT its suites read seeded streams, so memory does
    not grow with the number of graphs they check.
    """
    if n > VERIFY_LIMIT:
        raise ValueError(f"n={n} exceeds the verification limit {VERIFY_LIMIT}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    start = time.monotonic()
    total_graphs = 1 << (n * n + n)

    crystallograph_count, quasi_count, failures = _graph_failures(n, samples, seed)

    if n <= PAIR_LIMIT:
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
    obj = summary._asdict()
    obj["failures"] = failures
    return dump_json(obj)
