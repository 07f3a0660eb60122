"""The per-edge and per-component memos give the values a fresh build gives,
each graph caches its own slot mask, and the integer kernel checks give
the lines of the Fraction route."""

from __future__ import annotations

import pickle
import random
import subprocess
import sys
from fractions import Fraction
from operator import mul

import pytest
from brute_force import all_graphs, reference_roots, reference_slot_mask

from crystallograph import crystal, linalg, oracle
from crystallograph.crystal import Component, classify_components, enumerate_crystallographs, model_edges
from crystallograph.graphs import BICHROMATIC, TRICHROMATIC, ColouredGraph, graph_to_json, roots_from_graph
from crystallograph.quotient import KernelBasis

# every memo that serves one value per edge or per component
VALUE_MEMOS = (
    "crystal.model_edges",
    "crystal._shared",
    "crystal._slot_bit",
    "graphs._root_pair",
    "graphs._edge_json",
)
# every memo that serves one answer per graph, nested pair or slot mask
GRAPH_MEMOS = (
    "crystal._mask_closed",
    "crystal._mask_classified",
    "crystal._edges_closed",
    "crystal._graph_classified",
    "quotient.quotient_graph",
)
# every table built once per node count
PER_N_TABLES = (
    "crystal.closure_rules",
    "graphs.all_edge_slots",
    "graphs._legal_edges",
    "crystal._generator_tables",
    "graphs._slot_texts",
    "oracle.line_tables",
)


def test_model_edges_shares_one_frozenset_per_component():
    checked = set()
    for n in range(5):
        for g in enumerate_crystallographs(n, "quasi"):
            for comp in classify_components(g).components:
                edges = model_edges(comp)
                # a component built apart is the same key, so the same object
                assert model_edges(comp._replace()) is edges
                assert type(edges) is frozenset
                assert edges == model_edges.__wrapped__(comp)
                checked.add(comp)
    assert len(checked) > 100


def test_model_edges_raises_on_an_unknown_tag_every_time():
    comp = Component((1, 2), "E8")
    for _ in range(3):
        with pytest.raises(ValueError, match="unknown component tag: 'E8'"):
            model_edges(comp)


@pytest.mark.parametrize("palette", [BICHROMATIC, TRICHROMATIC])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_slot_masks_and_roots_match_the_references_on_every_graph(n, palette):
    count = 0
    for g in all_graphs(n, palette):
        expected = reference_slot_mask(g)
        # twice: once filling the memo, once reading it
        assert (crystal.slot_mask(g), crystal.slot_mask(g)) == (expected, expected)
        if palette == BICHROMATIC:
            roots = reference_roots(g)
            assert roots_from_graph(g) == roots_from_graph(g) == roots
        else:
            with pytest.raises(ValueError, match="needs a bichromatic graph"):
                roots_from_graph(g)
        count += 1
    assert count == 2 ** (n * n + n + (n if palette == TRICHROMATIC else 0))


@pytest.mark.parametrize("palette", [BICHROMATIC, TRICHROMATIC])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_each_graph_caches_its_own_slot_mask(n, palette):
    decoded = list(all_graphs(n, palette))
    expected = [reference_slot_mask(g) for g in decoded]
    assert [g._slot_mask for g in decoded] == expected
    # the cache is no part of the value: a graph built from the same edges,
    # its mask not yet cached, equals, hashes and reduces like the decoded one
    built = [ColouredGraph(n, set(g.edges), palette) for g in decoded]
    assert {g._slot_mask for g in built} == {None}
    assert built == decoded
    assert [hash(g) for g in built] == [hash(g) for g in decoded]
    assert [g.__reduce__() for g in built] == [g.__reduce__() for g in decoded]
    # the first encoding fills the cache and the second reads it
    assert [(crystal.slot_mask(g), crystal.slot_mask(g)) for g in built] == [(m, m) for m in expected]
    assert [g._slot_mask for g in built] == expected
    # a pickled graph is rebuilt by the constructor and encodes afresh
    clones = pickle.loads(pickle.dumps(decoded))
    assert clones == decoded
    assert {g._slot_mask for g in clones} == {None}
    assert [crystal.slot_mask(g) for g in clones] == expected


def test_importing_the_cli_fills_no_value_memo():
    # nor builds a per-n table, which would move work into every CLI call's start
    memos = VALUE_MEMOS + GRAPH_MEMOS + PER_N_TABLES
    probe = "\n".join(
        [
            "import crystallograph.cli",
            "from crystallograph import crystal, graphs, oracle, quotient",
            f"print(*(memo.cache_info().currsize for memo in ({', '.join(memos)})))",
        ]
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["0"] * len(memos)


# Misses of the two slot-mask memos in `verify_all(4, samples=2000)` from
# empty memos, measured at 1,134 classifications and 3,554 closure checks
# with `_CLASSIFIED_MEMO_SIZE` = 2,048 and `_MASK_MEMO_SIZE` = 1,024
# entries; the bounds are about 1.5 times those.  The swept 1,080
# crystallographs miss once, in the classification suite, and the sampled
# pair stream misses again only what it has not drawn lately.  With 1,024
# classification entries the counts were 2,388 and 5,145, since the kernel
# suite missed on every swept graph again; at 64 entries each 4,655 and
# 10,685, at 8 entries 5,935 and 12,292.
WORKING_SET_MISSES = {"_mask_classified": 1700, "_mask_closed": 5300}


def test_verify_keeps_the_pair_streams_working_set():
    memos = {name: getattr(crystal, name) for name in WORKING_SET_MISSES}
    for memo in memos.values():
        memo.cache_clear()
    _, failures = oracle.verify_all(4, samples=2000)
    assert failures == []
    misses = {name: memo.cache_info().misses for name, memo in memos.items()}
    assert all(misses[name] <= bound for name, bound in WORKING_SET_MISSES.items()), misses


@pytest.mark.parametrize("n", [4, 5])
def test_the_kernel_suite_reads_the_classification_suites_reports(n, monkeypatch):
    # the swept list at n = 4 and the two sampled streams at n = 5: the
    # classification memo holds every report of the first pass for the second
    memo = crystal._mask_classified
    misses = {}

    def counted(suite):
        def run(graphs):
            before = memo.cache_info().misses
            lines = suite(graphs)
            misses[suite.__name__] = memo.cache_info().misses - before
            return lines

        return run

    for name in ("classification_failures", "kernel_failures"):
        monkeypatch.setattr(oracle, name, counted(getattr(oracle, name)))
    memo.cache_clear()
    _, _, failures = oracle._graph_failures(n, 2000, oracle.RNG_DEFAULT_SEED)
    assert failures == []
    assert misses["classification_failures"] > 1000
    assert misses["kernel_failures"] == 0


# ---------------------------------------------------------------------------
# the kernel suite against the Fraction route it replaced


def fraction_kernel_lines(g):
    """`oracle._kernel_lines` as it was: Fraction matrix product, nullspace
    over every root."""
    failures = []
    try:
        if classify_components(g).has_bipartite():
            return []
        basis = oracle.kernel_basis(g)
        roots = sorted(roots_from_graph(g))
        generic = linalg.nullspace_basis(roots, g.n)
        if not linalg.span_equal(basis.vectors, generic):
            return [f"kernel span mismatch: {graph_to_json(g)}"]
        proj = oracle.orthogonal_projection(g)
        if linalg.mat_mul(proj, proj) != proj:
            failures.append(f"projection not idempotent: {graph_to_json(g)}")
        if any(proj[i][j] != proj[j][i] for i in range(g.n) for j in range(g.n)):
            failures.append(f"projection not symmetric: {graph_to_json(g)}")
        P, D = linalg.clear_denominators(proj)
        for vec in basis.vectors:
            (v,), _ = linalg.clear_denominators([vec])
            if any(sum(map(mul, row, v)) != D * x for row, x in zip(P, v)):
                failures.append(f"projection moves a kernel vector: {graph_to_json(g)}")
        columns = list(zip(*P))
        for alpha in roots:
            if any(sum(map(mul, alpha, col)) for col in columns):
                failures.append(f"projection image not annihilated by {alpha}: {graph_to_json(g)}")
                break
    except (crystal.InconsistencyError, ValueError) as exc:
        failures.append(f"kernel check failed: {graph_to_json(g)}: {exc}")
    return failures


def _corrupt_matrix(rows, rng):
    m = [list(row) for row in rows]
    n = len(m)
    kind = rng.randrange(6)
    if kind == 0 or not n:
        pass
    elif kind == 1:  # one entry changed
        m[rng.randrange(n)][rng.randrange(n)] = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
    elif kind == 2:  # symmetric but scaled, so not idempotent
        m = [[2 * x for x in row] for row in m]
    elif kind == 3:  # two rows swapped
        i, j = rng.randrange(n), rng.randrange(n)
        m[i], m[j] = m[j], m[i]
    elif kind == 4:  # a row zeroed
        m[rng.randrange(n)] = [Fraction(0)] * n
    elif n > 1:  # ragged; the projection is always square, never 1 x 2
        m[rng.randrange(n)].append(Fraction(1))
    return tuple(tuple(row) for row in m)


def _corrupt_basis(basis, rng):
    if not basis.vectors or rng.randrange(4):
        return basis
    vectors = list(basis.vectors)
    vectors[rng.randrange(len(vectors))] = tuple(Fraction(rng.randint(0, 2)) for _ in vectors[0])
    return KernelBasis(basis.parts, tuple(vectors))


def _kernel_graphs():
    for n in range(5):
        yield from enumerate_crystallographs(n, "all")
    for n, seed in ((5, 11), (6, 12)):
        rng = random.Random(seed)
        for _ in range(200):
            yield oracle.random_crystallograph(n, rng)


def test_integer_kernel_lines_equal_the_fraction_route_on_corrupted_projections(monkeypatch):
    # each graph's corruption is seeded by the graph, so both routes see the same
    projection, basis_of = oracle.orthogonal_projection, oracle.kernel_basis

    def seeded(g, what):
        return random.Random(f"{what} {g.n} {crystal.slot_mask(g)}")

    monkeypatch.setattr(oracle, "orthogonal_projection", lambda g: _corrupt_matrix(projection(g), seeded(g, "P")))
    monkeypatch.setattr(oracle, "kernel_basis", lambda g: _corrupt_basis(basis_of(g), seeded(g, "basis")))
    kinds = set()
    for g in _kernel_graphs():
        lines = oracle._kernel_lines(g)
        assert lines == fraction_kernel_lines(g), graph_to_json(g)
        kinds |= {line.split(":")[0].split(" by ")[0] for line in lines}
    assert kinds == {
        "kernel span mismatch",
        "projection not idempotent",
        "projection not symmetric",
        "projection moves a kernel vector",
        "projection image not annihilated",
        "kernel check failed",
    }


def test_one_root_per_line_gives_the_nullspace_of_every_root():
    for g in _kernel_graphs():
        roots = sorted(roots_from_graph(g))
        half = roots[len(roots) // 2 :]
        assert sorted(half + [tuple(-c for c in a) for a in half]) == roots
        assert linalg.nullspace_basis(half, g.n) == linalg.nullspace_basis(roots, g.n)
