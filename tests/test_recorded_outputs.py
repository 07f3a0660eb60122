"""What `enumerate` and `verify` print, pinned by sha256.

The digests were recorded before `enumerate` listed every mode through
`crystal.ranked_enumeration` and before `verify` wired its graph suites in
one step (`oracle._graph_failures`); both refactors must leave every byte
in place.  A verify run also reports its runtime, which is dropped before
hashing.  Every real run here passes, so its failure list is empty; the
planted runs replace the classification and kernel checks with ones that
fail on a fixed share of graphs, so the digest also covers which graphs
each suite saw, in which order.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

import pytest

from crystallograph import cli, crystal, graphs, oracle
from crystallograph.crystal import slot_mask
from crystallograph.graphs import dump_json, graph_to_json

SEEDS = (oracle.RNG_DEFAULT_SEED, 7177)

# sha256 prefixes of `enumerate --nodes n` stdout, by mode and n
ENUMERATE = {
    "all": ["8822f4289c32b1be", "c91da03702e58ba7", "f0f6c10139f6a9c9", "2010eab9ad38ce55", "42b6d1c03a2748ea"],
    "quasi": ["8822f4289c32b1be", "c91da03702e58ba7", "bb324f1c6bd769d8", "868055d071c2ca27", "8265ed42de1a30c6"],
    "up_to_weyl": [
        "8822f4289c32b1be", "c91da03702e58ba7", "aeddeffd51814265",
        "73e5c09286eb7553", "47231110acf23872", "eed140526b4fc2e3",
    ],
}
FLAGS = {"all": [], "quasi": ["--quasi"], "up_to_weyl": ["--up-to-weyl"]}

# sha256 prefixes of the verify JSON without runtime, by n; the same at
# both seeds, since no run fails
VERIFY = ["3333bb6e1fab3cc2", "2f1a597a0d87680e", "d34cf4ba9540003e", "dcb862bcbaeffebc",
          "6cb6dab41f88ca04", "36bbf031ce908b87", "5cbfe169db6b18e9"]

# with planted checks, by (seed, n): (failure count, sha256 prefix)
PLANTED = {
    (20240801, 4): (584, "97c4ce644dddc03e"),
    (20240801, 5): (152, "739a2b254653968c"),
    (20240801, 6): (181, "e431e3a77df8fd4a"),
    (7177, 4): (584, "97c4ce644dddc03e"),
    (7177, 5): (151, "c274f1d3e3e65f30"),
    (7177, 6): (187, "da55a504cd1df0db"),
}


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _verify(n: int, seed: int) -> tuple[int, dict]:
    argv = ["verify", "--nodes", str(n), "--seed", str(seed)]
    if n >= 4:
        argv += ["--samples", "300"]
    rc, out = _run(argv)
    obj = json.loads(out)
    del obj["runtime"]
    return rc, obj


@pytest.mark.parametrize("mode, n", [(mode, n) for mode, digests in ENUMERATE.items() for n in range(len(digests))])
def test_enumerate_prints_its_recorded_output(mode, n):
    rc, out = _run(["enumerate", "--nodes", str(n), *FLAGS[mode]])
    assert rc == 0
    assert _digest(out) == ENUMERATE[mode][n]


@pytest.mark.parametrize("mode, n", [("all", 4), ("quasi", 4), ("up_to_weyl", 4), ("up_to_weyl", 5)])
def test_enumerate_serialises_each_graph_at_most_once(monkeypatch, mode, n):
    calls = []

    def counting(g):
        calls.append(g)
        return graph_to_json(g)

    for module in (graphs, crystal, cli):
        monkeypatch.setattr(module, "graph_to_json", counting)
    rc, out = _run(["enumerate", "--nodes", str(n), *FLAGS[mode]])
    assert rc == 0
    lines = out.count("\n")
    assert lines > 1
    assert len(calls) == (0 if mode == "up_to_weyl" else lines)


@pytest.mark.parametrize("mode, n", [(mode, n) for mode in FLAGS for n in range(4)])
def test_ranked_enumeration_pairs_each_graph_with_its_json(mode, n):
    ranked = crystal.ranked_enumeration(n, mode)
    assert [text for text, _ in ranked] == sorted(graph_to_json(g) for _, g in ranked)
    assert list(crystal.enumerate_crystallographs(n, mode)) == [g for _, g in ranked]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", range(len(VERIFY)))
def test_verify_prints_its_recorded_summary(n, seed):
    rc, obj = _verify(n, seed)
    assert (rc, obj["failures"]) == (0, [])
    assert _digest(dump_json(obj)) == VERIFY[n]


@pytest.mark.parametrize("seed, n", sorted(PLANTED))
def test_verify_reports_planted_failures_as_recorded(monkeypatch, seed, n):
    def classification(g):
        return [f"planted classification: {graph_to_json(g)}"] if slot_mask(g) % 3 == 0 else []

    def kernel(g):
        return [f"planted kernel: {graph_to_json(g)}"] if slot_mask(g) % 5 == 1 else []

    monkeypatch.setattr(oracle, "_classification_lines", classification)
    monkeypatch.setattr(oracle, "_kernel_lines", kernel)
    rc, obj = _verify(n, seed)
    assert rc == 1
    assert (len(obj["failures"]), _digest(dump_json(obj))) == PLANTED[seed, n]
