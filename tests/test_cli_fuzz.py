"""Seeded CLI fuzz: no mutated graph JSON or root text ends in a traceback.

Each case applies one mutation to a valid input file and runs it through
every subcommand that reads a file.  The exit status must be 0, 1 or 2, and
on 1 stderr must be exactly one `error:` line.  `enumerate` and `verify`
read no file; their argument limits are named cases in `test_cli.py`.
Mutated graphs keep at most 10 nodes, so a case tests the boundary rather
than the time and memory of the host: `classify` and `dot` do work linear
in the declared node count even on an edgeless graph.
"""

from __future__ import annotations

import copy
import json
import random

import pytest
from brute_force import graph_to_json_obj

from crystallograph import classical, cli
from crystallograph.arrange import projectify
from crystallograph.graphs import BICHROMATIC, empty_graph, roots_from_graph, roots_to_text

SEED = 20240801
CASES_PER_MUTATION = 40
BASE_GRAPHS = [
    classical.graph_d(4),
    classical.graph_bc(3),
    classical.graph_bipartite(2, 2),
    classical.graph_c_plus_d(1, 2),
    projectify(classical.graph_b_plus_c(1, 2)),
    empty_graph(2),
]
BASE_OBJS = [graph_to_json_obj(g) for g in BASE_GRAPHS]
BASE_ROOTS = [
    roots_to_text(roots_from_graph(g)) for g in BASE_GRAPHS if g.palette == BICHROMATIC and g.edges
]
WRONG_TYPES = [None, True, 2.5, "2", [], [1], {}, {"a": 1}]
UNKNOWN_NAMES = ["", "X", "r", "red", "RG", "B ", "quad", "tri-", "ä", "curly"]
BAD_NODES = [0, -1, 11, 10**9, 1.5, 2.0, "1", True, None]


def _base(rng: random.Random) -> dict:
    return copy.deepcopy(rng.choice(BASE_OBJS))


def _edge_of(rng: random.Random, obj: dict) -> dict:
    if not obj["edges"]:
        obj["edges"].append({"kind": "straight", "i": 1, "j": 2, "colour": "R"})
    return rng.choice(obj["edges"])


def _dump(obj) -> bytes:
    return json.dumps(obj).encode()


def truncation(rng):
    text = _dump(_base(rng)) if rng.random() < 0.7 else rng.choice(BASE_ROOTS).encode()
    return text[: rng.randrange(len(text))]


def wrong_type(rng):
    obj = _base(rng)
    if rng.random() < 0.4:
        key = rng.choice(["palette", "nodes", "edges"])
        target = obj
    else:
        target = _edge_of(rng, obj)
        key = rng.choice(sorted(target))
    if rng.random() < 0.15:
        target.pop(key, None)
    else:
        target[key] = rng.choice([v for v in WRONG_TYPES if type(v) is not type(target.get(key))])
    return _dump(obj)


def unknown_name(rng):
    obj = _base(rng)
    where = rng.choice(["palette", "kind", "colour"])
    target = obj if where == "palette" else _edge_of(rng, obj)
    target[where] = rng.choice(UNKNOWN_NAMES)
    return _dump(obj)


def bad_node(rng):
    obj = _base(rng)
    if rng.random() < 0.3:
        obj["nodes"] = rng.choice([-5, -1, 0, 1, 10, 1.5, 4.0, "4", None])
    else:
        edge = _edge_of(rng, obj)
        edge[rng.choice([k for k in ("i", "j", "k") if k in edge])] = rng.choice(BAD_NODES)
    return _dump(obj)


def non_utf8(rng):
    text = _dump(_base(rng)) if rng.random() < 0.7 else rng.choice(BASE_ROOTS).encode()
    at = rng.randrange(len(text) + 1)
    junk = bytes(rng.randrange(0x80, 0x100) for _ in range(rng.randint(1, 3)))
    return text[:at] + junk + text[at:]


def deep_nesting(rng):
    obj = _base(rng)
    depth = rng.choice([50, 1_000, 100_000])
    where = rng.choice(["document", "nodes", "edges", "edge"])
    if where == "document":
        return b"[" * depth + _dump(obj) + b"]" * depth
    if where == "edge":
        obj["edges"].append("@@")
    else:
        obj[where] = "@@"
    return _dump(obj).replace(b'"@@"', b"[" * depth + b"]" * depth)


def root_text(rng):
    lines = rng.choice(BASE_ROOTS).splitlines()
    at = rng.randrange(len(lines))
    tokens = lines[at].split()
    choice = rng.randrange(3)
    if choice == 0:  # one root longer than the rest
        tokens.append(str(rng.choice([0, 1, -1, 2])))
    elif choice == 1:  # one root shorter than the rest
        tokens.pop()
    else:
        bad = rng.choice(["1.5", "x", "1e3", "--1", "½", "9" * 5000])
        tokens[rng.randrange(len(tokens))] = bad
    lines[at] = " ".join(tokens)
    return "\n".join(lines).encode()


MUTATIONS = [truncation, wrong_type, unknown_name, bad_node, non_utf8, deep_nesting, root_text]


def _commands(path: str, valid: str) -> list[list[str]]:
    single = ["check", "classify", "kernel", "projectify", "dot"]
    return (
        [[cmd, path] for cmd in single]
        + [[cmd, path, "--roots"] for cmd in single]
        + [["to-roots", path], ["from-roots", path], ["arrangement", path]]
        + [[cmd, *pair] for cmd in ("quotient", "restrict", "arrangement")
           for pair in ((path, valid), (valid, path))]
    )


@pytest.mark.parametrize("mutation", MUTATIONS, ids=lambda m: m.__name__)
def test_mutated_input_never_escapes_the_boundary(capsys, tmp_path, mutation):
    rng = random.Random(f"{SEED}:{mutation.__name__}")
    valid = tmp_path / "valid.json"
    valid.write_bytes(_dump(BASE_OBJS[0]))
    path = tmp_path / "case"
    bad = []
    for case in range(CASES_PER_MUTATION):
        data = mutation(rng)
        path.write_bytes(data)
        for argv in _commands(str(path), str(valid)):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
            except Exception as exc:  # any escape is the finding
                code = f"{type(exc).__name__}: {exc}"
            err = capsys.readouterr().err
            one_error_line = err.startswith("error: ") and err.count("\n") == 1
            if code not in (0, 1, 2) or (code == 1 and not one_error_line):
                bad.append(f"case {case} {argv[0]} {data[:80]!r}: {code!r} {err[:200]!r}")
    assert bad == []
