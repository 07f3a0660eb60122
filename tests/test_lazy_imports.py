"""A CLI call loads only the modules its subcommand runs, and the package's
public names are loaded on first access.

The benchmark runs every call in a fresh interpreter without bytecode
caches, so each module a call loads is compiled from source on every call.
The fresh-process probes below check what a call leaves in `sys.modules`,
and that a command which imports its modules at call time keeps its exit
status and its one-line `error:` text when its input is bad."""

from __future__ import annotations

import importlib
import json
import subprocess
import sys

import pytest

import crystallograph
from crystallograph import classical, cli, oracle
from crystallograph.graphs import RED, graph, graph_to_json, straight

# what only kernel, quotient, restrict, arrangement (of a pair) and verify run
UNUSED_BY_LIGHT_COMMANDS = (
    "crystallograph.oracle",
    "crystallograph.quotient",
    "crystallograph.arrange",
    "crystallograph.linalg",
    "crystallograph.classical",
    "fractions",
    "decimal",
)

# one CLI call in a fresh interpreter: its status, output and the listed
# modules it left loaded, as one JSON line
PROBE = f"""
import contextlib, io, json, sys
from crystallograph import cli
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    rc = cli.main(sys.argv[1:])
loaded = [name for name in {UNUSED_BY_LIGHT_COMMANDS!r} if name in sys.modules]
print(json.dumps({{"rc": rc, "out": out.getvalue(), "err": err.getvalue(), "loaded": loaded}}))
"""


def fresh_call(argv: list[str]) -> dict:
    result = subprocess.run([sys.executable, "-c", PROBE, *argv], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, g in {
        "G": classical.graph_d(3),
        "GP": graph(3, [straight(1, 2, RED)]),
        "A": classical.graph_a(3),
    }.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(graph_to_json(g))
    paths["R"] = tmp_path / "roots.txt"
    paths["R"].write_text("1 -1 0\n-1 1 0\n")
    paths["BAD"] = tmp_path / "bad.json"
    paths["BAD"].write_text("{not json")
    paths["MISSING"] = tmp_path / "missing.json"
    return {name: str(path) for name, path in paths.items()}


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "G"],
        ["classify", "G"],
        ["to-roots", "G"],
        ["from-roots", "R"],
        ["projectify", "G"],
        ["arrangement", "G"],
        ["dot", "G"],
        ["enumerate", "--nodes", "3", "--count-only"],
    ],
    ids=lambda argv: "-".join(argv),
)
def test_a_light_command_loads_no_unused_module(files, argv):
    record = fresh_call([files.get(a, a) for a in argv])
    assert record["rc"] == 0 and record["out"]
    assert record["loaded"] == []


@pytest.mark.parametrize(
    "argv",
    [
        ["kernel", "MISSING"],
        ["kernel", "BAD"],
        ["quotient", "BAD", "GP"],
        ["quotient", "GP", "G"],
        ["restrict", "MISSING", "GP"],
        ["restrict", "GP", "G"],
        ["arrangement", "G", "BAD"],
        ["arrangement", "GP", "A"],
        ["verify", "--nodes", "9"],
    ],
    ids=lambda argv: "-".join(argv),
)
def test_a_lazily_importing_command_keeps_its_error(capsys, files, argv):
    """The fresh call imports the command's modules before it reads its
    input; it fails as the same call does with every module loaded."""
    argv = [files.get(a, a) for a in argv]
    record = fresh_call(argv)
    rc = cli.main(argv)
    out, err = capsys.readouterr()
    assert (record["rc"], record["out"], record["err"]) == (rc, out, err)
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_seed_default_is_the_oracle_seed():
    args = cli.build_parser().parse_args(["verify", "--nodes", "1"])
    assert args.seed is oracle.RNG_DEFAULT_SEED


# the public names, by defining module
PUBLIC = {
    "arrange": [
        "arrangements_equivalent",
        "classify_restricted_arrangement",
        "quotient_projective",
        "verify_projectification_compatibility",
    ],
    "classical": [
        "graph_a",
        "graph_b",
        "graph_b_plus_c",
        "graph_bc",
        "graph_bipartite",
        "graph_c",
        "graph_c_plus_d",
        "graph_d",
        "graph_pairs_and_points",
        "projective_graph_borc",
        "projective_graph_exotic_bd",
    ],
    "crystal": [
        "Component",
        "ComponentReport",
        "InconsistencyError",
        "bipartite_normalize",
        "classify_components",
        "classify_projective_components",
        "enumerate_crystallographs",
        "is_crystallograph",
        "is_projective_crystallograph",
        "is_quasi_crystallograph",
        "rank",
    ],
    "graphs": [
        "BICHROMATIC",
        "BLUE",
        "GREEN",
        "RED",
        "TRICHROMATIC",
        "ColouredGraph",
        "Edge",
        "Hyperplane",
        "arrangement_from_graph",
        "connected_components",
        "disjoint_union",
        "empty_graph",
        "graph",
        "graph_from_arrangement",
        "graph_from_json",
        "graph_from_roots",
        "graph_to_dot",
        "graph_to_json",
        "lift",
        "loop",
        "projectify",
        "roots_from_graph",
        "straight",
        "weyl_act_graph",
    ],
    "oracle": ["EnumerationSummary", "verify_all"],
    "quotient": [
        "KernelBasis",
        "RestrictedSystem",
        "kernel_basis",
        "orthogonal_projection",
        "quotient_graph",
        "restricted_system",
        "verify_quotient_theorem",
    ],
    "rootsys": [
        "SignedPermutation",
        "is_root_subsystem",
        "is_symmetric",
        "reflect",
        "reflection_closure",
        "roots_a",
        "roots_b",
        "roots_bc",
        "roots_c",
        "roots_d",
        "weyl_apply",
        "weyl_equivalent",
    ],
}


def test_the_public_names_are_the_defining_modules_objects():
    names = [name for group in PUBLIC.values() for name in group]
    assert len(names) == len(set(names)) == 71
    assert set(crystallograph.__all__) == set(names)
    assert set(names) <= set(dir(crystallograph))
    for module, group in PUBLIC.items():
        defining = importlib.import_module(f"crystallograph.{module}")
        for name in group:
            assert getattr(crystallograph, name) is getattr(defining, name), name


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'crystallograph' has no attribute 'no_such_name'$"):
        crystallograph.no_such_name  # noqa: B018
