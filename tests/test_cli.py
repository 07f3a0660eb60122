"""Command-line interface: exit codes, canonical output, round-trips."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

from crystallograph import classical
from crystallograph.cli import main
from crystallograph.graphs import (
    RED,
    disjoint_union,
    empty_graph,
    graph,
    graph_from_json,
    graph_to_json,
    straight,
)


@pytest.fixture()
def d4_file(tmp_path):
    path = tmp_path / "d4.json"
    path.write_text(graph_to_json(classical.graph_d(4)))
    return str(path)


@pytest.fixture()
def a1_file(tmp_path):
    path = tmp_path / "a1.json"
    path.write_text(graph_to_json(graph(4, [straight(1, 2, RED)])))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_quotient_worked_example(capsys, d4_file, a1_file):
    code, out, err = run(capsys, "quotient", d4_file, a1_file, "--verify")
    assert code == 0
    obj = json.loads(out)
    assert obj["nodes"] == 3 and len(obj["edges"]) == 7
    assert graph_from_json(out.strip()) == classical.graph_c_plus_d(1, 2)


def test_classify_empty_graph(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"palette":"bi","nodes":3,"edges":[]}')
    code, out, _ = run(capsys, "classify", str(path))
    assert code == 0
    obj = json.loads(out)
    assert obj == {
        "components": [
            {"nodes": [1], "type": "A", "params": [1]},
            {"nodes": [2], "type": "A", "params": [1]},
            {"nodes": [3], "type": "A", "params": [1]},
        ]
    }


def test_check_formats(capsys, a1_file):
    code, out, _ = run(capsys, "check", a1_file)
    assert code == 0
    obj = json.loads(out)
    assert obj["crystallograph"] is True and obj["projective_crystallograph"] is None
    code, out, _ = run(capsys, "check", a1_file, "--format", "text")
    assert "crystallograph: yes" in out


def test_enumerate_counts(capsys):
    code, out, _ = run(capsys, "enumerate", "--nodes", "1", "--count-only")
    assert code == 0 and out.strip() == "4"
    code, out, _ = run(capsys, "enumerate", "--nodes", "2", "--quasi", "--count-only")
    assert code == 0 and out.strip() == "26"
    code, out, _ = run(capsys, "enumerate", "--nodes", "2", "--up-to-weyl", "--count-only")
    assert code == 0 and out.strip() == "15"


@pytest.mark.parametrize(
    "n, mode",
    [
        pytest.param(n, mode, id=f"{n}-{name}")
        for name, mode, limit in (("all", [], 4), ("quasi", ["--quasi"], 4), ("up_to_weyl", ["--up-to-weyl"], 5))
        for n in range(limit + 1)
    ],
)
def test_enumerate_count_only_counts_the_listed_lines(capsys, n, mode):
    code, out, _ = run(capsys, "enumerate", "--nodes", str(n), *mode)
    assert code == 0
    listed = len(out.splitlines())
    code, out, _ = run(capsys, "enumerate", "--nodes", str(n), *mode, "--count-only")
    assert code == 0 and out == f"{listed}\n"


@pytest.mark.parametrize(
    "argv",
    [["--nodes", "5"], ["--nodes", "5", "--quasi"], ["--nodes", "6", "--up-to-weyl"], ["--nodes", "-1"]],
)
def test_enumerate_count_only_keeps_the_limits(capsys, argv):
    listing = run(capsys, "enumerate", *argv)
    counting = run(capsys, "enumerate", *argv, "--count-only")
    assert listing[0] == counting[0] == 1
    assert listing[2] == counting[2] and "error:" in counting[2]


def test_enumerate_streams_parse_back(capsys):
    code, out, _ = run(capsys, "enumerate", "--nodes", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 22
    assert lines == sorted(lines)
    for line in lines:
        graph_from_json(line)


def test_roots_roundtrip(capsys, d4_file, tmp_path):
    code, out, _ = run(capsys, "to-roots", d4_file)
    assert code == 0
    rootsfile = tmp_path / "roots.txt"
    rootsfile.write_text(out)
    code, out2, _ = run(capsys, "from-roots", str(rootsfile))
    assert code == 0
    assert graph_from_json(out2.strip()) == classical.graph_d(4)


def test_roots_input_mode(capsys, tmp_path):
    rootsfile = tmp_path / "roots.txt"
    rootsfile.write_text("1 -1\n-1 1\n")
    code, out, _ = run(capsys, "check", str(rootsfile), "--roots")
    assert code == 0
    assert json.loads(out)["crystallograph"] is True

    empty = tmp_path / "empty.txt"
    empty.write_text("")
    code, _, err = run(capsys, "check", str(empty), "--roots")
    assert code == 1 and "--nodes" in err
    code, out, _ = run(capsys, "check", str(empty), "--roots", "--nodes", "2")
    assert code == 0


def test_from_roots_names_a_malformed_root(capsys, tmp_path):
    rootsfile = tmp_path / "roots.txt"
    rootsfile.write_text("1 2 3\n")
    code, out, err = run(capsys, "from-roots", str(rootsfile))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.rstrip().endswith("not a BC root: (1, 2, 3)")

    empty = tmp_path / "empty.txt"
    empty.write_text("")
    code, out, err = run(capsys, "from-roots", str(empty))
    assert (code, out) == (1, "")
    assert err == f"error: {empty}: empty root file; pass --nodes to fix the dimension\n"
    code, out, _ = run(capsys, "from-roots", str(empty), "--nodes", "2")
    assert (code, out) == (0, '{"palette":"bi","nodes":2,"edges":[]}\n')
    code, out, err = run(capsys, "from-roots", str(empty), "--nodes", "-1")
    assert (code, out, err) == (1, "", f"error: {empty}: node count must be >= 0\n")


def test_kernel_output(capsys, tmp_path, a1_file):
    code, out, _ = run(capsys, "kernel", a1_file)
    assert code == 0
    obj = json.loads(out)
    assert obj["parts"] == [[1, 2], [3], [4]]
    assert obj["vectors"][0] == ["1/2", "1/2", "0", "0"]
    assert obj["projection"][0] == ["1/2", "1/2", "0", "0"]

    # an edgeless graph below the node cap still gets its projection
    empty = tmp_path / "empty.json"
    empty.write_text('{"palette":"bi","nodes":3,"edges":[]}')
    code, out, _ = run(capsys, "kernel", str(empty))
    assert code == 0
    identity = [["1" if i == j else "0" for j in range(3)] for i in range(3)]
    assert json.loads(out)["projection"] == identity


def test_restrict_output(capsys, d4_file, a1_file):
    code, out, _ = run(capsys, "restrict", d4_file, a1_file)
    assert code == 0
    obj = json.loads(out)
    assert obj["dimension"] == 3 and len(obj["covectors"]) == 14
    assert obj["covectors"] == sorted(obj["covectors"])


def test_projectify_and_dot(capsys, tmp_path):
    path = tmp_path / "bc1.json"
    path.write_text(graph_to_json(classical.graph_bc(1)))
    code, out, _ = run(capsys, "projectify", str(path))
    assert code == 0
    obj = json.loads(out)
    assert obj["palette"] == "tri"
    assert obj["edges"] == [{"kind": "loop", "k": 1, "colour": "B"}]

    code, out, _ = run(capsys, "dot", str(path))
    assert code == 0
    assert out.startswith("graph {") and "1 -- 1 [color=red];" in out


def test_arrangement_single_and_pair(capsys, d4_file, a1_file, tmp_path):
    code, out, _ = run(capsys, "arrangement", d4_file, a1_file)
    assert code == 0
    obj = json.loads(out)
    assert len(obj["hyperplanes"]) == 7
    assert obj["components"] == [{"nodes": [1, 2, 3], "type": "ExoticBD", "params": [1, 2]}]

    path = tmp_path / "b2.json"
    path.write_text(graph_to_json(classical.graph_b(2)))
    code, out, _ = run(capsys, "arrangement", str(path))
    assert code == 0
    obj = json.loads(out)
    assert len(obj["hyperplanes"]) == 4
    assert obj["components"] == [{"nodes": [1, 2], "type": "BorC", "params": [2]}]


def test_arrangement_projective_pair(capsys, tmp_path):
    from crystallograph.arrange import projectify

    g = tmp_path / "pd4.json"
    g.write_text(graph_to_json(projectify(classical.graph_d(4))))
    gp = tmp_path / "pa1.json"
    gp.write_text(graph_to_json(projectify(graph(4, [straight(1, 2, RED)]))))
    code, out, _ = run(capsys, "arrangement", str(g), str(gp))
    assert code == 0
    obj = json.loads(out)
    assert len(obj["hyperplanes"]) == 7
    assert obj["components"] == [{"nodes": [1, 2, 3], "type": "ExoticBD", "params": [1, 2]}]


def test_arrangement_names_a_palette_mismatch(capsys, d4_file, tmp_path):
    # an empty trichromatic graph has no edge outside g, but is no subgraph
    # of a bichromatic one
    gp = tmp_path / "empty_tri.json"
    gp.write_text('{"palette":"tri","nodes":4,"edges":[]}')
    code, out, err = run(capsys, "arrangement", d4_file, str(gp))
    assert (code, out) == (1, "")
    assert err == "error: palettes differ: bi vs tri\n"


@pytest.mark.parametrize("tri_first", [True, False], ids=["tri-bi", "bi-tri"])
def test_arrangement_palette_mismatch_in_either_order(capsys, tmp_path, tri_first):
    from crystallograph.arrange import projectify

    d4, a1 = classical.graph_d(4), graph(4, [straight(1, 2, RED)])
    g, gp = (projectify(d4), a1) if tri_first else (d4, projectify(a1))
    paths = []
    for name, h in (("g.json", g), ("gp.json", gp)):
        paths.append(tmp_path / name)
        paths[-1].write_text(graph_to_json(h))
    code, out, err = run(capsys, "arrangement", *map(str, paths))
    assert (code, out) == (1, "")
    assert err == f"error: palettes differ: {g.palette} vs {gp.palette}\n"


def test_quotient_normalize_flag(capsys, tmp_path):
    g = classical.graph_bipartite(1, 2)
    gfile = tmp_path / "g.json"
    gfile.write_text(graph_to_json(g))
    gpfile = tmp_path / "gp.json"
    gpfile.write_text(graph_to_json(g))
    code, _, err = run(capsys, "quotient", str(gfile), str(gpfile))
    assert code == 1 and "bipartite" in err
    code, out, err = run(capsys, "quotient", str(gfile), str(gpfile), "--normalize", "--verify")
    assert code == 0
    assert "sign flips" in err
    obj = json.loads(out)
    assert obj["nodes"] == 1 and obj["edges"] == []


def test_normalize_names_flipped_nodes_and_moves_both_graphs(capsys, tmp_path):
    def write(name, g):
        path = tmp_path / name
        path.write_text(graph_to_json(g))
        return str(path)

    b23 = write("b23.json", classical.graph_bipartite(2, 3))
    code, _, err = run(capsys, "quotient", b23, b23, "--normalize")
    assert code == 0
    assert err == "normalized: sign flips applied at nodes [1, 2]\n"
    bc4 = write("bc4.json", classical.graph_bc(4))
    code, _, err = run(capsys, "quotient", bc4, b23, "--normalize")
    assert code == 1 and err.endswith("\nerror: dimension mismatch: 4 vs 5\n")

    # g = Bipartite({1,2},{3..6}) contains gp = Bipartite({1,2},{3,4,5}) + {6};
    # flipping nodes 1 and 2 carries g to A_5 and gp to A_4 + A_0.
    g = write("g.json", classical.graph_bipartite(2, 4))
    gp = write("gp.json", disjoint_union(classical.graph_bipartite(2, 3), empty_graph(1)))
    code, normalized, err = run(capsys, "restrict", g, gp, "--normalize")
    assert code == 0
    assert err == "normalized: sign flips applied at nodes [1, 2]\n"
    a5 = write("a5.json", classical.graph_a(6))
    a4 = write("a4.json", disjoint_union(classical.graph_a(5), empty_graph(1)))
    assert run(capsys, "restrict", a5, a4) == (0, normalized, "")
    assert json.loads(normalized)["covectors"]


def test_verify_command(capsys):
    code, out, err = run(capsys, "verify", "--nodes", "1", "--samples", "16")
    assert code == 0
    obj = json.loads(out)
    assert obj["failures"] == [] and obj["crystallographs"] == 4
    assert "0 failures" in err


def test_exit_codes(capsys, tmp_path, d4_file):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate"])  # missing --nodes
    assert exc.value.code == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 1 and "error:" in err

    missing = tmp_path / "missing.json"
    code, _, err = run(capsys, "check", str(missing))
    assert code == 1

    small = tmp_path / "small.json"
    small.write_text('{"palette":"bi","nodes":2,"edges":[]}')
    code, _, err = run(capsys, "quotient", d4_file, str(small))
    assert code == 1 and "error:" in err

    code, _, err = run(capsys, "enumerate", "--nodes", "9", "--count-only")
    assert code == 1


@pytest.mark.parametrize(
    "text",
    [
        '{"palette":"bi","nodes":true,"edges":[]}',
        '{"palette":"bi","nodes":2,"edges":[{"kind":"straight","i":1,"colour":"R"}]}',
        '{"palette":"bi","nodes":2,"edges":[{"kind":"straight","i":"1","j":2,"colour":"R"}]}',
    ],
    ids=["bool-nodes", "missing-j", "string-endpoint"],
)
def test_malformed_graph_is_a_one_line_error(capsys, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(capsys, "check", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["check", "classify"])
def test_deeply_nested_graph_is_a_one_line_error(capsys, tmp_path, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, command, str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "F"],
        ["check", "F", "--roots"],
        ["classify", "F"],
        ["from-roots", "F"],
        ["kernel", "F"],
        ["quotient", "F", "F"],
        ["arrangement", "F"],
        ["dot", "F"],
    ],
    ids=lambda argv: "-".join(argv),
)
def test_non_utf8_input_is_a_one_line_error(capsys, tmp_path, argv):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, *(str(path) if a == "F" else a for a in argv))
    assert code == 1 and out == ""
    assert err.startswith(f"error: cannot read {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize("nodes", [1001, 100_000])
def test_kernel_rejects_large_node_count(capsys, tmp_path, nodes):
    path = tmp_path / "big.json"
    path.write_text(f'{{"palette":"bi","nodes":{nodes},"edges":[]}}')
    code, out, err = run(capsys, "kernel", str(path))
    assert code == 1 and out == ""
    assert err == f"error: kernel needs at most 1000 nodes, got {nodes}\n"


@pytest.mark.parametrize("nodes", [100_001, 10**15])
@pytest.mark.parametrize(
    "argv",
    [
        ["check", "G"],
        ["check", "R", "--roots", "--nodes", "N"],
        ["classify", "G"],
        ["to-roots", "G"],
        ["from-roots", "R", "--nodes", "N"],
        ["kernel", "G"],
        ["quotient", "G", "E"],
        ["restrict", "G", "E"],
        ["projectify", "G"],
        ["arrangement", "G"],
        ["arrangement", "G", "E"],
        ["dot", "G"],
    ],
    ids=lambda argv: "-".join(argv),
)
def test_graph_above_node_cap_is_a_one_line_error(capsys, tmp_path, argv, nodes):
    looped = tmp_path / "looped.json"
    looped.write_text(
        f'{{"palette":"bi","nodes":{nodes},"edges":[{{"kind":"loop","k":1,"colour":"R"}}]}}'
    )
    edgeless = tmp_path / "edgeless.json"
    edgeless.write_text(f'{{"palette":"bi","nodes":{nodes},"edges":[]}}')
    roots = tmp_path / "roots.txt"
    roots.write_text("")
    files = {"G": str(looped), "E": str(edgeless), "R": str(roots), "N": str(nodes)}
    code, out, err = run(capsys, *(files.get(a, a) for a in argv))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"at most 100000 nodes, got {nodes}" in err


@pytest.mark.parametrize("samples", ["-1", "0"])
def test_verify_rejects_samples_below_one(capsys, samples):
    code, out, err = run(capsys, "verify", "--nodes", "5", "--samples", samples)
    assert code == 1 and out == ""
    assert err == f"error: samples must be >= 1, got {samples}\n"


@pytest.mark.parametrize(
    "mode", [[], ["--quasi"], ["--up-to-weyl"]], ids=["all", "quasi", "up-to-weyl"]
)
def test_enumerate_rejects_negative_node_count(capsys, mode):
    code, out, err = run(capsys, "enumerate", "--nodes", "-3", *mode)
    assert code == 1 and out == ""
    assert err == "error: node count must be >= 0\n"


def test_check_many_nodes_few_edges(capsys, tmp_path):
    n = 100_000
    edges = [{"kind": "straight", "i": a, "j": b, "colour": "R"}
             for a, b in ((n - 2, n - 1), (n - 1, n), (n - 2, n))]
    for name, items in (("empty", []), ("triangle", edges), ("open", edges[:2])):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"palette": "bi", "nodes": n, "edges": items}))
        start = time.perf_counter()
        code, out, _ = run(capsys, "check", str(path))
        assert time.perf_counter() - start < 5
        assert code == 0
        assert json.loads(out)["crystallograph"] is (name != "open")


def test_console_script_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "crystallograph.cli", "enumerate", "--nodes", "1", "--count-only"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "4"


CLI = [sys.executable, "-m", "crystallograph.cli"]


def test_closed_output_pipe_exits_1_silently():
    """`enumerate --nodes 4 | head -1`: the reader leaves after one line."""
    proc = subprocess.Popen(
        [*CLI, "enumerate", "--nodes", "4"], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    first = proc.stdout.readline()
    # the command writes 254 kB, more than the pipe buffer, so a later write fails
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert graph_from_json(first.decode()) == empty_graph(4)
    assert err == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
def test_unwritable_output_is_a_one_line_error():
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [*CLI, "enumerate", "--nodes", "3"], stdout=full, stderr=subprocess.PIPE, text=True
        )
    assert result.returncode == 1
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
