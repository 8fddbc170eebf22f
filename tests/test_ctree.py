"""Cluster-tree subsystem: requirements, driver invariants, exports, CLI.

The contract: :func:`repro.ctree.build_cluster_tree` on any input with
default knobs terminates with a structurally valid tree whose *every*
leaf satisfies the requirement; explicit ``min_size`` / ``max_depth``
cut-offs are the only source of unsatisfied (``forced``) leaves.  The
JSON export round-trips losslessly and the newick export parses back
to the same topology.
"""

import json
import os

import pytest

from repro.ctree import (
    ClusterTree,
    ConductanceRequirement,
    MinDegreeRequirement,
    NodeStats,
    WellConnectedRequirement,
    build_cluster_tree,
    parse_newick,
    parse_requirement,
)
from repro.errors import GraphFormatError, ParameterError, VerificationError
from repro.graph import barabasi_albert_graph, gnm_random_graph, load_snap, path_graph

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "karate.snap")


def _stats(**over):
    base = dict(
        size=10, cut=4, volume=40, internal_edges=18,
        min_internal_degree=3, conductance=0.1, connected=True,
    )
    base.update(over)
    return NodeStats(**base)


class TestRequirements:
    def test_parse_specs(self):
        assert isinstance(parse_requirement("conductance:0.5"), ConductanceRequirement)
        assert isinstance(parse_requirement("degree:2"), MinDegreeRequirement)
        assert isinstance(parse_requirement("wellconnected"), WellConnectedRequirement)
        assert parse_requirement("wellconnected:1.5").scale == 1.5
        assert parse_requirement("Degree:3").k == 3  # case-insensitive

    def test_parse_passthrough_and_spec_strings(self):
        req = ConductanceRequirement(0.25)
        assert parse_requirement(req) is req
        assert req.spec == "conductance:0.25"
        assert MinDegreeRequirement(2).spec == "degree:2"
        assert WellConnectedRequirement().spec == "wellconnected:1"

    @pytest.mark.parametrize(
        "spec",
        ["nope", "conductance", "conductance:frog", "degree", "degree:x",
         "conductance:1.5", "degree:-1", "wellconnected:0", 42],
    )
    def test_bad_specs_refused(self, spec):
        with pytest.raises(ParameterError):
            parse_requirement(spec)

    def test_singletons_pass_vacuously(self):
        s = _stats(size=1, connected=False, conductance=1.0, min_internal_degree=0)
        for spec in ("conductance:0.0", "degree:99", "wellconnected:50"):
            assert parse_requirement(spec).check(s)

    def test_conductance_check(self):
        req = ConductanceRequirement(0.3)
        assert req.check(_stats(conductance=0.3))
        assert not req.check(_stats(conductance=0.31))
        assert not req.check(_stats(connected=False))

    def test_degree_check(self):
        req = MinDegreeRequirement(3)
        assert req.check(_stats(min_internal_degree=3))
        assert not req.check(_stats(min_internal_degree=2))

    def test_wellconnected_check(self):
        req = WellConnectedRequirement()  # needs min degree > log10(size)
        assert req.check(_stats(size=100, min_internal_degree=3))
        assert not req.check(_stats(size=100, min_internal_degree=2))
        assert not req.check(_stats(size=100, min_internal_degree=3, connected=False))


class TestDriver:
    @pytest.mark.parametrize("spec", ["conductance:0.5", "degree:2", "wellconnected"])
    def test_karate_all_leaves_satisfied(self, spec):
        g, _ = load_snap(FIXTURE)
        tree = build_cluster_tree(g, spec, seed=7)
        tree.validate()
        assert tree.all_leaves_satisfied()
        assert tree.recheck()
        assert tree.requirement == parse_requirement(spec).spec
        assert not any(nd.forced for nd in tree.nodes.values())

    def test_root_always_expands(self):
        g, _ = load_snap(FIXTURE)
        tree = build_cluster_tree(g, "degree:1", seed=0)
        root = tree.nodes[tree.root]
        assert not root.is_leaf  # the input is decomposed even if it passes
        assert root.parent == -1 and root.level == 0
        assert root.beta_split is not None

    def test_levels_and_parents_consistent(self):
        g = barabasi_albert_graph(300, 3, seed=2)
        tree = build_cluster_tree(g, "wellconnected", seed=5)
        tree.validate()
        for nd in tree.nodes.values():
            if nd.id != tree.root:
                assert nd.id in tree.nodes[nd.parent].children

    def test_deterministic_same_seed(self):
        g = barabasi_albert_graph(200, 3, seed=1)
        a = build_cluster_tree(g, "degree:2", seed=42)
        b = build_cluster_tree(g, "degree:2", seed=42)
        assert a.signature() == b.signature()

    def test_ldd_clusterer(self):
        g, _ = load_snap(FIXTURE)
        tree = build_cluster_tree(g, "degree:2", clusterer="ldd", seed=3)
        tree.validate()
        assert tree.all_leaves_satisfied()
        assert tree.clusterer == "ldd"

    def test_min_size_forces_leaves(self):
        g = barabasi_albert_graph(150, 3, seed=4)
        tree = build_cluster_tree(g, "degree:4", seed=9, min_size=20)
        tree.validate()
        forced = [nd for nd in tree.leaves() if nd.forced]
        assert forced, "a strict requirement at min_size=20 must force leaves"
        assert all(not nd.satisfied for nd in forced)
        assert all(nd.size <= 20 for nd in forced)

    def test_max_depth_forces_leaves(self):
        g = barabasi_albert_graph(150, 3, seed=4)
        tree = build_cluster_tree(g, "degree:4", seed=9, max_depth=1)
        tree.validate()
        assert tree.depth() == 1
        assert any(nd.forced for nd in tree.leaves())

    def test_disconnected_input(self):
        # two components: EST still covers both; leaves partition everything
        g = gnm_random_graph(40, 60, seed=8)
        tree = build_cluster_tree(g, "conductance:0.9", seed=2)
        tree.validate()
        assert tree.all_leaves_satisfied()

    def test_path_graph_degree2_recurses_to_satisfied(self):
        # interior min degree of a path cluster is 1 < 2 => must recurse
        tree = build_cluster_tree(path_graph(64), "degree:2", seed=6)
        tree.validate()
        assert tree.all_leaves_satisfied()
        # every multi-vertex sub-path has an endpoint of internal degree 1,
        # so recursion can only bottom out at singletons
        assert all(leaf.size == 1 for leaf in tree.leaves())
        assert tree.depth() >= 1

    def test_tiny_graph_is_single_node(self):
        tree = build_cluster_tree(path_graph(1), "degree:2", seed=0)
        assert tree.num_nodes == 1
        tree.validate()

    def test_parameter_errors(self):
        g = path_graph(8)
        with pytest.raises(ParameterError):
            build_cluster_tree(g, "degree:2", clusterer="metis")
        with pytest.raises(ParameterError):
            build_cluster_tree(g, "degree:2", min_size=0)
        with pytest.raises(ParameterError):
            build_cluster_tree(g, "degree:2", max_depth=0)
        with pytest.raises(ParameterError):
            build_cluster_tree(g, "frogs:9")

    def test_stats_match_metrics(self):
        from repro.graph import conductance as graph_conductance

        g, _ = load_snap(FIXTURE)
        tree = build_cluster_tree(g, "conductance:0.5", seed=7)
        for nd in tree.nodes.values():
            if nd.id == tree.root:
                continue
            assert nd.stats.conductance == pytest.approx(
                graph_conductance(g, nd.vertices)
            )


class TestExports:
    @pytest.fixture(scope="class")
    def tree(self):
        g, _ = load_snap(FIXTURE)
        return build_cluster_tree(g, "degree:2", seed=7)

    def test_json_roundtrip_exact(self, tree):
        rt = ClusterTree.from_json(tree.to_json())
        assert rt.signature() == tree.signature()
        rt.validate()
        assert rt.to_json() == tree.to_json()  # runtimes survive full round-trip

    def test_json_file_roundtrip(self, tree, tmp_path):
        path = tmp_path / "tree.json"
        tree.save_json(path)
        rt = ClusterTree.load_json(path)
        assert rt.signature() == tree.signature()

    def test_json_format_version_refused(self, tree):
        d = tree.to_dict()
        d["format"] = 99
        with pytest.raises(GraphFormatError):
            ClusterTree.from_dict(d)

    def test_json_is_plain_types(self, tree):
        json.dumps(tree.to_dict())  # would raise on numpy scalars

    def test_newick_roundtrip_topology(self, tree):
        def count(node):
            return 1 + sum(count(c) for c in node[2])

        def leaves(node):
            name, _, children = node
            if not children:
                return [name]
            return [x for c in children for x in leaves(c)]

        parsed = parse_newick(tree.to_newick())
        assert count(parsed) == tree.num_nodes
        assert sorted(leaves(parsed)) == sorted(f"c{nd.id}" for nd in tree.leaves())
        assert parsed[0] == f"c{tree.root}"
        assert parsed[1] == 1.0

    def test_newick_file(self, tree, tmp_path):
        path = tmp_path / "tree.nwk"
        tree.save_newick(path)
        text = path.read_text()
        assert text.strip().endswith(";")
        parse_newick(text)

    @pytest.mark.parametrize(
        "bad", ["(a,b)c", "((a,b)c;", "(a,b)c;extra;", "(a,b;", ")a;"]
    )
    def test_parse_newick_refusals(self, bad):
        with pytest.raises(GraphFormatError):
            parse_newick(bad)

    def test_validate_catches_corruption(self, tree):
        rt = ClusterTree.from_json(tree.to_json())
        victim = next(nd for nd in rt.nodes.values() if nd.id != rt.root and nd.size > 1)
        victim.vertices = victim.vertices[:-1]
        with pytest.raises(VerificationError):
            rt.validate()


class TestCLI:
    def test_cluster_tree_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        jpath = tmp_path / "t.json"
        npath = tmp_path / "t.nwk"
        rc = main(
            ["cluster-tree", "-i", FIXTURE, "--requirement", "conductance:0.5",
             "--seed", "7", "--json", str(jpath), "--newick", str(npath)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "all leaves satisfied" in out
        rt = ClusterTree.load_json(jpath)
        rt.validate()
        assert rt.all_leaves_satisfied()
        parse_newick(npath.read_text())

    def test_cluster_tree_ldd(self, capsys):
        from repro.cli import main

        rc = main(
            ["cluster-tree", "-i", FIXTURE, "--requirement", "degree:2",
             "--clusterer", "ldd", "--seed", "3"]
        )
        assert rc == 0
        assert "leaves" in capsys.readouterr().out
