import json

import pytest

from pathideal import homology
from pathideal.cli import main
from pathideal.corpus import line, projective_plane_ideal, random_tree, twelve_vertex_tree
from pathideal.homology import char_independence_report, gf
from pathideal.ara import partition_from_jsonable, verify_sv_conditions
from pathideal.trees import RootedTree, format_tree, path_ideal


@pytest.fixture
def line8_file(tmp_path):
    path = tmp_path / "line8.tree"
    path.write_text(format_tree(line(8)))
    return str(path)


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "example.tree"
    path.write_text(format_tree(twelve_vertex_tree()))
    return str(path)


class TestTreeCommands:
    def test_parse(self, example_file, capsys):
        assert main(["tree", "parse", example_file]) == 0
        out = capsys.readouterr().out
        assert "root: 1" in out and "height: 4" in out

    def test_parse_json(self, example_file, capsys):
        assert main(["tree", "parse", example_file, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["leaves"] == [5, 7, 8, 10, 11, 12]

    def test_paths(self, line8_file, capsys):
        assert main(["tree", "paths", line8_file, "-t", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "1 2 3"
        assert len(lines) == 6

    def test_missing_file(self, capsys):
        assert main(["tree", "parse", "no-such-file.tree"]) == 2

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.tree"
        bad.write_text("1 2\n2 1\n")
        assert main(["tree", "parse", str(bad)]) == 2


class TestIdealCommands:
    def test_gens_text(self, line8_file, capsys):
        assert main(["ideal", "gens", line8_file, "-t", "3"]) == 0
        assert capsys.readouterr().out.startswith("(x_1x_2x_3,")

    def test_gens_byte_for_byte_example(self, example_file, capsys):
        assert main(["ideal", "gens", example_file, "-t", "3"]) == 0
        assert capsys.readouterr().out == (
            "(x_1x_2x_4, x_1x_3x_5, x_1x_3x_6, x_1x_3x_7, x_2x_4x_8,"
            " x_2x_4x_9, x_3x_6x_10, x_3x_6x_11, x_4x_9x_12)\n"
        )

    def test_gens_byte_for_byte_rerooted(self, tmp_path, capsys):
        from pathideal.corpus import twelve_vertex_tree_rerooted

        path = tmp_path / "rerooted.tree"
        path.write_text(format_tree(twelve_vertex_tree_rerooted()))
        assert main(["ideal", "gens", str(path), "-t", "3"]) == 0
        assert capsys.readouterr().out == (
            "(x_4x_2x_1, x_2x_1x_3, x_1x_3x_5, x_1x_3x_6, x_1x_3x_7,"
            " x_3x_6x_10, x_3x_6x_11, x_4x_9x_12)\n"
        )

    def test_gens_macaulay2(self, line8_file, capsys):
        assert main(["ideal", "gens", line8_file, "-t", "3", "--format", "macaulay2"]) == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("ideal(x_1*x_2*x_3,") and out.endswith(")")

    def test_gens_json_roundtrip(self, example_file, capsys):
        assert main(["ideal", "gens", example_file, "-t", "3", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["gens"]) == 9

    def test_zero_ideal(self, line8_file, capsys):
        assert main(["ideal", "gens", line8_file, "-t", "9"]) == 0
        assert capsys.readouterr().out.strip() == "(0)"


class TestBettiPd:
    def test_betti_json(self, line8_file, capsys):
        assert main(["betti", line8_file, "-t", "3", "--field", "2", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["subject"] == "quotient"
        assert {"i": 0, "j": 0, "value": 1} in data["entries"]

    def test_pd_verify_line8(self, line8_file, capsys):
        assert main(["pd", line8_file, "-t", "3", "--verify", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["pd_quotient"] == 4
        assert set(data["per_method"].values()) == {4}
        assert len(data["per_method"]) == 3

    def test_pd_verify_lists_the_chosen_method_first(self, line8_file, capsys):
        assert main(["pd", line8_file, "-t", "3", "--method", "hochster", "--verify"]) == 0
        assert "per_method: {'hochster': 4, 'closed-form': 4, 'recursion': 4}" in capsys.readouterr().out

    def test_pd_verify_catches_a_wrong_first_split(self, line8_file, monkeypatch, capsys):
        from pathideal import pd

        real = pd._split

        def no_off_path(tree, t, piece, chain=None):
            path, off_path = real(tree, t, piece, chain)
            return (path, set()) if chain is not None else (path, off_path)

        monkeypatch.setattr(pd, "_split", no_off_path)
        assert main(["pd", line8_file, "-t", "3", "--verify"]) == 1
        assert "depends on the split choice" in capsys.readouterr().err

    def test_pd_branching_tree(self, example_file, capsys):
        assert main(["pd", example_file, "-t", "3", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["method"] == "hochster"

    def test_pd_recursion_on_long_line(self, tmp_path, capsys):
        path = tmp_path / "line1000.tree"
        path.write_text(format_tree(line(1000)))
        assert main(["pd", str(path), "-t", "3", "--method", "recursion", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["pd_quotient"] == 500

    def test_pd_explicit_method(self, line8_file, capsys):
        assert main(["pd", line8_file, "-t", "3", "--method", "closed-form"]) == 0
        assert "pd_quotient: 4" in capsys.readouterr().out


class TestChecks:
    def test_simplicial_tree(self, example_file, capsys):
        assert main(["check", "simplicial-tree", example_file, "-t", "3"]) == 0

    def test_simplicial_tree_on_long_line(self, tmp_path, capsys):
        path = tmp_path / "line200.tree"
        path.write_text(format_tree(line(200)))
        assert main(["check", "simplicial-tree", str(path), "-t", "3"]) == 0
        assert "result: True" in capsys.readouterr().out

    def test_properly_connected_on_long_line(self, tmp_path, capsys):
        path = tmp_path / "line1000.tree"
        path.write_text(format_tree(line(1000)))
        assert main(["check", "properly-connected", str(path), "-t", "3", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["result"] is True

    def test_properly_connected_fails_on_example(self, example_file, capsys):
        assert main(["check", "properly-connected", example_file, "-t", "3"]) == 1
        assert main(["check", "properly-connected", example_file, "-t", "2"]) == 0

    def test_scm(self, example_file, capsys):
        assert main(["check", "scm", example_file, "-t", "3"]) == 0

    def test_char_independence(self, line8_file, capsys):
        homology.clear_caches()
        assert main(["check", "char-independence", line8_file, "-t", "3", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["differences"] == [] and data["result"] is True
        # one Q elimination per complex answered all four fields
        assert data["per_field"] == 0 and data["certified"] > 0

    def test_torsion_still_computed_per_field(self):
        homology.clear_caches()
        before = dict(homology.certificate_stats)
        ok, diffs = char_independence_report(projective_plane_ideal())
        assert not ok and any(d[1] == gf(2) for d in diffs)
        assert homology.certificate_stats["per_field"] > before["per_field"]


class TestAra:
    def test_bounds_exact(self, line8_file, capsys):
        assert main(["ara", line8_file, "-t", "3", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["exact"] and data["lower"] == data["upper"] == 4

    def test_construct_t3(self, line8_file, capsys):
        assert main(["ara", line8_file, "-t", "3", "--construct-t3", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["partition"]) == 4

    def test_point_check(self, line8_file, capsys):
        assert main(["ara", line8_file, "-t", "3", "--point-check", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["point_check"] is True

    def test_point_check_on_a_line_of_25(self, tmp_path, capsys):
        path = tmp_path / "line25.tree"
        path.write_text(format_tree(line(25)))
        assert main(["ara", str(path), "-t", "3", "--point-check", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["point_check"] is True
        assert len(data["witnesses"]) == data["upper"] == data["lower"]

    def test_construct_t3_uses_tree_ids(self, tmp_path, capsys):
        tree = RootedTree.from_edges([(10, 20), (20, 30), (30, 40), (40, 50)], root=10)
        path = tmp_path / "tens.tree"
        path.write_text(format_tree(tree))
        assert main(["ara", str(path), "-t", "3", "--construct-t3", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        partition = partition_from_jsonable({"parts": data["partition"]})
        assert verify_sv_conditions(partition, path_ideal(tree, 3)) == (True, None)

    def test_line_not_numbered_along_the_path(self, tmp_path, capsys):
        ids = [2, 1] + list(range(3, 21))
        path = tmp_path / "l20.tree"
        path.write_text(format_tree(RootedTree.from_edges(zip(ids, ids[1:]), root=2)))
        assert main(["ara", str(path), "-t", "3", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["exact"] and data["lower"] == data["upper"] == 10


class TestAraSearch:
    def test_search_runs_once(self, tmp_path, monkeypatch, capsys):
        import pathideal.ara as ara

        calls = []
        search = ara.good_partition_search

        def counting(*args, **kwargs):
            calls.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(ara, "good_partition_search", counting)
        path = tmp_path / "line7.tree"
        path.write_text(format_tree(line(7)))
        assert main(["ara", str(path), "-t", "2", "--search", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(calls) == 1
        assert data["exact"] is True and data["lower"] == data["upper"] == 4

    def test_search_skipped_when_the_inequality_settles_it(self, tmp_path, monkeypatch, capsys):
        import pathideal.ara as ara

        def refused(*args, **kwargs):
            raise AssertionError("the nonexistence inequality already holds")

        monkeypatch.setattr(ara, "good_partition_search", refused)
        path = tmp_path / "line10.tree"
        path.write_text(format_tree(line(10)))
        assert main(["ara", str(path), "-t", "3", "--search", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["exact"] is False
        assert data["lower"] == 4 and data["upper"] == 8
        assert [len(part) for part in data["partition"]] == [1] * 8
        assert data["note"] == "line graph with t=3, n=10; only the singleton partition available"


class TestExitCodes:
    def test_non_prime_field_is_usage_error(self, line8_file, capsys):
        assert main(["betti", line8_file, "-t", "3", "--field", "4"]) == 2
        assert "not prime" in capsys.readouterr().err

    def test_large_prime_field(self, line8_file, capsys):
        # 2**61 - 1 is prime; 2**64 + 13 is past the exact primality test
        assert main(["betti", line8_file, "-t", "3", "--field", str(2**61 - 1)]) == 0
        capsys.readouterr()
        assert main(["betti", line8_file, "-t", "3", "--field", str(2**64 + 13)]) == 2
        assert "2**64" in capsys.readouterr().err

    def test_recursion_error_is_internal_error(self, line8_file, monkeypatch, capsys):
        import pathideal.cli as cli

        def too_deep(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "pd_auto", too_deep)
        assert main(["pd", line8_file, "-t", "3", "--method", "recursion"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("internal error:") and "verification failure" not in err

    def test_recursion_on_improper_tree_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "improper.tree"
        path.write_text(format_tree(random_tree(0, 7)))
        assert main(["pd", str(path), "-t", "3", "--method", "recursion"]) == 2
        err = capsys.readouterr().err
        assert "not properly-connected" in err and "verification failure" not in err
        assert "[1, 2, 7]" in err and "frozenset" not in err
        # auto falls back to Hochster's formula instead
        assert main(["pd", str(path), "-t", "3"]) == 0


class TestVerify:
    def test_small_run_passes(self, capsys):
        assert main(["verify", "--samples", "3", "--max-n", "7", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        lines = [l for l in out.splitlines() if l.startswith("PASS")]
        assert len(lines) >= 18
        # report is sorted by check name
        names = [l.split()[1] for l in lines]
        assert names == sorted(names)


class TestOptionsOnlyWhereRead:
    def test_check_simplicial_tree_rejects_unread_options(self, line8_file, capsys):
        assert main(["check", "simplicial-tree", line8_file, "-t", "3", "--max-n", "1", "--field", "5"]) == 2

    def test_tree_parse_has_no_field(self, line8_file, capsys):
        assert main(["tree", "parse", line8_file, "--field", "4"]) == 2
        assert "not prime" not in capsys.readouterr().err

    def test_macaulay2_only_on_ideal_gens(self, line8_file, capsys):
        assert main(["betti", line8_file, "-t", "3", "--format", "macaulay2"]) == 2

    def test_options_kept_where_read(self, line8_file, capsys):
        assert main(["betti", line8_file, "-t", "3", "--field", "3", "--max-n", "10", "--format", "json"]) == 0
        assert main(["pd", line8_file, "-t", "3", "--field", "2", "--max-n", "10", "--format", "json"]) == 0
        assert main(["check", "scm", line8_file, "-t", "3", "--field", "2"]) == 0
        assert main(["check", "char-independence", line8_file, "-t", "3", "--max-n", "10"]) == 0
        assert main(["ara", line8_file, "-t", "3", "--max-n", "10", "--format", "json"]) == 0
