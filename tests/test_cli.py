import json
import random

import pytest
from hypothesis import given, settings, strategies as st

import pdpp.cli
from pdpp.cli import main
from pdpp.gallery import nested_chord_showcase
from pdpp.instances import (
    DppInstance,
    Solution,
    gen_grid_instance,
    gen_random_planar,
    write_instance,
    write_solution,
)
from pdpp.plane import make_grid, plane_graph_from_edges


@pytest.fixture
def k2_file(tmp_path):
    f = tmp_path / "k2.dpp"
    f.write_text("p dpp 2 1 1\ne 1 2\nt 1 2\n")
    return str(f)


@pytest.fixture
def cross_file(tmp_path):
    f = tmp_path / "cross.dpp"
    f.write_text(
        "p dpp 4 4 2\ne 1 2\ne 1 3\ne 2 4\ne 3 4\nt 1 4\nt 2 3\n"
    )
    return str(f)


@pytest.fixture
def pools(monkeypatch):
    """Swap in an executor that records max_workers and runs jobs inline."""
    made = []

    class Inline:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(pdpp.cli, "ProcessPoolExecutor", Inline)
    return made


class TestSolve:
    def test_yes_exit_zero(self, k2_file, capsys):
        assert main(["solve", k2_file]) == 0
        out = capsys.readouterr().out
        assert "s dpp yes" in out
        assert "path 1 1 2" in out

    def test_no_exit_one(self, cross_file, capsys):
        assert main(["solve", cross_file]) == 1
        assert "s dpp no" in capsys.readouterr().out

    def test_oracle_budget_exit_two(self, tmp_path, capsys):
        from pdpp.instances import gen_grid_instance

        f = tmp_path / "big.dpp"
        f.write_text(write_instance(gen_grid_instance(6, 2, 3)))
        code = main(["solve", str(f), "--engine", "oracle", "--budget", "10"])
        assert code == 2

    def test_engines_agree(self, k2_file, capsys):
        for engine in ("pipeline", "dp", "oracle"):
            assert main(["solve", k2_file, "--engine", engine]) == 0
            capsys.readouterr()

    def test_json_output(self, k2_file, capsys):
        assert main(["solve", k2_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["answer"] == "yes"
        assert payload["paths"] == [[1, 2]]

    def test_parse_error_exit_65(self, tmp_path, capsys):
        f = tmp_path / "bad.dpp"
        f.write_text("p dpp 2 1 1\ne 1 9\nt 1 2\n")
        assert main(["solve", str(f)]) == 65

    @pytest.mark.parametrize(
        "extra, line",
        # a rotation for a vertex out of range; a second outer record
        [("rot 7 2 1 3\n", 7), ("outer 1 2\nouter 2 3\n", 8)],
        ids=["rot-out-of-range", "second-outer"],
    )
    def test_stray_embedding_record_exit_65(self, tmp_path, capsys, extra, line):
        f = tmp_path / "bad.dpp"
        f.write_text("p dpp 3 2 1\ne 1 2\ne 2 3\nrot 1 1 2\nrot 2 2 1 3\nrot 3 1 2\n" + extra + "t 1 3\n")
        assert main(["solve", str(f)]) == 65
        assert f"line {line}:" in capsys.readouterr().err

    def test_outer_record_without_edges_exit_65(self, tmp_path, capsys):
        # the outer dart must be an edge, also of a graph that has none
        f = tmp_path / "bad.dpp"
        f.write_text("p dpp 3 0 1\nouter 1 2\nt 1 2\n")
        assert main(["solve", str(f)]) == 65
        assert "line 1: outer dart (1, 2) is not an edge" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "pairs, line", [("t 1 3\nt 3 4\n", 6), ("t 1 9\nt 2 3\n", 5)], ids=["reused", "out-of-range"]
    )
    def test_bad_terminal_exit_65(self, tmp_path, capsys, pairs, line):
        f = tmp_path / "bad.dpp"
        f.write_text("p dpp 4 3 2\ne 1 2\ne 2 3\ne 3 4\n" + pairs)
        assert main(["solve", str(f)]) == 65
        assert f"line {line}: terminal" in capsys.readouterr().err

    def test_usage_error_exit_64(self, capsys):
        assert main(["solve", "--engine", "wat", "x"]) == 64

    @pytest.mark.parametrize(
        "option, value",
        [
            ("--budget", "-5"),
            ("--budget", "abc"),
            ("--jobs", "0"),
            ("--jobs", "-3"),
        ],
    )
    def test_bad_epsilon_or_budget_is_a_usage_error(self, k2_file, capsys, option, value):
        # once a crash with the NO exit code, or a DP "over budget" at node 0
        assert main(["solve", k2_file, option, value]) == 64
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1
        assert errors[0].startswith(f"error: argument {option}: ")
        assert errors[0].endswith(repr(value))

    def test_epsilon_is_gone(self, k2_file, capsys):
        assert main(["solve", k2_file, "--epsilon", "1"]) == 64
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1
        assert errors[0].startswith("error: unrecognized arguments")

    def test_zero_budget_stays_valid(self, k2_file, capsys):
        assert main(["solve", k2_file, "--engine", "dp", "--budget", "0"]) == 2
        assert "# indeterminate: DP exceeded 0 states at node 0" in capsys.readouterr().out

    def test_shared_parser_after_usage_error(self, k2_file, capsys):
        # main reuses one parser: a failed parse and an earlier call's
        # options must not leak into the next call
        assert main(["solve", "--engine", "wat", k2_file]) == 64
        assert "invalid choice: 'wat'" in capsys.readouterr().err
        assert main(["solve", k2_file, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["answer"] == "yes"
        assert main(["solve", k2_file]) == 0
        captured = capsys.readouterr()
        assert "s dpp yes" in captured.out
        assert "path 1 1 2" in captured.out
        assert captured.err == ""

    def test_emit_decomposition(self, monkeypatch, k2_file, cross_file, tmp_path, capsys):
        from pdpp import solver
        from pdpp.decomposition import TreeDecomposition, verify_tree_decomposition
        from pdpp.instances import parse_instance
        from pdpp.solver import solve_pipeline

        # the one-face stage decides the crossed 4-cycle before any DP
        staged = tmp_path / "staged.txt"
        assert main(["solve", cross_file, "--emit-decomposition", str(staged)]) == 1
        assert not staged.exists()
        assert "no decomposition written" in capsys.readouterr().err
        # with the stage falling through, the DP runs
        monkeypatch.setattr(solver, "one_face_decision", lambda inst: None)
        out = tmp_path / "dec.txt"
        assert main(["solve", cross_file, "--emit-decomposition", str(out)]) == 1
        text = out.read_text()
        assert "node 0 bag" in text
        # the emitted decomposition is the one the DP ran on: same width,
        # and (no reduction here) a valid decomposition of the input graph
        bags, parent = {}, {}
        for line in text.splitlines():
            words = line.split()
            if words[0] == "node":
                bags[int(words[1])] = frozenset(map(int, words[3:]))
            else:
                parent[int(words[2])] = int(words[1])
        width = max(len(b) for b in bags.values()) - 1
        inst = parse_instance(open(cross_file).read())
        used = solve_pipeline(inst).decomposition
        assert width == used.width
        td = TreeDecomposition(
            tuple(parent.get(i, -1) for i in range(len(bags))),
            tuple(bags[i] for i in range(len(bags))),
            width,
        )
        assert verify_tree_decomposition(inst.graph, td)
        # k = 1 is solved by a shortest path, so no decomposition exists
        solo = tmp_path / "solo.txt"
        assert main(["solve", k2_file, "--emit-decomposition", str(solo)]) == 0
        assert not solo.exists()
        assert "no decomposition written" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_unwritable_decomposition_is_a_usage_error(self, tmp_path, k2_file, capfd, jobs):
        # once a FileNotFoundError traceback with the NO exit code; the
        # planar instance reaches the DP, and k2_file writes nothing
        f = tmp_path / "planar.dpp"
        f.write_text(write_instance(gen_random_planar(20, 40, 3, 2)))
        target = tmp_path / "missing" / "td.txt"
        argv = ["solve", str(f), k2_file, "--jobs", jobs, "--emit-decomposition", str(target)]
        assert main(argv) == 64
        err = capfd.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1
        assert errors[0].startswith(f"error: cannot write {target}: ")

    def test_json_no_certificate(self, k2_file, cross_file, capsys):
        # the crossed 4-cycle 1-2-4-3 is a NO by its face; `answer` and
        # `paths` read as before, and a YES or a DP's NO carries null
        assert main(["solve", cross_file, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert (payload["answer"], payload["paths"]) == ("no", None)
        assert payload["no_certificate"] == {"dart": [1, 2], "pairs": [0, 1]}
        assert main(["solve", cross_file, "--json", "--engine", "dp"]) == 1
        assert json.loads(capsys.readouterr().out)["no_certificate"] is None
        assert main(["solve", k2_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["answer"], payload["paths"]) == ("yes", [[1, 2]])
        assert payload["no_certificate"] is None

    def test_multiple_files_jobs(self, k2_file, cross_file, capsys):
        code = main(["solve", k2_file, cross_file, "--jobs", "2", "--json"])
        assert code == 1  # worst of YES and NO
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2

    @pytest.mark.parametrize(
        "jobs, files, workers",
        [(500, 2, [2]), (2, 3, [2]), (3, 3, [3]), (500, 1, []), (1, 3, [])],
    )
    def test_workers_capped_at_file_count(
        self, pools, k2_file, cross_file, capsys, jobs, files, workers
    ):
        paths = [k2_file, cross_file, k2_file][:files]
        code = main(["solve", *paths, "--jobs", str(jobs), "--json"])
        assert pools == workers
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == files
        assert code == (1 if files > 1 else 0)


@settings(max_examples=150)
@given(data=st.data())
def test_mutated_instance_fails_cleanly(tmp_path_factory, data):
    # one line of a valid file dropped, duplicated or garbled: the solver
    # answers or rejects the file with exit 65, and never raises
    if data.draw(st.booleans()):
        inst = gen_grid_instance(data.draw(st.integers(3, 4)), 2, data.draw(st.integers(0, 99)))
    else:
        n = data.draw(st.integers(6, 10))
        m = data.draw(st.integers(n - 1, 2 * n))
        inst = gen_random_planar(n, m, 2, data.draw(st.integers(0, 99)))
    lines = write_instance(inst).splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    edit = data.draw(st.sampled_from(["drop", "duplicate", "garble"]))
    if edit == "drop":
        del lines[i]
    elif edit == "duplicate":
        lines.insert(i, lines[i])
    else:
        fields = lines[i].split()
        j = data.draw(st.integers(0, len(fields) - 1))
        fields[j] = data.draw(
            st.sampled_from(["x", "1.5", "p", "e", "rot", "outer", "t", "#", ""])
            | st.integers(-2, 40).map(str)
            | st.text(st.characters(codec="utf-8"), max_size=3)
        )
        lines[i] = " ".join(fields)
    f = tmp_path_factory.mktemp("mutated") / "m.dpp"
    f.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["solve", str(f)]) in (0, 1, 2, 65)


class TestGen:
    def test_grid_deterministic(self, capsys):
        assert main(["gen", "grid", "--size", "6", "--pairs", "2", "--seed", "7"]) == 0
        a = capsys.readouterr().out
        assert main(["gen", "grid", "--size", "6", "--pairs", "2", "--seed", "7"]) == 0
        b = capsys.readouterr().out
        assert a == b and a.startswith("p dpp 36 60 2")

    def test_planar(self, capsys):
        assert main(["gen", "planar", "--vertices", "8", "--edges", "12",
                     "--pairs", "2", "--seed", "1"]) == 0
        assert capsys.readouterr().out.startswith("p dpp 8 12 2")

    def test_infeasible_exit_64(self, capsys):
        assert main(["gen", "planar", "--vertices", "3", "--edges", "7",
                     "--pairs", "1", "--seed", "1"]) == 64

    def test_grid_negative_pairs_exit_64(self, capsys):
        assert main(["gen", "grid", "--size", "3", "--pairs", "-1", "--seed", "0"]) == 64
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


class TestVerify:
    def test_valid(self, k2_file, tmp_path, capsys):
        sol = tmp_path / "sol.txt"
        sol.write_text("s dpp yes\npath 1 1 2\n")
        assert main(["verify", k2_file, str(sol)]) == 0

    def test_invalid(self, k2_file, tmp_path, capsys):
        sol = tmp_path / "sol.txt"
        sol.write_text("s dpp yes\npath 1 2 1\n")
        assert main(["verify", k2_file, str(sol)]) == 1


class TestReduce:
    def test_certificate_line(self, tmp_path, capsys):
        from pdpp.instances import gen_grid_instance

        f = tmp_path / "g6.dpp"
        f.write_text(write_instance(gen_grid_instance(6, 2, 2)))
        assert main(["reduce", str(f), "--mode", "heuristic"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("irrelevant ")
        assert " grid 6 " in out and " mode heuristic" in out

    def test_rectangular_grid_certificate(self, tmp_path, capsys):
        # find_grid_minor's 7 x 7 model of the 7 x 10 grid gives the
        # certificate the grid's own 7 x 10 coordinates gave
        f = tmp_path / "g7x10.dpp"
        f.write_text(write_instance(DppInstance(make_grid(7, 10), ((68, 2), (3, 20)))))
        assert main(["reduce", "--json", str(f)]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "irrelevant": 5, "grid": 7, "cycles": 1, "mode": "heuristic", "oracle_checked": True,
        }

    def test_chorded_grid_has_no_grid(self, tmp_path, capsys):
        # a relabelled grid is still a grid, so one face chord is added to
        # keep the 6x6 grid from being recognised
        inst = gen_grid_instance(6, 2, 2)
        perm = list(range(1, inst.graph.n + 1))
        random.Random(3).shuffle(perm)
        edges = [(perm[a - 1], perm[b - 1]) for a, b in (*inst.graph.edges, (1, 8))]
        g = plane_graph_from_edges(inst.graph.n, edges)
        pairs = tuple((perm[s - 1], perm[t - 1]) for s, t in inst.pairs)
        f = tmp_path / "chorded.dpp"
        f.write_text(write_instance(DppInstance(g, pairs)))
        assert main(["reduce", str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "# no usable grid minor found\n"


class TestRoute:
    def test_straight_columns(self, tmp_path, capsys):
        pat = tmp_path / "pat.txt"
        pat.write_text("up 1 down 1\nup 2 down 2\n")
        assert main(["route", str(pat), "--size", "2"]) == 0
        out = capsys.readouterr().out
        assert "s dpp yes" in out
        assert "path 1 1 3" in out

    def test_bad_pattern_exit_65(self, tmp_path, capsys):
        pat = tmp_path / "pat.txt"
        pat.write_text("up 1 down 2\nup 2 down 1\n")
        assert main(["route", str(pat), "--size", "2"]) == 65


    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_non_positive_size_is_a_usage_error(self, tmp_path, capsys, size):
        # once a PlaneGraphError traceback from make_grid with the NO exit code
        pat = tmp_path / "pat.txt"
        pat.write_text("")
        assert main(["route", str(pat), "--size", size]) == 64
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert errors == [f"error: argument --size: must be an integer >= 1, got {size!r}"]


class TestAnalyze:
    @pytest.mark.parametrize("side", range(4, 10))
    def test_empty_linkage_grid_default_cycles(self, tmp_path, capsys, side):
        # odd sides too: the innermost default ring is at offset (side - 2) // 2
        from pdpp.instances import gen_grid_instance

        f = tmp_path / f"g{side}.dpp"
        f.write_text(write_instance(gen_grid_instance(side, 2, 2)))
        assert main(["analyze", str(f), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["segments"] == 0
        assert report["convex"] is True

    def test_showcase_report(self, tmp_path, capsys):
        q = nested_chord_showcase()
        inst_file = tmp_path / "show.dpp"
        pairs = tuple((p[0], p[-1]) for p in q.linkage.paths)
        from pdpp.instances import DppInstance

        inst_file.write_text(write_instance(DppInstance(q.graph, pairs)))
        cyc_file = tmp_path / "cycles.txt"
        cyc_file.write_text(
            "\n".join(
                "cycle " + " ".join(map(str, c.vertices)) for c in q.cycles.cycles
            )
        )
        link_file = tmp_path / "linkage.txt"
        link_file.write_text(
            write_solution(Solution(tuple(tuple(p) for p in q.linkage.paths)))
        )
        assert (
            main(
                [
                    "analyze",
                    str(inst_file),
                    "--cycles",
                    str(cyc_file),
                    "--linkage",
                    str(link_file),
                    "--json",
                ]
            )
            == 0
        )
        report = json.loads(capsys.readouterr().out)
        assert report["leaves"] == 11
        assert report["dilation"] == 4
        assert report["classes"] == 19

    def test_from_solution_dp_out_of_states_is_indeterminate(self, tmp_path, capsys):
        # the DP runs out of states on this 12 x 12 grid with six pairs
        f = tmp_path / "g12.dpp"
        f.write_text(write_instance(gen_grid_instance(12, 6, 176)))
        assert main(["analyze", str(f), "--from-solution"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "# indeterminate: DP exceeded 400000 states at node 78\n"
