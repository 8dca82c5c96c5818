import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from pdpp import cli, decomposition, solver
from pdpp.concentric import lemma_side_requirement
from pdpp.decomposition import TooWide, best_heuristic_bd, td_from_bd, tree_decompose
from pdpp.instances import (
    DppInstance,
    Solution,
    gen_grid_instance,
    gen_random_planar,
    parse_instance,
)
from pdpp.oracle import SolveOutcome, Status, solve_bruteforce, verify_solution
from pdpp.plane import GridMinorModel, grid_vertex, make_grid, outer_cycle
from pdpp.solver import (
    DpBudgetExceeded,
    ReductionCertificate,
    dp_solve,
    find_irrelevant_vertex,
    grid_requirement,
    heuristic_grid_target,
    reduction_depth,
    solve_pipeline,
    threshold_dominates_requirement,
    treewidth_threshold,
)


def identity_model(n):
    phi = {
        (r, c): frozenset({grid_vertex(n, n, r, c)})
        for r in range(1, n + 1)
        for c in range(1, n + 1)
    }
    return GridMinorModel(n, n, phi)


def boundary_answer(inst):
    """Ground truth for grid instances with terminals on the outer cycle."""
    cyc = outer_cycle(inst.graph).vertices
    pos = {v: i for i, v in enumerate(cyc)}
    for i, (s1, t1) in enumerate(inst.pairs):
        for s2, t2 in inst.pairs[i + 1 :]:
            a, b = sorted((pos[s1], pos[t1]))
            if (a < pos[s2] < b) != (a < pos[t2] < b):
                return Status.NO
    return Status.YES


class TestArithmetic:
    def test_q_of_two(self):
        assert grid_requirement(2) == 30
        assert reduction_depth(2) + 1 == 5

    def test_threshold_values(self):
        assert treewidth_threshold(1) == 52.0
        assert abs(treewidth_threshold(2) - 26 * 2 ** 1.5 * 4) < 1e-9
        assert abs(treewidth_threshold(3) - 26 * 3 ** 1.5 * 8) < 1e-9

    def test_inequality_chain_exact(self):
        # The claimed domination 26 k^{3/2} 2^k >= 4.5 q(k) + 1 is exactly
        # true only for these k in 2..16; cross-checked with Fractions.
        from fractions import Fraction

        for k in range(2, 17):
            q = grid_requirement(k)
            exact = Fraction(676 * k ** 3 * 4 ** k) >= Fraction(9 * q + 2, 2) ** 2
            assert threshold_dominates_requirement(k) == exact
            assert exact == (k in (2, 3, 4, 12))

    def test_lemma_side_requirement_at_perfect_squares(self):
        # |forbidden| + 1 a perfect square: the ceiling of its root is exact,
        # and one more forbidden vertex rounds the root up
        for forbidden, root in ((3, 2), (8, 3), (15, 4)):
            assert lemma_side_requirement(0, forbidden) == 2 * root
            assert lemma_side_requirement(2, forbidden) == 6 * root
            assert lemma_side_requirement(0, forbidden - 1) == 2 * root
            assert lemma_side_requirement(0, forbidden + 1) == 2 * (root + 1)

    def test_k2_numbers_line_up(self):
        # 4.5 * q(2) + 1 = 136 <= 294.16...
        assert 4.5 * grid_requirement(2) + 1 <= treewidth_threshold(2)


class TestDp:
    def test_k2_edge(self):
        inst = parse_instance("p dpp 2 1 1\ne 1 2\nt 1 2\n")
        out = dp_solve(inst)
        assert out.status is Status.YES
        assert out.solution.paths == ((1, 2),)

    def test_crossing_pairs_no(self):
        g = make_grid(2, 2)
        inst = DppInstance(g, ((1, 4), (2, 3)))
        assert dp_solve(inst).status is Status.NO

    def test_matches_oracle_on_random_corpus(self):
        for seed in range(40):
            inst = gen_random_planar(10, 15, 2, seed)
            a = solve_bruteforce(inst)
            b = dp_solve(inst)
            assert a.status == b.status, f"seed {seed}"
            if b.status is Status.YES:
                assert verify_solution(inst, b.solution)

    def test_matches_oracle_k3(self):
        for seed in range(15):
            inst = gen_random_planar(12, 18, 3, seed)
            a = solve_bruteforce(inst)
            b = dp_solve(inst)
            assert a.status == b.status, f"seed {seed}"

    def test_grid_instances(self):
        for seed in range(10):
            inst = gen_grid_instance(4, 2, seed)
            assert dp_solve(inst).status == solve_bruteforce(inst).status


U = ("u",)
C = ("c",)


def decode_state(state):
    """A flat integer DP state in the tuple form: (codes, done pair set)."""
    codes = []
    for c in state[:-1]:
        if c <= 1:
            codes.append(C if c else U)
        else:
            codes.append(("h" if c & 1 else "p", c >> 1))
    done = state[-1]
    return tuple(codes), frozenset(i for i in range(done.bit_length()) if done >> i & 1)


def reference_settle_ends(codes, done, end_a, end_b, terminal_pair, partner):
    """Settle the two ends of one fragment; False when the state is dead.

    Ends are ("bag", v) or ("hid", x). A finished terminal pair is added to
    `done`; the bag ends' new codes are written into `codes` by vertex.
    """
    ka, va = end_a
    kb, vb = end_b
    ta = terminal_pair.get(va)
    tb = terminal_pair.get(vb)
    if ka == "hid" and kb == "hid":
        if ta is not None and ta == tb and partner[va] == vb:
            done.add(ta)
            return True
        return False
    if ka == "hid":
        ka, va, kb, vb, ta, tb = kb, vb, ka, va, tb, ta
    if kb == "hid":
        if ta is not None:
            if ta == tb and partner[va] == vb:
                done.add(ta)
                codes[va] = C
                return True
            return False
        codes[va] = ("h", vb)
        return True
    if ta is not None and tb is not None:
        if ta == tb and partner[va] == vb:
            done.add(ta)
            codes[va] = C
            codes[vb] = C
            return True
        return False
    codes[va] = ("p", vb)
    codes[vb] = ("p", va)
    return True


def reference_merge_join(bag, lstate, rstate, done, terminal_pair, partner):
    """The join before per-state preparation: one pair at a time, on tuple
    codes, through vertex dicts and a token adjacency. Kept as the reference
    for `_join_pair`."""
    lcodes = dict(zip(bag, lstate))
    rcodes = dict(zip(bag, rstate))
    for v in bag:
        lc, rc = lcodes[v], rcodes[v]
        if (lc == C and rc != U) or (rc == C and lc != U):
            return None
    # fragments from both sides as edges between end tokens
    fragments: list[tuple[tuple, tuple]] = []
    for codes in (lcodes, rcodes):
        handled: set[int] = set()
        for v in bag:
            c = codes[v]
            if c == U or c == C:
                continue
            if c[0] == "p":
                if v in handled:
                    continue
                handled.add(c[1])
                fragments.append((("bag", v), ("bag", c[1])))
            else:
                fragments.append((("bag", v), ("hid", c[1])))
    adj: dict[tuple, list[int]] = {}
    for i, (a, b) in enumerate(fragments):
        adj.setdefault(a, []).append(i)
        adj.setdefault(b, []).append(i)
    for tok, inc in adj.items():
        if tok[0] == "hid" and len(inc) > 1:
            return None
        if len(inc) > 2:
            return None
    codes = {
        v: (C if (lcodes[v] == C or rcodes[v] == C) else U) for v in bag
    }
    # every fragment-involved bag vertex is provisionally closed; the
    # extreme ends of each merged component are re-opened below
    for a, b in fragments:
        for tok in (a, b):
            if tok[0] == "bag":
                codes[tok[1]] = C
    new_done = set(done)
    used = [False] * len(fragments)
    for i in range(len(fragments)):
        if used[i]:
            continue
        used[i] = True
        ends = []
        for tok0 in fragments[i]:
            tok, frag = tok0, i
            while True:
                others = [j for j in adj[tok] if j != frag]
                if tok[0] == "hid" or not others:
                    break
                j = others[0]
                if used[j]:
                    return None  # the component closes a cycle
                used[j] = True
                fa, fb = fragments[j]
                tok = fb if fa == tok else fa
                frag = j
            ends.append(tok)
        end_a, end_b = ends
        if end_a == end_b:
            return None
        if not reference_settle_ends(codes, new_done, end_a, end_b, terminal_pair, partner):
            return None
    return (tuple(codes[v] for v in bag), frozenset(new_done))


def heavy_td(inst):
    """The branch-decomposition-derived decomposition: wide bags, many joins."""
    return td_from_bd(inst.graph, best_heuristic_bd(inst.graph))


class TestJoin:
    def test_join_matches_reference(self, monkeypatch):
        real = solver._join_pair
        seen = {"merged": 0, "rejected": 0, "interior": 0}

        def checked(lp, rp, bag, pos, terminal_pair, partner):
            got = real(lp, rp, bag, pos, terminal_pair, partner)
            (lstate, ldone), (rstate, rdone) = decode_state(lp[0]), decode_state(rp[0])
            assert not ldone & rdone
            want = reference_merge_join(
                bag, lstate, rstate, ldone | rdone, terminal_pair, partner
            )
            assert (None if got is None else decode_state(got)) == want, (bag, lstate, rstate)
            seen["merged" if want else "rejected"] += 1
            if any(a[0] in "ph" and b[0] in "ph" for a, b in zip(lstate, rstate)):
                seen["interior"] += 1
            return got

        monkeypatch.setattr(solver, "_join_pair", checked)
        for side in (4, 5):
            for k in (2, 3):
                for seed in range(3):
                    inst = gen_grid_instance(side, k, seed)
                    for td in (None, heavy_td(inst)):
                        assert dp_solve(inst, td).status == boundary_answer(inst)
        for n in (12, 20):
            for k in (2, 3):
                for seed in range(4):
                    inst = gen_random_planar(n, 2 * n, k, seed)
                    for td in (None, heavy_td(inst)):
                        dp_solve(inst, td)
        # merges through vertices live on both sides, and rejections, occur
        assert seen["merged"] > 1000 and seen["rejected"] > 100 and seen["interior"] > 1000

    @pytest.mark.parametrize(
        "gen, args, heavy, states",
        [
            ("grid", (4, 2, 3), False, 540),
            ("grid", (5, 2, 1), True, 14819),
            ("grid", (5, 3, 4), True, 7332),
            ("random", (20, 34, 3, 2), False, 363),
            ("random", (25, 45, 2, 3), True, 985),
        ],
    )
    def test_total_states_pinned(self, gen, args, heavy, states):
        # state counts measured before the join was rewritten; any change
        # to the state set moves the budget at which the DP gives up
        inst = (gen_grid_instance if gen == "grid" else gen_random_planar)(*args)
        td = heavy_td(inst) if heavy else None
        dp_solve(inst, td, state_budget=states)
        with pytest.raises(DpBudgetExceeded):
            dp_solve(inst, td, state_budget=states - 1)

    @pytest.mark.parametrize(
        "gen, args, minfill_paths, heavy_paths",
        [
            (
                "grid", (5, 2, 0),
                ((21, 22, 23, 18, 13, 14, 9, 8, 7, 12, 11, 6), (15, 10, 5, 4, 3, 2, 1)),
                ((21, 22, 23, 24, 25, 20, 19, 14, 9, 8, 7, 6), (15, 10, 5, 4, 3, 2, 1)),
            ),
            (
                "grid", (5, 2, 1),
                ((5, 10, 15, 14, 13, 18, 23, 24), (16, 17, 22, 21)),
                ((5, 10, 15, 20, 25, 24), (16, 17, 18, 23, 22, 21)),
            ),
            (
                "grid", (5, 3, 1),
                ((5, 10, 15, 14, 13, 18, 23, 24), (16, 17, 22, 21), (2, 7, 12, 11, 6)),
                ((5, 10, 15, 20, 25, 24), (16, 17, 18, 23, 22, 21), (2, 3, 4, 9, 8, 7, 6)),
            ),
            (
                "random", (14, 28, 2, 2),
                ((12, 7, 2, 1, 9), (6, 4, 3, 11, 8, 10)),
                ((12, 7, 14, 1, 9), (6, 4, 3, 11, 8, 10)),
            ),
            (
                "random", (20, 40, 2, 0),
                ((17, 2, 16), (4, 3, 18, 10)),
                ((17, 2, 16), (4, 3, 18, 10)),
            ),
            (
                "random", (20, 40, 2, 3),
                ((19, 12, 14, 3, 9), (10, 7, 6, 8, 4)),
                ((19, 12, 14, 3, 9), (10, 7, 13, 8, 15, 17, 4)),
            ),
        ],
    )
    def test_reconstructed_paths_pinned(self, gen, args, minfill_paths, heavy_paths):
        # paths measured before the states became integers; any valid
        # reconstruction passes verify_solution, so only a pin shows a
        # change of back pointers (an edge node's first insertion wins)
        inst = (gen_grid_instance if gen == "grid" else gen_random_planar)(*args)
        assert dp_solve(inst).solution.paths == minfill_paths
        assert dp_solve(inst, heavy_td(inst)).solution.paths == heavy_paths


small_planar = st.builds(
    lambda n, density, k, seed: gen_random_planar(n, math.ceil(density * n), k, seed),
    st.integers(8, 12),
    st.floats(1.3, 2.0),
    st.integers(2, 3),
    st.integers(0, 2 ** 32 - 1),
)


@settings(max_examples=200)
@given(inst=small_planar)
def test_dp_agrees_with_oracle(inst):
    dp = dp_solve(inst)
    oracle = solve_bruteforce(inst)
    assert dp.status == oracle.status
    if dp.status is Status.YES:
        assert verify_solution(inst, dp.solution)


@settings(max_examples=200)
@given(inst=small_planar)
def test_pipeline_agrees_with_oracle(inst):
    res = solve_pipeline(inst)
    assert res.status == solve_bruteforce(inst).status
    if res.status is Status.YES:
        assert verify_solution(inst, res.outcome.solution)


class TestIrrelevantVertex:
    def test_certified_requires_huge_grid(self):
        inst = gen_grid_instance(8, 2, 1)
        assert find_irrelevant_vertex(inst, identity_model(8), mode="certified") is None

    def test_heuristic_on_6x6_k2_oracle_confirmed(self):
        inst = gen_grid_instance(6, 2, 2)
        cert = find_irrelevant_vertex(inst, identity_model(6), mode="heuristic")
        assert cert is not None
        assert cert.oracle_checked is True
        assert cert.removed_vertex not in inst.terminals()
        assert cert.log_line() == (
            f"irrelevant {cert.removed_vertex} grid 6 cycles 1 mode heuristic oracle yes"
        )

    def test_log_line_oracle_unchecked(self):
        # a one-step oracle budget runs out, so the deletion stays unverified
        inst = gen_grid_instance(6, 2, 2)
        cert = find_irrelevant_vertex(
            inst, identity_model(6), mode="heuristic", oracle_budget=1
        )
        assert cert.oracle_checked is None
        assert cert.log_line() == (
            f"irrelevant {cert.removed_vertex} grid 6 cycles 1 mode heuristic oracle unchecked"
        )

    def test_heuristic_k1_on_5x5(self):
        inst = gen_grid_instance(5, 1, 3)
        cert = find_irrelevant_vertex(inst, identity_model(5), mode="heuristic")
        assert cert is not None
        assert cert.removed_vertex not in inst.terminals()

    def test_certificate_soundness_sweep(self):
        # Theorem-style check: solvable(G) iff solvable(G - v) for every
        # certificate the oracle can reach.
        from pdpp.plane import delete_vertices

        checked = 0
        for n, k, seeds in ((5, 1, range(4)), (6, 2, range(4))):
            for seed in seeds:
                inst = gen_grid_instance(n, k, seed)
                cert = find_irrelevant_vertex(
                    inst, identity_model(n), mode="heuristic"
                )
                if cert is None:
                    continue
                before = solve_bruteforce(inst)
                g2, remap = delete_vertices(inst.graph, [cert.removed_vertex])
                pairs2 = tuple((remap[s], remap[t]) for s, t in inst.pairs)
                after = solve_bruteforce(DppInstance(g2, pairs2))
                assert before.status == after.status
                checked += 1
        assert checked >= 6

    def test_terminals_never_in_outer_disc(self):
        inst = gen_grid_instance(6, 2, 7)
        cert = find_irrelevant_vertex(inst, identity_model(6), mode="heuristic")
        assert cert is not None
        assert not (cert.cycles.outer_disc().vertices & inst.terminals())


def count_calls(monkeypatch, module, name):
    """Wrap `module.name`; the returned list gets (args, result) per call."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append((args, out))
        return out

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestPipeline:
    def test_tree_instance_direct_dp(self):
        inst = gen_random_planar(8, 7, 2, 1)  # a tree
        res = solve_pipeline(inst)
        assert res.iterations == 1
        assert res.status == solve_bruteforce(inst).status

    def test_k1_direct_search(self):
        inst = gen_grid_instance(5, 1, 2)
        res = solve_pipeline(inst)
        assert res.status is Status.YES
        assert verify_solution(inst, res.outcome.solution)

    def test_matches_oracle_small(self):
        for seed in range(12):
            inst = gen_random_planar(10, 14, 2, seed)
            res = solve_pipeline(inst)
            assert res.status == solve_bruteforce(inst).status

    def test_deterministic(self):
        inst = gen_grid_instance(5, 2, 9)
        a = solve_pipeline(inst)
        b = solve_pipeline(inst)
        assert a.status == b.status
        assert a.outcome.solution == b.outcome.solution
        assert a.removed_original_ids == b.removed_original_ids

    def test_min_fill_decomposition_on_a_width_tie(self):
        # 5x5 is not reduced; both decompositions have width 5, and the DP
        # runs on min-fill's, with one bag per vertex
        inst = gen_grid_instance(5, 2, 0)
        g = inst.graph
        assert td_from_bd(g, best_heuristic_bd(g)).width == tree_decompose(g).width
        res = solve_pipeline(inst)
        assert res.iterations == 1
        assert len(res.decomposition.bags) == g.n
        assert res.decomposition == tree_decompose(g)

    def test_strictly_narrower_bd_decomposition_kept(self, monkeypatch):
        # unreduced 7x7 (k = 5 raises the grid target to 8): the branch
        # decomposition gives width 7, min-fill 8
        inst = gen_grid_instance(7, 5, 0)
        g = inst.graph
        narrow = td_from_bd(g, best_heuristic_bd(g))
        assert narrow.width < tree_decompose(g).width
        ran_on = []

        def record(inst, td, state_budget):  # the real DP here would be slow
            ran_on.append(td)
            return SolveOutcome(Status.NO)

        monkeypatch.setattr(solver, "dp_solve", record)
        res = solve_pipeline(inst)
        assert res.iterations == 1
        assert ran_on == [narrow]
        assert res.decomposition == narrow

    @pytest.mark.parametrize(
        "inst, iterations, widths, built",
        [
            # sparse: td_from_bd cannot be narrower than min-fill, so it is skipped
            (gen_random_planar(12, 18, 2, 0), 1, (4, 3), 0),
            # 5x5: a tie at width 5, so td_from_bd is built and then dropped
            (gen_grid_instance(5, 2, 0), 1, (5, 5), 1),
            # 7x7 reduced once; the DP iteration sees the reduced graph
            (gen_grid_instance(7, 2, 0), 2, (6, 7), 1),
        ],
    )
    def test_one_min_fill_pass_per_iteration(
        self, monkeypatch, inst, iterations, widths, built
    ):
        orders = count_calls(monkeypatch, decomposition, "minfill_order")
        elims = count_calls(monkeypatch, decomposition, "td_from_elimination")
        heuristic = count_calls(monkeypatch, decomposition, "best_heuristic_bd")
        from_bd = count_calls(monkeypatch, solver, "td_from_bd")
        res = solve_pipeline(inst)
        assert res.iterations == iterations
        assert len(orders) == len(elims) == len(heuristic) == iterations
        # the branch decomposition is built from the one min-fill pass
        for (args, _), (_, minfill) in zip(heuristic, elims):
            assert args[1] is minfill
        # (bd width, min-fill width) where the DP runs; td_from_bd is built
        # only when bd.width - 1 < min-fill's width
        bd, minfill = heuristic[-1][1], elims[-1][1]
        assert (bd.width, minfill.width) == widths
        assert len(from_bd) == built == int(bd.width - 1 < minfill.width)
        assert res.decomposition.parent == minfill.parent
        assert res.decomposition.width == minfill.width

    def test_too_wide_reuses_its_branch_decomposition(self, monkeypatch):
        # 7x7 with k = 2 is too wide for the side-6 target; with no
        # certificate the DP falls back to the decomposition already built
        inst = gen_grid_instance(7, 2, 0)
        outs = count_calls(monkeypatch, solver, "branch_decompose")
        heuristic = count_calls(monkeypatch, decomposition, "best_heuristic_bd")
        orders = count_calls(monkeypatch, decomposition, "minfill_order")
        from_bd = count_calls(monkeypatch, solver, "td_from_bd")
        monkeypatch.setattr(solver, "find_irrelevant_vertex", lambda *a, **kw: None)
        ran_on = []

        def record(inst, td, state_budget):
            ran_on.append(td)
            return SolveOutcome(Status.NO)

        monkeypatch.setattr(solver, "dp_solve", record)
        res = solve_pipeline(inst)
        assert res.iterations == 1
        ((_, out),) = outs
        assert isinstance(out, TooWide)
        assert len(heuristic) == len(orders) == 1
        ((args, narrow),) = from_bd
        assert args[1] is out.bd
        assert narrow.width == 7 < tree_decompose(inst.graph).width
        assert ran_on == [narrow]

    def test_deep_decomposition(self, tmp_path, capsys):
        # min-fill gives a path a decomposition as deep as the path, which
        # the decomposition builders walk without recursing
        n = 1200
        edges = "".join(f"e {v} {v + 1}\n" for v in range(1, n))
        text = f"p dpp {n} {n - 1} 2\n{edges}t 1 2\nt 3 {n}\n"
        inst = parse_instance(text)
        res = solve_pipeline(inst)
        assert res.status is Status.YES
        assert verify_solution(inst, res.outcome.solution)
        f = tmp_path / "path.dpp"
        f.write_text(text)
        assert cli.main(["solve", "--json", str(f)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["answer"] == "yes"
        paths = tuple(tuple(p) for p in payload["paths"])
        assert verify_solution(inst, Solution(paths))

    def test_pattern_preserved_after_reduction(self):
        # 8x8 forces at least one reduction in heuristic mode; the final
        # answer is checked against the boundary-interleaving criterion.
        inst = gen_grid_instance(8, 2, 5)
        res = solve_pipeline(inst, dp_state_budget=3_000_000)
        assert len(res.certificates) >= 1
        assert res.status == boundary_answer(inst)
        for cert in res.certificates:
            assert cert.mode == "heuristic"
        for v in res.removed_original_ids:
            assert v not in inst.terminals()

    def test_certified_mode_small_graph_just_dps(self):
        inst = gen_random_planar(9, 12, 2, 3)
        res = solve_pipeline(inst, mode="certified")
        assert res.iterations == 1
        assert res.status == solve_bruteforce(inst).status
