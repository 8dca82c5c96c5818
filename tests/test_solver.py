import json
import math
import random
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from pdpp import cli, decomposition, solver
from pdpp.certificates import FaceCertificate, verify_no_certificate
from pdpp.concentric import lemma_side_requirement
from pdpp.decomposition import (
    TreeDecomposition,
    best_heuristic_bd,
    find_grid_minor,
    mcs_order,
    minfill_order,
    td_from_bd,
    td_from_elimination,
    tree_decompose,
)
from pdpp.instances import (
    DppInstance,
    Solution,
    gen_grid_instance,
    gen_random_planar,
    parse_instance,
    write_instance,
)
from pdpp.oracle import SolveOutcome, Status, solve_bruteforce, verify_solution
from pdpp.plane import (
    GridMinorModel,
    PlaneGraphError,
    delete_vertices,
    grid_vertex,
    make_grid,
    outer_cycle,
    plane_graph_from_edges,
)
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


def shuffled(vertices, seed):
    """A seeded relabelling of `vertices`, as an old -> new dict."""
    perm = list(vertices)
    random.Random(seed).shuffle(perm)
    return dict(zip(vertices, perm))


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

    @pytest.mark.parametrize(
        "bags, parent, width, problem",
        [
            (({1, 2}, {2}, {3}, {3, 4}), (-1, 0, 1, 2), 1, "edge (2,3) in no bag"),
            # vertex 1 sits at both ends of the bag path 0-1-2-3
            (({1, 2}, {2, 3}, {3, 4}, {1}), (-1, 0, 1, 2), 1, "bags containing 1 are disconnected"),
            (({1, 2}, {2, 3}, {3, 4}), (-1, 0, 1), 2, "declared width 2, actual 1"),
        ],
    )
    def test_broken_decomposition_rejected(self, bags, parent, width, problem):
        # the DP is the one place a tree decomposition is verified
        inst = parse_instance("p dpp 4 3 1\ne 1 2\ne 2 3\ne 3 4\nt 1 4\n")
        td = TreeDecomposition(parent, tuple(map(frozenset, bags)), width)
        with pytest.raises(PlaneGraphError, match=re.escape(problem)) as info:
            dp_solve(inst, td)
        assert str(info.value).startswith("bad tree decomposition")

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


def minfill_td(inst):
    """Min-fill's decomposition, which has joins on grids where the default
    (the MCS sweep's) has none."""
    return td_from_elimination(inst.graph, minfill_order(inst.graph)[0])


def joins(td):
    return sum(len(kids) > 1 for kids in td.children())


def reference_lift(child_table, child_bag, bag, terminal_pair):
    """A lift as the chain of one-vertex nodes it replaces: forget each
    dropped vertex in sorted order, then introduce each new one. Maps each
    state to the child state its back pointers lead to. Kept as the
    reference for `_lift`."""
    cur_bag = list(child_bag)
    table = {state: state for state in child_table}
    for v in sorted(set(child_bag) - set(bag)):
        p = cur_bag.index(v)
        cur_bag.remove(v)
        pos = {w: i for i, w in enumerate(cur_bag)}
        is_terminal = v in terminal_pair
        forgotten = {}
        for cstate, origin in table.items():
            code = cstate[p]
            state = cstate[:p] + cstate[p + 1 :]
            if code == 0:
                if is_terminal:
                    continue
            elif code == 1:
                pass
            elif code & 1:  # two hidden ends can never meet again
                continue
            else:
                if not is_terminal:
                    continue
                out = list(state)
                out[pos[code >> 1]] = 2 * v + 1
                state = tuple(out)
            if state not in forgotten:
                forgotten[state] = origin
        table = forgotten
    for v in sorted(set(bag) - set(child_bag)):
        cur_bag = sorted(cur_bag + [v])
        p = cur_bag.index(v)
        table = {cstate[:p] + (0,) + cstate[p:]: origin for cstate, origin in table.items()}
    assert tuple(cur_bag) == tuple(bag)
    return table


def reference_edge(child_table, bag, edge, terminal_pair, partner):
    """The edge step as three cases: both ends untouched, one live end
    meeting an untouched one, and two live ends merging. Kept as the
    reference for `_edge`."""
    u, v = edge
    pos = {w: i for i, w in enumerate(bag)}
    iu, iv = pos[u], pos[v]
    table = {}
    for cstate in child_table:
        if cstate not in table:  # skip the edge
            table[cstate] = cstate
        cu, cv = cstate[iu], cstate[iv]
        if cu == 1 or cv == 1:
            continue
        if (u in terminal_pair and cu) or (v in terminal_pair and cv):
            continue
        out = list(cstate)
        if not cu and not cv:
            bit = solver._settle_ends(out, pos, 2 * u, 2 * v, terminal_pair, partner)
        elif not cu or not cv:
            fresh, live, clive = (u, iv, cv) if not cu else (v, iu, cu)
            # the live end absorbs the edge; the fresh vertex becomes the end
            out[live] = 1
            # a live end paired with the fresh vertex would close a cycle
            bit = -1 if clive == 2 * fresh else solver._settle_ends(
                out, pos, 2 * fresh, clive, terminal_pair, partner
            )
        elif cu == 2 * v:
            continue  # both live ends of one fragment: a cycle
        else:
            out[iu] = out[iv] = 1
            bit = solver._settle_ends(out, pos, cu, cv, terminal_pair, partner)
        if bit < 0:
            continue
        out[-1] |= bit
        state = tuple(out)
        if state not in table:
            table[state] = cstate
    return table


def fragment_table(bag, hidden):
    """A table of every fragment state of `bag`: each vertex untouched,
    closed, ended at a hidden terminal of `hidden`, or paired with another
    bag vertex; no pair done."""

    def codes(rest):
        if not rest:
            yield {}
            return
        v, others = rest[0], rest[1:]
        for code in (0, 1, *(2 * x + 1 for x in hidden)):
            for more in codes(others):
                yield {v: code, **more}
        for i, w in enumerate(others):
            for more in codes(others[:i] + others[i + 1 :]):
                yield {v: 2 * w, w: 2 * v, **more}

    return {tuple(c[v] for v in bag) + (0,): None for c in codes(list(bag))}


def join_corpus():
    """(instance, decomposition, answer or None) on 4x4 and 5x5 grids and
    small random graphs, each with min-fill's and the heavy decomposition."""
    for side in (4, 5):
        for k in (2, 3):
            for seed in range(3):
                inst = gen_grid_instance(side, k, seed)
                for td in (minfill_td(inst), heavy_td(inst)):
                    yield inst, td, boundary_answer(inst)
    for n in (12, 20):
        for k in (2, 3):
            for seed in range(4):
                inst = gen_random_planar(n, 2 * n, k, seed)
                for td in (minfill_td(inst), heavy_td(inst)):
                    yield inst, td, None


class TestNiceTree:
    @pytest.mark.parametrize(
        "inst",
        [gen_grid_instance(side, 2, 0) for side in (4, 5, 6)]
        + [gen_random_planar(n, 2 * n, 2, seed) for n in (15, 30) for seed in range(3)],
        ids=lambda inst: f"n{inst.graph.n}m{len(inst.graph.edges)}",
    )
    @pytest.mark.parametrize("which", ["minfill", "heavy", "td_from_bd", "default"])
    def test_each_edge_taken_just_before_an_end_is_forgotten(self, inst, which):
        g = inst.graph
        td = {
            "minfill": lambda: minfill_td(inst),
            "heavy": lambda: heavy_td(inst),
            "td_from_bd": lambda: td_from_bd(g, decomposition.bd_from_td(g, minfill_td(inst))),
            "default": lambda: tree_decompose(g),
        }[which]()
        nodes, root = solver.nice_tree(g, td)
        parent = [-1] * len(nodes)
        for i, node in enumerate(nodes):
            for c in node.children:
                parent[c] = i
                # only a lift changes the bag
                assert node.kind == "lift" or nodes[c].bag == node.bag
        assert parent[root] == -1 and nodes[root].bag == ()
        # the reference for the top-bag rule: of the bags holding both
        # ends, the one nearest the root
        depth = [0] * len(td.bags)
        for t, entering in decomposition._euler_tour(td.children(), td.parent.index(-1)):
            if entering and td.parent[t] >= 0:
                depth[t] = depth[td.parent[t]] + 1
        holding = decomposition._bags_by_vertex(td)
        edge_nodes = [i for i, node in enumerate(nodes) if node.kind == "edge"]
        assert sorted(nodes[i].edge for i in edge_nodes) == sorted(g.edges)
        join_nodes = sum(node.kind == "join" for node in nodes)
        for i in edge_nodes:
            u, v = nodes[i].edge
            home = min((t for t in holding[u] if v in td.bags[t]), key=depth.__getitem__)
            assert nodes[i].bag == tuple(sorted(td.bags[home])), (nodes[i].edge, which)
            # the walk up passes only the bag's other edges, then meets a
            # lift that drops u or v: no join comes first
            j = parent[i]
            while nodes[j].kind == "edge":
                j = parent[j]
            assert nodes[j].kind == "lift", (nodes[i].edge, which)
            assert u not in nodes[j].bag or v not in nodes[j].bag, (nodes[i].edge, which)
        if which in ("heavy", "td_from_bd"):
            assert join_nodes > 0  # the rule is exercised below joins too


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
        for inst, td, answer in join_corpus():
            status = dp_solve(inst, td).status
            assert answer is None or status == answer
        # merges through vertices live on both sides, and rejections, occur
        assert seen["merged"] > 1000 and seen["rejected"] > 100 and seen["interior"] > 1000

    def test_lift_matches_reference(self, monkeypatch):
        real = solver._lift
        seen = {"drops_several": 0, "inner_drops_several": 0, "adds": 0}

        def checked(child_table, child_bag, bag, terminal_pair):
            got = real(child_table, child_bag, bag, terminal_pair)
            want = reference_lift(child_table, child_bag, bag, terminal_pair)
            # same states, in the same order, with the same back pointers
            assert list(got.items()) == list(want.items()), (child_bag, bag)
            dropped = set(child_bag) - set(bag)
            seen["drops_several"] += len(dropped) > 1
            seen["inner_drops_several"] += len(dropped) > 1 and bool(bag)
            seen["adds"] += bool(set(bag) - set(child_bag))
            return got

        monkeypatch.setattr(solver, "_lift", checked)
        for inst, td, answer in join_corpus():
            status = dp_solve(inst, td).status
            assert answer is None or status == answer
        # lifts to the root and some of the heavy decompositions' inner
        # lifts drop several vertices at once
        assert seen["drops_several"] > 20 and seen["inner_drops_several"] > 0
        assert seen["adds"] > 100

    @pytest.mark.parametrize("bag", [(2, 3, 4), (3, 4), (1, 4), (4,), (), (1, 5), (2, 4, 6), (5, 6)])
    def test_lift_matches_reference_on_every_fragment_state(self, bag):
        # terminals 1 and 2 in the child bag, with partners 9 and 8 hidden
        terminal_pair = {1: 0, 9: 0, 2: 1, 8: 1}
        child_bag = (1, 2, 3, 4)
        child_table = fragment_table(child_bag, (8, 9))
        got = solver._lift(child_table, child_bag, bag, terminal_pair)
        want = reference_lift(child_table, child_bag, bag, terminal_pair)
        assert list(got.items()) == list(want.items())
        assert 0 < len(got) < len(child_table)

    @pytest.mark.parametrize("edge", [(1, 2), (1, 3), (2, 4), (3, 4), (1, 5), (4, 5)])
    @pytest.mark.parametrize(
        "partner",
        # terminals 1 and 2 with hidden partners 9 and 8; one pair 1-2 in the
        # bag with terminals 8 and 9 hidden; no terminal in the bag
        [{1: 9, 9: 1, 2: 8, 8: 2}, {1: 2, 2: 1, 8: 9, 9: 8}, {8: 9, 9: 8}],
        ids=["hidden-partners", "pair-in-bag", "no-terminal"],
    )
    def test_edge_matches_reference_on_every_fragment_state(self, edge, partner):
        bag = (1, 2, 3, 4, 5)
        terminal_pair = {v: min(v, w) % 2 for v, w in partner.items()}
        child_table = fragment_table(bag, (8, 9))
        got = solver._edge(child_table, bag, edge, terminal_pair, partner)
        want = reference_edge(child_table, bag, edge, terminal_pair, partner)
        # same states, in the same order, with the same back pointers
        assert list(got.items()) == list(want.items())
        # most taken states are skipped states of other children, so each
        # child state is also stepped alone
        taken = 0
        for cstate in child_table:
            got = solver._edge({cstate: None}, bag, edge, terminal_pair, partner)
            want = reference_edge({cstate: None}, bag, edge, terminal_pair, partner)
            assert list(got.items()) == list(want.items()), cstate
            taken += len(got) - 1
        # only an edge between terminals of two pairs is never taken
        u, v = edge
        assert (taken == 0) == (u in terminal_pair and v in terminal_pair and u != partner[v])

    @pytest.mark.parametrize(
        "gen, args, td_kind, states",
        [
            ("grid", (4, 2, 3), "minfill", 196),
            ("grid", (5, 2, 1), "heavy", 4004),
            ("grid", (5, 3, 4), "heavy", 720),
            ("random", (20, 34, 3, 2), "minfill", 229),
            ("random", (25, 45, 2, 3), "heavy", 639),
            # 247 while a join merged states with a terminal live on both sides
            ("random", (14, 24, 2, 18), "default", 241),
        ],
        # ids without the pinned count, so a re-pin keeps the test's name
        ids=["grid-4-2-3-minfill", "grid-5-2-1-heavy", "grid-5-3-4-heavy",
             "random-20-34-3-2-minfill", "random-25-45-2-3-heavy", "random-14-24-2-18-default"],
    )
    def test_total_states_pinned(self, gen, args, td_kind, states):
        # least deciding budgets with each edge introduced at the bag
        # nearest the root holding both ends, and one lift node per bag
        # change; any change to the state set, to the nodes that charge
        # states or to where edges are introduced moves the budget at which
        # the DP gives up
        inst = (gen_grid_instance if gen == "grid" else gen_random_planar)(*args)
        pick = {"minfill": minfill_td, "heavy": heavy_td, "default": lambda inst: None}
        td = pick[td_kind](inst)
        dp_solve(inst, td, state_budget=states)
        with pytest.raises(
            DpBudgetExceeded, match=rf"^DP exceeded {states - 1} states at node \d+$"
        ):
            dp_solve(inst, td, state_budget=states - 1)

    @pytest.mark.parametrize(
        "gen, args, minfill_paths, heavy_paths",
        [
            (
                "grid", (5, 2, 0),
                ((21, 22, 23, 18, 13, 14, 9, 8, 7, 12, 11, 6), (15, 10, 5, 4, 3, 2, 1)),
                ((21, 16, 11, 6), (15, 14, 13, 12, 7, 2, 1)),
            ),
            (
                "grid", (5, 2, 1),
                ((5, 10, 15, 14, 13, 18, 23, 24), (16, 17, 22, 21)),
                ((5, 4, 3, 2, 1, 6, 11, 12, 17, 22, 23, 24), (16, 21)),
            ),
            (
                "grid", (5, 3, 1),
                ((5, 10, 15, 14, 13, 18, 23, 24), (16, 17, 22, 21), (2, 7, 12, 11, 6)),
                ((5, 4, 3, 8, 7, 12, 17, 22, 23, 24), (16, 21), (2, 1, 6)),
            ),
            (
                "random", (14, 28, 2, 2),
                ((12, 7, 1, 9), (6, 2, 3, 8, 10)),
                ((12, 7, 1, 9), (6, 2, 3, 8, 10)),
            ),
            (
                "random", (20, 40, 2, 0),
                ((17, 2, 16), (4, 3, 10)),
                ((17, 2, 16), (4, 3, 10)),
            ),
            (
                "random", (20, 40, 2, 3),
                ((19, 12, 14, 11, 3, 9), (10, 7, 4)),
                ((19, 12, 14, 11, 2, 9), (10, 7, 4)),
            ),
        ],
    )
    def test_reconstructed_paths_pinned(self, gen, args, minfill_paths, heavy_paths):
        # paths with each edge introduced at the bag nearest the root
        # holding both ends; any valid reconstruction passes verify_solution,
        # so only a pin shows a change of back pointers or of edge placement
        # (an edge node's first insertion wins)
        inst = (gen_grid_instance if gen == "grid" else gen_random_planar)(*args)
        assert dp_solve(inst, minfill_td(inst)).solution.paths == minfill_paths
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
def test_closed_terminal_has_its_pair_done(inst):
    # a terminal ends its path, so it takes one path edge: at an edge node,
    # or on one side of a join, never on both; it is closed only by
    # finishing its pair
    terminal_pair = {v: i for i, pair in enumerate(inst.pairs) for v in pair}

    def wrap(name, bag_at):
        real = getattr(solver, name)

        def checked(*args):
            out = real(*args)
            for state in [out] if isinstance(out, tuple) else out or ():
                for w, code in zip(args[bag_at], state):
                    if code == 1 and w in terminal_pair:
                        assert state[-1] >> terminal_pair[w] & 1, (name, args[bag_at], state)
            return out

        return checked

    with pytest.MonkeyPatch.context() as patch:
        for name, bag_at in (("_lift", 2), ("_edge", 1), ("_join_pair", 2)):
            patch.setattr(solver, name, wrap(name, bag_at))
        # the default decomposition, and the one with the most joins
        assert dp_solve(inst).status == dp_solve(inst, heavy_td(inst)).status


@settings(max_examples=200)
@given(inst=small_planar, slack=st.integers(-2, 1))
def test_sweep_no_wider_than_min_fill_and_same_answer(inst, slack):
    g = inst.graph
    minfill = minfill_td(inst)
    td = tree_decompose(g)
    assert td.width <= minfill.width
    limit = minfill.width + slack
    order = mcs_order(g, limit)
    if order is not None:
        assert sorted(order) == list(g.vertices)
        assert td_from_elimination(g, order).width <= limit
    status = dp_solve(inst, td).status
    assert status == dp_solve(inst, minfill).status == solve_bruteforce(inst).status


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


# every decomposition step a pipeline round could take, so that one that
# should not run shows up in the record
ROUND_STEPS = (
    "minfill_order",
    "td_from_elimination",
    "mcs_order",
    "find_grid_minor",
    "best_heuristic_bd",
    "bd_from_td",
    "caterpillar_bd",
    "td_from_bd",
    "verify_tree_decomposition",
)


def record_calls(monkeypatch, names):
    """Wrap each named `pdpp.decomposition` (else `pdpp.solver`) function in
    every `pdpp` module holding it; the returned list gets [name, args,
    result] per call, in the order the calls start."""
    calls = []

    def wrap(name, real):
        def wrapper(*args, **kwargs):
            entry = [name, args, None]
            calls.append(entry)
            entry[2] = real(*args, **kwargs)
            return entry[2]

        return wrapper

    for name in names:
        real = getattr(decomposition, name, None) or getattr(solver, name)
        wrapper = wrap(name, real)
        for module_name, module in sorted(sys.modules.items()):
            if module_name.startswith("pdpp") and getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, wrapper)
    return calls


def decomposition_steps(steps):
    """The `tree_decompose` that `steps` start with: min-fill's width, the
    sweep's order (None when no sweep stays within that width), and the
    decomposition built from the one order kept: the sweep's, else
    min-fill's."""
    assert [name for name, _, _ in steps[:3]] == [
        "minfill_order", "mcs_order", "td_from_elimination",
    ]
    (_, _, (order, width)), (_, (_, limit), sweep), (_, (_, kept), td) = steps[:3]
    assert limit == width
    assert kept is (order if sweep is None else sweep)
    assert td.width <= width
    return width, sweep, td


def one_face_undecided(monkeypatch):
    """Make the pipeline's one-face stage fall through, so every round that
    does not reduce reaches the DP."""
    monkeypatch.setattr(solver, "one_face_decision", lambda inst: None)


def round_instance(inst, res):
    """The instance the pipeline's last round saw: `inst` less the removed
    vertices, deleted one at a time in the pipeline's order."""
    cur = inst
    to_new = {v: v for v in inst.graph.vertices}
    for v in res.removed_original_ids:
        g, remap = delete_vertices(cur.graph, [to_new[v]])
        to_new = {old: remap[new] for old, new in to_new.items() if new in remap}
        cur = DppInstance(g, tuple((remap[s], remap[t]) for s, t in cur.pairs))
    return cur, {new: old for old, new in to_new.items()}


def split_rounds(calls):
    """The recorded calls cut into pipeline rounds: each starts by looking
    for the grid minor."""
    rounds = []
    for call in calls:
        if call[0] == "find_grid_minor":
            rounds.append([])
        rounds[-1].append(call)
    return rounds


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

    def test_sweep_decomposition_on_a_width_tie(self):
        # 5x5 is not reduced; min-fill, the sweep and the branch
        # decomposition's translation all have width 5, and the round's
        # decomposition is the sweep's: one bag per vertex and no join. The
        # DP decides on it; the pipeline decides by the one-face stage.
        inst = gen_grid_instance(5, 2, 0)
        g = inst.graph
        assert td_from_bd(g, best_heuristic_bd(g)).width == minfill_td(inst).width == 5
        td = tree_decompose(g)
        assert len(td.bags) == g.n
        assert td == td_from_elimination(g, mcs_order(g, 5))
        assert (td.width, joins(td)) == (5, 0)
        assert dp_solve(inst, td).status is boundary_answer(inst)
        res = solve_pipeline(inst)
        assert res.iterations == 1
        assert res.decomposition is None
        assert res.status is boundary_answer(inst)

    @pytest.mark.parametrize(
        "k, seed, mode, answer",
        # each ran out of the state budget on td_from_bd's width-7
        # decomposition (UNKNOWN, in both modes)
        [
            (5, 0, "heuristic", Status.NO),
            (5, 2, "heuristic", Status.NO),
            (3, 0, "certified", Status.YES),
        ],
    )
    def test_sweep_decomposition_when_min_fill_is_wider(self, k, seed, mode, answer):
        # unreduced 7x7 (k = 5 raises the heuristic grid target to 8, and
        # certified mode never reduces it): min-fill gives width 8 with
        # joins; the sweep and the branch decomposition's translation give 7,
        # and the round's decomposition is the sweep's, at width 7 with no
        # join. The DP decides on it within the pipeline's default budget;
        # the pipeline decides by the one-face stage.
        inst = gen_grid_instance(7, k, seed)
        g = inst.graph
        minfill = minfill_td(inst)
        assert td_from_bd(g, best_heuristic_bd(g)).width == 7 < minfill.width == 8
        assert joins(minfill) > 0
        td = tree_decompose(g)
        assert (td.width, joins(td)) == (7, 0)
        dp = dp_solve(inst, td)
        assert dp.status is answer
        res = solve_pipeline(inst, mode=mode)
        assert res.iterations == 1
        assert res.decomposition is None
        assert res.status is answer
        assert boundary_answer(inst) is answer
        assert solve_bruteforce(inst).status is answer
        if answer is Status.YES:
            assert verify_solution(inst, dp.solution)
            assert verify_solution(inst, res.outcome.solution)

    @pytest.mark.parametrize(
        "inst, iterations, widths",
        # widths: per round, None when it reduces and so builds no tree
        # decomposition, else min-fill's width and the sweep's (None when
        # no sweep stays within min-fill's)
        [
            (gen_random_planar(12, 18, 2, 0), 1, ((3, 3),)),
            (gen_grid_instance(5, 2, 0), 1, ((5, 5),)),
            # 7x7 reduced once; the DP round sees the reduced graph's kernel:
            # with k = 3 one pair is routed, and both sweeps outgrow
            # min-fill's width; with k = 2 the sweep is narrower
            (gen_grid_instance(7, 3, 6), 2, (None, (6, None))),
            (gen_grid_instance(7, 2, 1), 2, (None, (8, 7))),
        ],
    )
    def test_one_min_fill_pass_per_iteration(self, monkeypatch, inst, iterations, widths):
        one_face_undecided(monkeypatch)
        calls = record_calls(monkeypatch, ROUND_STEPS)
        res = solve_pipeline(inst)
        assert res.iterations == iterations
        rounds = split_rounds(calls)
        assert len(rounds) == len(widths) == iterations
        *reducing, last = rounds
        *reducing_widths, (minfill_width, sweep_width) = widths
        # a round that reduces finds a minor, reads the grid's side, and
        # builds no decomposition of either kind
        for steps, want in zip(reducing, reducing_widths):
            assert want is None
            assert [name for name, _, _ in steps] == ["find_grid_minor"]
            assert steps[0][2] is not None
        # the DP round finds no minor, builds no branch decomposition, and
        # builds its tree decomposition from one elimination order
        (_, _, model), *rest = last
        assert model is None
        width, sweep, td = decomposition_steps(rest)
        assert width == minfill_width
        assert (sweep is None) == (sweep_width is None)
        assert td.width == (minfill_width if sweep_width is None else sweep_width)
        assert [name for name, _, _ in rest[3:]] == ["verify_tree_decomposition"]
        # one tree-decomposition check, by the DP on the round's decomposition
        assert rest[3][1][1] is td
        assert res.decomposition.parent == td.parent
        assert res.decomposition.width == td.width
        for name in ("best_heuristic_bd", "td_from_bd", "branch_decompose", "TooWide"):
            assert not hasattr(solver, name)

    def test_too_wide_without_certificate_runs_the_dp(self, monkeypatch):
        # 7x7 with k = 2 holds a 6x6 minor and its side exceeds the side-6
        # target; with no certificate the DP runs on the decomposition of
        # the round's kernel, the sweep's (width 7, no join; min-fill's is 8)
        inst = gen_grid_instance(7, 2, 1)
        one_face_undecided(monkeypatch)
        calls = record_calls(monkeypatch, ROUND_STEPS)
        asked = []
        monkeypatch.setattr(
            solver, "find_irrelevant_vertex", lambda cur, model, mode: asked.append(model)
        )
        kernels = count_calls(monkeypatch, solver, "exact_kernel")
        ran = count_calls(monkeypatch, solver, "dp_solve")
        res = solve_pipeline(inst)
        assert res.iterations == 1
        (steps,) = split_rounds(calls)
        assert steps[0][0] == "find_grid_minor"
        model = steps[0][2]
        assert (model.side(), inst.graph.grid_shape) == (6, (7, 7))
        assert asked == [model]
        width, sweep, td = decomposition_steps(steps[1:])
        assert sweep is not None
        assert (width, td.width, joins(td)) == (8, 7, 0)
        assert [name for name, _, _ in steps[4:]] == ["verify_tree_decomposition"]
        ((_, kernel),) = kernels
        ((args, _),) = ran
        assert args == (kernel.inst, td)
        # the decomposition is reported in the input's ids
        bags = tuple(frozenset(kernel.to_input[v - 1] for v in bag) for bag in td.bags)
        assert res.decomposition == TreeDecomposition(td.parent, bags, td.width)
        assert res.status is boundary_answer(inst)

    def test_minor_at_target_width_runs_the_dp(self, monkeypatch):
        # 6x6 with k = 2 holds a 6x6 minor but its side is not above the
        # side-6 target: no branch decomposition is built, nothing is
        # reduced, and the DP runs on the sweep's decomposition of the
        # kernel (width 6, no join)
        inst = gen_grid_instance(6, 2, 1)
        one_face_undecided(monkeypatch)
        calls = record_calls(monkeypatch, ROUND_STEPS)
        asked = count_calls(monkeypatch, solver, "find_irrelevant_vertex")
        res = solve_pipeline(inst)
        assert res.iterations == 1
        assert res.certificates == ()
        assert asked == []
        (steps,) = split_rounds(calls)
        assert steps[0][0] == "find_grid_minor"
        assert (steps[0][2].side(), inst.graph.grid_shape) == (6, (6, 6))
        _, sweep, td = decomposition_steps(steps[1:])
        assert (sweep is not None, td.width, joins(td)) == (True, 6, 0)
        assert [name for name, _, _ in steps[4:]] == ["verify_tree_decomposition"]
        assert steps[-1][1][1] is td
        assert res.status is boundary_answer(inst)

    def test_grid_minor_rule_is_width_first(self, monkeypatch):
        # the pipeline looks for the minor first; what it hands on must be
        # what the width-first rule gives: a minor only when the branch
        # decomposition is wider than target. Graphs with fewer than 2k
        # vertices carry no k-pair instance and are skipped. Relabelled
        # grids, embedded from their edges alone, count as grids too.
        handed = []
        monkeypatch.setattr(
            solver, "find_irrelevant_vertex", lambda cur, model, mode: handed.append(model)
        )
        monkeypatch.setattr(solver, "dp_solve", lambda *a, **kw: SolveOutcome(Status.NO))
        graphs = [make_grid(r, c) for r in range(1, 13) for c in range(1, 13)]
        for r in range(3, 13):
            for c in range(3, 13):
                h = make_grid(r, c)
                new = shuffled(h.vertices, 100 * r + c)
                graphs.append(plane_graph_from_edges(h.n, [(new[u], new[v]) for u, v in h.edges]))
        for side in range(6, 10):
            grid = make_grid(side, side)
            graphs += [delete_vertices(grid, [v])[0] for v in grid.vertices]
        for seed in range(150):
            n = 6 + seed % 35
            graphs.append(gen_random_planar(n, n - 1 + 7 * seed % (2 * n - 4), 1, seed).graph)
        found = 0
        for g in graphs:
            width = best_heuristic_bd(g).width
            for k, target in ((2, 6), (5, 8)):
                assert heuristic_grid_target(k) == target
                if g.n < 2 * k:
                    continue
                handed.clear()
                pairs = tuple((i, g.n + 1 - i) for i in range(1, k + 1))
                solve_pipeline(DppInstance(g, pairs))
                expected = find_grid_minor(g, target) if width > target else None
                assert handed == ([] if expected is None else [expected]), (g.n, g.grid_shape, k)
                found += expected is not None
        # the r x c grids with min(r, c) > target, each once as built and
        # once relabelled: 36 at target 6, 16 at 8
        assert found == 2 * (36 + 16)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_relabelled_grid_reduces_like_the_parsed_one(self, seed):
        # a relabelled 7x7 built in-process is a grid from its edges, as the
        # same instance read from a file is, and both reduce in round one
        inst = gen_grid_instance(7, 2, seed)
        g = inst.graph
        new = shuffled(g.vertices, seed)
        built = DppInstance(
            plane_graph_from_edges(
                g.n,
                [(new[u], new[v]) for u, v in g.edges],
                {new[v]: [new[w] for w in g.rotation[v]] for v in g.vertices},
                (new[g.outer_dart[0]], new[g.outer_dart[1]]),
            ),
            tuple((new[s], new[t]) for s, t in inst.pairs),
        )
        parsed = parse_instance(write_instance(built))
        res, again = solve_pipeline(built), solve_pipeline(parsed)
        assert len(res.certificates) == 1
        assert [c.log_line() for c in res.certificates] == [c.log_line() for c in again.certificates]
        assert res.removed_original_ids == again.removed_original_ids
        assert res.status is again.status is boundary_answer(inst)

    def test_deep_decomposition(self, tmp_path, capsys):
        # a path's tree decomposition (min-fill's or the sweep's) is as deep
        # as the path, which the decomposition builders walk without recursing
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

    @pytest.mark.parametrize("side, seed", [(9, 0), (9, 1), (10, 0), (10, 1)])
    def test_sweep_decides_9x9_and_10x10(self, side, seed):
        # one vertex is deleted first; on min-fill's decomposition of the
        # reduced grid (width 11 on 9x9 and 13 on 10x10, with 21 and 28
        # joins) these ran out of 3,000,000 states; the sweep's has width =
        # side, and the DP decides on it. The pipeline decides the reduced
        # grid by the one-face stage.
        inst = gen_grid_instance(side, 2, seed)
        res = solve_pipeline(inst, dp_state_budget=3_000_000)
        assert res.status is boundary_answer(inst)
        assert len(res.certificates) == 1
        cur, to_original = round_instance(inst, res)
        td = tree_decompose(cur.graph)
        assert td.width == side
        dp = dp_solve(cur, td, state_budget=3_000_000)
        assert dp.status is boundary_answer(inst)
        if res.status is Status.YES:
            assert verify_solution(inst, res.outcome.solution)
            paths = tuple(tuple(to_original[v] for v in p) for p in dp.solution.paths)
            assert verify_solution(inst, Solution(paths))

    @pytest.mark.parametrize(
        "inst, order",
        [
            # 7x7 reduces once, and the stage decides the reduced grid
            (
                gen_grid_instance(7, 2, 0),
                ["find_grid_minor", "find_irrelevant_vertex", "find_grid_minor", "one_face_decision"],
            ),
            # 5x5 holds no minor of the side-6 target; the stage decides it
            (gen_grid_instance(5, 2, 0), ["find_grid_minor", "one_face_decision"]),
            # no face holds all four terminals: the stage falls through, and
            # the kernel routes both pairs
            (
                gen_random_planar(12, 18, 2, 1),
                ["find_grid_minor", "one_face_decision", "exact_kernel"],
            ),
            # the same, where the kernel keeps both pairs
            (
                gen_random_planar(12, 18, 2, 2),
                ["find_grid_minor", "one_face_decision", "exact_kernel", "tree_decompose", "dp_solve"],
            ),
        ],
    )
    def test_round_order(self, monkeypatch, inst, order):
        # reduce while a round can, then the one-face stage, then the
        # kernel when the stage does not decide, and a decomposition and
        # the DP only when the kernel leaves two pairs or more
        steps = (
            "find_grid_minor",
            "find_irrelevant_vertex",
            "one_face_decision",
            "exact_kernel",
            "tree_decompose",
            "dp_solve",
        )
        calls = record_calls(monkeypatch, steps)
        res = solve_pipeline(inst)
        assert [name for name, _, _ in calls] == order
        (decided,) = [out for name, _, out in calls if name == "one_face_decision"]
        assert (decided is None) == ("exact_kernel" in order)
        assert (res.decomposition is None) == ("dp_solve" not in order)
        assert res.status == solve_bruteforce(inst).status

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_9x9_decided_after_a_deletion(self, k, seed):
        # one heuristic deletion first (no oracle cross-check above 70
        # vertices); then the DP at 400,000 states ran out of states on
        # most of these, while every terminal lies on the outer face
        inst = gen_grid_instance(9, k, seed)
        res = solve_pipeline(inst)
        assert len(res.certificates) == 1
        assert res.status is boundary_answer(inst)
        if res.status is Status.YES:
            assert verify_solution(inst, res.outcome.solution)
        else:
            # the deletion is inside the grid, so the outer face survives it
            assert verify_no_certificate(inst, res.no_certificate)

    def test_face_certificate_reported_only_when_it_checks(self, monkeypatch):
        # a NO from the stage is reported with its certificate only when the
        # certificate checks on the original instance
        inst = gen_grid_instance(5, 2, 3)
        assert boundary_answer(inst) is Status.NO
        res = solve_pipeline(inst)
        assert res.status is Status.NO
        assert verify_no_certificate(inst, res.no_certificate)
        wrong = FaceCertificate((1, 2), (0, 0))
        monkeypatch.setattr(solver, "one_face_decision", lambda cur: wrong)
        res = solve_pipeline(inst)
        assert res.status is Status.NO
        assert res.no_certificate is None

    @pytest.mark.parametrize("mode", ["certified", "heuristic"])
    def test_dp_budget_message_in_both_modes(self, mode):
        # running out of DP states is no verdict: the reason names the
        # budget and the node that ran out, whatever the mode
        inst = gen_random_planar(12, 20, 2, 3)
        res = solve_pipeline(inst, mode=mode, dp_state_budget=10)
        assert res.status is Status.UNKNOWN
        assert re.fullmatch(r"DP exceeded 10 states at node \d+", res.outcome.reason)

    def test_certified_mode_small_graph_just_dps(self):
        inst = gen_random_planar(9, 12, 2, 3)
        res = solve_pipeline(inst, mode="certified")
        assert res.iterations == 1
        assert res.status == solve_bruteforce(inst).status
