import itertools
import random

import pytest

from pdpp import reroute
from pdpp.clconfig import ConfigError, TiltedGrid, verify_tilted_grid
from pdpp.oracle import Linkage
from pdpp.plane import BudgetExceeded, Cycle, closed_interior, grid_ring, grid_vertex, make_grid
from pdpp.reroute import (
    BoundaryPattern,
    _noncrossing_matchings,
    PatternError,
    all_boundary_patterns,
    improve_over_tilted_grid,
    route_pattern,
    untangle_disk,
    validate_pattern,
    verify_route,
    vertical_crossing,
)


def straight_pattern(k):
    return BoundaryPattern(
        k, frozenset(frozenset({("up", i), ("down", i)}) for i in range(1, k + 1))
    )


class TestPatterns:
    def test_straight_ok(self):
        validate_pattern(straight_pattern(3))

    def test_crossing_rejected(self):
        p = BoundaryPattern(
            2,
            frozenset(
                {
                    frozenset({("up", 1), ("down", 2)}),
                    frozenset({("up", 2), ("down", 1)}),
                }
            ),
        )
        with pytest.raises(PatternError, match="cross"):
            validate_pattern(p)

    def test_even_gap_rejected(self):
        p = BoundaryPattern(
            4,
            frozenset(
                {
                    frozenset({("up", 1), ("up", 3)}),
                    frozenset({("up", 2), ("up", 4)}),
                    frozenset({("down", 1), ("down", 3)}),
                    frozenset({("down", 2), ("down", 4)}),
                }
            ),
        )
        with pytest.raises(PatternError):
            validate_pattern(p)

    def test_pattern_count_is_catalan(self):
        want = {1: 1, 2: 2, 3: 5, 4: 14, 5: 42, 6: 132, 7: 429}
        for k, count in want.items():
            patterns = list(all_boundary_patterns(k))
            assert len(patterns) == count
            for p in patterns:
                validate_pattern(p)


class TestRouting:
    def test_two_straight_columns(self):
        model = route_pattern(2, straight_pattern(2))
        assert model.phi1[frozenset({("up", 1), ("down", 1)})] == (1, 3)
        assert model.phi1[frozenset({("up", 2), ("down", 2)})] == (2, 4)

    def test_adjacent_upper_edge_is_boundary_edge(self):
        p = BoundaryPattern(
            2,
            frozenset(
                {
                    frozenset({("up", 1), ("up", 2)}),
                    frozenset({("down", 1), ("down", 2)}),
                }
            ),
        )
        model = route_pattern(2, p)
        assert model.phi1[frozenset({("up", 1), ("up", 2)})] == (1, 2)

    def test_all_patterns_route_small(self):
        for k in (2, 3, 4):
            for p in all_boundary_patterns(k):
                model = route_pattern(k, p)
                assert verify_route(k, p, model)

    def test_nested_upper_edges(self):
        p = BoundaryPattern(
            4,
            frozenset(
                {
                    frozenset({("up", 1), ("up", 4)}),
                    frozenset({("up", 2), ("up", 3)}),
                    frozenset({("down", 1), ("down", 4)}),
                    frozenset({("down", 2), ("down", 3)}),
                }
            ),
        )
        model = route_pattern(4, p)
        assert verify_route(4, p, model)
        outer = model.phi1[frozenset({("up", 1), ("up", 4)})]
        assert grid_vertex(4, 4, 2, 2) in outer  # staircase depth 2

    def test_partial_pattern_staircases_take_their_nesting_depth(self):
        # a partial pattern has no length formula, so each staircase is as
        # tall as its nesting depth: 2 rows round up_2-up_3, 1 row inside
        outer = frozenset({("up", 1), ("up", 4)})
        inner = frozenset({("up", 2), ("up", 3)})
        p = BoundaryPattern(5, frozenset({outer, inner}))
        model = route_pattern(5, p)
        assert model.phi1 == {outer: (1, 6, 7, 8, 9, 4), inner: (2, 3)}
        assert verify_route(5, p, model)


def snake_instance(r=3):
    """5 x (r+2) grid; one path crossing the central 3 x r block r times.

    It runs down column 2, up column 3, and so on; for r = 3 it is
    2, 7, 12, 17, 22, 23, 18, 13, 8, 3, 4, 9, 14, 19, 24.
    """
    g = make_grid(5, r + 2)
    path = tuple(
        grid_vertex(5, r + 2, row, col)
        for col in range(2, r + 2)
        for row in (range(1, 6) if col % 2 == 0 else range(5, 0, -1))
    )
    link = Linkage((path,))
    disk = closed_interior(g, grid_ring(g, 1))
    return g, link, disk


class TestUntangle:
    def test_vertical_crossing_classifies(self):
        g, link, disk = snake_instance()
        vc = vertical_crossing(g, link, disk)
        assert len(vc.lines) == 3
        assert set(vc.up) == {7, 8, 9}
        assert set(vc.down) == {17, 18, 19}

    def test_too_few_lines_rejected(self):
        g = make_grid(5, 5)
        link = Linkage(((2, 7, 12, 17, 22), (4, 9, 14, 19, 24)))
        disk = closed_interior(g, grid_ring(g, 1))
        with pytest.raises(ConfigError, match="lines"):
            untangle_disk(g, link, disk, 2)

    def test_snake_untangles_to_one_chord(self):
        g, link, disk = snake_instance()
        out = untangle_disk(g, link, disk, 1)
        assert out is not None
        assert len(out.chords) == 1
        assert out.chords[0][0] in {7, 8, 9} and out.chords[0][1] in {17, 18, 19}
        assert out.routes == ((2, 7, 19, 24),)

    def test_chords_noncrossing_and_fewer(self):
        g, link, disk = snake_instance()
        out = untangle_disk(g, link, disk, 1)
        assert len(out.chords) < 3

    def test_budget_counts_matchings_tried(self):
        # the snake is untangled by the sixth matching tried; with a budget
        # of five the search gives up and raises
        g, link, disk = snake_instance()
        assert untangle_disk(g, link, disk, 1, budget=6) == untangle_disk(g, link, disk, 1)
        with pytest.raises(BudgetExceeded, match="^over 5 matchings tried untangling$"):
            untangle_disk(g, link, disk, 1, budget=5)

    def test_budget_bounds_the_matchings_built(self, monkeypatch):
        # the 2 * 7 line ends of a seven-line snake have Motzkin(14) = 113,634
        # non-crossing matchings; at a budget of one the search raises on the
        # second matching tried, so it must not build the others first
        generate = reroute._noncrossing_matchings
        yielded = 0

        def counting(points, size):
            nonlocal yielded
            for matching in generate(points, size):
                yielded += 1
                yield matching

        monkeypatch.setattr(reroute, "_noncrossing_matchings", counting)
        g, link, disk = snake_instance(7)
        with pytest.raises(BudgetExceeded, match="^over 1 matchings tried untangling$"):
            untangle_disk(g, link, disk, 1, budget=1)
        assert yielded <= 2


def brute_noncrossing_matchings(points):
    """Every non-crossing partial matching of points in cyclic order, as pair lists."""
    position = {p: i for i, p in enumerate(points)}

    def matchings(rest):
        if not rest:
            yield []
            return
        first, *others = rest
        yield from matchings(others)
        for j, partner in enumerate(others):
            for m in matchings(others[:j] + others[j + 1 :]):
                yield [(first, partner), *m]

    for m in matchings(list(points)):
        spans = [sorted((position[a], position[b])) for a, b in m]
        if not any(
            a < c < b < d or c < a < d < b
            for (a, b), (c, d) in itertools.combinations(spans, 2)
        ):
            yield m


@pytest.mark.parametrize(
    "n, motzkin", enumerate((1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188, 5798))
)
def test_partial_matchings_are_the_motzkin_count_without_repeats(n, motzkin):
    # non-crossing partial matchings of n points on a cycle are counted by the
    # Motzkin numbers; untangle_disk's budget pins count them by size, then
    # by their sorted pair lists of vertex ids, so the generator, taken size
    # by size, must yield exactly that sorted list
    points = random.Random(n).sample(range(10, 10 + 3 * n), n)
    want = sorted(
        brute_noncrossing_matchings(points),
        key=lambda m: (len(m), sorted(sorted(pair) for pair in m)),
    )
    got = [m for size in range(n // 2 + 1) for m in _noncrossing_matchings(points, size)]
    assert len(got) == motzkin
    assert [[list(pair) for pair in m] for m in got] == [
        sorted(sorted(pair) for pair in m) for m in want
    ]


class TestImprove:
    def tidy_snake(self):
        g, link, _ = snake_instance()
        u = TiltedGrid(
            ((7, 8, 9), (12, 13, 14), (17, 18, 19)),
            ((7, 12, 17), (8, 13, 18), (9, 14, 19)),
        )
        return g, link, u

    def test_capacity_gate(self):
        g, link, u = self.tidy_snake()
        two = TiltedGrid(u.x_paths[:2], u.z_paths[:2])
        from pdpp.reroute import ImprovementError

        with pytest.raises(ImprovementError):
            improve_over_tilted_grid(g, link, two)

    def test_snake_straightened(self):
        g, link, u = self.tidy_snake()
        assert verify_tilted_grid(g, u, link)
        better = improve_over_tilted_grid(g, link, u)
        assert better is not None
        assert better.pattern == link.pattern
        z_edges = frozenset(
            tuple(sorted(e)) for p in u.z_paths for e in zip(p, p[1:])
        )
        assert len(z_edges & better.edges) < len(z_edges & link.edges)

    def test_pattern_preserved_always(self):
        g, link, u = self.tidy_snake()
        better = improve_over_tilted_grid(g, link, u)
        assert better.pattern == link.pattern

    def test_jog_slides_through_a_two_vertex_intersection(self):
        # 7 x 6 grid; X_1 jogs down a column, so it shares the edge 15-21
        # with Z_2, and the path's one chord, up_1 -> down_3, is lifted
        # along X_1 through both vertices of X_1 and Z_2's intersection
        g = make_grid(7, 6)
        link = Linkage(((2, 8, 14, 20, 26, 32, 38, 39, 33, 27, 21, 15, 9, 10, 16, 22, 28, 34),))
        u = TiltedGrid(
            ((14, 15, 21, 22), (26, 27, 28), (32, 33, 34)),
            ((14, 20, 26, 32), (15, 21, 27, 33), (22, 28, 34)),
        )
        assert verify_tilted_grid(g, u, link)
        assert u.intersection(1, 2)[0] == {15, 21}
        better = improve_over_tilted_grid(g, link, u)
        assert better.paths == ((2, 8, 14, 15, 21, 22, 28, 34),)
