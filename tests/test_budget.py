"""The one work budget shared by every exhaustive search."""

import pytest

from pdpp import oracle
from pdpp.concentric import CycleBudgetExceeded, make_concentric, verify_tight
from pdpp.decomposition import branchwidth_decision, treewidth_exact
from pdpp.gallery import ring_cycle, ring_lattice
from pdpp.instances import gen_grid_instance
from pdpp.plane import Budget, BudgetExceeded, closed_interior, grid_ring, make_grid
from pdpp.reroute import untangle_disk
from pdpp.solver import DpBudgetExceeded, dp_solve


def test_spend_raises_once_spent_passes_limit():
    budget = Budget(3)
    budget.spend()
    budget.spend(2)
    assert (budget.spent, budget.limit) == (3, 3)
    with pytest.raises(BudgetExceeded):
        budget.spend()
    assert budget.spent == 4


def _ring_host():
    g, vid = ring_lattice(3, 8)
    cc = make_concentric(g, [ring_cycle(vid, 0, 8), ring_cycle(vid, 1, 8)])
    return g, vid, cc


def _oracle_gives_up():
    g, vid, cc = _ring_host()
    oracle.best_linkage_for_pattern(g, [(vid(2, 0), vid(2, 4))], list(cc.cycles), budget=1)


def _verifier_gives_up():
    g, _, cc = _ring_host()
    verify_tight(g, cc, budget=1)


def _untangling_gives_up():
    # a path crossing the 5x5 grid's central block three times
    g = make_grid(5, 5)
    link = oracle.Linkage(((2, 7, 12, 17, 22, 23, 18, 13, 8, 3, 4, 9, 14, 19, 24),))
    untangle_disk(g, link, closed_interior(g, grid_ring(g, 1)), 1, budget=0)


GIVE_UPS = [
    (_oracle_gives_up, oracle.BudgetExceeded, ""),
    (_verifier_gives_up, CycleBudgetExceeded, "over 1 steps enumerating cycles"),
    (
        lambda: dp_solve(gen_grid_instance(3, 2, 0), state_budget=0),
        DpBudgetExceeded,
        "DP exceeded 0 states at node 0",
    ),
    (
        lambda: branchwidth_decision(make_grid(3, 3), 3, budget=0),
        BudgetExceeded,
        "branchwidth closure budget exceeded",
    ),
    (lambda: treewidth_exact(make_grid(5, 5)), BudgetExceeded, "exact treewidth limited to n <= 17"),
    (_untangling_gives_up, BudgetExceeded, "over 0 matchings tried untangling"),
]


@pytest.mark.parametrize(
    "give_up, kind, message",
    GIVE_UPS,
    ids=["oracle", "cycles", "dp", "branchwidth", "treewidth", "untangle"],
)
def test_one_except_catches_every_give_up(give_up, kind, message):
    assert oracle.BudgetExceeded is BudgetExceeded
    with pytest.raises(oracle.BudgetExceeded) as info:
        give_up()
    assert type(info.value) is kind
    assert str(info.value) == message
