"""The one work budget shared by every exhaustive search."""

import pytest

from pdpp import oracle
from pdpp.concentric import CycleBudgetExceeded, make_concentric, verify_tight
from pdpp.decomposition import branchwidth_decision, treewidth_exact
from pdpp.gallery import ring_cycle, ring_lattice
from pdpp.instances import gen_grid_instance
from pdpp.plane import Budget, BudgetExceeded, make_grid
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
]


@pytest.mark.parametrize(
    "give_up, kind, message", GIVE_UPS, ids=["oracle", "cycles", "dp", "branchwidth", "treewidth"]
)
def test_one_except_catches_every_give_up(give_up, kind, message):
    assert oracle.BudgetExceeded is BudgetExceeded
    with pytest.raises(oracle.BudgetExceeded) as info:
        give_up()
    assert type(info.value) is kind
    assert str(info.value) == message
