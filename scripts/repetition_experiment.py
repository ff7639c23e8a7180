#!/usr/bin/env python3
"""Parallel repetition experiments with exact values.

Part one solves the anti-correlation game, evaluates the play-each-round-
independently strategy on the repeated game, and then solves the repeated
game exactly, showing the gap between the product bound and the true value.

Part two runs the answer-game construction end to end for the unit-vector
and xor supports: the repeated value of the built game is pinned to the
extremal forbidden-configuration-free density by the witness strategy.
"""

import argparse
import sys
from fractions import Fraction

from replab import forbidden
from replab.errors import BudgetExceededError
from replab.games import evaluate, exact_value, preset_game, unit_tuples
from replab.records import fraction_str
from replab.repetition import independent_strategy, repeat
from replab.structures import ghz_support


def anticorrelation_rounds(rounds: int, budget: int) -> None:
    base = preset_game("anticorr", q=3)
    base_val = exact_value(base)
    print(f"anticorr(3) base value:        {fraction_str(base_val.value)}")
    for n in range(2, rounds + 1):
        rep = repeat(base, n)
        indep = evaluate(rep, independent_strategy(base_val.strategy, n))
        assert indep == base_val.value**n
        print(f"  n={n}  independent bound:      {fraction_str(indep)}")
        try:
            result = exact_value(rep, budget=budget)
        except BudgetExceededError:
            print(f"  n={n}  exact value:            skipped (budget)")
            continue
        print(f"  n={n}  exact value:            {fraction_str(result.value)}")
        assert result.value >= indep


def answer_game_pipeline(budget: int) -> None:
    cases = [
        ("unitvec(3)", list(unit_tuples(3))),
        ("ghz", list(ghz_support())),
    ]
    for label, support in cases:
        for n in (1, 2):
            eq = forbidden.compute_eq(support, n)
            game = forbidden.build_answer_game(
                ((0, 1),) * 3, support, n, [tuple(w) for w in eq.witness])
            try:
                single = exact_value(game, budget=budget).value
            except BudgetExceededError:
                single_text = "skipped (budget)"
            else:
                assert single < 1
                single_text = fraction_str(single)
            rep = repeat(game, n)
            strat = forbidden.strategy_from_witness(support, n)
            lower = evaluate(rep, strat)
            assert lower == eq.value
            assert forbidden.check_winning_set_free(rep, strat)
            print(f"  {label:11s} n={n}  density {fraction_str(eq.value):5s}"
                  f"  single-shot {single_text:5s}"
                  f"  witness strategy {fraction_str(lower)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=2,
                        help="solve the repeated anti-correlation game up to "
                             "this round count (default 2)")
    parser.add_argument("--budget", type=int, default=10**8,
                        help="search budget for exact solves: strategy space, and "
                             "support tuples x answer combinations")
    args = parser.parse_args(argv)

    print("== repetition of the anti-correlation game ==")
    anticorrelation_rounds(args.rounds, args.budget)
    print()
    print("== answer games built from extremal witnesses ==")
    answer_game_pipeline(args.budget)
    return 0


if __name__ == "__main__":
    sys.exit(main())
