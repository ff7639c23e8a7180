"""Exact tools for multiplayer game values, parallel repetition, and
forbidden-configuration densities.

The package computes, with exact rational arithmetic throughout:

  * values of finite k-player cooperative games and their n-fold parallel
    repetitions (games, repetition);
  * forbidden configurations of repeated question supports, the maximum
    density of configuration-free sets, and the answer-game construction
    whose repeated value equals that density (forbidden);
  * extremal densities of combinatorial lines, squares, corners and grids,
    and the point bijections that make lines, squares and grids the
    forbidden-configuration hypergraphs of repeated supports (structures);
  * exact maximum free sets of small hypergraphs, with a WCNF export for
    instances beyond the built-in solver budget (search).
"""

from .codec import TupleCodec
from .errors import (BudgetExceededError, IncompleteStrategyError, ReplabError,
                     SchemaError)
from .fields import FiniteField
from .forbidden import (ForbiddenWitness, build_answer_game, check_winning_set_free,
                        compute_eq, enumerate_forbidden, find_forbidden,
                        forbidden_hypergraph, strategy_from_witness, witness_is_valid)
from .games import (Game, GameValue, Strategy, attains, evaluate, exact_value,
                    game_from_json, game_to_json, grid_question_set, preset_game)
from .records import DensityRecord, ValueRecord
from .repetition import RepeatedGame, independent_strategy, repeat
from .rng import SplitMix64
from .search import ForbiddenHypergraph, export_wcnf, max_free, verify_free
from .structures import (corners, ghz_support, grid_round_codes, grids, lines, r_corner,
                         r_grid, r_line, r_square, squares)

__version__ = "0.1.0"
