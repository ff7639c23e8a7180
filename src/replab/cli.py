"""Command line front end.

Subcommands: value (exact value of a game, optionally repeated, with the
lexicographically first optimal strategy), density (extremal density of a
structure family), eqn (maximum forbidden-configuration-free density of a
repeated question support), repeat (summary of a repeated game), verify
(the equivalences between repeated values and densities, as PASS/FAIL rows)
and fuzz-prop34 (random product strategies, whose winning sets must be
forbidden-configuration-free).  verify dhj, square and grid solve E_Q(n)
once and check that the family's point bijection (structures) carries its
configurations onto exactly the forbidden ones, which makes the family's
density the same number.  density takes its family, and verify its check,
as a word that its flags follow:

  density line [--q Q] [--method auto|search|closed-form] | square | corner
        | grid [--p P] [--r R] [--k K], each with --n N, --wcnf PATH, the
        cache flags and --json
  verify dhj [--q Q] | square | grid [--p P] [--r R] [--k K]
        | val-bound | thm-answer-game (--game FILE | --preset NAME) [--budget B],
        each with --n N or LO..HI and --json

A --preset takes only its own parameters (games.PRESETS): --q for anticorr
and unitvec, --p, --r and --k for grid, none for ghz.  Every command is
deterministic given its arguments and seed: reports carry no timestamps,
rationals print as num/den in lowest terms, and all randomness flows from
an explicit --seed through a splitmix64 stream.

value, density and eqn cache their records append-only under
$REPLAB_CACHE (or .replab-cache, or --cache-dir), one file per query;
--no-cache bypasses the cache and --recheck re-verifies a cached record
against a fresh recomputation of its cheap certificate.  Every flag is read
by its command, and a mode flag refuses the flags it leaves idle
(_IDLE_UNDER): --game refuses --preset and its parameters, --no-cache refuses
--recheck and --cache-dir, and --wcnf, which writes the instance and stops,
refuses the cache flags, --emit-witness, --method and --point-budget.

Exit codes: 0 success, 1 verification failure, 2 malformed input (invalid
parameters, a refused flag, a cache file that is not JSON or not a record,
or an output path that cannot be written), 3 budget exceeded, 4
precondition not met (fuzz-prop34, verify val-bound).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys

from . import forbidden, structures
from .cache import ResultsCache, canonical_key
from .errors import BudgetExceededError, ReplabError, SchemaError
from .fields import FiniteField
from .games import (DEFAULT_STRATEGY_BUDGET, PRESETS, Game, Strategy, attains, evaluate,
                    exact_value, game_from_json, grid_question_set, preset_game,
                    search_domains, strategy_from_json, strategy_to_json,
                    unit_tuples)
from .records import DensityRecord, ValueRecord, fraction_str
from .repetition import independent_strategy, repeat
from .rng import SplitMix64
from .search import (DEFAULT_POINT_BUDGET, ForbiddenHypergraph, export_wcnf,
                     refuse_past_solver_budget)

PARAM_HELP = {"q": "symbol count (players of anticorr, unitvec)", "p": "field characteristic",
              "r": "field extension degree", "k": "free player count"}

# (mode flag, what it does, the flags it leaves idle), by dest
_IDLE_UNDER = (("wcnf", "only writes the instance",
                ("recheck", "no_cache", "cache_dir", "emit_witness", "method",
                 "point_budget")),
               ("no_cache", "skips the cache", ("recheck", "cache_dir")),
               ("game", "reads the game from a file", ("preset", *PARAM_HELP)))


class VerifyFailure(ReplabError):
    """A verify subcommand found a mismatch, or a cached record failed its
    recheck."""


class PreconditionFailure(ReplabError):
    """A fuzz-prop34 or verify val-bound run was refused because its base
    game has value 1."""


# -- shared helpers ----------------------------------------------------------


def _add_json_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="print the record as JSON")


def _add_cache_flags(p: argparse.ArgumentParser) -> None:
    _add_json_flag(p)
    p.add_argument("--cache-dir", default=None,
                   help="cache root (default: $REPLAB_CACHE or .replab-cache)")
    p.add_argument("--no-cache", action="store_true", help="skip the results cache")
    p.add_argument("--recheck", action="store_true",
                   help="re-verify cached records instead of trusting them")


def _add_params(parser: argparse.ArgumentParser, /, **defaults) -> None:
    """An int flag per parameter; a default of None means not given."""
    for name, default in defaults.items():
        parser.add_argument(f"--{name}", type=int, default=default, help=PARAM_HELP[name])


def _add_game_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--game", default=None, help="path to a game JSON file")
    p.add_argument("--preset", default=None, choices=PRESETS)
    _add_params(p, **dict.fromkeys(PARAM_HELP))


def _load_game(args) -> tuple[Game, str, dict]:
    """Game plus a (label, params) pair identifying it for the cache."""
    if args.game:
        try:
            with open(args.game, encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise SchemaError(f"cannot read game file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise SchemaError(f"game file is not JSON: {exc}") from exc
        game = game_from_json(doc)
        digest = hashlib.sha256(
            json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()[:16]
        return game, "file", {"sha": digest}
    if not args.preset:
        raise SchemaError("a game is required: --game FILE or --preset NAME")
    return _preset_game(args)


def _preset_game(args) -> tuple[Game, str, dict]:
    """The --preset game from its parameters, given or default; preset_game
    refuses a given parameter that the preset does not take."""
    params = dict(PRESETS[args.preset])
    params.update((name, getattr(args, name)) for name in PARAM_HELP
                  if getattr(args, name) is not None)
    return preset_game(args.preset, **params), args.preset, params


def _with_cache(args, kind: str, params: dict, record_type, compute, verify):
    """Fetch or compute a record_type record plus its status.  verify(record)
    guards --recheck hits."""
    cache = None if args.no_cache else ResultsCache(args.cache_dir)
    key = canonical_key(kind, params)
    if cache is not None:
        existing = cache.get(key)
        if existing is not None:
            record = record_type.from_json(existing)
            if args.recheck and not verify(record):
                raise VerifyFailure(f"cached record failed recheck: {key}")
            return record, "cached"
    record = compute()
    if cache is not None:
        doc, _ = cache.put(key, record.to_json())
        record = record_type.from_json(doc)
    return record, "computed"


def _emit(args, record: dict, lines: list[str]) -> None:
    """Print the report: the one write to stdout.  If the reader has closed
    the pipe, stdout is pointed at os.devnull, so that the flush at exit
    cannot fail again, and the command goes on to its own exit code."""
    try:
        print(json.dumps(record, sort_keys=True, indent=2) if args.json
              else "\n".join(lines), flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _open_output(path: str):
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot write {path}: {exc.strerror}") from exc


def _refuse_idle_flags(args) -> None:
    """Refuse a flag that a given mode flag leaves with nothing to act on."""
    for mode, does, idle in _IDLE_UNDER:
        if getattr(args, mode, None):
            for dest in idle:
                if getattr(args, dest, None) not in (None, False):
                    raise SchemaError(f"--{dest.replace('_', '-')} cannot be used with "
                                      f"--{mode.replace('_', '-')}, which {does}")


def _write_wcnf(args, family) -> int:
    # the bare edges: WCNF has no use for the family's symmetries
    hyper = ForbiddenHypergraph(len(family), family.configurations())
    with _open_output(args.wcnf) as fh:
        fh.write(export_wcnf(hyper))
    summary = {"hard_clauses": len(hyper.edges), "points": hyper.size, "wcnf": args.wcnf}
    _emit(args, summary, [f"wrote WCNF: {hyper.size} points, "
                          f"{len(hyper.edges)} hard clauses -> {args.wcnf}"])
    return 0


def _parse_range(text: str) -> range:
    lo, hi = text.split("..", 1) if ".." in text else (text, text)
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise SchemaError(f"--n must be N or LO..HI, got {text!r}") from None
    if hi < lo:
        raise SchemaError(f"empty range {text!r}")
    return range(lo, hi + 1)


# -- value -------------------------------------------------------------------


def cmd_value(args) -> int:
    game, label, params = _load_game(args)
    if args.repeat != 1:  # repeat() refuses counts below 1
        game = repeat(game, args.repeat)
    params = dict(params, repeat=args.repeat)
    # the cache key omits the budget, so refuse before the lookup: a record
    # stored under a larger --budget is not served under this one
    search_domains(game, args.budget)

    def compute() -> ValueRecord:
        result = exact_value(game, budget=args.budget)
        return ValueRecord(
            game=label,
            params=params,
            value=result.value,
            strategy=strategy_to_json(game, result.strategy),
            method="exact-bb",
        )

    record, status = _with_cache(
        args, "value", dict(params, game=label), ValueRecord, compute,
        lambda r: attains(game, strategy_from_json(r.strategy), r.value))
    _emit(args, record.to_json(), record.report_lines() + [f"status:        {status}"])
    return 0


# -- density -------------------------------------------------------------------


def _density_command(args, kind: str, params: dict, make_family, compute,
                     before_report=None) -> int:
    """density and eqn: report the cached or computed record of compute(),
    after before_report(record) if given."""
    # a witness is checked against the family; a closed form is recomputed
    record, status = _with_cache(
        args, kind, params, DensityRecord, compute,
        lambda r: r == compute() if r.witness is None else make_family().check(r))
    if before_report is not None:
        before_report(record)
    _emit(args, record.to_json(), record.report_lines() + [f"status:        {status}"])
    return 0


def cmd_density(args) -> int:
    params = args.params(args)
    if args.wcnf:
        return _write_wcnf(args, args.structure_family(**params))
    return _density_command(args, "density", dict(params, family=args.family),
                            lambda: args.structure_family(**params),
                            lambda: args.solve(**params))


def _add_density(sub) -> None:
    p = sub.add_parser("density", help="extremal structure densities")
    families = p.add_subparsers(dest="family", required=True)
    # each family's own flags, its cache key's params, and its structure family and
    # solved record from those; structures' functions are looked up when called
    for name, flags, params, structure_family, solve in (
            ("line", {"q": 2}, lambda a: {"q": a.q, "n": a.n, "method": a.method or "auto"},
             lambda q, n, method: structures.lines(q, n),
             lambda q, n, method: structures.r_line(q, n, method=method)),
            ("square", {}, lambda a: {"n": a.n},
             lambda n: structures.squares(n), lambda n: structures.r_square(n)),
            ("corner", {}, lambda a: {"n": a.n},
             lambda n: structures.corners(n), lambda n: structures.r_corner(n)),
            ("grid", PRESETS["grid"], lambda a: {"p": a.p, "r": a.r, "k": a.k, "n": a.n},
             lambda p, r, k, n: structures.grids(FiniteField(p, r), k, n),
             lambda p, r, k, n: structures.r_grid(FiniteField(p, r), k, n))):
        f = families.add_parser(name, help=f"{name} family")
        _add_params(f, **flags)
        if name == "line":
            f.add_argument("--method", choices=("auto", "search", "closed-form"),
                           help="default: auto")
        f.add_argument("--n", type=int, required=True)
        f.add_argument("--wcnf", default=None,
                       help="write the instance as WCNF instead of solving")
        _add_cache_flags(f)
        f.set_defaults(func=cmd_density, params=params,
                       structure_family=structure_family, solve=solve)


# -- eqn -----------------------------------------------------------------------


def cmd_eqn(args) -> int:
    game, label, params = _preset_game(args)
    support, n = list(game.support), args.n
    family = forbidden.forbidden_family(support, n)
    if args.wcnf:  # the export is built within the enumeration budget, not solved
        return _write_wcnf(args, family)
    budget = DEFAULT_POINT_BUDGET if args.point_budget is None else args.point_budget
    # the cache key omits the budget, so refuse before the lookup: a record
    # stored under a larger --point-budget is not served under this one
    refuse_past_solver_budget(len(family), budget)

    def emit_witness(record: DensityRecord) -> None:
        payload = {
            "support": [list(x) for x in support],
            "n": n,
            "witness": sorted([list(map(int, w)) for w in (record.witness or [])]),
            "value": fraction_str(record.value),
        }
        with _open_output(args.emit_witness) as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)

    return _density_command(
        args, "eqn", dict(params, preset=label, n=n),
        lambda: family,
        lambda: forbidden.compute_eq(support, n, point_budget=budget),
        emit_witness if args.emit_witness else None)


# -- repeat ----------------------------------------------------------------------


def cmd_repeat(args) -> int:
    base, label, params = _load_game(args)
    game = repeat(base, args.n)
    payload = {
        "game": label,
        "params": params,
        "n": args.n,
        "players": base.k,
        "base_support": len(base.support),
        "support": len(game.support),
        "question_alphabets": [len(a) for a in game.question_alphabets],
        "answer_alphabets": [len(a) for a in game.answer_alphabets],
    }
    lines = [
        f"game:              {label} {params}",
        f"players:           {base.k}",
        f"rounds:            {args.n}",
        f"support:           {len(base.support)} -> {len(game.support)}",
        f"question tuples:   {[len(a) for a in game.question_alphabets]}",
        f"answer tuples:     {[len(a) for a in game.answer_alphabets]}",
    ]
    _emit(args, payload, lines)
    return 0


# -- verify ----------------------------------------------------------------------


def _value_below_one(game: Game, label: str, command: str, budget: int):
    """The base game's exact value, refused with PreconditionFailure when it
    is 1: a forbidden-free winning set, and so val(G^n) <= E_Q(n), needs a
    base value below 1."""
    base_val = exact_value(game, budget=budget)
    if base_val.value >= 1:
        raise PreconditionFailure(
            f"{command} needs a base game of value below 1; "
            f"{label} has value {fraction_str(base_val.value)}")
    return base_val


def _verify_report(args, name: str, rows: list[tuple[str, bool]]) -> int:
    ok = all(good for _, good in rows)
    lines = [("PASS " if good else "FAIL ") + text for text, good in rows]
    payload = {"check": name, "results": [
        {"case": text, "ok": good} for text, good in rows]}
    _emit(args, payload, lines)
    if not ok:
        raise VerifyFailure(f"{name}: {sum(not g for _, g in rows)} case(s) failed")
    return 0


def _dhj_case(args):
    """Support, n -> (family, point codes or None), case prefix and family
    word of verify dhj; lines need no codes (see structures)."""
    if args.q == 2:
        raise SchemaError(
            "verify dhj needs q = 1 or q >= 3: with two symbols every pair of "
            "distinct points is a forbidden configuration of the unit support, "
            "so E_Q(n) and r_line(2, n) differ")
    return (unit_tuples(args.q), lambda n: (structures.lines(args.q, n), None),
            f"dhj q={args.q}", "line")


def _grid_case(args):
    field = FiniteField(args.p, args.r)
    return (grid_question_set(field, args.k),
            lambda n: (structures.grids(field, args.k, n),
                       structures.grid_round_codes(field, args.k, n)),
            f"grid p={args.p} r={args.r} k={args.k}", "grid")


def _square_case(args):
    # squares are the grids of GF(2) with k = 2
    support, family_at, _, _ = _grid_case(argparse.Namespace(p=2, r=1, k=2))
    return support, family_at, "square", "square"


def cmd_verify_equivalence(args) -> int:
    """Solve E_Q(n) once per row.  The family's density is the same number
    when its point codes are a bijection onto the support's n-fold points
    that carries its configurations onto exactly the forbidden ones, which
    the row checks as equal edge sets."""
    support, family_at, prefix, word = args.case(args)
    rows = []
    for n in _parse_range(args.n):
        eq = fraction_str(forbidden.compute_eq(list(support), n).value)
        family, codes = family_at(n)
        codes = range(len(family)) if codes is None else codes
        target = forbidden.forbidden_family(support, n)
        carried = {tuple(sorted(codes[v] for v in cfg)) for cfg in family.configurations()}
        same = (sorted(codes) == list(range(len(target)))
                and carried == set(target.configurations()))
        rows.append((f"{prefix} n={n}: density {eq} vs {word} bound {eq}" if same else
                     f"{prefix} n={n}: the {word} configurations are not the forbidden ones",
                     same))
    return _verify_report(args, args.check, rows)


def cmd_val_bound(args) -> int:
    game, label, _ = _load_game(args)
    if len(set(game.weights)) != 1:
        raise SchemaError("val-bound needs a uniformly weighted support")
    base_val = _value_below_one(game, label, "val-bound", args.budget)
    rows = []
    for n in _parse_range(args.n):
        rep = repeat(game, n)
        val = exact_value(rep, budget=args.budget)
        eq = forbidden.compute_eq(list(game.support), n)
        indep = evaluate(rep, independent_strategy(base_val.strategy, n))
        ok = (base_val.value**n == indep <= val.value <= eq.value)
        rows.append((
            f"val-bound {label} n={n}: {fraction_str(base_val.value)}**{n} "
            f"<= {fraction_str(val.value)} <= {fraction_str(eq.value)}",
            ok))
    return _verify_report(args, "val-bound", rows)


def cmd_thm_answer_game(args) -> int:
    game, label, _ = _load_game(args)
    support, alphabets = game.support, game.question_alphabets
    span = _parse_range(args.n)
    if len(span) != 1:
        raise SchemaError("thm-answer-game verifies one round count at a time")
    n = span[0]
    eq = forbidden.compute_eq(list(support), n)
    witness = [tuple(w) for w in eq.witness]
    answer_game = forbidden.build_answer_game(alphabets, support, n, witness)
    rows = []
    single = exact_value(answer_game, budget=args.budget)
    rows.append((
        f"thm {label} n={n}: single-shot value {fraction_str(single.value)} < 1",
        single.value < 1))
    rep = repeat(answer_game, n)
    strat = forbidden.strategy_from_witness(support, n)
    lower = evaluate(rep, strat)
    rows.append((
        f"thm {label} n={n}: witness strategy attains {fraction_str(lower)} "
        f"= density {fraction_str(eq.value)}",
        lower == eq.value))
    rows.append((
        f"thm {label} n={n}: witness winning set is forbidden-free",
        forbidden.check_winning_set_free(rep, strat)))
    try:
        full = exact_value(rep, budget=args.budget)
        rows.append((
            f"thm {label} n={n}: full search value {fraction_str(full.value)} "
            f"= density {fraction_str(eq.value)}",
            full.value == eq.value))
    except BudgetExceededError:
        rows.append((
            f"thm {label} n={n}: full search skipped (budget); upper bound "
            "holds since winning sets of product strategies are "
            "forbidden-free", True))
    return _verify_report(args, "thm-answer-game", rows)


def _add_verify(sub) -> None:
    p = sub.add_parser("verify", help="re-derive density/value equivalences")
    checks = p.add_subparsers(dest="check", required=True)
    for name, flags, case in (
            ("dhj", {"q": 3}, _dhj_case),
            ("square", {}, _square_case),
            ("grid", PRESETS["grid"], _grid_case)):
        c = checks.add_parser(name, help="E_Q(n), with the matching family's configurations "
                                 "checked to be the forbidden ones")
        _add_params(c, **flags)
        c.set_defaults(func=cmd_verify_equivalence, case=case)
    for name, func in (("val-bound", cmd_val_bound),
                       ("thm-answer-game", cmd_thm_answer_game)):
        c = checks.add_parser(name, help="a repeated game's value against E_Q(n)")
        _add_game_source(c)
        c.add_argument("--budget", type=int, default=DEFAULT_STRATEGY_BUDGET)
        c.set_defaults(func=func)
    for c in checks.choices.values():
        c.add_argument("--n", default="1", help="round count or range like 1..2")
        _add_json_flag(c)


# -- fuzz ----------------------------------------------------------------------


def _random_strategy(domains: list[list], answers: list[list], rng: SplitMix64) -> Strategy:
    """Each player's table answers each question of their domain with an
    answer drawn by rng, players and questions in order."""
    return Strategy(tuple({q: alphabet[rng.below(len(alphabet))] for q in domain}
                          for domain, alphabet in zip(domains, answers)))


def cmd_fuzz(args) -> int:
    if args.trials < 0:
        raise SchemaError("trials must be >= 0")
    base, label, params = _load_game(args)
    _value_below_one(base, label, "fuzz-prop34", args.budget)
    game = repeat(base, args.n)
    domains = [game.question_domain(j) for j in range(game.k)]
    answers = list(map(list, game.answer_alphabets))
    root = SplitMix64(args.seed)
    violations = 0
    first_bad = None
    for trial in range(args.trials):
        rng = root.split()
        strategy = _random_strategy(domains, answers, rng)
        if not forbidden.check_winning_set_free(game, strategy):
            violations += 1
            if first_bad is None:
                first_bad = {"trial": trial,
                             "strategy": strategy_to_json(game, strategy)}
    payload = {
        "game": label,
        "params": params,
        "n": args.n,
        "seed": args.seed,
        "trials": args.trials,
        "violations": violations,
    }
    if first_bad is not None:
        payload["counterexample"] = first_bad
    lines = [
        f"game:        {label} {params}",
        f"rounds:      {args.n}",
        f"seed:        {args.seed}",
        f"trials:      {args.trials}",
        f"violations:  {violations}",
    ]
    _emit(args, payload, lines)
    return 0 if violations == 0 else 1


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="replab",
        description="exact game values, parallel repetition, and "
                    "forbidden-configuration densities")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("value", help="exact value of a (repeated) game")
    _add_game_source(p)
    p.add_argument("--repeat", type=int, default=1, help="repetition count")
    p.add_argument("--budget", type=int, default=DEFAULT_STRATEGY_BUDGET)
    _add_cache_flags(p)
    p.set_defaults(func=cmd_value)

    _add_density(sub)

    p = sub.add_parser("eqn", help="maximum forbidden-free density of a support")
    p.add_argument("--preset", required=True, choices=PRESETS)
    _add_params(p, **dict.fromkeys(PARAM_HELP))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--point-budget", type=int,
                   help=f"solver budget in points (default: {DEFAULT_POINT_BUDGET})")
    p.add_argument("--emit-witness", default=None, help="write the witness JSON here")
    p.add_argument("--wcnf", default=None,
                   help="write the instance as WCNF instead of solving")
    _add_cache_flags(p)
    p.set_defaults(func=cmd_eqn)

    p = sub.add_parser("repeat", help="summarise a repeated game")
    _add_game_source(p)
    p.add_argument("--n", type=int, required=True)
    _add_json_flag(p)
    p.set_defaults(func=cmd_repeat)

    _add_verify(sub)

    p = sub.add_parser("fuzz-prop34",
                       help="random product strategies; winning sets must be "
                            "forbidden-configuration-free")
    _add_game_source(p)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=DEFAULT_STRATEGY_BUDGET)
    _add_json_flag(p)
    p.set_defaults(func=cmd_fuzz)

    return parser


# The one parser every main() call in this process parses with: parse_args
# returns a fresh Namespace each time, and the parser holds only immutable
# defaults, so a request leaves nothing in it for the next one.  It binds
# each command's cmd_* function when it is built, on the first call.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _refuse_idle_flags(args)
        return args.func(args)
    except (SchemaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except PreconditionFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ReplabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
