"""The four benchmark workloads: their inputs, their ops and the digests
that are compared with the pinned golden outputs.

An op is one timed call into replab.  Its digest is a small JSON-able dict
(exact value plus a sha256 of the lex-first witness, or exit code plus
stdout) that must equal the entry of golden.json under the op's key.  Every
workload is a closed loop with a single client: ops run one after another in
this process, each starting when the previous one has returned.

Inputs depend only on the workload seed.  The seed shuffles the op order in
every workload, draws the random product strategies of repeat-walk and the
fuzz seeds of cli-session.  Library calls receive only the inputs built
here, and they are looked up as module attributes at call time, so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from replab import cli, forbidden, games, repetition, structures
from replab.fields import FiniteField
from replab.rng import SplitMix64

# fuzz-prop34 seeds with pinned outputs; each workload seed picks two
FUZZ_SEEDS = (11, 23, 37, 41, 53, 67, 79, 97)
FUZZ_PER_PASS = 2
RANDOM_STRATEGIES_PER_GAME = 2


@dataclass
class Op:
    """One timed call.  run() is timed; digest(result) is compared with the
    golden entry under key.  kind is "hit" or "miss" for cached CLI requests
    and None otherwise."""

    key: str
    run: Callable[[], Any]
    digest: Callable[[Any], dict]
    kind: str | None = None


class Workload:
    """A seeded list of ops, replayed in every pass (repeat-walk redraws
    its random strategies before each one)."""

    def __init__(self, name: str, ops: list[Op]):
        self.name = name
        self.ops = ops

    def begin_pass(self) -> None:
        pass

    def end_pass(self) -> dict:
        """Deterministic per-pass facts gathered after the pass ends."""
        return {}

    def close(self) -> None:
        pass


def _sha(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _shuffled(items: list, rng: SplitMix64) -> list:
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = rng.below(i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def _value_digest(game):
    def digest(result) -> dict:
        return {"value": str(result.value),
                "witness_sha256": _sha(games.strategy_to_json(game, result.strategy))}
    return digest


def _record_digest(record) -> dict:
    doc = {k: v for k, v in record.to_json().items() if k != "timestamp"}
    return {"value": doc["value"], "witness_sha256": _sha(doc)}


def _exact_value_op(key: str, game) -> Op:
    return Op(key, lambda: games.exact_value(game), _value_digest(game))


# -- value ---------------------------------------------------------------------


def _answer_game(alphabets, support, n: int):
    """Single-shot answer game over the lex-first extremal free set of the
    n-fold support, as in the answer-game theorem."""
    record = forbidden.compute_eq(list(support), n)
    return forbidden.build_answer_game(alphabets, support, n,
                                       [tuple(w) for w in record.witness])


def build_value(seed: int) -> Workload:
    anticorr = {q: games.preset_game("anticorr", q=q) for q in (3, 4, 5)}
    ops = [_exact_value_op(f"value:anticorr({q})", g) for q, g in anticorr.items()]
    ops.append(_exact_value_op("value:repeat(anticorr(3),2)",
                               repetition.repeat(anticorr[3], 2)))
    ops.append(_exact_value_op("value:answer-game(unitvec(3),n=2)", _answer_game(
        ((0, 1),) * 3, games.unit_tuples(3), 2)))
    ops.append(_exact_value_op("value:answer-game(ghz,n=2)", _answer_game(
        ((0, 1),) * 3, structures.ghz_support(), 2)))
    return Workload("value", _shuffled(ops, SplitMix64(seed)))


# -- density -------------------------------------------------------------------


def build_density(seed: int) -> Workload:
    gf = {(p, r): FiniteField(p, r) for p, r in ((2, 1), (3, 1), (5, 1), (2, 2))}
    eq_inputs = {
        "compute_eq(unitvec(3),3)": (games.unit_tuples(3), 3),
        "compute_eq(ghz,2)": (structures.ghz_support(), 2),
        "compute_eq(unitvec(4),3)": (games.unit_tuples(4), 3),
        "compute_eq(grid(GF3,k=2),2)": (structures.grid_question_set(gf[3, 1], 2), 2),
    }
    calls: dict[str, Callable[[], Any]] = {}
    for label, (support, n) in eq_inputs.items():
        calls[label] = (lambda s=list(support), n=n: forbidden.compute_eq(s, n))
    calls.update({
        "r_line(3,3)": lambda: structures.r_line(3, 3),
        'r_line(2,5,"search")': lambda: structures.r_line(2, 5, "search"),
        "r_square(2)": lambda: structures.r_square(2),
        "r_corner(2)": lambda: structures.r_corner(2),
        "r_grid(GF3,1,3)": lambda: structures.r_grid(gf[3, 1], 1, 3),
        "r_grid(GF2,1,6)": lambda: structures.r_grid(gf[2, 1], 1, 6),
        "r_grid(GF5,1,2)": lambda: structures.r_grid(gf[5, 1], 1, 2),
        "r_grid(GF4,2,1)": lambda: structures.r_grid(gf[2, 2], 2, 1),
    })
    ops = [Op(f"density:{label}", call, _record_digest) for label, call in calls.items()]
    return Workload("density", _shuffled(ops, SplitMix64(seed)))


# -- repeat-walk ---------------------------------------------------------------


def _base_strategies(game) -> list:
    """Every deterministic strategy of a base game, in table order."""
    per_player = []
    for j in range(game.k):
        domain = game.question_domain(j)
        per_player.append([dict(zip(domain, answers)) for answers in
                           itertools.product(game.answer_alphabets[j], repeat=len(domain))])
    return [games.Strategy.from_tables(t) for t in itertools.product(*per_player)]


def _product_strategy(rounds: list, domains: list) -> games.Strategy:
    """Play rounds[i] in round i: the answer to a question tuple is the
    tuple of per-round answers."""
    tables = []
    for j, domain in enumerate(domains):
        tables.append({xs: tuple(s.tables[j][x] for s, x in zip(rounds, xs))
                       for xs in itertools.product(domain, repeat=len(rounds))})
    return games.Strategy(tuple(tables))


class RepeatWalk(Workload):
    """Fixed walks plus random product strategies on repeat(anticorr(3), n).

    Every pass draws fresh random strategies from the seed's stream: their
    find_forbidden cost differs from draw to draw, and a run's median pass
    then rests on several draws rather than on one seed's luck.  Rounds are
    drawn among the optimal base strategies, so each product strategy wins
    on exactly 2**n points and every count stays the same from pass to pass.
    """

    def __init__(self, seed: int):
        self.rng = SplitMix64(seed)
        base = games.preset_game("anticorr", q=3)
        self.domains = [base.question_domain(j) for j in range(base.k)]
        scored = [(games.evaluate(base, s), s) for s in _base_strategies(base)]
        top = max(v for v, _ in scored)
        self.optimal = [s for v, s in scored if v == top]
        self.repeated = {n: repetition.repeat(base, n) for n in (6, 7)}
        self.fixed = []
        for n, game in self.repeated.items():
            indep = repetition.independent_strategy(games.exact_value(base).strategy, n)
            self.fixed.append(Op(f"repeat-walk:evaluate(independent,n={n})",
                                 lambda g=game, s=indep: games.evaluate(g, s), _plain_value))
        for p, n in ((2, 6), (3, 4)):
            game = repetition.repeat(games.preset_game("grid", p=p, k=2), n)
            self.fixed.append(_exact_value_op(
                f"repeat-walk:exact_value(repeat(grid(p={p},k=2),{n}))", game))
        super().__init__("repeat-walk", [])

    def begin_pass(self) -> None:
        ops = list(self.fixed)
        for n, game in self.repeated.items():
            for _ in range(RANDOM_STRATEGIES_PER_GAME):
                strat = _product_strategy([self.rng.choice(self.optimal) for _ in range(n)],
                                          self.domains)
                ops.append(Op(f"repeat-walk:evaluate(random,n={n})",
                              lambda g=game, s=strat: games.evaluate(g, s), _plain_value))
                ops.append(Op(f"repeat-walk:check_winning_set_free(random,n={n})",
                              lambda g=game, s=strat: forbidden.check_winning_set_free(g, s),
                              lambda free: {"free": free}))
        self.ops = _shuffled(ops, self.rng)


def _plain_value(value) -> dict:
    return {"value": str(value)}


# -- cli-session ---------------------------------------------------------------

# Distinct cached queries; each is issued once as a miss and then as hits.
CACHED_QUERIES = (
    "value --preset anticorr --q 2",
    "value --preset anticorr --q 3",
    "value --preset anticorr --q 4",
    "value --preset anticorr --q 5",
    "value --preset unitvec --q 3",
    "value --preset ghz",
    "value --preset ghz --repeat 2",
    "value --preset grid --p 2 --k 2 --repeat 3",
    "value --preset grid --p 3 --k 2",
    "eqn --preset unitvec --q 3 --n 1",
    "eqn --preset unitvec --q 3 --n 2",
    "eqn --preset unitvec --q 3 --n 3",
    "eqn --preset anticorr --q 3 --n 2",
    "eqn --preset unitvec --q 4 --n 2",
    "eqn --preset ghz --n 1",
    "eqn --preset ghz --n 2",
    "eqn --preset grid --p 3 --k 2 --n 1",
    "density line --q 3 --n 2",
    "density line --q 3 --n 3",
    "density line --q 2 --n 4",
    "density line --q 2 --n 5 --method search",
    "density line --q 2 --n 7 --method closed-form",
    "density square --n 1",
    "density square --n 2",
    "density corner --n 2",
    "density grid --p 3 --k 1 --n 2",
    "density grid --p 5 --k 1 --n 1",
    "density grid --p 2 --r 2 --k 2 --n 1",
)
HIT_FLAGS = ((), ("--json",), ("--recheck",))
UNCACHED_REQUESTS = (
    "verify dhj",
    "verify square",
    "verify grid",
    "verify thm-answer-game --preset unitvec --q 3 --n 1",
)


def fuzz_request(fuzz_seed: int) -> str:
    return f"fuzz-prop34 --preset anticorr --q 3 --n 3 --trials 60 --seed {fuzz_seed}"


def cli_key(request: str, kind: str | None) -> str:
    return f"cli:{request}" + (f" [{kind}]" if kind else "")


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process request: exit code and captured stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def cli_digest(result) -> dict:
    code, stdout = result
    return {"exit": code, "stdout": stdout}


class CliSession(Workload):
    """In-process CLI requests against a fresh cache directory per pass."""

    def __init__(self, requests: list[tuple[str, tuple[str, ...]]], work_dir: Path):
        self.cache_dir = work_dir / "cache"
        ops, seen = [], set()
        for query, flags in requests:
            words = query.split() + list(flags)
            argv, kind = words, None
            if query in CACHED_QUERIES:
                kind = "hit" if query in seen else "miss"
                seen.add(query)
                argv = words + ["--cache-dir", str(self.cache_dir)]
            ops.append(Op(cli_key(" ".join(words), kind), lambda a=argv: run_cli(a),
                          cli_digest, kind))
        super().__init__("cli-session", ops)

    def begin_pass(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.cache_dir.mkdir(parents=True)

    def end_pass(self) -> dict:
        size = sum(p.stat().st_size for p in self.cache_dir.rglob("*") if p.is_file())
        return {"cache.bytes": size}

    def close(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)


def cli_requests(seed: int) -> list[tuple[str, tuple[str, ...]]]:
    rng = SplitMix64(seed)
    requests = [(q, ()) for q in CACHED_QUERIES]
    requests += [(q, flags) for q in CACHED_QUERIES for flags in HIT_FLAGS]
    requests += [(r, ()) for r in UNCACHED_REQUESTS]
    fuzz = _shuffled(list(FUZZ_SEEDS), rng)[:FUZZ_PER_PASS]
    requests += [(fuzz_request(s), ()) for s in fuzz]
    return _shuffled(requests, rng)


def build_cli_session(seed: int, work_dir: Path) -> Workload:
    return CliSession(cli_requests(seed), work_dir)


def build(name: str, seed: int, work_dir: Path) -> Workload:
    if name == "value":
        return build_value(seed)
    if name == "density":
        return build_density(seed)
    if name == "repeat-walk":
        return RepeatWalk(seed)
    if name == "cli-session":
        return build_cli_session(seed, work_dir)
    raise ValueError(f"unknown workload {name!r}")
