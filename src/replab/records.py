"""Result records shared by the density and game-value pipelines."""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

from .errors import SchemaError
from .games import strategy_from_json


def fraction_str(f: Fraction) -> str:
    """Lowest-terms num/den rendering; integers keep an explicit /1."""
    return f"{f.numerator}/{f.denominator}"


@contextmanager
def _parsing(kind: str):
    """Report a stored record's missing field or unparsable value as
    SchemaError."""
    try:
        yield
    except KeyError as exc:
        raise SchemaError(f"{kind} record lacks field {exc}") from exc
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"{kind} record has an unparsable field: {exc}") from exc


@dataclass
class DensityRecord:
    """Outcome of one extremal-density computation.

    family/params identify the instance; value is the exact density
    witness_size / universe_size; witness is the extremal point set in the
    family's native point representation, or None when it was deliberately
    not materialised (closed-form evaluations at large n).  method records
    how the value was obtained: "exact-bb" for the internal branch and
    bound, "closed-form" for formula evaluations.
    """

    family: str
    params: dict
    value: Fraction
    witness_size: int
    universe_size: int
    witness: list | None
    method: str

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "params": self.params,
            "value": fraction_str(self.value),
            "witness_size": self.witness_size,
            "universe_size": self.universe_size,
            "witness": self.witness,
            "method": self.method,
        }

    @staticmethod
    def from_json(doc: dict) -> "DensityRecord":
        with _parsing("density"):
            witness = doc["witness"]
            if witness is not None and not (
                    isinstance(witness, list)
                    and all(isinstance(p, (list, tuple)) for p in witness)):
                raise SchemaError(
                    f"density record witness is neither null nor a list of lists: {witness!r}")
            return DensityRecord(
                family=doc["family"],
                params=dict(doc["params"]),
                value=Fraction(doc["value"]),
                witness_size=int(doc["witness_size"]),
                universe_size=int(doc["universe_size"]),
                witness=witness,
                method=doc["method"],
            )

    def report_lines(self) -> list[str]:
        """Human-readable summary; identical records print identical
        reports."""
        lines = [
            f"family:        {self.family}",
            f"params:        {_stable_params(self.params)}",
            f"value:         {fraction_str(self.value)}",
            f"witness size:  {self.witness_size} of {self.universe_size}",
            f"method:        {self.method}",
        ]
        if self.witness is not None:
            lines.append(f"witness:       {self.witness}")
        return lines


def _stable_params(params: dict) -> str:
    return ", ".join(f"{k}={params[k]}" for k in sorted(params))


@dataclass
class ValueRecord:
    """Outcome of one exact game-value computation."""

    game: str
    params: dict
    value: Fraction
    strategy: dict | None
    method: str

    def to_json(self) -> dict:
        return {
            "game": self.game,
            "params": self.params,
            "value": fraction_str(self.value),
            "strategy": self.strategy,
            "method": self.method,
        }

    @staticmethod
    def from_json(doc: dict) -> "ValueRecord":
        with _parsing("value"):
            strategy = doc.get("strategy")
            if strategy is not None:
                strategy_from_json(strategy)  # raises SchemaError on a wrong shape
            return ValueRecord(
                game=doc["game"],
                params=dict(doc["params"]),
                value=Fraction(doc["value"]),
                strategy=strategy,
                method=doc["method"],
            )

    def report_lines(self) -> list[str]:
        return [
            f"game:          {self.game}",
            f"params:        {_stable_params(self.params)}",
            f"value:         {fraction_str(self.value)}",
            f"method:        {self.method}",
        ]
