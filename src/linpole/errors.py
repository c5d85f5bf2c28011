"""Exception types shared across the package, and the readers that turn a
malformed JSON payload into one."""

import contextlib
import json


class LinpoleError(Exception):
    """Base class for domain errors."""


class NotLocal(LinpoleError):
    """A locality-algebra operation was attempted on a non-local pair."""


class NotLocalSpec(LinpoleError):
    """A fraction spec violates the pairwise-locality constraint on its letters."""


class NonHomogeneousPole(LinpoleError):
    """A denominator factor is not a homogeneous linear form."""


class ParseError(LinpoleError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message, self.position = message, position


class EmptyWord(LinpoleError):
    """Operation undefined on the empty word."""


class WordEndsInX0(LinpoleError):
    """The word is outside the domain of the fraction map (trailing x0)."""


class ZeroCumulativeForm(LinpoleError):
    """A cumulative sum of assigned linear forms vanished."""


class DivergentIndex(LinpoleError):
    """A multiple zeta index with leading exponent 1 diverges."""


class TooManyVariables(LinpoleError):
    """Iterated evaluation over more variables than the permutation cap allows."""


class BudgetExceeded(LinpoleError):
    """The estimated work of a computation exceeds its fixed budget."""


class DependenceEscapesVars(LinpoleError):
    """The germ depends on directions outside the requested variable list."""


class EvaluatorDomain(LinpoleError):
    """The evaluator is not defined on the given input."""


class NotChen(LinpoleError):
    """Input is not presented over the Chen fraction alphabet."""


class IncompatibleGenerators(LinpoleError):
    """Transforms defined over different generator sets cannot be combined."""


@contextlib.contextmanager
def _payload_shape(what: str):
    """Report a missing key or a mistyped field of decoded JSON as LinpoleError."""
    try:
        yield
    except (AttributeError, KeyError, TypeError) as exc:
        raise LinpoleError(f"malformed {what} JSON ({type(exc).__name__}: {exc})") from exc


def _decode_json(text: str, what: str):
    """Decode a JSON payload; a document nested too deeply for the decoder
    raises LinpoleError, not RecursionError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise LinpoleError(f"{what} JSON nested too deeply") from None
