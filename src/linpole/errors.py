"""Exception types shared across the package, the table of size limits and
the one routine that checks them, and the readers that turn a malformed
JSON payload or an over-long integer into an error."""

import contextlib
import json
import math


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


# Every size limit of the package, each checked before the work it bounds.
LIMITS = {
    "total degree": 65535,  # of a polynomial's monomial: a 16-bit slot
    "variable index": 1024,  # the last variable a polynomial holds
    "weight": 1024,  # of a fraction spec: the length of its word
    "generators": 4096,  # locality Lyndon words of one request
    "forest depth": 100,  # nodes on a path: the forest walks recurse per node
    "parentheses nesting": 100,  # five stack frames per level in the germ parser
    "constant bits": 1 << 22,  # log2 of a constant's numerator or denominator in a germ
    "integer digits": 4300,  # read or printed: CPython's, as int <-> text is quadratic
    "precision": 1000,  # decimal digits of an MZV
    "MZV work": 1_500_000_000,  # (n+1)^2 n_terms (precision+100) for an MZV of weight n
}
_PRINTABLE = 10 ** LIMITS["integer digits"]


def limit(name: str, value: int, what: str, error=BudgetExceeded) -> None:
    """Raise error("{what} {value} exceeds the limit {N}") if value passes
    N = LIMITS[name]; error is an exception type or a one-argument callable."""
    if value > LIMITS[name]:
        raise error(f"{what} {value} exceeds the limit {LIMITS[name]}")


def _integer_literal(digits: str) -> int:
    """int(digits), within the integer digits limit."""
    if len(digits) > LIMITS["integer digits"]:
        limit("integer digits", len(digits.lstrip("+-")), "integer literal digits")
    return int(digits)


def _printable(x):
    """A rational x, refused when its numerator or denominator would print
    more digits than the limit."""
    for n in (abs(x.numerator), x.denominator):
        if n >= _PRINTABLE:  # a float's log10 counts the digits but near a power of ten
            k = math.log10(n)
            digits = round(k) + (n >= 10 ** round(k)) if abs(k - round(k)) < 1e-9 else int(k) + 1
            limit("integer digits", digits, "printed integer digits")
    return x


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
        return json.loads(text, parse_int=_integer_literal)
    except RecursionError:
        raise LinpoleError(f"{what} JSON nested too deeply") from None
