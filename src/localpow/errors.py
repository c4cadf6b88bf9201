"""Exception types shared across the package.

Every error carries a machine-readable payload so the CLI can emit it as JSON
without string parsing.  DomainError subclasses map to exit code 2;
FunctionSpecError maps to exit code 65.
"""


class LocalPowError(Exception):
    code = "error"

    def __init__(self, message, **details):
        super().__init__(message)
        self.message = message
        self.details = details

    def payload(self):
        out = {"type": self.code, "message": self.message}
        out.update(self.details)
        return out


class DomainError(LocalPowError):
    code = "domain-error"


class ZeroValueError(DomainError):
    """0 has no factored form (and multiplicative maps never produce it)."""

    code = "zero-value"


class CompositeCofactorError(DomainError):
    """Trial division left a composite cofactor at the configured bound."""

    code = "composite-cofactor"


class NotPrimeError(DomainError):
    code = "not-prime"


class NonUnitError(DomainError):
    """Value is not a p-adic unit (ord_p != 0, or residue 0 mod p)."""

    code = "non-unit"


class CongruenceClassError(DomainError):
    """Prime is in the wrong residue class (needs p = 1 mod ell)."""

    code = "wrong-congruence-class"


class EqualPrimeError(DomainError):
    """p = ell is excluded from ell-th power class computations."""

    code = "p-equals-ell"


class RamifiedPrimeError(DomainError):
    code = "ramified-prime"


class OddPrimeRequiredError(DomainError):
    code = "odd-prime-required"


class EmptyTupleError(DomainError):
    code = "empty-tuple"


class WrongLengthError(DomainError):
    code = "wrong-length"


class EnumerationBoundError(DomainError):
    code = "enumeration-bound"


class ExactRangeError(DomainError):
    """Exact big-integer mode was requested beyond its supported range."""

    code = "exact-range"


class WitnessSearchExhausted(DomainError):
    code = "witness-search-exhausted"


class NonIntegralValueError(DomainError):
    code = "non-integral-value"


class ScheduleDomainError(DomainError):
    """Iterated logarithm undefined; carries the minimal admissible x."""

    code = "schedule-domain"


class ConfigError(DomainError):
    code = "bad-config"


class CacheLimitError(DomainError):
    """A scan asked for primes beyond the supplied cache's limit."""

    code = "prime-cache-too-small"


class FunctionSpecError(LocalPowError):
    """Malformed function-spec JSON (CLI exit code 65)."""

    code = "malformed-function-spec"
