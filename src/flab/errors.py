"""Exception types shared across the package."""


class FlabError(Exception):
    """Base class for all library errors."""


class SpecParseError(FlabError, ValueError):
    """A group or formation expression could not be parsed."""


class CapExceeded(FlabError):
    """A configured size cap (order, element count, budget) was exceeded."""


class OrderCapExceeded(CapExceeded):
    """A group spec names a group above the order cap: bad input, not a computation limit."""


class OracleCapExceeded(CapExceeded):
    """The centrality oracle would need the product of a non-abelian chief factor; none is built."""


class LatticeBudgetExceeded(CapExceeded):
    """Subgroup enumeration exceeded its work budget."""


class NotASubgroup(FlabError, ValueError):
    """An operand was not a subgroup of the expected ambient group."""


class NotNormal(FlabError, ValueError):
    """A quotient or factor was requested along a non-normal subgroup."""


class ActionError(SpecParseError):
    """A semidirect-product action is not a homomorphism into Aut(N)."""


class LocalDefinitionUnavailable(FlabError):
    """The requested class has no supported local membership test."""


class InternalCheckFailure(FlabError):
    """A self-verification step failed; indicates a library bug."""
