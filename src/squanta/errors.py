"""Exception hierarchy. Every validation failure carries a concrete witness."""


class SquantaError(Exception):
    """Base error; `witness` holds the offending tuple/element when available."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness

    def __str__(self):
        base = super().__str__()
        if self.witness is not None:
            return f"{base} [witness: {self.witness!r}]"
        return base


# -- structure validation ----------------------------------------------------

class NotAPartialOrder(SquantaError):
    pass


class NotAssociative(SquantaError):
    pass


class NotMonotone(SquantaError):
    pass


class UnitNotNeutral(SquantaError):
    pass


class UnknownElement(SquantaError):
    pass


class TooLarge(SquantaError):
    pass


# -- multiupsets / downsets --------------------------------------------------

class BaseMismatch(SquantaError):
    pass


class NotCDI(SquantaError):
    pass


class EmptyGeneratorSet(SquantaError):
    pass


class NotAHomomorphism(SquantaError):
    pass


# -- quantales / aqm / actions -----------------------------------------------

class LawViolated(SquantaError):
    def __init__(self, law, witness=None):
        super().__init__(f"law violated: {law}", witness)
        self.law = law


class NoProgress(SquantaError):  # an enumeration step did not advance
    pass


class FragmentExceeded(SquantaError):
    pass


class UnitNotEmbedding(SquantaError):
    pass


class NotDistributivelyGenerated(SquantaError):
    pass


# -- residuals / projectivity ------------------------------------------------

class NoResidual(SquantaError):
    pass


class NotDividing(SquantaError):
    pass


class NotStructural(SquantaError):
    pass


class IllDefined(SquantaError):
    pass


class NotProjective(SquantaError):
    pass


class NoLift(SquantaError):
    pass


# -- workspace / cli ---------------------------------------------------------

class ParseError(SquantaError):
    pass


class DanglingReference(SquantaError):
    pass


class DuplicateName(SquantaError):
    pass
