"""Exception hierarchy shared by all modules."""


class TwistedZetaError(Exception):
    """Base class for all errors raised by this package."""


# -- group construction ------------------------------------------------------

class NotAPermutation(TwistedZetaError):
    pass


class ClosureTooLarge(TwistedZetaError):
    pass


class NotAHomomorphism(TwistedZetaError):
    pass


# -- integer linear algebra --------------------------------------------------

class NotSquare(TwistedZetaError):
    pass


class BadIndex(TwistedZetaError):
    pass


class EigenvalueOnBoundary(TwistedZetaError):
    """An eigenvalue of the lattice matrix equals +1 or -1.

    Some iterate then has infinitely many twisted conjugacy classes, so the
    quantities built downstream (zeta function, sign constants) do not exist.
    """


# -- Reidemeister engines ----------------------------------------------------

class InfiniteReidemeister(TwistedZetaError):
    """det(I - M^n) = 0 for some relevant n: the class count is infinite."""

    def __init__(self, message, n=None):
        super().__init__(message)
        self.n = n


# -- zeta / torsion ----------------------------------------------------------

class NotConstant(TwistedZetaError):
    pass


class PoleAtEvaluation(TwistedZetaError):
    pass


class NonInvertible(TwistedZetaError):
    pass


class OracleDisagreement(TwistedZetaError):
    """The count sequence cannot come from an integer zeta function.

    exp(sum_n R_n/n z^n) has a non-integral coefficient at z^n, so the
    counts break the Dold congruences and the routes disagree.  ``counts``
    holds R_1..R_n.
    """

    def __init__(self, message, n=None, counts=()):
        super().__init__(message)
        self.n = n
        self.counts = tuple(counts)


# -- problem documents -------------------------------------------------------

class SchemaError(TwistedZetaError):
    pass


class ValidationError(TwistedZetaError):
    pass
