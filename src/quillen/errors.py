"""Exception types raised by the library.

Each name states the violated precondition.  Errors carry a short message
with the offending data where that is cheap to include.
"""


class QuillenError(Exception):
    pass


# group construction / parsing

class NonPermutationGenerator(QuillenError):
    """A generator is not a bijection on the stated points."""


class OrderCapExceeded(QuillenError):
    """Group enumeration passed the configured order cap."""


class MalformedSpec(QuillenError):
    """A group spec file is syntactically or semantically invalid."""


class NotAnElement(QuillenError):
    """A permutation row is not an element of the enumerated group."""


class SubgroupNotContained(QuillenError):
    """Claimed subgroup has a member outside the ambient group."""


class NotPrime(QuillenError):
    pass


class ActorDoesNotNormalize(QuillenError):
    """Conjugation action requested for an actor that does not normalize the target."""


class ComponentsUndetectable(QuillenError):
    """Component detection failed verification and no declared components were given."""


class EnumerationCapExceeded(QuillenError):
    """Subgroup enumeration passed the configured count cap."""


# posets and complexes

class NotAntisymmetric(QuillenError):
    pass


class NotTransitiveAfterClosure(QuillenError):
    pass


class SimplexCapExceeded(QuillenError):
    """Order complex enumeration passed the configured simplex cap."""


class NotAnActionByAutomorphisms(QuillenError):
    """A claimed poset action fails bijectivity or order preservation."""


class NotOrderPreserving(QuillenError):
    """A claimed poset map sends some x <= y to incomparable images."""


class ParentMismatch(QuillenError):
    """Operands live in different ambient groups or posets."""


class IndexOutOfRange(QuillenError):
    pass


# homology

class MatrixCapExceeded(QuillenError):
    """Exact elimination passed the configured work cap."""


class InvariantViolated(QuillenError):
    """An exact self-check failed: a bug, never a property of the input."""


# paper-specific constructions

class CenterHasPTorsion(QuillenError):
    """Image poset construction requires p not dividing |Z(L)|."""


class EmptyFactor(QuillenError):
    """A join factor that must be nonempty is empty."""


class VariantUnavailable(QuillenError):
    """Requested checker variant needs data that was not supplied."""


class WrongArity(QuillenError):
    pass


class NotHyperelementary(QuillenError):
    """The acting subgroup is not q-hyperelementary."""
