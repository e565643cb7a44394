"""Frobenius splitting numbers, F-signature estimates, and semicontinuity probes.

Exact computations for quotients R = S/I of polynomial rings over F_p or
F_p(t1, ..., tm): normalized splitting numbers s_e as rationals, splitting
numbers a_e, Gorenstein-route cross-checks, localization at coordinate
primes, and finite-sample verification of semicontinuity behavior.
"""

from .artinian import (
    is_artinian,
    krull_dimension,
    length,
    standard_monomials,
)
from .errors import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    CostGuardExceeded,
    DivisionByZero,
    DuplicateVariable,
    ExponentOverflow,
    FieldMismatch,
    FsplitError,
    InternalInconsistency,
    InvalidSocle,
    MissingFlag,
    NonPrimeCharacteristic,
    NotArtinian,
    NotContaining,
    NotGorenstein,
    NotHomogeneous,
    ParseError,
    RingMismatch,
    ZeroDivisorColon,
)
from .fields import (
    FieldDescriptor,
    PrimeField,
    RatFunc,
    RationalFunctionField,
)
from .groebner import (
    ReducedGB,
    buchberger,
    ideal_member,
    normal_form,
    s_polynomial,
    validate_reduced_gb,
)
from .ideals import (
    colon_ideal,
    frobenius_power,
    ideal_sum,
    intersect,
)
from .localization import (
    CoordinatePrime,
    PrimeChain,
    SemicontinuityReport,
    localize_at_coordinate_prime,
    s_e_at_prime,
    semicontinuity_scan,
)
from .oracle import oracle_dual_splitting_length, oracle_length_mod_bracket
from .poly import (
    GREVLEX,
    LEX,
    IdealPresentation,
    MonomialOrder,
    Polynomial,
    Ring,
)
from .ringspec import RingSpec, parse_polynomial, parse_ring_spec
from .splitting import (
    SignatureEstimate,
    SplittingReport,
    f_signature_sequence,
    gorenstein_splitting_number,
    hypersurface_is_fpure,
    normalized_splitting_number,
    socle_generator,
    splitting_ideal,
)

__version__ = "0.1.0"
