"""Twisted conjugacy counts, zeta functions in rational form, Fox-calculus
radius bounds, and mapping-torus torsion special values, each closed formula
paired with an independent brute-force oracle."""

from .errors import (
    BadIndex,
    ClosureTooLarge,
    EigenvalueOnBoundary,
    InfiniteReidemeister,
    NonInvertible,
    NotAHomomorphism,
    NotAPermutation,
    NotConstant,
    NotSquare,
    OracleDisagreement,
    PoleAtEvaluation,
    SchemaError,
    TwistedZetaError,
    ValidationError,
)
from .fox import (
    FreeGroupEndo,
    GroupRingElement,
    GroupRingMatrix,
    chain_radius_bounds,
    fox_derivative,
    free_reduce,
    jacobian,
    matrix_norm,
    matrix_of_norms,
    nielsen_radius_bounds,
    parse_word,
    power_image_lengths,
    ring_norm,
    spectral_radius,
    twisted_power_norm,
    twisted_power_norms,
    word_to_str,
)
from .groups import (
    ConjugacyPartition,
    FiniteGroup,
    GroupEndomorphism,
    endo_from_generator_images,
    eventual_image,
    group_from_permutations,
    identity_endo,
    iterate_endo,
    ordinary_conjugacy_classes,
    phi_conjugacy_classes,
    trivial_group,
)
from .intlinalg import (
    IntMatrix,
    IntPolynomial,
    char_poly,
    count_eigen_signs,
    det,
    exterior_power,
    kron,
    mat_pow,
    smith_normal_form,
)
from .reidemeister import (
    ProductEndomorphism,
    class_function_matrix,
    r_abelian,
    r_abelian_smith,
    r_abelian_trace,
    r_finite,
    r_product,
    r_product_counts,
    r_product_oracle,
    r_product_oracles,
    r_product_trace,
    r_product_traces,
)
from .zeta import (
    FactoredRationalFunction,
    SignConvention,
    TruncatedSeries,
    congruence_check,
    dual_lefschetz_zeta,
    expand_rational,
    functional_equation_check,
    mobius,
    torsion_special_value,
    torsion_via_lefschetz,
    zeta_product,
    zeta_series_oracle,
)

__version__ = "0.1.0"
