"""Finite-scale constructions and verifiers for symbolic dynamics on
discrete groups: separated sets, gluing checks, marker densification,
small-set shattering, equivariant stamps, and separated covering
witnesses — every headline construction paired with an independent
re-check that can be emitted as a replayable certificate.
"""

from .certificates import (
    CertificateError,
    RunManifest,
    canonical_json,
    known_claims,
    load_certificate,
    load_manifest,
    make_envelope,
    verify_envelope,
    write_certificate,
    write_manifest,
)
from .configurations import (
    Configuration,
    FreeDensePoint,
    free_dense_point,
    indicator_configuration,
    mapping_configuration,
    minimal_point_in_cylinder,
    periodic_configuration,
)
from .constructions import (
    ConstructionError,
    GammaSystem,
    PhiSystem,
    ShatterResult,
    SmallnessRejected,
    build_phi,
    canonical_marker_point,
    freeness_envelope,
    gamma_densify,
    gamma_point,
    least_periodic_point,
    pad_free,
    phi_point,
    product_spec,
    shatter_small,
    verify_phi,
)
from .corpus import (
    BUILTIN_FACTOR_NAMES,
    BUILTIN_NAMES,
    builtin_factor,
    builtin_spec,
    load_spec,
)
from .groups import (
    FiniteSubset,
    GroupContext,
    GroupParseError,
    is_separated,
    is_small,
    maximal_separated,
    parse_group,
    parse_subset,
    separation_conflict,
    set_inv,
    set_mul,
    set_pow,
    symmetric_closure,
    syndeticity_witness,
)
from .irreducibility import (
    GluingError,
    IrreducibilityReport,
    WitnessSearch,
    check_irreducible,
    conf,
    irreducibility_envelope,
    irreducibility_witness_search,
    is_admissible,
    max_separated_subshift,
)
from .scp import (
    JointRealization,
    ScpWitness,
    coverage_gap,
    disjointness_window_check,
    joint_realize,
    lift_scp_witness,
    scp_witness,
    verify_scp_witness,
)
from .subshifts import (
    EXACT,
    BlockMap,
    ImageSpec,
    Pattern,
    Semantics,
    SftSpec,
    SubshiftError,
    SubstitutionSpec,
    essential_freeness_check,
    is_minimal_at,
    level_pattern_list,
    local,
    parse_semantics,
    pattern_set,
    sorted_patterns,
    window_patterns,
)

__version__ = "0.1.0"
