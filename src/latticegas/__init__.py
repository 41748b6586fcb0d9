"""Exact-arithmetic toolkit for the hard-core lattice gas on Z^3.

Dense packings of hard spheres with squared exclusion distance d2 are
studied through four lenses: repelling-force tables proving that perfect
configurations are exactly the densest ones, explicit periodic families
and their censuses, the energy accounting of local excitations over a
perfect background, and the symmetry classification of the cubic
sublattices behind the close-packing thresholds. All arithmetic is exact
(integers and fractions); no floats anywhere.
"""

__version__ = "0.1.0"

from .lattice import (  # noqa: E402
    ORIGIN,
    Site,
    SignedPermutation,
    ball_sites,
    is_admissible,
    oh_elements,
    rotation_elements,
    sq_dist,
)
from .forces import (  # noqa: E402
    BALL_RADIUS_SQ,
    SUPPORTED_D2,
    BallSearchReport,
    ForceTable,
    UnsupportedThresholdError,
    enumerate_ball_acs,
    force_table,
    normalization_constant,
    peierls_gap,
    verify_forces,
)
from .configs import (  # noqa: E402
    PeriodicConfiguration,
    canonicalize,
    density,
    hnf,
    is_admissible_config,
    is_perfect,
    is_saturated,
    make_config,
    shift_count,
)
from .families import (  # noqa: E402
    COUNTABLE_MARKER,
    build_bcc,
    build_cubic,
    build_d4_family,
    build_fcc,
    build_layered_2l2,
    build_layered_d5,
    build_layered_d6_rhombic,
    build_layered_d6_tri,
    build_phi9,
    build_phi10,
    census_marker,
    densest_density,
    hcp_census,
    pc_census,
    sliding_witness,
)
from .excitations import (  # noqa: E402
    ExcitationReport,
    InsertionSet,
    InsertionType,
    RemovalSet,
    WindowCensus,
    classify_insertion,
    excitation_report,
    gamma1,
    gamma2,
    iia_census,
    make_insertion,
    peierls_check,
    reduce_insertions,
    repelled_set,
    window_census,
)
from .sublattices import (  # noqa: E402
    FccCensus,
    Quaternion,
    SublatticeClass,
    ClassCountComparison,
    classify_classes,
    class_size_histogram,
    compare_class_counts,
    enumerate_cubic_sublattices,
    euler_rodrigues,
    fcc_census,
    fcc_from_cubic,
    is_cubic_basis,
    predicted_class_bases,
    quadruples,
    r3_brute,
    r3_formula,
    s2,
    s2_hat,
    s2_tilde,
)
from .reporting import (  # noqa: E402
    ReportEnvelope,
    frac_str,
    table_densities,
)
