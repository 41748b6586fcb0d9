"""Exact-arithmetic toolkit for the hard-core lattice gas on Z^3.

Dense packings of hard spheres with squared exclusion distance d2 are
studied through four lenses: repelling-force tables proving that perfect
configurations are exactly the densest ones, explicit periodic families
and their censuses, the energy accounting of local excitations over a
perfect background, and the symmetry classification of the cubic
sublattices behind the close-packing thresholds. All arithmetic is exact
(integers and fractions); no floats anywhere.

The names bound here are the Public API list of the README; every other
name is reached through its module and may change.
"""

__version__ = "0.1.0"

from .forces import (  # noqa: E402
    SUPPORTED_D2,
    enumerate_ball_acs,
    force_table,
    normalization_constant,
    verify_forces,
)
from .configs import (  # noqa: E402
    density,
    is_admissible_config,
    is_perfect,
    is_saturated,
    make_config,
    shift_count,
)
from .families import (  # noqa: E402
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
    hcp_census,
    pc_census,
    sliding_witness,
)
from .excitations import (  # noqa: E402
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
    Quaternion,
    class_size_histogram,
    classify_classes,
    compare_class_counts,
    enumerate_cubic_sublattices,
    euler_rodrigues,
    fcc_census,
    quadruples,
    r3_formula,
)
