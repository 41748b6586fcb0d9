"""Exact-arithmetic toolkit for the hard-core lattice gas on Z^3.

Dense packings of hard spheres with squared exclusion distance d2 are
studied through four lenses: repelling-force tables proving that perfect
configurations are exactly the densest ones, explicit periodic families
and their censuses, the energy accounting of local excitations over a
perfect background, and the symmetry classification of the cubic
sublattices behind the close-packing thresholds. All arithmetic is exact
(integers and fractions); no floats anywhere.

The names of the README's Public API list are bound on first use: `import
latticegas` loads none of the modules, and reading one of the names loads
only the module that defines it and what that module imports (PEP 562).
Every other name is reached through its module and may change.
"""

import importlib

__version__ = "0.1.0"


def _lazy(namespace: dict, homes: dict[str, tuple[str, ...]]):
    """The PEP 562 `__getattr__` and `__dir__` of a module whose names
    `homes` lists by the package module that defines them: a name is looked
    up there on first access and then bound in `namespace`, so a later read,
    or a patch of the attribute, finds it as an ordinary global."""
    home = {name: module for module, names in homes.items() for name in names}

    def __getattr__(name: str):
        if name not in home:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        namespace[name] = getattr(importlib.import_module(f"{__name__}.{home[name]}"), name)
        return namespace[name]

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | home.keys())

    return __getattr__, __dir__


_PUBLIC = {
    "forces": ("SUPPORTED_D2", "enumerate_ball_acs", "force_table", "normalization_constant",
               "verify_forces"),
    "configs": ("density", "is_admissible_config", "is_perfect", "is_saturated", "make_config",
                "shift_count"),
    "families": ("build_bcc", "build_cubic", "build_d4_family", "build_fcc", "build_layered_2l2",
                 "build_layered_d5", "build_layered_d6_rhombic", "build_layered_d6_tri",
                 "build_phi9", "build_phi10", "hcp_census", "pc_census", "sliding_witness"),
    "excitations": ("classify_insertion", "excitation_report", "gamma1", "gamma2", "iia_census",
                    "make_insertion", "peierls_check", "reduce_insertions", "repelled_set",
                    "window_census"),
    "sublattices": ("Quaternion", "class_size_histogram", "classify_classes",
                    "compare_class_counts", "enumerate_cubic_sublattices", "euler_rodrigues",
                    "fcc_census", "quadruples", "r3_formula"),
}
__all__ = sorted(name for names in _PUBLIC.values() for name in names)
__getattr__, __dir__ = _lazy(globals(), _PUBLIC)
