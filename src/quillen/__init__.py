"""Exact rational homology of p-subgroup posets.

Build concrete finite permutation groups, construct their p-subgroup
posets (elementary abelian, radical, image, diagonal and p-outer
variants), compute reduced rational homology exactly, and mechanically
verify the hypotheses of homology-propagation results for the
nonvanishing of H̃_*(A_p(G), Q).
"""

__version__ = "0.1.0"

from .errors import QuillenError
from .groups import (PermGroup, Subgroup, center, centralizer,
                     detect_components, hyperelementary_check, is_simple,
                     normalizer, subgroup_product, sylow_subgroup)
from .gspec import BUNDLED, build_group, load_group
from .homology import (BettiVector, HomologyMapReport, RawComplex,
                       betti_of_complex, betti_of_poset, induced_map,
                       kunneth_check)
from .posets import (Poset, PosetMap, beat_point_core, fixed_subposet,
                     join_posets, order_complex)
from .pposets import (OrbitContext, ap_poset, bouc_poset, conjugation_action,
                      decomposition, diagonal_poset, image_poset,
                      off_component_subposet, p_outer_poset)
from .checkers import (Certificate, ConditionsReport, EulerFormulaReport,
                       check_conditions, check_cor51, check_cor52,
                       check_prop68, check_propEM, check_thm41, check_thm410,
                       euler_formula, hqc_witness, robinson_certificate)

__all__ = [
    "QuillenError", "PermGroup", "Subgroup", "center", "centralizer",
    "detect_components", "hyperelementary_check", "is_simple", "normalizer",
    "subgroup_product", "sylow_subgroup", "BUNDLED", "build_group",
    "load_group", "BettiVector", "HomologyMapReport", "RawComplex",
    "betti_of_complex", "betti_of_poset", "induced_map", "kunneth_check",
    "Poset", "PosetMap", "beat_point_core", "fixed_subposet", "join_posets",
    "order_complex", "OrbitContext", "ap_poset", "bouc_poset",
    "conjugation_action", "decomposition", "diagonal_poset", "image_poset",
    "off_component_subposet", "p_outer_poset", "Certificate",
    "ConditionsReport", "EulerFormulaReport", "check_conditions",
    "check_cor51", "check_cor52", "check_prop68", "check_propEM",
    "check_thm41", "check_thm410", "euler_formula", "hqc_witness",
    "robinson_certificate", "__version__",
]
