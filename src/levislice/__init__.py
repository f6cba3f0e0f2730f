"""Levi forms of invariant functions on Hermitian symmetric spaces, computed
on the flat slice, with plurisubharmonicity verdicts and Reinhardt-domain
classification."""

from .funcspace import (
    Chart,
    InvariantFunction,
    Jet2,
    fd_jet,
    parse_invariant,
    to_slice,
)
from .levi import (
    LeviBlockForm,
    assemble,
    congruence_check,
    reinhardt_levi,
)
from .model import (
    SpaceKind,
    SymmetricSpaceModel,
    positive_roots,
)
from .potential import (
    bergman_identify,
    killing_potential_invariant,
    killing_potential_modulus,
    moment_coefficient,
    potential_value,
)
from .pshcheck import (
    CheckReport,
    Verdict,
    check_invariant_psh,
    convess_G,
    convess_properties,
    locate_minimum,
)
from .reinhardt import (
    ReinhardtShadow,
    classify_domain,
    envelope,
    is_complete,
    is_connected,
    is_log_convex,
    is_stein,
)

__version__ = "0.1.0"
