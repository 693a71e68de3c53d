"""Pattern-avoiding inversion sequences, succession rules, steady paths, and
powered Catalan combinatorics, with exhaustive cross-validation throughout.
"""

from .objects import (
    InversionSequence,
    LatticePath,
    OrderedTree,
    PathKind,
    PathStatistics,
    Permutation,
    ValidationReport,
    make_path,
    parse_object,
    path_statistics,
    to_text,
    validate,
)
from .patterns import (
    RelationTriple,
    VincularPattern,
    WordPattern,
    avoids_triple,
    avoids_vincular,
    avoids_word,
    count_class,
    enumerate_class,
    equinumerosity_check,
    in_class,
    perm_statistics,
)
from .gentree import (
    RULES,
    SuccessionRule,
    expand_label,
    label_distribution,
    level_counts,
    rules_isomorphic_check,
)
from .growth import FAMILIES, growth_consistency
from .bijections import (
    catalan_invseq_to_perm,
    catalan_perm_to_invseq,
    left_inversion_table,
    left_inversion_table_inverse,
    perm_to_steady,
    phi,
    phi_star,
    steady_to_perm,
    theta,
    theta_star,
)
from .series import (
    callan_triangle,
    e3_sequence,
    functional_equation_residual,
    kernel_a11,
    kernel_w,
    reference_sequence,
)

__version__ = "0.1.0"
