"""flab: finite-group formation laboratory.

Permutation groups with stabilizer-chain arithmetic, full subgroup lattices
for small groups, a catalog of hereditary saturated group classes, the class
hypercenter, and the subgroup-intersection operators built from maximal
members, their normalizers, and subnormalizers.  The ``flab`` CLI verifies
the classical identities between these constructions over a corpus of small
groups.
"""

from .errors import (
    ActionError,
    CapExceeded,
    FlabError,
    LatticeBudgetExceeded,
    LocalDefinitionUnavailable,
    NotASubgroup,
    NotNormal,
    OracleCapExceeded,
    OrderCapExceeded,
    SpecParseError,
)
from .perms import Permutation
from .groups import (
    Group,
    StabilizerChain,
    alternating,
    cyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    make_group,
    quaternion8,
    quotient,
    semidirect_product,
    special_linear_2_3,
    symmetric,
    trivial_group,
)
from .subgroups import (
    SubgroupRef,
    centralizer,
    centralizer_of_factor,
    commutator_subgroup,
    core,
    full_subgroup,
    normalizer,
    o_pi,
    o_pi_up,
    o_pp,
    subgroup_from_idxs,
    subgroup_from_mask,
    trivial_subgroup,
)
from .lattice import (
    SubgroupLattice,
    all_subgroups,
    cyclic_primary_subgroups,
    frattini,
    maximal_subgroups,
    sylow_subgroups,
)
from .series import (
    ChiefFactor,
    chief_factors,
    chief_series,
    derived_series,
    is_soluble,
    minimal_normal_subgroups,
    nilpotent_length,
    normal_subgroups,
    upper_central_series,
)
from .formations import (
    Cross,
    CrossBlock,
    FormationExpr,
    Gpi,
    Nil,
    NilPow,
    Sol,
    SolPi,
    Supersoluble,
    NIL,
    SOL,
    SUPERSOLUBLE,
    boundary_counterexample_search,
    format_formation,
    formation_member,
    formation_residual,
    local_def_member,
    parse_formation,
)
from .hypercenter import (
    CentralityVerdict,
    hypercenter,
    is_f_central,
    is_f_central_local,
    is_f_central_oracle,
)
from .intersections import (
    CYCLIC_PRIMARY,
    MAXIMAL,
    SYLOW,
    SubgroupFunctor,
    SubnormalizerSet,
    abnormal_maximal_intersection,
    all_sigma_f_subnormal,
    f_maximal_intersection,
    f_maximal_normalizer_intersection,
    f_maximal_subgroups,
    f_subnormalizers,
    is_f_subnormal,
    subnormalizer_intersection,
    sylow_normalizer_intersection,
)
from .corpus import Corpus, CorpusEntry, build_corpus, load_corpus_file
from .checks import CheckReport, default_suite, run_check, run_checks
from .report import render_report

__version__ = "0.1.0"
