"""Concrete operator spaces, amplification-norm brackets, and N^p norms."""

from .bracket import NormBracket, SOURCES
from .catalog import CatalogEntry, get_entry, list_entries
from .errors import (
    DependentBasis,
    DimensionMismatch,
    InconsistentAction,
    InsufficientData,
    InsufficientTable,
    InvalidLevel,
    InvariantViolation,
    NonFiniteInput,
    NpSpaceError,
    ScaleOutOfRange,
    SpaceMismatch,
)
from .maps import (
    LevelNormTable,
    LinearMapRep,
    amplify,
    build_level_table,
    load_map,
    make_map,
    map_from_dict,
    map_to_dict,
    save_map,
    scaled_map,
    sum_map,
)
from .npnorm import (
    IndexEstimate,
    NpResult,
    inclusion_check,
    index_estimate,
    np_norm,
    require_p,
    zeta_tail,
)
from .optimize import AscentOutcome, OptBudget, maximize_amplified_norm
from .oracle import brute_search, cross_validate
from .spaces import (
    AxiomReport,
    OperatorSpace,
    SpaceElement,
    direct_sum,
    element_from_matrix,
    full_matrix_space,
    level_norm,
    load_space,
    make_space,
    pad_to,
    random_element,
    random_subspace,
    realize,
    sandwich,
    save_space,
    space_from_dict,
    space_to_dict,
    spectral_norm,
    verify_axioms,
)

__version__ = "0.1.0"
