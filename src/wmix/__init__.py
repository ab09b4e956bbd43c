"""Entanglement numerics for vacuum + single-excitation mixed states.

The compact family (generalized W mixtures) admits closed forms for
every bipartite negativity, exact structural separability tests, and
provable monogamy inequalities; this package implements them next to a
dense brute-force oracle that recomputes everything from full density
matrices, so each analytic claim is machine-checkable.
"""

from .closed_form import (
    PtBlockSpectrum,
    SeparabilityVerdict,
    classify,
    cross_block_norm,
    genuine_rank_of_pure,
    is_fully_separable,
    is_ppt_cut,
    is_separable_cut,
    negativity_cut,
    pairwise_negativity,
    pairwise_upper_bound,
    pt_block_eigenvalues,
)
from .errors import (
    CapacityError,
    ContractViolationError,
    DegenerateInputError,
    NormalizationError,
    PartitionError,
    RankDeficiencyError,
    ShapeError,
    StateInvariantError,
    WmixError,
)
from .monogamy import (
    MonogamyReport,
    ckw_concurrence_check,
    equality_diagnosis,
    monogamy_partition,
    monogamy_single,
)
from .oracle import (
    DENSE_BUDGET,
    DenseOperator,
    concurrence_pure,
    concurrence_two_qubit,
    dense_vector,
    embed_dense,
    hermitian_spectrum,
    negativity_dense,
    partial_trace_dense,
    partial_transpose,
)
from .partitions import (
    Bipartition,
    cut_labels,
    enumerate_bipartitions,
    parse_cut,
    parse_partition,
)
from .sampler import SampleConfig, random_mixed, random_pure, zeroed_parties
from .slocc import LocalFilter, apply_and_verify, build_filters, uniform_state
from .statefile import (
    dumps_canonical,
    dumps_state,
    fingerprint,
    load_state,
    loads_state,
    save_state,
)
from .states import (
    ExcitationLabel,
    PureGeneralizedW,
    SystemShape,
    WMixedState,
    as_mixed_state,
    make_generalized_w,
    make_w_state,
    mix,
    partial_trace,
)

__version__ = "0.1.0"

__all__ = [
    "Bipartition",
    "CapacityError",
    "ContractViolationError",
    "DegenerateInputError",
    "DenseOperator",
    "DENSE_BUDGET",
    "ExcitationLabel",
    "LocalFilter",
    "MonogamyReport",
    "NormalizationError",
    "PartitionError",
    "PtBlockSpectrum",
    "PureGeneralizedW",
    "RankDeficiencyError",
    "SampleConfig",
    "SeparabilityVerdict",
    "ShapeError",
    "StateInvariantError",
    "SystemShape",
    "WMixedState",
    "WmixError",
    "apply_and_verify",
    "as_mixed_state",
    "build_filters",
    "ckw_concurrence_check",
    "classify",
    "concurrence_pure",
    "concurrence_two_qubit",
    "cross_block_norm",
    "cut_labels",
    "dense_vector",
    "dumps_canonical",
    "dumps_state",
    "embed_dense",
    "enumerate_bipartitions",
    "equality_diagnosis",
    "fingerprint",
    "genuine_rank_of_pure",
    "hermitian_spectrum",
    "is_fully_separable",
    "is_ppt_cut",
    "is_separable_cut",
    "load_state",
    "loads_state",
    "make_generalized_w",
    "make_w_state",
    "mix",
    "monogamy_partition",
    "monogamy_single",
    "negativity_cut",
    "negativity_dense",
    "pairwise_negativity",
    "pairwise_upper_bound",
    "parse_cut",
    "parse_partition",
    "partial_trace",
    "partial_trace_dense",
    "partial_transpose",
    "pt_block_eigenvalues",
    "random_mixed",
    "random_pure",
    "save_state",
    "uniform_state",
    "zeroed_parties",
]
