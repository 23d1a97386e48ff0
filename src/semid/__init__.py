"""Generic identifiability certificates for linear structural equation models.

Given a mixed graph (directed edges for linear effects, bidirected edges for
correlated errors), this package decides per directed edge whether its
coefficient is generically recoverable from the model covariance matrix,
emits machine-checkable certificates (half-trek systems, determinantal
ratios, linear systems, two-point constructions), and verifies every
certificate against a numeric oracle at sampled parameter values.
"""

from .graph import (
    GraphId,
    MixedGraph,
    Neighborhoods,
    Trek,
    bidirected_subdivision,
    decode_id,
    encode_id,
    graph_from_json,
    graph_to_json,
    neighborhoods,
    validate,
)
from .flow import (
    FlowNetwork,
    FlowWitness,
    build_flow_graph,
    build_restricted_flow_graph,
    generic_rank,
    t_separating_cut,
)
from .oracle import (
    DegenerateSampleError,
    InfeasibleEdgeError,
    Parameters,
    alternative_parameters,
    covariance,
    enumerate_treks,
    jacobian_rank,
    recover_edge_ratio,
    sample_parameters,
    solve_determinantal_system,
    solve_recovery_system,
    subdeterminant,
    trek_monomial,
)
from .identify import (
    CertificateError,
    CertificationReport,
    EdgeCertificate,
    SolverState,
    certify,
    edge_infinite_to_one,
    eid_identify,
    eid_tsid_identify,
    half_trek_system_exists,
    htc_identify,
    joint_certificate,
    replay_certificates,
    tsep_accepts,
    tsid_identify,
    verify_certificates,
)

__all__ = [
    "CertificateError",
    "CertificationReport",
    "DegenerateSampleError",
    "EdgeCertificate",
    "FlowNetwork",
    "FlowWitness",
    "GraphId",
    "InfeasibleEdgeError",
    "MixedGraph",
    "Neighborhoods",
    "Parameters",
    "SolverState",
    "Trek",
    "alternative_parameters",
    "bidirected_subdivision",
    "build_flow_graph",
    "build_restricted_flow_graph",
    "certify",
    "covariance",
    "decode_id",
    "edge_infinite_to_one",
    "eid_identify",
    "eid_tsid_identify",
    "encode_id",
    "enumerate_treks",
    "generic_rank",
    "graph_from_json",
    "graph_to_json",
    "half_trek_system_exists",
    "htc_identify",
    "jacobian_rank",
    "joint_certificate",
    "neighborhoods",
    "recover_edge_ratio",
    "replay_certificates",
    "sample_parameters",
    "solve_determinantal_system",
    "solve_recovery_system",
    "subdeterminant",
    "t_separating_cut",
    "trek_monomial",
    "tsep_accepts",
    "tsid_identify",
    "validate",
    "verify_certificates",
]

__version__ = "0.1.0"
