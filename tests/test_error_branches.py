"""Each input error of the public checks raises its own message.

These branches guard hand-made inputs; the solvers never reach them, so
no other test runs them.
"""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from semid import (
    CertificateError,
    CertificationReport,
    EdgeCertificate,
    FlowNetwork,
    covariance,
    joint_certificate,
    replay_certificates,
    sample_parameters,
    solve_determinantal_system,
    solve_recovery_system,
    tsep_accepts,
)
from semid.identify import IDENTIFIABLE
from semid.oracle import numeric_rank

from conftest import IV_GRAPH, JOINT_SYSTEM_GRAPH

SIGMA = covariance(sample_parameters(IV_GRAPH, seed=0))


def _json_dumps_error(value) -> str:
    try:
        json.dumps(value)
    except TypeError as error:
        return str(error)
    raise AssertionError(f"json.dumps wrote {value!r}")


def _report_with_an_object_witness() -> str:
    cert = EdgeCertificate(edge=(1, 2), status=IDENTIFIABLE, method="HTC", witness={"v": object()})
    return CertificationReport(IV_GRAPH, {(1, 2): cert}, 0, 0, 0).to_json()


@pytest.mark.parametrize("call, error, message", [
    (lambda: tsep_accepts(IV_GRAPH, 1, 3, [], [1], []), ValueError, "edge 3->1 not in graph"),
    (lambda: joint_certificate(JOINT_SYSTEM_GRAPH, 6, [1], [([1, 2], [3])]), ValueError, "edge 1->6 not in graph"),
    (lambda: joint_certificate(JOINT_SYSTEM_GRAPH, 6, [4], [([3, 5], [1]), ([2, 4], [1])]), ValueError,
     "need one (S, T) row per target"),
    (lambda: replay_certificates([EdgeCertificate(edge=(2, 3), status=IDENTIFIABLE, method="BOGUS")], SIGMA),
     CertificateError, "unknown certificate method 'BOGUS'"),
    (lambda: solve_recovery_system(SIGMA, 3, [2], [], [1], []), ValueError,
     "need one parent set per source, got 0 for 1"),
    (lambda: solve_determinantal_system(SIGMA, [([1, 2], [3])], 3, [1, 2]), ValueError,
     "need one row per target, got 1 and 2"),
    (lambda: solve_determinantal_system(SIGMA, [([1, 2], [1])], 3, [2], {(1, 2): 0.5}), ValueError,
     "known edge 1->2 does not point into 3"),
    (lambda: FlowNetwork(2, [(1, 3)], 1), ValueError, "arc (1,3) references a node outside 1..2"),
    (_report_with_an_object_witness, TypeError, _json_dumps_error(object())),
], ids=["tsep-non-edge", "joint-non-edge", "joint-extra-row", "replay-bogus-method", "recovery-h-per-y",
        "determinantal-rows", "determinantal-known-edge", "flow-arc-outside", "json-object"])
def test_input_errors_name_their_cause(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_numeric_rank_of_an_empty_matrix_is_zero():
    assert numeric_rank(np.zeros((0, 3))) == 0
