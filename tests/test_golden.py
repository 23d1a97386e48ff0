"""Golden digests: certificates, flow paths and cuts must stay byte-identical.

Each digest is the SHA-256 of canonical JSON.  Certification reports drop the
``max_rel_err`` replay figures, which depend on floating-point details rather
than on the decisions.  A refactor of the flow kernel or the solvers that
changes any certificate, path witness or cut fails here.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

import pytest

from semid import GraphId, certify, decode_id, htc_identify
from semid.flow import build_flow_graph, build_restricted_flow_graph, t_separating_cut

from conftest import (
    DESCENDANT_SOURCE_GRAPH,
    HTC_FAIL_GRAPH,
    INCONCLUSIVE_ACYCLIC_GRAPH,
    INCONCLUSIVE_CYCLIC_GRAPH,
    IV_GRAPH,
    JOINT_SYSTEM_GRAPH,
    ONE_EDGE_NONID_GRAPH,
    corpus_codes,
    random_mixed_graph,
)


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _report_digest(g, **kwargs) -> str:
    payload = certify(g, **kwargs).to_json_dict()
    for cert in payload["certificates"]:
        if "verification" in cert:
            cert["verification"].pop("max_rel_err")
    return _digest(payload)


FIXTURES = {
    "iv": IV_GRAPH,
    "htc_fail": HTC_FAIL_GRAPH,
    "descendant_source": DESCENDANT_SOURCE_GRAPH,
    "one_edge_nonid": ONE_EDGE_NONID_GRAPH,
    "joint_system": JOINT_SYSTEM_GRAPH,
    "inconclusive_acyclic": INCONCLUSIVE_ACYCLIC_GRAPH,
    "inconclusive_cyclic": INCONCLUSIVE_CYCLIC_GRAPH,
}

FIXTURE_DIGESTS = {
    "iv": "4fdf6d15d30e60cf7bcaa8c5e251e64b9df7b40f8d7b07ffcfd1d827296596e2",
    "htc_fail": "bb5720686d01cb38463506a227198b572613a1048ee0b68b4a75016e81d4aacf",
    "descendant_source": "ba819970a9d5f16b7525e630ceab21d8e2a1726bcd70f77b6f4dd5c76d0376a3",
    "one_edge_nonid": "da0a8afe5d31367ccacffbfc83c0aaa2316b4724e744f34467fbe744546f3710",
    "joint_system": "bf931813dadfb8e5912653e96c33a4aa5bbd70e29ac4486cd5746eddb23a81ec",
    "inconclusive_acyclic": "898198495f8dcc49fb7b5cf38fc08c6257989d873727643d9420a0a35a00476d",
    "inconclusive_cyclic": "69e6b5ffe107afe0d209fb717fc867a9007ecf622d7fe16838c07332e3a93812",
}

CORPUS_DIGESTS = [
    "898198495f8dcc49fb7b5cf38fc08c6257989d873727643d9420a0a35a00476d",
    "b9b4a46bd45b4dce4f6233cc579f9435b3a9dc2b8d32c3fefb59adbc1867206c",
    "b9ac2dbf47dfefaa066c8109f83756359994b047d990281b011950a5141217bc",
    "507552cb76ab634f6942f8b0b52b65d73499a2cedcca7a8402632571ab10cb47",
    "f631e557fe9bd6af9ac180f858213cfc5e4555d7a0c82d0ff252cf883ccaa7fc",
    "b9b4a46bd45b4dce4f6233cc579f9435b3a9dc2b8d32c3fefb59adbc1867206c",
    "e2d5145caafd7c6f90168b9245828c3fbd7d2f7aa92a9c47c92ea614f3809a0f",
    "054858e80d8a606801395f5916aa582bf2d4e48799722a76c4d5cb404c5136f8",
    "054858e80d8a606801395f5916aa582bf2d4e48799722a76c4d5cb404c5136f8",
    "e9290a83c03c7710fba171893dd1329b13031733df4f57e1b13c43507ea3db34",
]

HTC_DIGEST = "896f038fa23bf1090e164b2058dd936036941afa8a06d2713e3883aa8e0cbae6"
SEEDED_DIGEST = "d9d824667cd7932525ce45aa4bef781b1410a799c2325b6b9ec1fac3fc52b7c0"
FLOW_DIGEST = "037415001f3fa3237fa3d6c0f48638d292b046ae0ed135f79b334a712d0b1e9a"


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_certificates_unchanged(name):
    assert _report_digest(FIXTURES[name]) == FIXTURE_DIGESTS[name]


@pytest.mark.parametrize("index", range(10))
def test_corpus_certificates_unchanged(index):
    g = decode_id(GraphId.parse(corpus_codes()[index]))
    assert _report_digest(g, max_set_size=5) == CORPUS_DIGESTS[index]


def test_htc_witnesses_unchanged():
    payload = {
        name: [c.to_json_dict() for c in htc_identify(g).certificates.values()]
        for name, g in sorted(FIXTURES.items())
    }
    assert _digest(payload) == HTC_DIGEST


def test_seeded_graph_certificates_unchanged():
    digests = []
    for seed in range(12):
        rng = random.Random(seed)
        g = random_mixed_graph(rng, 4 + seed % 3, acyclic=seed % 2 == 0)
        digests.append(_report_digest(g, max_set_size=3))
    assert _digest(digests) == SEEDED_DIGEST


def test_flow_paths_and_cuts_unchanged():
    """Values, path witnesses and min cuts of every small query on the fixtures."""
    records = []
    for name, g in sorted(FIXTURES.items()):
        full = build_flow_graph(g)
        half = build_restricted_flow_graph(g, (), g.directed)
        subsets = [
            list(c) for k in (1, 2, 3) for c in itertools.combinations(g.vertices, k)
        ]
        for S in subsets:
            for T in subsets:
                if len(T) > 2:
                    continue
                for net in (full, half):
                    w = net.max_flow(S, [net.primed(t) for t in T])
                    records.append([name, S, T, w.value, [list(p) for p in w.paths]])
                left, right = t_separating_cut(g, S, T)
                records.append([name, S, T, list(left), list(right)])
    assert _digest(records) == FLOW_DIGEST
