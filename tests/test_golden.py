"""Golden digests: certificates, flow paths and cuts must stay byte-identical.

Each digest is the SHA-256 of canonical JSON.  Certification reports drop the
``max_rel_err`` replay figures, which depend on floating-point details rather
than on the decisions.  A refactor of the flow kernel or the solvers that
changes any certificate, path witness or cut fails here.  The replay numerics
are pinned separately: the bytes of sampled parameters and the full-precision
replay errors of ``verify_certificates``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest

from semid import (
    CertificationReport,
    EdgeCertificate,
    GraphId,
    MixedGraph,
    certify,
    decode_id,
    eid_tsid_identify,
    htc_identify,
    joint_certificate,
    sample_parameters,
    verify_certificates,
)
from semid.cli import main
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

# Third draw of random_mixed_graph(random.Random(9), 9): eight of its nine
# vertices lie on directed cycles, and the exhaustive TSID search over the
# edges into vertex 2 accepts no pair.
SLOW_CYCLIC_CODE = "9:2408923172104884125943:4899957252"
SLOW_CYCLIC_DIGEST = "9eaf31e8c5cba024af0839bf37968033cd5a74e57aa4c2258ad8040a26f0c833"

# Graphs on which the exhaustive TSID search, without its star-minor filter,
# sweeps tens of thousands of pairs or more.  The n=9 graphs are acyclic; the
# n=11 ones are random_mixed_graph(random.Random(seed), 11, acyclic=...) for
# seed 2 cyclic, seed 2 acyclic and seed 3 acyclic.  The digests were
# recorded with the unfiltered search.
SLOW_SET_DIGESTS = {
    "9:9223513325843828237:35663143465": "df30de28e02dac2be15f0bce5191e2d47be581f4b6fde5aab35a18e67d317752",
    "9:70506727874586:38675424104": "9997df4fc49dccf5c72c6bd7476282d21f284efebf6c59fc4aa7b8c6614042ee",
    "9:9223583489646968450:2046886124": "e446825e26c334e5ca9c6084f616806a004049a1d7c0eb5f7575f19fe379588f",
    "11:1081431808982112112666633221703820:5663902834643366": "e9403a9eb45c1008ab6d11cc78353ab5321897d717827a37837e94030485cec4",
    "11:73787011737004806284:30015762345235584": "375c00b788339df696afe3e34f546931107971b123bdc3006f923ec588810e5b",
    "11:289215538989695841:9007419377264193": "7659a30c4650cc56ca9724b625ab94f98dcc8f05185bb2e0428d369d9d7cefc4",
}

# Exit code and SHA-256 of the raw stdout of `semid identify CODE FLAGS
# --format json`.  The digests above sort keys and drop whitespace; these pin
# the bytes of the stable contract: key order, indentation and float digits.
# The graphs are the seven fixtures, corpus graphs with no, one TSID and two
# EID certificates, and two acyclic_verify pool graphs (all EID; EID with an
# infinite-to-one record).
STDOUT_DIGESTS = {
    "3:9:4": (0, "efb537530f88f2f82c6359dff551af143909aa855f94b5700cabb09ea5bfd41e"),
    "5:32775:15": (0, "19b8e38fe05887cc94600bdc90b9a7a3de6ba76f5116319b3175cc056d135848"),
    "5:18465:265": (0, "dcc11d93a7acfa153230c400f1574ff217e97274065488dd2e438a45d23127f9"),
    "5:33826:852": (2, "eee7a791fe679182a6edae910a4296628548fdd8a46e8b7fe8d9b22c3ff06c9a"),
    "6:17309827:7040": (0, "692aab9f8e91aad180a137d3d377f0e0e353c788cbdfc4885b8dfea479a26fca"),
    "5:4456:113": (3, "7b94f64a13efe45456bd9d638a85782e70a73c4a8d60e6ceaec902f9a4c0abe0"),
    "5:70881:80": (3, "af252197e1e750527299d24aae2d3f0e5722aaf33370ea1f6acdde49f3477fe2"),
    "5:360:117 --max-set-size 5": (3, "135563d203dfd297abab7ed0d52df3b3892a4be52717749233c118ffb674b956"),
    "5:6629:512 --max-set-size 5": (3, "358e5ecacab1dc7c355929d146e942bd63212ae6f80ec4c52ed069a2e147e164"),
    "5:75112:72 --max-set-size 5": (3, "ada9c66ac1ae83d2781e7d15629a1b18c2a8b19f3d6ea8c50728ccc095004277"),
    "15:50216813883112000330706117495757874303122133945162150195716:634482993541222906178522071040"
    " --max-set-size 1 --seeds 100": (0, "21a170eaeec62c8a9f0987db813ad938d9c33adf2d87bc329048a9ee991e3ded"),
    "13:1361129467686232152116398343331764109382:9444733106476778848264"
    " --max-set-size 1 --seeds 100": (2, "086d554742e389afd8603611c197f4e6d3b4c9f8996208816e8a183d75e388cd"),
}

# Seed 139 of this graph rejects its first coefficient draw (I - lambda too
# close to singular), so sampling takes the rejection loop.
REJECTING_CYCLIC_GRAPH = MixedGraph(
    4, [(1, 2), (2, 3), (3, 4), (4, 1), (2, 4), (4, 2), (1, 3), (3, 1)], [(1, 3)]
)
NO_BIDIRECTED_GRAPH = MixedGraph(4, [(1, 2), (1, 3), (2, 3), (3, 4)], [])
SAMPLE_GRAPHS = {
    **FIXTURES,
    "rejecting_cyclic": REJECTING_CYCLIC_GRAPH,
    "no_bidirected": NO_BIDIRECTED_GRAPH,
}
SAMPLE_SEEDS = [0, 1, 2, 3, 4, 139, 1287]
SAMPLE_DIGESTS = {
    "descendant_source": "4cf1ac60550f6b5e65664aaec7111bd5870c33e40d3b6520d1dfb24491382ccb",
    "htc_fail": "6310044d2299d20e320bd01ebbc8577a459ff80a1fe8bcb73d7a6e821eaf35a3",
    "inconclusive_acyclic": "a3e38db5fa469db0580f1da89ce5942320850cc875aeadbeaa2955ff0fc3e5a9",
    "inconclusive_cyclic": "e50a97e4aa877e9a314aa880203ef9b61f4bf6753f82cbc7dd035fb08f334d2b",
    "iv": "9c3ffb95a5c5b390c7a3d9f4f4888f40de655795f36bf222bc7c2c145d8e96b9",
    "joint_system": "6c02bd9214cf4c361af23fb2c18750bfda9565fe1d64aeed584689421ba34ca2",
    "no_bidirected": "918efdf1280124dcd2e251602ed91500491a0fb334f6132d78f3910384900d55",
    "one_edge_nonid": "08ff526342bffd1248628bf8e928f4916d8e4ce4f327753c8e64764d2ce75e47",
    "rejecting_cyclic": "d82c0d88ae12a575311201b67dba1c378413778116bb60761ac5ef79c69c0b58",
}
VERIFY_ERRORS_DIGEST = "c83e693a08299f8c64f6167d35c5e41669d03ca9793551628ee2323d9a23f8db"


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_certificates_unchanged(name):
    assert _report_digest(FIXTURES[name]) == FIXTURE_DIGESTS[name]


@pytest.mark.parametrize("index", range(10))
def test_corpus_certificates_unchanged(index):
    g = decode_id(GraphId.parse(corpus_codes()[index]))
    assert _report_digest(g, max_set_size=5) == CORPUS_DIGESTS[index]


def test_slow_cyclic_certificates_unchanged():
    g = decode_id(GraphId.parse(SLOW_CYCLIC_CODE))
    assert _report_digest(g) == SLOW_CYCLIC_DIGEST


@pytest.mark.parametrize("code", SLOW_SET_DIGESTS)
def test_slow_set_certificates_unchanged(code):
    assert _report_digest(decode_id(GraphId.parse(code))) == SLOW_SET_DIGESTS[code]


@pytest.mark.parametrize("name", ["corpus_n5", "random_n7", "acyclic_verify"])
def test_benchmark_pool_verdicts_match_the_reference(name, monkeypatch, capsys):
    # Every graph of the benchmark pool, through the command line, against
    # the recorded exit code, certificate digest and replay gate.
    root = Path(__file__).resolve().parents[1]
    monkeypatch.chdir(root)  # the corpus path of the workloads is relative
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    import workloads
    workload = workloads.WORKLOADS[name]
    reference = workloads.load_reference(workload)
    codes = workload.pool()
    assert len(codes) == len(reference) >= 40
    for code in codes:
        exit_code = main(workload.argv(code))
        why = workloads.check_verdict(reference[code], exit_code, capsys.readouterr().out)
        assert why is None, (code, why)


@pytest.mark.parametrize("args", STDOUT_DIGESTS)
def test_identify_stdout_bytes_unchanged(args, capsys):
    exit_code = main(["identify", *args.split(), "--format", "json"])
    stdout = capsys.readouterr().out
    assert (exit_code, hashlib.sha256(stdout.encode()).hexdigest()) == STDOUT_DIGESTS[args]


def test_report_text_is_indent_2_json():
    graphs = list(FIXTURES.values())
    graphs += [random_mixed_graph(random.Random(seed), 4 + seed % 3, acyclic=seed % 2 == 0) for seed in range(12)]
    for g in graphs:
        text = certify(g, max_set_size=3).to_json()
        assert text == json.dumps(json.loads(text), indent=2)


def test_report_writer_matches_json_dumps_on_every_value_kind():
    # Values no solver writes today still come out as json.dumps writes them.
    cert = EdgeCertificate(
        edge=(1, 2), status="unknown", method=None,
        witness={"note": 'caf\u00e9 "q"\n', "S": {3, 1}, "T": (), "H": {2: {5, 4}, 1: []},
                 "record": {3: "x", 1: "y"}, "rows": [({2, 1}, [4, 3])], "flag": True},
        prerequisites=((2, 1), (3, 1)),
        verification={"seeds": 0, "max_rel_err": float("nan"), "low": -float("inf"), "high": float("inf"),
                      "none": None, "off": False, "empty": {}, "nested": [[], [0.5, "s"]]},
    )
    report = CertificationReport(MixedGraph(3, [(1, 2)], []), {(1, 2): cert}, 5, 6, 7)
    expected = {
        "n": 3,
        "certificates": [{
            "edge": [1, 2], "status": "unknown", "method": None,
            "witness": {"note": 'caf\u00e9 "q"\n', "S": [1, 3], "T": [], "H": {"2": [4, 5], "1": []},
                        "record": {"1": "y", "3": "x"}, "rows": [[[1, 2], [3, 4]]], "flag": True,
                        "prerequisites": [[2, 1], [3, 1]]},
            "verification": cert.verification,
        }],
        "jacobian_rank": 5,
        "n_parameters": 6,
        "parameterization_infinite_to_one": True,
        "seed": 7,
    }
    assert report.to_json() == json.dumps(expected, indent=2)


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


@pytest.mark.parametrize("name", sorted(SAMPLE_GRAPHS))
def test_sampled_parameters_unchanged(name):
    digest = hashlib.sha256()
    for seed in SAMPLE_SEEDS:
        params = sample_parameters(SAMPLE_GRAPHS[name], seed)
        digest.update(params.lam.tobytes())
        digest.update(params.omega.tobytes())
    assert digest.hexdigest() == SAMPLE_DIGESTS[name]


def test_verify_errors_unchanged():
    """Full-precision max relative replay errors over 20 seeds, for every method."""
    seeds = [7919 * i for i in range(20)]
    errors = {}
    for name, g in sorted(FIXTURES.items()):
        for solver in (eid_tsid_identify, htc_identify):
            certs = list(solver(g).certificates.values())
            errors[f"{solver.__name__}:{name}"] = [
                [list(e), err] for e, err in verify_certificates(g, certs, seeds).items()
            ]
    g = FIXTURES["joint_system"]
    joint = joint_certificate(g, 6, [4, 5], [([3, 5], [1]), ([2, 4], [1])])
    errors["joint_system_joint"] = [
        [list(e), err] for e, err in verify_certificates(g, joint, seeds).items()
    ]
    assert _digest(errors) == VERIFY_ERRORS_DIGEST
