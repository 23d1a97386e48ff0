import json

import pytest

from semid import graph_from_json, graph_to_json, identify, oracle
from semid.cli import EXIT_INPUT_ERROR, EXIT_REPLAY_FAILED, main

from conftest import CORPUS_PATH, IV_GRAPH, ONE_EDGE_NONID_GRAPH


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_usage_error(capsys, *argv):
    """The exit code, stdout and stderr of an invocation that argparse rejects."""
    with pytest.raises(SystemExit) as exc:
        main([str(a) for a in argv])
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def test_identify_fully_identifiable(capsys):
    code, out, _ = run(capsys, "identify", "3:9:4")
    assert code == 0
    assert "identifiable" in out


def test_identify_infinite_to_one(tmp_path, capsys):
    path = tmp_path / "nonid.json"
    path.write_text(graph_to_json(ONE_EDGE_NONID_GRAPH))
    code, out, _ = run(capsys, "identify", path)
    assert code == 2
    assert "2->3: infinite_to_one" in out


def test_identify_inconclusive(capsys):
    code, out, _ = run(capsys, "identify", "5:4456:113", "--no-verify")
    assert code == 3
    assert "unknown" in out


def test_identify_json_format(capsys):
    code, out, _ = run(capsys, "identify", "3:9:4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["parameterization_infinite_to_one"] is False
    assert {tuple(c["edge"]) for c in payload["certificates"]} == {(1, 2), (2, 3)}


def test_identify_input_error(capsys):
    code, _, err = run(capsys, "identify", "no-such-file.json")
    assert code == 1 and "no such file" in err


def test_identify_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 2, "directed": [[1')
    code, _, err = run(capsys, "identify", path)
    assert code == 1 and "position" in err


def test_rank_and_cut(tmp_path, capsys):
    path = tmp_path / "ratio.json"
    path.write_text(
        json.dumps({"n": 5, "directed": [[1, 2], [1, 3], [1, 4], [4, 5]],
                    "bidirected": [[1, 2], [1, 3], [1, 4], [1, 5]]})
    )
    code, out, _ = run(capsys, "rank", path, "-S", "1,2,4", "-T", "1,3,5")
    assert code == 0 and out.strip() == "3"
    code, out, _ = run(capsys, "rank", path, "-S", "1,2,4", "-T", "1,3,5", "--cut", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 3
    assert len(payload["cut"]["L"]) + len(payload["cut"]["R"]) == 3

    bar = tmp_path / "bar.json"
    bar.write_text(
        json.dumps({"n": 5, "directed": [[1, 2], [1, 3], [1, 4]],
                    "bidirected": [[1, 2], [1, 3], [1, 4], [1, 5]]})
    )
    code, out, _ = run(capsys, "rank", bar, "-S", "1,2,4", "-T", "1,3,5")
    assert code == 0 and out.strip() == "2"


def test_rank_out_of_range(capsys):
    code, _, err = run(capsys, "rank", "3:9:4", "-S", "1,9", "-T", "2")
    assert code == 1 and "outside" in err
    code, _, err = run(capsys, "rank", "3:9:4", "-S", "1", "-T", "0")
    assert code == 1 and "vertex 0 outside 1..3" in err


def test_rank_empty_sources_is_zero(capsys):
    code, out, err = run(capsys, "rank", "3:9:4", "-S", "", "-T", "1")
    assert (code, out, err) == (0, "0\n", "")
    code, out, _ = run(capsys, "rank", "3:9:4", "-S", "", "-T", "1", "--cut", "--format", "json")
    assert code == 0 and json.loads(out) == {"rank": 0, "cut": {"L": [], "R": []}}


def test_decode_encode_roundtrip(tmp_path, capsys):
    code, out, _ = run(capsys, "decode", "5:360:117")
    assert code == 0
    g = graph_from_json(out)
    path = tmp_path / "g.json"
    path.write_text(out)
    code, out, _ = run(capsys, "encode", path)
    assert code == 0 and out.strip() == "5:360:117"
    assert g.n == 5


def test_decode_iv(capsys):
    code, out, _ = run(capsys, "decode", "3:9:4")
    assert code == 0
    assert graph_from_json(out) == IV_GRAPH
    code, out, _ = run(capsys, "decode", "5:0:0")
    assert code == 0
    assert graph_from_json(out).directed == frozenset()


def test_decode_out_of_range(capsys):
    code, _, err = run(capsys, "decode", "3:64:0")
    assert code == 1 and "out of range" in err


def test_sample_deterministic(capsys):
    code, out1, _ = run(capsys, "sample", "3:9:4", "--seed", "7", "--format", "json")
    assert code == 0
    code, out2, _ = run(capsys, "sample", "3:9:4", "--seed", "7", "--format", "json")
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["lambda"][0][1] != 0 and payload["lambda"][1][0] == 0


def test_verify_ratio_graph(capsys):
    code, out, _ = run(capsys, "verify", "3:9:4", "--seeds", "20", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert all(e["max_rel_err"] < 1e-6 for e in payload["edges"])
    assert len(payload["edges"]) == 2


def test_verify_replays_in_discovery_order(capsys):
    # 1 -> 5 is certified with 5 -> 6 as a prerequisite, but sorts before it.
    code, out, _ = run(capsys, "verify", "6:17056136:14340", "--seeds", "3",
                       "--max-set-size", "1", "--format", "json")
    assert code == 0
    edges = {tuple(e["edge"]) for e in json.loads(out)["edges"]}
    assert {(1, 5), (5, 6)} <= edges


def test_verify_empty_graph(capsys):
    code, out, _ = run(capsys, "verify", "4:0:0", "--seeds", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["edges"] == []


def test_corpus_small(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("# demo corpus\n3:9:4\n5:4456:113\n")
    code, out, _ = run(capsys, "corpus", corpus, "--algorithms", "htc,eid+tsid",
                       "--max-set-size", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["graphs"] == 2
    assert payload["fully_identified"]["eid+tsid"] == 1  # the iv graph only
    assert payload["fully_identified"]["htc"] == 1


def test_corpus_malformed_line(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("3:9:4\nnot-a-code\n")
    code, out, err = run(capsys, "corpus", corpus, "--algorithms", "htc")
    assert code == 1
    assert "skipped" in err
    assert "3:9:4" in out


def test_corpus_empty(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("# nothing here\n")
    code, out, _ = run(capsys, "corpus", corpus, "--format", "json")
    assert code == 0 and json.loads(out)["graphs"] == 0


def test_corpus_shipped_file_counts(capsys):
    code, out, _ = run(capsys, "corpus", CORPUS_PATH, "--algorithms", "htc,eid+tsid",
                       "--max-set-size", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["graphs"] == 55
    assert payload["fully_identified"] == {"htc": 0, "eid+tsid": 0}


def test_verify_ratio_graph_100_seeds(capsys):
    code, out, _ = run(capsys, "verify", "5:32775:15", "--seeds", "100", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    edges = {tuple(e["edge"]) for e in payload["edges"]}
    assert edges == {(1, 2), (1, 3), (1, 4), (4, 5)}
    assert all(e["max_rel_err"] < 1e-6 for e in payload["edges"])


def test_option_validation(capsys):
    code, _, err = run_usage_error(capsys, "identify", "3:9:4", "--max-set-size", "0")
    assert code == 1 and "argument --max-set-size: must be at least 1, got 0" in err
    code, _, err = run_usage_error(capsys, "corpus", CORPUS_PATH, "--max-set-size", "x")
    assert code == 1 and "argument --max-set-size: invalid int value: 'x'" in err


@pytest.mark.parametrize("command", ["identify", "verify"])
@pytest.mark.parametrize("option, value", [
    ("--seeds", "0"), ("--seeds", "-3"),
    ("--tolerance", "nan"), ("--tolerance", "inf"),
])
def test_replay_option_out_of_range(capsys, command, option, value):
    # No seeds would replay nothing, and a tolerance could switch the replay
    # gate off; either way success would be reported unchecked.  The gate is
    # not an option at all.
    code, out, err = run_usage_error(capsys, command, "3:9:4", option, value, "--format", "json")
    assert code == 1 and out == "" and option in err


@pytest.mark.parametrize("argv", [
    ["identify", "3:9:4", "--seeds", "abc"],
    ["identify", "3:9:4", "--tolerance", "-inf"],  # -inf reads as an option
    ["identify", "3:9:4", "--tolerance", "1e-3"],
    ["verify", "3:9:4", "--tolerance", "1e-3"],
    ["identify", "3:9:4", "--max-set-size", "0"],
    ["verify", "3:9:4", "--max-set-size", "0"],
    ["corpus", CORPUS_PATH, "--max-set-size", "0"],
    ["cut", "3:9:4", "-S", "1", "-T", "2"],  # spelled rank --cut
    [],
])
def test_usage_errors_are_input_errors(capsys, argv):
    # argparse would exit 2, which identify reserves for infinite-to-one edges.
    code, out, err = run_usage_error(capsys, *argv)
    assert code == EXIT_INPUT_ERROR and out == "" and "usage: semid" in err


@pytest.mark.parametrize("argv, usage", [
    (["identify", "3:9:4", "--tolerance", "1e-3"], "usage: semid identify "),
    (["verify", "3:9:4", "extra"], "usage: semid verify "),
    (["rank", "3:9:4", "-S", "1", "-T", "2", "--zzz"], "usage: semid rank "),
    (["--zzz", "identify", "3:9:4"], "usage: semid [-h] "),
])
def test_unknown_argument_shows_the_usage_of_its_parser(capsys, argv, usage):
    code, out, err = run_usage_error(capsys, *argv)
    assert code == EXIT_INPUT_ERROR and out == ""
    assert err.startswith(usage) and "error: unrecognized arguments: " in err


@pytest.mark.parametrize("argv", [["--help"], ["identify", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: semid" in capsys.readouterr().out


def test_output_file_option(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "decode", "3:9:4", "--output", target)
    assert code == 0 and out == ""
    assert graph_from_json(target.read_text()) == IV_GRAPH


def _broken_state(g, max_set_size=None):
    """IV graph state whose 2->3 certificate recovers sigma23 / sigma22, not lambda23."""
    cert = identify.EdgeCertificate(
        edge=(2, 3), status=identify.IDENTIFIABLE, method="TSID",
        witness={"v": 3, "w0": 2, "S": [2], "T": []},
    )
    return identify.SolverState({(2, 3): cert})


def _degenerate(g, seed):
    raise oracle.DegenerateSampleError(f"forced at seed {seed}")


def test_replay_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(identify, "eid_tsid_identify", _broken_state)
    code, out, _ = run(capsys, "verify", "3:9:4", "--seeds", "3")
    assert code == EXIT_REPLAY_FAILED
    assert out.startswith("verification FAILED: edge 2->3 (TSID)")
    code, out, err = run(capsys, "identify", "3:9:4")
    assert code == EXIT_REPLAY_FAILED
    assert out == "" and "certificate error: edge 2->3 (TSID)" in err


def test_degenerate_sample_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "sample_parameters", _degenerate)
    for command in ("identify", "verify", "sample"):
        code, out, err = run(capsys, command, "3:9:4")
        assert code == EXIT_REPLAY_FAILED
        assert out == "" and "degenerate sample: forced at seed 0" in err
