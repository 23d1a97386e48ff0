import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import semid
from semid import encode_id, graph_from_json, graph_to_json, identify, modp, oracle, verify_certificates
from semid.cli import EXIT_INPUT_ERROR, EXIT_REPLAY_FAILED, main

from conftest import CORPUS_PATH, HTC_FAIL_GRAPH, IV_GRAPH, ONE_EDGE_NONID_GRAPH


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


def test_identify_invalid_graph_names_every_problem(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_text('{"n": 2, "directed": [[1, 1], [1, 3]], "bidirected": []}')
    code, out, err = run(capsys, "identify", "bad.json")
    assert (code, out) == (1, "")
    assert err == (
        "error: bad.json: invalid mixed graph: self-loop 1->1 in directed edges; "
        "directed edge (1,3): endpoint 3 outside 1..2\n"
    )


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "graph JSON must be an object with keys n, directed, bidirected"),
    ('{"n": "3"}', "vertex count must be an integer, got '3'"),
    ('{"n": true, "directed": [], "bidirected": []}', "vertex count must be an integer, got True"),
    ('{"n": 3, "directed": [[1, true]], "bidirected": []}', "directed entry [1, True] is not a pair of integers"),
    ('{"n": 3, "directed": [], "bidirected": [[false, 2]]}', "bidirected entry [False, 2] is not a pair of integers"),
    ('{"n": 3, "directed": null}', "directed must be a list of pairs, got None"),
    ('{"n": 3, "directed": [], "bidirected": 5}', "bidirected must be a list of pairs, got 5"),
], ids=["not-an-object", "n-a-string", "n-true", "directed-endpoint-true", "bidirected-endpoint-false",
        "directed-null", "bidirected-a-number"])
@pytest.mark.parametrize("command", ["identify", "encode"])
def test_graph_json_that_is_no_graph_is_an_input_error(tmp_path, capsys, monkeypatch, command, text, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_text(text)
    assert run(capsys, command, "bad.json") == (1, "", f"error: bad.json: {message}\n")


def test_identify_code_out_of_range(capsys):
    assert run(capsys, "identify", "3:64:0") == (1, "", "error: directed code 64 out of range for n=3\n")


@pytest.mark.parametrize("argv, start", [
    (["identify", "{tmp}"], "error: cannot read {tmp}: "),
    (["corpus", "{tmp}"], "error: cannot read {tmp}: "),
    (["identify", "3:9:4", "--output", "{tmp}/missing/x.json"], "error: cannot write {tmp}/missing/x.json: "),
    (["identify", "{tmp}/latin1.txt"], "error: cannot read {tmp}/latin1.txt: 'utf-8' codec can't decode"),
    (["corpus", "{tmp}/latin1.txt"], "error: cannot read {tmp}/latin1.txt: 'utf-8' codec can't decode"),
], ids=["graph-is-a-directory", "corpus-is-a-directory", "output-directory-missing",
        "graph-not-utf8", "corpus-not-utf8"])
def test_file_errors_are_input_errors(tmp_path, capsys, argv, start):
    (tmp_path / "latin1.txt").write_bytes("3:9:4 # caf\xe9\n".encode("latin-1"))
    code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert (code, out) == (1, "")
    assert err.startswith(start.format(tmp=tmp_path)) and err.count("\n") == 1


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
    code, _, err = run(capsys, "rank", "3:9:4", "-S", "1,x", "-T", "1")
    assert code == 1 and "vertex list '1,x' must be comma-separated integers" in err


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


def test_corpus_each_algorithm_alone(tmp_path, capsys):
    # The ratio graph: EID alone solves none of its edges, TSID alone three
    # of four, and the alternation all four.
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("3:9:4\n5:32775:15\n")
    code, out, _ = run(capsys, "corpus", corpus, "--algorithms", "htc,eid,tsid,eid+tsid")
    assert code == 0
    assert out.splitlines() == [
        "3:9:4  htc=2/2  eid=2/2  tsid=2/2  eid+tsid=2/2",
        "5:32775:15  htc=0/4  eid=0/4  tsid=3/4  eid+tsid=4/4",
        "fully identified out of 2: htc=1  eid=1  tsid=1  eid+tsid=2",
    ]
    code, out, _ = run(capsys, "corpus", corpus, "--algorithms", "tsid", "--max-set-size", "1", "--format", "json")
    assert code == 0
    assert [row["tsid"] for row in json.loads(out)["per_graph"]] == [2, 0]


def test_corpus_input_errors(tmp_path, capsys):
    code, out, err = run(capsys, "corpus", tmp_path / "missing.txt")
    assert (code, out) == (1, "") and "no such file" in err
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("3:9:4\n")
    code, out, err = run(capsys, "corpus", corpus, "--algorithms", "htc,nope")
    assert (code, out) == (1, "") and "unknown algorithm 'nope'" in err


def test_table_output(capsys):
    code, out, _ = run(capsys, "rank", "3:9:4", "-S", "1,2", "-T", "2,3", "--cut")
    assert (code, out) == (0, "rank 2\nL = [1, 2]\nR = []\n")
    code, out, _ = run(capsys, "sample", "3:9:4", "--seed", "7")
    assert code == 0
    assert [line for line in out.splitlines() if line.endswith("=")] == ["lambda =", "omega =", "sigma ="]
    assert "-0.737567" in out  # lambda[1, 2] at six decimals
    code, out, _ = run(capsys, "verify", "3:9:4", "--seeds", "5")
    assert code == 0
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == ["1->2", "2->3"]
    assert all(line.endswith("over 5 seeds") for line in lines[:2])
    assert lines[2] == "all 2 identifiable edges within 1e-06"


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


@pytest.mark.parametrize("command", ["identify", "sample", "verify"])
def test_negative_seed_is_a_usage_error(capsys, command):
    # numpy's generators take no negative seed; argparse reports it instead.
    code, out, err = run_usage_error(capsys, command, "3:9:4", "--seed", "-1")
    assert (code, out) == (EXIT_INPUT_ERROR, "")
    assert err.startswith(f"usage: semid {command} ") and "Traceback" not in err
    assert f"semid {command}: error: argument --seed: must be at least 0, got -1" in err


@pytest.mark.parametrize("argv, usage", [
    (["identify", "3:9:4", "--tolerance", "1e-3"], "usage: semid identify "),
    (["verify", "3:9:4", "extra"], "usage: semid verify "),
    (["rank", "3:9:4", "-S", "1", "-T", "2", "--zzz"], "usage: semid rank "),
    (["--zzz", "identify", "3:9:4"], "usage: semid [-h] "),
    (["decode", "3:9:4", "--format", "table"], "usage: semid decode "),
    (["encode", "3:9:4", "--format", "json"], "usage: semid encode "),
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


def test_closed_stdout_ends_quietly_with_exit_1():
    # The reader of stdout is gone before anything is written, as after
    # `semid identify ... | head`: no traceback, and no message at exit.
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(semid.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = "import sys; from semid.cli import main; sys.exit(main())"
    try:
        done = subprocess.run(
            [sys.executable, "-c", script, "identify", "3:9:4", "--format", "json"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=2,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (EXIT_INPUT_ERROR, b"")


def test_few_seeds_never_load_numpy_random():
    # The field point and stacks of fewer than VECTOR_SEEDING_MIN seeds draw
    # from seeding.PCG64Stream; only a longer stack loads numpy.random.
    src = str(Path(semid.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = textwrap.dedent("""
        import contextlib, io, sys
        import numpy
        if "numpy.random" in sys.modules:
            sys.exit(9)  # numpy 1.x loads it with numpy itself
        from semid.cli import main
        runs = [["identify", "5:4456:113", "--max-set-size", "5"],
                ["identify", "5:4456:113", "--max-set-size", "5", "--no-verify"],
                ["identify", "3:9:4", "--seeds", "7"], ["sample", "3:9:4"],
                ["identify", "3:9:4", "--seeds", "8"]]
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            print(code, "numpy.random" in sys.modules)
    """)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=30)
    if done.returncode == 9:
        pytest.skip("import numpy loads numpy.random")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == ["3 False", "3 False", "0 False", "0 False", "0 True"]


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
    raise oracle.DegenerateSampleError(f"forced at seed {seed if isinstance(seed, int) else seed[0]}")


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


def test_replay_that_stays_degenerate_exit_code(capsys, monkeypatch):
    def degenerate(*args, **kwargs):
        raise oracle.DegenerateSampleError("forced")

    monkeypatch.setattr(oracle, "solve_determinantal_system", degenerate)
    message = "replay stayed degenerate after 5 resamples (seed 0): forced"
    certs = identify.eid_tsid_identify(HTC_FAIL_GRAPH).certificates.values()
    with pytest.raises(oracle.DegenerateSampleError) as exc:
        verify_certificates(HTC_FAIL_GRAPH, certs, [0])
    assert str(exc.value) == message
    code, out, err = run(capsys, "identify", encode_id(HTC_FAIL_GRAPH))
    assert code == EXIT_REPLAY_FAILED
    assert out == "" and message in err


@pytest.mark.parametrize("message, detail", [
    ("Unable to allocate 781. MiB for an array with shape (31824, 6435) and data type int32", None),
    ("", "MemoryError"),
])
def test_search_out_of_memory_is_named(capsys, monkeypatch, message, detail):
    # The first message is numpy's, at level 7 of an n=18 search.
    def out_of_memory(*args):
        raise MemoryError(message)

    monkeypatch.setattr(modp, "star_vanishing_pairs", out_of_memory)
    code, out, err = run(capsys, "identify", "5:4456:113", "--max-set-size", "5")
    assert code == EXIT_INPUT_ERROR
    assert out == ""
    assert err == f"out of memory: {detail or message}; a smaller --max-set-size bounds the TSID search\n"
