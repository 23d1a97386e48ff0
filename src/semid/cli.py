"""Command-line surface: certification, rank queries, codecs, sampling, verification.

Graphs are given either as a path to a JSON file {"n": ..., "directed":
[[u,v], ...], "bidirected": [[u,v], ...]} or inline as an integer code
"n:d:b".  All randomness sits behind --seed, so every reported number is
reproducible bit for bit.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path
from typing import Callable, NoReturn, Sequence

import numpy as np

from . import identify, oracle
from .flow import generic_rank, t_separating_cut
from .graph import GraphId, MixedGraph, decode_id, encode_id, graph_from_json, graph_to_json

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INFINITE_TO_ONE = 2
EXIT_UNKNOWN = 3
EXIT_REPLAY_FAILED = 4

_CODE_RE = re.compile(r"^\d+:\d+:\d+$")


class InputError(Exception):
    pass


def _read(path: str) -> str:
    """The text of file ``path``; a file that cannot be read is an InputError."""
    try:
        return Path(path).read_text()
    except FileNotFoundError:
        raise InputError(f"no such file: {path}") from None
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def load_graph(source: str) -> MixedGraph:
    """Read a graph from an inline n:d:b code or a JSON file path."""
    if _CODE_RE.match(source.strip()):
        try:
            return decode_id(GraphId.parse(source))
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    try:
        return graph_from_json(_read(source))
    except ValueError as exc:
        raise InputError(f"{source}: {exc}") from exc


def _parse_vertices(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise InputError(f"vertex list {text!r} must be comma-separated integers") from exc


def _emit(text: str, output: str | None) -> None:
    if output:
        try:
            Path(output).write_text(text + "\n")
        except OSError as exc:
            raise InputError(f"cannot write {output}: {exc.strerror}") from None
    else:
        print(text, flush=True)  # a closed stdout raises here, inside main


def _at_least(low: int) -> Callable[[str], int]:
    """argparse type of an integer option that must be at least ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _add_common(parser: argparse.ArgumentParser, seed: bool = True, fmt: bool = True) -> None:
    parser.add_argument("--output", "-o", default=None, help="write result to file instead of stdout")
    if fmt:
        parser.add_argument("--format", choices=("json", "table"), default="table",
                            help="output format (json is the stable contract)")
    if seed:
        parser.add_argument("--seed", type=_at_least(0), default=0, help="base seed for all randomness")


def cmd_identify(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    report = identify.certify(
        g,
        max_set_size=args.max_set_size,
        verify=not args.no_verify,
        seed=args.seed,
        seeds=args.seeds,
    )
    if args.format == "json":
        _emit(report.to_json(), args.output)
    else:
        lines = []
        for edge, cert in report.certificates.items():
            method = f" via {cert.method}" if cert.method else ""
            extra = ""
            if cert.verification is not None:
                extra = f"  (max rel err {cert.verification['max_rel_err']:.2e} over {cert.verification['seeds']} seeds)"
            lines.append(f"{edge[0]}->{edge[1]}: {cert.status}{method}{extra}")
        lines.append(
            "parameterization: "
            + ("infinite-to-one (rank-deficient Jacobian)"
               if report.parameterization_infinite_to_one else "full-rank Jacobian")
        )
        _emit("\n".join(lines), args.output)
    counts = report.counts()
    if counts[identify.INFINITE_TO_ONE]:
        return EXIT_INFINITE_TO_ONE
    if counts[identify.UNKNOWN]:
        return EXIT_UNKNOWN
    return EXIT_OK


def cmd_rank(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    S = _parse_vertices(args.sources)
    T = _parse_vertices(args.targets)
    try:
        rank = generic_rank(g, S, T)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    payload: dict = {"rank": rank}
    if args.cut:
        left, right = t_separating_cut(g, S, T)
        payload["cut"] = {"L": list(left), "R": list(right)}
    if args.format == "json":
        _emit(json.dumps(payload), args.output)
    elif args.cut:
        cut = payload["cut"]
        _emit(f"rank {rank}\nL = {cut['L']}\nR = {cut['R']}", args.output)
    else:
        _emit(str(rank), args.output)
    return EXIT_OK


def cmd_decode(args: argparse.Namespace) -> int:
    try:
        gid = GraphId.parse(args.code)
        g = decode_id(gid)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _emit(graph_to_json(g), args.output)
    return EXIT_OK


def cmd_encode(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    _emit(str(encode_id(g)), args.output)
    return EXIT_OK


def cmd_sample(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    params = oracle.sample_parameters(g, args.seed)
    sigma = oracle.covariance(params)
    payload = {
        "n": g.n,
        "seed": args.seed,
        "lambda": params.lam.tolist(),
        "omega": params.omega.tolist(),
        "sigma": sigma.tolist(),
    }
    if args.format == "json":
        _emit(json.dumps(payload, indent=2), args.output)
    else:
        with np.printoptions(precision=6, suppress=True):
            _emit(
                f"lambda =\n{params.lam}\nomega =\n{params.omega}\nsigma =\n{sigma}",
                args.output,
            )
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    # discovery order, so every certificate replays after its prerequisites
    identifiable = list(identify.eid_tsid_identify(g, args.max_set_size).certificates.values())
    seeds = identify._verification_seeds(args.seed, args.seeds)
    try:
        errors = identify.verify_certificates(g, identifiable, seeds)
    except identify.CertificateError as exc:
        _emit(f"verification FAILED: {exc}", args.output)
        return EXIT_REPLAY_FAILED
    if args.format == "json":
        payload = {
            "seeds": args.seeds,
            "tolerance": identify.REPLAY_TOLERANCE,
            "edges": [
                {"edge": list(edge), "max_rel_err": err} for edge, err in sorted(errors.items())
            ],
        }
        _emit(json.dumps(payload, indent=2), args.output)
    else:
        lines = [
            f"{u}->{w}: max rel err {err:.3e} over {args.seeds} seeds"
            for (u, w), err in sorted(errors.items())
        ]
        lines.append(f"all {len(errors)} identifiable edges within {identify.REPLAY_TOLERANCE:g}")
        _emit("\n".join(lines), args.output)
    return EXIT_OK


_ALGORITHMS = ("htc", "eid", "tsid", "eid+tsid")


def _run_algorithm(name: str, g: MixedGraph, max_set_size: int | None) -> set:
    if name == "htc":
        return identify.htc_identify(g).solved_edges
    if name == "eid":
        return identify.eid_identify(g).solved_edges
    if name == "tsid":
        return identify.tsid_identify(g, max_set_size=max_set_size).solved_edges
    return identify.eid_tsid_identify(g, max_set_size).solved_edges


def cmd_corpus(args: argparse.Namespace) -> int:
    text = _read(args.corpus)
    algorithms = [a.strip() for a in args.algorithms.split(",")]
    for a in algorithms:
        if a not in _ALGORITHMS:
            raise InputError(f"unknown algorithm {a!r}; choose from {', '.join(_ALGORITHMS)}")
    rows = []
    totals = {a: 0 for a in algorithms}
    had_errors = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            g = decode_id(GraphId.parse(line))
        except ValueError as exc:
            print(f"{args.corpus}:{lineno}: skipped: {exc}", file=sys.stderr)
            had_errors = True
            continue
        row = {"code": line, "edges": len(g.directed)}
        for a in algorithms:
            solved = len(_run_algorithm(a, g, args.max_set_size))
            row[a] = solved
            if solved == len(g.directed):
                totals[a] += 1
        rows.append(row)
    summary = {
        "graphs": len(rows),
        "fully_identified": totals,
        "per_graph": rows,
    }
    if args.format == "json":
        _emit(json.dumps(summary, indent=2), args.output)
    else:
        lines = []
        for row in rows:
            cells = "  ".join(f"{a}={row[a]}/{row['edges']}" for a in algorithms)
            lines.append(f"{row['code']}  {cells}")
        lines.append(
            f"fully identified out of {len(rows)}: "
            + "  ".join(f"{a}={totals[a]}" for a in algorithms)
        )
        _emit("\n".join(lines), args.output)
    return EXIT_INPUT_ERROR if had_errors else EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit with EXIT_INPUT_ERROR.

    argparse's own code for them, 2, is EXIT_INFINITE_TO_ONE here.
    """

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


class _SubcommandParser(_Parser):
    """A subcommand's parser, which reports arguments it does not know itself.

    Otherwise they would reach the top-level parser, which reports them with
    its own usage line rather than the subcommand's.
    """

    def parse_known_args(
        self, args: Sequence[str] | None = None, namespace: argparse.Namespace | None = None
    ) -> tuple[argparse.Namespace, list[str]]:
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="semid",
        description="per-edge generic identifiability certificates for linear SEM mixed graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)

    p = sub.add_parser("identify", help="certify every directed edge")
    p.add_argument("graph", help="graph JSON file or inline n:d:b code")
    p.add_argument("--max-set-size", type=_at_least(1), default=None,
                   help="bound on |S| in the determinantal search (default: vertex count)")
    p.add_argument("--no-verify", action="store_true", help="skip the numeric replay of certificates")
    p.add_argument("--seeds", type=_at_least(1), default=3, help="number of verification seeds")
    _add_common(p)
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("rank", help="generic rank of a covariance submatrix")
    p.add_argument("graph")
    p.add_argument("-S", "--sources", required=True, help="comma-separated row vertices")
    p.add_argument("-T", "--targets", required=True, help="comma-separated column vertices")
    p.add_argument("--cut", action="store_true", help="also print a minimum t-separating cut")
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("decode", help="expand an n:d:b code to graph JSON")
    p.add_argument("code")
    _add_common(p, seed=False, fmt=False)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("encode", help="encode a graph JSON file as n:d:b")
    p.add_argument("graph")
    _add_common(p, seed=False, fmt=False)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("sample", help="sample parameters and covariance for a graph")
    p.add_argument("graph")
    _add_common(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("verify", help="replay identifiable edges over many seeds")
    p.add_argument("graph")
    p.add_argument("--seeds", type=_at_least(1), default=100)
    p.add_argument("--max-set-size", type=_at_least(1), default=None)
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("corpus", help="batch-run solvers over a file of n:d:b codes")
    p.add_argument("corpus", help="file with one n:d:b code per line, '#' comments")
    p.add_argument("--algorithms", default="htc,eid,tsid,eid+tsid",
                   help="comma-separated subset of: " + ", ".join(_ALGORITHMS))
    p.add_argument("--max-set-size", type=_at_least(1), default=None)
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_corpus)

    return parser


# Built on first use and reused: parse_args leaves the parser unchanged.
_parser: argparse.ArgumentParser | None = None


def main(argv: Sequence[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except identify.CertificateError as exc:
        print(f"certificate error: {exc}", file=sys.stderr)
        return EXIT_REPLAY_FAILED
    except oracle.DegenerateSampleError as exc:
        print(f"degenerate sample: {exc}", file=sys.stderr)
        return EXIT_REPLAY_FAILED
    except MemoryError as exc:
        # The TSID search's minor tables grow with |S|.
        detail = str(exc) or "MemoryError"
        print(f"out of memory: {detail}; a smaller --max-set-size bounds the TSID search", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except BrokenPipeError:
        # The reader closed stdout (say, `| head`).  The text it did not read
        # goes to devnull, so that the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
