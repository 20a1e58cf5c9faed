"""Command-line surface.

Exit codes: 0 success, 1 usage error, 2 input read/parse/validation error,
3 verification failure (a ping-pong counterexample, an averaging norm
estimate above its bound, or a norm estimate that did not converge, since
a norm that was not established is never a pass).  Verdicts that merely
report "conditions not met" are data and exit 0.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from gbs import indices, opsim, pingpong, tree
from gbs.graphs import GraphError, parse_graph
from gbs.indices import modular_value
from gbs.words import GbsGroup, WordError


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process: parsing leaves it unchanged."""
    p = _Parser(prog="gbs", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, help_):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("file", help="graph description file")
        return sp

    add("check", "sufficient-condition verdict as JSON")

    sp = add("reduce", "canonical form of a word")
    sp.add_argument("word")

    add("indices", "index report (kappa, properness, N) as JSON")

    sp = add("tree", "export a ball of the covering tree")
    sp.add_argument("--radius", type=int, default=6)
    sp.add_argument("--format", choices=("dot", "json"), default="dot")

    sp = add("pingpong", "ping-pong inclusions proven for every f, JSON report")
    sp.add_argument("--edge", required=True)
    sp.add_argument("-L", type=int, required=True, dest="big_l",
                    help="edge-letter bound of g")
    sp.add_argument("--word-bound", type=int, required=True,
                    help="edge-letter bound of the f counted in pairs_checked"
                    " (the proof covers every f)")
    sp.add_argument("--exp-bound", type=int, required=True,
                    help="exponent bound of g and of the counted f")

    sp = add("normest", "averaging norm decay table as CSV")
    sp.add_argument("--edge", required=True)
    sp.add_argument("--radius", type=int, default=6)
    sp.add_argument("--m", default="4,9,16")
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--tol", type=float, default=1e-6)

    sp = add("modular", "modular value of a word as a rational")
    sp.add_argument("word")
    return p


def _load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise GraphError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise GraphError(f"{path}: not UTF-8 text ({exc})") from None
    return parse_graph(text)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (GraphError, WordError, pingpong.PingPongError,
            opsim.OpsimError) as exc:
        print(f"gbs: {exc}", file=sys.stderr)
        return 2
    except opsim.NormConvergenceError as exc:
        print(f"gbs: {exc}", file=sys.stderr)
        return 3


def _printed(text_of, value) -> str:
    """``text_of(value)``; an integer past Python's int-to-string limit in
    it is a WordError."""
    try:
        return text_of(value)
    except ValueError:
        raise WordError("result has an integer too long to print") from None


def _dispatch(args) -> int:
    graph, spanning = _load(args.file)
    group = GbsGroup(graph, spanning)

    if args.command == "check":
        verdict = indices.check_theorem(graph, spanning)
        print(json.dumps(verdict.to_json_dict()))
        return 0

    if args.command == "reduce":
        print(_printed(group.to_string, group.from_string(args.word)))
        return 0

    if args.command == "indices":
        print(json.dumps(indices.index_report(graph, spanning).to_json_dict()))
        return 0

    if args.command == "tree":
        b = tree.ball(group, args.radius)
        if args.format == "dot":
            sys.stdout.write(b.to_dot())
        else:
            print(json.dumps(b.to_json_dict()))
        return 0

    if args.command == "pingpong":
        pingpong.check_search(group, args.big_l, args.word_bound,
                              args.exp_bound)
        data = pingpong.build_ce2(group, args.edge, args.big_l)
        report = pingpong.verify_pingpong(data, args.word_bound, args.exp_bound)
        print(json.dumps(report.to_json_dict()))
        return 0 if report.passed else 3

    if args.command == "normest":
        try:
            m_values = [int(s) for s in args.m.split(",") if s]
        except ValueError:
            raise opsim.OpsimError(f"bad m list {args.m!r}") from None
        if not m_values or any(m <= 0 for m in m_values):
            raise opsim.OpsimError(f"bad m list {args.m!r}")
        e = graph.edge_id(args.edge)
        a = group.vertex_generator(graph.terminus[e])
        t = group.edge_generator(e)
        g = t * a * t.inverse()
        f = opsim.FormalElement.lam(g) + opsim.FormalElement.lam(g.inverse())
        big_l = max(h.edge_letter_count(e) for h in f.terms)
        data = pingpong.build_ce2(group, e, big_l)
        table = opsim.powers_decay_experiment(
            data, f, m_values, args.radius, seed=args.seed, tol=args.tol)
        sys.stdout.write(table.to_csv())
        return 0 if table.all_passed else 3

    if args.command == "modular":
        print(_printed(str, modular_value(group.from_string(args.word))))
        return 0

    raise AssertionError(args.command)


if __name__ == "__main__":
    sys.exit(main())
