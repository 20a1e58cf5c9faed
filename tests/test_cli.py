import json
import shlex
import subprocess
import sys

import pytest

from gbs import cli
from gbs.words import MAX_EDGE_LENGTH

from conftest import FIXTURES, SUBPROCESS_ENV, bs_text

BS23 = str(FIXTURES / "bs23.gbs")
GBS2 = str(FIXTURES / "gbs2.gbs")


def run(*args, timeout=None):
    return subprocess.run([sys.executable, "-m", "gbs", *args],
                          capture_output=True, text=True, env=SUBPROCESS_ENV,
                          timeout=timeout)


def test_check(tmp_path):
    r = run("check", BS23)
    assert r.returncode == 0
    d = json.loads(r.stdout)
    assert d["sufficient_conditions_met"] is True
    assert d["witness_edge"] == "y"
    # a failing verdict is data, still exit 0
    p = tmp_path / "bs22.gbs"
    p.write_text(bs_text(2, 2))
    r = run("check", str(p))
    assert r.returncode == 0
    assert json.loads(r.stdout)["sufficient_conditions_met"] is False


def readme_examples(text):
    """(argv, shown output) for every ``$ gbs ...`` line in the shell
    blocks of README; the output is the block's lines up to the next
    command."""
    examples, in_sh, shown = [], False, None
    for line in text.splitlines():
        if line.startswith("```"):
            in_sh, shown = line == "```sh", None
        elif in_sh and line.startswith("$ "):
            shown = []
            examples.append((shlex.split(line[2:]), shown))
        elif shown is not None:
            shown.append(line)
    return [(argv, "\n".join(out)) for argv, out in examples]


def test_readme_examples(capsys, monkeypatch):
    """Each README example, run through cli.main from the repo root, exits 0
    and prints what README shows (JSON compared parsed, since README wraps
    it)."""
    root = FIXTURES.parent.parent
    examples = readme_examples((root / "README.md").read_text())
    assert len(examples) >= 2
    monkeypatch.chdir(root)
    for argv, shown in examples:
        assert argv[0] == "gbs"
        assert cli.main(argv[1:]) == 0, argv
        out = capsys.readouterr().out
        if shown.startswith("{"):
            assert json.loads(out) == json.loads(shown), argv
        else:
            assert out.strip() == shown.strip(), argv


def test_reduce():
    r = run("reduce", BS23, "g[y]*a[P]^3*g[y]^-1")
    assert r.returncode == 0
    assert r.stdout.strip() == "a[P]^2"


def test_indices():
    r = run("indices", GBS2)
    d = json.loads(r.stdout)
    assert d["kappa"]["y"] == [5, 6]
    assert d["big_N"]["y"] == 24


def test_modular():
    r = run("modular", BS23, "g[y]")
    assert r.stdout.strip() == "2/3"
    r = run("modular", BS23, "a[P]*g[y]^-1*a[P]*g[y]")
    assert r.stdout.strip() == "1"


def test_tree_formats():
    r = run("tree", BS23, "--radius", "1", "--format", "json")
    d = json.loads(r.stdout)
    assert len(d["vertices"]) == 6 and d["radius"] == 1
    r = run("tree", BS23, "--radius", "1")
    assert r.stdout.startswith("graph ball {")


@pytest.mark.parametrize("argv", [
    ("check", BS23), ("check", GBS2),
    ("indices", BS23), ("indices", GBS2),
    ("tree", BS23, "--radius", "0", "--format", "json"),
    ("tree", GBS2, "--radius", "3", "--format", "json"),
    ("tree", str(FIXTURES / "chain3.gbs"), "--radius", "2", "--format",
     "json"),
    ("pingpong", BS23, "--edge", "y", "-L", "1", "--word-bound", "1",
     "--exp-bound", "2"),
    ("pingpong", GBS2, "--edge", "~y", "-L", "2", "--word-bound", "1",
     "--exp-bound", "1"),
], ids=["check-bs23", "check-gbs2", "indices-bs23", "indices-gbs2",
        "tree-bs23-r0", "tree-gbs2-r3", "tree-chain3-r2", "pingpong-bs23",
        "pingpong-gbs2"])
def test_json_commands_print_one_json_line(argv, capsys):
    """Each JSON command prints exactly one newline-terminated line that
    ``json.loads`` accepts, whether ``json.dumps`` or a hand-written
    formatter wrote it."""
    assert cli.main(list(argv)) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n") and out.count("\n") == 1, argv
    assert isinstance(json.loads(out), dict)


def test_pingpong_cli():
    r = run("pingpong", BS23, "--edge", "y", "-L", "1",
            "--word-bound", "1", "--exp-bound", "2")
    assert r.returncode == 0
    d = json.loads(r.stdout)
    assert d["pass"] is True and d["counterexample"] is None
    assert d["pairs_checked"] > 0


def test_pingpong_cli_precondition_error(tmp_path):
    """An improper edge (BS(1, 2)) and a tree edge exit 2 with a message."""
    p = tmp_path / "bs12.gbs"
    p.write_text(bs_text(1, 2))
    for path, edge, message in ((str(p), "y", "y is improper"),
                                (str(FIXTURES / "two_vertex.gbs"), "w",
                                 "w is a tree edge")):
        r = run("pingpong", path, "--edge", edge, "-L", "1",
                "--word-bound", "1", "--exp-bound", "2")
        assert r.returncode == 2, r.stdout
        assert r.stderr.startswith(f"gbs: {message}") and r.stdout == ""


def test_normest_cli_and_determinism():
    args = ("normest", BS23, "--edge", "y", "--radius", "4", "--m", "4,9",
            "--seed", "42", "--tol", "1e-6")
    r1 = run(*args)
    r2 = run(*args)
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout
    lines = r1.stdout.splitlines()
    assert lines[0] == "m,bound,estimate,ball_size,iterations"
    assert len(lines) == 3


def test_exit_codes(tmp_path):
    assert run("unknown-subcommand").returncode == 1
    assert run("tree", BS23, "--format", "pdf").returncode == 1
    assert run("check", str(tmp_path / "missing.gbs")).returncode == 2
    bad = tmp_path / "bad.gbs"
    bad.write_text("vertex P\nedge y : P -> P alpha 0 2\n")
    assert run("check", str(bad)).returncode == 2
    r = run("reduce", BS23, "a[P)^")
    assert r.returncode == 2
    r = run("reduce", BS23, f"g[y]^{MAX_EDGE_LENGTH + 1}")
    assert r.returncode == 2, r.stdout
    assert "edge-length cap" in r.stderr and "Traceback" not in r.stderr
    r = run("reduce", BS23, "*".join([f"g[y]^{MAX_EDGE_LENGTH}"] * 20))
    assert r.returncode == 2 and r.stdout == ""
    assert "edge-length cap" in r.stderr and "Traceback" not in r.stderr
    r = run("reduce", BS23, "g[y]^2^3")
    assert r.returncode == 2, r.stdout
    assert "misplaced exponent" in r.stderr and r.stdout == ""
    for word_bound, exp_bound in (("1", "-1"), ("-1", "2")):
        r = run("pingpong", BS23, "--edge", "y", "-L", "1",
                "--word-bound", word_bound, "--exp-bound", exp_bound)
        assert r.returncode == 2, r.stdout
        assert "nonnegative" in r.stderr
    # no g outside <a^9> within these bounds: nothing to prove
    r = run("pingpong", BS23, "--edge", "y", "-L", "0", "--word-bound", "0",
            "--exp-bound", "0")
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == "gbs: no g outside <a^9> within the bounds\n"
    for m_list in ("4,x", ",", "-3", "4,0"):
        r = run("normest", BS23, "--edge", "y", "--radius", "2", "--m", m_list)
        assert r.returncode == 2 and r.stdout == ""
        assert "bad m list" in r.stderr and "Traceback" not in r.stderr
    for tol in ("0", "-1", "nan"):
        r = run("normest", BS23, "--edge", "y", "--radius", "2", "--tol", tol)
        assert r.returncode == 2, r.stdout
        assert "tol must be finite and positive" in r.stderr
    r = run("normest", BS23, "--edge", "y", "--radius", "2", "--seed", "-1")
    assert r.returncode == 2, r.stdout
    assert r.stderr.startswith("gbs: seed must be nonnegative")
    assert "Traceback" not in r.stderr and r.stdout == ""
    r = run("tree", BS23, "--radius", "3000000")
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == "gbs: radius 3000000 ball exceeds the cap of 500000 vertices\n"
    r = run("normest", BS23, "--edge", "y", "--radius", "40")
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == "gbs: radius 40 ball exceeds the cap of 200000 elements\n"
    # pingpong bounds whose search passes the tree caps are refused before
    # r1^L or any enumeration; without the cap each ran for over 20 s or
    # ran out of memory
    wide = tmp_path / "wide.gbs"
    wide.write_text(f"vertex P\nedge y : P -> P alpha {'7' * 3000} "
                    f"{'5' * 3000}\n")
    for path, big_l, word_bound, exp_bound, message in (
            (BS23, "30", "1", "1", "radius 30 ball exceeds the cap of "
             "500000 vertices"),
            (BS23, "1000000000", "1", "1", "radius 1000000000 ball exceeds "
             "the cap of 500000 vertices"),
            (BS23, "1", "30", "1", "radius 30 ball exceeds the cap of "
             "500000 vertices"),
            (BS23, "1", "1", "100000000", "radius 1 ball times 200000001 "
             "exponents exceeds the cap of 500000 words"),
            (str(wide), "1", "1", "1", "radius 1 ball exceeds the cap of "
             "500000 vertices")):
        r = run("pingpong", path, "--edge", "y", "-L", big_l, "--word-bound",
                word_bound, "--exp-bound", exp_bound, timeout=10)
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr == f"gbs: {message}\n"
    r = run("tree", str(tmp_path), "--radius", "1")
    assert r.returncode == 2, r.stdout
    assert "Is a directory" in r.stderr and "Traceback" not in r.stderr
    binary = tmp_path / "utf16.gbs"
    binary.write_bytes(b"\xff\xfevertex P\n")
    r = run("check", str(binary))
    assert r.returncode == 2, r.stdout
    assert "not UTF-8" in r.stderr and "Traceback" not in r.stderr


def test_alpha_past_int_string_limit_exits_2(tmp_path, capsys):
    huge = tmp_path / "huge.gbs"
    huge.write_text(f"vertex P\nedge y : P -> P alpha {'1' * 5000} 3\n")
    assert cli.main(["check", str(huge)]) == 2
    assert capsys.readouterr() == ("", "gbs: line 2: alpha too long\n")


def test_result_past_int_string_limit_exits_2(capsys):
    """A result whose integer has more digits than Python prints: 3^20000
    in a modular value, 3^10000 as an exponent of a reduced word."""
    for argv in (["modular", BS23, "g[y]^20000"],
                 ["reduce", BS23, f"g[y]^-10000*a[P]^{2 ** 10000}*g[y]^10000"]):
        assert cli.main(argv) == 2, argv[0]
        assert capsys.readouterr() == (
            "", "gbs: result has an integer too long to print\n")


def test_normest_refuses_ball_blind_to_f(capsys):
    """At radius 1 on BS(2,3) f's operator is zero, so every bound would
    be 0 and the table would check nothing."""
    assert cli.main(["normest", BS23, "--edge", "y", "--radius", "1"]) == 2
    assert capsys.readouterr() == (
        "", "gbs: f's operator on the radius 1 ball is zero: every bound "
        "would be 0 and check nothing\n")


def test_parser_reuse_matches_fresh_runs(capsys):
    """The parser is built once per process: a sequence of commands through
    one ``cli.main``, usage and input errors included, gives each command's
    exit code and output from a fresh interpreter."""
    commands = [
        ("tree", BS23, "--format", "pdf"),
        ("check", BS23),
        ("pingpong", BS23, "--edge", "y", "-L", "1", "--word-bound", "1",
         "--exp-bound", "2"),
        ("normest", BS23, "--edge", "y", "--radius", "2", "--seed", "-1"),
        ("reduce", BS23, "g[y]*a[P]^3*g[y]^-1"),
        ("normest", BS23, "--edge", "y", "--radius", "2", "--m", "4,9"),
    ]
    codes = []
    for argv in commands:
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        fresh = run(*argv)
        assert (code, out, err) == (fresh.returncode, fresh.stdout,
                                    fresh.stderr), argv
        codes.append(code)
    assert codes == [1, 0, 0, 2, 0, 0]


_IMPORT_PROBE = """\
import sys
code = 0
{statement}
loaded = {{m.split(".")[0] for m in sys.modules}} & {watched!r}
sys.stderr.write("\\n" + ",".join(sorted(loaded)))
sys.exit(code)
"""
_NUMERIC = {"numpy", "scipy"}
_MAIN = "from gbs import cli\ncode = cli.main(sys.argv[1:])"


@pytest.mark.parametrize("statement, argv", [
    ("import gbs", ()),
    ("import gbs.cli", ()),
    (_MAIN, ("check", BS23)),
    (_MAIN, ("indices", BS23)),
    (_MAIN, ("reduce", BS23, "g[y]*a[P]^3*g[y]^-1")),
    (_MAIN, ("modular", BS23, "g[y]")),
    (_MAIN, ("tree", BS23, "--radius", "2", "--format", "json")),
    (_MAIN, ("tree", BS23, "--radius", "2", "--format", "dot")),
    (_MAIN, ("pingpong", BS23, "--edge", "y", "-L", "1",
             "--word-bound", "1", "--exp-bound", "2")),
], ids=["import-gbs", "import-cli", "check", "indices", "reduce", "modular",
        "tree-json", "tree-dot", "pingpong"])
def test_exact_commands_leave_numeric_stack_unloaded(statement, argv):
    """Only the norm experiment computes in floating point; every other
    command, and importing the package or the CLI, must not load numpy or
    scipy, nor dataclasses or inspect (a dozen modules of import time in
    every process).  A fresh interpreter per case, so nothing is loaded
    already."""
    code = _IMPORT_PROBE.format(statement=statement,
                                watched=_NUMERIC | {"dataclasses", "inspect"})
    r = subprocess.run([sys.executable, "-c", code, *argv],
                       capture_output=True, text=True, env=SUBPROCESS_ENV)
    assert r.returncode == 0, r.stderr
    assert r.stderr.rsplit("\n", 1)[-1] == ""


def test_normest_loads_numeric_stack():
    code = _IMPORT_PROBE.format(statement=_MAIN, watched=_NUMERIC)
    r = subprocess.run([sys.executable, "-c", code, "normest", BS23,
                        "--edge", "y", "--radius", "2", "--m", "4,9"],
                       capture_output=True, text=True, env=SUBPROCESS_ENV)
    assert r.returncode == 0, r.stderr
    assert r.stderr.rsplit("\n", 1)[-1] == "numpy,scipy"
    assert r.stdout == ("m,bound,estimate,ball_size,iterations\n"
                        "4,1.41421356237,0,17,0\n"
                        "9,0.942809041582,0,17,0\n")


def test_normest_nonconvergence_exits_3(monkeypatch, capsys):
    from gbs import cli, opsim

    def stalled(mat, tol, max_iter, seed):
        raise opsim.NormConvergenceError(0.5, max_iter)

    monkeypatch.setattr(opsim, "_power_iteration", stalled)
    code = cli.main(["normest", BS23, "--edge", "y", "--radius", "2"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err.startswith("gbs: no convergence after 100000 iterations")


def test_normest_m_past_the_letter_cap_exits_2(monkeypatch, capsys):
    """z_1 .. z_m have m len(z_1) + len(r1) m (m - 1) / 2 letters (10 and 2
    on BS(2,3)): --m 100000 needs 10,000,900,000 and exits 2 before the
    ball is built or averaging_elements forms a conjugator.  The check
    can fail both ways: m = 4 takes 52 letters, at a cap of 52 it runs
    and at 51 it is refused."""
    from gbs import cli, opsim

    def never(*args):
        raise AssertionError("formed past the cap")

    with monkeypatch.context() as patch:
        patch.setattr(opsim, "averaging_elements", never)
        patch.setattr(opsim, "enumerate_ball", never)
        code = cli.main(["normest", BS23, "--edge", "y", "--radius", "2",
                         "--m", "4,100000,9"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == ("gbs: m = 100000 conjugators have 10000900000 letters, "
                   "past the cap of 500000\n")
    argv = ["normest", BS23, "--edge", "y", "--radius", "2", "--m", "4"]
    monkeypatch.setattr(opsim, "MAX_CONJUGATOR_LETTERS", 52)
    assert cli.main(argv) == 0
    monkeypatch.setattr(opsim, "MAX_CONJUGATOR_LETTERS", 51)
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert err == ("gbs: m = 4 conjugators have 52 letters, past the cap "
                   "of 51\n")


def test_pingpong_counterexample_exits_3(monkeypatch, capsys):
    from gbs import cli, pingpong

    real_verify = pingpong.verify_pingpong

    def sabotaged(data, word_bound, exponent_bound):
        return real_verify(pingpong.make_negative_control(data),
                           word_bound, exponent_bound)

    monkeypatch.setattr(pingpong, "verify_pingpong", sabotaged)
    code = cli.main(["pingpong", BS23, "--edge", "y", "-L", "1",
                     "--word-bound", "1", "--exp-bound", "2"])
    out = json.loads(capsys.readouterr().out)
    assert code == 3
    assert out["pass"] is False
    assert out["counterexample"]


def test_every_fixture_parses_and_roundtrips():
    from gbs.graphs import parse_graph
    for path in sorted(FIXTURES.glob("*.gbs")):
        graph, spanning = parse_graph(path.read_text())
        text = graph.to_text(spanning)
        graph2, spanning2 = parse_graph(text)
        assert graph2.to_text(spanning2) == text
