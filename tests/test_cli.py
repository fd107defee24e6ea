import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import internally_disjoint_r5
from genconn import cli
from genconn.cli import main
from genconn.io import parse_graph_and_set

P3 = "graph 3 2\ne 0 1\ne 1 2\n"
K4 = "graph 4 6\ne 0 1\ne 0 2\ne 0 3\ne 1 2\ne 1 3\ne 2 3\n"


@pytest.fixture
def p3(tmp_path):
    f = tmp_path / "p3.graph"
    f.write_text(P3)
    return str(f)


@pytest.fixture
def k4(tmp_path):
    f = tmp_path / "k4.graph"
    f.write_text(K4)
    return str(f)


class TestSolve:
    def test_kappa_k(self, k4, capsys):
        assert main(["solve", "kappa-k", "-g", k4, "-k", "2"]) == 0
        assert capsys.readouterr().out == "3\n"

    def test_lambda_set(self, p3, capsys):
        assert main(["solve", "lambda-set", "-g", p3, "-S", "0,2"]) == 0
        assert capsys.readouterr().out == "1\n"

    def test_decide_no(self, p3, capsys):
        assert main(["solve", "kappa-set", "-g", p3, "-S", "0,2", "--decide", "2"]) == 0
        assert capsys.readouterr().out == "no\n"

    def test_decide_yes(self, k4, capsys):
        assert main(["solve", "lambda-set", "-g", k4, "-S", "0,1", "--decide", "3"]) == 0
        assert capsys.readouterr().out == "yes\n"

    def test_witness(self, p3, capsys):
        assert main(["solve", "kappa-set", "-g", p3, "-S", "0,2", "--witness"]) == 0
        out = capsys.readouterr().out
        assert out == "1\ntree: e 0 1 ; e 1 2\n"

    def test_classical(self, k4, capsys):
        assert main(["solve", "kappa", "-g", k4]) == 0
        assert main(["solve", "lambda", "-g", k4]) == 0
        assert capsys.readouterr().out == "3\n3\n"

    def test_subset_minimum_without_k_is_usage_error(self, k4, capsys):
        assert main(["solve", "kappa-k", "-g", k4]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "kappa-k requires -k" in captured.err

    def test_missing_set_is_usage_error(self, p3, capsys):
        assert main(["solve", "kappa-set", "-g", p3]) == 2
        assert "requires -S" in capsys.readouterr().err

    def test_empty_set_flag_is_usage_error(self, tmp_path, capsys):
        # an empty -S must not fall back to the file's set line
        f = tmp_path / "with_set.graph"
        f.write_text(P3 + "set 2 0 2\n")
        assert main(["solve", "lambda-set", "-g", str(f), "-S", ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "malformed terminal list ''" in captured.err

    def test_set_from_file(self, tmp_path, capsys):
        f = tmp_path / "with_set.graph"
        f.write_text(P3 + "set 2 0 2\n")
        assert main(["solve", "lambda-set", "-g", str(f)]) == 0
        assert capsys.readouterr().out == "1\n"

    def test_empty_set_line_is_named(self, tmp_path, capsys):
        # the file has a set line, so the message must not ask for one
        f = tmp_path / "c4.graph"
        f.write_text("graph 4 4\ne 0 1\ne 1 2\ne 2 3\ne 0 3\nset 0\n")
        assert main(["solve", "lambda-set", "-g", str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "lambda-set got an empty terminal set" in captured.err
        assert "requires -S" not in captured.err

    def test_guard_exit_code(self, tmp_path, capsys):
        edges = "".join(f"e {i} {i+1}\n" for i in range(17))
        f = tmp_path / "big.graph"
        f.write_text(f"graph 18 17\n{edges}")
        assert main(["solve", "kappa-k", "-g", str(f), "-k", "2"]) == 3
        assert main(["solve", "kappa-k", "-g", str(f), "-k", "2", "--force"]) == 0

    def test_guard_env_override(self, tmp_path, capsys, monkeypatch):
        edges = "".join(f"e {i} {i+1}\n" for i in range(17))
        f = tmp_path / "big.graph"
        f.write_text(f"graph 18 17\n{edges}")
        monkeypatch.setenv("GENCONN_FORCE", "1")
        assert main(["solve", "kappa-k", "-g", str(f), "-k", "2"]) == 0

    def test_parse_error_exit_code(self, tmp_path, capsys):
        f = tmp_path / "bad.graph"
        f.write_text("graph 2 1\ne 0 0\n")
        assert main(["solve", "kappa", "-g", str(f)]) == 2
        assert "self-loop" in capsys.readouterr().err

    def test_internal_error_exit_code(self, p3, capsys, monkeypatch):
        from genconn import solver

        def broken(g, s):
            raise RuntimeError("kernel fault")

        monkeypatch.setattr(solver, "lambda_set", broken)
        assert main(["solve", "lambda-set", "-g", p3, "-S", "0,2"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: internal: RuntimeError: kernel fault" in captured.err


    def test_second_set_line_is_usage_error(self, tmp_path, capsys):
        f = tmp_path / "c4.graph"
        f.write_text("graph 4 4\ne 0 1\ne 0 3\ne 1 2\ne 2 3\nset 2 0 2\nset 2 1 3\n")
        assert main(["solve", "lambda-set", "-g", str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 7: second set line" in captured.err


class TestReusedParser:
    """One parser serves every ``main`` call in a process; no call may
    see what an earlier one parsed."""

    @pytest.fixture(autouse=True)
    def fresh_parser(self):
        cli._build_parser.cache_clear()

    def test_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_witness_flag_does_not_leak(self, p3, capsys):
        assert main(["solve", "kappa-set", "-g", p3, "-S", "0,2", "--witness"]) == 0
        assert main(["solve", "kappa-set", "-g", p3, "-S", "0,2"]) == 0
        assert capsys.readouterr().out == "1\ntree: e 0 1 ; e 1 2\n1\n"

    def test_terminal_flag_does_not_leak(self, tmp_path, capsys):
        # a triangle 0 1 2 with pendant 3: lambda{0,3} = 1, lambda{0,1} = 2
        f = tmp_path / "paw.graph"
        f.write_text("graph 4 4\ne 0 1\ne 0 2\ne 1 2\ne 2 3\nset 2 0 1\n")
        assert main(["solve", "lambda-set", "-g", str(f), "-S", "0,3"]) == 0
        assert main(["solve", "lambda-set", "-g", str(f)]) == 0
        assert capsys.readouterr().out == "1\n2\n"

    def test_force_env_read_on_every_call(self, tmp_path, capsys, monkeypatch):
        edges = "".join(f"e {i} {i+1}\n" for i in range(17))
        f = tmp_path / "big.graph"
        f.write_text(f"graph 18 17\n{edges}")
        argv = ["solve", "kappa-k", "-g", str(f), "-k", "2"]
        monkeypatch.delenv("GENCONN_FORCE", raising=False)
        assert main(argv) == 3
        monkeypatch.setenv("GENCONN_FORCE", "1")
        assert main(argv) == 0
        monkeypatch.delenv("GENCONN_FORCE")
        assert main(argv) == 3

    @pytest.mark.parametrize("argv,code", [(["solve"], 2), (["--help"], 0)])
    def test_repeated_call_same_output(self, capsys, argv, code):
        assert main(list(argv)) == code
        first = capsys.readouterr()
        assert main(list(argv)) == code
        assert capsys.readouterr() == first
        assert (first.out if code == 0 else first.err).startswith("usage: genconn")

    def test_patched_handler_is_seen(self, p3, capsys, monkeypatch):
        assert main(["solve", "lambda-set", "-g", p3, "-S", "0,2"]) == 0
        calls = []
        monkeypatch.setattr(cli, "_cmd_solve", lambda args: calls.append(args.problem) or 0)
        assert main(["solve", "lambda-set", "-g", p3, "-S", "0,2"]) == 0
        assert calls == ["lambda-set"]
        assert capsys.readouterr().out == "1\n"


def test_process_entry_point(tmp_path):
    """``python -m genconn.cli`` in a fresh interpreter: one parser, built
    on the only call."""
    f = tmp_path / "k4.graph"
    f.write_text(K4)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "genconn.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    ok = run("solve", "lambda-set", "-g", str(f), "-S", "0,1", "--witness")
    assert (ok.returncode, ok.stdout) == (
        0, "3\ntree: e 0 1\ntree: e 0 2 ; e 1 2\ntree: e 0 3 ; e 1 3\n")
    usage = run("solve")
    assert (usage.returncode, usage.stdout) == (2, "")
    assert "the following arguments are required" in usage.stderr


def test_package_entry_point(tmp_path):
    """``python -m genconn`` runs the same command line."""
    f = tmp_path / "k4.graph"
    f.write_text(K4)
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-m", "genconn", "solve", "lambda-set", "-g", str(f), "-S", "0,1"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert (out.returncode, out.stdout) == (0, "3\n")


def test_start_up_imports_no_introspection_modules():
    """Importing the CLI and the verify harness in a fresh interpreter
    loads neither ``dataclasses`` nor the modules it brings in, which
    would add a dozen modules to every start before any work."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = ("import sys; before = set(sys.modules); import genconn.cli, genconn.verify; "
             "print(*sorted({'dataclasses', 'inspect', 'ast', 'dis'} & (set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout == "\n"


def test_readme_names_every_exit_code():
    """README's "Exit codes" paragraph names, in backquotes, exactly the
    values of ``cli.EXIT_*``, so no way a run can end goes undocumented."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = readme[readme.index("Exit codes:"):].split("\n\n", 1)[0]
    named = {int(x) for x in re.findall(r"`(\d+)`", paragraph)}
    codes = {v for k, v in vars(cli).items() if k.startswith("EXIT_")}
    assert named == codes


class TestReduce:
    def test_3dm_p1_summary(self, tmp_path, capsys):
        inp = tmp_path / "a.3dm"
        inp.write_text("3dm 1 1\nt 0 0 0\n")
        out = tmp_path / "a.graph"
        assert main(["reduce", "3dm-p1", "-i", str(inp), "-o", str(out)]) == 0
        assert capsys.readouterr().out == "V=21 E=26 q=7\n"
        g, _ = parse_graph_and_set(out.read_text())
        assert g.n == 21 and g.m == 26 and g.part_tag is not None

    def test_linegraph_summary(self, p3, tmp_path, capsys):
        out = tmp_path / "out.graph"
        assert main(
            ["reduce", "linegraph", "-g", p3, "-S", "0,2", "-o", str(out)]
        ) == 0
        assert capsys.readouterr().out == "V=5 E=5 l=-\n"
        g, s = parse_graph_and_set(out.read_text())
        assert (g.n, g.m, s) == (5, 5, (0, 2))

    def test_expand_l_threshold_too_small(self, p3, tmp_path, capsys):
        out = tmp_path / "out.graph"
        assert main(
            ["reduce", "expand-l", "-g", p3, "-S", "0,2", "--l", "2", "-o", str(out)]
        ) == 2

    def test_expand_l(self, p3, tmp_path, capsys):
        out = tmp_path / "out.graph"
        assert main(
            ["reduce", "expand-l", "-g", p3, "-S", "0,2", "--l", "3", "-o", str(out)]
        ) == 0
        assert capsys.readouterr().out == "V=10 E=12 l=3\n"

    def test_expand_k(self, k4, tmp_path, capsys):
        out = tmp_path / "out.graph"
        assert main(
            ["reduce", "expand-k", "-g", k4, "-S", "0,1,2", "--k", "4", "--l", "2",
             "-o", str(out)]
        ) == 0
        assert capsys.readouterr().out == "V=7 E=10 l=2\n"
        g, s = parse_graph_and_set(out.read_text())
        assert len(s) == 4

    def test_3sat_lambda2(self, tmp_path, capsys):
        inp = tmp_path / "f.cnf"
        inp.write_text("p cnf 1 1\n1 1 1 0\n")
        out = tmp_path / "f.graph"
        assert main(["reduce", "3sat-lambda2", "-i", str(inp), "-o", str(out)]) == 0
        # r = 1, R = 1, N = 1: |V| = 2 + 2 + 4 + 1, |E| = 1 + 2 + 6 + 2
        assert capsys.readouterr().out == "V=9 E=11 l=2\n"

    def test_p1_kappa(self, tmp_path, capsys):
        inp = tmp_path / "tri.graph"
        inp.write_text("graph 3 3\ne 0 1\ne 0 2\ne 1 2\nparts 0 1 2\n")
        out = tmp_path / "tri_k.graph"
        assert main(["reduce", "p1-kappa", "-i", str(inp), "-o", str(out)]) == 0
        assert capsys.readouterr().out == "V=6 E=6 q=1\n"

    @pytest.mark.parametrize("argv", [
        ["linegraph"],
        ["expand-k", "-S", "0,1,2", "--l", "2"],
        ["expand-k", "-S", "0,1,2", "--k", "4"],
        ["expand-k", "--k", "4", "--l", "2"],
        ["expand-l", "-S", "0,1"],
        ["expand-l", "--l", "3"],
    ])
    def test_missing_terminals_or_flags(self, k4, tmp_path, capsys, argv):
        out = tmp_path / "out.graph"
        code = main(["reduce", argv[0], "-g", k4, *argv[1:], "-o", str(out)])
        assert code == 2
        assert f"{argv[0]} requires -S" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_set_flag_is_usage_error(self, tmp_path, capsys):
        src = tmp_path / "with_set.graph"
        src.write_text(P3 + "set 2 0 2\n")
        out = tmp_path / "out.graph"
        code = main(["reduce", "linegraph", "-g", str(src), "-S", "", "-o", str(out)])
        assert code == 2
        assert "malformed terminal list ''" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_set_line_is_named(self, tmp_path, capsys):
        src = tmp_path / "c4.graph"
        src.write_text("graph 4 4\ne 0 1\ne 1 2\ne 2 3\ne 0 3\nset 0\n")
        out = tmp_path / "out.graph"
        code = main(["reduce", "expand-l", "-g", str(src), "--l", "3", "-o", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "expand-l got an empty terminal set" in captured.err
        assert "requires -S" not in captured.err
        assert not out.exists()

    def test_reduce_then_solve_pipeline(self, p3, tmp_path, capsys):
        out = tmp_path / "out.graph"
        main(["reduce", "linegraph", "-g", p3, "-S", "0,2", "-o", str(out)])
        capsys.readouterr()
        assert main(["solve", "kappa-set", "-g", str(out)]) == 0
        assert capsys.readouterr().out == "1\n"


class TestVerifyCommand:
    def test_unknown_reduction(self, capsys):
        assert main(["verify", "--reduction", "R9"]) == 2
        assert "unknown reduction" in capsys.readouterr().err

    def test_r4_passes(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        code = main(["verify", "--reduction", "R4", "--max-n", "3", "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith("PASS R4 ")
        text = out.read_text()
        assert "reduction: R4" in text and "failures: 0" in text

    def test_r5_fails_honestly(self, capsys, monkeypatch):
        # a construction with a known defect must be reported with exit
        # code 1: the internally-disjoint graph packs two edge-disjoint
        # trees for unsatisfiable formulas
        internally_disjoint_r5.install(monkeypatch)
        assert main(["verify", "--reduction", "R5"]) == 1
        assert capsys.readouterr().out.startswith("FAIL R5 ")

    @pytest.mark.parametrize("max_n", ["0", "3"])
    def test_r2_beyond_guard(self, capsys, max_n):
        # q = 3 would enumerate 2^27 graphs
        assert main(["verify", "--reduction", "R2", "--max-n", max_n]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "guard 1..2" in captured.err

    @pytest.mark.parametrize("max_n", ["0", "-3"])
    def test_r5_beyond_guard(self, capsys, max_n):
        # the seeded formula sampler needs at least one variable
        assert main(["verify", "--reduction", "R5", "--max-n", max_n]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"max_vars={max_n} outside the exhaustive-generation guard" in captured.err

    def test_stdout_is_deterministic(self, capsys):
        main(["verify", "--reduction", "R1"])
        first = capsys.readouterr().out
        main(["verify", "--reduction", "R1"])
        second = capsys.readouterr().out
        assert first == second == "PASS R1 95 0\n"
