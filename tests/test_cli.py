import os

import pytest

from pultr.cli import main
from pultr.formats import parse_graph, parse_witness, serialize_graph
from pultr.graphs import (
    complete_graph,
    cycle_graph,
    directed_path,
    transitive_tournament,
)
from pultr.suites import run_suite
from pultr import engine, limits
from pultr.errors import BudgetExceededError, ParameterError


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, g in (
        ("c5", cycle_graph(5)),
        ("c7", cycle_graph(7)),
        ("k3", complete_graph(3)),
        ("t3", transitive_tournament(3)),
        ("p3", directed_path(3)),
    ):
        p = tmp_path / f"{name}.g"
        p.write_text(serialize_graph(g))
        paths[name] = str(p)
    paths["dir"] = str(tmp_path)
    return paths


def test_apply_gamma_prints_edge_list(files, capsys):
    assert main(["apply", "--functor", "gamma", "--template", "t3", "--input", files["c5"]]) == 0
    out = capsys.readouterr().out
    g = parse_graph(out)
    assert engine.isomorphic(g, complete_graph(5))


def test_apply_with_output_file(files, capsys, tmp_path):
    out_path = str(tmp_path / "out.g")
    code = main(
        [
            "apply",
            "--functor",
            "delta",
            "--input",
            files["t3"],
            "--output",
            out_path,
        ]
    )
    assert code == 0
    verdict = capsys.readouterr().out.splitlines()[0]
    assert verdict.startswith("ok apply delta")
    d = parse_graph(open(out_path).read())
    assert d.n == 3 and list(d.arcs()) == [(0, 2)]


def test_apply_iota_and_power(files, capsys):
    assert main(["apply", "--functor", "iota", "--m", "2", "--input", files["t3"]]) == 0
    capsys.readouterr()
    assert main(["apply", "--functor", "power", "--s", "3", "--r", "1", "--input", files["c5"]]) == 0
    g = parse_graph(capsys.readouterr().out)
    assert engine.isomorphic(g, complete_graph(5))


def test_apply_missing_parameter(files, capsys):
    assert main(["apply", "--functor", "omega", "--input", files["k3"]]) == 2
    assert "error" in capsys.readouterr().err


def test_chi_and_witness(files, capsys, tmp_path):
    w = str(tmp_path / "w.hom")
    assert main(["chi", "--input", files["c5"], "--witness", w]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "chi 3"
    witness = parse_witness(open(w).read())
    assert engine.verify_witness(cycle_graph(5), complete_graph(3), witness.mapping)


def test_chi_c(files, capsys):
    assert main(["chi-c", "--input", files["c7"]]) == 0
    assert capsys.readouterr().out.strip() == "chi-c 7/3"


def test_gallai_roy_exit_codes(files, capsys):
    assert main(["gallai-roy", "--input", files["c5"], "-k", "3"]) == 0
    capsys.readouterr()
    assert main(["gallai-roy", "--input", files["k3"], "-k", "2"]) == 1
    assert capsys.readouterr().out.strip().endswith("none")


def test_circular_gr(files, capsys):
    assert main(["circular-gr", "--input", files["c5"], "-n", "5", "-m", "2"]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first.startswith("circular-gr 5/2 certificate")
    assert main(["circular-gr", "--input", files["c5"], "-n", "7", "-m", "3"]) == 1


def test_verify_suite(files, capsys):
    assert main(["verify", "--suite", "yeh-zhu"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "VERDICT yeh-zhu PASS checked=2"


def test_verify_deterministic_verdict(files, capsys):
    main(["verify", "--suite", "powers-chi-c"])
    first = capsys.readouterr().out
    main(["verify", "--suite", "powers-chi-c"])
    second = capsys.readouterr().out
    assert first == second


def test_run_suite_is_single_threaded():
    assert run_suite("yeh-zhu", workers=1).verdict_line() == "VERDICT yeh-zhu PASS checked=2"
    with pytest.raises(ParameterError):
        run_suite("yeh-zhu", workers=4)


def test_verify_duality_cli(files, capsys, tmp_path):
    code = main(
        [
            "verify-duality",
            "--target",
            files["t3"],
            "--family",
            files["p3"],
            "--nmax",
            "3",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out.startswith("VERDICT duality PASS")
    out = str(tmp_path / "cex.g")
    code = main(
        [
            "verify-duality",
            "--target",
            files["t3"],
            "--family",
            files["c5"],
            "--nmax",
            "2",
            "--output",
            out,
        ]
    )
    assert code == 1
    assert os.path.exists(out)


def test_shift_cli(files, capsys):
    assert main(["shift", "-n", "4", "-k", "2"]) == 0
    g = parse_graph(capsys.readouterr().out)
    assert g.n == 6


def test_sproinks_cli(files, capsys, tmp_path):
    outdir = str(tmp_path / "spr")
    assert main(["sproinks", "-k", "4", "--max-len", "6", "--outdir", outdir]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "ok sproinks k=4 max-len=6 count=2"
    assert out[1:] == ["111", "11011"]
    assert sorted(os.listdir(outdir)) == ["sproink-11011.g", "sproink-111.g"]


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.g"
    bad.write_text("x 3\n")
    assert main(["chi", "--input", str(bad)]) == 2


def test_size_guard_exit_code(files, capsys):
    with limits.scope(size_guard=5):
        assert main(["apply", "--functor", "omega", "--m", "5", "--input", files["c5"]]) == 2
    assert "size guard" in capsys.readouterr().err


def test_budget_flag(files, capsys):
    assert main(["--budget", "1", "chi-c", "--input", files["c7"]]) == 2
    # main scopes its flags: the next call runs under the default budget
    g, h = cycle_graph(7), cycle_graph(5)
    with pytest.raises(BudgetExceededError):
        engine.hom_exists(g, h, budget=1)
    assert engine.hom_exists(g, h) is not None
    # without the flag, main inherits the enclosing scope
    with limits.scope(budget=1):
        assert main(["chi-c", "--input", files["c7"]]) == 2


def test_unsafe_size_flag_is_scoped(files, capsys):
    with limits.scope(size_guard=5):
        assert main(["--unsafe-size", "apply", "--functor", "omega", "--m", "3", "--input", files["k3"]]) == 0
        assert limits.size_guard() == 5
    assert limits.size_guard() == limits.DEFAULT_SIZE_GUARD
