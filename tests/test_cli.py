import hashlib
import os

import pytest

from pultr.cli import main
from pultr.engine import HomWitness
from pultr.formats import (
    parse_graph,
    parse_witness,
    serialize_graph,
    serialize_template,
    serialize_witness,
)
from pultr.functors import builtin_template, gamma_functor
from pultr.graphs import (
    complete_graph,
    cycle_graph,
    directed_path,
    kneser_pairs,
    path_graph,
    transitive_tournament,
)
from pultr.suites import NMAX_SUITES, SUITE_NAMES, run_suite
from pultr import chromatic, cli, engine, limits
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


def test_loops_note_only_for_gluing_functors(tmp_path, capsys):
    looped = tmp_path / "loop.g"
    looped.write_text("d 3\n0 0\n0 1\n1 2\n2 0\n")
    note = "note: input has loops; gluing quotients are applied literally\n"
    assert main(["apply", "--functor", "lambda", "--template", "t3", "--input", str(looped)]) == 0
    assert capsys.readouterr().err == note
    assert main(["apply", "--functor", "iota", "--m", "2", "--input", str(looped)]) == 0
    assert capsys.readouterr().err == ""


def test_loops_note_only_after_the_build(tmp_path, capsys):
    # An invalid call fails before the note: a looped digraph that is not
    # symmetric cannot be viewed as a graph for the power functor.
    looped = tmp_path / "loop.g"
    looped.write_text("d 3\n0 0\n0 1\n1 2\n")
    assert main(["apply", "--functor", "power", "--s", "3", "--r", "2", "--input", str(looped)]) == 2
    assert capsys.readouterr().err == "error: digraph is not symmetric; cannot view as graph\n"


def test_bare_template_names(tmp_path, capsys, monkeypatch):
    # Run from an empty directory.  A built-in name beats a file of that
    # name; any other bare name is a path.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c5.g").write_text(serialize_graph(cycle_graph(5)))
    (tmp_path / "t3").write_text(serialize_template(builtin_template("t1")))
    args = ["apply", "--functor", "gamma", "--input", "c5.g", "--template"]
    assert main([*args, "t7"]) == 2
    assert capsys.readouterr().err == "io error: [Errno 2] No such file or directory: 't7'\n"
    (tmp_path / "t7").write_text(serialize_template(builtin_template("t7")))
    for name in ("t3", "t7"):
        assert main([*args, name]) == 0
        gamma = gamma_functor(builtin_template(name), cycle_graph(5))
        assert capsys.readouterr().out == serialize_graph(gamma)


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


def test_chi_witness_takes_one_colouring_scan(files, tmp_path, monkeypatch):
    # C5 is tried with 2 colours, then coloured with 3; the witness is
    # that colouring, the one k_colourable(C5, 3) gives.
    calls = []
    k_colourable = chromatic.k_colourable

    def counting(g, k):
        calls.append(k)
        return k_colourable(g, k)

    for module in (chromatic, cli):  # each binding the command could use
        if vars(module).get("k_colourable") is k_colourable:
            monkeypatch.setattr(module, "k_colourable", counting)
    w = tmp_path / "w.hom"
    assert main(["chi", "--input", files["c5"], "--witness", str(w)]) == 0
    assert calls == [2, 3]
    colours = k_colourable(cycle_graph(5), 3)
    assert w.read_text() == serialize_witness(HomWitness(5, 3, tuple(colours)))


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


# Exit code, first stdout line, the first 16 hex digits of the sha256 of
# the whole stdout (the line, then the certified orientation as an edge
# list), and the number of stderr lines (one per family path).
CERTIFICATE_OUTPUT = {
    ("c5", "gallai-roy -k 3"): (0, "gallai-roy k=3 certificate orientation=11011", "384431a30bff6b04", 1),
    ("c5", "circular-gr -n 5 -m 2"): (0, "circular-gr 5/2 certificate orientation=11101", "30b40c4c72828eb3", 6),
    ("c5", "circular-gr -n 7 -m 3"): (1, "circular-gr 7/3 none", "c20ea1b54f65ab5c", 0),
    ("c5", "circular-gr -n 3 -m 1"): (0, "circular-gr 3/1 certificate orientation=11011", "dee455539b953eb5", 1),
    ("c5", "circular-gr -n 4 -m 1"): (0, "circular-gr 4/1 certificate orientation=11011", "32e6d7bc65932bda", 1),
    ("c7", "gallai-roy -k 3"): (0, "gallai-roy k=3 certificate orientation=1101011", "1ebf9fd45965ab48", 1),
    ("c7", "circular-gr -n 5 -m 2"): (0, "circular-gr 5/2 certificate orientation=1101101", "82dc9e6554345255", 6),
    ("c7", "circular-gr -n 7 -m 3"): (0, "circular-gr 7/3 certificate orientation=1110101", "f5993ba0b5564a85", 29),
    ("c7", "circular-gr -n 3 -m 1"): (0, "circular-gr 3/1 certificate orientation=1101011", "dd509c0324ee741d", 1),
    ("c7", "circular-gr -n 4 -m 1"): (0, "circular-gr 4/1 certificate orientation=1101011", "1a694b2c3a2a5c43", 1),
    ("k52", "gallai-roy -k 3"): (0, "gallai-roy k=3 certificate orientation=111111111111110", "dcf862bad84c3555", 1),
    ("k52", "circular-gr -n 5 -m 2"): (1, "circular-gr 5/2 none", "405bf9f8f35e766c", 0),
    ("k52", "circular-gr -n 7 -m 3"): (1, "circular-gr 7/3 none", "c20ea1b54f65ab5c", 0),
    ("k52", "circular-gr -n 3 -m 1"): (0, "circular-gr 3/1 certificate orientation=111111111111110", "def335e5493a856f", 1),
    ("k52", "circular-gr -n 4 -m 1"): (0, "circular-gr 4/1 certificate orientation=111111111111110", "86329f4d899b5b10", 1),
    ("k4", "gallai-roy -k 3"): (1, "gallai-roy k=3 none", "9c08f6acebb873eb", 0),
    ("k4", "circular-gr -n 5 -m 2"): (1, "circular-gr 5/2 none", "405bf9f8f35e766c", 0),
    ("k4", "circular-gr -n 7 -m 3"): (1, "circular-gr 7/3 none", "c20ea1b54f65ab5c", 0),
    ("k4", "circular-gr -n 3 -m 1"): (1, "circular-gr 3/1 none", "f75d0fcb5982bc09", 0),
    ("k4", "circular-gr -n 4 -m 1"): (0, "circular-gr 4/1 certificate orientation=111111", "2b873f2c7259ebff", 1),
}


def test_certificate_output(tmp_path, capsys):
    for name, g in (
        ("c5", cycle_graph(5)),
        ("c7", cycle_graph(7)),
        ("k52", kneser_pairs(5)),
        ("k4", complete_graph(4)),
    ):
        (tmp_path / f"{name}.g").write_text(serialize_graph(g))
    for (name, command), (code, line, digest, notes) in CERTIFICATE_OUTPUT.items():
        argv = command.split() + ["--input", str(tmp_path / f"{name}.g")]
        assert main(argv) == code, (name, command)
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0] == line
        assert hashlib.sha256(captured.out.encode()).hexdigest()[:16] == digest
        err = captured.err.splitlines()
        assert len(err) == notes and all(e.endswith(": no hom") for e in err)


def test_orientation_grammar_exit_code(files, capsys):
    # Orientation strings hold only 0 and 1; f and r are not accepted.
    argv = ["apply", "--functor", "omega-path", "--input", files["k3"], "--path"]
    assert main([*argv, "frf"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: orientation 'frf' is not a string of 0s and 1s\n"
    assert main([*argv, "101"]) == 0


# What `pultr verify --suite X` prints at the default nmax: the verdict
# line on stdout and the notes on stderr.
VERIFY_OUTPUT = {
    "adjunction": (
        "VERDICT adjunction PASS checked=583704",
        [
            "t3: 74x74 pairs",
            "t5: 74x74 pairs",
            "lex-k2: 74x74 pairs",
            "tensor-c3: 74x74 pairs",
            "arc-graph: 530x530 pairs",
            "iota-2: 530x530 pairs",
        ],
    ),
    "omega": (
        "VERDICT omega PASS checked=6596",
        [
            "adjunction: 6 targets x 1098 graphs",
            "chromatic identity n=2..4",
            "cycle equivalences",
            "circular-clique images of the cubic power",
        ],
    ),
    "duality": (
        "VERDICT duality PASS checked=330331",
        [
            "paths/T2: 66066 digraphs",
            "paths/T3: 66066 digraphs",
            "paths/T4: 66066 digraphs",
            "sproinks/delta(T3): 66066 digraphs",
            "sproinks/delta(T4): 66066 digraphs",
        ],
    ),
    "shift": (
        "VERDICT shift PASS checked=5",
        ["chi(delta(K8)) = 5; lift uses <= 2^5 colours"],
    ),
    "yeh-zhu": ("VERDICT yeh-zhu PASS checked=2", []),
    "ordering": (
        "VERDICT ordering PASS checked=2112",
        ["44 connected graphs x 48 grid pairs"],
    ),
    "powers-chi-c": ("VERDICT powers-chi-c PASS checked=2", []),
}

# The kernel calls and decisions of each suite at its default nmax.
KERNEL_COUNTS = {
    "adjunction": (3012, 24262),
    "omega": (196, 848),
    "duality": (353, 257),
    "shift": (0, 0),
    "yeh-zhu": (8, 676),
    "ordering": (412, 3667),
    "powers-chi-c": (4, 8),
}


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_verify_suite(suite, capsys, monkeypatch):
    verdict, notes = VERIFY_OUTPUT[suite]
    counts = [0, 0]
    solve = engine._kernel.solve

    def counting(*args):
        result = solve(*args)
        counts[0] += 1
        counts[1] += result[2]
        return result

    monkeypatch.setattr(engine._kernel, "solve", counting)
    assert main(["verify", "--suite", suite]) == 0
    captured = capsys.readouterr()
    assert captured.out == verdict + "\n"
    assert captured.err.splitlines() == notes
    assert tuple(counts) == KERNEL_COUNTS[suite]


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


def test_verify_rejects_nmax_of_fixed_suites(capsys):
    for suite in ("shift", "yeh-zhu", "powers-chi-c"):
        assert main(["verify", "--suite", suite, "--nmax", "9"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"suite {suite!r} takes no nmax" in captured.err
        with pytest.raises(ParameterError):
            run_suite(suite, nmax=9)


def test_verify_rejects_a_universe_bound_below_1(files, capsys):
    for argv in (
        ["verify", "--suite", "adjunction", "--nmax", "0"],
        ["verify", "--suite", "duality", "--nmax", "0"],
        ["verify", "--suite", "omega", "--nmax", "-1"],
        ["verify-duality", "--target", files["t3"], "--family", files["p3"], "--nmax", "0"],
        ["verify-duality", "--target", files["t3"], "--family", files["p3"], "--nmax", "-1"],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: nmax must be at least 1, got {argv[-1]}\n"
    for suite in NMAX_SUITES:
        with pytest.raises(ParameterError, match="nmax must be at least 1"):
            run_suite(suite, nmax=0)


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


def test_verify_duality_cli_looped_counterexample(capsys, tmp_path):
    # The family {P_1} against a looped target: the one-vertex loop,
    # the second digraph of the universe, is the first counterexample.
    (tmp_path / "p1.g").write_text("d 2\n0 1\n")
    (tmp_path / "h.g").write_text("d 2\n0 1\n1 1\n")
    out = tmp_path / "cex.g"
    code = main(
        [
            "verify-duality",
            "--target",
            str(tmp_path / "h.g"),
            "--family",
            str(tmp_path / "p1.g"),
            "--output",
            str(out),
        ]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "VERDICT duality FAIL checked=2 direction=false-obstruction\n"
    assert captured.err == f"counterexample written to {out}\n"
    assert out.read_bytes() == b"u 1\n0 0\n"


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


def test_size_guard_before_the_build(files, capsys):
    # The arc graph of K3 has 6 vertices and 6 arcs, and K_{5/2} has 5
    # vertices and 10 arcs; each is refused before it is built.
    with limits.scope(size_guard=11):
        assert main(["apply", "--functor", "delta", "--input", files["k3"]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "size guard" in captured.err and "arc graph" in captured.err
        assert main(["circular-gr", "-n", "5", "-m", "2", "--input", files["c5"]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "size guard" in captured.err and "circular complete graph" in captured.err


def test_budget_flag(files, capsys):
    assert main(["--budget", "1", "chi-c", "--input", files["c7"]]) == 2
    # main scopes its flags: the next call runs under the default budget
    g, h = cycle_graph(7), cycle_graph(5)
    with limits.scope(budget=1), pytest.raises(BudgetExceededError):
        engine.hom_exists(g, h)
    assert engine.hom_exists(g, h) is not None
    # without the flag, main inherits the enclosing scope
    with limits.scope(budget=1):
        assert main(["chi-c", "--input", files["c7"]]) == 2


def test_the_environment_sets_no_budget(files, capsys, monkeypatch):
    # A budget of 0 would stop the search for C7 -> C5 at its first
    # decision; only limits.scope and --budget set a budget.
    monkeypatch.setenv("PULTR_BUDGET", "0")
    assert engine.hom_exists(cycle_graph(7), cycle_graph(5)) is not None
    assert main(["chi-c", "--input", files["c7"]]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "chi-c 7/3"


def test_unsafe_size_flag_is_scoped(files, capsys):
    with limits.scope(size_guard=5):
        assert main(["--unsafe-size", "apply", "--functor", "omega", "--m", "3", "--input", files["k3"]]) == 0
        assert limits.size_guard() == 5
    assert limits.size_guard() == limits.DEFAULT_SIZE_GUARD


# Cheap extreme or malformed inputs, at least one per subcommand: the
# exit code and the start of the output (stdout, then stderr).  P1500 is
# the path on 1 500 vertices, deeper than Python's default recursion
# limit; the family of 25/12 has 11 576 916 paths.
EXTREME_INPUTS = [
    ("apply --functor lambda --template BAD --input K3", 2, "error: line 1: "),
    ("apply --functor root --r 1 --s 0 --input K3", 2, "error: s must be"),
    ("apply --functor root --r 1 --s -1 --input K3", 2, "error: s must be"),
    ("chi --input P1500", 0, "chi 2\n"),
    ("chi --input LOOP", 2, "error: a loop-free graph is needed"),
    ("chi-c --input ARC", 2, "error: digraph is not symmetric"),
    ("chi-c --input P1500", 0, "chi-c 2/1\n"),
    ("gallai-roy -k 2 --input P1500", 0, "gallai-roy k=2 certificate"),
    ("circular-gr -n 25 -m 12 --input K3", 2, "size guard: reversal path family"),
    ("verify --suite omega --nmax 9", 2, "error: "),
    ("verify-duality --target ARC --family LOOP --nmax 9", 2, "error: "),
    ("shift -n 2000 -k 2", 2, "size guard: shift graph"),
    ("sproinks -k 1200 --max-len 1200", 0, "ok sproinks k=1200 max-len=1200 count=1\n"),
]


@pytest.fixture(scope="module")
def extreme_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("extreme")
    texts = {
        "P1500": serialize_graph(path_graph(1499)),
        "K3": serialize_graph(complete_graph(3)),
        "LOOP": "u 2\n0 0\n0 1\n",
        "ARC": "d 2\n0 1\n",
        "BAD": "not a template\n",
    }
    for name, text in texts.items():
        (d / name).write_text(text)
    return {name: str(d / name) for name in texts}


@pytest.mark.parametrize("command, code, start", EXTREME_INPUTS, ids=[c for c, _, _ in EXTREME_INPUTS])
def test_no_exception_escapes_main(command, code, start, extreme_files, capsys):
    argv = [extreme_files.get(word, word) for word in command.split()]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert (captured.out + captured.err).startswith(start)
