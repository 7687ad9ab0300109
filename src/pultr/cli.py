"""Command-line front end.

Machine-readable output goes to stdout (one verdict line first, or the
bare edge list for constructions); human commentary goes to stderr.
Exit codes: 0 constructed/verified, 1 property refuted or no certificate,
2 guard/budget/usage errors.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from . import limits
from .adjoints import (
    arc_graph,
    arc_graph_left,
    interleaved_adjoint,
    omega_odd_path,
    omega_oriented_path,
    power_functor,
    root_functor,
    root_size_estimate,
)
from .chromatic import (
    chromatic_number,
    circular_colouring,
    circular_gallai_roy_check,
    gallai_roy_orientation,
    k_colourable,
)
from .duality import minimal_path_sproink_specs, shift_graph, verify_duality
from .engine import HomWitness
from .errors import (
    BudgetExceededError,
    ParameterError,
    ParseError,
    SizeGuardError,
)
from .formats import (
    load_template,
    parse_graph,
    serialize_graph,
    serialize_witness,
)
from .functors import gamma_functor, lambda_functor, require_valid
from .graphs import as_graph, oriented_path, orient_edges
from .suites import SUITE_NAMES, run_suite

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_RESOURCE = 2


def _read_graph(path):
    with open(path) as fh:
        return parse_graph(fh.read())


def _emit_graph(g, output, verdict_prefix):
    if output:
        with open(output, "w") as fh:
            fh.write(serialize_graph(g))
        print(f"ok {verdict_prefix} order={g.n} arcs={g.arc_count} file={output}")
    else:
        sys.stdout.write(serialize_graph(g))


def _note(msg):
    print(msg, file=sys.stderr)


def cmd_apply(args):
    g = _read_graph(args.input)
    if g.has_loop():
        _note("note: input has loops; gluing quotients are applied literally")
    functor = args.functor
    if functor in ("lambda", "gamma"):
        if not args.template:
            raise ParameterError(f"--functor {functor} needs --template")
        t = load_template(args.template)
        undirected = t.symmetry is not None
        require_valid(t, undirected_mode=undirected)
        if functor == "lambda":
            out = lambda_functor(t, g, undirected=undirected and g.is_symmetric)
        else:
            out = gamma_functor(t, g, undirected=undirected and g.is_symmetric)
    elif functor == "omega":
        out = omega_odd_path(_need(args.m, "--m"), as_graph(g))
    elif functor == "omega-path":
        if not args.path:
            raise ParameterError("--functor omega-path needs --path BITS")
        out = omega_oriented_path(oriented_path(args.path), g)
    elif functor == "delta":
        out = arc_graph(g)
    elif functor == "delta-left":
        out = arc_graph_left(g)
    elif functor == "iota":
        out = interleaved_adjoint(_need(args.m, "--m"), g)
    elif functor == "power":
        out = power_functor(_need(args.s, "--s"), _need(args.r, "--r"), as_graph(g))
    elif functor == "root":
        estimate = root_size_estimate(_need(args.r, "--r"), _need(args.s, "--s"), as_graph(g))
        _note(f"root functor intermediate size estimate: {estimate}")
        if estimate > limits.size_guard():
            raise SizeGuardError(estimate, limits.size_guard(), "root functor")
        out = root_functor(args.r, args.s, as_graph(g))
    else:
        raise ParameterError(f"unknown functor {functor!r}")
    _emit_graph(out, args.output, f"apply {functor}")
    return EXIT_OK


def _need(value, flag):
    if value is None:
        raise ParameterError(f"missing {flag}")
    return value


def cmd_chi(args):
    g = as_graph(_read_graph(args.input))
    chi = chromatic_number(g)
    print(f"chi {chi}")
    if args.witness:
        colours = k_colourable(g, chi)
        with open(args.witness, "w") as fh:
            fh.write(serialize_witness(HomWitness(g.n, chi, tuple(colours))))
        _note(f"colouring witness written to {args.witness}")
    return EXIT_OK


def cmd_chi_c(args):
    g = as_graph(_read_graph(args.input))
    frac, witness = circular_colouring(g)
    print(f"chi-c {frac.numerator}/{frac.denominator}")
    if args.witness:
        with open(args.witness, "w") as fh:
            fh.write(serialize_witness(witness))
        _note(f"circular colouring witness written to {args.witness}")
    return EXIT_OK


def _emit_certificate(cert, g, args, label):
    if cert is None:
        print(f"{label} none")
        return EXIT_REFUTED
    print(f"{label} certificate orientation={cert.orientation}")
    oriented = orient_edges(g, cert.orientation)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(serialize_graph(oriented))
        _note(f"certified orientation written to {args.output}")
    else:
        sys.stdout.write(serialize_graph(oriented))
    for spec, hit in cert.family:
        _note(f"path {spec}: {'maps' if hit else 'no hom'}")
    return EXIT_OK


def cmd_gallai_roy(args):
    g = as_graph(_read_graph(args.input))
    cert = gallai_roy_orientation(g, args.k)
    return _emit_certificate(cert, g, args, f"gallai-roy k={args.k}")


def cmd_circular_gr(args):
    g = as_graph(_read_graph(args.input))
    cert = circular_gallai_roy_check(g, args.n, args.m)
    return _emit_certificate(cert, g, args, f"circular-gr {args.n}/{args.m}")


def cmd_verify(args):
    report = run_suite(args.suite, nmax=args.nmax)
    print(report.verdict_line())
    for note in report.notes:
        _note(note)
    for failure in report.failures:
        _note(f"failure: {failure}")
    if report.artifacts and args.artifact_dir:
        os.makedirs(args.artifact_dir, exist_ok=True)
        for i, (label, graph) in enumerate(report.artifacts):
            path = os.path.join(args.artifact_dir, f"{i:03d}-{label}.g")
            with open(path, "w") as fh:
                fh.write(serialize_graph(graph))
        _note(f"counterexample artifacts written to {args.artifact_dir}")
    return EXIT_OK if report.ok else EXIT_REFUTED


def cmd_verify_duality(args):
    target = _read_graph(args.target)
    family = [_read_graph(p) for p in args.family]
    report = verify_duality(family, target, args.nmax)
    status = "PASS" if report.ok else "FAIL"
    line = f"VERDICT duality {status} checked={report.checked}"
    if not report.ok:
        line += f" direction={report.direction}"
    print(line)
    if not report.ok:
        out = args.output or "counterexample.g"
        with open(out, "w") as fh:
            fh.write(serialize_graph(report.counterexample))
        _note(f"counterexample written to {out}")
        return EXIT_REFUTED
    return EXIT_OK


def cmd_shift(args):
    out = shift_graph(args.n, args.k, directed=not args.undirected)
    _emit_graph(out, args.output, f"shift n={args.n} k={args.k}")
    return EXIT_OK


def cmd_sproinks(args):
    specs = minimal_path_sproink_specs(args.k, args.max_len)
    print(f"ok sproinks k={args.k} max-len={args.max_len} count={len(specs)}")
    for spec in specs:
        print(spec)
    if args.outdir:
        os.makedirs(args.outdir, exist_ok=True)
        for spec in specs:
            path = os.path.join(args.outdir, f"sproink-{spec}.g")
            with open(path, "w") as fh:
                fh.write(serialize_graph(oriented_path(spec)))
        _note(f"{len(specs)} oriented paths written to {args.outdir}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pultr",
        description="Graph homomorphism functors: templates, adjoints, "
        "shift graphs, circular colourings and tree duality.",
    )
    parser.add_argument(
        "--budget", type=int, default=None, help="search node budget"
    )
    parser.add_argument(
        "--unsafe-size",
        action="store_true",
        help="disable the construction size guard",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("apply", help="apply a functor to a graph file")
    p.add_argument(
        "--functor",
        required=True,
        choices=[
            "lambda",
            "gamma",
            "omega",
            "omega-path",
            "delta",
            "delta-left",
            "iota",
            "power",
            "root",
        ],
    )
    p.add_argument("--template", help="template name or file path")
    p.add_argument("--m", type=int, help="parameter for omega/iota")
    p.add_argument("--s", type=int, help="power parameter")
    p.add_argument("--r", type=int, help="subdivision/root parameter")
    p.add_argument("--path", help="orientation bits for omega-path")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.set_defaults(fn=cmd_apply)

    p = sub.add_parser("chi", help="chromatic number")
    p.add_argument("--input", required=True)
    p.add_argument("--witness", help="write the colouring witness here")
    p.set_defaults(fn=cmd_chi)

    p = sub.add_parser("chi-c", help="circular chromatic number")
    p.add_argument("--input", required=True)
    p.add_argument("--witness", help="write the circular witness here")
    p.set_defaults(fn=cmd_chi_c)

    p = sub.add_parser("gallai-roy", help="path-free orientation certificate")
    p.add_argument("--input", required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--output", help="write the certified orientation here")
    p.set_defaults(fn=cmd_gallai_roy)

    p = sub.add_parser(
        "circular-gr", help="circular orientation certificate"
    )
    p.add_argument("--input", required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--output", help="write the certified orientation here")
    p.set_defaults(fn=cmd_circular_gr)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", required=True, choices=list(SUITE_NAMES))
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument(
        "--artifact-dir", help="where to write counterexample graphs"
    )
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser(
        "verify-duality",
        help="check a duality pair over all small digraphs",
    )
    p.add_argument("--target", required=True, help="the digraph H")
    p.add_argument(
        "--family", required=True, nargs="+", help="obstruction files"
    )
    p.add_argument("--nmax", type=int, default=4)
    p.add_argument("--output", help="counterexample path")
    p.set_defaults(fn=cmd_verify_duality)

    p = sub.add_parser("shift", help="build a shift graph")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--undirected", action="store_true")
    p.add_argument("--output")
    p.set_defaults(fn=cmd_shift)

    p = sub.add_parser(
        "sproinks", help="minimal sproinks of a directed path"
    )
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--outdir", help="write the paths as edge lists here")
    p.set_defaults(fn=cmd_sproinks)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    guard = math.inf if args.unsafe_size else None
    try:
        with limits.scope(budget=args.budget, size_guard=guard):
            return args.fn(args)
    except (ParameterError, ParseError) as e:
        _note(f"error: {e}")
        return EXIT_RESOURCE
    except SizeGuardError as e:
        _note(f"size guard: {e}")
        return EXIT_RESOURCE
    except BudgetExceededError as e:
        _note(f"budget: {e}")
        return EXIT_RESOURCE
    except OSError as e:
        _note(f"io error: {e}")
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
