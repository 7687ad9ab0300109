import math

import pytest

from pultr import engine
from pultr.adjoints import arc_graph
from pultr.chromatic import chromatic_number, k_colourable
from pultr.duality import (
    SproinkRecipe,
    delta_colouring_lift,
    minimal_path_sproink_specs,
    minimal_path_sproinks,
    shift_graph,
    sproink,
    validate_recipe,
    verify_duality,
)
from pultr.engine import HomWitness
from pultr.errors import ParameterError
from pultr.graphs import (
    Digraph,
    complete_graph,
    directed_cycle,
    directed_path,
    odd_girth,
    oriented_path,
    symmetrization,
    tensor_product,
    transitive_tournament,
)


def test_shift_graph_examples():
    assert engine.isomorphic(shift_graph(4, 2), arc_graph(transitive_tournament(4)))
    assert engine.isomorphic(shift_graph(5, 3), arc_graph(shift_graph(5, 2)))
    assert shift_graph(5, 2).n == 10
    with pytest.raises(ParameterError):
        shift_graph(3, 1)


def test_shift_graph_odd_girth():
    for n, k in ((6, 2), (7, 3), (9, 4)):
        og = odd_girth(shift_graph(n, k, directed=False))
        assert og >= 2 * k + 1
        if n >= 2 * k + 1:
            assert og == 2 * k + 1


def test_shift_chromatic_log_bound():
    for n in (4, 8):
        chi = chromatic_number(shift_graph(n, 2, directed=False))
        assert chi >= math.ceil(math.log2(n))


def test_delta_colouring_lift():
    k4 = complete_graph(4)
    delta = arc_graph(k4)
    sym = symmetrization(delta)
    chi = chromatic_number(sym)
    col = k_colourable(sym, chi)
    lift = delta_colouring_lift(k4, HomWitness(delta.n, chi, tuple(col)))
    assert engine.verify_witness(k4, complete_graph(1 << chi), lift.mapping)


def test_delta_colouring_lift_rejects_improper():
    c3 = directed_cycle(3)
    with pytest.raises(ParameterError):
        delta_colouring_lift(c3, HomWitness(3, 1, (0, 0, 0)))


def test_delta_colouring_lift_empty():
    h = Digraph(3)
    lift = delta_colouring_lift(h, HomWitness(0, 1, ()))
    assert lift.mapping == (0, 0, 0)


def test_minimal_path_sproinks_expansions():
    assert minimal_path_sproink_specs(3, 12) == ["11"]
    assert minimal_path_sproink_specs(4, 6) == ["111", "11011"]
    assert minimal_path_sproink_specs(5, 4) == ["1111"]
    assert minimal_path_sproink_specs(4, 2) == []
    with pytest.raises(ParameterError):
        minimal_path_sproink_specs(2, 10)


def _minimal_recipe_for_path(k):
    """All interior pieces are single arcs, the ends are single vertices;
    gluing along the k-arc directed path."""
    base = directed_path(k)
    pieces = []
    attachments = []
    arcs = list(base.arc_list)
    for u in range(k + 1):
        if u == 0:
            pieces.append((Digraph(1), (1,)))
        elif u == k:
            pieces.append((Digraph(1), (0,)))
        else:
            pieces.append((Digraph(2, [(0, 1)]), (0, 1)))
        att = {}
        for ei, (a, b) in enumerate(arcs):
            if a == u:
                att[ei] = 0 if u == 0 else 1
            elif b == u:
                att[ei] = 0
        attachments.append(att)
    return SproinkRecipe(base, tuple(pieces), tuple(attachments))


def test_sproink_of_path_is_minimal_spec():
    recipe = _minimal_recipe_for_path(3)
    assert validate_recipe(recipe) == []
    s = sproink(recipe)
    assert engine.isomorphic(s, oriented_path("11"))
    s4 = sproink(_minimal_recipe_for_path(4))
    assert engine.isomorphic(s4, oriented_path("111"))


def test_sproink_of_single_arc_base():
    # base = one arc; with both pieces K_1 the two attachment points are
    # identified, leaving the one-vertex tree (the correct obstruction for
    # the empty arc graph of the one-vertex tournament)
    base = directed_path(1)
    recipe = SproinkRecipe(
        base,
        ((Digraph(1), (1,)), (Digraph(1), (0,))),
        ({0: 0}, {0: 0}),
    )
    assert validate_recipe(recipe) == []
    s = sproink(recipe)
    assert s.n == 1 and s.arc_count == 0
    # with an arc piece at the tail the sproink is the single arc
    recipe = SproinkRecipe(
        base,
        ((Digraph(2, [(0, 1)]), (0, 1)), (Digraph(1), (0,))),
        ({0: 1}, {0: 0}),
    )
    s = sproink(recipe)
    assert engine.isomorphic(s, directed_path(1))


def test_sproink_rejects_bad_levels():
    recipe = _minimal_recipe_for_path(3)
    # flip one piece's level map so an arc goes 1 -> 0
    pieces = list(recipe.pieces)
    pieces[1] = (pieces[1][0], (1, 0))
    bad = SproinkRecipe(recipe.base, tuple(pieces), recipe.attachments)
    assert validate_recipe(bad)
    with pytest.raises(ParameterError):
        sproink(bad)


def test_sproinks_are_obstructions_for_arc_graphs():
    # any sproink of the k-arc path fails to map into delta(T_k), because
    # the path fails to map into T_k
    for k in (2, 3, 4):
        target = arc_graph(transitive_tournament(k))
        for spec in minimal_path_sproink_specs(max(k, 3), 9):
            s = oriented_path(spec)
            if k >= 3:
                assert engine.hom_exists(s, target) is None


def test_verify_duality_pass_and_fail():
    rep = verify_duality([directed_path(3)], transitive_tournament(3), 3)
    assert rep.ok and rep.checked == 530
    rep = verify_duality([directed_path(2)], transitive_tournament(3), 3)
    assert not rep.ok
    assert rep.direction == "false-obstruction"
    # P_2 maps into T_3 itself, so the very first miss is a graph that
    # maps to H while "obstructed"
    assert engine.hom_exists(rep.counterexample, transitive_tournament(3))


def test_verify_duality_missing_obstruction():
    # an empty family can never explain non-colourability
    rep = verify_duality([], transitive_tournament(2), 2)
    assert not rep.ok and rep.direction == "missing-obstruction"


def test_verify_duality_escalates_truncation():
    # truncating the sproink family too hard loses long obstructions; the
    # factory doubling must recover them
    k = 4
    target = arc_graph(transitive_tournament(k))
    short = minimal_path_sproinks(k, 3)  # only the 3-arc path
    rep = verify_duality(
        short,
        target,
        3,
        family_factory=lambda length: minimal_path_sproinks(k, length),
        initial_len=3,
    )
    assert rep.ok
    assert rep.truncation == (3, 6)


def test_duality_pairing_closure():
    # if (F,H) and (F',H') are dualities then (F u F', H x H') is one
    f1, h1 = [directed_path(2)], transitive_tournament(2)
    f2, h2 = [directed_path(3)], transitive_tournament(3)
    assert verify_duality(f1, h1, 3).ok
    assert verify_duality(f2, h2, 3).ok
    rep = verify_duality(f1 + f2, tensor_product(h1, h2), 3)
    assert rep.ok
