"""CNF handling, normalization, and the satisfiability-to-biclique-containment
gadget, with equisatisfiability checked by an independent truth-table walker."""

import json
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import support
from support import reference
from bicliques.graphs import (
    CapacityError,
    Graph,
    InputError,
    contains_induced_c4,
    contains_k4,
)
from bicliques.oracle import maximal_bicliques
from bicliques.reduction import (
    CnfFormula,
    biclique_containment,
    build_instance,
    certify_reduction,
    decode_assignment,
    evaluate,
    find_satisfying_assignment,
    literal_vertex,
    normalization_violations,
    normalize,
    read_dimacs,
    write_dimacs,
    write_instance,
)

PHI = CnfFormula.of(5, [(1, -2, 4), (2, -3, -5), (1, 3, 5)])


def test_formula_validation():
    with pytest.raises(InputError):
        CnfFormula.of(2, [(0,)])
    with pytest.raises(InputError):
        CnfFormula.of(2, [(3,)])
    with pytest.raises(InputError):
        CnfFormula.of(4, [(1, 2, 3, 4)])
    with pytest.raises(InputError):
        CnfFormula(-1, ())
    assert CnfFormula.of(2, [(), (1, -2)]).clauses == ((), (1, -2))


def test_evaluate_and_truth_table():
    assert evaluate(PHI, (True,) * 5)
    assert not evaluate(CnfFormula.of(1, [(1,), (-1,)]), (True,))
    with pytest.raises(InputError):
        evaluate(PHI, (True, False))
    found = find_satisfying_assignment(PHI)
    assert found is not None and evaluate(PHI, found)
    assert find_satisfying_assignment(CnfFormula.of(1, [(1,), (-1,)])) is None
    with pytest.raises(CapacityError):
        find_satisfying_assignment(CnfFormula.of(21, [(1,)]))


def test_normalization_violation_detection():
    assert not normalization_violations(PHI)
    msgs = normalization_violations(
        CnfFormula.of(4, [(), (1, -1, 2), (1, 2, 3), (1, 2)]))
    assert any("empty" in m for m in msgs)
    assert any("negation" in m for m in msgs)
    assert any("variable 4" in m for m in msgs)
    assert any("share two or more" in m for m in msgs)


def test_unused_variables_are_named_up_to_a_bound():
    """The first 20 variables that occur in no clause are named and the
    rest counted, so a huge declared variable count is refused at once with
    a short message.  When each was named, 3 * 10**6 variables built a
    112 MB message in 1 to 2 s, and 10**12 ran out of memory; the smaller
    count comes first so that such a fault fails here before it does."""
    for num_vars in (3 * 10 ** 6, 10 ** 12):
        start = time.perf_counter()
        with pytest.raises(InputError) as info:
            build_instance(CnfFormula.of(num_vars, [(1,)]))
        assert time.perf_counter() - start < 1
        message = str(info.value)
        assert len(message) < 2000
        assert message.endswith(
            f"variable 21 occurs in no clause; and {num_vars - 21} more "
            "variables occur in no clause")
    unused = [v for v in range(2, 23) if v != 5]  # 20 of them, each named
    assert normalization_violations(CnfFormula.of(23, [(1, 5), (23,)])) == \
        [f"variable {v} occurs in no clause" for v in unused]
    assert normalization_violations(CnfFormula.of(24, [(1, 5), (23,)])) == \
        [f"variable {v} occurs in no clause" for v in unused] \
        + ["and 1 more variables occur in no clause"]


def test_normalize_drops_tautologies_and_compacts():
    f = CnfFormula.of(3, [(1, -1, 2), (2, 3, 3)])
    g = normalize(f)
    # tautology gone, duplicate literal collapsed, variable 1 compacted away
    assert g == CnfFormula.of(2, [(1, 2)])
    with pytest.raises(InputError):
        normalize(CnfFormula.of(1, [()]))
    assert normalize(PHI) == PHI
    # no clause left: the satisfiable one-clause formula (x1) stands in
    for empty in (CnfFormula.of(2, [(1, -1), (2, -2, 1)]), CnfFormula(3, ())):
        assert normalize(empty) == CnfFormula(1, ((1,),))


def test_normalize_rewrites_conflicting_pair():
    f = CnfFormula.of(3, [(1, 2, 3), (1, 2, 3)])
    g = normalize(f)
    assert g.num_vars == 6
    assert g.clauses == ((1, 2, 3), (1, 4, 5), (2, 4, -5), (2, -4, 6),
                         (3, -4, -6))
    assert not normalization_violations(g)
    assert (find_satisfying_assignment(f) is None) == \
        (find_satisfying_assignment(g) is None)
    # two-literal conflicts pad the middle literal; the padded replacement
    # conflicts once with itself and is rewritten again
    h = normalize(CnfFormula.of(2, [(1, 2), (1, 2)]))
    assert not normalization_violations(h)
    assert h.clauses == ((1, 2), (1, 3, 4), (2, 3, -4), (2, -3, 5),
                         (2, 6, 7), (-3, 6, -7), (-3, -6, 8), (-5, -6, -8))
    assert reference.satisfiable(h.num_vars, h.clauses)


def test_normalize_equisatisfiable_on_random_corpus():
    rng = random.Random(42)
    for _ in range(80):
        raw = support.random_raw_formula(rng)
        norm = normalize(raw)
        assert not normalization_violations(norm)
        # a padded rewrite may cascade once: at most 7 clauses and 6 fresh
        # variables per original clause
        assert len(norm.clauses) <= 7 * len(raw.clauses)
        assert norm.num_vars <= raw.num_vars + 6 * len(raw.clauses)
        assert reference.satisfiable(raw.num_vars, raw.clauses) == \
            reference.satisfiable(norm.num_vars, norm.clauses)


def test_conflict_index_matches_pairwise_scan():
    """The clause conflicts that normalization_violations reads off the
    literal-pair index are the pairs that comparing every clause pair
    finds, in the same order, and normalize equals the rescanning
    fixpoint, on random raw formulas and on denser ones with many
    conflicts."""
    rng = random.Random(11)
    formulas = [support.random_raw_formula(rng) for _ in range(200)]
    for _ in range(200):
        nv = rng.randint(1, 5)
        formulas.append(CnfFormula.of(nv, [
            tuple(rng.choice((1, -1)) * rng.randint(1, nv)
                  for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(1, 12))]))
    assert sum(bool(list(support.pairwise_conflicts(f.clauses)))
               for f in formulas) > 100
    for f in formulas:
        shared = [line for line in normalization_violations(f)
                  if line.endswith("share two or more literals")]
        assert shared == [f"clauses {i} and {j} share two or more literals"
                          for i, j in support.pairwise_conflicts(f.clauses)]
        assert normalize(f) == support.fixpoint_normalize(f)


@st.composite
def raw_formulas(draw):
    """Up to 16 clauses of one to three literals over at most 6 variables:
    tautologies, repeated literals and conflicts all allowed."""
    nv = draw(st.integers(1, 6))
    lit = st.integers(1, nv).flatmap(lambda v: st.sampled_from((v, -v)))
    return CnfFormula.of(nv, draw(st.lists(
        st.lists(lit, min_size=1, max_size=3), min_size=1, max_size=16)))


@given(raw_formulas())
# a padded clause rewritten before an earlier clause's partner: the sweep
# rewrites the padded clause's inner conflict after that partner, as the
# fixpoint does
@example(CnfFormula.of(7, [(1, 2, 3), (4, 5, 6), (1, 2), (4, 5, 7)]))
@example(CnfFormula.of(7, [(1, 2, 3), (1, 2), (4, 5, 6), (4, 5, 7)]))
@example(CnfFormula.of(2, [(1, 2), (1, 2), (2, 1), (-1, 2)]))
@settings(max_examples=400, deadline=None)
def test_normalize_equals_the_fixpoint_reference(f):
    """normalize's one sweep makes the rewrites of the fixpoint that
    rescans the whole list after each one (support.fixpoint_normalize), in
    the same order, so the formulas are equal, fresh variables included."""
    assert normalize(f) == support.fixpoint_normalize(f)


def test_literal_vertex_layout():
    assert [literal_vertex(x) for x in (1, -1, 3, -3)] == [1, 2, 5, 6]


def test_build_instance_structure():
    inst = build_instance(PHI)
    g = inst.graph
    assert g.n == 14
    assert g.label == "sat_gadget_v5_c3"
    assert inst.v_prime == tuple(range(11))
    assert inst.roles == ("u", "x1", "~x1", "x2", "~x2", "x3", "~x3",
                          "x4", "~x4", "x5", "~x5", "c1", "c2", "c3")
    assert g.degree(0) == 13  # u universal
    for i in range(1, 6):
        assert g.has_edge(2 * i - 1, 2 * i)
    # clause c1 = (1, -2, 4) touches u and exactly its literal vertices
    assert tuple(g.neighbours(11)) == (0, 1, 4, 7)
    assert not g.has_edge(11, 3)
    assert tuple(g.neighbours(1)) == (0, 2, 11, 13)  # x1 in clauses 1 and 3
    assert contains_k4(g) is None
    assert contains_induced_c4(g) is None
    with pytest.raises(InputError):
        build_instance(CnfFormula.of(2, [(1, 2), (1, 2)]))
    with pytest.raises(InputError):
        build_instance(CnfFormula.of(3, [(1, 2)]))  # unused variable


def test_instance_serialization(tmp_path):
    """The written instance file holds the gadget, in the bytes that
    json.dump writes at indent 1 of the graph file's object followed by
    "v_prime" and "roles"."""
    inst = build_instance(PHI)
    path = tmp_path / "phi.instance.json"
    write_instance(inst, path)
    text = path.read_text()
    d = json.loads(text)
    assert text == json.dumps({
        **support.graph_dict(inst.graph), "v_prime": list(inst.v_prime),
        "roles": {str(v): role for v, role in enumerate(inst.roles)}},
        indent=1) + "\n"
    assert d["n"] == 14
    assert d["v_prime"] == list(range(11))
    assert d["roles"]["0"] == "u" and d["roles"]["13"] == "c3"
    assert d["label"] == "sat_gadget_v5_c3"


def test_biclique_containment_frozen():
    inst = build_instance(PHI)
    witness = biclique_containment(inst.graph, inst.v_prime)
    assert witness == (0, 1, 3, 5, 7, 9)
    # witness checks out as a maximal complete bipartite set of the full graph
    assert support.bfs_complete_bipartite(inst.graph, witness) is not None
    for w in range(inst.graph.n):
        if w not in witness:
            assert support.bfs_complete_bipartite(
                inst.graph, tuple(sorted(witness + (w,)))) is None
    assert decode_assignment(inst, witness) == (True,) * 5
    assert evaluate(PHI, (True,) * 5)


def test_containment_negative_and_cap():
    unsat = CnfFormula.of(1, [(1,), (-1,)])
    inst = build_instance(unsat)
    assert biclique_containment(inst.graph, inst.v_prime) is None
    empty = Graph(24, (0,) * 24)
    with pytest.raises(CapacityError):
        biclique_containment(empty, range(23))


@given(support.graph_strategy(max_n=9), st.integers(0, (1 << 9) - 1))
@example(Graph.from_edges(5, [(0, 1), (1, 2), (1, 3), (2, 3), (1, 4)]),
         0b11111)  # with sides {0, 2, 3, 4} and {1}, V' itself passes the
                   # maximality test, but 2 and 3 are adjacent
@settings(max_examples=150, deadline=None)
def test_containment_matches_subset_walk(g, vmask):
    vmask &= (1 << g.n) - 1
    v_prime = [v for v in range(g.n) if vmask >> v & 1]
    assert biclique_containment(g, v_prime) == \
        min(support.scan_maximal(g, "biclique", vmask), default=None)


def test_decode_assignment_rejects_bad_witnesses():
    inst = build_instance(PHI)
    assert decode_assignment(inst, (1, 3, 5, 7, 9)) is None  # u missing
    assert decode_assignment(inst, (0, 1, 2, 3, 5, 7, 9)) is None  # x1 and ~x1
    assert decode_assignment(inst, (0, 1, 3, 5, 7)) is None  # x5 undecided


def test_gadget_subgraph_biclique_structure():
    """Inside G[V'] the maximal bicliques are u plus one literal per variable
    (2^5 of them) and the five complementary literal pairs."""
    inst = build_instance(PHI)
    sub = support.induced_subgraph(inst.graph, inst.v_prime)
    fam = [b.vertices for b in maximal_bicliques(sub)]
    assert len(fam) == 37
    with_u = [vs for vs in fam if 0 in vs]
    assert len(with_u) == 32
    for vs in with_u:
        assert len(vs) == 6
        for i in range(1, 6):
            assert ((2 * i - 1) in vs) != ((2 * i) in vs)
    pairs = sorted(vs for vs in fam if 0 not in vs)
    assert pairs == [(2 * i - 1, 2 * i) for i in range(1, 6)]


def test_certify_reduction_frozen():
    rep = certify_reduction(PHI)
    assert rep.satisfiable and rep.containment and rep.equivalent
    assert rep.k4_free and rep.c4_free and rep.correspondence_ok
    assert rep.witness == (0, 1, 3, 5, 7, 9)
    assert rep.num_vars == 5 and rep.num_clauses == 3
    d = rep.to_dict()
    assert d["witness"] == [0, 1, 3, 5, 7, 9]
    assert d["equivalent"] is True

    unsat = certify_reduction(CnfFormula.of(1, [(1,), (-1,)]))
    assert not unsat.satisfiable and not unsat.containment
    assert unsat.equivalent and unsat.correspondence_ok
    assert unsat.witness is None and unsat.to_dict()["witness"] is None
    # the empty assignment satisfies the empty formula, and is written as []
    assert certify_reduction(CnfFormula(0, ())).to_dict()["assignment"] == []


def test_certify_reduction_random_corpus():
    rng = random.Random(7)
    for _ in range(40):
        f = support.random_normalized_formula(rng)
        rep = certify_reduction(f)
        assert rep.equivalent, f
        assert rep.k4_free and rep.c4_free, f
        assert rep.correspondence_ok, f


def test_certify_reduction_larger_formulas():
    """7 to 10 variables, |V'| from 15 to 21."""
    rng = random.Random(11)
    corpus = []
    while len(corpus) < 12:
        f = support.random_normalized_formula(rng, max_vars=10,
                                              max_clauses=14)
        if f.num_vars >= 7:
            corpus.append(f)
    unsat = [(1, 2), (1, -2), (-1, 2), (-1, -2)]
    unsat += [(v, -v - 1, 1) for v in range(3, 10, 2)]
    corpus.append(normalize(CnfFormula.of(10, unsat)))
    assert {f.num_vars for f in corpus} >= {7, 10}
    for f in corpus:
        rep = certify_reduction(f)
        assert rep.satisfiable == \
            reference.satisfiable(f.num_vars, f.clauses), f
        assert rep.equivalent and rep.correspondence_ok, f
        assert rep.k4_free and rep.c4_free, f
    assert not rep.satisfiable and rep.witness is None


def test_dimacs_round_trip(tmp_path):
    path = tmp_path / "phi.cnf"
    write_dimacs(PHI, path)
    assert read_dimacs(path) == PHI


def test_dimacs_parsing(tmp_path):
    path = tmp_path / "in.cnf"
    path.write_text(
        "c a comment\n"
        "p cnf 3 2\n"
        "1 -2 0 2\n"
        "3 0\n"
        "% trailer junk is ignored\n")
    assert read_dimacs(path) == CnfFormula.of(3, [(1, -2), (2, 3)])


def test_dimacs_satlib_trailer_ends_the_file(tmp_path, capsys):
    """SATLIB files end with a "%" line and then "0", which once was read
    as a third, empty clause: reduce exited 2 with "header declares 2
    clauses, found 3"."""
    from bicliques.cli import main
    path = tmp_path / "uf3.cnf"
    path.write_text("p cnf 3 2\n1 -2 3 0\n-1 2 0\n%\n0\n\n")
    assert read_dimacs(path) == CnfFormula.of(3, [(1, -2, 3), (-1, 2)])
    assert main(["reduce", str(path), "--out-prefix",
                 str(tmp_path / "uf3")]) == 0
    assert capsys.readouterr().out.startswith(
        "normalized: 3 vars, 2 clauses -> ")


@pytest.mark.parametrize("text,fragment", [
    ("1 2 0\n", "before 'p cnf'"),
    ("p cnf 2 1\n1 x 0\n", "bad literal"),
    ("p cnf 2 1\n1 5 0\n", "exceeds"),
    ("p cnf 2 1\n1 2\n", "terminating 0"),
    ("p cnf 2 2\n1 2 0\n", "declares 2 clauses"),
    ("p cnf 2 1\np cnf 2 1\n1 0\n", "bad header"),
    ("c nothing\n", "missing 'p cnf'"),
    ("p cnf 1 1\nc \xff\n1 0\n", "bad.cnf: byte 12: not UTF-8"),
])
def test_dimacs_errors(tmp_path, text, fragment):
    path = tmp_path / "bad.cnf"
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(InputError) as exc:
        read_dimacs(path)
    assert fragment in str(exc.value)
