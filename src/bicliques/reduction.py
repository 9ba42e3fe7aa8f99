"""3SAT to biclique containment: a formula maps to a graph G and a vertex
subset V' such that the formula is satisfiable iff some maximal biclique of G
lies entirely inside V'.

The gadget takes one vertex per literal (x_i adjacent to its negation), one
per clause (adjacent to exactly the literals it contains), and one universal
vertex u; V' is u plus the literal vertices.  The construction needs the
formula normalized first: no tautological clause, every variable used, and
no two clauses sharing more than one literal.

Containment is decided by the check that verifies colourings
(graphs.smallest_maximal_inside) with V' as the one vertex mask: it lists
no family and walks none of the 2^|V'| subsets of V'.  graphs.check_cap
caps the truth table at TRUTH_TABLE_CAP variables and containment at
SUBSET_SCAN_CAP vertices of V'.

Literals follow the DIMACS convention: nonzero signed ints, variable numbers
1..num_vars.

The records (CnfFormula, ReductionInstance, ReductionReport) are
collections.namedtuple classes, as Graph and Colouring are: importing
dataclasses, which loads inspect, and building three dataclasses cost every
reduce run about 7 ms.  CnfFormula checks its literals when it is built.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations, count, islice

from .graphs import (
    Graph,
    InputError,
    SUBSET_SCAN_CAP,
    check_cap,
    contains_induced_c4,
    contains_k4,
    graph_to_dict,
    mask_of,
    read_text,
    smallest_maximal_inside,
    vertex_set,
    write_json,
)

TRUTH_TABLE_CAP = 20  # exhaustive satisfiability check
_UNUSED_LISTED = 20   # unused variables named by normalization_violations


class CnfFormula(namedtuple("CnfFormula", "num_vars clauses")):
    """CNF over variables 1..num_vars: clauses is a tuple of clauses, each
    a tuple of at most three DIMACS literals, checked when it is built."""

    __slots__ = ()

    def __new__(cls, num_vars: int, clauses: tuple[tuple[int, ...], ...]):
        if num_vars < 0:
            raise InputError("variable count must be non-negative")
        for clause in clauses:
            if len(clause) > 3:
                raise InputError(f"clause {clause} has more than 3 literals")
            for lit in clause:
                if lit == 0 or abs(lit) > num_vars:
                    raise InputError(f"literal {lit} outside 1..{num_vars}")
        return super().__new__(cls, num_vars, clauses)

    @staticmethod
    def of(num_vars: int, clauses) -> "CnfFormula":
        return CnfFormula(num_vars, tuple(tuple(c) for c in clauses))


def evaluate(f: CnfFormula, assignment) -> bool:
    """True iff the 0-indexed boolean assignment satisfies every clause."""
    values = tuple(assignment)
    if len(values) != f.num_vars:
        raise InputError(
            f"assignment has {len(values)} values for {f.num_vars} variables")
    return all(
        any(values[abs(lit) - 1] == (lit > 0) for lit in clause)
        for clause in f.clauses)


def _check_truth_table_cap(f: CnfFormula) -> None:
    check_cap("a truth table", "variables", f.num_vars, TRUTH_TABLE_CAP)


def find_satisfying_assignment(f: CnfFormula):
    """First satisfying assignment by truth table, or None."""
    _check_truth_table_cap(f)
    for m in range(1 << f.num_vars):
        values = tuple(bool(m >> i & 1) for i in range(f.num_vars))
        if evaluate(f, values):
            return values
    return None


# ---------------------------------------------------------------------------
# normalization

def _pairs(clause):
    """The pairs of distinct literals of a clause, in sorted order."""
    return combinations(sorted(set(clause)), 2)


def _pair_index(clauses) -> dict:
    """Each pair of distinct literals mapped to the ascending indices of the
    clauses that hold it.  Two clauses share two or more literals exactly
    when they share such a pair, so a clause's partners are read off its
    pairs' lists rather than found by comparing it with every clause."""
    index: dict = {}
    for i, clause in enumerate(clauses):
        for pair in _pairs(clause):
            index.setdefault(pair, []).append(i)
    return index


def normalization_violations(f: CnfFormula) -> list[str]:
    """Human-readable list of normalization violations (empty if
    normalized).  Of the variables that occur in no clause, the first
    _UNUSED_LISTED are named and the rest counted, so a huge declared
    num_vars costs no more than the variables the clauses use."""
    out = []
    used = set()
    for idx, clause in enumerate(f.clauses):
        if not clause:
            out.append(f"clause {idx} is empty")
        lits = set(clause)
        if any(-lit in lits for lit in lits):
            out.append(f"clause {idx} contains a variable and its negation")
        used.update(abs(lit) for lit in clause)
    unused = f.num_vars - len(used)  # every literal is within 1..num_vars
    free = (v for v in count(1) if v not in used)  # past len(used) at most
    out += [f"variable {v} occurs in no clause"
            for v in islice(free, min(unused, _UNUSED_LISTED))]
    if unused > _UNUSED_LISTED:
        out.append(f"and {unused - _UNUSED_LISTED} more variables occur in "
                   "no clause")
    conflicts = {pair for js in _pair_index(f.clauses).values()
                 for pair in combinations(js, 2)}
    for i, j in sorted(conflicts):
        out.append(f"clauses {i} and {j} share two or more literals")
    return out


def check_normalized(f: CnfFormula) -> None:
    violations = normalization_violations(f)
    if violations:
        raise InputError("formula is not normalized: " + "; ".join(violations))


def _rewrite_clause(clause, next_var: int):
    """Equisatisfiable replacement of one clause by four over three fresh
    variables.  For (l1, l2, l3) and fresh a, b, c:

        (l1, a, b) (l2, a, -b) (l2, -a, c) (l3, -a, -c)

    Fresh variables never recur elsewhere, so a new clause shares at most one
    literal with any clause outside its own replacement.  Two-literal clauses
    are padded by doubling the middle literal, which leaves the last two
    replacement clauses sharing (l2, -a); that one internal conflict is
    rewritten when normalize's sweep reaches them and, having three distinct
    literals, cannot cascade further.  Unit clauses cannot conflict in the
    first place.
    """
    lits = list(clause)
    if len(lits) == 2:
        lits = [lits[0], lits[1], lits[1]]
    l1, l2, l3 = lits
    a, b, c = next_var, next_var + 1, next_var + 2
    return [(l1, a, b), (l2, a, -b), (l2, -a, c), (l3, -a, -c)]


def normalize(f: CnfFormula) -> CnfFormula:
    """Equisatisfiable normalized formula.

    Steps: delete tautological clauses and duplicate literals inside a
    clause; rewrite clause pairs sharing two or more literals (always the
    later clause of the first offending pair in scan order, to a fixpoint
    that one sweep over the clauses reaches); finally drop unused
    variables, remapping indices downward.  An empty clause is rejected as
    trivially unsatisfiable.  A formula with no clause left (none given, or
    only tautologies) is always satisfied, and becomes the one-clause
    formula (x1), which is satisfiable too and has a gadget with a biclique
    inside V'.  Each step establishes one
    normalization condition, so the result is normalized by construction;
    build_instance checks it before building the gadget.
    """
    clauses: list[tuple[int, ...]] = []
    for clause in f.clauses:
        if not clause:
            raise InputError("empty clause is trivially unsatisfiable")
        lits = set(clause)
        if any(-lit in lits for lit in lits):
            continue  # tautology, always satisfied
        clauses.append(tuple(sorted(lits, key=lambda l: (abs(l), l < 0))))
    if not clauses:
        return CnfFormula(1, ((1,),))
    num_vars = f.num_vars
    # A rewrite's clauses share a fresh literal in every pair, so they meet
    # no other clause: the partners of the clause the sweep reaches are
    # fixed, and rewriting them in order repeats the fixpoint's rewrites in
    # its order.  A padded rewrite's inner conflict is rewritten when the
    # sweep reaches it.
    index, replaced, kept = _pair_index(clauses), {}, []
    for i, clause in enumerate(clauses):
        if i in replaced:
            new = replaced[i]
            if len(clause) == 2:  # its last two clauses share (l2, -a)
                new[3:] = _rewrite_clause(new[3], num_vars + 1)
                num_vars += 3
            kept += new
            continue
        kept.append(clause)
        # the other clauses of a pair's list all share it with this one, so
        # each list is read once
        later = {j for pair in _pairs(clause) for j in index.pop(pair, ())
                 if j > i and j not in replaced}
        for j in sorted(later):
            replaced[j] = _rewrite_clause(clauses[j], num_vars + 1)
            num_vars += 3

    used = sorted({abs(lit) for clause in kept for lit in clause})
    remap = {old: new for new, old in enumerate(used, start=1)}
    remapped = tuple(
        tuple((1 if lit > 0 else -1) * remap[abs(lit)] for lit in clause)
        for clause in kept)
    return CnfFormula(len(used), remapped)


# ---------------------------------------------------------------------------
# instance construction

class ReductionInstance(namedtuple("ReductionInstance",
                                   "graph v_prime roles")):
    """Gadget Graph with the designated subset V' (a tuple of vertices) and
    per-vertex roles.

    Layout: u = 0; variable i (1-based) has its positive literal at vertex
    2i-1 and its negation at 2i; clause j (1-based) sits at 2*num_vars + j.
    roles[v] is "u", "x3", "~x3", or "c2" accordingly.
    """

    __slots__ = ()


def literal_vertex(lit: int) -> int:
    """Vertex index of a DIMACS literal in the gadget layout."""
    v = abs(lit)
    return 2 * v - 1 if lit > 0 else 2 * v


def build_instance(f: CnfFormula) -> ReductionInstance:
    """Gadget for a normalized formula.

    |V| = 2*num_vars + num_clauses + 1 and V' = {u} + literal vertices.
    The graph is K4-free and induced-C4-free by construction; tests assert
    both via the generic finders.
    """
    check_normalized(f)
    nv, m = f.num_vars, len(f.clauses)
    n = 2 * nv + m + 1
    edges = [(0, v) for v in range(1, n)]  # u is universal
    edges += [(2 * i - 1, 2 * i) for i in range(1, nv + 1)]
    for j, clause in enumerate(f.clauses, start=1):
        cv = 2 * nv + j
        edges += [(literal_vertex(lit), cv) for lit in set(clause)]
    roles = ["u"]
    for i in range(1, nv + 1):
        roles += [f"x{i}", f"~x{i}"]
    roles += [f"c{j}" for j in range(1, m + 1)]
    graph = Graph.from_edges(n, edges, label=f"sat_gadget_v{nv}_c{m}")
    return ReductionInstance(graph, tuple(range(2 * nv + 1)), tuple(roles))


def instance_to_dict(inst: ReductionInstance) -> dict:
    d = graph_to_dict(inst.graph)
    d["v_prime"] = list(inst.v_prime)
    d["roles"] = {str(v): role for v, role in enumerate(inst.roles)}
    return d


def write_instance(inst: ReductionInstance, path: str) -> None:
    write_json(instance_to_dict(inst), path)


# ---------------------------------------------------------------------------
# containment and certification

def _check_containment_cap(size: int) -> None:
    check_cap("containment scan", "|V'|", size, SUBSET_SCAN_CAP)


def check_certify_caps(f: CnfFormula) -> None:
    """CapacityError if certify_reduction would refuse f (the truth table's
    cap first, then containment's on V' = 2 * num_vars + 1 vertices)."""
    _check_truth_table_cap(f)
    _check_containment_cap(2 * f.num_vars + 1)


def biclique_containment(g: Graph, v_prime):
    """Lexicographically smallest maximal biclique of g lying inside
    v_prime, or None: graphs.smallest_maximal_inside on the mask of V'."""
    vp = vertex_set(v_prime, g.n)
    _check_containment_cap(len(vp))
    found = smallest_maximal_inside(g.adj, "biclique", [mask_of(vp)])
    return found[0] if found else None


def decode_assignment(inst: ReductionInstance, witness):
    """Boolean assignment read off a biclique witness containing u: variable
    i is true iff the x_i vertex is in the witness.  Returns None unless the
    witness contains u and exactly one literal vertex per variable."""
    wset = set(witness)
    if 0 not in wset:
        return None
    nv = (len(inst.v_prime) - 1) // 2
    values = []
    for i in range(1, nv + 1):
        pos, neg = 2 * i - 1 in wset, 2 * i in wset
        if pos == neg:
            return None
        values.append(pos)
    return tuple(values)


class ReductionReport(namedtuple("ReductionReport", (
        "num_vars num_clauses satisfiable assignment containment witness "
        "equivalent k4_free c4_free decoded_assignment correspondence_ok"))):
    """Everything certify_reduction checked, bundled for serialization: the
    formula's variable and clause counts, then bools, but for assignment
    and decoded_assignment (a tuple of bools or None) and witness (a tuple
    of vertices or None)."""

    __slots__ = ()

    def to_dict(self) -> dict:
        """The fields in order, tuples written as lists (an empty
        assignment as [], not null)."""
        return {key: list(value) if isinstance(value, tuple) else value
                for key, value in self._asdict().items()}


def certify_reduction(f: CnfFormula,
                      inst: ReductionInstance | None = None) -> ReductionReport:
    """End-to-end check of the reduction on one normalized formula: compare
    truth-table satisfiability against biclique containment, confirm the
    gadget is K4-free and induced-C4-free, and when a witness exists decode
    it back to an assignment and re-evaluate the formula with it.  inst is
    build_instance(f), which checks that f is normalized; it is built here
    when the caller does not already hold it.  Both caps are checked
    (check_certify_caps) before either exhaustive step runs."""
    if inst is None:
        inst = build_instance(f)
    check_certify_caps(f)
    assignment = find_satisfying_assignment(f)
    witness = biclique_containment(inst.graph, inst.v_prime)
    decoded = decode_assignment(inst, witness) if witness else None
    correspondence = decoded is not None and evaluate(f, decoded) \
        if witness else assignment is None
    return ReductionReport(
        num_vars=f.num_vars,
        num_clauses=len(f.clauses),
        satisfiable=assignment is not None,
        assignment=assignment,
        containment=witness is not None,
        witness=witness,
        equivalent=(assignment is not None) == (witness is not None),
        k4_free=contains_k4(inst.graph) is None,
        c4_free=contains_induced_c4(inst.graph) is None,
        decoded_assignment=decoded,
        correspondence_ok=bool(correspondence),
    )


# ---------------------------------------------------------------------------
# DIMACS

def read_dimacs(path: str) -> CnfFormula:
    """Parse DIMACS CNF: a "p cnf V C" header, 'c' comment lines, and
    zero-terminated clauses that may span lines; a "%" line ends the file."""
    num_vars = num_clauses = None
    clauses: list[tuple[int, ...]] = []
    pending: list[int] = []
    for lineno, raw in enumerate(read_text(path).split("\n"), start=1):
        line = raw.strip()
        if line.startswith("%"):
            break
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if (len(parts) != 4 or parts[1] != "cnf" or num_vars is not None):
                raise InputError(f"{path}: line {lineno}: bad header {line!r}")
            try:
                num_vars, num_clauses = int(parts[2]), int(parts[3])
            except ValueError as e:
                raise InputError(
                    f"{path}: line {lineno}: bad header {line!r}") from e
            continue
        if num_vars is None:
            raise InputError(
                f"{path}: line {lineno}: clause before 'p cnf' header")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError as e:
                raise InputError(
                    f"{path}: line {lineno}: bad literal {tok!r}") from e
            if lit == 0:
                clauses.append(tuple(pending))
                pending = []
            elif abs(lit) > num_vars:
                raise InputError(
                    f"{path}: line {lineno}: literal {lit} exceeds "
                    f"declared {num_vars} variables")
            else:
                pending.append(lit)
    if num_vars is None:
        raise InputError(f"{path}: missing 'p cnf' header")
    if pending:
        raise InputError(f"{path}: trailing clause without terminating 0")
    if len(clauses) != num_clauses:
        raise InputError(
            f"{path}: header declares {num_clauses} clauses, found {len(clauses)}")
    return CnfFormula.of(num_vars, clauses)


def write_dimacs(f: CnfFormula, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(f"p cnf {f.num_vars} {len(f.clauses)}\n")
        for clause in f.clauses:
            fh.write(" ".join(str(lit) for lit in clause) + " 0\n")
