import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xparity.branching import clause_branch, simple_branch, variable_branch
from xparity.formula import (
    Formula,
    _lit_key,
    assign_literal,
    canonical_clause,
    clause_sort_key,
    falsify_clause,
    flip_variable,
    merge_variables,
    remove_clause,
    remove_variable,
)
from xparity.oracle import brute_count, brute_parity
from xparity.reducer import _RULES, apply_rule, reduce_formula, subformula


def F(nvars, *clauses):
    return Formula(range(1, nvars + 1), clauses)


def test_canonical_clause_ordering():
    assert canonical_clause([-2, 1, 2]) == (1, 2, -2)
    assert canonical_clause([3, -1]) == (-1, 3)
    for bad in ([0], [True]):
        with pytest.raises(ValueError, match="bad literal"):
            canonical_clause(bad)


def test_literals_are_checked_before_sorting():
    # a sort key on a str or None would raise TypeError first
    for clause, message in ((["1", 2], "bad literal '1'"), ([1, None], "bad literal None")):
        with pytest.raises(ValueError) as err:
            canonical_clause(clause)
        assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        Formula([1, 2], [["1"]])
    assert str(err.value) == "bad literal '1'"
    with pytest.raises(ValueError) as err:
        Formula([1, 2], [[1], [2, None]])
    assert str(err.value) == "bad literal None"


def oracle_canonical_clause(literals):
    """canonical_clause before it checked literals first, kept verbatim as
    an oracle."""
    lits = tuple(sorted(literals, key=_lit_key))
    for lit in lits:
        if type(lit) is not int or lit == 0:  # bool is an int, but not a literal
            raise ValueError(f"bad literal {lit!r}")
    return lits


def oracle_slots(variables, clauses):
    """The constructor's canonicalising body before it worked on the keys
    alone, kept verbatim as an oracle, plus the occurrence index."""
    # dedupe, then sort once on the decorated keys for deterministic
    # iteration and hashing; the keys are injective, so no two tie
    decorated = sorted({(clause_sort_key(c), c) for c in map(oracle_canonical_clause, clauses)})
    keys = tuple(k for k, _ in decorated)
    clauses = tuple(c for _, c in decorated)
    occ = {}
    for idx, clause in enumerate(clauses):
        for lit in clause:
            occ.setdefault(abs(lit), []).append((idx, lit))
    return frozenset(variables), clauses, keys, tuple(map(frozenset, clauses)), occ, None, None, None


def raw_clause_lists(n=6):
    """Clause lists as a caller may hand them over: unsorted, with repeated
    and complementary literals, repeated clauses, lists or tuples."""
    lit = st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v]))
    clause = st.one_of(st.lists(lit, max_size=5), st.lists(lit, max_size=5).map(tuple))
    return st.lists(clause, max_size=12).flatmap(
        lambda cs: st.lists(st.sampled_from(cs), max_size=4).map(lambda extra: cs + extra)
        if cs
        else st.just(cs)
    )


@settings(max_examples=500, deadline=None)
@given(raw_clause_lists())
def test_constructor_matches_the_canonicalising_oracle(clauses):
    got = Formula(range(1, 7), clauses)
    assert tuple(getattr(got, name) for name in Formula.__slots__) == oracle_slots(
        range(1, 7), clauses
    )
    assert all(type(l) is int for c in got.clauses for l in c)


@settings(max_examples=300, deadline=None)
@given(raw_clause_lists(), st.sampled_from([0, True, 1.5]), st.data())
def test_constructor_refuses_a_bad_literal_like_the_oracle(clauses, bad, data):
    clauses = [list(c) for c in clauses] or [[]]
    clause = data.draw(st.sampled_from(clauses))
    clause.insert(data.draw(st.integers(0, len(clause))), bad)
    with pytest.raises(ValueError) as want:
        oracle_slots(range(1, 7), clauses)
    with pytest.raises(ValueError) as got:
        Formula(range(1, 7), clauses)
    assert str(got.value) == str(want.value) == f"bad literal {bad!r}"


def test_formula_set_semantics():
    phi = F(2, [1, 2], [2, 1])
    assert phi.m == 1
    assert phi.clauses == ((1, 2),)


def test_variable_set_superset_of_occurrences():
    phi = Formula([1, 2, 3], [[1]])
    assert phi.n == 3
    assert phi.degree(3) == 0
    with pytest.raises(ValueError):
        Formula([1], [[1, 2]])


def test_assign_literal_examples():
    # satisfying literal removes the clause
    phi = F(2, [1, 2])
    out = assign_literal(phi, 1)
    assert out.clauses == () and out.variables == {2}
    # falsified literal is deleted
    out = assign_literal(phi, -1)
    assert out.clauses == ((2,),) and out.variables == {2}
    # clause falsified to empty
    phi = Formula([1], [[1]])
    out = assign_literal(phi, -1)
    assert out.has_empty_clause()


def test_falsify_clause_examples():
    # falsifying a clause still present leaves its empty husk behind (the
    # reducer's base case picks it up); branching removes the clause first
    phi = F(3, [1, 2], [1, 3])
    out = falsify_clause(remove_clause(phi, [1, 2]), [1, 2])
    assert out.clauses == ((3,),) and out.variables == {3}

    phi = F(2, [1, 2])
    out = falsify_clause(phi, [1, 2])
    assert out.has_empty_clause()

    # x=0 satisfies the second clause; z stays as a 0-variable
    phi = Formula([1, 2, 3], [[1, 2], [-1, 3]])
    out = falsify_clause(remove_clause(phi, [1, 2]), [1, 2])
    assert out.clauses == () and out.variables == {3}


def test_falsify_rejects_tautology():
    phi = F(2, [1, -1, 2])
    with pytest.raises(ValueError):
        falsify_clause(phi, [1, -1, 2])


def test_merge_variables():
    phi = Formula([1, 2, 3], [[1, 3]])
    out = merge_variables(phi, 1, -2)  # x1 := not x2
    assert out.clauses == ((-2, 3),)
    assert out.variables == {2, 3}

    phi = F(2, [1, 2])
    out = merge_variables(phi, 1, -2)
    assert out.clauses == ((2, -2),)  # tautology left for the reducer


def test_merge_preserves_parity_under_rule_precondition():
    # formula containing (x or y) and (not x or not y): models have x != y
    phi = Formula([1, 2, 3, 4], [[1, 2], [-1, -2], [1, 3], [2, 4]])
    merged = merge_variables(phi, 1, -2)
    # drop tautologies by re-normalizing through brute force comparison
    assert brute_parity(phi) == brute_parity(
        Formula(merged.variables, [c for c in merged.clauses if not _taut(c)])
    )


def _taut(clause):
    s = set(clause)
    return any(-l in s for l in s)


def test_flip_variable():
    phi = F(2, [-1, 2])
    assert flip_variable(phi, 1).clauses == ((1, 2),)
    phi = F(2, [-1], [-1, 2])
    assert flip_variable(phi, 1).clauses == ((1,), (1, 2))


def test_flip_preserves_parity_random():
    import random

    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(1, 8)
        clauses = [
            [rng.choice([v, -v]) for v in rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))]
            for _ in range(rng.randint(0, 6))
        ]
        phi = Formula(range(1, n + 1), clauses)
        x = rng.randint(1, n)
        assert brute_parity(phi) == brute_parity(flip_variable(phi, x))


def test_stats_small():
    phi = F(2, [1, 2], [-1, 2])
    assert (phi.n, phi.m, phi.length, phi.m3) == (2, 2, 4, 0)
    assert phi.polarity_counts(1) == (1, 1)
    assert phi.polarity_counts(2) == (2, 0)


def test_fig2_style_formula_stats():
    # four 3-clauses in a ring plus four 2-clauses chained across, 10 vars
    phi = fig2_formula()
    assert (phi.n, phi.m, phi.m3) == (10, 8, 4)
    assert phi.length == 20


def fig2_formula():
    # variables: x1..x4 -> 1..4, y1..y4 -> 5..8, z1, z2 -> 9, 10
    return Formula(
        range(1, 11),
        [
            [1, -4, 5],  # C1
            [-1, 2, 6],  # C2
            [2, 3, 7],  # C3
            [3, 4, 8],  # C4
            [-5, 9],  # D1
            [9, 6],  # D2
            [7, 10],  # D3
            [-10, 8],  # D4
        ],
    )


def test_remove_clause_and_variable():
    phi = F(2, [1, 2], [1])
    out = remove_clause(phi, [1, 2])
    assert out.clauses == ((1,),) and out.variables == {1, 2}
    out = remove_variable(phi, 2)
    assert out.clauses == ((1,),) and out.variables == {1}


def test_models_restriction_property():
    # models of phi[l=1] are exactly models of phi with l=1, restricted
    import random

    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 8)
        clauses = [
            [rng.choice([v, -v]) for v in rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))]
            for _ in range(rng.randint(0, 6))
        ]
        phi = Formula(range(1, n + 1), clauses)
        x = rng.randint(1, n)
        lit = rng.choice([x, -x])
        with_lit = brute_count(Formula(phi.variables, list(phi.clauses) + [[lit]]))
        assert brute_count(assign_literal(phi, lit)) == with_lit


def test_parity_split_on_variable():
    import random

    rng = random.Random(6)
    for _ in range(60):
        n = rng.randint(1, 8)
        clauses = [
            [rng.choice([v, -v]) for v in rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))]
            for _ in range(rng.randint(0, 6))
        ]
        phi = Formula(range(1, n + 1), clauses)
        x = rng.randint(1, n)
        assert brute_parity(phi) == (
            brute_parity(assign_literal(phi, x)) ^ brute_parity(assign_literal(phi, -x))
        )


def test_occurrence_index_consistency():
    phi = fig2_formula()
    for v in phi.variables:
        for idx, lit in phi.occ.get(v, ()):
            assert lit in phi.clauses[idx]
            assert abs(lit) == v
    total = sum(len(occ) for occ in phi.occ.values())
    assert total == phi.length


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-6, 6).filter(bool), max_size=4).map(tuple),
        max_size=12,
    )
)
def test_clause_sort_key_orders_like_pair_key(clauses):
    def pair_key(clause):
        return tuple((abs(l), l < 0) for l in clause)

    assert sorted(clauses, key=clause_sort_key) == sorted(clauses, key=pair_key)


@st.composite
def formula_and_moves(draw):
    """A formula with empty clauses, repeated literals and tautologies
    allowed, plus arguments for every transform."""
    n = draw(st.integers(2, 6))
    lit = st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v]))
    phi = Formula(range(1, n + 1), draw(st.lists(st.lists(lit, max_size=4), max_size=10)))
    x, y = draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
    side = draw(st.lists(st.integers(1, n), max_size=3, unique=True))
    side = [v * draw(st.sampled_from([1, -1])) for v in side]
    idxs = draw(st.lists(st.integers(0, max(phi.m - 1, 0)), max_size=6)) if phi.m else []
    y_lit = draw(st.sampled_from([y, -y]))
    return phi, draw(lit), x, y_lit, side, idxs


def assert_same_formula(got, want):
    assert got.variables == want.variables
    assert got.clauses == want.clauses
    assert got.occ == want.occ
    assert got.keys == want.keys == tuple(map(clause_sort_key, got.clauses))
    assert got.sets == want.sets == tuple(map(frozenset, got.clauses))
    assert got.has_empty_clause() == any(len(c) == 0 for c in got.clauses)


@settings(max_examples=300, deadline=None)
@given(formula_and_moves())
# a stripped clause collapses into an existing one; rewritten clauses
# collapse into each other
@example((F(3, [1, 2], [1, 2, -3], [1, 2, 3]), -3, 3, 1, [3], [2, 0, 2]))
@example((F(3, [1, 3], [2, 3], [1, 2, -3], [1, 2]), 2, 3, -1, [-3, 2], [1]))
def test_transforms_equal_canonicalizing_constructor(case):
    phi, lit, x, y_lit, side, idxs = case
    vs, cls = phi.variables, phi.clauses

    def swap(c, old, new_lit):
        return [new_lit if l == old else (-new_lit if l == -old else l) for l in c]

    v = abs(lit)
    assert_same_formula(
        assign_literal(phi, lit),
        Formula(vs - {v}, [[l for l in c if l != -lit] for c in cls if lit not in c]),
    )
    if cls:
        gone = cls[idxs[0]] if idxs else cls[0]
        assert_same_formula(remove_clause(phi, gone), Formula(vs, [c for c in cls if c != gone]))
    assert_same_formula(
        merge_variables(phi, x, y_lit), Formula(vs - {x}, [swap(c, x, y_lit) for c in cls])
    )
    assert_same_formula(flip_variable(phi, x), Formula(vs, [swap(c, x, -x) for c in cls]))
    assert_same_formula(
        remove_variable(phi, x), Formula(vs - {x}, [[l for l in c if abs(l) != x] for c in cls])
    )
    falsified = set(side)
    assert_same_formula(
        falsify_clause(phi, side),
        Formula(
            vs - {abs(l) for l in side},
            [
                [l for l in c if l not in falsified]
                for c in cls
                if not any(-l in falsified for l in c)
            ],
        ),
    )
    picked = [cls[i] for i in idxs]
    assert_same_formula(
        subformula(phi, idxs), Formula({abs(l) for c in picked for l in c}, picked)
    )


@settings(max_examples=300, deadline=None)
@given(formula_and_moves())
def test_every_derivation_matches_the_constructor(case):
    """Every formula built while transforming, branching and reducing goes
    through ``Formula._derive``; each one's keys and literal sets are those
    of its clauses, and rebuilding it from scratch gives the same formula."""
    phi, lit, x, y_lit, side, idxs = case
    made = []
    derive = Formula._derive.__func__

    def attempt(build, *args):
        try:
            return build(*args)
        except ValueError:  # out of order on a tautology: nothing derived
            return None

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            Formula,
            "_derive",
            classmethod(lambda cls, *a, **kw: made.append(derive(cls, *a, **kw)) or made[-1]),
        )
        assign_literal(phi, lit)
        merge_variables(phi, x, y_lit)
        flip_variable(phi, x)
        remove_variable(phi, x)
        falsify_clause(phi, side)
        subformula(phi, idxs)
        simple_branch(phi, x)
        attempt(variable_branch, phi, x)
        for i in idxs[:2]:
            attempt(clause_branch, phi, phi.clauses[i])
        for rule_id, _ in _RULES:
            attempt(apply_rule, phi, rule_id)
        out = reduce_formula(phi)
        # children of a fixpoint start their reduction scoped
        if out.parity is None and out.formula.variables:
            psi = out.formula
            for child in simple_branch(psi, min(psi.variables)).children:
                reduce_formula(child)
    assert made
    for got in made:
        assert_same_formula(got, Formula(got.variables, got.clauses))
