import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xparity.dimacs import MAX_DECLARED_VARS, DimacsError, parse_dimacs, write_dimacs
from xparity.formula import Formula


def test_parse_basic():
    phi = parse_dimacs("p cnf 2 1\n1 2 0\n")
    assert phi.variables == {1, 2}
    assert phi.clauses == ((1, 2),)


def test_parse_registers_silent_variables():
    phi = parse_dimacs("p cnf 2 1\n1 0\n")
    assert phi.variables == {1, 2}
    assert phi.degree(2) == 0


def test_parse_comments_and_multiline_clauses():
    text = "c a comment\np cnf 3 2\n1 -2\n0\n2 3 0\n"
    phi = parse_dimacs(text)
    assert phi.m == 2


def test_parse_stops_at_satlib_end_marker():
    # SATLIB files end with "%" and then "0", which is not an empty clause
    phi = parse_dimacs("p cnf 3 2\n1 -2 3 0\n-1 2 0\n%\n0\n")
    assert phi.variables == {1, 2, 3} and phi.clauses == ((1, -2, 3), (-1, 2))


def test_parse_errors_carry_line_numbers():
    with pytest.raises(DimacsError):
        parse_dimacs("1 2 0\n")
    with pytest.raises(DimacsError) as err:
        parse_dimacs("p cnf 1 1\n2 0\n")
    assert "line 2" in str(err.value)
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 2 1\n1 2\n")
    with pytest.raises(DimacsError):
        parse_dimacs("p hello 2 1\n1 0\n")


def test_write_requires_dense_ids():
    phi = Formula([2, 5], [[2, 5]])
    with pytest.raises(ValueError):
        write_dimacs(phi)


def dense_formulas():
    def build(n):
        lit = st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v]))
        clause = st.lists(lit, min_size=1, max_size=4)
        return st.lists(clause, min_size=0, max_size=8).map(
            lambda cs: Formula(range(1, n + 1), cs)
        )

    return st.integers(1, 9).flatmap(build)


@given(dense_formulas())
@settings(max_examples=300, deadline=None)
def test_roundtrip_identity(phi):
    assert parse_dimacs(write_dimacs(phi)) == phi



def test_huge_header_is_refused_before_building():
    start = time.perf_counter()
    for nvars in (MAX_DECLARED_VARS + 1, 10**9):
        with pytest.raises(DimacsError, match="above the cap") as err:
            parse_dimacs(f"p cnf {nvars} 1\n1 2 0\n")
        assert "line 1" in str(err.value)
    assert time.perf_counter() - start < 1.0


def test_unused_variables_below_the_cap_are_kept():
    phi = parse_dimacs("p cnf 5000 1\n1 -2 0\n")
    assert phi.n == 5000 and phi.degree(5000) == 0


def dimacs_like():
    """Text built from DIMACS pieces, so headers, clauses and their
    errors all come up, not only the comment-free noise of st.text()."""
    token = st.one_of(
        st.integers(-6, 6).map(str),
        st.sampled_from(["p", "cnf", "c", "%", "-0", "+2", "1_0", "x", "99999999999",
                         str(MAX_DECLARED_VARS + 1), "1" * 5000]),
        st.text(max_size=3),
    )
    line = st.lists(token, max_size=6).map(" ".join)
    header = st.tuples(st.integers(-1, 8), st.integers(-1, 8)).map(
        lambda nm: f"p cnf {nm[0]} {nm[1]}"
    )
    return st.lists(st.one_of(header, line), max_size=8).map("\n".join)


@given(st.one_of(st.text(), dimacs_like()))
@settings(max_examples=500, deadline=None)
def test_parse_arbitrary_text_gives_a_formula_or_a_dimacs_error(text):
    try:
        phi = parse_dimacs(text)
    except DimacsError:
        return
    assert isinstance(phi, Formula)
