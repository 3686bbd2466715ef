import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xparity.dimacs import DimacsError, parse_dimacs, write_dimacs
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

