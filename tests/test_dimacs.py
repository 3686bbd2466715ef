import time

import pytest
from hypothesis import example, given, settings
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


def test_tokens_must_be_signed_ascii_integers():
    # int() alone reads 1_0 as 10 and Arabic-Indic digits as numbers
    for text, message in (
        ("p cnf 10 1\n1_0 0\n", "bad token '1_0' (line 2)"),
        ("p cnf 2 1\n١ -٢ 0\n", "bad token '١' (line 2)"),
        ("p cnf 1_0 1\n1 0\n", "malformed header 'p cnf 1_0 1' (line 1)"),
        ("p cnf 2 ١\n1 0\n", "malformed header 'p cnf 2 ١' (line 1)"),
    ):
        with pytest.raises(DimacsError) as err:
            parse_dimacs(text)
        assert str(err.value) == message
    assert parse_dimacs("p cnf 2 1\n+2 -01 -0\n").clauses == ((-1, 2),)


def test_first_error_in_text_order_wins():
    # the clause tokens are converted after the line loop, yet a bad token
    # above a second header is still the error reported
    text = "p cnf 2 2\n1 2 0\nx 0\nc\n-1 0\np cnf 2 2\n"
    with pytest.raises(DimacsError) as err:
        parse_dimacs(text)
    assert str(err.value) == "bad token 'x' (line 3)"
    with pytest.raises(DimacsError) as err:
        parse_dimacs(text.replace("x", "3"))
    assert str(err.value) == "literal 3 out of declared range 1..2 (line 3)"
    with pytest.raises(DimacsError) as err:
        parse_dimacs(text.replace("x", "2"))
    assert str(err.value) == "duplicate header (line 6)"


def test_clause_lines_split_on_any_whitespace():
    # non-ASCII text skips the bulk conversion, not the clause
    assert parse_dimacs("p cnf 2 1\n1\u20032\u00a00\n").clauses == ((1, 2),)


def oracle_parse_dimacs(text: str) -> Formula:
    """The per-token parser the bulk conversion replaced, kept verbatim as
    an oracle."""
    nvars = None
    nclauses = None
    clauses: list[list[int]] = []
    current: list[int] = []
    header_line = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("%"):
            break  # SATLIB's end marker, followed by a stray 0
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if nvars is not None:
                raise DimacsError("duplicate header", lineno)
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise DimacsError(f"malformed header {line!r}", lineno)
            try:
                nvars, nclauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsError(f"malformed header {line!r}", lineno) from None
            if nvars < 0 or nclauses < 0:
                raise DimacsError(f"malformed header {line!r}", lineno)
            if nvars > MAX_DECLARED_VARS:
                raise DimacsError(
                    f"header declares {nvars} variables, above the cap of {MAX_DECLARED_VARS}",
                    lineno,
                )
            header_line = lineno
            continue
        if nvars is None:
            raise DimacsError("clause before header", lineno)
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise DimacsError(f"bad token {tok!r}", lineno) from None
            if lit == 0:
                clauses.append(current)
                current = []
            else:
                if abs(lit) > nvars:
                    raise DimacsError(
                        f"literal {lit} out of declared range 1..{nvars}", lineno
                    )
                current.append(lit)
    if nvars is None:
        raise DimacsError("missing header")
    if current:
        raise DimacsError("clause not terminated by 0")
    if nclauses is not None and len(clauses) != nclauses:
        raise DimacsError(
            f"header declares {nclauses} clauses, found {len(clauses)}", header_line
        )
    return Formula(range(1, nvars + 1), clauses)


def _outcome(parse, text):
    try:
        phi = parse(text)
    except DimacsError as err:
        return ("error", str(err), err.line)
    return (phi.variables, phi.clauses, phi.keys, phi.sets, phi.occ)


def _ascii_without_underscore(text):
    return "".join(ch for ch in text if ch.isascii() and ch != "_")


# on ASCII text without "_" int() reads exactly the signed ASCII integers,
# so the old parser is the oracle there
@given(
    st.one_of(
        st.text(st.characters(max_codepoint=127, exclude_characters="_")),
        dimacs_like().map(_ascii_without_underscore),
    )
)
@settings(max_examples=1000, deadline=None)
@example("p cnf 2 1\n1 2 0\n-3 0\n\n\np cnf 2 1\n")
@example("p cnf 3 2\n1 -2\n 3 0 -1\n0 2")
def test_parse_matches_the_per_token_oracle(text):
    assert _outcome(parse_dimacs, text) == _outcome(oracle_parse_dimacs, text)
