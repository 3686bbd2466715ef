"""DIMACS CNF reading and writing.

Parsing registers every variable 1..n from the header in the variable set
even when it occurs in no clause: occurrence-free variables make the model
count even, so silently dropping them would corrupt parity.  A header
declaring more than ``MAX_DECLARED_VARS`` variables is refused before
anything is built: the variable set alone would take about 110 bytes a
variable.  A token must be an ASCII integer with an optional sign; Python's
``int()`` would also read ``1_0`` and non-ASCII digits.
"""

from __future__ import annotations

from .formula import Formula

MAX_DECLARED_VARS = 1_000_000


class DimacsError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(message + where)


def _int_token(tok: str) -> int | None:
    """tok as an int if it is an ASCII integer with an optional sign, else
    None; int() alone also reads underscores and non-ASCII digits."""
    if tok.isascii() and "_" not in tok:
        try:
            return int(tok)
        except ValueError:
            pass
    return None


def _token_literals(body: list, nvars: int) -> list[int]:
    """The clause tokens of ``body``, (line number, line) pairs, as ints,
    one token at a time: the route that names the first bad token or
    out-of-range literal with its line."""
    lits = []
    for lineno, line in body:
        for tok in line.split():
            lit = _int_token(tok)
            if lit is None:
                raise DimacsError(f"bad token {tok!r}", lineno)
            if abs(lit) > nvars:
                raise DimacsError(f"literal {lit} out of declared range 1..{nvars}", lineno)
            lits.append(lit)
    return lits


def _literals(body: list, nvars: int) -> list[int]:
    """The clause tokens of ``body`` as ints, converted in one ``map(int,
    ...)`` and range-checked by one ``max`` and ``min``.  ASCII text without
    ``_`` is what makes int() accept exactly the signed ASCII integers; any
    other text, and any failure, goes the per-token way."""
    text = " ".join([line for _, line in body])
    if text.isascii() and "_" not in text:
        try:
            lits = list(map(int, text.split()))
        except ValueError:
            pass
        else:
            if not lits or (max(lits) <= nvars and min(lits) >= -nvars):
                return lits
    return _token_literals(body, nvars)


def parse_dimacs(text: str) -> Formula:
    nvars = None
    nclauses = None
    body: list[tuple[int, str]] = []  # (line number, clause line)
    header_line = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        first = line[0]
        if first == "%":
            break  # SATLIB's end marker, followed by a stray 0
        if first == "c":
            continue
        if first == "p":
            if nvars is not None:
                _token_literals(body, nvars)  # a bad token above comes first
                raise DimacsError("duplicate header", lineno)
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise DimacsError(f"malformed header {line!r}", lineno)
            nvars, nclauses = _int_token(parts[2]), _int_token(parts[3])
            if nvars is None or nclauses is None or nvars < 0 or nclauses < 0:
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
        body.append((lineno, line))
    if nvars is None:
        raise DimacsError("missing header")
    lits = _literals(body, nvars)
    clauses = []
    start = 0
    for _ in range(lits.count(0)):
        stop = lits.index(0, start)
        clauses.append(lits[start:stop])
        start = stop + 1
    if start < len(lits):
        raise DimacsError("clause not terminated by 0")
    if len(clauses) != nclauses:
        raise DimacsError(
            f"header declares {nclauses} clauses, found {len(clauses)}", header_line
        )
    return Formula(range(1, nvars + 1), clauses)


def write_dimacs(phi: Formula) -> str:
    """Render as DIMACS.

    DIMACS cannot express gaps in the variable range without introducing
    spurious 0-variables (which would flip the parity semantics), so the
    variable set must be exactly 1..n.
    """
    order = sorted(phi.variables)
    n = len(order)
    if order != list(range(1, n + 1)):
        raise ValueError("variable ids must be exactly 1..n for a faithful round trip")
    lines = [f"p cnf {n} {phi.m}"]
    for clause in phi.clauses:
        lines.append(" ".join(str(l) for l in clause) + " 0")
    return "\n".join(lines) + "\n"

