"""DIMACS CNF reading and writing.

Parsing registers every variable 1..n from the header in the variable set
even when it occurs in no clause: occurrence-free variables make the model
count even, so silently dropping them would corrupt parity.  A header
declaring more than ``MAX_DECLARED_VARS`` variables is refused before
anything is built: the variable set alone would take about 110 bytes a
variable.
"""

from __future__ import annotations

from .formula import Formula

MAX_DECLARED_VARS = 1_000_000


class DimacsError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(message + where)


def parse_dimacs(text: str) -> Formula:
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

