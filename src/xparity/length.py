"""General Parity-SAT by degree-descending branching, measured by weighted
variable counts.

The measure gives 1-variables weight 0, 2-variables 1.5 and i-variables
weight i from degree 3 up; it never exceeds the formula length, so the
search-tree bounds in the measure carry over to length.  Six steps
progressively purify the formula: eliminate 4+-degree variables, then
4+-clauses touching 3-variables, then mixed 3-variables, then 3-variables
in short clauses, then the remaining all-positive all-3-clause structure,
and finally hand the 2-occurrence residue to the bisection solver.  Every
branch files a ledger entry of the analysis-claimed measure drops against the
observed ones, in exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import occ2 as occ2_mod
from .branching import clause_branch, settle_children, simple_branch, variable_branch
from .formula import Formula, flip_variable, var_of
from .occ2 import Occ2Config
from .oracle import brute_parity
from .reducer import SUBFORMULA_VAR_CAP, ReducerInvariantError, reduce_formula
from .telemetry import Telemetry

W2 = Fraction(3, 2)


def weight(degree: int) -> Fraction:
    if degree <= 1:
        return Fraction(0)
    if degree == 2:
        return W2
    return Fraction(degree)


def marginal_weight(degree: int) -> Fraction:
    return weight(degree) - weight(degree - 1)


def measure_mu(phi: Formula) -> Fraction:
    """The sum of ``weight(degree)`` over the variables, exact: it is
    summed as an int in half-units (3 per 2-variable, 2d per d-variable
    from d = 3) and halved once."""
    half = 0
    for occs in phi.occ.values():
        d = len(occs)
        if d >= 3:
            half += 2 * d
        elif d == 2:
            half += 3
    return Fraction(half, 2)


# -- local structure around a 3-variable ----------------------------------------


@dataclass
class LocalStructure:
    ext_x: frozenset
    proper: bool


def compute_ext(phi: Formula, x: int) -> LocalStructure:
    """Y_x, R_x and Ext_x for a 3-variable whose clauses all have length 3."""
    occs = phi.occ.get(x, ())
    if len(occs) != 3:
        raise ValueError(f"{x} is not a 3-variable")
    cidxs = tuple(sorted(cidx for cidx, _ in occs))
    inside: dict[int, int] = {}
    for cidx in cidxs:
        clause = phi.clauses[cidx]
        if len(clause) != 3:
            raise ValueError("all clauses of the variable must have length 3")
        for l in clause:
            v = var_of(l)
            if v != x:
                inside[v] = inside.get(v, 0) + 1
    y_x = frozenset(v for v, cnt in inside.items() if phi.degree(v) - cnt == 1)
    r_idx = {cidx for v in y_x for cidx, _ in phi.occ[v] if cidx not in cidxs}
    r_vars = {var_of(l) for i in r_idx for l in phi.clauses[i]}
    ext = frozenset(r_vars - y_x)
    sides = [
        [var_of(l) for l in phi.clauses[cidx] if var_of(l) != x] for cidx in cidxs
    ]
    disjoint = sum(len(s) for s in sides) == len({v for s in sides for v in s})
    all_three = all(phi.degree(v) == 3 for v in inside)
    return LocalStructure(ext_x=ext, proper=disjoint and all_three)


# -- step classification -----------------------------------------------------------


@dataclass
class Step:
    """A step at one node: its pivot variable, the flips that normalized it,
    the clause it branches on (steps 2 and 3.1), the claimed measure drop
    of each child in the order ``_branch_for`` emits them, and the claimed
    least sum of the drops where the analysis bounds them jointly."""

    kind: str
    formula: Formula  # after any polarity-normalizing flips
    pivot: int | None
    flips: tuple = ()
    clause: tuple | None = None
    claims: tuple = ()
    joint: Fraction | None = None


def _claims(*drops) -> tuple:
    return tuple({"drop": d} for d in drops)


def _normalize(phi: Formula, x: int):
    pos, negc = phi.polarity_counts(x)
    if negc > pos:
        return flip_variable(phi, x), (x,)
    return phi, ()


def _lone_clause(phi: Formula, x: int) -> tuple:
    """The clause of the lone-sign literal of a mixed 3-variable: the
    negative one once ``_normalize`` has run.  A flip keeps its length."""
    pos, _ = phi.polarity_counts(x)
    (cidx,) = [cidx for cidx, lit in phi.occ[x] if (lit > 0) == (pos == 1)]
    return phi.clauses[cidx]


def _step3(psi: Formula, flips: tuple, x: int) -> Step:
    """Step 3.1 or 3.2 at x, positive twice in psi and negative in
    (-x v D) with |D| = 2 or 1."""
    neg = _lone_clause(psi, x)
    d_vars = [var_of(l) for l in neg if var_of(l) != x]
    sides = [[l for l in psi.clauses[cidx] if l != lit] for cidx, lit in psi.occ[x] if lit > 0]
    if len(d_vars) == 2:
        c2 = sum(1 for v in d_vars if psi.degree(v) == 2)
        c3 = len(d_vars) - c2
        # the falsify branch assigns x and var(D); the satisfied positive
        # clauses add one w2 per side occurrence, but only for variables not
        # already assigned: sides may reuse var(D), where the assignment
        # weight already covers the lost occurrence
        assigned = set(d_vars) | {x}
        outside = sum(1 for s in sides for l in s if var_of(l) not in assigned)
        falsify = (2 + c2 + 2 * c3 + min(outside, 2)) * W2
        keep = 4 * W2 if c2 >= 1 else 3 * W2
        return Step("step3_1", psi, x, flips, clause=neg, claims=_claims(keep, falsify))
    # the guarantees behind the step 3.2 analysis: y, the variable of D,
    # never sits in both positive sides, nor in a unit side
    (y,) = d_vars
    in_side = [any(var_of(l) == y for l in s) for s in sides]
    if all(in_side):
        raise ReducerInvariantError("step 3.2: y occurs in both positive sides")
    for s, present in zip(sides, in_side):
        if len(s) == 1 and present:
            raise ReducerInvariantError("step 3.2: y occurs in a unit side")
    if all(len(s) == 1 for s in sides):
        return Step("step3_2", psi, x, flips, claims=_claims(5 * W2, 5 * W2))
    return Step("step3_2", psi, x, flips, claims=_claims(3 * W2, 3 * W2), joint=10 * W2)


def classify_step(phi: Formula) -> Step:
    """First applicable step, in order 1, 2, 3.1, 3.2, 4, 5.1, 5.2, 6, with
    its pivot and claims; ties go to the smallest canonical variable or
    clause.  The returned formula has the pivot polarity-normalized where a
    step assumes it."""
    degrees = {v: phi.degree(v) for v in phi.variables}
    max_deg = max(degrees.values(), default=0)

    if max_deg >= 4:
        x = min(v for v, d in degrees.items() if d == max_deg)
        wd = weight(max_deg)
        joint = 2 * wd + 2 * max_deg * marginal_weight(max_deg)
        return Step("step1", phi, x, claims=_claims(wd, wd), joint=joint)

    three_vars = sorted(v for v, d in degrees.items() if d == 3)

    if three_vars:
        clause = next(  # clauses are stored sorted: the least such clause
            (c for c in phi.clauses if len(c) >= 4 and any(degrees[var_of(l)] == 3 for l in c)),
            None,
        )
        if clause is not None:
            x = min(var_of(l) for l in clause if degrees[var_of(l)] == 3)
            c2 = sum(1 for l in clause if var_of(l) != x and degrees[var_of(l)] == 2)
            drops = (4 * W2, 8 * W2) if c2 == 0 else (5 * W2, 5 * W2)
            return Step("step2", phi, x, clause=clause, claims=_claims(*drops))

        mixed = [v for v in three_vars if 0 not in phi.polarity_counts(v)]
        for size in (3, 2):  # step 3.1, then step 3.2
            for x in mixed:
                if len(_lone_clause(phi, x)) == size:
                    return _step3(*_normalize(phi, x), x)

        for x in three_vars:
            if any(len(phi.clauses[cidx]) == 2 for cidx, _ in phi.occ[x]):
                psi, flips = _normalize(phi, x)
                # children are [x=0, x=1]; the satisfying branch is the second
                claims = _claims(3 * W2, 5 * W2)
                return Step("step4", psi, x, flips, claims=claims, joint=10 * W2)

        # stage claim: every 3-variable is now pure and lives in 3-clauses only
        for x in three_vars:
            for cidx, _ in phi.occ[x]:
                if len(phi.clauses[cidx]) != 3:
                    raise ReducerInvariantError(
                        f"3-variable {x} in a {len(phi.clauses[cidx])}-clause after step 4"
                    )

        structures = {x: compute_ext(phi, x) for x in three_vars}
        for x in three_vars:
            ext = len(structures[x].ext_x)
            if ext:
                psi, flips = _normalize(phi, x)
                return Step("step5_1", psi, x, flips, claims=_claims(2 * W2, (8 + ext) * W2))
        not_proper = [x for x in three_vars if not structures[x].proper]
        if not_proper:
            raise ReducerInvariantError(
                f"non-proper 3-variables {not_proper} but no variable with external "
                "neighbors: the structural dichotomy is violated"
            )
        x = three_vars[0]
        psi, flips = _normalize(phi, x)
        return Step("step5_2", psi, x, flips, claims=_claims(10 * W2, 8 * W2, 6 * W2))

    return Step("step6", phi, None)


# -- per-step branching with measure claims ------------------------------------------


def _branch_for(step: Step):
    if step.kind == "step5_2":
        return variable_branch(step.formula, step.pivot)
    if step.clause is not None:
        return clause_branch(step.formula, step.clause)
    return simple_branch(step.formula, step.pivot)


def _reduce_checked(phi: Formula, tel: Telemetry):
    """Reduce and assert the measure never increased (and stays below the
    formula length, which is what lets measure bounds speak about L).
    Returns the parity once settled, else None and the reduced formula
    with its measure."""
    mu0 = measure_mu(phi)
    if mu0 > phi.length:
        raise ReducerInvariantError(f"mu {mu0} exceeds length {phi.length}")
    out = reduce_formula(phi)
    if out.formula is None:
        return out.parity, None
    mu1 = measure_mu(out.formula)
    if mu1 > out.formula.length:
        raise ReducerInvariantError("mu exceeds length after reduction")
    tel.check(
        "len.reduce-mu",
        0,
        claimed={"mu_drop_at_least": 0},
        observed={"mu_drop": mu0 - mu1},
        passed=mu1 <= mu0,
    )
    return out.parity, (None if out.parity is not None else (out.formula, mu1))


def _solve(psi: Formula, mu: Fraction, tel: Telemetry, depth: int, cfg: Occ2Config) -> int:
    """Parity of the reduced formula psi, whose measure is mu."""
    if psi.n <= SUBFORMULA_VAR_CAP:
        # constant-size residue: settle it the way the isolate rule settles
        # small components.  The step analyses lean on the small-subformula
        # interface property, which says nothing about whole formulas this
        # small.
        tel.leaf(depth, "len.small-brute")
        return brute_parity(psi)
    step = classify_step(psi)
    if step.kind == "step6":
        occ2_mod.check_occ2(psi)
        return occ2_mod._solve_reduced(psi, tel, depth, cfg)
    branch = _branch_for(step)
    tel.node(
        depth,
        f"len.{step.kind}",
        {"pivot": list(step.clause) if step.kind == "step2" else step.pivot,
         "flips": list(step.flips)},
    )

    def check(i, parity, rest):
        # a flip keeps every degree, so mu is also step.formula's measure
        claim, drop = step.claims[i], mu if rest is None else mu - rest[1]
        return claim, {"drop": drop}, drop >= claim["drop"], branch.labels[i]

    children = list(settle_children(
        branch, lambda child: _reduce_checked(child, tel),
        tel, depth, f"len.{step.kind}-settled", f"len.{step.kind}", check,
    ))
    if step.joint is not None and all(p is None for p, _ in children):
        total = sum((mu - mu_child for _, (_, mu_child) in children), Fraction(0))
        tel.check(
            f"len.{step.kind}-joint",
            0,
            claimed={"sum": step.joint},
            observed={"sum": total},
            passed=total >= step.joint,
        )
    parity = 0
    for p, rest in children:
        parity ^= _solve(*rest, tel, depth + 1, cfg) if p is None else p
    return parity


def solve_length(
    phi: Formula, telemetry: Telemetry | None = None, config: Occ2Config | None = None
) -> int:
    """Parity of an arbitrary CNF formula, polynomial space; ``config``
    drives the 2-occurrence residue handed to ``occ2``."""
    tel = telemetry if telemetry is not None else Telemetry()
    cfg = config if config is not None else Occ2Config()
    parity, rest = _reduce_checked(phi, tel)
    if parity is not None:
        tel.leaf(0, "len.empty" if parity else "len.verdict")
        return parity
    return _solve(*rest, tel, 0, cfg)
