"""Exact parity-of-model-count solvers for CNF, polynomial space throughout.

Public surface: the Formula value type with its transforms, the reduction
fixpoint engine, three parity-preserving branching schemes, solvers for the
2-occurrence and general cases, the positive-formula/dual-formula route for
bounded occurrence, and brute-force oracles everything is tested against.
"""

from .branching import BranchSet, clause_branch, simple_branch, variable_branch
from .dimacs import DimacsError, parse_dimacs, write_dimacs
from .docc import dual_formula, reduce_to_positive, solve_docc, solve_positive_fib
from .factors import epsilon_prime, tau
from .formula import Formula, assign_literal
from .generators import gen_edge_cover_formula, gen_random_docc
from .length import classify_step, compute_ext, measure_mu, solve_length
from .occ2 import (
    Occ2Config,
    bisect_multigraph,
    bisection_solve,
    build_multigraph,
    eliminate_self_loops,
    solve_2cnf,
    solve_occ2,
)
from .oracle import (
    SetSystem,
    SimpleGraph,
    brute_count,
    brute_parity,
    count_edge_covers,
    count_hitting_sets,
    count_set_covers,
    count_vertex_covers,
    inclusion_exclusion_edge_covers,
)
from .reducer import (
    ReductionOutcome,
    apply_rule,
    check_reduced_properties,
    reduce_formula,
)
from .telemetry import LedgerViolation, Telemetry

__version__ = "0.1.0"
