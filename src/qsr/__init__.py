"""Toolkit for binary qualitative spatial and temporal calculi.

Calculi are finite relation algebras given by converse and composition
tables; networks of qualitative constraints are decided via algebraic
closure plus refinement search; calculi themselves can be audited against
the relation-algebra axiom battery and grounded in explicit finite models.
"""

from .axioms import (
    AxiomRecord,
    AxiomReport,
    Classification,
    check_axiom,
    check_axiom_composite,
    classify,
    r6_r6l_equivalence_check,
)
from .closure import (
    ClosureOutcome,
    ClosureStatus,
    a_closure,
    naive_closure,
)
from .core import (
    CalculusError,
    CalculusFlags,
    CalculusMismatchError,
    CalculusSpec,
    RelationSet,
    UnknownSymbolError,
)
from .models import (
    BudgetExceededError,
    CellStrength,
    FiniteInterpretation,
    Valuation,
    brute_force_solve,
    check_jepd,
    check_partition_scheme,
    check_seriality,
    classify_operation,
    domain_compose,
    domain_converse,
    load_model,
    parse_model,
    satisfies,
)
from .network import (
    ConstraintNetwork,
    NetworkError,
    load_network,
    normalize,
    parse_network,
    random_network,
)
from .registry import (
    BUILTIN_NAMES,
    Finding,
    SpecParseError,
    builtin,
    builtin_model,
    load_spec,
    parse_spec,
    serialize,
    validate,
)
from .search import (
    CompletenessResult,
    Decision,
    Verdict,
    decide,
    derive_completeness,
)

__version__ = "0.1.0"

__all__ = [
    "AxiomRecord",
    "AxiomReport",
    "BUILTIN_NAMES",
    "BudgetExceededError",
    "CalculusError",
    "CalculusFlags",
    "CalculusMismatchError",
    "CalculusSpec",
    "CellStrength",
    "Classification",
    "ClosureOutcome",
    "ClosureStatus",
    "CompletenessResult",
    "ConstraintNetwork",
    "Decision",
    "FiniteInterpretation",
    "Finding",
    "NetworkError",
    "RelationSet",
    "SpecParseError",
    "UnknownSymbolError",
    "Valuation",
    "Verdict",
    "a_closure",
    "brute_force_solve",
    "builtin",
    "builtin_model",
    "check_axiom",
    "check_axiom_composite",
    "check_jepd",
    "check_partition_scheme",
    "check_seriality",
    "classify",
    "classify_operation",
    "decide",
    "derive_completeness",
    "domain_compose",
    "domain_converse",
    "load_model",
    "load_network",
    "load_spec",
    "naive_closure",
    "normalize",
    "parse_model",
    "parse_network",
    "parse_spec",
    "r6_r6l_equivalence_check",
    "random_network",
    "satisfies",
    "serialize",
    "validate",
]
