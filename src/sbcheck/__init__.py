"""Verification toolkit for two-level self-adaptive transition systems.

A model couples a behaviour machine (concrete states and transitions)
with a structure machine whose states carry constraint formulas over
observables and whose transitions carry invariants.  The package builds
the combined flat semantics, decides weak and strong adaptability both
by greatest-fixpoint relations and by CTL model checking, compares the
two methods, and ships a small text format plus the ``sbcheck`` command
line tool.
"""

from .adapt import (
    AdaptRelation,
    EquivPartition,
    equiv_partition,
    is_strong_adaptable,
    is_weak_adaptable,
    relation_to_json,
    strong_relation,
    weak_relation,
)
from .compare import MethodVerdicts, compare_methods, find_discrepancy
from .ctl import (
    CheckResult,
    check_ctl,
    parse_ctl,
    strong_counterexample,
    strong_formula,
    unparse_ctl,
    weak_formula,
)
from .errors import (
    CtlError,
    FormulaError,
    ModelError,
    ModelFileError,
    SbcheckError,
    SourceError,
)
from .flat import (
    FlatLTS,
    FlatState,
    export_dot,
    export_json,
    flatten,
    import_json,
)
from .formula import (
    BoolDomain,
    EnumDomain,
    IntRange,
    ObservableDecl,
    Observables,
    evaluate,
    parse_formula,
    unparse,
)
from .ingest import bundled_model, bundled_model_path, load, loads, save
from .model import (
    BehaviourMachine,
    ObservationMap,
    SBSystem,
    StructureMachine,
    check_well_formed,
    require_well_formed,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptRelation",
    "BehaviourMachine",
    "BoolDomain",
    "CheckResult",
    "CtlError",
    "EnumDomain",
    "EquivPartition",
    "FlatLTS",
    "FlatState",
    "FormulaError",
    "IntRange",
    "MethodVerdicts",
    "ModelError",
    "ModelFileError",
    "ObservableDecl",
    "Observables",
    "ObservationMap",
    "SBSystem",
    "SbcheckError",
    "SourceError",
    "StructureMachine",
    "bundled_model",
    "bundled_model_path",
    "check_ctl",
    "check_well_formed",
    "compare_methods",
    "equiv_partition",
    "evaluate",
    "export_dot",
    "export_json",
    "find_discrepancy",
    "flatten",
    "import_json",
    "is_strong_adaptable",
    "is_weak_adaptable",
    "load",
    "loads",
    "parse_ctl",
    "parse_formula",
    "relation_to_json",
    "require_well_formed",
    "save",
    "strong_counterexample",
    "strong_formula",
    "strong_relation",
    "unparse",
    "unparse_ctl",
    "weak_formula",
    "weak_relation",
    "__version__",
]
