"""Checker for finite qualitative belief models.

Operators over event bitmasks, the nine belief axioms, mutual and
common belief, certainty of signals and of belief types, compatibility
with informativeness, game rationality with iterated elimination, a
text DSL with a command-line interface, and an audit harness that
sweeps registered claims over exhaustive or sampled model streams.
"""

__version__ = "0.1.0"

from .core import (
    Axiom,
    AxiomReport,
    BeliefModel,
    BeliefOperator,
    CheckReport,
    Event,
    FrameProperty,
    ImplicationReport,
    ImplicationStatus,
    PossibilityCorrespondence,
    StateSpace,
    correspondence_property,
    operator_leq,
    operators_equal,
)
from .signals import (
    CertaintyReport,
    Signal,
    certain_of,
    commonly_certain_of,
    indicator_signal,
    product_signal,
)
from .qualitative import (
    FamilyKind,
    MetaCertaintyReport,
    QualitativeType,
    QualitativeTypeMapping,
    certain_of_type_mapping,
    check_type_axioms,
    commonly_certain_of_type_mapping,
    meta_certainty_report,
    negative_access,
    operator_of,
    positive_access,
    type_mapping_of,
    type_signal,
)
from .informativeness import (
    InformativenessRelation,
    check_certainty_compatibility,
    compatible_with_informativeness,
    upward_set,
)
from .games import (
    EliminationTrace,
    Game,
    GameModel,
    correct_belief_chain,
    epistemic_iesda_verdict,
    iesda,
    rationality_event,
    strategy_certainty,
    survives,
)
from .dsl import (
    ModelSpecDocument,
    ModelSpecError,
    parse_event_literal,
    parse_model_spec,
    serialize_model,
    serialize_model_spec,
)
from .audit import (
    AuditResult,
    ModelSource,
    claim_ids,
    enumerate_correspondences,
    resolve_claim,
    sample_monotone_operators,
)
from .cli import main, run_cli

__all__ = [
    "__version__",
    "Axiom",
    "AxiomReport",
    "BeliefModel",
    "BeliefOperator",
    "CheckReport",
    "Event",
    "FrameProperty",
    "ImplicationReport",
    "ImplicationStatus",
    "PossibilityCorrespondence",
    "StateSpace",
    "correspondence_property",
    "operator_leq",
    "operators_equal",
    "CertaintyReport",
    "Signal",
    "certain_of",
    "commonly_certain_of",
    "indicator_signal",
    "product_signal",
    "FamilyKind",
    "MetaCertaintyReport",
    "QualitativeType",
    "QualitativeTypeMapping",
    "certain_of_type_mapping",
    "check_type_axioms",
    "commonly_certain_of_type_mapping",
    "meta_certainty_report",
    "negative_access",
    "operator_of",
    "positive_access",
    "type_mapping_of",
    "type_signal",
    "InformativenessRelation",
    "check_certainty_compatibility",
    "compatible_with_informativeness",
    "upward_set",
    "EliminationTrace",
    "Game",
    "GameModel",
    "correct_belief_chain",
    "epistemic_iesda_verdict",
    "iesda",
    "rationality_event",
    "strategy_certainty",
    "survives",
    "ModelSpecDocument",
    "ModelSpecError",
    "parse_event_literal",
    "parse_model_spec",
    "serialize_model",
    "serialize_model_spec",
    "AuditResult",
    "ModelSource",
    "claim_ids",
    "enumerate_correspondences",
    "resolve_claim",
    "sample_monotone_operators",
    "main",
    "run_cli",
]
