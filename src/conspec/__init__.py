"""Concept-network transduction engine.

Core pieces: tree-line notation (parse/print), canonical network equality,
a definition lexicon with an ancestor ontology, similarity-ranked rule
matching, surface realization, reverse parsing, and transfer translation.
"""

from .errors import (
    AffixError,
    ConspecError,
    MalformedNetworkError,
    ModelLoadError,
    TreelineParseError,
    UnparseableTextError,
    UnrealizableFragmentError,
    UntranslatableConceptError,
)
from .lexicon import Definition, Lexicon, ancestors, expand, is_a
from .model import ModelBundle, load_corpus, load_model, load_model_text
from .network import (
    Anchor,
    Concept,
    ConceptNetwork,
    Node,
    anchor_resolutions,
    canonical_key,
    canonicalize,
    equal,
    resolve_anchors,
    to_json_dict,
)
from .parser import parse_text, segment
from .realizer import apply_orthography, join_affixes, realize, strip_orthography
from .rules import (
    ConceptMap,
    Match,
    Rule,
    TransferRule,
    build_rule,
    build_transfer_rule,
    match_rules,
)
from .similarity import concept_sim, network_sim
from .transfer import LanguagePair, load_pair, load_pair_text, translate
from .treeline import parse_document, parse_network, print_network

__version__ = "0.1.0"

__all__ = [
    "AffixError",
    "Anchor",
    "Concept",
    "ConceptMap",
    "ConceptNetwork",
    "ConspecError",
    "Definition",
    "LanguagePair",
    "Lexicon",
    "MalformedNetworkError",
    "Match",
    "ModelBundle",
    "ModelLoadError",
    "Node",
    "Rule",
    "TransferRule",
    "TreelineParseError",
    "UnparseableTextError",
    "UnrealizableFragmentError",
    "UntranslatableConceptError",
    "anchor_resolutions",
    "ancestors",
    "apply_orthography",
    "build_rule",
    "build_transfer_rule",
    "canonical_key",
    "canonicalize",
    "concept_sim",
    "equal",
    "expand",
    "is_a",
    "join_affixes",
    "load_corpus",
    "load_model",
    "load_model_text",
    "load_pair",
    "load_pair_text",
    "match_rules",
    "network_sim",
    "parse_document",
    "parse_network",
    "parse_text",
    "print_network",
    "realize",
    "resolve_anchors",
    "segment",
    "strip_orthography",
    "to_json_dict",
    "translate",
]
