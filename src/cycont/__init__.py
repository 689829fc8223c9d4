"""Exact continuants on cyclic words.

Evaluation of regular and semi-regular continuants and their cyclic
analogues, the plain and alternating comparison orders with their prefix
conventions, extremal search over cyclic Abelian classes with
class-membership certificates (a certified construction for the three
problems with one optimum up to reversal, scoring the class, less every
word with a short plain non-synchronizing cut, for the semi-regular
maximum),
exchange graphs, and construction of singular cyclic words through
insertion maps.
"""

from .continuants import (
    DomainError,
    cf_value,
    continuant_regular,
    continuant_semiregular,
    cyclic_regular,
    cyclic_semiregular,
)
from .extremal import (
    ClassMembership,
    ExchangeGraph,
    SearchReport,
    SyncKind,
    build_exchange_graph,
    classify,
    exchange,
    is_synchronizing,
    reversal_class_representative,
    search,
)
from .singular import (
    ConstructionStep,
    ConstructionTrace,
    LetterPair,
    MidpointCase,
    SingleLetter,
    christoffel,
    construct_singular,
    delta,
    delta_profile,
    is_balanced,
    is_singular,
    midpoint_case,
    xi_cyclic,
    xi_linear,
    xi_preimage,
)
from .words import (
    CyclicWord,
    LinearWord,
    OrderedAlphabet,
    Ordering,
    ParikhVector,
    alphabet_of_size,
    compare_alt,
    compare_lex,
    enumerate_class,
    least_rotation_index,
    necklace_count,
    split_points,
)

__version__ = "0.1.0"

__all__ = [
    "ClassMembership",
    "ConstructionStep",
    "ConstructionTrace",
    "CyclicWord",
    "DomainError",
    "ExchangeGraph",
    "LetterPair",
    "LinearWord",
    "MidpointCase",
    "OrderedAlphabet",
    "Ordering",
    "ParikhVector",
    "SearchReport",
    "SingleLetter",
    "SyncKind",
    "alphabet_of_size",
    "build_exchange_graph",
    "cf_value",
    "christoffel",
    "classify",
    "compare_alt",
    "compare_lex",
    "construct_singular",
    "continuant_regular",
    "continuant_semiregular",
    "cyclic_regular",
    "cyclic_semiregular",
    "delta",
    "delta_profile",
    "enumerate_class",
    "exchange",
    "is_balanced",
    "is_singular",
    "is_synchronizing",
    "least_rotation_index",
    "midpoint_case",
    "necklace_count",
    "reversal_class_representative",
    "search",
    "split_points",
    "xi_cyclic",
    "xi_linear",
    "xi_preimage",
]
