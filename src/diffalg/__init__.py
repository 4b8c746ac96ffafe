"""Exact differential-polynomial algebra over the rationals.

Sparse differential polynomials with a single derivation, Ritt rank data,
certified division, leader resultants and discriminants, extension
witnesses, and a text surface syntax.
"""

from .errors import (
    ConstantDivisor,
    ConstantPolynomial,
    DiffAlgError,
    DocumentError,
    DomainError,
    ExponentOutOfRange,
    InputError,
    ParseError,
    ReducesIntoIdeal,
    UnknownIndeterminate,
    VanishingResultant,
    ZeroPolynomial,
    ZeroTarget,
)
from .polynomials import Context, DerivVar, DiffPoly, Monomial, exact_div
from .ranking import Comparison, RankProfile, initial, rank_compare, rank_profile, separant
from .reduction import (
    ReductionCertificate,
    ReductionMode,
    VerificationResult,
    ritt_reduce,
    verify_certificate,
)
from .elimination import (
    LeaderPoly,
    as_leader_poly,
    det_bareiss,
    det_cofactor,
    discriminant,
    resultant,
    sylvester_matrix,
)
from .witness import (
    ChevalleyWitness,
    WitnessCase,
    chevalley_witness,
    degree_bound,
    select_coefficient,
)
from .syntax import format_poly, parse_poly, render_var
from .documents import (
    parse_certificate,
    parse_witness,
    serialize_certificate,
    serialize_witness,
)

__all__ = [
    "ChevalleyWitness",
    "Comparison",
    "ConstantDivisor",
    "ConstantPolynomial",
    "Context",
    "DerivVar",
    "DiffAlgError",
    "DiffPoly",
    "DocumentError",
    "DomainError",
    "ExponentOutOfRange",
    "InputError",
    "LeaderPoly",
    "Monomial",
    "ParseError",
    "RankProfile",
    "ReducesIntoIdeal",
    "ReductionCertificate",
    "ReductionMode",
    "UnknownIndeterminate",
    "VanishingResultant",
    "VerificationResult",
    "WitnessCase",
    "ZeroPolynomial",
    "ZeroTarget",
    "as_leader_poly",
    "chevalley_witness",
    "degree_bound",
    "det_bareiss",
    "det_cofactor",
    "discriminant",
    "exact_div",
    "format_poly",
    "initial",
    "parse_certificate",
    "parse_poly",
    "parse_witness",
    "rank_compare",
    "rank_profile",
    "render_var",
    "resultant",
    "ritt_reduce",
    "select_coefficient",
    "separant",
    "serialize_certificate",
    "serialize_witness",
    "sylvester_matrix",
    "verify_certificate",
]

__version__ = "0.1.0"
