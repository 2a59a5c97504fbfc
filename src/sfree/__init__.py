"""Decide star-freeness of regular languages and synthesize star-free
expressions.

A regular language is star-free exactly when its syntactic monoid is
aperiodic; for aperiodic inputs this package constructs an expression built
from the full language, single letters, union, set difference, and
concatenation only.  The construction does not check its output;
``dfa_equivalent(eval_expr(expr, alphabet), dfa)`` does, and ``sfree
verify`` runs that check on an expression file."""

from .automata import (
    Alphabet,
    Dfa,
    dfa_combine,
    dfa_equivalent,
    dfa_minimize,
    empty_dfa,
    enumerate_members,
    epsilon_dfa,
    letter_dfa,
    load_dfa,
    universal_dfa,
    words,
)
from .errors import (
    AlphabetError,
    MonoidError,
    MonoidSizeError,
    NonAperiodicError,
    ParseError,
    SfreeError,
)
from .monoid import (
    DEFAULT_MONOID_CAP,
    AperiodicityWitness,
    FiniteMonoid,
    Homomorphism,
    LocalDivisor,
    is_aperiodic,
    local_divisor,
    parse_monoid_table,
    transition_aperiodicity,
    transition_monoid,
    unit_factorization_check,
    validate_monoid,
)
from .regex import parse_regex, regex_to_dfa
from .sfexpr import (
    SfExpr,
    SfMetrics,
    eval_expr,
    expr_letters,
    metrics,
    n_bound,
    parse_expr,
    render_expr,
    simplify,
)
from .synthesis import (
    StarFreenessVerdict,
    SynthesisContext,
    commuting_diagram_check,
    decide_star_free,
    element_token,
    embed_expr,
    sigma_inverse,
    synthesize,
    token_element,
)

__version__ = "0.1.0"
