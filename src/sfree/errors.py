"""Exception types shared across the package.

Every error carries a short machine-readable ``code`` so the CLI can emit
one-line parseable diagnostics.
"""


#: Deepest parenthesis nesting the regex and expression parsers accept.  The
#: parsers and the tree walks after them recurse once per level, so deeper
#: input is refused with a ParseError well before Python's recursion limit.
MAX_NESTING = 100


class SfreeError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"


class ParseError(SfreeError, ValueError):
    """Malformed textual input (regex, expression, table, or DFA file)."""

    code = "parse"

    def __init__(self, message: str, position: "int | None" = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class AlphabetError(SfreeError, ValueError):
    """Letter outside the declared alphabet, or mismatched alphabets."""

    code = "alphabet"


class MonoidError(SfreeError, ValueError):
    """Invalid multiplication table or element outside its expected range."""

    code = "monoid"


class MonoidSizeError(MonoidError):
    """Monoid grew past the configured size cap."""

    code = "monoid-cap"


class NonAperiodicError(SfreeError, ValueError):
    """Synthesis requested for a monoid that is not aperiodic."""

    code = "non-aperiodic"
