"""Shared exception types, and the type checks of JSON literal fields."""

from numbers import Integral


class DomainError(ValueError):
    """Input lies outside the mathematical domain of the operation."""


class ValidationError(DomainError):
    """Structured data (sequence, semigroup, tree) violates its invariants."""


class TruncationError(DomainError):
    """Series truncation is too small to decide the requested quantity."""


class InputError(ValueError):
    """Malformed textual or JSON input; carries a position when available."""

    def __init__(self, message, position=None):
        if position is not None:
            message = "%s (at position %d)" % (message, position)
        super().__init__(message)
        self.position = position


# characters of an inline literal, argument or token that a message repeats
LITERAL_ECHO = 40


def echo(value):
    """repr of the first LITERAL_ECHO characters of a string, marked when cut;
    any other value by its repr, cut the same way."""
    if isinstance(value, str):
        return repr(value[:LITERAL_ECHO]) + ("..." if len(value) > LITERAL_ECHO else "")
    text = repr(value)
    return text if len(text) <= LITERAL_ECHO else text[:LITERAL_ECHO] + "..."


def literal_fields(data, keys, what):
    """The literal `data` itself, once it is an object holding every key."""
    if not isinstance(data, dict):
        raise InputError("%s literal must be an object, got %s" % (what, echo(data)))
    missing = [key for key in keys if key not in data]
    if missing:
        raise InputError("%s literal is missing %s" % (what, ", ".join(missing)))
    return data


def literal_int(value, what, least=None):
    """An integer field of a literal, at least `least` when that is given;
    anything else is malformed input."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise InputError("%s must be an integer, got %s" % (what, echo(value)))
    if least is not None and value < least:
        raise InputError("%s must be at least %d, got %d" % (what, least, value))
    return int(value)


def literal_list(value, what):
    """A list field of a literal; anything else is malformed input."""
    if not isinstance(value, (list, tuple)):
        raise InputError("%s must be a list, got %s" % (what, echo(value)))
    return list(value)


def literal_ints(value, what):
    """A list of integers in a literal."""
    return [literal_int(x, "an entry of " + what) for x in literal_list(value, what)]
