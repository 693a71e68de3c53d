"""Exception types shared across the package, and the one table of the sizes
a caller may request."""


class ParseError(ValueError):
    """Malformed external text; carries the 1-based position of the offense."""

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class LimitError(ValueError):
    """A requested size lies outside its range in SIZE_LIMITS."""


class MembershipError(ValueError):
    """Input object is not a member of the family an operation requires."""


class UnknownNameError(ValueError, KeyError):
    """A name (rule, sequence, growth family, suite) that its table does not
    hold; also a KeyError, as a table lookup raises, but worded as a plain
    message."""

    __str__ = ValueError.__str__

    def __init__(self, what: str, name, known):
        super().__init__(f"unknown {what} {name!r}; known: {', '.join(sorted(known))}")


# (lowest, highest) of every size a public entry point takes; each highest is
# at least the largest size a test, verify check or benchmark uses.  e3 and
# triangle count from 0, reference sequences (catalan .. semibaxter) from 1;
# baxter and semibaxter reach the depth bound, against which the bax and semi
# rules are checked, and the residual reads the i-geq3 rule to depth order.
# The *-input sizes bound the objects grow --input and map --input take
# (objects.text_size; inversion tables count as inversion sequences).
SIZE_LIMITS = {
    "perm": (1, 10), "invseq": (1, 10), "path": (1, 8), "tree": (1, 8),
    "depth": (1, 120), "e3": (0, 8000), "triangle": (0, 300),
    "catalan": (1, 1000), "a108307": (1, 1000), "pcat": (1, 300), "baxter": (1, 300), "semibaxter": (1, 1000),
    "kernel": (1, 40), "residual": (1, 120), "jobs": (1, 1024),
    "invseq-input": (0, 100), "perm-input": (0, 100), "path-input": (0, 100), "tree-input": (0, 100),
}


def check_size(name: str, n: int, highest: int | None = None) -> None:
    """Raise LimitError unless n lies in the named size's range; highest, when
    given, replaces the table's (the limit= argument of the class functions).
    TypeError unless n is an int: a float or a bool would compare as one."""
    if type(n) is bool or not isinstance(n, int):
        raise TypeError(f"{name} size must be an int, got {type(n).__name__}")
    lowest, top = SIZE_LIMITS[name]
    top = top if highest is None else highest
    if not lowest <= n <= top:
        raise LimitError(f"{name} size {n} is outside {lowest}..{top}")
