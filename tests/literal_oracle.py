"""The reader that instance values and inline literals had before the
JSON-subset grammar: Python's ast.literal_eval, then a recursive check
that every item is an int (not a bool) or a list.  It accepts more than
covering.parse_literal does (`0x10`, `1_000`, `+5`, `- 5`, `00`, `(5)`,
a trailing comma), and on the grammar both accept the two must decode
to equal values.  Kept only as a test oracle.
"""

import ast


def _ok(v):
    # bool is a subclass of int, but True is no integer entry
    if type(v) is int:
        return True
    if isinstance(v, list):
        return all(_ok(x) for x in v)
    return False


def literal_oracle(raw):
    """The value of raw under the old reader; ValueError if it refuses."""
    try:
        val = ast.literal_eval(raw.strip())
    except (ValueError, SyntaxError) as exc:
        raise ValueError(f"cannot parse value {raw!r}") from exc
    if not _ok(val):
        raise ValueError(f"only integers and bracket lists allowed: {raw!r}")
    return val
