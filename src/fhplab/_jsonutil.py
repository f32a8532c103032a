"""The one JSON encoder for fhplab's reports.

`to_json(value)` turns a report value into plain JSON data:

- a `Fraction` becomes `{"num": numerator, "den": denominator}`, so a
  rational is never rounded;
- a set or frozenset becomes a sorted list;
- a dict gets string keys and keeps its own order;
- a type whose JSON differs from its fields defines `to_json_dict()`,
  which returns the shape with raw values; `to_json` then encodes those
  values in turn;
- a type with `_fields` (a `NamedTuple`, or a plain class that names its
  fields) becomes `"schema"` followed by those fields in order; this rule
  comes before the tuple rule, so such a value is never a list;
- a tuple or list becomes a list (one of plain ints is copied whole);
- anything else (int, str, bool, None) is kept as it is.

Report types build their values in a deterministic order, so one report
always encodes to the same bytes.
"""

from fractions import Fraction

SCHEMA_VERSION = 1


def rat_to_json(q: Fraction) -> dict:
    return {"num": q.numerator, "den": q.denominator}


def to_json(value):
    """Plain JSON data for a report value; see the module docstring."""
    if isinstance(value, Fraction):
        return rat_to_json(value)
    if isinstance(value, (set, frozenset)):
        return [to_json(v) for v in sorted(value)]
    if isinstance(value, dict):
        return {str(k): to_json(v) for k, v in value.items()}
    shape = getattr(value, "to_json_dict", None)
    if shape is not None:
        return to_json(shape())
    names = getattr(value, "_fields", None)
    if names is not None and not isinstance(value, type):
        out = {"schema": SCHEMA_VERSION}
        for name in names:
            out[name] = to_json(getattr(value, name))
        return out
    if isinstance(value, (tuple, list)):
        if all(type(v) is int for v in value):
            return list(value)
        return [to_json(v) for v in value]
    return value
