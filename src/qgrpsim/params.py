"""Declared parameters: dataclass fields that carry their config key and check.

A field made by `param` keeps its default as the dataclass default.  Its
metadata adds the field's key in a scenario document, where the key
differs from the field name (mostly by a unit suffix), and a check of the
field's value alone.  `check_params` applies the checks to an instance;
the config parser applies the same checks to each key it reads, so an
error there can name the key.
"""

from __future__ import annotations

from dataclasses import MISSING, field, fields


def rule(test, message):
    """A check: the message when `test` rejects the value, else None."""
    return lambda value: None if test(value) else message


def at_least(low):
    return rule(lambda v: v >= low, f"must be >= {low}")


POSITIVE = rule(lambda v: v > 0, "must be positive")
FRACTION = rule(lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]")


def param(default=MISSING, key=None, check=None, section=None):
    """A field declared as config key `key`, by default the field name.

    `section` is given only for a field of the scenario config itself.
    """
    return field(default=default, metadata={"key": key, "check": check, "section": section})


def check_params(obj):
    """Raise ValueError naming the first field of obj whose check rejects its value."""
    for f in fields(obj):
        check = f.metadata.get("check")
        value = getattr(obj, f.name)
        problem = check and check(value)
        if problem:
            raise ValueError(f"{f.name} {problem}, got {value!r}")
