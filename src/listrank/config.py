"""Configuration dataclasses from JSON objects, checked field by field."""

from __future__ import annotations

import dataclasses
import typing

from .errors import ConfigError


def from_json_object(cls, obj):
    """``cls(**obj)`` once ``obj`` is known to be a JSON object whose keys
    are fields of the dataclass ``cls`` and whose values have the fields'
    types. An int is a valid float; JSON true/false are not numbers."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{cls.__name__} must be a JSON object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} keys: {', '.join(unknown)}")
    hints = typing.get_type_hints(cls)
    for name, value in obj.items():
        allowed = typing.get_args(hints[name]) or (hints[name],)
        allowed += (int,) if float in allowed else ()
        # type() rather than isinstance: bool is an int subclass
        if type(value) not in allowed:
            raise ConfigError(f"{cls.__name__}.{name} must be "
                              f"{' or '.join(t.__name__ for t in allowed)}, got {value!r}")
    return cls(**obj)
