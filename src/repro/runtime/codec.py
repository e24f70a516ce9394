"""One JSON codec for every spec dataclass.

:class:`SpecCodec` gives each frozen spec in :mod:`repro.runtime.spec`
its ``to_dict`` / ``from_dict``: one JSON key per dataclass field, nested
specs as objects, tuples as lists.  Decoding checks each value against
its field's type hint, resolved once per class.  A missing key takes the
field default, so every default is written once; value validation stays
in each spec's ``__post_init__``.  Spec files are outside input, so a
malformed one raises :class:`~repro.errors.ConfigError` naming the JSON
path of the bad value (``scenario.devices[0].profile: expected an
object, got int``).
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import types
import typing
from typing import Any, Callable, TypeVar

from repro.errors import ConfigError

# A decoder checks a value against one type hint and returns its spec form;
# its path (root name or ``(parent, key)``) is only rendered for an error.
Decoder = Callable[[Any, Any], Any]
_S = TypeVar("_S", bound="SpecCodec")


class SpecCodec:
    """Mixin giving a frozen spec dataclass its JSON form."""

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible form; :meth:`from_dict` inverts it exactly."""
        return {name: _encode(getattr(self, name)) for name in _fields(type(self))[0]}

    @classmethod
    def from_dict(cls: type[_S], data: Any) -> _S:
        """Inverse of :meth:`to_dict`.

        Raises:
            ConfigError: ``data`` has an unknown or missing key, a value
                of the wrong JSON type, or fails the spec's validation.
        """
        return _decode_spec(cls, data, cls.__name__.removesuffix("Spec").lower())


def _encode(value: Any) -> Any:
    if isinstance(value, SpecCodec):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    if isinstance(value, dict):
        return {key: _encode(item) for key, item in value.items()}
    return value


@functools.cache
def _fields(cls: type) -> tuple[dict[str, Decoder], frozenset[str]]:
    """Field decoders in field order, and the names without a default."""
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    required = frozenset(
        f.name for f in fields if f.default is f.default_factory is dataclasses.MISSING
    )
    return {f.name: _decoder(hints[f.name]) for f in fields}, required


def _render(path: Any) -> str:
    if isinstance(path, str):
        return path
    parent, key = path
    return f"{_render(parent)}[{key}]" if isinstance(key, int) else f"{_render(parent)}.{key}"


def _mismatch(path: Any, expected: str, value: Any) -> ConfigError:
    return ConfigError(f"{_render(path)}: expected {expected}, got {type(value).__name__}")


def _decode_spec(cls: type[_S], data: Any, path: Any) -> _S:
    if not isinstance(data, dict):
        raise _mismatch(path, "an object", data)
    decoders, required = _fields(cls)
    kwargs = {}
    for name, value in data.items():
        decode = decoders.get(name)
        if decode is None:
            unknown = sorted(data.keys() - decoders.keys())
            raise ConfigError(f"{_render(path)}: unknown keys {unknown}")
        kwargs[name] = decode(value, (path, name))
    if not required <= kwargs.keys():
        missing = sorted(required - kwargs.keys())
        raise ConfigError(f"{_render(path)}: missing keys {missing}")
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{_render(path)}: {exc}") from None


_SCALARS = {
    str: ((str,), "a string"),
    bool: ((bool,), "a boolean"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
}


def _decoder(hint: Any) -> Decoder:
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (types.UnionType, typing.Union):
        # ``X | None`` is the only union the specs use.
        (inner,) = [arg for arg in args if arg is not type(None)]
        decode_inner = _decoder(inner)
        return lambda value, path: None if value is None else decode_inner(value, path)
    if origin is tuple:
        # ``tuple[X, ...]`` is any length of X; ``tuple[X, Y]`` is exactly two.
        variadic = len(args) == 2 and args[1] is Ellipsis
        items = [_decoder(arg) for arg in (args[:1] if variadic else args)]

        def decode_tuple(value: Any, path: Any) -> tuple:
            if not isinstance(value, (list, tuple)):
                raise _mismatch(path, "a list", value)
            if not variadic and len(value) != len(items):
                raise ConfigError(f"{_render(path)}: expected {len(items)} items, got {len(value)}")
            decoders = itertools.repeat(items[0]) if variadic else items
            return tuple([d(v, (path, i)) for i, (d, v) in enumerate(zip(decoders, value))])

        return decode_tuple
    if origin is dict:
        decode_key, decode_item = _decoder(args[0]), _decoder(args[1])

        def decode_mapping(value: Any, path: Any) -> dict:
            if not isinstance(value, dict):
                raise _mismatch(path, "an object", value)
            return {decode_key(k, path): decode_item(v, (path, k)) for k, v in value.items()}

        return decode_mapping
    if dataclasses.is_dataclass(hint):
        return functools.partial(_decode_spec, hint)
    kinds, expected = _SCALARS[hint]
    # bool subclasses int: JSON true/false pass only where the hint is bool.
    allow_bool = hint is bool

    def decode_scalar(value: Any, path: Any) -> Any:
        if isinstance(value, kinds) and (allow_bool or not isinstance(value, bool)):
            return value
        raise _mismatch(path, expected, value)

    return decode_scalar
