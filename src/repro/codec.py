"""Declarative JSON codec for the frozen spec dataclasses (docs/ENGINE.md).

:class:`Encoded` derives a class's canonical dict from its dataclass fields.
The class declares ``tag`` (a key written first, valued by the class attribute
of that name) and ``omit``: **a field in an omit-group is written only when
some member of its group encodes differently from its default**, every other
field always, and required on decode.  Values encode by type: tuples as lists,
nested :class:`Encoded` as dicts (empty and optional as ``null``), any other
class as a registered model ``{"type": <class name>, **fields}``.  Each codec
is generated once as straight-line code, as :mod:`dataclasses` builds
``__init__``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import types
import typing
from dataclasses import MISSING
from typing import Any, Callable, Sequence

from repro.errors import ConfigurationError

__all__ = ["Encoded", "content_key", "register_models", "tagged"]


def content_key(payload: dict) -> str:
    """sha256 of ``payload``'s canonical JSON (sorted keys, no NaN)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def tagged(classes: Sequence[type]) -> Callable[[dict], Any]:
    """Decoder of a dict holding any of ``classes``, picked by their tag."""
    tag, label = classes[0].tag, classes[0].tag_label
    by_tag = {getattr(cls, tag): cls for cls in classes}

    def decode(data: dict) -> Any:
        if data.get(tag) not in by_tag:
            raise ConfigurationError(f"unknown {label} {data.get(tag)!r}")
        return by_tag[data[tag]].from_dict(data)

    return decode


class Encoded:
    """Mixin giving a dataclass ``to_dict``/``from_dict`` (see module doc)."""

    __slots__ = ()
    tag: str | None = None
    tag_label = ""  # what the tag names, for errors: "spec kind"
    omit: tuple[tuple[str, ...], ...] = ()

    def to_dict(self) -> dict:
        return _plan_of(type(self))[0](self)

    @classmethod
    def from_dict(cls, data: dict | None):
        """Inverse of :meth:`to_dict`; ``None`` gives the default instance."""
        return cls() if data is None else _plan_of(cls)[1](data)


_MODELS: dict[str, type] = {}


def register_models(*classes: type) -> None:
    """Admit dataclasses as models (the delay/capacity models of a cluster)."""
    _MODELS.update((cls.__name__, cls) for cls in classes)


def _encode_model(model: Any) -> dict:
    if _MODELS.get(name := type(model).__name__) is not type(model):
        raise ConfigurationError(f"cannot serialise model {name!r}; specs accept: {sorted(_MODELS)}")
    return _plan_of(type(model))[0](model)


def _decode_model(data: dict) -> Any:
    fields = dict(data)
    if (name := fields.pop("type")) not in _MODELS:
        raise ConfigurationError(f"unknown model type {name!r} in spec")
    return _MODELS[name](**fields)


def _codec(hint: Any) -> tuple[Callable | None, Callable | None]:
    """(encode, decode) for values of type ``hint``; ``None`` copies as is."""
    if hint in (int, float, str, bool, type(None), Any):
        return None, None
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is tuple:
        items = [_codec(arg) for arg in args if arg is not Ellipsis]
        if all(enc is None for enc, _ in items):
            return list, tuple
        ((enc, dec),) = items
        return (lambda v: [enc(x) for x in v]), (lambda raw: tuple(dec(x) for x in raw))
    if origin in (typing.Union, types.UnionType):
        members = [arg for arg in args if arg is not type(None)]
        if len(members) > 1:
            return Encoded.to_dict, tagged(members)
        enc, dec = _codec(members[0])
        if enc is None or len(members) == len(args):
            return enc, dec
        # An optional nested value: an empty one is written, and read, as null.
        return (lambda v: enc(v) if v else None), (lambda raw: raw and dec(raw) or None)
    if isinstance(hint, type) and issubclass(hint, Encoded):
        return _plan_of(hint)[0], hint.from_dict
    return _encode_model, _decode_model


def _compile(cls: type, head: dict, omit: Sequence[tuple[str, ...]]):
    """Generate ``cls``'s (encode, decode) functions from its fields."""
    hints = typing.get_type_hints(cls)
    fields = {f.name: f for f in dataclasses.fields(cls)}
    codecs = {name: _codec(hints[name]) for name in fields}
    namespace: dict[str, Any] = {"cls": cls}

    def ref(value: Any) -> str:  # bind ``value`` in the generated namespace
        namespace[name := f"_{len(namespace)}"] = value
        return name

    def code(name: str, side: int, expr: str) -> str:
        fn = codecs[name][side]
        return expr if fn is None else f"{ref(fn)}({expr})"

    always = [n for n in fields if all(n not in group for group in omit)]
    out = [f"{k!r}: {v!r}" for k, v in head.items()]
    out += [f"{n!r}: {code(n, 0, 'obj.' + n)}" for n in always]
    kw = [f"{n!r}: {code(n, 1, f'data[{n!r}]')}" for n in always]
    encode = ["def encode(obj):", f"    out = {{{', '.join(out)}}}"]
    decode = ["def decode(data):", f"    kw = {{{', '.join(kw)}}}"]
    for group in omit:
        default = tuple(_encoded_default(fields[n], codecs[n][0]) for n in group)
        values = "".join(f"{code(n, 0, 'obj.' + n)}, " for n in group)
        encode += [f"    if (g := ({values})) != {ref(default)}:",
                   f"        out.update(zip({group!r}, g))"]
        decode += [f"    if {n!r} in data: kw[{n!r}] = {code(n, 1, f'data[{n!r}]')}" for n in group]
    exec("\n".join(encode + ["    return out"] + decode + ["    return cls(**kw)"]), namespace)
    return namespace["encode"], namespace["decode"]


def _encoded_default(f: dataclasses.Field, encode: Callable | None) -> Any:
    value = f.default if f.default_factory is MISSING else f.default_factory()
    return value if encode is None else encode(value)


@functools.cache
def _plan_of(cls: type) -> tuple[Callable, Callable]:
    if not issubclass(cls, Encoded):  # a registered model
        return _compile(cls, {"type": cls.__name__}, ())
    return _compile(cls, {} if cls.tag is None else {cls.tag: getattr(cls, cls.tag)}, cls.omit)
