"""``describe_value``: the fast path against the general path.

``describe_value`` turns every traced payload into its exported form.  Its
exact-type fast path (flat ``str -> scalar`` dicts, the msg-send/msg-deliver
shape) must be indistinguishable from the general recursive path, kept here
as the reference.
"""

import enum
import json
import os
import subprocess
import sys
from collections import OrderedDict

from hypothesis import given
from hypothesis import strategies as st

from repro.sim.trace import describe_value


def general_describe(value):
    """The general path alone, with no exact-type shortcut (the reference)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (tuple, list)):
        return [general_describe(v) for v in value]
    msg_id = getattr(value, "msg_id", None)
    if msg_id is not None:
        return general_describe(msg_id)
    if isinstance(value, (set, frozenset)):
        return sorted([general_describe(v) for v in value], key=repr)
    if isinstance(value, dict):
        return {
            str(k): general_describe(v)
            for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    return repr(value)


def exact(described):
    """A rendering that separates what ``==`` conflates: ``True`` from ``1``,
    one key order from another, NaN from NaN."""
    return json.dumps(described)


def assert_same(value):
    assert exact(describe_value(value)) == exact(general_describe(value))


class Envelope:
    """A message object: described by its stable id, not its repr."""

    def __init__(self, msg_id):
        self.msg_id = msg_id


class TaggedDict(dict):
    """A dict subclass that also exposes ``msg_id``."""

    msg_id = (7, 3)


class Level(enum.IntEnum):
    HIGH = 2


class TestFastPath:
    def test_flat_dict_keeps_values_and_sorts_keys(self):
        data = {"dst": 0, "kind": "WabMessage", "channel": "datagram", "id": 12}
        described = describe_value(data)
        assert described == data and described is not data
        assert list(described) == ["channel", "dst", "id", "kind"]
        assert_same(data)

    def test_every_scalar_type_is_flat(self):
        assert_same({"n": None, "b": False, "i": -3, "f": 0.25, "s": "x"})

    def test_bool_stays_bool_and_int_stays_int(self):
        described = describe_value({"flag": True, "count": 1})
        assert described["flag"] is True and type(described["count"]) is int
        assert exact(described) == '{"count": 1, "flag": true}'
        assert describe_value(True) is True and describe_value(1) == 1

    def test_empty_dict_and_nan(self):
        assert describe_value({}) == {}
        assert_same({})
        assert_same({"x": float("nan"), "y": float("-inf")})


class TestFallThrough:
    def test_nested_values_are_described(self):
        data = {"value": [(3, 1)], "instance": (0, 2), "round": 1}
        assert describe_value(data) == {
            "instance": [0, 2], "round": 1, "value": [[3, 1]]
        }
        assert_same(data)
        assert_same({"a": {"b": {"z", "y"}}, "c": frozenset({("q", 1)})})

    def test_non_str_keys_become_strings_sorted_by_str(self):
        data = {10: "ten", 9: "nine", "1": "one", (2, 1): "pair"}
        described = describe_value(data)
        assert list(described) == ["(2, 1)", "1", "10", "9"]
        assert_same(data)
        assert_same({1: "int", "1": "str"})  # colliding str(key): last wins

    def test_scalar_subclasses_fall_through_unchanged(self):
        data = {"level": Level.HIGH, "plain": 2}
        assert describe_value(data)["level"] is Level.HIGH
        assert_same(data)

    def test_dict_subclasses_take_the_general_path(self):
        assert describe_value(TaggedDict(a=1)) == [7, 3]
        assert describe_value(OrderedDict(b=1, a=2)) == {"a": 2, "b": 1}
        assert_same(OrderedDict(b=1, a=2))

    def test_message_objects_render_by_msg_id(self):
        assert describe_value(Envelope((3, 1))) == [3, 1]
        assert describe_value({"m": Envelope("id-9")}) == {"m": "id-9"}
        assert describe_value([Envelope(4), {"k": Envelope(5)}]) == [4, {"k": 5}]

    def test_unknown_objects_render_by_repr(self):
        assert describe_value(3 + 4j) == "(3+4j)"
        assert describe_value({"z": 3 + 4j}) == {"z": "(3+4j)"}


class TestSetsAreHashSeedStable:
    def test_nested_string_sets_sort_identically(self):
        value = (["b", "a"], {"beta", "alpha", "gamma"}, frozenset({("y", "x"), ("w",)}))
        assert describe_value(value) == [
            ["b", "a"],
            ["alpha", "beta", "gamma"],
            [["w"], ["y", "x"]],
        ]

    def test_same_bytes_under_different_hash_seeds(self):
        script = (
            "import json\n"
            "from repro.sim.trace import describe_value\n"
            "words = {'w%d' % i for i in range(40)}\n"
            "value = {'flat': 1, 'set': words, 'nested': [frozenset(words), ('t', words)],\n"
            "         'keys': {w: i for i, w in enumerate(sorted(words))}}\n"
            "print(list(words)[:5], file=__import__('sys').stderr)\n"
            "print(json.dumps(describe_value(value)))\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        runs = [
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
                capture_output=True,
                text=True,
                timeout=60,
            )
            for seed in ("1", "2", "3")
        ]
        assert all(run.returncode == 0 for run in runs), runs[0].stderr
        # The seeds really did reorder the raw sets ...
        assert len({run.stderr for run in runs}) > 1
        # ... and the described form does not care.
        assert len({run.stdout for run in runs}) == 1


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=4),
)
hashables = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.tuples(inner, inner), st.frozensets(inner, max_size=3)
    ),
    max_leaves=6,
)
keys = st.one_of(st.text(max_size=3), st.integers(-5, 5), st.booleans())
values = st.recursive(
    st.one_of(scalars, st.builds(Envelope, hashables)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.tuples(inner, inner),
        st.sets(hashables, max_size=3),
        st.dictionaries(keys, inner, max_size=4),
    ),
    max_leaves=12,
)


class TestProperties:
    @given(st.dictionaries(st.text(max_size=3), scalars, max_size=6))
    def test_flat_dicts_match_the_general_path(self, data):
        assert_same(data)

    @given(values)
    def test_any_value_matches_the_general_path(self, value):
        assert_same(value)

    @given(values)
    def test_described_values_are_json_and_already_described(self, value):
        described = describe_value(value)
        assert json.loads(json.dumps(described)) == described
        assert exact(describe_value(described)) == exact(described)
