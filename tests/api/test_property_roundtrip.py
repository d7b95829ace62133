"""Property-based round-trips: ResultSet serialisation and cache_key stability.

Two layers with one set of invariants:

* a seeded randomized battery that always runs (deterministic across
  machines -- no hypothesis required),
* a hypothesis battery (skipped when hypothesis is not installed) that
  explores the same invariants with shrinking.

Invariants: ``to_json``/``from_json`` is lossless for data, meta and content
hash; ``to_csv``/``from_csv`` is lossless for the numeric tables the
experiments produce; ``cache_key`` is deterministic, insertion-order
independent, and sensitive to every one of its inputs.
"""

import random
import string

import pytest

from repro.api import ResultSet
from repro.api.engine import cache_key

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - image always ships hypothesis
    HAVE_HYPOTHESIS = False

N_SEEDED_CASES = 20
SEED = 20260808


def _random_name(rng, max_size=8):
    return "".join(
        rng.choice(string.ascii_lowercase) for _ in range(rng.randint(1, max_size))
    )


def _random_value(rng, csv_safe=False):
    choices = ["int", "float", "word", "none"]
    if not csv_safe:
        choices += ["bool", "text"]
    kind = rng.choice(choices)
    if kind == "int":
        return rng.randint(-(10**9), 10**9)
    if kind == "float":
        return rng.uniform(-1e12, 1e12) * 10 ** rng.randint(-12, 12)
    if kind == "word":
        # Alphabetic only: cannot be mistaken for a number by the CSV coercion.
        return _random_name(rng)
    if kind == "bool":
        return rng.choice([True, False])
    if kind == "text":
        return "".join(
            rng.choice(string.printable) for _ in range(rng.randint(0, 12))
        )
    return None


def _random_table(rng, csv_safe=False):
    keys = []
    while len(keys) < rng.randint(1, 4):
        key = _random_name(rng)
        if key not in keys:
            keys.append(key)
    return [
        {key: _random_value(rng, csv_safe=csv_safe) for key in keys}
        for _ in range(rng.randint(1, 6))
    ]


def _random_params(rng):
    return {
        _random_name(rng): _random_value(rng, csv_safe=True)
        for _ in range(rng.randint(1, 5))
    }


def _seeded(generator):
    rng = random.Random(SEED)
    return [generator(rng) for _ in range(N_SEEDED_CASES)]


def assert_json_roundtrip(rows):
    original = ResultSet.from_records(
        rows, meta={"experiment": "prop_exp", "version": "1", "params": {"x": 1}}
    )
    restored = ResultSet.from_json(original.to_json())
    assert restored.to_records() == original.to_records()
    assert restored.meta == original.meta
    assert restored.content_hash == original.content_hash


def assert_csv_roundtrip(rows):
    original = ResultSet.from_records(rows)
    restored = ResultSet.from_csv(original.to_csv())
    assert restored.to_records() == original.to_records()
    assert restored.content_hash == original.content_hash


def assert_cache_key_properties(params):
    key = cache_key("prop_exp", "1", params)
    # Deterministic, and independent of dict insertion order.
    assert cache_key("prop_exp", "1", params) == key
    shuffled = dict(reversed(list(params.items())))
    assert cache_key("prop_exp", "1", shuffled) == key
    assert len(key) == 64 and set(key) <= set("0123456789abcdef")
    # Sensitive to name, version, every param value, and upstream hashes.
    assert cache_key("prop_exp2", "1", params) != key
    assert cache_key("prop_exp", "2", params) != key
    for name in params:
        mutated = dict(params)
        mutated[name] = "mutated-sentinel"
        if mutated[name] != params[name]:
            assert cache_key("prop_exp", "1", mutated) != key
    # Empty upstream keeps historical keys valid; a real one chains them.
    assert cache_key("prop_exp", "1", params, upstream={}) == key
    assert cache_key("prop_exp", "1", params, upstream={"dep": "a" * 64}) != key


class TestSeededRoundTrip:
    """Deterministic battery -- runs everywhere, hypothesis or not."""

    @pytest.mark.parametrize("rows", _seeded(_random_table))
    def test_json_roundtrip(self, rows):
        assert_json_roundtrip(rows)

    @pytest.mark.parametrize(
        "rows", _seeded(lambda rng: _random_table(rng, csv_safe=True))
    )
    def test_csv_roundtrip(self, rows):
        assert_csv_roundtrip(rows)

    @pytest.mark.parametrize("params", _seeded(_random_params))
    def test_cache_key_stability(self, params):
        assert_cache_key_properties(params)


if HAVE_HYPOTHESIS:
    names = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8)
    json_values = st.one_of(
        st.integers(min_value=-(10**15), max_value=10**15),
        st.floats(allow_nan=False, allow_infinity=False),
        st.booleans(),
        st.text(max_size=16),
        st.none(),
    )
    def _parses_as_float(word):
        try:
            float(word)
        except ValueError:
            return False
        return True

    csv_values = st.one_of(
        st.integers(min_value=-(10**15), max_value=10**15),
        st.floats(allow_nan=False, allow_infinity=False),
        # Alphabetic words survive the CSV numeric coercion unchanged, except
        # the ones float() reads as numbers ("inf", "nan", "infinity").
        names.filter(lambda word: not _parses_as_float(word)),
        st.none(),
    )

    def tables(values):
        return st.lists(names, min_size=1, max_size=4, unique=True).flatmap(
            lambda keys: st.lists(
                st.fixed_dictionaries({key: values for key in keys}),
                min_size=1,
                max_size=6,
            )
        )

    class TestHypothesisRoundTrip:
        """Shrinking exploration of the same invariants."""

        @settings(max_examples=30, deadline=None)
        @given(rows=tables(json_values))
        def test_json_roundtrip(self, rows):
            assert_json_roundtrip(rows)

        @settings(max_examples=30, deadline=None)
        @given(rows=tables(csv_values))
        def test_csv_roundtrip(self, rows):
            assert_csv_roundtrip(rows)

        @settings(max_examples=30, deadline=None)
        @given(params=st.dictionaries(names, csv_values, min_size=1, max_size=5))
        def test_cache_key_stability(self, params):
            assert_cache_key_properties(params)
