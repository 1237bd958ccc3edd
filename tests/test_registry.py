import json
import random

import pytest

import locomap as lm
from locomap import registry as registry_module
from locomap.orchestration import plan_job
from locomap.registry import SUM_BY_KEY, sum_map, wordcount_map

from helpers import heap_pairs, make_cluster

# A master and one sensor node, for planning jobs.
TOPOLOGY = lm.Topology.full_mesh(0, [1], bandwidth_bytes_per_s=1e6)

# Byte runs that stress the decode-and-split step: valid and truncated
# UTF-8, stray continuation and invalid bytes, and whitespace that only
# str.split knows (\x1c-\x1f, U+0085, U+00A0, U+2028, U+3000).
_PIECES = [b"a", b"bb", b"\xc3\xa9", b"\xe2\x82", b"\x82\xac", b"\xff", b"\x80", b" ", b"\t", b"\r", b"\x0b", b"\x0c"]
_PIECES += [b"\x1c", b"\x1d", b"\x1e", b"\x1f"] + [c.encode() for c in "\u0085\u00a0\u2028\u3000"]


def adversarial_values(rng: random.Random, n: int) -> list[bytes]:
    return [b"".join(rng.choice(_PIECES) for _ in range(rng.randrange(0, 6))) for _ in range(n)]


GENERIC_SUM_BY_KEY = lm.CombineOp(
    name="generic",
    identity=SUM_BY_KEY.identity,
    merge=SUM_BY_KEY.merge,
    lift=SUM_BY_KEY.lift,
    sample=SUM_BY_KEY.sample,
)


# Pieces of keys and scalar values the JSON encoder escapes or treats
# specially: quotes, backslashes, control characters, lone and paired
# surrogates (an escaped pair decodes to one character), non-BMP and
# non-ASCII characters, and the float and int values JSON spells oddly.
_KEY_PIECES = ['"', "\\", "\n", "\x00", "\ud800", "\udc00", "\U0001f600", "\u00e9", "\ud55c", "a", "z"]
_SCALARS = [True, False, None, float("nan"), float("inf"), float("-inf"), -0.0, 0.1, 2**70, -(2**70), 0, 7]


def flat_partials(rng: random.Random, n: int) -> list[dict]:
    partials = []
    for _ in range(n):
        keys = ["".join(rng.choice(_KEY_PIECES) for _ in range(rng.randrange(4))) for _ in range(rng.randrange(12))]
        partial = {}
        for key in keys:
            partial[key] = rng.choice(_SCALARS) if rng.randrange(4) else rng.choice(keys)
        partials.append(partial)
    return partials


def typed_items(value: dict) -> list[tuple]:
    """Items in order, with types and reprs, so 1 != True and nan == nan."""
    return [(type(k), repr(k), type(v), repr(v)) for k, v in value.items()]


class _Key(str):
    pass


class _Count(int):
    pass


def canonical_json(value) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8")


class TestPartialCodec:
    def test_canonical_bytes_ignore_construction_order(self):
        a = {"x": 1, "y": 2}
        b = {"y": 2, "x": 1}
        assert lm.encode_partial(a) == lm.encode_partial(b)

    def test_roundtrip(self):
        value = {"word": 3, "another": 1}
        assert lm.decode_partial(lm.encode_partial(value)) == value
        assert lm.decode_partial(bytearray(lm.encode_partial(value))) == value

    def test_malformed_bytes_raise(self):
        with pytest.raises(lm.DecodeError):
            lm.decode_partial(b"\xff\xfe not json")

    def test_flat_partials_encode_canonically_and_decode_as_json_loads(self):
        for value in flat_partials(random.Random(9), 400):
            data = lm.encode_partial(value)
            assert data == canonical_json(value)
            expected = typed_items(json.loads(data))
            first = lm.decode_partial(bytes(bytearray(data)))  # equal bytes, another object
            assert typed_items(first) == expected
            second = lm.decode_partial(data)
            assert second is not first
            assert typed_items(second) == expected

    @pytest.mark.parametrize(
        "value",
        [
            {1: 2},
            {True: 1},
            {"a": [1, {"y": 2, "x": 1}], "c": {"e": None, "d": 0}},
            [{"x": 1}, 2],
            {_Key("k"): 1},
            {"k": _Count(5)},
            {"\ud83d\ude00": 1},
            {"\ud83d\ude00": 1, "\U0001f600": 2},
        ],
        ids=["int-key", "bool-key", "nested", "list", "str-subclass-key", "int-subclass-value", "surrogate-pair", "pair-collides"],
    )
    def test_other_values_decode_as_json_loads(self, value):
        data = lm.encode_partial(value)
        assert data == canonical_json(value)
        decoded = lm.decode_partial(data)
        expected = json.loads(data)
        assert repr(decoded) == repr(expected)
        if isinstance(expected, dict):
            assert typed_items(decoded) == typed_items(expected)

    def test_handed_out_partials_are_private(self):
        value = {"a": 1, "b": 2}
        data = lm.encode_partial(value)
        value["a"] = 50
        handed = lm.decode_partial(data)
        assert handed == {"a": 1, "b": 2}
        handed["a"] = 99
        handed["c"] = 3
        assert lm.decode_partial(data) == {"a": 1, "b": 2}
        assert value == {"a": 50, "b": 2}


class TestCombineAlgebra:
    def test_sum_by_key_passes(self):
        lm.check_combine_algebra(SUM_BY_KEY, trials=60)

    def test_subtraction_is_rejected(self):
        bad = lm.CombineOp(
            name="subtract",
            identity=lambda: 0,
            merge=lambda a, b: a - b,
            lift=lambda k, v: v,
            sample=lambda rng: rng.randrange(100),
        )
        with pytest.raises(lm.ConfigError):
            lm.check_combine_algebra(bad)

    def test_registration_checks_by_default(self):
        registry = lm.FunctionRegistry()
        bad = lm.CombineOp(
            name="concat",  # order-dependent, must be refused
            identity=lambda: "",
            merge=lambda a, b: a + b,
            lift=lambda k, v: str(v),
            sample=lambda rng: chr(97 + rng.randrange(8)),
        )
        with pytest.raises(lm.ConfigError):
            registry.register_combine(bad)

    @pytest.mark.parametrize("a", [{}, {"x": 1}], ids=["identity", "smaller"])
    def test_merge_neither_mutates_nor_aliases_a_larger_b(self, a):
        b = {"x": 2, "y": 3}
        a_before, b_before = dict(a), dict(b)
        out = SUM_BY_KEY.merge(a, b)
        assert out == {"x": 2 + a.get("x", 0), "y": 3}
        assert a == a_before and b == b_before
        assert out is not a and out is not b
        out["z"] = 1
        assert "z" not in a and "z" not in b

    @pytest.mark.parametrize("step", ["fold", "merge", "merge-reversed"])
    def test_fold_and_merge_leave_their_input_partials_unchanged(self, step):
        # perfbench's traced fold counts emissions as sum(out) - sum(partial),
        # so neither may change its input; here that input is a handed-out dict.
        partial = lm.decode_partial(lm.encode_partial({"a": 1, "b": 2, "c": 3}))
        other = {"a": 5, "d": 1}
        before, other_before = dict(partial), dict(other)
        if step == "fold":
            out = SUM_BY_KEY.fold(partial, [("a", 1), ("e", 1)])
        elif step == "merge":
            out = SUM_BY_KEY.merge(partial, other)
        else:
            out = SUM_BY_KEY.merge(other, partial)
        assert partial == before and other == other_before
        assert out is not partial and out is not other

    def test_fast_fold_equals_generic_fold(self):
        rng = random.Random(2)
        for _ in range(30):
            emissions = [(f"k{rng.randrange(5)}", rng.randrange(-5, 6)) for _ in range(rng.randrange(20))]
            start = SUM_BY_KEY.sample(rng)
            assert SUM_BY_KEY.fold(dict(start), emissions) == GENERIC_SUM_BY_KEY.fold(dict(start), emissions)


class TestWordcountKernel:
    @pytest.mark.parametrize("chunk", [1, 2, 5, None])
    def test_kernel_fold_equals_generic_fold(self, monkeypatch, chunk):
        if chunk is not None:
            monkeypatch.setattr(registry_module, "_WORDCOUNT_CHUNK", chunk)
        kernel = lm.build_default_registry().batch_map("wordcount-map", "sum-by-key")
        rng = random.Random(chunk or 0)
        default = registry_module._WORDCOUNT_CHUNK
        sizes = [rng.randrange(12) for _ in range(300)] if chunk else [0, 1, default - 1, default, default + 1, 2 * default + 3]
        for n in sizes:
            values = adversarial_values(rng, n)
            start = {"a": 2, "\ufffd": 1, "zz": 5, "bb\u00e9": -3}
            emissions = (e for value in values for e in wordcount_map(b"k", value))
            expected = GENERIC_SUM_BY_KEY.fold(dict(start), emissions)
            folded = SUM_BY_KEY.fold(dict(start), kernel(iter(values)))
            assert folded == expected
            assert lm.encode_partial(folded) == lm.encode_partial(expected)

    def test_redefined_map_drops_the_kernel(self, process_registry):
        def shout_map(key, value):
            for word in value.decode("utf-8", "replace").split():
                yield (word.upper(), 1)

        process_registry.register_map("wordcount-map", shout_map)
        assert process_registry.batch_map("wordcount-map", "sum-by-key") is None
        spec = lm.builtin_job("wordcount", job_id=21)
        final = run_against_oracle(spec)
        assert final == {"A": 2, "B": 2, "C": 1}

    @pytest.mark.parametrize("name", ["max-by-key", "sum-by-key"])
    def test_other_combine_takes_the_per_record_path(self, name, process_registry):
        # Max of the emitted 1s is 1 per word; the pre-combined counts the
        # kernel yields would give 2 for "a" and "b".
        process_registry.register_combine(
            lm.CombineOp(
                name=name,
                identity=dict,
                merge=lambda a, b: {**a, **b, **{k: max(a[k], b[k]) for k in a.keys() & b.keys()}},
                lift=lambda k, v: {k: v},
                sample=SUM_BY_KEY.sample,
            )
        )
        assert process_registry.batch_map("wordcount-map", name) is None
        spec = lm.JobSpec(job_id=22, task=lm.TaskDescriptor("wordcount-map", "identity"), combine=name)
        assert run_against_oracle(spec) == {"a": 1, "b": 1, "c": 1}


def run_against_oracle(spec) -> dict:
    """``run_job`` over a fixed two-node cluster; its final must equal the oracle's."""
    cluster, topo = make_cluster({1: [b"a b a"], 2: [b"b c"]})
    result = lm.run_job(spec, cluster, lm.SimTransport(topo))
    pairs = [p for node_id in sorted(cluster.nodes) for p in heap_pairs(cluster.nodes[node_id].heap)]
    assert result.final == lm.sequential_oracle(spec.task, spec.combine, pairs)
    return result.final


class TestBuiltins:
    def test_wordcount_map_emissions(self):
        assert list(wordcount_map(b"k", b"a b a")) == [("a", 1), ("b", 1), ("a", 1)]

    def test_sum_map_emission(self):
        assert list(sum_map(b"k", b"-42")) == [("sum", -42)]

    def test_builtin_job_names(self):
        assert set(lm.BUILTIN_JOBS) >= {"wordcount", "sum"}

    def test_builtin_job_resolves(self):
        for name in lm.BUILTIN_JOBS:
            plan_job(lm.builtin_job(name, job_id=3), TOPOLOGY)

    def test_unknown_builtin_job(self):
        with pytest.raises(lm.ConfigError):
            lm.builtin_job("sort-everything")


class TestRegistryResolution:
    def test_unknown_ids(self):
        registry = lm.FunctionRegistry()
        with pytest.raises(lm.UnknownFunction):
            registry.resolve_map("nope")
        with pytest.raises(lm.UnknownFunction):
            registry.resolve_reduce("nope")
        with pytest.raises(lm.UnknownFunction):
            registry.resolve_combine("nope")

    @pytest.mark.parametrize("missing", ["map", "reduce", "combine"])
    def test_plan_job_validates_every_id(self, missing):
        # The ids from ``missing`` on, in the order map, reduce, combine,
        # are unregistered; the first of them is the one reported.
        gone = ("map", "reduce", "combine")[("map", "reduce", "combine").index(missing):]
        task = lm.TaskDescriptor("nope" if "map" in gone else "wordcount-map", "nope" if "reduce" in gone else "identity")
        spec = lm.JobSpec(job_id=1, task=task, combine="nope" if "combine" in gone else "sum-by-key")
        with pytest.raises(lm.UnknownFunction, match=f"^no {missing} .* 'nope'$"):
            plan_job(spec, TOPOLOGY)

    def test_slave_count_validation(self):
        with pytest.raises(lm.ConfigError):
            lm.JobSpec(job_id=1, task=lm.TaskDescriptor("m", "r"), slave_count=0)
