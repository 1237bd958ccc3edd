"""Per-process function registry and the partial-result algebra.

Agents carry function *ids*; the code those ids name lives here. Partials
travel as canonical JSON bytes so that equal values always serialize to
identical bytes, which is what makes whole-job runs reproducible.

``encode_partial`` hands its last flat partial (a ``dict`` of ``str`` keys
and ``int``, ``float``, ``str``, ``bool`` or ``None`` values) to the next
``decode_partial`` of equal bytes, which takes it instead of parsing: a sim
slave's next hop skips re-reading what its last hop wrote. The hand-off is
in-process only and leaves the bytes as they are; the dict it hands out
equals what ``json.loads`` gives, key order included, and nothing else
holds it. A flat partial whose values are all exact ``int`` and whose keys
are all printable ASCII without ``"`` or ``\\`` (every built-in job's, on
plain keys) is written by one ``%``-format call instead of ``json.dumps``:
no such key or value needs escaping, so the bytes are the same.

A combine operation must be a commutative monoid over partials: slaves
arrive in no particular order, so aggregation is only correct when the
merge does not care. ``register_combine`` enforces that with a randomized
algebra check.
"""

from __future__ import annotations

import json
import random
import re
from collections import Counter
from itertools import chain, islice
from typing import Any, Callable, Iterable, Iterator

from .errors import ConfigError, DecodeError, UnknownFunction

Emission = tuple[str, Any]
MapFn = Callable[[bytes, bytes], Iterable[Emission]]
BatchMapFn = Callable[[Iterable[bytes]], Iterable[Emission]]
ReduceFn = Callable[[Any], Any]


_SCALAR_TYPES = frozenset((int, float, str, bool, type(None)))
# An escaped high surrogate: json.loads joins it with a following escaped low
# surrogate, so a string holding such a pair would not decode to itself.
_ESCAPED_HIGH_SURROGATE = re.compile(rb"\\ud[89ab]")
# encode_partial's last flat partial, {bytes: dict}, for the next
# decode_partial of equal bytes; dict.pop takes it in one step.
_handoff: dict[bytes, dict] = {}


def encode_partial(value: Any) -> bytes:
    """Canonical JSON bytes: sorted keys, no whitespace."""
    if type(value) is not dict or set(map(type, value)) - {str} or (value_types := set(map(type, value.values()))) - _SCALAR_TYPES:
        return json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ordered = dict.fromkeys(sorted(value))
    ordered.update(value)
    _handoff.clear()
    if value_types == {int} and (keys := "".join(ordered)).isascii() and keys.isprintable() and '"' not in keys and "\\" not in keys:
        # json.dumps escapes none of these keys and writes an int as %d does;
        # with no backslash in the bytes, no surrogate escape can appear.
        template = "{" + ",".join(['"%s":%d'] * len(ordered)) + "}"
        data = (template % tuple(chain.from_iterable(ordered.items()))).encode("ascii")
    else:
        data = json.dumps(ordered, separators=(",", ":")).encode("utf-8")
        if _ESCAPED_HIGH_SURROGATE.search(data) is not None:
            return data
    _handoff[data] = ordered
    return data


def decode_partial(data: bytes) -> Any:
    if type(data) is bytes and (ordered := _handoff.pop(data, None)) is not None:
        return ordered
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DecodeError(f"malformed partial: {exc}") from exc


class CombineOp:
    """A named commutative monoid used to fold partial results.

    ``lift`` turns one map emission (key, value) into a mergeable partial;
    ``sample`` draws a random partial for the registration-time algebra
    check. ``fold`` has a generic implementation but may be overridden with
    something faster for hot workloads.
    """

    def __init__(
        self,
        name: str,
        identity: Callable[[], Any],
        merge: Callable[[Any, Any], Any],
        lift: Callable[[str, Any], Any],
        sample: Callable[[random.Random], Any],
        fold: Callable[[Any, Iterable[Emission]], Any] | None = None,
    ):
        self.name = name
        self.identity = identity
        self.merge = merge
        self.lift = lift
        self.sample = sample
        self._fold = fold

    def fold(self, partial: Any, emissions: Iterable[Emission]) -> Any:
        if self._fold is not None:
            return self._fold(partial, emissions)
        for key, value in emissions:
            partial = self.merge(partial, self.lift(key, value))
        return partial

    def __repr__(self) -> str:
        return f"CombineOp({self.name!r})"


def check_combine_algebra(op: CombineOp, trials: int = 40, seed: int = 0x5EED) -> None:
    """Reject merges that are not associative, not commutative, or ignore identity."""
    rng = random.Random(seed)
    for _ in range(trials):
        a, b, c = op.sample(rng), op.sample(rng), op.sample(rng)
        if op.merge(a, b) != op.merge(b, a):
            raise ConfigError(f"combine {op.name!r} is not commutative")
        if op.merge(op.merge(a, b), c) != op.merge(a, op.merge(b, c)):
            raise ConfigError(f"combine {op.name!r} is not associative")
        if op.merge(op.identity(), a) != a:
            raise ConfigError(f"combine {op.name!r} has a broken identity")


class FunctionRegistry:
    """Maps function ids to callables. It holds functions only: a job's
    spec travels with the job, and every caller hands it over."""

    def __init__(self):
        self._maps: dict[str, MapFn] = {}
        self._batch_maps: dict[tuple[str, str], BatchMapFn] = {}
        self._reduces: dict[str, ReduceFn] = {}
        self._combines: dict[str, CombineOp] = {}

    def register_map(self, fn_id: str, fn: MapFn) -> None:
        """Register a map function; drops any batch kernel under ``fn_id``."""
        self._maps[fn_id] = fn
        self._batch_maps = {pair: kernel for pair, kernel in self._batch_maps.items() if pair[0] != fn_id}

    def register_batch_map(self, fn_id: str, combine: str, fn: BatchMapFn) -> None:
        """Run ``fn(values of the matching records)`` in place of map ``fn_id``
        under ``combine``; folded into any partial, its emissions must give
        what the per-record map's do. Re-registering either drops it."""
        self._batch_maps[(fn_id, combine)] = fn

    def batch_map(self, fn_id: str, combine: str) -> BatchMapFn | None:
        return self._batch_maps.get((fn_id, combine))

    def register_reduce(self, fn_id: str, fn: ReduceFn) -> None:
        self._reduces[fn_id] = fn

    def register_combine(self, op: CombineOp) -> None:
        """Register a combine operation; drops any batch kernel under its name."""
        check_combine_algebra(op)
        self._combines[op.name] = op
        self._batch_maps = {pair: kernel for pair, kernel in self._batch_maps.items() if pair[1] != op.name}

    def resolve_map(self, fn_id: str) -> MapFn:
        try:
            return self._maps[fn_id]
        except KeyError:
            raise UnknownFunction(f"no map function registered as {fn_id!r}") from None

    def resolve_reduce(self, fn_id: str) -> ReduceFn:
        try:
            return self._reduces[fn_id]
        except KeyError:
            raise UnknownFunction(f"no reduce function registered as {fn_id!r}") from None

    def resolve_combine(self, name: str) -> CombineOp:
        try:
            return self._combines[name]
        except KeyError:
            raise UnknownFunction(f"no combine operation registered as {name!r}") from None


# --- built-in workload: sum-by-key partials (dict[str, number]) ---------


def _sbk_identity() -> dict:
    return {}


def _sbk_merge(a: dict, b: dict) -> dict:
    # The merge commutes, so copy the larger side and add the smaller one.
    if len(a) < len(b):
        a, b = b, a
    out = dict(a)
    for key, value in b.items():
        out[key] = out.get(key, 0) + value
    return out


def _sbk_lift(key: str, value: Any) -> dict:
    return {key: value}


def _sbk_sample(rng: random.Random) -> dict:
    return {f"k{rng.randrange(6)}": rng.randrange(-50, 50) for _ in range(rng.randrange(5))}


def _sbk_fold(partial: dict, emissions: Iterable[Emission]) -> dict:
    # Folds into a copy, leaving the input partial unchanged; equivalent to
    # repeated merge(lift(...)).
    out = dict(partial)
    get = out.get
    for key, value in emissions:
        out[key] = get(key, 0) + value
    return out


SUM_BY_KEY = CombineOp(
    name="sum-by-key",
    identity=_sbk_identity,
    merge=_sbk_merge,
    lift=_sbk_lift,
    sample=_sbk_sample,
    fold=_sbk_fold,
)


def wordcount_map(key: bytes, value: bytes) -> Iterator[Emission]:
    for word in value.decode("utf-8", "replace").split():
        yield (word, 1)


# Values joined per decode: enough to amortize the per-call cost, few enough
# that one chunk's words of short sensor values take well under 1 MB.
_WORDCOUNT_CHUNK = 1024


def wordcount_sum_batch(values: Iterable[bytes]) -> Iterator[Emission]:
    """``wordcount_map`` pre-combined for sum-by-key. The joining space splits
    words and ends any partial UTF-8 sequence, so each value decodes as alone."""
    counts: Counter[str] = Counter()
    values = iter(values)
    while chunk := list(islice(values, _WORDCOUNT_CHUNK)):
        counts.update(b" ".join(chunk).decode("utf-8", "replace").split())
    yield from counts.items()


def sum_map(key: bytes, value: bytes) -> Iterator[Emission]:
    yield ("sum", int(value))


def identity_reduce(partial: Any) -> Any:
    return partial


def build_default_registry() -> FunctionRegistry:
    reg = FunctionRegistry()
    reg.register_map("wordcount-map", wordcount_map)
    reg.register_map("sum-map", sum_map)
    reg.register_reduce("identity", identity_reduce)
    reg.register_combine(SUM_BY_KEY)
    reg.register_batch_map("wordcount-map", SUM_BY_KEY.name, wordcount_sum_batch)
    return reg


# The one registry of this process: both engines, the oracle and every
# node forked from it resolve a job's function ids here. Register custom
# functions on it; nothing rebinds the name.
DEFAULT_REGISTRY = build_default_registry()

# Built-in jobs the CLI and tests refer to by name.
BUILTIN_JOBS: dict[str, tuple[str, str, str]] = {
    # name -> (map_fn_id, reduce_fn_id, combine)
    "wordcount": ("wordcount-map", "identity", "sum-by-key"),
    "sum": ("sum-map", "identity", "sum-by-key"),
}
