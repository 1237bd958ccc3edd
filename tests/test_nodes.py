import random

import pytest

import locomap as lm
from locomap import AgentRole

from helpers import heap_pairs, wordcount_reference


def wordcount_job(selector=b""):
    """Job 5's spec and a fresh registry of the built-in functions."""
    return lm.builtin_job("wordcount", job_id=5, selector=selector), lm.build_default_registry()


def mk_slave(job_id=5, payload=b""):
    return lm.Agent(id=3, role=AgentRole.SLAVE, job_id=job_id, payload=payload)


class TestHeapStore:
    def test_iteration_is_ascending_by_key(self):
        heap = lm.HeapStore()
        for key in (b"m", b"a", b"z", b"b"):
            heap.extend(lm.Records.of([(key, b"")]))
        assert [k for k, _ in heap_pairs(heap)] == [b"a", b"b", b"m", b"z"]

    def test_insertion_order_within_a_key(self):
        heap = lm.HeapStore()
        heap.extend(lm.Records.of([(b"k", b"1")]))
        heap.extend(lm.Records.of([(b"k", b"2")]))
        assert list(heap.records_matching(b"")) == [(b"k", b"1"), (b"k", b"2")]

    def test_a_scan_reads_the_records_as_they_were_when_handed_out(self):
        heap = lm.HeapStore()
        heap.extend(lm.Records.of([(b"c", b"2"), (b"b", b"1")]))
        every, some = heap.records_matching(b""), heap.records_matching(b"c")
        heap.extend(lm.Records.of([(b"a", b"3"), (b"c", b"4")]))
        assert heap.has_match(b"a")  # sorts the extended heap
        assert list(every) == [(b"b", b"1"), (b"c", b"2")]
        assert list(some) == [(b"c", b"2")]

    def test_total_bytes_never_drifts(self):
        rng = random.Random(9)
        node = lm.SensorNode(id=1, mem_bytes_limit=2000)
        for _ in range(300):
            batch = [(rng.randbytes(rng.randrange(1, 8)), rng.randbytes(rng.randrange(0, 20))) for _ in range(rng.randrange(4))]
            node.ingest(batch)
            assert node.heap.total_bytes == sum(len(k) + len(v) for k, v in heap_pairs(node.heap))
        assert node.dropped > 0

    def test_prefix_matching(self):
        heap = lm.HeapStore()
        heap.extend(lm.Records.of([(b"temp:1", b"a")]))
        heap.extend(lm.Records.of([(b"hum:1", b"b")]))
        assert [k for k, _ in heap_pairs(heap, b"temp:")] == [b"temp:1"]
        assert heap.has_match(b"hum:")
        assert not heap.has_match(b"co2:")

    def test_index_equals_naive_prefix_filter(self):
        # Scans run after every third extend of several records, so new keys
        # and new records under known keys, within one batch and across
        # batches, land after the lists were last sorted. Every value
        # is unique, so a record out of insertion order under its key, or a
        # value moved apart from its key, fails the comparison.
        rng = random.Random(12)
        heap = lm.HeapStore()
        buckets: dict[bytes, list[bytes]] = {}
        count = 0
        for extend in range(120):
            batch = []
            for _ in range(rng.randrange(1, 9)):
                key = b"".join(rng.choice([b"a", b"b", b"\x00", b"\xfe", b"\xff"]) for _ in range(rng.randrange(1, 4)))
                batch.append((key, b"%d" % count))
                buckets.setdefault(key, []).append(b"%d" % count)
                count += 1
            heap.extend(lm.Records.of(batch))
            if extend % 3:
                continue
            exact = rng.choice(sorted(buckets))
            for selector in (b"", exact, exact[:1], b"c", b"\xff", b"a\xff", b"\xff\xff\xff\xff"):
                expected = [(k, v) for k in sorted(buckets) if k.startswith(selector) for v in buckets[k]]
                assert heap_pairs(heap, selector) == expected
                assert heap.has_match(selector) == bool(expected)
            # The columns themselves, sorted by the scans above.
            assert heap.keys == [k for k in sorted(buckets) for _ in buckets[k]]
            assert heap.values == [v for k in sorted(buckets) for v in buckets[k]]
        assert count > 400 and len(buckets) < count / 2


class TestIngest:
    def test_empty_list(self):
        assert lm.SensorNode(id=1).ingest([]) == 0

    def test_all_fit(self):
        node = lm.SensorNode(id=1, mem_bytes_limit=10 * 1024)
        records = [(b"k%02d" % i, b"v" * 97) for i in range(10)]
        assert node.ingest(records) == 10
        assert node.dropped == 0

    def test_capacity_drop(self):
        node = lm.SensorNode(id=1, mem_bytes_limit=10 * 1024)
        records = [(b"k", b"v" * 4095) for _ in range(3)]
        assert node.ingest(records) == 2
        assert node.dropped == 1
        assert node.heap.total_bytes == 2 * 4096

    def test_limit_respected_exactly(self):
        node = lm.SensorNode(id=1, mem_bytes_limit=8)
        assert node.ingest([(b"abcd", b"efgh")]) == 1
        assert node.ingest([(b"x", b"")]) == 0

    def test_batch_that_fits_stores_the_loaders_key_and_value_objects(self, tmp_path):
        # No per-record copy: the heap holds the very objects the loader made.
        path = tmp_path / "node_1.tsv"
        path.write_bytes(b"a\t123\nb\t\nc\t123456\n")
        records = lm.load_records_tsv(path)
        node = lm.SensorNode(id=1, mem_bytes_limit=30)
        assert node.ingest(records) == 3
        assert (node.heap.total_bytes, node.dropped) == (12, 0)
        assert heap_pairs(node.heap) == list(records)
        assert all(stored is given for stored, given in zip(node.heap.keys, records.keys))
        assert all(stored is given for stored, given in zip(node.heap.values, records.values))

    def test_batch_of_pairs_that_fits_stores_the_callers_objects(self):
        node = lm.SensorNode(id=1, mem_bytes_limit=30)
        batch = [(b"a", b"123"), (b"b", b""), (b"c", b"123456")]
        assert node.ingest(batch) == 3
        assert (node.heap.total_bytes, node.dropped) == (12, 0)
        assert all(k is key and v is value for k, v, (key, value) in zip(node.heap.keys, node.heap.values, batch))

    def test_over_limit_batch_keeps_later_records_that_still_fit(self):
        node = lm.SensorNode(id=1, mem_bytes_limit=30)
        node.ingest([(b"a", b"123"), (b"b", b""), (b"c", b"123456")])
        # 18 bytes of room: d (5) fits, e (14) does not, f (9) still does, g (5) not.
        batch = [(b"d", b"1234"), (b"e", b"1234567890123"), (b"f", b"12345678"), (b"g", b"1234")]
        assert node.ingest(batch) == 2
        assert (node.heap.total_bytes, node.dropped) == (26, 2)
        assert [k for k, _ in heap_pairs(node.heap)] == [b"a", b"b", b"c", b"d", b"f"]
        assert node.heap.keys[3] is batch[0][0] and node.heap.values[3] is batch[0][1]
        assert node.heap.keys[4] is batch[2][0] and node.heap.values[4] is batch[2][1]


class TestIsEmpty:
    def test_fresh_node(self):
        assert lm.SensorNode(id=1).is_empty(b"")

    def test_after_matching_ingest(self):
        node = lm.SensorNode(id=1)
        node.ingest([(b"temp:1", b"20")])
        assert not node.is_empty(b"temp:")

    def test_nonmatching_selector(self):
        node = lm.SensorNode(id=1)
        node.ingest([(b"temp:1", b"20")])
        assert node.is_empty(b"hum:")


class TestHost:
    def test_wordcount_partial_matches_reference(self):
        spec, registry = wordcount_job()
        node = lm.SensorNode(id=4)
        node.ingest([(b"r1", b"a b"), (b"r2", b"a")])
        hosted = node.host(mk_slave(), spec, registry)
        assert lm.decode_partial(hosted.payload) == wordcount_reference([b"a b", b"a"]) == {"a": 2, "b": 1}
        assert hosted.itinerary == (4,)

    def test_partial_accumulates_across_nodes(self):
        spec, registry = wordcount_job()
        first = lm.SensorNode(id=4)
        first.ingest([(b"r", b"a b")])
        second = lm.SensorNode(id=5)
        second.ingest([(b"r", b"b c")])
        hosted = second.host(first.host(mk_slave(), spec, registry), spec, registry)
        assert lm.decode_partial(hosted.payload) == {"a": 1, "b": 2, "c": 1}
        assert hosted.itinerary == (4, 5)

    def test_empty_heap_leaves_payload_unchanged_but_marks_visit(self):
        spec, registry = wordcount_job()
        hosted = lm.SensorNode(id=4).host(mk_slave(payload=b"untouched"), spec, registry)
        assert hosted.payload == b"untouched"
        assert hosted.itinerary == (4,)

    def test_selector_with_no_matches_leaves_payload_unchanged(self):
        spec, registry = wordcount_job(selector=b"co2:")
        node = lm.SensorNode(id=4)
        node.ingest([(b"temp:1", b"a b")])
        hosted = node.host(mk_slave(payload=b""), spec, registry)
        assert hosted.payload == b""

    def test_heap_is_read_only(self):
        spec, registry = wordcount_job()
        node = lm.SensorNode(id=4)
        node.ingest([(b"r1", b"a b"), (b"r2", b"c")])
        before = heap_pairs(node.heap)
        total_before = node.heap.total_bytes
        node.host(mk_slave(), spec, registry)
        assert heap_pairs(node.heap) == before
        assert node.heap.total_bytes == total_before

    def test_deterministic_payload_bytes(self):
        spec, registry = wordcount_job()
        node = lm.SensorNode(id=4)
        node.ingest([(b"r%d" % i, b"w%d x" % (i % 3)) for i in range(50)])
        assert node.host(mk_slave(), spec, registry).payload == node.host(mk_slave(), spec, registry).payload

    def test_map_crash_keeps_payload_and_marks_visit(self):
        registry = lm.build_default_registry()

        def bad_map(key, value):
            raise RuntimeError("sensor on fire")
            yield  # pragma: no cover

        registry.register_map("bad-map", bad_map)
        spec = lm.JobSpec(job_id=6, task=lm.TaskDescriptor("bad-map", "identity"), combine="sum-by-key")
        node = lm.SensorNode(id=4)
        node.ingest([(b"r", b"x")])
        prior = lm.encode_partial({"w": 1})
        agent = mk_slave(job_id=6, payload=prior)
        with pytest.raises(lm.ExecutionError) as info:
            node.host(agent, spec, registry)
        assert info.value.agent.payload == prior
        assert info.value.agent.itinerary == (4,)

    @pytest.mark.parametrize("role", [AgentRole.REDUCER, AgentRole.MAPPER])
    def test_reducer_cannot_host(self, role):
        # Only slaves process node data; the mapper stays on the master.
        spec, registry = wordcount_job()
        agent = lm.Agent(id=9, role=role, job_id=5)
        with pytest.raises(lm.RoleError):
            lm.SensorNode(id=4).host(agent, spec, registry)


class TestLoadTsv(object):
    def test_parses_keys_and_values(self, tmp_path):
        path = tmp_path / "node_1.tsv"
        path.write_bytes(b"k1\tv1\nk2\tv2\n\nk3\t\n")
        assert list(lm.load_records_tsv(path)) == [(b"k1", b"v1"), (b"k2", b"v2"), (b"k3", b"")]

    def test_line_without_tab_is_empty_value(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_bytes(b"lonelykey\n")
        assert list(lm.load_records_tsv(path)) == [(b"lonelykey", b"")]

    def test_empty_key_rejected(self, tmp_path):
        path = tmp_path / "node_2.tsv"
        path.write_bytes(b"k1\tv1\n\n\torphan value\n")
        with pytest.raises(lm.ConfigError, match=r"node_2\.tsv, line 3: empty record key"):
            lm.load_records_tsv(path)

    def test_matches_a_line_by_line_reference(self, tmp_path):
        def reference(path, data):
            pairs = []
            for lineno, line in enumerate(data.split(b"\n"), 1):
                if line:
                    key, _, value = line.partition(b"\t")
                    if not key:
                        return f"{path}, line {lineno}: empty record key"
                    pairs.append((key, value))
            return pairs

        def well_formed_line(rng):
            key = rng.choice([b"k", b"r1.0", b"temp/n1/000", b"\xff\x00", b"a b", b"\r"])
            return key + b"\t" + rng.choice([b"", b"v", b"w1 w2", b"\x00\xfe", b" "])

        def odd_line(rng):
            return rng.choice([b"", b"lonelykey", b"\t", b"\tv", b"k\ta\tb", b"k\t\t", b"\r"])

        cases = [
            b"",
            b"k\tv",  # no final newline
            b"k1\tv1\r\nk2\tv2\r\n",  # CRLF
            b"k\tv\twith tab\n",
            b"k1\tv1\nlonelykey\n",
            b"k1\tv1\n\t\n",  # a line that is only a tab: error naming line 2
            b"\n\nk1\tv1\nk2\tv2\n\n\n",  # blank lines at both ends
            b"\n",
        ]
        rng = random.Random(10)
        for _ in range(600):
            lines = [well_formed_line(rng) for _ in range(rng.randrange(1, 8))]
            for _ in range(rng.choice([0, 0, 1, 2])):
                lines.insert(rng.randrange(len(lines) + 1), odd_line(rng))
            if rng.random() < 0.2:
                lines = [b""] * rng.randrange(1, 3) + lines + [b""] * rng.randrange(1, 3)
            eol = rng.choice([b"\n", b"\r\n"])
            data = eol.join(lines)
            cases.append(data + eol if rng.random() < 0.7 else data)

        shapes = {True: 0, False: 0}
        for i, data in enumerate(cases):
            path = tmp_path / f"node_{i}.tsv"
            path.write_bytes(data)
            lines = data.split(b"\n")
            if lines[-1] == b"":
                del lines[-1]
            shapes[bool(lines) and all(line.count(b"\t") == 1 for line in lines)] += 1
            expected = reference(path, data)
            if isinstance(expected, str):
                with pytest.raises(lm.ConfigError) as raised:
                    lm.load_records_tsv(path)
                assert str(raised.value) == expected
            else:
                records = lm.load_records_tsv(path)
                assert list(records) == expected, data
                assert records.keys == [k for k, _ in expected], data
                assert records.values == [v for _, v in expected], data
                assert records.nbytes == sum(len(k) + len(v) for k, v in expected), data
        # Both loader paths ran: files with one tab on every line and others.
        assert shapes[True] > 200 and shapes[False] > 200
