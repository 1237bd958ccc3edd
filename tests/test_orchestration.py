import itertools
import random
import re
import threading

import pytest

import locomap as lm
from locomap import AgentRole
from locomap.orchestration import RetryAction, SlaveLedger, finish_job, host_and_route, plan_job, send_with_retry

from helpers import RecordingTransport, make_cluster, random_workload, reference_final, sum_reference, wordcount_reference, all_values


def run_wordcount(node_values, seed=0, failure=0.0, **kwargs):
    cluster, topo = make_cluster(node_values, seed=seed, failure_prob=failure)
    spec = lm.builtin_job("wordcount", job_id=1, slave_count=kwargs.pop("slave_count", None))
    return lm.run_job(spec, cluster, lm.SimTransport(topo), **kwargs)


def mk_slaves(n, job_id=1):
    mapper = lm.Agent(id=1, role=AgentRole.MAPPER, job_id=job_id)
    return lm.duplicate(mapper, n, lm.AgentIdAllocator(start=10))


class TestDispatch:
    def test_even_split(self):
        s = mk_slaves(2)
        assert lm.dispatch(s, [1, 2, 3, 4]) == {s[0].id: (1, 2), s[1].id: (3, 4)}

    def test_surplus_slave_gets_nothing(self):
        s = mk_slaves(3)
        assert lm.dispatch(s, [1, 2]) == {s[0].id: (1,), s[1].id: (2,), s[2].id: ()}

    def test_single_slave_gets_everything_ascending(self):
        s = mk_slaves(1)
        assert lm.dispatch(s, [8, 3, 5, 1]) == {s[0].id: (1, 3, 5, 8)}

    def test_sizes_differ_by_at_most_one(self):
        rng = random.Random(4)
        for _ in range(50):
            slaves = mk_slaves(rng.randrange(1, 9))
            nodes = list(range(1, rng.randrange(1, 20)))
            sizes = [len(p) for p in lm.dispatch(slaves, nodes).values()]
            assert sum(sizes) == len(nodes)
            assert max(sizes) - min(sizes) <= 1

    def test_no_slaves_rejected(self):
        with pytest.raises(ValueError):
            lm.dispatch([], [1])


class TestPlanRoutes:
    def test_moves_to_next_node_with_data(self):
        assert lm.plan_routes({2: (1, 2)}, lambda n: n == 2) == {2: (1, 2)}

    def test_first_node_is_kept_without_data(self):
        # The sim engine has always dispatched a slave to its partition's
        # first node, data or not.
        assert lm.plan_routes({2: (1, 2)}, lambda n: False) == {2: (1,)}

    def test_empty_directory_goes_to_reducer(self):
        assert lm.plan_routes({2: ()}, lambda n: True) == {2: ()}

    def test_skips_nodes_without_data(self):
        assert lm.plan_routes({2: (1, 2, 3)}, lambda n: n in (1, 3)) == {2: (1, 3)}

    def test_scans_in_ascending_order_regardless_of_input_order(self):
        slaves = mk_slaves(2)
        for targets in ([3, 1, 2, 4], [2, 4, 3, 1], [1, 2, 3, 4]):
            routes = lm.plan_routes(lm.dispatch(slaves, targets), lambda n: True)
            assert routes == {slaves[0].id: (1, 2), slaves[1].id: (3, 4)}

    def test_never_returns_a_visited_node(self):
        rng = random.Random(5)
        for _ in range(200):
            slaves = mk_slaves(rng.randrange(1, 5))
            assignment = lm.dispatch(slaves, rng.sample(range(1, 20), rng.randrange(0, 10)))
            holding = {n for n in range(1, 20) if rng.random() < 0.7}
            routes = lm.plan_routes(assignment, holding.__contains__)
            assert set(routes) == set(assignment)
            for agent_id, partition in assignment.items():
                route = routes[agent_id]
                assert len(set(route)) == len(route)
                assert route == partition[:1] + tuple(n for n in partition[1:] if n in holding)


class TestHostAndRoute:
    def hosted(self, route, results_only=False, itinerary=(), values=(b"a b",), job="wordcount"):
        node = lm.SensorNode(id=route[len(itinerary)])
        node.ingest([(b"k%d" % i, v) for i, v in enumerate(values)])
        slave = lm.Agent(id=10, role=AgentRole.SLAVE, job_id=1, itinerary=tuple(itinerary))
        return host_and_route(node, slave, lm.builtin_job(job, job_id=1), route, 0, results_only)

    def test_next_hop_is_the_next_node_on_the_route(self):
        agent, nxt, message = self.hosted((1, 3))
        assert (agent.itinerary, nxt, message) == ((1,), 3, None)
        assert lm.decode_partial(agent.payload) == {"a": 1, "b": 1}

    def test_all_visited_goes_to_reducer(self):
        agent, nxt, message = self.hosted((1, 3), itinerary=(1,))
        assert (agent.itinerary, nxt, message) == ((1, 3), 0, None)

    def test_results_only_hands_back_the_result_message(self):
        agent, nxt, message = self.hosted((1,), results_only=True)
        assert nxt == 0
        assert message == lm.ResultMessage(from_agent=10, partial=agent.payload)
        # Only the last hop becomes a result message.
        assert self.hosted((1, 3), results_only=True)[2] is None

    def test_failed_map_task_continues_with_the_visited_agent(self):
        agent, nxt, _ = self.hosted((1, 3), values=(b"not a number",), job="sum")
        assert (agent.itinerary, agent.payload, nxt) == ((1,), b"", 3)

    def test_requires_slave_role(self):
        reducer = lm.Agent(id=10, role=AgentRole.REDUCER, job_id=1)
        with pytest.raises(lm.RoleError):
            host_and_route(lm.SensorNode(id=1), reducer, lm.builtin_job("wordcount", job_id=1), (1,), 0, False)


class TestRetryPolicy:
    def test_backoff_table(self):
        assert lm.retry_policy(None, 1) == lm.RetryDecision(RetryAction.RETRY, 0.1)
        assert lm.retry_policy(None, 2) == lm.RetryDecision(RetryAction.RETRY, 0.2)
        assert lm.retry_policy(None, 3) == lm.RetryDecision(RetryAction.RETRY, 0.4)

    def test_fourth_attempt_fails(self):
        assert lm.retry_policy(None, 4).action is RetryAction.MARK_FAILED
        assert lm.retry_policy(None, 10).action is RetryAction.MARK_FAILED

    def test_send_with_retry_waits_the_backoffs_then_gives_up(self):
        def refuse():
            raise lm.ConnectRefused("nobody home")

        waits = []
        value, fail = send_with_retry(refuse, waits.append)
        assert value is None
        assert waits == [0.1, 0.2, 0.4]
        assert fail == "gave up after 4 attempts: nobody home"

    def test_send_with_retry_returns_a_late_success_or_stops_when_wait_says_so(self):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise lm.SendTimeout("slow")
            return "sent"

        assert send_with_retry(flaky, lambda s: None) == ("sent", None)
        attempts.clear()
        assert send_with_retry(flaky, lambda s: False) == (None, "abandoned after 1 attempts: slow")
        assert len(attempts) == 1


class TestResultMessage:
    def test_size_is_partial_plus_16_byte_header(self):
        message = lm.ResultMessage(from_agent=3, partial=b"12345")
        assert message.size_bytes == 21
        assert len(message.encode()) == 21

    def test_roundtrip(self):
        message = lm.ResultMessage(from_agent=77, partial=lm.encode_partial({"a": 1}))
        assert lm.decode_result(message.encode()) == message

    def test_corrupt_partial_rejected(self):
        data = bytearray(lm.ResultMessage(from_agent=1, partial=b"abcdef").encode())
        data[-1] ^= 0xFF
        with pytest.raises(lm.DecodeError):
            lm.decode_result(bytes(data))

    def test_short_and_inconsistent_messages_rejected(self):
        with pytest.raises(lm.DecodeError):
            lm.decode_result(b"short")
        data = lm.ResultMessage(from_agent=1, partial=b"abc").encode()
        with pytest.raises(lm.DecodeError):
            lm.decode_result(data + b"extra")


class TestAggregate:
    def reducer(self):
        return lm.Agent(id=2, role=AgentRole.REDUCER, job_id=1)

    def combine(self):
        return lm.DEFAULT_REGISTRY.resolve_combine("sum-by-key")

    def partial(self, value):
        """``value`` as a ledger holds it once delivered: decoded from its bytes."""
        return lm.decode_partial(lm.encode_partial(value))

    def test_hand_merged_example(self):
        partials = [self.partial({"a": 1}), self.partial({"a": 1, "b": 1})]
        assert lm.aggregate(self.reducer(), partials, self.combine()) == {"a": 2, "b": 1}

    def test_zero_messages_is_the_identity(self):
        assert lm.aggregate(self.reducer(), [], self.combine()) == {}

    def test_single_partial_is_itself(self):
        assert lm.aggregate(self.reducer(), [self.partial({"x": 3})], self.combine()) == {"x": 3}

    def test_arrival_order_never_matters(self):
        rng = random.Random(8)
        partials = [self.partial({f"k{rng.randrange(4)}": rng.randrange(10)}) for _ in range(5)]
        finals = {lm.encode_partial(lm.aggregate(self.reducer(), list(p), self.combine())) for p in itertools.permutations(partials)}
        assert len(finals) == 1

    def test_requires_reducer(self):
        mapper = lm.Agent(id=1, role=AgentRole.MAPPER, job_id=1)
        with pytest.raises(lm.RoleError):
            lm.aggregate(mapper, [], self.combine())


class TestSlaveLedger:
    """The accounting rule both engines share, over random orders of the
    events one slave can cause, with no sockets."""

    @pytest.mark.parametrize("seed", range(200))
    def test_report_follows_the_causal_events_and_freezes_once_resolved(self, seed):
        rng = random.Random(seed)
        route = tuple(rng.sample(range(1, 9), rng.randrange(5)))
        # Hop h arrives at route[h]; the hop past the route comes home to the master.
        sizes = [rng.randrange(20, 200) for _ in range(len(route) + 1)]
        at = lambda hop: route[hop] if hop < len(route) else None
        reached = rng.randrange(len(route) + 2)  # hops 0..reached-1 arrive
        holder = at(reached - 1) if reached else None
        value = {"k": rng.randrange(40)}
        message = lm.ResultMessage(from_agent=10, partial=lm.encode_partial(value))
        malformed = lm.ResultMessage(from_agent=10, partial=b"\xff")  # not UTF-8

        events = []
        for hop in range(reached):
            events.append(("arrived", hop, sizes[hop], at(hop)))
            if rng.random() < 0.4:
                repeat = rng.randrange(hop + 1)
                events.append(("arrived", repeat, sizes[repeat], at(repeat)))
            if hop and rng.random() < 0.3:
                events.append(("node_exited", at(hop - 1), -9))  # a node the slave has left
        ending = rng.choice(["deliver", "malformed", "fail", "deadline"] + (["holder_exited"] if holder is not None else []))
        events.append(
            {
                "deliver": ("deliver", message),
                "malformed": ("deliver", malformed),
                "fail": ("fail", "could not forward"),
                "deadline": ("fail", "timed out waiting for the slave"),
                "holder_exited": ("node_exited", holder, -9),
            }[ending]
        )
        late = [
            ("arrived", reached, sizes[-1], at(min(reached, len(route)))),
            ("deliver", lm.ResultMessage(from_agent=10, partial=b"late")),
            ("fail", "late failure"),
            ("node_exited", holder, 1),
            ("node_exited", 9, 1),
        ]
        rng.shuffle(late)

        ledger = SlaveLedger(agent_id=10, partition=route)
        for name, *args in events:
            assert not ledger.resolved
            getattr(ledger, name)(*args)
        assert ledger.resolved

        expected = lm.SlaveReport(
            agent_id=10,
            nodes=route,
            delivered=ending == "deliver",
            migrations=reached,
            bytes_sent=sum(sizes[:reached]) + {"deliver": message.size_bytes, "malformed": malformed.size_bytes}.get(ending, 0),
            fail_reason={
                "deliver": None,
                "malformed": "malformed partial: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
                "fail": "could not forward",
                "deadline": "timed out waiting for the slave",
                "holder_exited": f"node {holder} exited with code -9 while holding the slave",
            }[ending],
        )
        assert ledger.report() == expected
        assert ledger.partial == (value if ending == "deliver" else None)
        for name, *args in late:
            getattr(ledger, name)(*args)
            assert ledger.report() == expected
        assert ledger.partial == (value if ending == "deliver" else None)


class TestFinishJob:
    def test_a_slave_whose_partial_is_discarded_is_reported_failed(self):
        topology = lm.Topology.full_mesh(0, [1, 2], bandwidth_bytes_per_s=1e6)
        plan = plan_job(lm.builtin_job("wordcount", job_id=1), topology)
        good, bad = plan.slaves
        ledgers = [SlaveLedger(good.id, (1,)), SlaveLedger(bad.id, (2,))]
        messages = [lm.ResultMessage(from_agent=good.id, partial=lm.encode_partial({"a": 1})), lm.ResultMessage(from_agent=bad.id, partial=b"not json")]
        for ledger, message in zip(ledgers, messages):
            ledger.arrived(0, 40, ledger.partition[0])
            ledger.deliver(message)

        result = finish_job(plan, ledgers, 0.0, 0)

        assert result.final == {"a": 1}
        assert (result.partials_received, result.slaves_failed) == (1, 1)
        delivered, discarded = result.slave_reports
        assert delivered.delivered and delivered.fail_reason is None
        assert not discarded.delivered
        assert discarded.fail_reason.startswith("malformed partial: ")
        assert discarded.bytes_sent == 40 + messages[1].size_bytes
        assert result.bytes_transferred_total == 80 + messages[0].size_bytes + messages[1].size_bytes


class TestRunJob:
    def test_two_node_wordcount_matches_reference(self):
        result = run_wordcount({1: [b"a b"], 2: [b"a"]})
        assert result.final == wordcount_reference([b"a b", b"a"]) == {"a": 2, "b": 1}
        assert result.partials_received == 2
        assert result.slaves_failed == 0

    def test_integer_sum_over_8_nodes_matches_reference(self):
        rng = random.Random(17)
        data = {n: [str(rng.randrange(-500, 500)).encode() for _ in range(rng.randrange(1, 30))] for n in range(1, 9)}
        cluster, topo = make_cluster(data)
        result = lm.run_job(lm.builtin_job("sum", job_id=2), cluster, lm.SimTransport(topo))
        assert result.final == sum_reference(all_values(data))
        assert result.partials_received == 8

    def test_all_empty_heaps_yield_identity(self):
        result = run_wordcount({1: [], 2: [], 3: []})
        assert result.final == {}
        assert result.partials_received == result.slave_count == 3
        # first hop is unconditional, so each slave migrates out and back
        assert result.migrations_total == 6

    def test_surplus_slaves_go_straight_to_reducer(self):
        result = run_wordcount({1: [b"a"], 2: [b"b"]}, slave_count=5)
        assert result.final == {"a": 1, "b": 1}
        assert result.partials_received == 5
        empties = [r for r in result.slave_reports if not r.nodes]
        assert len(empties) == 3
        assert all(r.migrations == 0 for r in empties)

    def test_single_slave_tours_every_node_then_returns(self):
        data = {n: [b"w%d" % n] for n in range(1, 9)}
        result = run_wordcount(data, slave_count=1)
        assert result.final == wordcount_reference(all_values(data))
        (report,) = result.slave_reports
        assert report.nodes == tuple(range(1, 9))
        assert report.migrations == 9  # 8 data nodes plus the hop home

    def test_slave_skips_nodes_without_data(self):
        result = run_wordcount({1: [b"a"], 2: [], 3: [b"c"]}, slave_count=1)
        assert result.final == {"a": 1, "c": 1}
        (report,) = result.slave_reports
        assert report.migrations == 3  # node 1, node 3, home; node 2 never visited

    def test_no_nodes_and_no_slaves_raises(self):
        cluster, topo = make_cluster({})
        with pytest.raises(lm.NoNodes):
            lm.run_job(lm.builtin_job("wordcount", job_id=1), cluster, lm.SimTransport(topo))

    def test_explicit_target_subset(self):
        cluster, topo = make_cluster({1: [b"w1"], 2: [b"w2"], 3: [b"w3"]})
        spec = lm.builtin_job("wordcount", job_id=1, target_nodes=[1, 3])
        result = lm.run_job(spec, cluster, lm.SimTransport(topo))
        assert result.final == {"w1": 1, "w3": 1}
        assert result.slave_count == 2

    def test_master_cannot_be_a_target(self):
        cluster, topo = make_cluster({1: [b"a"]})
        spec = lm.builtin_job("wordcount", job_id=1, target_nodes=[0, 1])
        with pytest.raises(lm.ConfigError):
            lm.run_job(spec, cluster, lm.SimTransport(topo))

    @pytest.mark.parametrize("targets,repeated", [([1, 1], "[1]"), ([3, 1, 2, 3, 1], "[1, 3]")])
    def test_a_repeated_target_node_is_a_config_error(self, targets, repeated):
        # Rejected when the spec is built, so neither engine folds a node twice.
        with pytest.raises(lm.ConfigError, match=re.escape(f"target nodes {repeated} are repeated")):
            lm.builtin_job("wordcount", job_id=1, target_nodes=targets, slave_count=1)

    @pytest.mark.parametrize("job_id", [-1, 2**64])
    def test_a_job_id_outside_u64_is_a_config_error(self, job_id):
        # Rejected when the spec is built: the envelope carries it as a u64.
        with pytest.raises(lm.ConfigError, match=re.escape(f"job_id must fit in u64 (0 to 2**64-1), got {job_id}")):
            lm.builtin_job("wordcount", job_id=job_id)
        assert lm.builtin_job("wordcount", job_id=2**64 - 1).job_id == 2**64 - 1

    def test_two_jobs_with_one_id_each_host_with_their_own_spec(self, process_registry):
        # Job A's map holds its slave at its first node until job B, with
        # the same job id and another spec, has been planned and run in the
        # same process. A's later hops must still run A's map.
        a_hosting, b_done = threading.Event(), threading.Event()

        def upper_map(key, value):
            a_hosting.set()
            b_done.wait(timeout=10)
            for word in value.decode().split():
                yield (word.upper(), 1)

        process_registry.register_map("upper-map", upper_map)
        data = {1: [b"a b"], 2: [b"b c"], 3: [b"c a a"]}
        jobs = {
            "a": lm.JobSpec(job_id=1, task=lm.TaskDescriptor("upper-map", "identity"), slave_count=1),
            "b": lm.builtin_job("wordcount", job_id=1, slave_count=1),
        }
        results = {}

        def run(name):
            cluster, topo = make_cluster(data)
            results[name] = lm.run_job(jobs[name], cluster, lm.SimTransport(topo)).final

        def run_b():
            try:
                if a_hosting.wait(timeout=10):
                    run("b")
            finally:
                b_done.set()

        other = threading.Thread(target=run_b)
        other.start()
        run("a")
        other.join(timeout=10)
        expected = wordcount_reference(all_values(data))
        assert results == {"a": {word.upper(): n for word, n in expected.items()}, "b": expected}

    def test_selector_restricts_the_job_to_matching_keys(self):
        cluster, topo = make_cluster({1: []})
        cluster.nodes[1].ingest(
            [(b"temp:a", b"hot"), (b"hum:a", b"wet")]
        )
        spec = lm.builtin_job("wordcount", job_id=1, selector=b"temp:")
        result = lm.run_job(spec, cluster, lm.SimTransport(topo))
        assert result.final == {"hot": 1}

    def test_explicit_slaves_with_no_nodes_yield_identity(self):
        cluster, topo = make_cluster({})
        result = lm.run_job(lm.builtin_job("wordcount", job_id=1, slave_count=2), cluster, lm.SimTransport(topo))
        assert result.final == {}
        assert result.partials_received == 2

    def test_results_only_matches_default_and_moves_fewer_bytes(self):
        data = {n: [b"alpha beta", b"beta"] for n in range(1, 5)}
        default = run_wordcount(data)
        trimmed = run_wordcount(data, results_only=True)
        assert default.final == trimmed.final
        assert trimmed.bytes_transferred_total < default.bytes_transferred_total
        assert trimmed.migrations_total < default.migrations_total

    def test_map_crash_skips_that_node_and_continues(self, process_registry):
        def fragile_map(key, value):
            if value == b"poison":
                raise RuntimeError("boom")
            yield (value.decode(), 1)

        process_registry.register_map("fragile", fragile_map)
        spec = lm.JobSpec(job_id=9, task=lm.TaskDescriptor("fragile", "identity"), combine="sum-by-key")
        cluster, topo = make_cluster({1: [b"ok1"], 2: [b"poison"], 3: [b"ok2"]})
        result = lm.run_job(spec, cluster, lm.SimTransport(topo))
        assert result.final == {"ok1": 1, "ok2": 1}
        assert result.partials_received == 3  # the slave survives its bad node

    def test_wall_time_is_max_over_slaves_not_sum(self):
        data = {n: [b"x"] for n in range(1, 5)}
        parallel = run_wordcount(data)  # 4 slaves, one node each
        serial = run_wordcount(data, slave_count=1)  # one slave walks all of them
        assert parallel.wall_time_s < serial.wall_time_s

    def test_deterministic_repeat_runs(self):
        data = {n: [b"det erminism", b"again"] for n in range(1, 6)}
        results = []
        for _ in range(2):
            cluster, topo = make_cluster(data, seed=21, failure_prob=0.2)
            try:
                results.append(lm.run_job(lm.builtin_job("wordcount", job_id=1), cluster, lm.SimTransport(topo)).to_json_dict())
            except lm.AllSlavesFailed as exc:
                results.append(exc.result.to_json_dict())
        assert results[0] == results[1]


class TestFailures:
    def test_all_links_down_raises_with_accounting(self):
        cluster, topo = make_cluster({1: [b"a"], 2: [b"b"]}, failure_prob=1.0)
        with pytest.raises(lm.AllSlavesFailed) as info:
            lm.run_job(lm.builtin_job("wordcount", job_id=1), cluster, lm.SimTransport(topo))
        result = info.value.result
        assert result.partials_received == 0
        assert result.slaves_failed == result.slave_count == 2
        assert all(r.fail_reason for r in result.slave_reports)

    def test_backoff_shows_up_in_sim_time(self):
        cluster, topo = make_cluster({1: [b"a"]}, failure_prob=1.0, latency_s=0.0)
        with pytest.raises(lm.AllSlavesFailed) as info:
            lm.run_job(lm.builtin_job("wordcount", job_id=1), cluster, lm.SimTransport(topo))
        # three backoffs (0.1 + 0.2 + 0.4) are scripted into the timeline
        assert info.value.result.wall_time_s >= 0.7

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("results_only", [False, True])
    def test_partial_failures_keep_accounting_and_restricted_oracle(self, seed, results_only):
        rng = random.Random(seed)
        data = random_workload(rng, "wordcount", 6)
        cluster, topo = make_cluster(data, seed=seed, failure_prob=0.3)
        spec = lm.builtin_job("wordcount", job_id=1)
        try:
            result = lm.run_job(spec, cluster, lm.SimTransport(topo), results_only=results_only)
        except lm.AllSlavesFailed as exc:
            result = exc.result
        assert result.partials_received + result.slaves_failed == result.slave_count
        surviving_nodes = [n for r in result.slave_reports if r.delivered for n in r.nodes]
        expected = wordcount_reference([v for n in surviving_nodes for v in data[n]])
        assert result.final == expected


class TestOracleEquivalence:
    def test_non_utf8_values_still_aggregate_exactly(self):
        values = [b"\xff\xfe word \xf0", b"word \xff\xfe"]
        cluster, topo = make_cluster({1: [values[0]], 2: [values[1]]})
        result = lm.run_job(lm.builtin_job("wordcount", job_id=1), cluster, lm.SimTransport(topo))
        assert result.final == wordcount_reference(values)
        assert result.final["word"] == 2

    @pytest.mark.parametrize("job", ["wordcount", "sum"])
    def test_randomized_runs_match_the_reference(self, job):
        rng = random.Random(99 if job == "wordcount" else 100)
        for trial in range(25):
            n_nodes = rng.randrange(1, 9)
            data = random_workload(rng, job, n_nodes)
            slave_count = rng.randrange(1, 9)
            cluster, topo = make_cluster(data, seed=rng.randrange(2**32))
            spec = lm.builtin_job(job, job_id=1, slave_count=slave_count)
            result = lm.run_job(spec, cluster, lm.SimTransport(topo), results_only=bool(trial % 2))
            assert result.final == reference_final(job, all_values(data))
            assert result.partials_received == slave_count

    def test_sequential_oracle_agrees_with_reference(self):
        rng = random.Random(55)
        data = random_workload(rng, "wordcount", 5)
        spec = lm.builtin_job("wordcount", job_id=1)
        records = [(b"k%d" % i, v) for i, v in enumerate(all_values(data))]
        assert lm.sequential_oracle(spec.task, spec.combine, records) == wordcount_reference(all_values(data))


class TestLocality:
    def test_raw_record_bytes_never_cross_the_wire(self):
        sentinel = b"\xde\xad\xbe\xefSENTINEL\xde\xad\xbe\xef"
        data = {n: [b"12", b"34"] for n in range(1, 4)}
        cluster, topo = make_cluster(data)
        for node_id in range(1, 4):
            # keys are raw sensed identifiers; they must stay on the node
            cluster.nodes[node_id].ingest([(sentinel + b"%d" % node_id, b"56")])
        transport = RecordingTransport(topo)
        result = lm.run_job(lm.builtin_job("sum", job_id=3), cluster, transport)
        assert result.final == {"sum": sum([12, 34, 56] * 3)}
        assert transport.sent_payloads, "the run must actually use the transport"
        for payload in transport.sent_payloads:
            assert sentinel not in payload
        # aggregated values do cross, proving we scanned real traffic
        assert any(b"sum" in p for p in transport.sent_payloads)
