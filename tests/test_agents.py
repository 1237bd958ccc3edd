import random

import pytest

import locomap as lm
from locomap import AgentIdAllocator, AgentRole


def mk_mapper(payload=b"", padding=0):
    return lm.Agent(id=1, role=AgentRole.MAPPER, job_id=9, payload=payload + bytes(padding))


def mk_slave(itinerary=(), agent_id=2):
    return lm.Agent(id=agent_id, role=AgentRole.SLAVE, job_id=9, itinerary=tuple(itinerary))


class TestDuplicate:
    def test_copies_payload_and_issues_distinct_ids(self):
        mapper = mk_mapper(payload=b"x" * 1024)
        slaves = lm.duplicate(mapper, 3, AgentIdAllocator())
        assert len(slaves) == 3
        assert len({s.id for s in slaves}) == 3
        for slave in slaves:
            assert slave.role is AgentRole.SLAVE
            assert slave.payload == mapper.payload
            assert len(slave.payload) == 1024
            assert slave.job_id == mapper.job_id
            assert slave.itinerary == ()

    def test_zero_copies(self):
        assert lm.duplicate(mk_mapper(), 0, AgentIdAllocator()) == []

    def test_only_mapper_can_duplicate(self):
        with pytest.raises(lm.RoleError):
            lm.duplicate(mk_slave(), 2)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            lm.duplicate(mk_mapper(), -1)

    def test_ids_never_repeat_across_calls(self):
        ids = AgentIdAllocator()
        mapper = mk_mapper()
        issued = []
        for n in (3, 1, 5, 2):
            issued.extend(s.id for s in lm.duplicate(mapper, n, ids))
        assert len(issued) == len(set(issued))

    def test_payload_bytes_exact(self):
        rng = random.Random(11)
        for _ in range(20):
            payload = rng.randbytes(rng.randrange(0, 200))
            mapper = mk_mapper(payload=payload)
            for slave in lm.duplicate(mapper, rng.randrange(1, 4), AgentIdAllocator()):
                assert slave.payload == payload


class TestRecordVisit:
    def test_first_visit(self):
        assert lm.record_visit(mk_slave(), 1).itinerary == (1,)

    def test_appends_in_order(self):
        assert lm.record_visit(mk_slave(itinerary=[1]), 2).itinerary == (1, 2)

    def test_duplicate_rejected(self):
        with pytest.raises(lm.DuplicateVisit):
            lm.record_visit(mk_slave(itinerary=[1]), 1)

    def test_other_fields_unchanged(self):
        slave = mk_slave()
        after = lm.record_visit(slave, 7)
        assert (after.id, after.role, after.job_id, after.payload) == (slave.id, slave.role, slave.job_id, slave.payload)


class TestAgentValue:
    def test_serialized_size_formula(self):
        agent = mk_slave(itinerary=[1, 2, 3])
        assert len(lm.pack(agent)) == 32 + 12

    def test_size_strictly_increasing_in_payload_and_padding(self):
        base = len(lm.pack(mk_mapper()))
        assert len(lm.pack(mk_mapper(payload=b"a"))) == base + 1
        assert len(lm.pack(mk_mapper(padding=10))) == base + 10
        assert len(lm.pack(mk_mapper(payload=b"a", padding=10))) == base + 11

    def test_padding_is_equivalent_to_trailing_zero_payload(self):
        # Once on the wire the two are the same bytes, so they are the same agent.
        assert mk_mapper(payload=b"ab\x00") == mk_mapper(payload=b"ab", padding=1)

    def test_origin_is_local_bookkeeping(self):
        a = lm.Agent(id=1, role=AgentRole.SLAVE, job_id=1, origin=0)
        b = lm.Agent(id=1, role=AgentRole.SLAVE, job_id=1, origin=9)
        assert a == b
