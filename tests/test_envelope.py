import random

import pytest

import locomap as lm
from locomap import AgentRole, LifecycleCallbacks
from locomap.envelope import VERSION

from helpers import crc32_reference


def mk_agent(payload=b"", itinerary=(), padding=0, role=AgentRole.SLAVE, agent_id=42, job_id=7):
    return lm.Agent(
        id=agent_id,
        role=role,
        job_id=job_id,
        payload=payload + bytes(padding),
        itinerary=tuple(itinerary),
    )


def random_agent(rng: random.Random) -> lm.Agent:
    itinerary = tuple(rng.sample(range(1, 5000), rng.randrange(0, 6)))
    return mk_agent(
        payload=rng.randbytes(rng.randrange(0, 300)),
        itinerary=itinerary,
        padding=rng.choice((0, 0, 0, rng.randrange(0, 64))),
        role=rng.choice(list(AgentRole)),
        agent_id=rng.randrange(0, 2**63),
        job_id=rng.randrange(0, 2**63),
    )


class TestLayout:
    def test_empty_agent_is_exactly_32_bytes(self):
        assert len(lm.pack(mk_agent())) == 32

    def test_total_length_formula(self):
        agent = mk_agent(payload=b"abc", itinerary=(1, 2))
        assert len(lm.pack(agent)) == 4 + 1 + 8 + 1 + 8 + 2 + 4 * 2 + 4 + 3 + 4

    def test_exact_bytes_against_hand_layout(self):
        # Build the expected envelope field by field, independently of the codec.
        agent = mk_agent(payload=b"hi", itinerary=(3, 1), role=AgentRole.SLAVE, agent_id=0xA1B2, job_id=5)
        body = (
            b"LMAP"
            + bytes([1])
            + (0xA1B2).to_bytes(8, "big")
            + bytes([1])
            + (5).to_bytes(8, "big")
            + (2).to_bytes(2, "big")
            + (3).to_bytes(4, "big")
            + (1).to_bytes(4, "big")
            + (2).to_bytes(4, "big")
            + b"hi"
        )
        expected = body + crc32_reference(body).to_bytes(4, "big")
        assert lm.pack(agent) == expected

    def test_padding_written_as_zero_payload(self):
        data = lm.pack(mk_agent(payload=b"ab", padding=3))
        declared = int.from_bytes(data[24:28], "big")
        assert declared == 5
        assert data[28:33] == b"ab\x00\x00\x00"

    def test_pack_is_deterministic(self):
        agent = mk_agent(payload=b"xyz", itinerary=(9,))
        assert lm.pack(agent) == lm.pack(agent)

    def test_checksum_matches_independent_crc(self):
        rng = random.Random(3)
        for _ in range(25):
            data = lm.pack(random_agent(rng))
            assert int.from_bytes(data[-4:], "big") == crc32_reference(data[:-4])


class TestRoundtrip:
    def test_roundtrip_identity(self):
        agent = mk_agent(payload=b"partial bytes", itinerary=(4, 2, 7))
        assert lm.unpack(lm.pack(agent)) == agent

    def test_roundtrip_with_padding(self):
        agent = mk_agent(payload=b"p", padding=9)
        back = lm.unpack(lm.pack(agent))
        assert back == agent
        assert back.payload == b"p" + b"\x00" * 9

    def test_fuzzed_roundtrip(self):
        rng = random.Random(1234)
        for _ in range(500):
            agent = random_agent(rng)
            assert lm.unpack(lm.pack(agent)) == agent


class TestRejection:
    def test_bad_magic(self):
        data = bytearray(lm.pack(mk_agent()))
        data[0] = 0x00
        with pytest.raises(lm.BadMagic):
            lm.unpack(bytes(data))

    def test_unsupported_version(self):
        data = bytearray(lm.pack(mk_agent()))
        data[4] = VERSION + 1
        with pytest.raises(lm.UnsupportedVersion):
            lm.unpack(bytes(data))

    def test_truncated_prefixes(self):
        data = lm.pack(mk_agent(payload=b"abcdef"))
        for cut in (4, 10, 24, len(data) - 1):
            with pytest.raises((lm.Truncated, lm.BadMagic)):
                lm.unpack(data[:cut])

    def test_trailing_garbage_rejected(self):
        data = lm.pack(mk_agent())
        with pytest.raises(lm.Truncated):
            lm.unpack(data + b"\x00")

    def test_payload_byte_flip_is_checksum_mismatch(self):
        agent = mk_agent(payload=b"sensor partial")
        data = bytearray(lm.pack(agent))
        data[30] ^= 0xFF
        # Independent check: the trailer no longer covers the mutated prefix.
        assert crc32_reference(bytes(data[:-4])) != int.from_bytes(data[-4:], "big")
        with pytest.raises(lm.ChecksumMismatch):
            lm.unpack(bytes(data))

    def test_every_single_bit_flip_is_rejected_with_a_typed_error(self):
        rng = random.Random(77)
        data = lm.pack(mk_agent(payload=b"abcd", itinerary=(1, 2)))
        agent = lm.unpack(data)
        for _ in range(300):
            bit = rng.randrange(len(data) * 8)
            mutated = bytearray(data)
            mutated[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(lm.EnvelopeError):
                lm.unpack(bytes(mutated))
        assert lm.unpack(data) == agent  # the original is still fine

    def test_payload_too_large_without_allocating(self):
        class Huge(bytes):
            def __len__(self):
                return 2**32

        agent = lm.Agent(id=42, role=AgentRole.SLAVE, job_id=7, payload=Huge())
        with pytest.raises(lm.PayloadTooLarge):
            lm.pack(agent)

    def test_oversized_itinerary_rejected(self):
        agent = mk_agent(itinerary=tuple(range(70000)))
        with pytest.raises(lm.EnvelopeError):
            lm.pack(agent)

    def test_node_id_out_of_range_rejected(self):
        with pytest.raises(lm.EnvelopeError):
            lm.pack(mk_agent(itinerary=(2**32,)))


class TestCallbacks:
    def test_pack_fires_depart_exactly_once(self):
        seen = []
        callbacks = LifecycleCallbacks(on_depart=seen.append)
        lm.pack(mk_agent(), callbacks)
        assert len(seen) == 1
        assert callbacks.depart_count == 1
        assert callbacks.arrive_count == 0

    def test_unpack_fires_arrive_exactly_once(self):
        callbacks = LifecycleCallbacks()
        data = lm.pack(mk_agent(), callbacks)
        lm.unpack(data, callbacks)
        assert (callbacks.depart_count, callbacks.arrive_count) == (1, 1)

    def test_corrupt_envelope_rejected_before_arrival_hook(self):
        callbacks = LifecycleCallbacks()
        data = bytearray(lm.pack(mk_agent(payload=b"x"), callbacks))
        data[-1] ^= 1
        with pytest.raises(lm.ChecksumMismatch):
            lm.unpack(bytes(data), callbacks)
        assert callbacks.arrive_count == 0


class TestMigrate:
    def topo(self, bandwidth=1_048_576, latency=0.010, failure=0.0, seed=0):
        return lm.Topology.full_mesh(0, [1], bandwidth_bytes_per_s=bandwidth, latency_s=latency, failure_prob=failure, rng_seed=seed)

    def test_sim_phase_arithmetic(self):
        transport = lm.SimTransport(self.topo())
        agent = mk_agent(padding=1_048_576 - 32)  # envelope comes out at exactly 1 MiB
        outcome = lm.migrate(agent, 0, 1, transport)
        assert outcome.bytes == 1_048_576
        assert outcome.phases.transfer_s == 1.0
        assert outcome.phases.connect_s == 0.010

    def test_two_callbacks_per_migration(self):
        callbacks = LifecycleCallbacks()
        transport = lm.SimTransport(self.topo())
        lm.migrate(mk_agent(), 0, 1, transport, callbacks)
        assert (callbacks.depart_count, callbacks.arrive_count) == (1, 1)
        assert callbacks.total == 2

    def test_forced_failure_keeps_agent_at_source(self):
        transport = lm.SimTransport(self.topo(failure=1.0))
        agent = mk_agent(payload=b"keep me")
        with pytest.raises(lm.TransportFailure) as info:
            lm.migrate(agent, 0, 1, transport)
        assert info.value.report is not None
        assert not info.value.report.delivered
        assert agent.payload == b"keep me"

    def test_same_node_rejected(self):
        with pytest.raises(ValueError):
            lm.migrate(mk_agent(), 1, 1, lm.SimTransport(self.topo()))

    def test_phases_sum_to_total(self):
        transport = lm.SimTransport(self.topo())
        outcome = lm.migrate(mk_agent(payload=b"x" * 100), 0, 1, transport)
        p = outcome.phases
        assert p.total_s == p.prepare_s + p.connect_s + p.transfer_s + p.unpack_s + p.verify_s

    def test_arrived_agent_equals_sent_agent(self):
        transport = lm.SimTransport(self.topo())
        agent = mk_agent(payload=b"partial", itinerary=(5,))
        outcome = lm.migrate(agent, 0, 1, transport)
        assert outcome.agent == agent
