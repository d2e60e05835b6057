"""asyncio/TCP runtime: framing plus an end-to-end localhost deployment."""

import asyncio

import pytest

from repro.core import (
    AllConcurConfig,
    Backward,
    Batch,
    Broadcast,
    FailureNotice,
    Forward,
    Request,
)
from repro.graphs import gs_digraph
from repro.runtime import (
    FrameDecoder,
    LocalCluster,
    decode_message,
    encode_frame,
    encode_message,
)


class TestFraming:
    def test_broadcast_roundtrip_with_requests(self):
        payload = Batch.of([Request(origin=2, seq=0, nbytes=40, data="hi"),
                            Request(origin=2, seq=1, nbytes=40, data=[1, 2])])
        msg = Broadcast(round=3, origin=2, payload=payload)
        sender, decoded = decode_message(encode_message(7, msg))
        assert sender == 7
        assert decoded == msg

    def test_broadcast_roundtrip_synthetic(self):
        msg = Broadcast(round=0, origin=1,
                        payload=Batch.synthetic(100, 8))
        _s, decoded = decode_message(encode_message(1, msg))
        assert decoded.payload.count == 100
        assert decoded.payload.nbytes == 800

    def test_failure_fwd_bwd_roundtrip(self):
        for msg in (FailureNotice(round=2, failed=1, reporter=4),
                    Forward(round=2, origin=3),
                    Backward(round=2, origin=3)):
            _s, decoded = decode_message(encode_message(0, msg))
            assert decoded == msg

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            decode_message({"type": "gossip", "from": 0, "round": 0})

    def test_frame_decoder_handles_partial_frames(self):
        frame = encode_frame({"type": "heartbeat", "from": 3})
        decoder = FrameDecoder()
        assert decoder.feed(frame[:3]) == []
        assert decoder.pending_bytes == 3
        frames = decoder.feed(frame[3:])
        assert frames == [{"type": "heartbeat", "from": 3}]
        assert decoder.pending_bytes == 0

    def test_frame_decoder_handles_multiple_frames(self):
        f1 = encode_frame({"a": 1})
        f2 = encode_frame({"b": 2})
        decoder = FrameDecoder()
        assert decoder.feed(f1 + f2) == [{"a": 1}, {"b": 2}]

    def test_oversized_frame_rejected(self):
        decoder = FrameDecoder()
        bogus = (200_000_000).to_bytes(4, "big") + b"x"
        with pytest.raises(ValueError):
            decoder.feed(bogus)


class TestLocalCluster:
    def test_single_round_agreement_over_tcp(self):
        async def scenario():
            graph = gs_digraph(6, 3)
            async with LocalCluster(graph,
                                    enable_failure_detector=False) as cluster:
                await cluster.submit(0, "a")
                await cluster.submit(3, "b")
                rounds = await cluster.run_rounds(1, timeout=20)
                assert cluster.agreement_holds()
                record = rounds[0][0]
                origins = [o for o, _b in record.messages]
                assert origins == list(range(6))
                data = [req.data for _o, b in record.messages
                        for req in b.requests]
                assert sorted(data) == ["a", "b"]

        asyncio.run(scenario())

    def test_multiple_rounds_preserve_order_everywhere(self):
        async def scenario():
            graph = gs_digraph(6, 3)
            async with LocalCluster(graph,
                                    enable_failure_detector=False) as cluster:
                for rnd in range(3):
                    await cluster.submit(rnd % 6, f"round-{rnd}")
                    await cluster.run_rounds(1, timeout=20)
                assert cluster.agreement_holds()
                node = cluster.nodes[5]
                assert node.delivered_rounds == 3
                assert [d.round for d in node.delivered] == [0, 1, 2]

        asyncio.run(scenario())

    def test_each_broadcast_decoded_once_and_relayed_verbatim(
            self, monkeypatch):
        """Failure-free GS(8,3): of the n·d copies of each round's
        messages a node receives, only the n−1 new ones have their batch
        decoded, and every forward re-frames the received bytes — one
        fresh encode per node per round."""
        from repro.runtime import wire

        counts = {"decode": 0, "encode": 0, "relay": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(wire, "decode_batch",
                            counted("decode", wire.decode_batch))
        monkeypatch.setattr(wire.BinaryCodec, "encode_message",
                            counted("encode", wire.BinaryCodec.encode_message))
        monkeypatch.setattr(wire.BinaryCodec, "encode_relay",
                            counted("relay", wire.BinaryCodec.encode_relay))

        async def scenario():
            graph = gs_digraph(8, 3)
            async with LocalCluster(graph,
                                    enable_failure_detector=False) as cluster:
                for rnd in range(3):
                    for pid in range(8):
                        await cluster.submit(pid, {"r": rnd, "p": pid})
                    await cluster.run_rounds(1, timeout=20)
                assert cluster.agreement_holds()
                record = cluster.nodes[7].delivered[2]
                return sorted(req.data["p"] for _o, b in record.messages
                              for req in b.requests)

        assert asyncio.run(scenario()) == list(range(8))
        rounds, n = 3, 8
        assert counts == {"decode": rounds * n * (n - 1),
                          "encode": rounds * n,
                          "relay": rounds * n * (n - 1)}

    def test_deliver_callback_invoked(self):
        async def scenario():
            graph = gs_digraph(6, 3)
            seen = []
            async with LocalCluster(graph,
                                    enable_failure_detector=False) as cluster:
                cluster.nodes[2].on_deliver(lambda rec: seen.append(rec.round))
                await cluster.run_rounds(1, timeout=20)
            assert seen == [0]

        asyncio.run(scenario())

    def test_ephemeral_ports_published_before_dialling(self):
        """Port 0 = kernel-assigned: after start every node's address map
        entry holds a real bound port, and two clusters can start
        concurrently without racing for a port range (the old probe-based
        pick_free_port_base was TOCTOU-racy)."""
        async def scenario():
            graph = gs_digraph(6, 3)
            a = LocalCluster(graph, enable_failure_detector=False)
            b = LocalCluster(graph, enable_failure_detector=False)
            assert all(addr.port == 0 for addr in a.addresses.values())
            try:
                await asyncio.gather(a.start(), b.start())
                for cluster in (a, b):
                    ports = [cluster.nodes[pid].address.port
                             for pid in cluster.members]
                    assert all(p > 0 for p in ports)
                    assert len(set(ports)) == len(ports)
                await a.submit(0, "a")
                await b.submit(0, "b")
                ra, rb = await asyncio.gather(a.run_rounds(1),
                                              b.run_rounds(1))
                assert a.agreement_holds() and b.agreement_holds()
            finally:
                await a.stop()
                await b.stop()

        asyncio.run(scenario())

    def test_explicit_base_port_still_honoured(self):
        async def scenario():
            graph = gs_digraph(6, 3)
            async with LocalCluster(graph, base_port=23750,
                                    enable_failure_detector=False) as cluster:
                assert [cluster.nodes[pid].address.port
                        for pid in cluster.members] == \
                    list(range(23750, 23756))
                await cluster.run_rounds(1)
                assert cluster.agreement_holds()

        asyncio.run(scenario())

    def test_fail_stop_membership_change(self):
        """cluster.fail tears a node down and injects the suspicion
        deterministically; later rounds exclude the failed server."""
        async def scenario():
            graph = gs_digraph(8, 3)
            async with LocalCluster(graph,
                                    enable_failure_detector=False) as cluster:
                await cluster.run_rounds(1, timeout=20)
                await cluster.fail(6)
                assert cluster.alive_members == (0, 1, 2, 3, 4, 5, 7)
                rounds = await cluster.run_rounds(2, timeout=20)
                assert cluster.agreement_holds()
                removed = {pid for per_node in rounds
                           for rec in per_node.values()
                           for pid in rec.removed}
                assert removed == {6}
                last = rounds[-1][0]
                assert 6 not in [o for o, _b in last.messages]

        asyncio.run(scenario())

    def test_run_rounds_refills_window_across_membership_barrier(self):
        """Regression: with pipeline_depth >= 2 a membership change caps
        the broadcast window (epoch barrier) and start_round becomes a
        temporary no-op; run_rounds must re-fill the window after each
        awaited round or the capped slots are never re-issued and the run
        times out."""
        async def scenario():
            graph = gs_digraph(8, 3)
            config = AllConcurConfig(graph=graph, auto_advance=False,
                                     pipeline_depth=2)
            async with LocalCluster(graph, config=config,
                                    enable_failure_detector=False) as cluster:
                await cluster.submit(0, "pre")
                await cluster.run_rounds(1, timeout=20)
                await cluster.fail(5)
                await cluster.submit(1, "post")
                rounds = await cluster.run_rounds(4, timeout=20)
                assert len(rounds) == 4
                assert cluster.agreement_holds()
                removed = {pid for per_node in rounds
                           for rec in per_node.values()
                           for pid in rec.removed}
                assert removed == {5}
                # the new epoch is underway: the last round has only the
                # shrunk membership and delivered the post-failure request
                node0 = cluster.nodes[0]
                assert node0.server.members == (0, 1, 2, 3, 4, 6, 7)
                data = [req.data for per_node in rounds
                        for _o, b in per_node[0].messages
                        for req in b.requests]
                assert "post" in data

        asyncio.run(scenario())

    def test_pipelined_rounds_over_tcp(self):
        """pipeline_depth > 1 drives several window slots before waiting:
        the same sans-IO pipelining works over real sockets."""
        from repro.core import AllConcurConfig

        async def scenario():
            graph = gs_digraph(6, 3)
            config = AllConcurConfig(graph=graph, auto_advance=False,
                                     pipeline_depth=2)
            async with LocalCluster(graph, config=config,
                                    enable_failure_detector=False) as cluster:
                await cluster.submit(0, "early")
                rounds = await cluster.run_rounds(4, timeout=20)
                assert len(rounds) == 4
                assert cluster.agreement_holds()
                node = cluster.nodes[0]
                assert [d.round for d in node.delivered] == [0, 1, 2, 3]
                data = [req.data for _o, b in rounds[0][0].messages
                        for req in b.requests]
                assert data == ["early"]

        asyncio.run(scenario())
