"""End-to-end gateway tests over a real TCP socket.

Everything here talks to a live :class:`GatewayServer` through the
loopback interface — the same code path as ``repro submit --connect``.
The two load-bearing properties:

* **bit-identity** — a job submitted over the wire returns amplitudes
  ``np.array_equal`` to the same job run in-process (the base64
  complex128 codec is exact, not approximate);
* **typed refusals** — every hostile or mistimed request (garbage bytes,
  bad QASM, unknown ops, draining server, dead shard) yields a protocol
  error with a stable code, never a traceback or a hung connection.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading

import numpy as np
import pytest

from repro.circuit.generators import make_circuit
from repro.circuit.inputs import random_batch
from repro.gateway import GatewayClient, GatewayServer
from repro.gateway.protocol import PROTOCOL_VERSION, ProtocolError
from repro.obs.prom import parse_prometheus_text
from repro.service import BatchSimulationService
from repro.testing.chaos_pool import ChaosSchedule


class ServerHarness:
    """A gateway server on a private event-loop thread (sync tests)."""

    def __init__(self, **kwargs) -> None:
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="test-gateway", daemon=True
        )
        self._thread.start()
        self.server = GatewayServer(**kwargs)
        self._run(self.server.start())

    def _run(self, coroutine, timeout_s: float = 120.0):
        return asyncio.run_coroutine_threadsafe(
            coroutine, self._loop
        ).result(timeout=timeout_s)

    @property
    def port(self) -> int:
        return self.server.port

    def shutdown(self, drain: bool = True) -> None:
        self._run(self.server.shutdown(drain=drain))

    def stop(self) -> None:
        try:
            self.shutdown()
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10)
            self._loop.close()


@pytest.fixture()
def harness():
    h = ServerHarness(num_shards=2)
    yield h
    h.stop()


@pytest.fixture()
def client(harness):
    with GatewayClient("127.0.0.1", harness.port) as c:
        yield c


def raw_exchange(port: int, payload: bytes) -> dict:
    """One raw line in, one frame out (no client-side validation)."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(payload)
        handle = sock.makefile("rb")
        line = handle.readline()
    assert line, "server closed the connection without a response"
    return json.loads(line)


class TestEndToEnd:
    def test_ping(self, client):
        assert client.ping() is True

    def test_wire_results_are_bit_identical_to_in_process(self, harness):
        """The acceptance criterion: socket == in-process, bit for bit."""
        circuit = make_circuit("qft", 4)
        batch = random_batch(4, 8, 3)

        local = BatchSimulationService()
        reference = local.submit(circuit, batch)
        local.close(drain=True)

        with GatewayClient("127.0.0.1", harness.port) as client:
            job_id = client.submit(circuit, inputs=batch.states)
            remote = client.result(job_id)
        assert np.array_equal(remote, reference.result)  # not allclose

    def test_submit_status_result_cycle(self, client):
        job_id = client.submit(family="ghz", num_qubits=4, num_inputs=6)
        assert job_id.startswith("s")  # shard-prefixed public id
        result = client.result(job_id)
        assert result.shape == (16, 6)
        info = client.status(job_id)
        assert info["status"] == "done"
        assert info["shard"] in ("s0", "s1")
        assert info["job_id"] == job_id

    def test_qasm_submit(self, client):
        qasm = (
            "OPENQASM 2.0;\n"
            'include "qelib1.inc";\n'
            "qreg q[3];\n"
            "h q[0];\ncx q[0], q[1];\ncx q[1], q[2];\n"
        )
        job_id = client.submit(qasm=qasm, num_inputs=2)
        assert client.result(job_id).shape == (8, 2)

    def test_metrics_scrape_is_valid_prometheus(self, client):
        client.result(client.submit(family="ghz", num_qubits=3))
        scrape = parse_prometheus_text(client.metrics())
        samples = scrape["samples"]
        assert any(name.startswith("repro_gateway_") for name in samples)
        # service-layer families ride along in the same scrape
        assert any(
            not name.startswith("repro_gateway_") for name in samples
        )

    def test_stats_covers_the_fleet(self, client):
        client.result(client.submit(family="ghz", num_qubits=3))
        stats = client.stats()
        assert set(stats["shards"]) == {"s0", "s1"}
        assert stats["submitted"] >= 1
        assert stats["slo"]["unaccounted_jobs"] == 0

    def test_stream_carries_the_job_lifecycle(self, harness):
        with GatewayClient("127.0.0.1", harness.port) as submitter:
            job_id = submitter.submit(family="ghz", num_qubits=3)
            submitter.result(job_id)
        with GatewayClient("127.0.0.1", harness.port) as streamer:
            events = streamer.stream_events(
                from_seq=0, limit=64, timeout_s=2.0
            )
        mine = [e for e in events if e.get("job") == job_id]
        stages = [e["event"] for e in mine]
        for stage in ("submitted", "routed", "done"):
            assert stage in stages, f"stream missed {stage}: {stages}"
        assert all("seq" in e and "shard" in e for e in mine)

    def test_cancel_done_job_is_typed(self, client):
        job_id = client.submit(family="ghz", num_qubits=3)
        client.result(job_id)
        with pytest.raises(ProtocolError) as err:
            client.cancel(job_id)
        assert err.value.code == "NOT_CANCELLABLE"
        assert err.value.extra["status"] == "done"


class TestTypedWireErrors:
    def test_garbage_bytes(self, harness):
        response = raw_exchange(harness.port, b"\x00\xfe{{{ nope\n")
        assert response["ok"] is False
        assert response["error"]["code"] == "BAD_ENVELOPE"

    def test_wrong_version(self, harness):
        response = raw_exchange(
            harness.port, b'{"v": 99, "op": "ping", "id": 1}\n'
        )
        assert response["error"]["code"] == "UNSUPPORTED_VERSION"
        assert response["id"] == 1  # refusals still correlate

    def test_unknown_op(self, harness):
        response = raw_exchange(
            harness.port,
            json.dumps(
                {"v": PROTOCOL_VERSION, "op": "frobnicate", "id": 2}
            ).encode() + b"\n",
        )
        assert response["error"]["code"] == "UNKNOWN_OP"

    def test_submit_without_circuit(self, harness):
        response = raw_exchange(
            harness.port,
            json.dumps(
                {"v": PROTOCOL_VERSION, "op": "submit", "id": 3}
            ).encode() + b"\n",
        )
        assert response["error"]["code"] in ("BAD_CIRCUIT", "BAD_ENVELOPE")

    def test_bad_qasm_is_typed_with_line(self, client):
        with pytest.raises(ProtocolError) as err:
            client.submit(
                qasm="OPENQASM 2.0;\nqreg q[2];\nfrobnicate q[0];\n"
            )
        assert err.value.code == "BAD_QASM"
        assert err.value.extra.get("line") == 3

    @pytest.mark.parametrize("expr", ["0/0", "1e400", "sqrt(-1)"])
    def test_unevaluable_parameter_is_bad_qasm(self, client, expr):
        with pytest.raises(ProtocolError) as err:
            client.submit(
                qasm=f"OPENQASM 2.0;\nqreg q[1];\nrz({expr}) q[0];\n"
            )
        assert err.value.code == "BAD_QASM"
        assert err.value.extra.get("line") == 3

    def test_oversized_circuit_is_typed(self, client):
        with pytest.raises(ProtocolError) as err:
            client.submit(family="ghz", num_qubits=30)
        assert err.value.code == "OVERSIZED"

    def test_bad_inputs_are_typed(self, client):
        wrong = random_batch(5, 2, 0).states  # 32 rows for a 3q circuit
        with pytest.raises(ProtocolError) as err:
            client.submit(family="ghz", num_qubits=3, inputs=wrong)
        assert err.value.code == "BAD_INPUTS"

    def test_unknown_job(self, client):
        with pytest.raises(ProtocolError) as err:
            client.status("s0/job-404-deadbeef")
        assert err.value.code == "UNKNOWN_JOB"
        with pytest.raises(ProtocolError) as err:
            client.result("s9/job-404-deadbeef")
        assert err.value.code == "UNKNOWN_JOB"

    def test_connection_survives_an_error(self, client):
        """A typed refusal must not poison the connection."""
        with pytest.raises(ProtocolError):
            client.status("s0/nope")
        assert client.ping() is True


class TestShardDeathOverTheWire:
    def test_dead_fleet_yields_job_failed_not_a_hang(self):
        """With every shard dead, result() gets a typed terminal error."""
        harness = ServerHarness(
            num_shards=1,
            service_kwargs={
                "parallelism": "process",
                "num_workers": 1,
                "max_restarts": 0,
            },
        )
        router = harness.server.router
        router.shards["s0"].service.chaos = ChaosSchedule.parse("kill=1")
        try:
            with GatewayClient("127.0.0.1", harness.port) as client:
                job_ids = [
                    client.submit(family="ghz", num_qubits=3 + i)
                    for i in range(2)
                ]
                failures = []
                for job_id in job_ids:
                    with pytest.raises(ProtocolError) as err:
                        client.result(job_id, timeout_s=30.0)
                    failures.append(err.value)
                for failure in failures:
                    assert failure.code == "JOB_FAILED"
                    assert failure.extra["status"] in (
                        "failed", "cancelled", "quarantined"
                    )
            assert router.unaccounted() == []
        finally:
            harness.stop()


class TestDraining:
    def test_draining_refusals_are_typed(self, harness):
        """New connections get DRAINING everywhere; old ones can still
        collect results (only submit/stream are refused)."""
        with GatewayClient("127.0.0.1", harness.port) as veteran:
            job_id = veteran.submit(family="ghz", num_qubits=3)
            veteran.result(job_id)  # finished before the drain starts
            harness.server._draining = True
            try:
                # a connection born during the drain: everything refused
                with GatewayClient("127.0.0.1", harness.port) as newborn:
                    with pytest.raises(ProtocolError) as err:
                        newborn.ping()
                    assert err.value.code == "DRAINING"
                # the veteran may not add work...
                with pytest.raises(ProtocolError) as err:
                    veteran.submit(family="ghz", num_qubits=3)
                assert err.value.code == "DRAINING"
                # ...but may still collect what it is owed
                assert veteran.status(job_id)["status"] == "done"
                assert veteran.result(job_id).shape == (8, 1)
            finally:
                harness.server._draining = False

    def test_graceful_shutdown_finishes_admitted_work(self):
        """shutdown(drain=True) under worker chaos: admitted jobs reach
        terminal states, nothing is lost, new work is refused."""
        harness = ServerHarness(
            num_shards=2,
            service_kwargs={
                "parallelism": "process",
                "num_workers": 1,
                "chaos": ChaosSchedule.parse("kill=1"),
            },
        )
        router = harness.server.router
        client = GatewayClient("127.0.0.1", harness.port)
        try:
            job_ids = [
                client.submit(family="ghz", num_qubits=3, num_inputs=2)
                for _ in range(4)
            ] + [
                client.submit(family="qft", num_qubits=4, num_inputs=2)
                for _ in range(4)
            ]
            harness.shutdown(drain=True)
            for job_id in job_ids:
                info = router.describe(job_id)
                # chaos kills the first task on each pool; with restart
                # budget the job is redelivered and still finishes
                assert info["status"] in ("done", "quarantined")
            assert router.unaccounted() == []
        finally:
            client.close()
            harness.stop()
