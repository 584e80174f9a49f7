"""The ``service_waves`` workload: waves of jobs through the gateway's
request path, in one process.

Each job takes the path a gateway job takes, without the socket.  The
client side frames a submit request, its amplitudes in the wire codec.  The
server side decodes the frame, parses the QASM (``circuit_from_wire``),
decodes the amplitudes (``inputs_from_wire``) and submits to a one-shard
``ShardRouter``.  Dispatch rounds (``step_all``) run the coalesced groups
and scatter their results.  Each finished job's result goes back in a
response frame that the client side decodes.  It all runs on one thread
with no sleeps and no polling, so its time follows the host's speed.
README.md says why the TCP round trip is left out.
Import this module only once the program's sources are on ``sys.path``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np
from repro.circuit import InputBatch, to_qasm
from repro.circuit.generators import make_circuit
from repro.circuit.inputs import random_batch
from repro.errors import ReproError
from repro.gateway import client as wire_client
from repro.gateway import protocol
from repro.gateway.router import ShardRouter
from repro.sim import BatchSpec, BQSimSimulator

from .layers import add_service_layers, ledger
from .spans import Patches
from .workloads import _InProcess, process_peak_rss_mb


@dataclass(frozen=True)
class JobSpec:
    circuit: int
    fidelity: float
    inputs: np.ndarray


class ServiceWaves(_InProcess):
    """Closed loop of waves from one caller.

    Each job draws one spec from a pool made in setup: one of a few fixed
    circuits, 4 input columns, and about one job in four with a fidelity
    budget of 0.99.  Setup warms every (circuit, budget) plan, so the timed
    window measures serving, not compiling.  A wave submits all its jobs,
    then runs dispatch rounds and returns each result as its job finishes.
    """

    name = "service_waves"
    probe = "python"
    #: the heap grows with the jobs kept, so a full collection between ops
    #: would cost more than the op; the young generations hold the garbage
    gc_generation = 1
    inputs_per_op = "1 job of 4 inputs; jobs go in waves of 32, 1 wave per block"
    CIRCUITS = (("vqe", 8), ("qft", 8), ("graphstate", 8), ("supremacy", 7))
    INPUTS_PER_JOB = 4
    WAVE = 32
    POOL = 256
    APPROX_BUDGET = 0.99
    APPROX_SHARE = 0.25
    #: the service keeps every finished job, so its memory grows with the
    #: jobs served; ``peak_rss_mb`` is read once this many have been served
    #: in the window, so it does not follow the host's speed
    RSS_AT_JOBS = 1024
    #: dispatch rounds after which a wave's unfinished jobs count as failed
    MAX_ROUNDS = 1000

    def __init__(self) -> None:
        super().__init__()
        self.router: ShardRouter | None = None
        self._results: list = []
        self._served = 0
        self._rss_at_jobs_mb: float | None = None
        self._approx_jobs: list[tuple[str, float]] = []
        self._references: dict[int, np.ndarray] = {}
        self._simulators: dict[float, BQSimSimulator] = {}
        self._attainment = 1.0
        self._setup_rss_kib = 0.0

    def setup(self, seed: int) -> None:
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.circuits = [make_circuit(f, n, seed=0) for f, n in self.CIRCUITS]
        self.qasm = [to_qasm(c) for c in self.circuits]
        self.specs = []
        for _ in range(self.POOL):
            c = int(rng.integers(len(self.circuits)))
            approx = rng.random() < self.APPROX_SHARE
            states = random_batch(
                self.circuits[c].num_qubits, self.INPUTS_PER_JOB, rng
            ).states
            self.specs.append(
                JobSpec(c, self.APPROX_BUDGET if approx else 1.0, states)
            )
        self.router = ShardRouter(num_shards=1)
        warm = {(s.circuit, s.fidelity): i for i, s in enumerate(self.specs)}
        _, _, failed = self._serve(list(warm.values()))
        if failed:
            raise RuntimeError(f"{failed} warm-up jobs failed")
        self._setup_rss_kib = process_peak_rss_mb() * 1024

    def close(self) -> None:
        if self.router is not None:
            router, self.router = self.router, None
            router.close()

    # -- the timed ops ---------------------------------------------------------

    def items_per_op(self, wave) -> int:
        return len(wave)

    def block(self, index: int) -> list[list[int]]:
        rng = np.random.default_rng([self.seed, index])
        return [[int(i) for i in rng.integers(self.POOL, size=self.WAVE)]]

    def _request(self, index: int, request_id: int) -> bytes:
        """Client side: the submit frame of one job."""
        spec = self.specs[index]
        frame = {
            "v": protocol.PROTOCOL_VERSION,
            "op": "submit",
            "id": request_id,
            "circuit": {"qasm": self.qasm[spec.circuit]},
            "inputs": wire_client.encode_array(spec.inputs),
        }
        if spec.fidelity != 1.0:
            frame["fidelity"] = spec.fidelity
        return protocol.encode_frame(frame)

    def _admit(self, line: bytes):
        """Server side: decode, parse and submit one request."""
        request = protocol.decode_frame(line)
        circuit = protocol.circuit_from_wire(request.get("circuit"))
        batch = protocol.inputs_from_wire(request.get("inputs"), circuit)
        job, _ = self.router.submit(
            circuit, batch,
            num_inputs=request.get("num_inputs", 1),
            fidelity=float(request.get("fidelity", 1.0)),
        )
        return job

    def _respond(self, job) -> bytes:
        """Server side: the result frame of one finished job."""
        return protocol.encode_frame(protocol.ok_response(
            None, status=job.status.value, result=protocol.encode_array(job.result),
        ))

    def _serve(self, wave: list[int]):
        """Submit every job of the wave, then run dispatch rounds and
        return each result, decoded, as its job finishes."""
        latencies, results, failed = [], [], 0
        pending = []
        for request_id, index in enumerate(wave):
            start = time.perf_counter()
            try:
                job = self._admit(self._request(index, request_id))
            except (protocol.ProtocolError, ReproError):
                failed += 1
                continue
            pending.append((index, job, start))
        rounds = 0
        while pending and rounds < self.MAX_ROUNDS:
            self.router.step_all()
            rounds += 1
            waiting = []
            for index, job, start in pending:
                if not job.is_terminal:
                    waiting.append((index, job, start))
                elif job.status.value != "done":
                    failed += 1
                else:
                    response = json.loads(self._respond(job))
                    output = wire_client.decode_array(response["result"])
                    latencies.append(time.perf_counter() - start)
                    results.append((index, job.job_id, output))
            pending = waiting
        return latencies, results, failed + len(pending)

    def run(self, wave: list[int]):
        latencies, self._results, failed = self._serve(wave)
        self._served += len(latencies)
        if self._rss_at_jobs_mb is None and self._served >= self.RSS_AT_JOBS:
            self._rss_at_jobs_mb = process_peak_rss_mb()
        return latencies, failed

    # -- output checks ---------------------------------------------------------

    def _reference(self, index: int) -> np.ndarray:
        """The same circuit and inputs on a plain simulator."""
        if index not in self._references:
            spec = self.specs[index]
            sim = self._simulators.get(spec.fidelity)
            if sim is None:
                sim = self._simulators[spec.fidelity] = BQSimSimulator(
                    fidelity=spec.fidelity
                )
            result = sim.run(
                self.circuits[spec.circuit],
                BatchSpec(1, self.INPUTS_PER_JOB),
                batches=[InputBatch(spec.inputs)],
            )
            self._references[index] = result.outputs[0]
        return self._references[index]

    def check(self, wave) -> int:
        """Decoded results must be bit-identical to plain simulator runs."""
        wrong = 0
        results, self._results = self._results, []
        for index, job_id, output in results:
            expected = self._reference(index)
            if not (
                output.dtype == expected.dtype
                and output.shape == expected.shape
                and output.tobytes() == expected.tobytes()
            ):
                wrong += 1
            elif self.specs[index].fidelity < 1.0:
                self._approx_jobs.append((job_id, self.specs[index].fidelity))
        return wrong

    def finish(self) -> int:
        """Every approximate job must report achieved fidelity >= budget."""
        super().finish()
        missed = 0
        for job_id, budget in self._approx_jobs:
            info = self.router.describe(job_id)
            achieved = info.get("achieved_fidelity")
            if info.get("status") != "done" or achieved is None or achieved < budget:
                missed += 1
        checked = len(self._approx_jobs)
        self._attainment = (checked - missed) / checked if checked else 1.0
        return missed

    # -- metrics -----------------------------------------------------------------

    def patches(self, recorder) -> Patches:
        return add_service_layers(Patches(recorder))

    def peak_rss_mb(self) -> float:
        """Peak after ``RSS_AT_JOBS`` jobs, or at the end of a run that
        served fewer."""
        if self._rss_at_jobs_mb is not None:
            return self._rss_at_jobs_mb
        return super().peak_rss_mb()

    def layer_metrics(self, spans, ops: int) -> dict[str, float]:
        metrics = ledger(spans, ops)
        metrics["approx.attainment_rate"] = self._attainment
        # the service keeps every finished job, inputs and outputs included
        grown_kib = super().peak_rss_mb() * 1024 - self._setup_rss_kib
        metrics["service.rss_growth_kib_per_job"] = (
            grown_kib / self._served if self._served else 0.0
        )
        return metrics
