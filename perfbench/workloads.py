"""The in-process workloads: ``cold_compile`` and ``warm_execute``.

Both call the public API only (``make_circuit``, ``random_batch``,
``BQSimSimulator.run``) and check outputs against the dense state-vector
reference ``repro.sim.statevector.simulate_batch``.  Why each workload
exists, and which layer it exercises, is written down in README.md.
Import this module only once the program's sources are on ``sys.path``.
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass

import numpy as np
from repro.circuit.generators import make_circuit
from repro.circuit.inputs import random_batch
from repro.sim import BatchSpec, BQSimSimulator
from repro.sim.statevector import simulate_batch

from .layers import FAMILIES, add_simulator_layers, ledger
from .spans import Patches

#: largest |amplitude difference| accepted against the state-vector
#: reference; the DD and spMM paths round differently in the last bits
TOLERANCE = 1e-10


def process_peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def max_deviation(actual: np.ndarray, expected: np.ndarray) -> float:
    if actual.shape != expected.shape:
        return float("inf")
    return float(np.max(np.abs(actual - expected)))


class _InProcess:
    """Shared plumbing of the in-process workloads."""

    gc_generation = 2

    def __init__(self) -> None:
        self._traced = False
        self._rss = 0.0

    def items_per_op(self, op) -> int:
        return 1

    def patches(self, recorder) -> Patches:
        return add_simulator_layers(Patches(recorder))

    def set_traced(self, on: bool, patches: Patches) -> None:
        if on:
            patches.install()
        else:
            patches.restore()
        self._traced = on

    def finish(self) -> int:
        self._rss = process_peak_rss_mb()
        return 0

    def peak_rss_mb(self) -> float:
        return self._rss

    def close(self) -> None:
        pass


@dataclass
class ColdOp:
    family: str
    circuit: object
    batch: object
    output: np.ndarray | None = None


class ColdCompile(_InProcess):
    """Each op compiles and runs one distinct circuit of every family, each
    on a fresh simulator.

    A plan's time depends on the circuit run before it, and per family it
    spreads by a factor of two, so a latency per plan moved with the seeded
    circuits and their order; the sum over one circuit per family, in a
    fixed order, does not.  Sizes keep a plan to tens or a few hundred
    milliseconds.  The stream cycles through a pool made in setup.
    """

    name = "cold_compile"
    probe = "python"
    inputs_per_op = "5 fresh plans, one per family, each run over 1 batch of 8 inputs"
    SIZES = {"qnn": 5, "supremacy": 5, "vqe": 5, "qft": 6, "graphstate": 6}
    BATCH_SIZE = 8
    POOL_BLOCKS = 200

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.pool: list[list[ColdOp]] = []
        for _ in range(self.POOL_BLOCKS):
            plans = []
            for family in FAMILIES:
                n = self.SIZES[family]
                circuit = make_circuit(family, n, seed=int(rng.integers(1 << 31)))
                plans.append(
                    ColdOp(family, circuit, random_batch(n, self.BATCH_SIZE, rng))
                )
            self.pool.append(plans)
        self.family_ms: dict[str, list[float]] = {f: [] for f in FAMILIES}

    def block(self, index: int) -> list[list[ColdOp]]:
        return [self.pool[index % len(self.pool)]]

    def run(self, plans: list[ColdOp]):
        op_start = time.perf_counter()
        for plan in plans:
            start = time.perf_counter()
            result = BQSimSimulator().run(
                plan.circuit, BatchSpec(1, self.BATCH_SIZE), batches=[plan.batch]
            )
            plan.output = result.outputs[0]
            if self._traced:
                self.family_ms[plan.family].append(
                    (time.perf_counter() - start) * 1e3
                )
        return [time.perf_counter() - op_start], 0

    def check(self, plans: list[ColdOp]) -> int:
        wrong = 0
        for plan in plans:
            expected = simulate_batch(plan.circuit, plan.batch)
            output, plan.output = plan.output, None
            wrong += not max_deviation(output, expected) <= TOLERANCE
        return int(wrong > 0)

    def layer_metrics(self, spans, ops: int) -> dict[str, float]:
        metrics = ledger(spans, ops)
        for family, values in self.family_ms.items():
            metrics[f"family.{family}.ms_per_plan"] = (
                float(np.mean(values)) if values else 0.0
            )
        return metrics


class WarmExecute(_InProcess):
    """Plans are compiled in setup; each op is one round of warm runs.

    A round runs every circuit of a fixed set once, in a seeded order, over
    4 batches of 128 pre-made inputs, so fusion and conversion do no work
    and spMM, the task graph and the health guard do all of it.  Two input
    sets per circuit, chosen per round from the seed, keep the outputs from
    being one repeated array.
    """

    name = "warm_execute"
    probe = "numpy"
    inputs_per_op = "4 circuits x 4 batches x 128 inputs = 2048 inputs per round"
    CIRCUITS = (("supremacy", 8), ("vqe", 9), ("qft", 10), ("graphstate", 10))
    NUM_BATCHES = 4
    BATCH_SIZE = 128
    INPUT_SETS = 2

    def setup(self, seed: int) -> None:
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.spec = BatchSpec(self.NUM_BATCHES, self.BATCH_SIZE)
        self.circuits = [make_circuit(f, n, seed=0) for f, n in self.CIRCUITS]
        self.inputs = [
            [
                [random_batch(c.num_qubits, self.BATCH_SIZE, rng)
                 for _ in range(self.NUM_BATCHES)]
                for _ in range(self.INPUT_SETS)
            ]
            for c in self.circuits
        ]
        self.sims = []
        for circuit, sets in zip(self.circuits, self.inputs):
            sim = BQSimSimulator()
            sim.run(circuit, self.spec, batches=sets[0])
            self.sims.append(sim)
        self._expected: dict[tuple[int, int], list[np.ndarray]] = {}
        self._outputs: list = []

    def block(self, index: int):
        rng = np.random.default_rng([self.seed, index])
        order = rng.permutation(len(self.circuits))
        sets = rng.integers(self.INPUT_SETS, size=len(self.circuits))
        return [[(int(c), int(sets[c])) for c in order]]

    def run(self, op):
        outputs = []
        start = time.perf_counter()
        for c, s in op:
            result = self.sims[c].run(
                self.circuits[c], self.spec, batches=self.inputs[c][s]
            )
            outputs.append(result.outputs)
        elapsed = time.perf_counter() - start
        self._outputs = outputs
        return [elapsed], 0

    def check(self, op) -> int:
        """The first output of each (circuit, input set) must match the
        state-vector reference; every later one must equal it bit for bit,
        since a warm run of the same plan on the same inputs is exact."""
        outputs, self._outputs = self._outputs, []
        for (c, s), blocks in zip(op, outputs):
            key = (c, s)
            if len(blocks) != self.NUM_BATCHES:
                return 1
            verified = self._expected.get(key)
            if verified is None:
                reference = [
                    simulate_batch(self.circuits[c], batch)
                    for batch in self.inputs[c][s]
                ]
                if any(
                    not max_deviation(got, want) <= TOLERANCE
                    for got, want in zip(blocks, reference)
                ):
                    return 1
                self._expected[key] = [got.copy() for got in blocks]
            elif not all(
                np.array_equal(got, want) for got, want in zip(blocks, verified)
            ):
                return 1
        return 0

    def layer_metrics(self, spans, ops: int) -> dict[str, float]:
        return ledger(spans, ops)
