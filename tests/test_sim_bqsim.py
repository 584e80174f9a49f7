"""Tests for the BQSim pipeline simulator."""

import numpy as np
import pytest

from repro.circuit import generate_batches
from repro.circuit.generators import make_circuit, random_circuit
from repro.sim import BQSimSimulator, BatchSpec, buffer_indices
from repro.sim.statevector import simulate_batch
from repro.errors import SimulationError
from repro.obs import tracing


@pytest.fixture
def spec():
    return BatchSpec(num_batches=5, batch_size=8, seed=2)


def test_outputs_match_reference(spec, random_circuits):
    sim = BQSimSimulator()
    for circuit in random_circuits:
        batches = list(generate_batches(4, spec.num_batches, spec.batch_size, spec.seed))
        result = sim.run(circuit, spec, batches=batches)
        for out, batch in zip(result.outputs, batches):
            assert np.allclose(out, simulate_batch(circuit, batch), atol=1e-8)


def test_buffer_indices_formula():
    """The Figure 8 walkthrough: 2 kernels per batch (L=2)."""
    # batch 0: k0 reads D[0] writes D[1]; k1 reads D[1] writes D[0]
    assert buffer_indices(0, 0, 2) == (0, 1)
    assert buffer_indices(0, 1, 2) == (1, 0)
    # batch 1 uses the odd buffers: k0 reads D[2] writes D[3]
    assert buffer_indices(1, 0, 2) == (2, 3)
    assert buffer_indices(1, 1, 2) == (3, 2)
    # batch 2 goes back to even buffers, starting from D[1]
    assert buffer_indices(2, 0, 2) == (1, 0)


def test_buffer_indices_never_alias():
    for kernels in (1, 2, 3, 7):
        for batch in range(8):
            for k in range(kernels):
                src, dst = buffer_indices(batch, k, kernels)
                assert src != dst
                # even batches use D[0]/D[1]; odd batches D[2]/D[3]
                expected = {0, 1} if batch % 2 == 0 else {2, 3}
                assert {src, dst} == expected


def test_kernel_chain_is_connected():
    """Kernel k+1 must read the buffer kernel k wrote."""
    for kernels in (1, 2, 5):
        for batch in range(6):
            for k in range(kernels - 1):
                _, dst = buffer_indices(batch, k, kernels)
                src, _ = buffer_indices(batch, k + 1, kernels)
                assert dst == src


def test_breakdown_amortizes_with_batches(spec):
    circuit = make_circuit("vqe", 8)
    sim = BQSimSimulator()
    few = sim.run(circuit, BatchSpec(2, 8), execute=False)
    many = sim.run(circuit, BatchSpec(100, 8), execute=False)

    def overhead_fraction(result):
        one_time = result.breakdown["fusion"] + result.breakdown["conversion"]
        return one_time / result.modeled_time

    assert overhead_fraction(many) < overhead_fraction(few)
    # one-time stages are identical across runs (plan cache + determinism)
    assert few.breakdown["fusion"] == many.breakdown["fusion"]


def test_execute_false_skips_numerics(spec):
    circuit = make_circuit("vqe", 8)
    result = BQSimSimulator().run(circuit, spec, execute=False)
    assert result.outputs is None
    with pytest.raises(SimulationError, match="execute=True"):
        result.output_batch(0)
    assert result.modeled_time > 0


def test_model_time_identical_with_and_without_numerics(spec):
    circuit = make_circuit("vqe", 8)
    sim = BQSimSimulator()
    modeled = sim.run(circuit, spec, execute=False).modeled_time
    executed = sim.run(circuit, spec, execute=True).modeled_time
    assert modeled == pytest.approx(executed, rel=1e-9)


def test_ablations_run_slower_on_model(spec):
    circuit = make_circuit("vqe", 10)
    base = BQSimSimulator().run(circuit, spec, execute=False)
    sim_time = base.breakdown["simulation"]
    for kwargs in ({"fusion": False}, {"use_ell": False}, {"task_graph": False}):
        ablated = BQSimSimulator(**kwargs).run(circuit, spec, execute=False)
        assert ablated.breakdown["simulation"] > sim_time, kwargs


def test_ablations_preserve_numerics(spec, random_circuits):
    circuit = random_circuits[0]
    batches = list(generate_batches(4, spec.num_batches, spec.batch_size, spec.seed))
    reference = [simulate_batch(circuit, b) for b in batches]
    for kwargs in ({"fusion": False}, {"use_ell": False}, {"task_graph": False}):
        result = BQSimSimulator(**kwargs).run(circuit, spec, batches=batches)
        for out, ref in zip(result.outputs, reference):
            assert np.allclose(out, ref, atol=1e-8), kwargs


def test_task_graph_overlaps_copies(spec):
    circuit = make_circuit("vqe", 10)
    overlapped = BQSimSimulator().run(circuit, spec, execute=False)
    serialized = BQSimSimulator(task_graph=False).run(circuit, spec, execute=False)
    assert overlapped.stats["overlap_fraction"] > 0.1
    assert serialized.stats["overlap_fraction"] == 0.0


def test_batch_count_scales_simulation_linearly():
    """Marginal cost per batch is constant (after the fixed graph launch)."""
    circuit = make_circuit("vqe", 8)
    sim = BQSimSimulator()

    def sim_time(batches):
        return sim.run(circuit, BatchSpec(batches, 16), execute=False).breakdown[
            "simulation"
        ]

    t10, t40, t70 = sim_time(10), sim_time(40), sim_time(70)
    assert (t70 - t40) == pytest.approx(t40 - t10, rel=0.05)


def test_rejects_mismatched_batches(spec, random_circuits):
    circuit = random_circuits[0]
    wrong = list(generate_batches(4, 2, spec.batch_size, 0))
    with pytest.raises(SimulationError, match="expected"):
        BQSimSimulator().run(circuit, spec, batches=wrong)


def test_power_report_present(spec):
    circuit = make_circuit("vqe", 8)
    result = BQSimSimulator().run(circuit, spec, execute=False)
    assert result.power.gpu_watts > 0
    assert result.power.cpu_watts > 0


def test_plan_cache_reuses_fusion(spec):
    circuit = make_circuit("vqe", 8)
    sim = BQSimSimulator()
    sim.run(circuit, spec, execute=False)
    first = sim._plans._entries.copy()
    sim.run(circuit, spec, execute=False)
    assert sim._plans._entries.keys() == first.keys()


def test_device_memory_guard():
    """Four rotating buffers must fit on the device, even in model mode."""
    from repro.gpu import GpuSpec

    circuit = make_circuit("vqe", 12)
    tiny = BQSimSimulator(gpu=GpuSpec(memory_bytes=1024 * 1024))
    with pytest.raises(SimulationError, match="exceed device memory"):
        tiny.run(circuit, BatchSpec(2, 256), execute=False)


def test_snapshots_capture_every_fused_gate():
    from repro.circuit.generators import make_circuit as mk

    circuit = mk("routing", 6)
    spec = BatchSpec(2, 8, seed=1)
    result = BQSimSimulator(snapshots=True).run(circuit, spec)
    snaps = result.stats["snapshots"]
    assert len(snaps) == 2
    assert len(snaps[0]) == result.stats["fused_gates"]
    assert np.allclose(snaps[0][-1], result.outputs[0])
    # snapshots cost device time (extra D2H per kernel)
    plain = BQSimSimulator().run(circuit, spec)
    assert result.modeled_time > plain.modeled_time


def test_fresh_build_books_conversion_under_convert():
    """On a fresh execute build the conversion runs inside the compile lock
    of the fusion stage, yet its wall time is booked under ``convert``."""
    with tracing() as tracer:
        result = BQSimSimulator().run(
            make_circuit("supremacy", 8), BatchSpec(1, 4), execute=True
        )
    assert result.stats["plan_source"] == "built"
    spans = tracer.spans()
    converted = sum(s.duration for s in spans if s.name == "convert.dd_to_ell")
    (fusion,) = [s for s in spans if s.name == "fusion"]
    wall = result.stats["wall_breakdown"]
    assert 0.005 < converted <= wall["convert"]
    assert wall["fusion"] <= fusion.duration - converted + 1e-3


@pytest.mark.parametrize("family,n", [("qnn", 5), ("supremacy", 6), ("qft", 6)])
def test_execute_build_walks_each_fused_dd_once(family, n, monkeypatch):
    """An execute build takes each fused gate's node and edge counts from
    the flat DD its conversion builds: one flatten per gate, no separate
    count walk, and the same routes, widths and modeled times as a
    model-only build, which counts on the DD."""
    import repro.ell.convert as convert
    import repro.sim.bqsim as bqsim

    circuit = make_circuit(family, n, seed=0)
    spec = BatchSpec(1, 4)
    model_only = BQSimSimulator().run(circuit, spec, execute=False)

    flattened = []
    real_flatten = convert.flatten_matrix_dd

    def counting_flatten(edge, num_qubits):
        flattened.append(edge)
        return real_flatten(edge, num_qubits)

    def no_walk(edge):
        raise AssertionError("an execute build walked a fused DD twice")

    monkeypatch.setattr(convert, "flatten_matrix_dd", counting_flatten)
    monkeypatch.setattr(bqsim, "count_edges", no_walk)
    monkeypatch.setattr(bqsim, "count_nodes", no_walk)
    executed = BQSimSimulator().run(circuit, spec)

    assert len(flattened) == executed.stats["fused_gates"]
    for key in ("conversion_routes", "fused_gates", "total_cost", "macs"):
        assert executed.stats[key] == model_only.stats[key]
    assert executed.breakdown == model_only.breakdown
