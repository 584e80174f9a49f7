"""Tests for the ELL format, DD-to-ELL conversion, and the spMM kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import Circuit, random_batch
from repro.circuit.gates import Gate
from repro.circuit.generators import make_circuit, random_circuit
from repro.dd import (
    DDManager,
    circuit_matrix_dd,
    count_edges,
    count_nodes,
    flatten_matrix_dd,
    gate_matrix_dd,
    matrix_to_dense,
    max_nzr,
)
from repro.ell import (
    DEFAULT_TAU,
    ELLMatrix,
    ell_from_dd,
    ell_from_dense,
    ell_from_flat,
    ell_spmm,
    spmm_bytes,
    spmm_macs,
)
from repro.errors import ConversionError, SimulationError
from repro.fusion import bqcs_fusion
from repro.sim.statevector import simulate_batch

from .ell_oracles import kernel_ell, memoized_ell

#: largest |assembler - Algorithm 1| value difference accepted (a few ULP
#: of a unit-modulus entry; measured <= 6.4e-16 up to n = 6)
KERNEL_ATOL = 1e-15
#: largest |assembler - memoized assembly| difference accepted (measured
#: 0 up to n = 6 and <= 2.6e-16 at n = 12)
MEMOIZED_ATOL = 5e-16


@pytest.fixture
def circuit_dd(mgr4):
    circuit = random_circuit(4, 18, seed=11)
    return circuit_matrix_dd(mgr4, circuit.gates)


def test_ell_from_dense_roundtrip(rng):
    m = rng.standard_normal((8, 8)) * (rng.random((8, 8)) > 0.6)
    m = m.astype(np.complex128)
    if not m.any():
        m[0, 0] = 1.0
    ell = ell_from_dense(m)
    assert np.allclose(ell.to_dense(), m)
    assert ell.width == max((m != 0).sum(axis=1).max(), 1)


def test_ell_validation():
    with pytest.raises(ConversionError, match="square"):
        ell_from_dense(np.zeros((3, 3)))
    with pytest.raises(ConversionError, match="rows"):
        ELLMatrix(2, np.zeros((3, 1), dtype=complex), np.zeros((3, 1), dtype=np.int64))
    with pytest.raises(ConversionError, match="column index"):
        ELLMatrix(
            1,
            np.ones((2, 1), dtype=complex),
            np.array([[0], [5]], dtype=np.int64),
        )


def test_cpu_conversion_matches_dense(circuit_dd, mgr4):
    ell = ell_from_dd(circuit_dd, 4, force="cpu").ell
    assert np.allclose(ell.to_dense(), matrix_to_dense(circuit_dd, 4), atol=1e-10)
    assert ell.width == max_nzr(mgr4, circuit_dd)


def _fused_gates(family, n, seed=0):
    mgr = DDManager(n)
    return bqcs_fusion(mgr, make_circuit(family, n, seed=seed)).gates


@pytest.mark.parametrize("family", ["qnn", "supremacy", "vqe", "qft", "graphstate"])
def test_assembler_matches_kernel_oracle(family):
    """Same columns as Algorithm 1; values within KERNEL_ATOL, since the
    kernel divides its running product on backtrack."""
    for fg in _fused_gates(family, 5):
        flat = flatten_matrix_dd(fg.dd, 5)
        got = ell_from_flat(flat, fg.cost)
        want = kernel_ell(flat, fg.cost)
        assert np.array_equal(got.cols, want.cols)
        assert np.max(np.abs(got.values - want.values)) <= KERNEL_ATOL


@pytest.mark.parametrize(
    "family, n", [("qnn", 5), ("supremacy", 6), ("vqe", 6), ("supremacy", 12)]
)
def test_assembler_matches_memoized_oracle(family, n):
    """Same columns and the same multiplication order as a memoized
    per-node assembly; values agree to MEMOIZED_ATOL (numpy may round an
    array-times-scalar product differently from an elementwise one)."""
    for fg in _fused_gates(family, n)[:6]:
        got = ell_from_dd(fg.dd, n).ell
        want = memoized_ell(fg.dd, n)
        assert got.width == want.width
        assert np.array_equal(got.cols, want.cols)
        assert np.max(np.abs(got.values - want.values)) <= MEMOIZED_ATOL


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 6),
    depth=st.integers(1, 14),
    seed=st.integers(0, 2**16),
)
def test_assembler_matches_dense_on_random_circuits(n, depth, seed):
    edge = circuit_matrix_dd(DDManager(n), random_circuit(n, depth, seed=seed).gates)
    ell = ell_from_flat(flatten_matrix_dd(edge, n))
    assert np.allclose(ell.to_dense(), matrix_to_dense(edge, n), atol=1e-10)
    # rows list their non-zeros by ascending column, padding at column 0
    live = ell.values != 0
    assert not np.any(ell.cols[~live])
    assert all(np.all(np.diff(c[m]) > 0) for c, m in zip(ell.cols, live))


def test_heavy_dd_takes_the_cpu_route_with_padding():
    """A diagonal of 2^11 distinct phases at n=12 has more than tau edges."""
    n = 12
    circuit = Circuit(n)
    rng = np.random.default_rng(5)
    for q in range(1, n):
        circuit.cp(float(rng.uniform(0, 6)), q, 0)
    mgr = DDManager(n)
    edge = circuit_matrix_dd(mgr, circuit.gates)
    result = ell_from_dd(edge, n, max_nzr=3)
    assert result.route == "cpu" and result.num_edges > DEFAULT_TAU
    assert result.num_edges == count_edges(edge)
    assert result.num_nodes == count_nodes(edge)
    ell = result.ell
    assert ell.width == 3
    assert np.array_equal(ell.cols[:, 0], np.arange(1 << n))
    assert not np.any(ell.values[:, 1:]) and not np.any(ell.cols[:, 1:])
    batch = random_batch(n, 3, rng=2)
    assert np.allclose(
        ell_spmm(ell, batch.states), simulate_batch(circuit, batch), atol=1e-10
    )


@pytest.mark.parametrize(
    "gate",
    [
        Gate.make("h", [2]),
        Gate.make("cx", [1, 3]),
        Gate.make("ccx", [0, 1, 2]),
        Gate.make("rz", [1], [0.6]),
        Gate.make("rzz", [0, 3], [1.2]),
        Gate.make("swap", [1, 2]),
        Gate.make("u3", [0], [0.4, 0.5, 0.6]),
    ],
    ids=str,
)
def test_per_gate_conversion_all_routes(gate, mgr4):
    edge = gate_matrix_dd(mgr4, gate)
    dense = matrix_to_dense(edge, 4)
    width = max_nzr(mgr4, edge)
    cpu = ell_from_dd(edge, 4, max_nzr=width, force="cpu").ell
    gpu = ell_from_dd(edge, 4, max_nzr=width, force="gpu").ell
    kernel = kernel_ell(flatten_matrix_dd(edge, 4), width)
    assert np.array_equal(cpu.values, gpu.values)
    assert np.array_equal(cpu.cols, gpu.cols)
    assert np.allclose(cpu.to_dense(), dense, atol=1e-12)
    assert np.allclose(kernel.to_dense(), dense, atol=1e-12)


def test_hybrid_routing(circuit_dd):
    low = ell_from_dd(circuit_dd, 4, tau=10**6)
    assert low.route == "gpu"
    high = ell_from_dd(circuit_dd, 4, tau=1)
    assert high.route == "cpu"
    assert np.allclose(low.ell.to_dense(), high.ell.to_dense(), atol=1e-10)
    forced = ell_from_dd(circuit_dd, 4, force="cpu")
    assert forced.route == "cpu"


def test_hybrid_rejects_bad_route(circuit_dd):
    with pytest.raises(ConversionError, match="route"):
        ell_from_dd(circuit_dd, 4, force="tpu")


def test_padding_to_declared_width(mgr4):
    edge = gate_matrix_dd(mgr4, Gate.make("x", [0]))  # width 1
    result = ell_from_dd(edge, 4, max_nzr=3)
    assert result.ell.width == 3
    assert np.allclose(result.ell.to_dense(), matrix_to_dense(edge, 4))


def test_padding_cannot_shrink(mgr4):
    edge = gate_matrix_dd(mgr4, Gate.make("h", [0]))  # width 2
    with pytest.raises(ConversionError, match="exceeds"):
        ell_from_dd(edge, 4, max_nzr=1)


def test_row_nnz_excludes_padding(mgr4):
    edge = gate_matrix_dd(mgr4, Gate.make("cx", [0, 1]))
    result = ell_from_dd(edge, 4, max_nzr=4)
    assert (result.ell.row_nnz() == 1).all()


def test_spmm_matches_dense(circuit_dd, rng):
    ell = ell_from_dd(circuit_dd, 4).ell
    states = rng.standard_normal((16, 5)) + 1j * rng.standard_normal((16, 5))
    out = ell_spmm(ell, states)
    assert np.allclose(out, matrix_to_dense(circuit_dd, 4) @ states, atol=1e-10)


def test_spmm_with_preallocated_output(circuit_dd, rng):
    ell = ell_from_dd(circuit_dd, 4).ell
    states = rng.standard_normal((16, 3)) + 0j
    out = np.empty_like(states)
    returned = ell_spmm(ell, states, out=out)
    assert returned is out
    assert np.allclose(out, matrix_to_dense(circuit_dd, 4) @ states, atol=1e-10)


def test_spmm_rejects_in_place(circuit_dd, rng):
    ell = ell_from_dd(circuit_dd, 4).ell
    states = rng.standard_normal((16, 2)) + 0j
    with pytest.raises(SimulationError, match="in place"):
        ell_spmm(ell, states, out=states)


def test_spmm_rejects_wrong_dim(circuit_dd):
    ell = ell_from_dd(circuit_dd, 4).ell
    with pytest.raises(SimulationError, match="state dim"):
        ell_spmm(ell, np.zeros((8, 2), dtype=complex))


def test_cost_helpers(circuit_dd):
    ell = ell_from_dd(circuit_dd, 4).ell
    assert spmm_macs(ell, 10) == ell.num_rows * ell.width * 10
    assert spmm_bytes(ell, 10) > ell.nbytes
