"""Tests for DD construction from gates, circuits, and dense arrays."""

import numpy as np
import pytest

from repro.circuit import Circuit, gate_unitary
from repro.circuit.gates import Gate
from repro.circuit.generators import make_circuit
from repro.dd import (
    DDManager,
    basis_vector_dd,
    circuit_matrix_dd,
    count_nodes,
    gate_matrix_dd,
    matrix_to_dense,
    vector_dd_from_dense,
    vector_to_dense,
)
from repro.dd.node import ZERO_EDGE
from repro.errors import DDError

GATES = [
    Gate.make("h", [0]),
    Gate.make("h", [3]),
    Gate.make("x", [2]),
    Gate.make("rz", [1], [0.9]),
    Gate.make("cx", [0, 3]),
    Gate.make("cx", [3, 0]),
    Gate.make("cz", [1, 2]),
    Gate.make("ccx", [0, 1, 2]),
    Gate.make("ccx", [3, 2, 0]),
    Gate.make("swap", [0, 2]),
    Gate.make("rzz", [1, 3], [0.4]),
    Gate.make("cp", [2, 0], [1.3]),
    Gate.make("u3", [1], [0.3, 0.8, -0.2]),
]


@pytest.mark.parametrize("gate", GATES, ids=str)
def test_gate_dd_matches_dense_unitary(gate, mgr4):
    edge = gate_matrix_dd(mgr4, gate)
    assert np.allclose(matrix_to_dense(edge, 4), gate_unitary(gate, 4), atol=1e-12)


def test_gate_dd_rejects_out_of_range(mgr4):
    with pytest.raises(DDError, match="fit"):
        gate_matrix_dd(mgr4, Gate.make("h", [5]))


def test_identity_gate_compresses_to_chain(mgr4):
    edge = gate_matrix_dd(mgr4, Gate.make("id", [0]))
    assert count_nodes(edge) == 4  # one node per level


def test_circuit_dd_equals_matrix_product(small_circuit, mgr4):
    edge = circuit_matrix_dd(mgr4, small_circuit.gates)
    assert np.allclose(
        matrix_to_dense(edge, 4), small_circuit.to_matrix(), atol=1e-9
    )


def test_circuit_dd_respects_order(mgr4):
    c = Circuit(4)
    c.h(0).cx(0, 1)
    edge = circuit_matrix_dd(mgr4, c.gates)
    expected = gate_unitary(c.gates[1], 4) @ gate_unitary(c.gates[0], 4)
    assert np.allclose(matrix_to_dense(edge, 4), expected, atol=1e-12)


def test_vector_roundtrip(rng, mgr4):
    v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    edge = vector_dd_from_dense(mgr4, v)
    assert np.allclose(vector_to_dense(edge, 4), v, atol=1e-12)


def test_vector_wrong_length_rejected(mgr4):
    with pytest.raises(DDError, match="length"):
        vector_dd_from_dense(mgr4, np.ones(8))


def test_basis_vector(mgr4):
    for index in (0, 5, 15):
        v = vector_to_dense(basis_vector_dd(mgr4, index), 4)
        expected = np.zeros(16)
        expected[index] = 1
        assert np.allclose(v, expected)


def test_basis_vector_rejects_out_of_range(mgr4):
    with pytest.raises(DDError, match="out of range"):
        basis_vector_dd(mgr4, 16)


def test_structured_state_compresses(mgr4):
    # uniform superposition: one node per level
    v = np.full(16, 0.25)
    edge = vector_dd_from_dense(mgr4, v)
    assert count_nodes(edge) == 4


def test_gate_dd_node_sharing(mgr4):
    # H on one qubit of four: identity structure above/below the target is
    # shared, so the DD stays linear in n
    edge = gate_matrix_dd(mgr4, Gate.make("h", [2]))
    assert count_nodes(edge) <= 8


def _gate_dd_full_recursion(mgr, gate):
    """Reference gate DD: recurse through every level down to the terminals."""
    base = gate.matrix()
    target_pos = {q: i for i, q in enumerate(gate.qubits)}
    controls = frozenset(gate.controls)

    def rec(level, grow, gcol, ctrl_ok):
        if level < 0:
            if ctrl_ok:
                return mgr.terminal(base[grow, gcol])
            return mgr.terminal(1.0 if grow == gcol else 0.0)
        children = []
        for r in (0, 1):
            for c in (0, 1):
                if level in target_pos:
                    i = target_pos[level]
                    children.append(
                        rec(level - 1, grow | (r << i), gcol | (c << i), ctrl_ok)
                    )
                elif level in controls:
                    if r != c:
                        children.append(ZERO_EDGE)
                    else:
                        children.append(rec(level - 1, grow, gcol, ctrl_ok and r == 1))
                else:
                    children.append(
                        rec(level - 1, grow, gcol, ctrl_ok) if r == c else ZERO_EDGE
                    )
        return mgr.make_mnode(level, children)

    return rec(mgr.num_qubits - 1, 0, 0, True)


def test_gate_dd_identity_shortcut_matches_full_recursion():
    """Stopping at the cached identity below a gate's lowest qubit returns
    the very node and weight the level-by-level recursion builds."""
    n = 6
    mgr = DDManager(n)
    gates = [
        gate
        for family in ("qnn", "supremacy", "vqe", "qft", "graphstate")
        for gate in make_circuit(family, n, seed=3).gates
    ]
    # rz(0) has an entry with a negative-zero imaginary part, which the
    # shortcut must carry through unchanged
    gates += GATES + [
        Gate.make("ccx", [5, 4, 1]),
        Gate.make("cx", [2, 0]),
        Gate.make("rz", [3], [0.0]),
    ]
    for gate in gates:
        got = gate_matrix_dd(mgr, gate)
        want = _gate_dd_full_recursion(mgr, gate)
        assert got.node is want.node, gate
        assert repr(got.weight) == repr(want.weight), gate
