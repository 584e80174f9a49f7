"""Constructing DDs for gates, circuits, and state vectors.

Gate-matrix DDs are built structurally (never via dense ``2^n`` matrices):
a memoized recursion walks qubit levels from the most significant down,
choosing a (row bit, col bit) pair per level.  Control qubits contribute
Kronecker-delta structure; once a control bit is 0 the remaining targets
collapse to identity — exactly the semantics of Equation 3 in the paper.
Below the gate's lowest qubit the recursion stops at the manager's cached
identity chain, the node it would otherwise rebuild level by level.  Each
distinct gate is built once per manager (:func:`gate_key`).
"""

from __future__ import annotations

import math

import numpy as np

from ..circuit.gates import Gate
from ..errors import DDError
from .manager import DDManager
from .node import Edge, ZERO_EDGE


def gate_key(gate: Gate) -> tuple | None:
    """Memo key of a gate's DD: name, qubits, controls and the parameters'
    exact bits (``float.hex`` keeps ``-0.0`` apart from ``0.0``, which a
    float key would merge).  None when a parameter is not a finite float:
    such a gate is built afresh each time, as a NaN weight never hash-conses
    onto an earlier node."""
    try:
        bits = tuple(float.hex(p) for p in gate.params)
    except TypeError:
        return None
    if not all(map(math.isfinite, gate.params)):
        return None
    return (gate.name, gate.qubits, gate.controls, bits)


def gate_matrix_dd(mgr: DDManager, gate: Gate) -> Edge:
    """Matrix DD of ``gate`` embedded in ``mgr.num_qubits`` qubits.

    Memoized per manager by :func:`gate_key`.  A rebuild would hash-cons to
    the very same nodes (its weights are bit-identical and unique tables
    never evict), so the memo returns exactly what the walk would.
    """
    key = gate_key(gate)
    hit = mgr._cache_gate.get(key) if key is not None else None
    if hit is None:
        hit = _build_gate_dd(mgr, gate)
        if key is not None:
            mgr._cache_gate[key] = hit
    return hit


def _build_gate_dd(mgr: DDManager, gate: Gate) -> Edge:
    n = mgr.num_qubits
    if max(gate.all_qubits) >= n:
        raise DDError(f"gate {gate} does not fit in {n} qubits")
    base = gate.matrix().tolist()  # Python complex entries, the same bits
    target_pos = {q: i for i, q in enumerate(gate.qubits)}
    controls = frozenset(gate.controls)
    lowest = min(gate.all_qubits)
    memo: dict[tuple[int, int, int, bool], Edge] = {}

    def rec(level: int, grow: int, gcol: int, ctrl_ok: bool) -> Edge:
        if level < lowest:
            # no target or control from here down: the sub-matrix is the
            # identity times the selected entry, i.e. the manager's cached
            # identity chain carrying that entry as its weight (set, not
            # multiplied in, so a negative zero survives as the full
            # recursion leaves it)
            entry = mgr.terminal(
                base[grow][gcol] if ctrl_ok else float(grow == gcol)
            )
            if entry.weight == 0:
                return entry
            return Edge(mgr.identity(level).node, entry.weight)
        key = (level, grow, gcol, ctrl_ok)
        hit = memo.get(key)
        if hit is not None:
            return hit
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
        result = mgr.make_mnode(level, children)
        memo[key] = result
        return result

    return rec(n - 1, 0, 0, True)


def circuit_matrix_dd(mgr: DDManager, gates) -> Edge:
    """DD of the product ``M_{L-1} ... M_0`` over an iterable of gates."""
    result = mgr.identity()
    for gate in gates:
        result = mgr.mm_multiply(gate_matrix_dd(mgr, gate), result)
    return result


def vector_dd_from_dense(mgr: DDManager, state: np.ndarray) -> Edge:
    """Vector DD of a dense state (length ``2^n``)."""
    n = mgr.num_qubits
    state = np.asarray(state, dtype=np.complex128).reshape(-1)
    if state.shape[0] != (1 << n):
        raise DDError(f"state length {state.shape[0]} != 2^{n}")

    def rec(level: int, offset: int) -> Edge:
        if level < 0:
            return mgr.terminal(state[offset])
        half = 1 << level
        return mgr.make_vnode(
            level, (rec(level - 1, offset), rec(level - 1, offset + half))
        )

    return rec(n - 1, 0)


def basis_vector_dd(mgr: DDManager, index: int) -> Edge:
    """Vector DD of the computational-basis state ``|index>``."""
    n = mgr.num_qubits
    if not 0 <= index < (1 << n):
        raise DDError(f"basis index {index} out of range")
    edge = mgr.terminal(1.0)
    for level in range(n):
        if (index >> level) & 1:
            edge = mgr.make_vnode(level, (ZERO_EDGE, edge))
        else:
            edge = mgr.make_vnode(level, (edge, ZERO_EDGE))
    return edge


def matrix_dd_from_dense(mgr: DDManager, matrix: np.ndarray) -> Edge:
    """Matrix DD of a dense ``2^n x 2^n`` array (tests / small inputs)."""
    n = mgr.num_qubits
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.shape != (1 << n, 1 << n):
        raise DDError(f"matrix shape {matrix.shape} != (2^{n}, 2^{n})")

    def rec(level: int, row: int, col: int) -> Edge:
        if level < 0:
            return mgr.terminal(matrix[row, col])
        half = 1 << level
        children = [
            rec(level - 1, row + r * half, col + c * half)
            for r in (0, 1)
            for c in (0, 1)
        ]
        return mgr.make_mnode(level, children)

    return rec(n - 1, 0, 0)
