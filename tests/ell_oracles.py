"""Reference DD-to-ELL converters the tests hold the assembler to.

* :func:`kernel_ell` runs Algorithm 1 of the paper line for line: one
  "block" per ELL row, an iterative DFS with an explicit edge stack and
  ``left_right`` / ``up_down`` direction arrays over the flat arrays.
* :func:`memoized_ell` is a memoized bottom-up assembly over DD nodes:
  each node's sub-matrix becomes (value, column) arrays, and a parent
  concatenates its children's rows with scaled weights and shifted columns.

Both are exponential or recursive Python and serve only as oracles.
"""

from __future__ import annotations

import numpy as np

from repro.dd.flat import FlatDD
from repro.dd.node import Edge
from repro.ell import ELLMatrix
from repro.errors import ConversionError


def _kernel_block(
    flat: FlatDD, bid: int, max_nzr: int, values: np.ndarray, cols: np.ndarray
) -> None:
    """Algorithm 1 for one block (= one ELL row), line-for-line.

    ``up_down[d]`` holds the row direction for stack depth ``d`` (the paper
    stores it per qubit level; with full chains stack depth == n-1-level).
    """
    n = flat.num_qubits
    edge_stack = [0] * (n + 1)
    left_right = [0] * (n + 1)
    up_down = [(bid >> (n - 1 - d)) & 1 for d in range(n)] + [0]
    stack_ptr = 0
    edge_stack[0] = flat.root()
    val = 1.0 + 0j
    col = 0
    idx = 0
    while stack_ptr >= 0:
        edge_ptr = edge_stack[stack_ptr]
        if edge_ptr == -1:  # constant-zero edge
            stack_ptr -= 1
            continue
        node_ptr = flat.edge_node[edge_ptr]
        if node_ptr == -1:  # constant-one terminal: emit an entry
            if idx >= max_nzr:
                raise ConversionError(
                    f"row {bid} exceeds the declared max NZR {max_nzr}"
                )
            cols[bid, idx] = col
            values[bid, idx] = val * flat.edge_weight[edge_ptr]
            stack_ptr -= 1
            idx += 1
            continue
        if left_right[stack_ptr] == 2:  # both columns explored: backtrack
            left_right[stack_ptr] = 0
            stack_ptr -= 1
            val = val / flat.edge_weight[edge_ptr]
            col = col - (1 << flat.node_level[node_ptr])
        else:
            child_idx = 2 * up_down[stack_ptr] + left_right[stack_ptr]
            left_right[stack_ptr] += 1
            if left_right[stack_ptr] == 1:
                val = val * flat.edge_weight[edge_ptr]
            col = col + (left_right[stack_ptr] - 1) * (
                1 << flat.node_level[node_ptr]
            )
            edge_stack[stack_ptr + 1] = flat.node_edges[node_ptr, child_idx]
            stack_ptr += 1


def kernel_ell(flat: FlatDD, max_nzr: int) -> ELLMatrix:
    """Algorithm 1 over every row of ``flat``, padded to ``max_nzr``."""
    rows = 1 << flat.num_qubits
    values = np.zeros((rows, max_nzr), dtype=np.complex128)
    cols = np.zeros((rows, max_nzr), dtype=np.int64)
    for bid in range(rows):
        _kernel_block(flat, bid, max_nzr, values, cols)
    return ELLMatrix(flat.num_qubits, values, cols)


def _compress(values: np.ndarray, cols: np.ndarray):
    """Push non-zeros left in every row and trim trailing all-zero columns."""
    if values.shape[1] == 0:
        return values, cols
    zero = values == 0
    order = np.argsort(zero, axis=1, kind="stable")
    values = np.take_along_axis(values, order, axis=1)
    cols = np.take_along_axis(cols, order, axis=1)
    width = int((~zero).sum(axis=1).max())
    cols = np.where(values == 0, 0, cols)  # canonical padding: column 0
    return values[:, :width], cols[:, :width]


def memoized_ell(edge: Edge, num_qubits: int) -> ELLMatrix:
    """Memoized bottom-up (value, column) assembly over DD nodes."""
    memo: dict = {}

    def rec(node):
        if node is None:
            return np.ones((1, 1), dtype=np.complex128), np.zeros((1, 1), np.int64)
        hit = memo.get(node.nid)
        if hit is not None:
            return hit
        half = 1 << node.level
        halves = []
        for row_bit in (0, 1):
            parts_v, parts_c = [], []
            for col_bit in (0, 1):
                child = node.children[row_bit * 2 + col_bit]
                if child.weight == 0:
                    continue
                cv, cc = rec(child.node)
                parts_v.append(cv * child.weight)
                parts_c.append(cc + col_bit * half)
            if not parts_v:
                parts_v = [np.zeros((half, 0), dtype=np.complex128)]
                parts_c = [np.zeros((half, 0), dtype=np.int64)]
            halves.append((np.concatenate(parts_v, 1), np.concatenate(parts_c, 1)))
        width = max(halves[0][0].shape[1], halves[1][0].shape[1])
        values = np.zeros((2 * half, width), dtype=np.complex128)
        cols = np.zeros((2 * half, width), dtype=np.int64)
        for i, (hv, hc) in enumerate(halves):
            values[i * half : (i + 1) * half, : hv.shape[1]] = hv
            cols[i * half : (i + 1) * half, : hc.shape[1]] = hc
        hit = _compress(values, cols)
        memo[node.nid] = hit
        return hit

    values, cols = rec(edge.node)
    return ELLMatrix(num_qubits, values * edge.weight, cols)
