"""DD-to-ELL conversion (Section 3.2 of the paper).

The paper converts on the GPU with Algorithm 1 (one thread block per ELL
row walking the flat DD of Figure 6 depth-first) and falls back to a CPU
converter when the DD has more than ``tau`` edges, where heavy branching
makes the per-row walks diverge.  :func:`ell_from_dd` keeps that *hybrid
route decision*: it reports the route in :class:`ConversionResult`, and the
virtual GPU charges the modeled GPU or CPU conversion time by route.

The host builds every matrix with one assembler, :func:`ell_from_flat`,
whatever the route.  It expands all non-zero paths of the flat DD top-down,
one level at a time, with array gathers, then multiplies each path's edge
weights bottom-up, ``((1*w_leaf)*w_1)*...*w_root``, the order of a memoized
per-node assembly.

Numeric contract: every row lists its non-zeros by ascending column, then
pads with value 0 at column 0, so the columns equal Algorithm 1's exactly.
The values are the bottom-up products above.  Algorithm 1 keeps a running
product instead (it multiplies on descent and divides on backtrack), so its
values differ from these by rounding only: within 1e-15 absolute for
unitary gates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dd.flat import FlatDD, flatten_matrix_dd
from ..dd.node import Edge
from ..errors import ConversionError
from ..obs import get_metrics, get_tracer
from .format import ELLMatrix

#: default edge-count threshold tau for the hybrid policy.  The paper uses
#: 2000 on its machine and notes the best tau is hardware dependent; 4500 is
#: the break-even edge count of this repo's calibrated conversion cost model
#: (GPU divergence factor ``1 + edges/500`` crossing the CPU's 10x higher
#: per-entry cost).
DEFAULT_TAU = 4500


def ell_from_flat(flat: FlatDD, max_nzr: int | None = None) -> ELLMatrix:
    """Assemble the ELL matrix of a flat DD, one path per non-zero entry.

    ``max_nzr`` pads the width to the declared maximum non-zeros per row;
    without it the width is the largest row's non-zero count.
    """
    n = flat.num_qubits
    # top-down: per level, the edges the live paths entered by and each
    # path's parent index one level up; slots are row_bit * 2 + col_bit
    trail: list[tuple[np.ndarray, np.ndarray | None]] = []
    edges = np.zeros(1, dtype=np.int64)  # the root edge
    parent = None
    rows = cols = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        trail.append((edges, parent))
        children = flat.node_edges[flat.edge_node[edges]]
        parent, slot = np.nonzero(children >= 0)
        edges = children[parent, slot]
        rows = (rows[parent] << 1) | (slot >> 1)
        cols = (cols[parent] << 1) | (slot & 1)
    # bottom-up: the leaf edge's weight times each ancestor's, root last
    values = flat.edge_weight[edges]
    for level_edges, level_parent in reversed(trail):
        values = values * flat.edge_weight[level_edges[parent]]
        if level_parent is not None:
            parent = level_parent[parent]

    keep = values != 0
    if not keep.all():
        values, rows, cols = values[keep], rows[keep], cols[keep]
    # paths run in (row_bit, col_bit) order from the top level down, so a
    # stable sort by row leaves each row's columns ascending
    order = np.argsort(rows, kind="stable")
    values, rows, cols = values[order], rows[order], cols[order]
    counts = np.bincount(rows, minlength=1 << n)
    width = int(counts.max())
    if width == 0:
        raise ConversionError("DD represented the zero matrix")
    if max_nzr is not None:
        if width > max_nzr:
            raise ConversionError(
                f"ELL width {width} exceeds declared max NZR {max_nzr}"
            )
        width = max_nzr
    place = np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
    ell_values = np.zeros((1 << n, width), dtype=np.complex128)
    ell_cols = np.zeros((1 << n, width), dtype=np.int64)
    ell_values[rows, place] = values
    ell_cols[rows, place] = cols
    return ELLMatrix(n, ell_values, ell_cols)


@dataclass(frozen=True)
class ConversionResult:
    """ELL matrix plus the route the hybrid policy took."""

    ell: ELLMatrix
    route: str  # "cpu" or "gpu"
    num_edges: int
    tau: int
    num_nodes: int  # nodes of the flat DD the matrix was built from


def ell_from_dd(
    edge: Edge,
    num_qubits: int,
    max_nzr: int | None = None,
    tau: int = DEFAULT_TAU,
    force: str | None = None,
) -> ConversionResult:
    """Hybrid DD-to-ELL conversion (Section 3.2): the GPU route when the DD
    has at most ``tau`` edges, the CPU route otherwise.  ``force`` pins the
    route.  Both routes produce the same matrix; they differ in the modeled
    conversion time the virtual GPU charges."""
    if edge.weight == 0:
        raise ConversionError("cannot convert the zero matrix to ELL")
    if force not in (None, "cpu", "gpu"):
        raise ConversionError(f"unknown conversion route {force!r}")
    with get_tracer().span(
        "convert.dd_to_ell", tau=tau, forced=force is not None
    ) as span:
        flat = flatten_matrix_dd(edge, num_qubits)
        edges = flat.num_edges
        route = force or ("cpu" if edges > tau else "gpu")
        ell = ell_from_flat(flat, max_nzr)
        span.set(dd_edges=edges, route=route, ell_width=ell.width)
    _record_conversion(ell, edges, route)
    return ConversionResult(
        ell=ell, route=route, num_edges=edges, tau=tau, num_nodes=flat.num_nodes
    )


def _record_conversion(ell: ELLMatrix, edges: int, route: str) -> None:
    """Feed the hybrid converter's decision and output shape into the
    metrics registry (the paper's Fig. 9 / Table 1 signals)."""
    metrics = get_metrics()
    metrics.inc(f"convert.route.{route}")
    metrics.observe("convert.dd_edges", edges)
    metrics.observe("ell.width", ell.width)
    nnz = int(np.count_nonzero(ell.values))
    metrics.observe("ell.nnz", nnz)
    slots = ell.num_rows * max(ell.width, 1)
    metrics.observe("ell.padding_ratio", 1.0 - nnz / slots)
