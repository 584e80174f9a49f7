"""Which public functions the benchmark wraps, and the per-layer ledger.

Every name is patched where its caller looks it up (the module that
imported it, or the class that owns the method), so the program runs the
same code with a span around each call.  The ledger turns the recorded
spans into the per-layer metrics in ``BENCHMARK.json``; a layer that a
workload never reaches reads 0 there.
"""

from __future__ import annotations

from .spans import Patches, percentile, summarize

FAMILIES = ("qnn", "supremacy", "vqe", "qft", "graphstate")

#: every per-layer metric, in the order BENCHMARK.json lists them
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("dd.build_ms_per_plan", "ms"),
    ("fusion.self_ms_per_plan", "ms"),
    ("nzrv.ms_per_plan", "ms"),
    ("nzrv.calls_per_plan", "count"),
    ("flatten.ms_per_plan", "ms"),
    ("convert.self_ms_per_plan", "ms"),
    ("convert.gpu_route_share", "ratio"),
    ("bqsim.self_ms_per_plan", "ms"),
    *((f"family.{family}.ms_per_plan", "ms") for family in FAMILIES),
    ("spmm.ms_per_op", "ms"),
    ("spmm.macs_per_input", "count"),
    ("gpu.taskgraph_self_ms_per_op", "ms"),
    ("health.ms_per_op", "ms"),
    ("bqsim.self_ms_per_op", "ms"),
    ("model.modeled_ms_per_op", "ms"),
    ("model.wall_over_modeled", "ratio"),
    ("qasm.parse_ms_per_job", "ms"),
    ("codec.server_ms_per_job", "ms"),
    ("codec.client_ms_per_job", "ms"),
    ("router.submit_ms_per_job", "ms"),
    ("service.dispatch_self_ms_per_job", "ms"),
    ("service.scatter_ms_per_job", "ms"),
    ("sim.run_ms_per_megabatch", "ms"),
    ("service.coalesce_factor_mean", "count"),
    ("service.queue_wait_p50_ms", "ms"),
    ("approx.attainment_rate", "ratio"),
    ("service.rss_growth_kib_per_job", "KiB"),
    ("host.calib_ms", "ms"),
    ("trace.overhead_pct", "%"),
)


def _note_route(attrs, args, kwargs, result) -> None:
    attrs["gpu"] = result.route == "gpu"


def _note_run(attrs, args, kwargs, result) -> None:
    attrs["modeled_sim_s"] = result.breakdown["simulation"]
    attrs["inputs"] = result.spec.num_inputs


def _note_macs(attrs, args, kwargs, result) -> None:
    ell, states = args[0], args[1]
    attrs["macs"] = ell.num_rows * ell.width * states.shape[1]


def _note_group(attrs, args, kwargs, result) -> None:
    group = args[1]
    attrs["factor"] = group.coalesce_factor
    attrs["waits"] = [job.started_at - job.submitted_at for job in group.jobs]


def add_simulator_layers(patches: Patches) -> Patches:
    """Fusion, conversion and execution layers of ``BQSimSimulator.run``."""
    import repro.ell.convert as convert
    import repro.ell.spmm as spmm
    import repro.fusion.bqcs as bqcs
    import repro.sim.bqsim as bqsim
    from repro.gpu.device import VirtualGPU

    patches.add(bqcs, "gate_matrix_dd", "dd.build")
    patches.add(bqcs, "bqcs_cost", "nzrv")
    patches.add(bqsim, "bqcs_fusion", "fusion")
    patches.add(convert, "flatten_matrix_dd", "flatten")
    patches.add(bqsim, "ell_from_dd", "convert", _note_route)
    patches.add(bqsim.BQSimSimulator, "run", "bqsim", _note_run)
    # BackendLadder.apply imports ell_spmm from its module at call time
    patches.add(spmm, "ell_spmm", "spmm", _note_macs)
    patches.add(bqsim, "ell_spmm", "spmm", _note_macs)
    patches.add(VirtualGPU, "run", "gpu.taskgraph")
    patches.add(bqsim, "check_state_block", "health")
    return patches


def add_service_layers(patches: Patches) -> Patches:
    """The gateway's request path and the service's dispatch loop, as
    ``perfbench/service.py`` drives them, plus the simulator below."""
    import repro.gateway.client as client
    import repro.gateway.protocol as protocol
    from repro.gateway.router import ShardRouter
    from repro.service.coalesce import Coalescer
    from repro.service.workers import BatchSimulationService, Worker

    patches.add(protocol, "circuit_from_wire", "qasm.parse")
    patches.add(protocol, "inputs_from_wire", "codec.server")
    patches.add(protocol, "encode_array", "codec.server")
    patches.add(client, "encode_array", "codec.client")
    patches.add(client, "decode_array", "codec.client")
    patches.add(ShardRouter, "submit", "router.submit")
    patches.add(BatchSimulationService, "step", "service.step")
    patches.add(Worker, "run_group", "sim.run", _note_group)
    patches.add(Coalescer, "scatter", "service.scatter")
    return add_simulator_layers(patches)


def _per(value: float, count: int) -> float:
    return value / count if count else 0.0


def ledger(spans, ops: int) -> dict[str, float]:
    """Per-layer metrics from the spans of ``ops`` traced ops.

    ``_per_plan`` metrics divide by the plans built (fusion calls),
    ``_per_op`` and ``_per_job`` metrics by the traced ops (a job is the op
    of the service workload).
    """
    table = summarize(spans)

    def total(name):
        return table.get(name, {}).get("total", 0.0)

    def self_(name):
        return table.get(name, {}).get("self", 0.0)

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def attr_values(name, key):
        return [s.attrs[key] for s in spans if s.name == name and key in s.attrs]

    plans = calls("fusion")
    ms = 1e3
    modeled = sum(attr_values("bqsim", "modeled_sim_s"))
    inputs = sum(attr_values("bqsim", "inputs"))
    routes = attr_values("convert", "gpu")
    factors = attr_values("sim.run", "factor")
    waits = [w for ws in attr_values("sim.run", "waits") for w in ws]
    return {
        "dd.build_ms_per_plan": _per(total("dd.build") * ms, plans),
        "fusion.self_ms_per_plan": _per(self_("fusion") * ms, plans),
        "nzrv.ms_per_plan": _per(total("nzrv") * ms, plans),
        "nzrv.calls_per_plan": _per(calls("nzrv"), plans),
        "flatten.ms_per_plan": _per(total("flatten") * ms, plans),
        "convert.self_ms_per_plan": _per(self_("convert") * ms, plans),
        "convert.gpu_route_share": _per(sum(routes), len(routes)),
        "bqsim.self_ms_per_plan": _per(self_("bqsim") * ms, plans),
        "spmm.ms_per_op": _per(total("spmm") * ms, ops),
        "spmm.macs_per_input": _per(sum(attr_values("spmm", "macs")), inputs),
        "gpu.taskgraph_self_ms_per_op": _per(self_("gpu.taskgraph") * ms, ops),
        "health.ms_per_op": _per(total("health") * ms, ops),
        "bqsim.self_ms_per_op": _per(self_("bqsim") * ms, ops),
        "model.modeled_ms_per_op": _per(modeled * ms, ops),
        "model.wall_over_modeled": _per(total("bqsim"), modeled),
        "qasm.parse_ms_per_job": _per(total("qasm.parse") * ms, ops),
        "codec.server_ms_per_job": _per(total("codec.server") * ms, ops),
        "codec.client_ms_per_job": _per(total("codec.client") * ms, ops),
        "router.submit_ms_per_job": _per(total("router.submit") * ms, ops),
        "service.dispatch_self_ms_per_job": _per(self_("service.step") * ms, ops),
        "service.scatter_ms_per_job": _per(total("service.scatter") * ms, ops),
        "sim.run_ms_per_megabatch": _per(total("sim.run") * ms, calls("sim.run")),
        "service.coalesce_factor_mean": _per(sum(factors), len(factors)),
        "service.queue_wait_p50_ms": (
            percentile(waits, 50)[0] * ms if waits else 0.0
        ),
    }
