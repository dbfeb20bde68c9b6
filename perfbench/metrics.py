"""The metric catalogue and how each metric is computed from a run.

``END_TO_END`` and ``PER_LAYER`` are the single source of the names, units
and directions; ``BENCHMARK.json`` lists the same (a test keeps them in
step). Every metric is printed on every workload; a layer that does no work
on a workload reads 0 there.
"""

from __future__ import annotations

from bmath import Ratio, median, slo_attainment, tail
from common import peak_rss_mb
from loops import Measurement
from tracer import LAYERS

#: (name, unit, better, bound). The timings are in reference seconds
#: (``hostspeed.py``), which cancels the host's speed drift; they are
#: bounded at a quarter, the contract's largest bound.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("request_p50_s", "s", "lower", 0.25),
    ("request_tail_s", "s", "lower", 0.25),
    ("requests_per_s", "1/s", "higher", 0.25),
    ("ok_ratio", "ratio", "higher", 0.02),
    ("slo_attainment", "ratio", "higher", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

#: self-time share of each layer in the traced request wall time
SELF_SHARES = tuple(f"{layer}.self_share" for layer in LAYERS if layer != "idle")

#: (name, unit, better)
PER_LAYER = (
    ("ordering.seconds", "s", "lower"),
    ("ordering.share", "ratio", "lower"),
    ("symbolic.seconds", "s", "lower"),
    ("symbolic.nnz_factor", "count", "lower"),
    ("symbolic.factor_flops", "flop", "lower"),
    ("symbolic.supernodes", "count", "lower"),
    ("symbolic.small_front_share", "ratio", "lower"),
    ("sparse.update_values_seconds", "s", "lower"),
    ("mf.factor_seconds", "s", "lower"),
    ("mf.factor_gflops", "GF/s", "higher"),
    ("mf.assembly_seconds", "s", "lower"),
    ("mf.lu_factor_seconds", "s", "lower"),
    ("mf.solve_seconds", "s", "lower"),
    ("mf.solve_rhs_per_s", "1/s", "higher"),
    ("mf.refine_seconds", "s", "lower"),
    ("mf.refine_iterations", "count", "lower"),
    ("mf.backward_error_max", "ratio", "lower"),
    ("dense.kernel_seconds", "s", "lower"),
    ("dense.share", "ratio", "higher"),
    ("dense.gflops", "GF/s", "higher"),
    ("dense.bytes_computed", "B", "lower"),
    ("exec.factor_seconds", "s", "lower"),
    ("exec.busy_share", "ratio", "higher"),
    ("exec.tasks", "count", "lower"),
    ("exec.queue_depth_peak", "count", "higher"),
    ("exec.speedup_vs_seq", "ratio", "higher"),
    ("service.submit_seconds", "s", "lower"),
    ("service.queue_wait_p50_s", "s", "lower"),
    ("service.queue_wait_tail_s", "s", "lower"),
    ("service.batches", "count", "lower"),
    ("service.batch_rhs_mean", "count", "higher"),
    ("service.cache_hit_ratio", "ratio", "higher"),
    ("service.prepare_seconds", "s", "lower"),
    ("service.factor_seconds", "s", "lower"),
    ("service.solve_seconds", "s", "lower"),
    ("service.dispatch_overhead_share", "ratio", "lower"),
    ("service.precision_fallbacks", "ratio", "lower"),
    ("service.retries", "ratio", "lower"),
    ("service.rejected", "ratio", "lower"),
    ("parallel.plan_seconds", "s", "lower"),
    ("parallel.factor_sim_seconds", "s", "lower"),
    ("parallel.solve_sim_seconds", "s", "lower"),
    *(
        (f"simmpi.{what}.p{p}", unit, "lower")
        for what, unit in (("messages", "count"), ("bytes", "B"))
        for p in (16, 64, 256)
    ),
    *(
        (f"simmpi.modeled_factor_s.{tag}.p{p}", "s", "lower")
        for tag in ("bgp", "p5")
        for p in (16, 64, 256)
    ),
    ("simmpi.messages_per_s", "1/s", "higher"),
    *((name, "ratio", "lower") for name in SELF_SHARES),
    ("bench.idle_share", "ratio", "lower"),
    ("bench.unattributed_share", "ratio", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
    ("bench.generator_lag_max_s", "s", "lower"),
    ("bench.traced_requests", "count", "higher"),
)


def end_to_end(
    m: Measurement, setup_times: list[float], raw_setup: list[float], setup_host
) -> tuple[dict, dict]:
    """The end-to-end metrics and notes on how the tail was taken and on
    the host speed the timings were divided by. Timings are in reference
    seconds (``hostspeed.py``); the notes keep their wall-clock values."""
    t = tail(m.latencies if m.tail_samples is None else m.tail_samples)
    values = {
        "setup_s": median(setup_times),
        "request_p50_s": median(m.latencies),
        "request_tail_s": t.value,
        "requests_per_s": len(m.latencies) / m.busy,
        "ok_ratio": (m.sent - m.failed - m.wrong) / m.sent,
        "slo_attainment": slo_attainment(m.latencies, m.sent, m.slo_s),
        "peak_rss_mb": peak_rss_mb(),
    }
    note = {
        "tail_percentile": t.percentile,
        "tail_samples": t.samples,
        "tail_beyond": t.beyond,
        "tail_unit": m.tail_unit,
        "slo_limit_s": m.slo_s,
        "requests_sent": m.sent,
        "failed": m.failed,
        "wrong": m.wrong,
        "backward_error_max": m.berr_max,
        "host_factor_setup": setup_host.median_factor(),
        "host_factor_run": m.host.median_factor() if m.host is not None else 1.0,
        "wall_setup_s": median(raw_setup),
        "wall_request_p50_s": median(m.raw_latencies) if m.raw_latencies else 0.0,
    }
    return values, note


def per_layer(m: Measurement) -> tuple[dict, dict]:
    """The per-layer metrics of a traced run and notes on their bases."""
    tr = m.tracer
    att = tr.attribution()
    wall = att["wall"]
    ex = {k: (v[0] / v[1] if isinstance(v, tuple) else v) for k, v in m.extras.items()}
    n = max(ex.get("requests", 0), 1)

    def div(a, b):
        return a / b if b else 0.0

    factor = tr.total("mf.factor") + tr.total("exec.factor")
    dense = ex.get("dense_s", 0.0)
    # On the threads backend the dense seconds are worker-seconds, so their
    # share is of worker busy time rather than of factor wall time.
    factor_work = ex.get("exec_busy_s", factor)
    solve = tr.total("mf.solve") + tr.total("exec.solve")
    speedup = Ratio(
        ex.get("seq_refactor_s", 0.0),
        ex.get("threads_refactor_s", 0.0),
        "seq refactor of the same matrices in the same process",
    )
    overhead = Ratio(m.traced_wall, m.untraced_wall, "untraced front doors, same requests")
    out = {name: 0.0 for name, _u, _b in PER_LAYER}
    out.update(
        {
            "ordering.seconds": tr.total("ordering.") / n,
            "ordering.share": div(tr.total("ordering."), wall),
            "symbolic.seconds": tr.total("symbolic.") / n,
            "symbolic.nnz_factor": ex.get("symbolic.nnz_factor", 0.0),
            "symbolic.factor_flops": ex.get("symbolic.factor_flops", 0.0),
            "symbolic.supernodes": ex.get("symbolic.supernodes", 0.0),
            "symbolic.small_front_share": div(
                ex.get("symbolic.small_fronts", 0.0), ex.get("symbolic.supernodes", 0.0)
            ),
            "sparse.update_values_seconds": tr.total("sparse.update_values") / n,
            "mf.factor_seconds": factor / n,
            "mf.factor_gflops": div(ex.get("dense_flops", 0), factor) / 1e9,
            "mf.assembly_seconds": max(factor_work - dense, 0.0) / n if factor else 0.0,
            "mf.lu_factor_seconds": tr.total("mf.lu_factor") / n,
            "mf.solve_seconds": solve / n,
            "mf.solve_rhs_per_s": div(ex.get("rhs_solved", 0), solve),
            "mf.refine_seconds": tr.self_total("mf.refine") / n,
            "mf.refine_iterations": ex.get("refine_iterations", 0) / n,
            "dense.kernel_seconds": dense / n,
            "dense.share": div(dense, factor_work),
            "dense.gflops": div(ex.get("dense_flops", 0), dense) / 1e9,
            "dense.bytes_computed": ex.get("dense_bytes", 0) / n,
            "exec.factor_seconds": tr.total("exec.factor") / n,
            "exec.busy_share": div(ex.get("exec_busy_s", 0.0), ex.get("exec_capacity_s", 0.0)),
            "exec.tasks": ex.get("exec_tasks", 0) / n,
            "exec.queue_depth_peak": ex.get("exec_queue_depth_peak_max", 0),
            "exec.speedup_vs_seq": speedup.value,
            "parallel.plan_seconds": tr.total("parallel.plan") / n,
            "parallel.factor_sim_seconds": tr.total("parallel.factor_sim") / n,
            "parallel.solve_sim_seconds": tr.total("parallel.solve_sim") / n,
            "simmpi.messages_per_s": div(ex.get("sim_messages", 0), ex.get("sim_seconds", 0.0)),
            "bench.idle_share": div(att["layers"]["idle"], wall),
            "bench.unattributed_share": div(att["unattributed"], wall),
            "bench.trace_overhead_ratio": overhead.value,
            "bench.traced_requests": n,
        }
    )
    for layer in LAYERS:
        if layer != "idle":
            out[f"{layer}.self_share"] = div(att["layers"][layer], wall)
    out.update({k: v for k, v in ex.items() if k.startswith("simmpi.")})
    out.update(m.layer)
    out["mf.backward_error_max"] = m.berr_max
    notes = {
        "traced_wall_s": wall,
        "attributed_s": sum(att["layers"].values()),
        "unattributed_s": att["unattributed"],
        "exec.speedup_vs_seq": speedup.describe(),
        "bench.trace_overhead_ratio": overhead.describe(),
        "seconds": "per traced request (per batch for service.*/mf.*/dense.* on serve_open)",
    }
    return out, notes

