//! The metric registry: every metric the benchmark emits, with its unit and
//! direction, and for end-to-end metrics the regression bound. A unit test
//! keeps `BENCHMARK.json` equal to these tables.

use crate::json::Json;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: f64,
    /// Exact counts must be equal between two runs of one program.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: 0.0,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// Bound of the one exact end-to-end metric: any change is a regression.
pub const EXACT_BOUND: f64 = 1e-9;

/// What a user of the system sees, on every workload. Host seconds and
/// simulated cycles are separate metrics and never mixed.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("apply_s", "s", Lower, 0.25),
    MetricDef {
        exact: true,
        ..e2e("sim_cycles_per_apply", "cycles", Lower, EXACT_BOUND)
    },
    e2e("checkpoint_roundtrip_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.15),
];

/// One measured cost per layer; module names are the layers. Values come
/// from the traced run. A metric that does not apply to a workload reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    layer("fv-core.problem_gen_s", "s", Lower),
    layer("fv-core.serial_cells_per_s", "1/s", Higher),
    layer("wse-stencil.compile_s", "s", Lower),
    layer("wse-stencil.route_program_s", "s", Lower),
    exact("wse-stencil.eq_classes", "count"),
    layer("wse-sim.fabric_new_s", "s", Lower),
    layer("wse-sim.load_s", "s", Lower),
    layer("core.upload_static_s", "s", Lower),
    layer("core.build_other_s", "s", Lower),
    layer("core.inject_s", "s", Lower),
    layer("core.collect_s", "s", Lower),
    layer("core.cold_apply_s", "s", Lower),
    layer("core.apply_tail_s", "s", Lower),
    layer("core.apply_samples", "count", Higher),
    layer("wse-sim.run_s", "s", Lower),
    layer("wse-sim.host_ns_per_event", "ns", Lower),
    layer("wse-sim.chunked_run_ratio", "ratio", Lower),
    layer("wse-sim.sharded_vs_sequential", "ratio", Lower),
    exact("wse-sim.events", "count"),
    exact("wse-sim.fabric_hops", "count"),
    exact("wse-sim.ramp_deliveries", "count"),
    exact("wse-sim.flow_stalls", "count"),
    exact("wse-sim.queue_wait_cycles", "cycles"),
    exact("wse-sim.flops", "count"),
    exact("wse-sim.mem_bytes", "bytes"),
    exact("wse-sim.fabric_bytes", "bytes"),
    exact("wse-sim.max_pe_cycles", "cycles"),
    layer("wse-sim.ff_hops", "count", Higher),
    layer("wse-sim.ff_jumps", "count", Higher),
    layer("wse-sim.region_ff_jumps", "count", Higher),
    layer("wse-serve.capture_s", "s", Lower),
    layer("wse-serve.encode_s", "s", Lower),
    layer("wse-serve.decode_s", "s", Lower),
    layer("wse-serve.restore_s", "s", Lower),
    layer("wse-serve.checkpoint_bytes", "bytes", Lower),
    layer("wse-serve.submit_s", "s", Lower),
    layer("wse-serve.first_progress_s", "s", Lower),
    layer("wse-serve.hit_setup_s", "s", Lower),
    layer("wse-serve.cache_hit_ratio", "ratio", Higher),
    layer("wse-serve.preempt_to_parked_s", "s", Lower),
    layer("wse-serve.resume_to_done_s", "s", Lower),
    layer("wse-serve.rejected", "count", Lower),
    layer("wse-serve.job_latency_p50_s", "s", Lower),
    layer("wse-serve.job_latency_p95_s", "s", Lower),
    layer("wse-serve.jobs_per_s", "1/s", Higher),
    layer("wse-metrics.live_apply_ratio", "ratio", Lower),
    layer("wse-trace.ring_apply_ratio", "ratio", Lower),
    layer("wse-prof.analyze_s", "s", Lower),
    exact("wse-prof.share.halo-exchange", "ratio"),
    exact("wse-prof.share.flux-compute", "ratio"),
    exact("wse-prof.share.residual-accumulate", "ratio"),
    layer("gpu-ref.raja_cells_per_s", "1/s", Higher),
    layer("gpu-ref.cuda_cells_per_s", "1/s", Higher),
    layer("perf-model.cs2_apply_s", "s", Lower),
    layer("bench.cell_updates_per_s", "1/s", Higher),
    layer("bench.trace_overhead_ratio", "ratio", Lower),
    layer("bench.span_coverage_min", "ratio", Higher),
    layer("bench.failed_share", "ratio", Lower),
];

pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Values measured by one run: `name → (value, sample count)`.
#[derive(Default)]
pub struct Measured(BTreeMap<&'static str, (f64, usize)>);

impl Measured {
    /// Records `value`, a statistic over `samples` samples (1 for a count
    /// or a single measurement).
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(find(name).is_some(), "metric {name} is not in the registry");
        self.0.insert(name, (value, samples));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|&(v, _)| v)
    }

    /// The `metrics` object of the result line for `defs`, in registry
    /// order. A metric that was not measured reads 0 (not applicable to
    /// this workload).
    pub fn result_object(&self, defs: &[MetricDef]) -> Json {
        Json::obj(defs.iter().map(|d| {
            let value = self.get(d.name).unwrap_or(0.0);
            (
                d.name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(d.unit))]),
            )
        }))
    }

    /// `name → sample count` for `defs`.
    pub fn samples_object(&self, defs: &[MetricDef]) -> Json {
        Json::obj(defs.iter().map(|d| {
            let n = self.0.get(d.name).map_or(0, |&(_, n)| n);
            (d.name, Json::Num(n as f64))
        }))
    }

    /// Prints every metric of `defs` by name with unit and sample count.
    pub fn print(&self, defs: &[MetricDef]) {
        for d in defs {
            match self.0.get(d.name) {
                Some(&(v, n)) => println!("  {:<38} {:>16.6e} {:<7} n={n}", d.name, v, d.unit),
                None => println!("  {:<38} {:>16} {:<7} n=0", d.name, "n/a", d.unit),
            }
        }
    }
}
