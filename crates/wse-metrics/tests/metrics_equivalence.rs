//! Determinism contract of the driver/fabric telemetry: every metric
//! whose name starts with `fabric_` or `driver_` (except the documented
//! engine-DEPENDENT `fabric_ff_jumps_total` and
//! `fabric_region_ff_jumps_total`) must be **bit-identical** across
//! engines — sequential vs sharded 1/4/9 — and across fast-forwarding
//! on/off, because they are pure functions of the deterministic event
//! stream. Wall-clock series (`wall_*`) are excluded by construction.
//! (`fabric_eq_classes` stays in: the class count is a pure function of
//! the route program.)
//!
//! Also pins the two boundary behaviors the exposition depends on:
//! log2-bucket edges and the flight ring's exact-tail property — here at
//! the integration level, against the public API.

use std::collections::BTreeMap;

use fv_core::eos::Fluid;
use fv_core::fields::PermeabilityField;
use fv_core::mesh::{CartesianMesh3, Extents, Spacing};
use fv_core::state::FlowState;
use fv_core::trans::{StencilKind, Transmissibilities};
use tpfa_dataflow::DataflowFluxSimulator;
use wse_metrics::{bucket_index, bucket_upper_bound, FlightRecorder, MetricsHub, SampleValue};
use wse_sim::fabric::Execution;

const NX: usize = 9;
const NY: usize = 9;
const NZ: usize = 6;
const APPS: usize = 3;

/// Runs `APPS` applications on the given engine/fast-forward combination
/// with a live hub, and returns the deterministic subset of the snapshot:
/// `fabric_*`/`driver_*` values keyed by name, with the engine label
/// stripped (it necessarily differs across configurations) and the
/// engine-dependent jump counter excluded.
fn deterministic_metrics(execution: Execution, fast_forward: bool) -> BTreeMap<String, u64> {
    let mesh = CartesianMesh3::new(Extents::new(NX, NY, NZ), Spacing::new(10.0, 10.0, 4.0));
    let fluid = Fluid::water_like();
    let perm = PermeabilityField::log_normal(&mesh, 1e-13, 0.4, 42);
    let trans = Transmissibilities::tpfa(&mesh, &perm, StencilKind::TenPoint);
    let hub = MetricsHub::new_live();
    let mut sim = DataflowFluxSimulator::builder(&mesh)
        .fluid(&fluid)
        .transmissibilities(&trans)
        .execution(execution)
        .fast_forward(fast_forward)
        .metrics(hub.clone())
        .build()
        .expect("equivalence problem must pass builder validation");
    for i in 0..APPS {
        let p = FlowState::<f32>::varied(&mesh, 1.0e7, 1.2e7, i as u64)
            .pressure()
            .to_vec();
        sim.apply(&p).expect("equivalence run failed");
    }
    let mut out = BTreeMap::new();
    for s in hub.snapshot() {
        let deterministic = (s.name.starts_with("fabric_") || s.name.starts_with("driver_"))
            && s.name != "fabric_ff_jumps_total"
            && s.name != "fabric_region_ff_jumps_total";
        if !deterministic {
            continue;
        }
        let v = match s.value {
            SampleValue::Counter(v) => v,
            // The only deterministic gauges are integer-valued fabric
            // coordinates; their f64 bits are exact.
            SampleValue::Gauge(g) => g as u64,
            SampleValue::Histogram { .. } => {
                panic!("no deterministic histograms expected, got {}", s.name)
            }
        };
        out.insert(s.name, v);
    }
    out
}

#[test]
fn deterministic_series_are_bit_identical_across_engines() {
    let seq = deterministic_metrics(Execution::Sequential, true);
    assert!(
        seq.contains_key("fabric_events_total") && seq["fabric_events_total"] > 0,
        "instrumented run must publish events"
    );
    assert_eq!(seq["driver_applications_total"], APPS as u64);
    for shards in [1usize, 4, 9] {
        let sh = deterministic_metrics(Execution::Sharded { shards, threads: 2 }, true);
        assert_eq!(
            seq, sh,
            "sharded{shards} must publish bit-identical deterministic metrics"
        );
    }
}

#[test]
fn deterministic_series_are_invariant_under_fast_forwarding() {
    // ff_hops is engine-invariant AND fast-forward-sensitive: with FF off
    // it must be exactly 0, with FF on the engines must agree on it (the
    // segment-hop sums equal the chain-hop sums). Every other
    // deterministic series must not move at all.
    let mut on = deterministic_metrics(Execution::Sequential, true);
    let mut off = deterministic_metrics(Execution::Sequential, false);
    let sh_off = deterministic_metrics(
        Execution::Sharded {
            shards: 4,
            threads: 2,
        },
        false,
    );
    assert_eq!(off, sh_off, "FF-off engines must agree");
    assert!(
        on["fabric_ff_hops_total"] > 0,
        "fast-forwarding must take static-route jumps on this fabric"
    );
    assert_eq!(off["fabric_ff_hops_total"], 0, "no jumps with FF off");
    on.remove("fabric_ff_hops_total");
    off.remove("fabric_ff_hops_total");
    assert_eq!(
        on, off,
        "all other deterministic series must be FF-invariant"
    );
}

#[test]
fn log2_bucket_boundaries_are_exact() {
    // bucket 0 = {0}; bucket i = [2^(i-1), 2^i - 1]; bucket 64 = +Inf tail.
    assert_eq!(bucket_index(0), 0);
    assert_eq!(bucket_index(1), 1);
    for i in 2..=63u32 {
        let lo = 1u64 << (i - 1);
        let hi = (1u64 << i) - 1;
        assert_eq!(bucket_index(lo), i as usize, "lower edge of bucket {i}");
        assert_eq!(bucket_index(hi), i as usize, "upper edge of bucket {i}");
        assert_eq!(bucket_index(lo - 1), (i - 1) as usize, "below bucket {i}");
    }
    assert_eq!(bucket_index(u64::MAX), 64, "u64::MAX lands in the tail");
    assert_eq!(bucket_upper_bound(0), Some(0));
    assert_eq!(bucket_upper_bound(3), Some(7));
    assert_eq!(bucket_upper_bound(64), None, "the tail bucket is +Inf");
}

#[test]
fn flight_ring_is_the_exact_tail_through_the_public_api() {
    let mut ring = FlightRecorder::new(5);
    for i in 0..23u32 {
        ring.push(i);
    }
    assert_eq!(ring.to_vec(), vec![18, 19, 20, 21, 22]);
    assert_eq!(ring.dropped(), 18);
}
