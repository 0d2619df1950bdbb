//! Exact-count pins of the TPFA apply: the simulated-cycle figures the
//! paper's evaluation rests on (Table 3's comm / compute split via the
//! critical path and the cycle attribution, Table 1's CS-2 time via the
//! model), plus the event, time, queue-wait and per-strip hop counts of the
//! 64×64×6 problem the `tpfa-small` / `tpfa-sharded` benchmark workloads
//! time. Every value is a function of the program alone, not of the host,
//! so it is compared exactly; a change that moves one changed what the
//! simulated machine does. Wall-clock is measured by `benchmark/`, and the
//! paper-mesh counts are checked by the `paper_mesh` binary.

use bench::{pressure_for_iteration, standard_problem, PAPER_ITERATIONS};
use perf_model::Cs2Model;
use tpfa_dataflow::DataflowFluxSimulator;
use wse_prof::{bucket_name, critical_path, Profile, PROFILE_BUCKETS};
use wse_sim::fabric::Execution;
use wse_sim::trace::TraceSpec;

/// Applies of the 64×64×6 problem, all on iteration 0's pressure, before
/// its counts are read. The final fabric time and the queue-wait total
/// depend on the clock each apply starts at, so the count is part of the
/// pin.
const APPLIES: usize = 6;

fn pin_64x64(execution: Execution) {
    let (mesh, fluid, trans) = standard_problem(64, 64, 6, 2);
    let p = pressure_for_iteration(&mesh, 0);
    let mut sim = DataflowFluxSimulator::builder(&mesh)
        .fluid(&fluid)
        .transmissibilities(&trans)
        .execution(execution)
        .build()
        .unwrap();
    for _ in 0..APPLIES {
        sim.apply(&p).unwrap();
    }
    let run = sim.last_run().expect("run recorded");
    assert_eq!(run.events, 1_407_584, "events of the last apply");
    assert_eq!(run.final_time, 5_869, "fabric time after {APPLIES} applies");
    assert_eq!(sim.queue_wait_cycles(), 429_161_525, "queue-wait cycles");
    let hops: Vec<u64> = sim.shard_stats(4).iter().map(|s| s.fabric_hops).collect();
    assert_eq!(hops, [904_704; 4], "fabric hops per strip");
}

#[test]
fn tpfa_64x64_sequential() {
    pin_64x64(Execution::Sequential);
}

#[test]
fn tpfa_64x64_sharded_4x2() {
    pin_64x64(Execution::Sharded {
        shards: 4,
        threads: 2,
    });
}

#[test]
fn tpfa_16x16_profile_and_cs2_model() {
    let (mesh, fluid, trans) = standard_problem(16, 16, 6, 7);
    let mut sim = DataflowFluxSimulator::builder(&mesh)
        .fluid(&fluid)
        .transmissibilities(&trans)
        .trace(TraceSpec::ring(8192))
        .build()
        .unwrap();
    sim.apply(&pressure_for_iteration(&mesh, 3)).unwrap();
    let trace = sim.trace().expect("tracing was enabled");

    let cp = critical_path(&trace, 1).expect("run has tasks");
    assert_eq!(
        (cp.makespan, cp.task_cycles, cp.hop_cycles, cp.steps.len()),
        (1006, 1004, 2, 103),
        "critical path: makespan, task, hop, steps"
    );

    let profile = Profile::from_trace(&trace);
    assert_eq!(profile.max_pe_counters.cycles(), 1004, "pacing PE cycles");
    let shares: Vec<(&str, u64)> = (0..PROFILE_BUCKETS)
        .map(|i| (bucket_name(i), profile.share(i).to_bits()))
        .collect();
    let pinned = [
        ("halo-exchange", 0.19531536334255156_f64),
        ("flux-compute", 0.7454103221937161),
        ("residual-accumulate", 0.05927431446373238),
        ("router-switch", 0.0),
        ("other", 0.0),
    ]
    .map(|(name, share)| (name, share.to_bits()));
    assert_eq!(shares, pinned, "cycle shares per region (f64 bits)");

    // Table 1's CS-2 time: the pacing PE's cycles scaled from nz = 6 to the
    // paper's 246 layers, one measured apply, the paper's iteration count.
    let scale = 246.0 / 6.0;
    let modeled = Cs2Model::default().breakdown_from_cycles(
        (profile.pacing_compute_cycles() as f64 * scale).round() as u64,
        (profile.pacing_comm_cycles() as f64 * scale).round() as u64,
        1,
        PAPER_ITERATIONS,
    );
    assert_eq!(
        modeled.total_s.to_bits(),
        0.026265882352941177_f64.to_bits()
    );
    assert_eq!(
        modeled.comm_fraction().to_bits(),
        0.25441189644360834_f64.to_bits()
    );
}
