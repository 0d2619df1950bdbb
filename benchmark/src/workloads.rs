//! The six workloads. Names are fixed; `--seed` drives the permeability
//! field, the pressure vectors, the wave pulse and the serve job mix. Event
//! counts do not depend on the seed.

use wse_sim::fabric::Execution;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's TPFA flux kernel, one pressure vector per apply.
    Tpfa,
    /// The compiled wave stencil on the generic PE program, stateful.
    Wave,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    Sequential,
    /// 4 shards on `min(2, nproc)` threads.
    Sharded,
}

/// The served traffic mix of `serve-mix`.
#[derive(Debug, Clone, Copy)]
pub struct ServeMix {
    pub workers: usize,
    pub queue_capacity: usize,
    pub clients: usize,
    /// Jobs each closed-loop client completes at least.
    pub min_jobs_per_client: usize,
    pub applications: usize,
    pub chunk_events: u64,
    /// Every n-th job names a fresh permeability seed (a cache miss).
    pub miss_every: usize,
    /// Every n-th job is preempted after its first progress update, then
    /// resumed.
    pub preempt_every: usize,
    /// Every n-th served residual is compared with a direct run.
    pub verify_every: usize,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    pub engine: Engine,
    /// Mesh extents `(nx, ny, nz)`: one PE per `(x, y)`, `nz` cells per PE.
    pub dims: (usize, usize, usize),
    pub smoke_dims: (usize, usize, usize),
    /// Steady operations (applies or steps) measured at least; the steady
    /// loop then runs on until `--seconds` are used up. Every operation is
    /// preceded by one simulator build.
    pub min_ops: usize,
    /// After every `pause_every`-th operation one more apply is paused
    /// half-way and `trips_per_pause` checkpoint round trips are taken; at
    /// least `min_pauses` times.
    pub pause_every: usize,
    pub trips_per_pause: usize,
    pub min_pauses: usize,
    /// Interleaved A/B pairs per ratio metric in the traced run.
    pub ab_pairs: usize,
    /// Measures the observability layers (metrics hub, trace ring,
    /// profiler) in the traced run.
    pub observability: bool,
    pub serve: Option<ServeMix>,
}

/// Events per `step_events` chunk in `serve-mix` jobs and in the
/// chunked-vs-single-call ratio.
pub const CHUNK_EVENTS: u64 = 16_384;

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "tpfa-small",
        why: "TPFA 64x64x6 sequential: working set stays inside the LLC and >99% of an apply is the event loop, so this is the per-event-overhead workload",
        kind: Kind::Tpfa,
        engine: Engine::Sequential,
        dims: (64, 64, 6),
        smoke_dims: (12, 12, 4),
        min_ops: 24,
        pause_every: 4,
        trips_per_pause: 2,
        min_pauses: 4,
        ab_pairs: 5,
        observability: true,
        serve: None,
    },
    Workload {
        name: "tpfa-wide",
        why: "TPFA 256x256x2 sequential: 65,536 PEs and a working set several times the LLC make the same event loop memory-bound; set-up and checkpoints are large enough to measure",
        kind: Kind::Tpfa,
        engine: Engine::Sequential,
        dims: (256, 256, 2),
        smoke_dims: (32, 32, 2),
        min_ops: 3,
        pause_every: 2,
        trips_per_pause: 2,
        min_pauses: 1,
        ab_pairs: 2,
        observability: false,
        serve: None,
    },
    Workload {
        name: "tpfa-deep",
        why: "TPFA 32x32x64 sequential: few PEs with long DSD vectors, so a queue or route gain that costs the DSD and PE-memory path (or the reverse) shows here",
        kind: Kind::Tpfa,
        engine: Engine::Sequential,
        dims: (32, 32, 64),
        smoke_dims: (8, 8, 16),
        min_ops: 4,
        pause_every: 2,
        trips_per_pause: 3,
        min_pauses: 1,
        ab_pairs: 3,
        observability: false,
        serve: None,
    },
    Workload {
        name: "tpfa-sharded",
        why: "the tpfa-small problem on 4 shards and 2 threads: the only workload where shard synchronisation (channel clocks, mailboxes, gather/scatter) does work",
        kind: Kind::Tpfa,
        engine: Engine::Sharded,
        dims: (64, 64, 6),
        smoke_dims: (12, 12, 4),
        min_ops: 24,
        pause_every: 4,
        trips_per_pause: 2,
        min_pauses: 4,
        ab_pairs: 5,
        observability: false,
        serve: None,
    },
    Workload {
        name: "wave-steps",
        why: "wave stencil 64x64x6, stateful advance() steps: the only user of the generic stencil PE program and of a compiled non-TPFA spec; bypasses the TPFA program and the inject path",
        kind: Kind::Wave,
        engine: Engine::Sequential,
        dims: (64, 64, 6),
        smoke_dims: (12, 12, 4),
        min_ops: 40,
        pause_every: 8,
        trips_per_pause: 2,
        min_pauses: 4,
        ab_pairs: 5,
        observability: false,
        serve: None,
    },
    Workload {
        name: "serve-mix",
        why: "job server, 2 workers, 2 closed-loop clients, 24x24x6 jobs of 3 applies; every 4th a cache miss, every 8th preempted and resumed: chunked stepping, the problem cache, checkpoints on preemption",
        kind: Kind::Tpfa,
        engine: Engine::Sequential,
        dims: (24, 24, 6),
        smoke_dims: (8, 8, 4),
        min_ops: 24,
        pause_every: 4,
        trips_per_pause: 2,
        min_pauses: 4,
        ab_pairs: 5,
        observability: false,
        serve: Some(ServeMix {
            workers: 2,
            queue_capacity: 8,
            clients: 2,
            min_jobs_per_client: 100,
            applications: 3,
            chunk_events: CHUNK_EVENTS,
            miss_every: 4,
            preempt_every: 8,
            verify_every: 50,
        }),
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn dims(&self, smoke: bool) -> (usize, usize, usize) {
        if smoke {
            self.smoke_dims
        } else {
            self.dims
        }
    }

    pub fn execution(&self, nproc: usize) -> Execution {
        match self.engine {
            Engine::Sequential => Execution::Sequential,
            Engine::Sharded => Execution::Sharded {
                shards: 4,
                threads: nproc.min(2),
            },
        }
    }

    /// Threads that run simulator code at the same time.
    pub fn threads(&self, nproc: usize) -> usize {
        match (self.serve, self.execution(nproc)) {
            (Some(mix), _) => mix.workers,
            (None, Execution::Sharded { threads, .. }) => threads,
            (None, Execution::Sequential) => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_threads_never_exceed_nproc() {
        let sharded = find("tpfa-sharded").unwrap();
        assert_eq!(sharded.threads(1), 1);
        assert_eq!(sharded.threads(2), 2);
        assert_eq!(sharded.threads(64), 2);
        assert_eq!(find("serve-mix").unwrap().threads(1), 2);
        assert_eq!(find("tpfa-small").unwrap().threads(8), 1);
    }

    #[test]
    fn smoke_sizes_are_smaller() {
        for w in WORKLOADS {
            let (a, b) = (w.dims(false), w.dims(true));
            assert!(b.0 * b.1 * b.2 < a.0 * a.1 * a.2, "{}", w.name);
        }
    }
}
