//! Seeded inputs and the calls that drive one simulator operation. The
//! program under test receives only the generated inputs, never the seed.

use crate::span::Tracer;
use crate::workloads::Kind;
use fv_core::residual::assemble_flux_residual;
use fv_core::state::FlowState;
use fv_core::validate::Validation;
use tpfa_dataflow::wave::{serial_wave_step, WaveParams, WaveWorkload};
use tpfa_dataflow::DataflowFluxSimulator;
use wse_serve::{CompiledProblem, ProblemSpec};
use wse_sim::fabric::Execution;

pub type Res<T> = Result<T, String>;

/// SplitMix64: the harness's own generator for seed-derived choices.
pub struct Rng(pub u64);

impl Rng {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Pressure vector `index` of the stream named by `seed`, in the range the
/// repository's drivers use.
pub fn pressure(problem: &CompiledProblem, seed: u64, index: u64) -> Vec<f32> {
    let key = seed.wrapping_mul(1_000_003).wrapping_add(index);
    FlowState::<f32>::varied(&problem.mesh, 1.0e7, 1.2e7, key)
        .pressure()
        .to_vec()
}

pub enum Problem {
    /// The standard synthetic TPFA problem, generated by the same function
    /// the job server's cache-miss path runs.
    Tpfa(CompiledProblem),
    Wave {
        dims: (usize, usize, usize),
        params: WaveParams,
        /// Initial wavefield: a Gaussian pulse placed by the seed.
        u0: Vec<f32>,
    },
}

impl Problem {
    pub fn generate(kind: Kind, dims: (usize, usize, usize), seed: u64) -> Self {
        let (nx, ny, nz) = dims;
        match kind {
            Kind::Tpfa => Problem::Tpfa(CompiledProblem::compile(ProblemSpec {
                nx,
                ny,
                nz,
                perm_seed: seed,
            })),
            Kind::Wave => {
                // dx = dy = dz = 10 m, c = 1500 m/s, dt for CFL ≈ 0.3.
                let params = WaveParams::new(10.0, 10.0, 10.0, 1500.0, 2.0e-3, 0.5);
                assert!(params.cfl() < 1.0, "wave parameters must be stable");
                let mut rng = Rng(seed);
                let cx = nx as f64 * (0.3 + 0.4 * rng.unit());
                let cy = ny as f64 * (0.3 + 0.4 * rng.unit());
                let cz = nz as f64 * 0.5;
                let sigma = 1.5 + 2.0 * rng.unit();
                let mut u0 = vec![0.0_f32; nx * ny * nz];
                for z in 0..nz {
                    for y in 0..ny {
                        for x in 0..nx {
                            let r2 = (x as f64 + 0.5 - cx).powi(2)
                                + (y as f64 + 0.5 - cy).powi(2)
                                + (z as f64 + 0.5 - cz).powi(2);
                            u0[(z * ny + y) * nx + x] = (-r2 / (sigma * sigma)).exp() as f32;
                        }
                    }
                }
                Problem::Wave { dims, params, u0 }
            }
        }
    }

    pub fn cells(&self) -> usize {
        match self {
            Problem::Tpfa(p) => p.mesh.num_cells(),
            Problem::Wave { dims, .. } => dims.0 * dims.1 * dims.2,
        }
    }

    /// `builder()…build()`: everything a user pays between holding the
    /// problem and holding a simulator, stencil compilation included.
    pub fn build(&self, execution: Execution) -> Res<DataflowFluxSimulator> {
        match self {
            Problem::Tpfa(p) => DataflowFluxSimulator::builder(&p.mesh)
                .fluid(&p.fluid)
                .transmissibilities(&p.trans)
                .execution(execution)
                .build(),
            Problem::Wave { dims, params, .. } => {
                let workload = WaveWorkload::new(dims.0, dims.1, dims.2, *params)
                    .map_err(|e| format!("wave spec does not compile: {e}"))?;
                DataflowFluxSimulator::workload_builder()
                    .workload(workload)
                    .execution(execution)
                    .build()
            }
        }
        .map_err(|e| format!("build failed: {e}"))
    }

    /// The input of steady operation `index`: a fresh pressure vector for
    /// TPFA, nothing for the stateful wave step.
    pub fn input(&self, seed: u64, index: u64) -> Vec<f32> {
        match self {
            Problem::Tpfa(p) => pressure(p, seed, index),
            Problem::Wave { .. } => Vec::new(),
        }
    }

    /// Sets initial conditions on a fresh simulator (wave only).
    pub fn set_initial(&self, sim: &mut DataflowFluxSimulator) {
        if let Problem::Wave { u0, .. } = self {
            sim.inject(u0);
        }
    }

    /// The serial `fv-core` reference residual (Algorithm 1 in f64) for
    /// `input`. TPFA only.
    pub fn serial_reference(&self, input: &[f32]) -> Vec<f64> {
        let Problem::Tpfa(p) = self else {
            unreachable!("the serial TPFA reference is only asked of TPFA problems");
        };
        let p64: Vec<f64> = input.iter().map(|&v| f64::from(v)).collect();
        let mut reference = vec![0.0_f64; p64.len()];
        assemble_flux_residual(&p.mesh, &p.fluid, &p.trans, &p64, &mut reference);
        reference
    }

    /// The repository's cross-validation rule: relative max-norm
    /// difference to the serial reference within 1e-3.
    pub fn within_tolerance(reference: &[f64], output: &[f32]) -> bool {
        Validation::compare("dataflow vs serial", reference, output, 1e-3).passed()
    }
}

/// Timings and exact deltas of one steady operation.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpSample {
    pub total_s: f64,
    pub inject_s: f64,
    pub run_s: f64,
    pub collect_s: f64,
    pub events: u64,
    /// Simulated cycles this operation advanced the fabric clock by.
    pub cycles: u64,
}

/// One user operation: a TPFA application of `input` (inject → run →
/// collect, the run in `chunk`-event steps when given) or one wave
/// `advance()`. Returns the output field and the sample.
pub fn operate(
    sim: &mut DataflowFluxSimulator,
    kind: Kind,
    input: &[f32],
    chunk: Option<u64>,
    tr: &mut Tracer,
    request: u64,
) -> Res<(Vec<f32>, OpSample)> {
    let clock_before = sim.last_run().map_or(0, |r| r.final_time);
    let mut s = OpSample::default();
    let root = tr.begin("apply", request);
    let output = match kind {
        Kind::Tpfa => {
            ((), s.inject_s) = tr.timed("core.inject", request, || sim.begin_apply(input));
            let (stepped, run_s) = tr.timed("wse-sim.run", request, || loop {
                match sim.step_events(chunk.unwrap_or(u64::MAX)) {
                    Ok(step) if step.complete => break Ok(()),
                    Ok(_) => {}
                    Err(e) => break Err(e),
                }
            });
            s.run_s = run_s;
            stepped.map_err(|e| format!("fabric error while stepping: {e}"))?;
            let (collected, collect_s) = tr.timed("core.collect", request, || sim.finish_apply());
            s.collect_s = collect_s;
            collected
        }
        Kind::Wave => {
            // `advance()` cannot be split from outside: activation, the
            // event loop and the collect are one call.
            let (advanced, run_s) = tr.timed("wse-sim.run", request, || sim.advance());
            s.run_s = run_s;
            advanced
        }
    }
    .map_err(|e| format!("fabric error: {e}"))?;
    s.total_s = tr.end(root);
    let report = sim.last_run().ok_or("no run recorded after an operation")?;
    s.events = report.events;
    s.cycles = report.final_time - clock_before;
    Ok((output, s))
}

/// Bitwise equality of two fields.
pub fn bit_identical(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Largest relative deviation of `fabric` from `serial`, scaled by the
/// serial field's magnitude — the wave cross-check of the repository's own
/// tests.
pub fn wave_deviation(serial: &[f32], fabric: &[f32]) -> f64 {
    let scale = serial.iter().map(|v| v.abs()).fold(1e-12_f32, f32::max);
    serial
        .iter()
        .zip(fabric)
        .map(|(s, f)| f64::from((s - f).abs() / scale))
        .fold(0.0, f64::max)
}

/// Steps the serial wave reference once.
pub fn serial_wave(problem: &Problem, u: &[f32], u_prev: &[f32]) -> Vec<f32> {
    let Problem::Wave { dims, params, .. } = problem else {
        unreachable!("serial_wave is only called for the wave problem");
    };
    serial_wave_step(dims.0, dims.1, dims.2, params, u, u_prev)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_different_seed_different_inputs() {
        let a = Problem::generate(Kind::Tpfa, (6, 5, 3), 11);
        let b = Problem::generate(Kind::Tpfa, (6, 5, 3), 11);
        let c = Problem::generate(Kind::Tpfa, (6, 5, 3), 12);
        assert_eq!(a.input(11, 4), b.input(11, 4));
        assert_ne!(a.input(11, 4), a.input(11, 5));
        assert_ne!(a.input(11, 4), c.input(12, 4));
        let (Problem::Wave { u0: ua, .. }, Problem::Wave { u0: ub, .. }) = (
            Problem::generate(Kind::Wave, (6, 5, 3), 3),
            Problem::generate(Kind::Wave, (6, 5, 3), 4),
        ) else {
            panic!("wave problems expected");
        };
        assert_ne!(ua, ub);
    }

    #[test]
    fn a_flipped_bit_fails_both_checks() {
        let problem = Problem::generate(Kind::Tpfa, (5, 5, 3), 7);
        let input = problem.input(7, 0);
        let mut sim = problem.build(Execution::Sequential).unwrap();
        let mut tr = Tracer::new(false, std::time::Instant::now(), 0);
        let (good, sample) = operate(&mut sim, Kind::Tpfa, &input, None, &mut tr, 0).unwrap();
        assert!(sample.events > 0 && sample.cycles > 0);
        let reference = problem.serial_reference(&input);
        assert!(Problem::within_tolerance(&reference, &good));
        let mut bad = good.clone();
        crate::flip_bit(&mut bad);
        assert!(!bit_identical(&good, &bad));
        assert!(!Problem::within_tolerance(&reference, &bad));
    }

    #[test]
    fn chunked_stepping_is_bit_identical_to_one_call() {
        let problem = Problem::generate(Kind::Tpfa, (6, 6, 3), 9);
        let input = problem.input(9, 1);
        let mut tr = Tracer::new(false, std::time::Instant::now(), 0);
        let mut a = problem.build(Execution::Sequential).unwrap();
        let mut b = problem.build(Execution::Sequential).unwrap();
        let (ra, sa) = operate(&mut a, Kind::Tpfa, &input, None, &mut tr, 0).unwrap();
        let (rb, sb) = operate(&mut b, Kind::Tpfa, &input, Some(100), &mut tr, 0).unwrap();
        assert!(bit_identical(&ra, &rb));
        assert_eq!((sa.events, sa.cycles), (sb.events, sb.cycles));
    }
}
