//! Application-level benches for the §8 acoustic-wave extension: one step
//! on the fabric and one step of the serial reference.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use tpfa_dataflow::wave::{serial_wave_step, WaveParams, WaveSimulator};

fn bench_wave_fabric(c: &mut Criterion) {
    let mut g = c.benchmark_group("wave/fabric_step");
    g.sample_size(10);
    let params = WaveParams::new(10.0, 10.0, 10.0, 1500.0, 2.0e-3, 0.5);
    for n in [6usize, 10] {
        let mut sim = WaveSimulator::new(n, n, 4, params);
        let u0 = vec![0.5_f32; n * n * 4];
        sim.set_initial(&u0, &u0);
        g.throughput(Throughput::Elements((n * n * 4) as u64));
        g.bench_with_input(BenchmarkId::from_parameter(n * n), &n, |b, _| {
            b.iter(|| sim.step().unwrap());
        });
    }
    g.finish();
}

fn bench_wave_serial(c: &mut Criterion) {
    let mut g = c.benchmark_group("wave/serial_step");
    let params = WaveParams::new(10.0, 10.0, 10.0, 1500.0, 2.0e-3, 0.5);
    for n in [16usize, 32] {
        let u0 = vec![0.5_f32; n * n * 8];
        g.throughput(Throughput::Elements((n * n * 8) as u64));
        g.bench_with_input(BenchmarkId::from_parameter(n * n * 8), &n, |b, &n| {
            b.iter(|| serial_wave_step(n, n, 8, &params, &u0, &u0));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_wave_fabric, bench_wave_serial);
criterion_main!(benches);
