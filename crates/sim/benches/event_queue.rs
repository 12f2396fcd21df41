//! Micro-benchmarks of the bucket calendar event queue across the latency
//! distributions the simulator actually schedules under.
//!
//! * `unit` — every event lands exactly one tick ahead (the paper's
//!   PeerSim model and the simulator's hot path): pops are O(1) `VecDeque`
//!   operations.
//! * `uniform` — per-message jitter in `[1, 16]`.
//! * `lognormal_tail` — heavy-tailed draws (median 3, σ = 0.7, cap 96):
//!   a fraction of events overflow the bucket ring's window and must fold
//!   back in as the cursor advances.
//!
//! Each distribution is measured two ways: `pop` (drain a pre-filled
//! queue; setup untimed) and `cycle` (steady-state pop-one/push-one at a
//! fixed queue size — the shape of a broadcast drain).
//!
//! `fig2_wave` is the one case at the paper's scale: ~25,000 events per
//! tick for 300 ticks with 96-byte payloads, the shape of one Fig. 2
//! broadcast sequence at n = 10,000. The 4,096-event cases never leave the
//! cache and sweep a fraction of the ring; only this one shows what the
//! queue costs in memory touched once the cursor has passed every bucket.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use hyparview_core::SimId;
use hyparview_sim::{EventQueue, LatencyModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

const QUEUE_SIZE: usize = 4_096;
const CYCLE_OPS: usize = 4_096;

/// The swept distributions, as `(label, model)`.
fn distributions() -> Vec<(&'static str, LatencyModel)> {
    vec![
        ("unit", LatencyModel::Fixed(1)),
        ("uniform", LatencyModel::Uniform { min: 1, max: 16 }),
        ("lognormal_tail", LatencyModel::LogNormal { median: 3, sigma_milli: 700, cap: 96 }),
    ]
}

/// Builds a queue holding one broadcast wave: `QUEUE_SIZE` events all
/// scheduled `latency` past the same instant — under unit latency they
/// crowd into a single tick, exactly the shape a drain sees.
fn filled(model: LatencyModel) -> EventQueue<u64> {
    let mut queue = EventQueue::new();
    let mut rng = StdRng::seed_from_u64(7);
    for i in 0..QUEUE_SIZE as u64 {
        queue.push(model.sample(&mut rng), SimId::new(0), SimId::new(1), i);
    }
    queue
}

fn bench_pop(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue_pop");
    group.sample_size(30);
    for (label, model) in distributions() {
        group.bench_with_input(BenchmarkId::new(label, QUEUE_SIZE), &model, |b, &model| {
            b.iter_batched(
                || filled(model),
                |mut queue| {
                    let mut sum = 0u64;
                    while let Some(event) = queue.pop() {
                        sum = sum.wrapping_add(event.time);
                    }
                    sum
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn bench_cycle(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue_cycle");
    group.sample_size(30);
    for (label, model) in distributions() {
        group.bench_with_input(BenchmarkId::new(label, CYCLE_OPS), &model, |b, &model| {
            b.iter_batched(
                || (filled(model), StdRng::seed_from_u64(11)),
                |(mut queue, mut rng)| {
                    // Steady state: every pop schedules a successor,
                    // exactly like a broadcast wave.
                    let mut sum = 0u64;
                    for _ in 0..CYCLE_OPS {
                        let event = queue.pop().expect("steady state");
                        sum = sum.wrapping_add(event.time);
                        queue.push(
                            event.time + model.sample(&mut rng),
                            event.from,
                            event.to,
                            event.payload,
                        );
                    }
                    black_box(sum)
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

const FIG2_WAVE: usize = 25_000;
const FIG2_TICKS: usize = 300;

fn bench_fig2_wave(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue_fig2_wave");
    group.sample_size(5);
    group.bench_function(BenchmarkId::new("unit", FIG2_WAVE), |b| {
        // A fresh queue per iteration: first-touch page faults of whatever
        // storage the queue retains are part of the cost.
        b.iter_batched(
            EventQueue::<[u128; 6]>::new,
            |mut queue| {
                for i in 0..FIG2_WAVE {
                    queue.push(1, SimId::new(0), SimId::new(1), [i as u128; 6]);
                }
                let mut sum = 0u64;
                for _ in 0..FIG2_WAVE * FIG2_TICKS {
                    let event = queue.pop().expect("steady state");
                    sum = sum.wrapping_add(event.time);
                    queue.push(event.time + 1, event.from, event.to, event.payload);
                }
                black_box(sum)
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_pop, bench_cycle, bench_fig2_wave);
criterion_main!(benches);
