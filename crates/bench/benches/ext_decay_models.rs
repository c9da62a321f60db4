//! Extension: cost of the four decay models at a matched horizon.
//!
//! Calibrates every model to the same τ(θ), so the joins scan the same
//! in-horizon state; differences isolate (i) the factor's arithmetic cost
//! and (ii) how the factor's shape feeds the pruning bounds (a flat
//! window gives pruning nothing to cut; a steep exponential lets
//! `rs2·f(Δt)` kill distant candidates early).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sssj_core::{DecaySpec, StreamJoin, Streaming};
use sssj_data::{generate, preset, Preset};
use sssj_types::DecayModel;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let stream = generate(&preset(Preset::Blogs, 1_200));
    let theta: f64 = 0.6;
    let tau = 60.0;
    // Each model solved for horizon(θ) = τ.
    let models = [
        ("exp", DecayModel::exponential((1.0 / theta).ln() / tau)),
        ("window", DecayModel::sliding_window(tau)),
        ("linear", DecayModel::linear(tau / (1.0 - theta))),
        (
            "poly",
            DecayModel::polynomial(2.0, tau / (theta.powf(-0.5) - 1.0)),
        ),
    ];

    for (label, model) in models {
        assert!((model.horizon(theta) - tau).abs() < 1e-6, "{label}");
        let mut join = Streaming::with_decay(theta, DecaySpec::new(model));
        let mut out = Vec::new();
        for r in &stream {
            join.process(r, &mut out);
        }
        eprintln!(
            "{label}: pairs={} entries={} candidates={} full_sims={}",
            out.len(),
            join.stats().entries_traversed,
            join.stats().candidates,
            join.stats().full_sims
        );
    }

    let mut g = c.benchmark_group("ext_decay_models");
    g.sample_size(10);
    for (label, model) in models {
        g.bench_with_input(BenchmarkId::new("STR-L2", label), &model, |b, &model| {
            b.iter(|| {
                let mut join = Streaming::with_decay(theta, DecaySpec::new(model));
                let mut out = Vec::new();
                for r in &stream {
                    join.process(r, &mut out);
                }
                black_box(out.len())
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
