//! Generalised decay models (§8 future work): the same stream joined
//! under exponential, sliding-window, linear and polynomial forgetting.
//!
//! ```sh
//! cargo run --release --example decay_models
//! ```
//!
//! A bursty stream (topic clusters arriving in waves) makes the semantics
//! visible: the hard window keeps every in-window pair at full strength,
//! the exponential discounts within the burst too, and the heavy-tailed
//! polynomial still joins across bursts the exponential forgets.

use sssj::data::{generate, preset, Preset};
use sssj::prelude::*;

fn main() {
    let mut config = preset(Preset::Tweets, 4_000);
    config = config.with_seed(7);
    let stream = generate(&config);
    let theta = 0.6;

    // Four models calibrated to a comparable ~60-unit horizon at θ=0.6,
    // so differences come from the *shape* of the decay, not its reach.
    let models = [
        DecayModel::exponential((1.0f64 / theta).ln() / 60.0),
        DecayModel::sliding_window(60.0),
        DecayModel::linear(60.0 / (1.0 - theta)),
        DecayModel::polynomial(2.0, 60.0 / (theta.powf(-0.5) - 1.0)),
    ];

    println!("stream: {} records, θ = {theta}\n", stream.len());
    println!(
        "{:<28} {:>9} {:>9} {:>12} {:>12}",
        "model", "τ(θ)", "pairs", "entries", "candidates"
    );
    for model in models {
        let mut join = Streaming::with_decay(theta, DecaySpec::new(model));
        let pairs = run_stream(&mut join, &stream);
        let s = join.stats();
        println!(
            "{:<28} {:>9.1} {:>9} {:>12} {:>12}",
            join.name(),
            join.tau(),
            pairs.len(),
            s.entries_traversed,
            s.candidates
        );
    }

    // The semantic difference on one concrete pair: two identical items
    // 50 time units apart.
    println!("\nsim_Δt for an identical pair at Δt = 50:");
    for model in models {
        println!("  {:<12} {:.3}", model.to_string(), model.factor(50.0));
    }
}
