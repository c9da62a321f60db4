//! Online self-verification: run a join alongside the exact oracle.
//!
//! [`CheckedJoin`] wraps any [`StreamJoin`] and shadows it with the
//! brute-force sliding-window join, cross-checking the output after
//! every record. It is O(n·w) like the oracle — a debugging and testing
//! aid for downstream users integrating custom pipelines, not a
//! production configuration.

use std::collections::{HashMap, VecDeque};

use sssj_metrics::JoinStats;
use sssj_types::{dot, Decay, SimilarPair, StreamRecord};

use crate::algorithm::StreamJoin;
use crate::config::SssjConfig;

/// How far a similarity may sit from θ before a membership mismatch is
/// considered a real divergence rather than float noise at the boundary.
const BOUNDARY_SLACK: f64 = 1e-9;

/// A [`StreamJoin`] wrapper that verifies every emitted pair against the
/// exact sliding-window oracle and panics on divergence.
pub struct CheckedJoin {
    inner: Box<dyn StreamJoin>,
    config: SssjConfig,
    decay: Decay,
    tau: f64,
    window: VecDeque<StreamRecord>,
    /// Pairs the inner join owes us (completed but possibly buffered,
    /// e.g. by MiniBatch), counted per key: an id that arrives twice
    /// names two vectors, and each arrival pairs on its own.
    owed: HashMap<(u64, u64), u32>,
    /// Pairs whose similarity sits within [`BOUNDARY_SLACK`] of θ —
    /// reporting them is acceptable either way.
    optional: HashMap<(u64, u64), u32>,
}

/// Takes one pair off `key`'s count; false when none is left.
fn take(counts: &mut HashMap<(u64, u64), u32>, key: (u64, u64)) -> bool {
    match counts.get_mut(&key) {
        Some(n) if *n > 1 => *n -= 1,
        Some(_) => {
            counts.remove(&key);
        }
        None => return false,
    }
    true
}

impl CheckedJoin {
    /// Wraps a join for online verification.
    pub fn new(inner: Box<dyn StreamJoin>, config: SssjConfig) -> Self {
        CheckedJoin {
            inner,
            config,
            decay: config.decay(),
            tau: config.tau(),
            window: VecDeque::new(),
            owed: HashMap::new(),
            optional: HashMap::new(),
        }
    }

    fn settle(&mut self, reported: &[SimilarPair]) {
        for p in reported {
            if !take(&mut self.owed, p.key()) && !take(&mut self.optional, p.key()) {
                panic!(
                    "{}: reported pair {:?} (sim {}) the oracle never expected",
                    self.inner.name(),
                    p.key(),
                    p.similarity
                );
            }
        }
    }
}

impl StreamJoin for CheckedJoin {
    fn process(&mut self, record: &StreamRecord, out: &mut Vec<SimilarPair>) {
        // Oracle step.
        while let Some(front) = self.window.front() {
            if record.t.delta(front.t) > self.tau {
                self.window.pop_front();
            } else {
                break;
            }
        }
        for old in &self.window {
            let sim = self
                .decay
                .apply(dot(&record.vector, &old.vector), record.t.delta(old.t));
            let key = (old.id.min(record.id), old.id.max(record.id));
            if sim >= self.config.theta + BOUNDARY_SLACK {
                *self.owed.entry(key).or_default() += 1;
            } else if sim >= self.config.theta - BOUNDARY_SLACK {
                // Within float slack of the threshold: either outcome is
                // acceptable.
                *self.optional.entry(key).or_default() += 1;
            }
        }
        self.window.push_back(record.clone());

        // Subject step.
        let start = out.len();
        self.inner.process(record, out);
        let reported: Vec<SimilarPair> = out[start..].to_vec();
        self.settle(&reported);
    }

    fn finish(&mut self, out: &mut Vec<SimilarPair>) {
        let start = out.len();
        self.inner.finish(out);
        let reported: Vec<SimilarPair> = out[start..].to_vec();
        self.settle(&reported);
        // Every clearly-similar pair must have been reported by now;
        // unreported boundary pairs are fine.
        if !self.owed.is_empty() {
            let mut missing: Vec<_> = self.owed.keys().copied().collect();
            missing.sort_unstable();
            panic!(
                "{}: {} expected pairs never reported, e.g. {:?}",
                self.inner.name(),
                self.owed.values().sum::<u32>(),
                &missing[..missing.len().min(5)]
            );
        }
    }

    fn stats(&self) -> JoinStats {
        self.inner.stats()
    }

    fn live_postings(&self) -> u64 {
        self.inner.live_postings()
    }

    fn name(&self) -> String {
        format!("checked({})", self.inner.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{run_stream, Framework};
    use crate::JoinSpec;
    use sssj_index::IndexKind;
    use sssj_types::{vector::unit_vector, Timestamp};

    fn stream() -> Vec<StreamRecord> {
        (0..50)
            .map(|i| {
                StreamRecord::new(
                    i,
                    Timestamp::new(i as f64 * 0.5),
                    unit_vector(&[(1 + (i % 5) as u32, 1.0), (20, 0.4)]),
                )
            })
            .collect()
    }

    #[test]
    fn correct_joins_pass_verification() {
        let config = SssjConfig::new(0.6, 0.05);
        for framework in Framework::ALL {
            for kind in IndexKind::ALL {
                let mut checked = CheckedJoin::new(
                    JoinSpec::classic(framework, kind, config).build().unwrap(),
                    config,
                );
                let out = run_stream(&mut checked, &stream());
                assert!(!out.is_empty(), "{framework}-{kind}");
                assert!(checked.name().starts_with("checked("));
            }
        }
    }

    /// A deliberately broken join: drops every other pair.
    struct Lossy {
        inner: Box<dyn StreamJoin>,
        parity: bool,
    }

    impl StreamJoin for Lossy {
        fn process(&mut self, record: &StreamRecord, out: &mut Vec<SimilarPair>) {
            let mut mine = Vec::new();
            self.inner.process(record, &mut mine);
            for p in mine {
                self.parity = !self.parity;
                if self.parity {
                    out.push(p);
                }
            }
        }
        fn finish(&mut self, _out: &mut Vec<SimilarPair>) {}
        fn stats(&self) -> JoinStats {
            self.inner.stats()
        }
        fn live_postings(&self) -> u64 {
            self.inner.live_postings()
        }
        fn name(&self) -> String {
            "lossy".into()
        }
    }

    #[test]
    #[should_panic(expected = "never reported")]
    fn missing_pairs_are_detected() {
        let config = SssjConfig::new(0.6, 0.05);
        let lossy = Lossy {
            inner: JoinSpec::classic(Framework::Streaming, IndexKind::L2, config)
                .build()
                .unwrap(),
            parity: false,
        };
        let mut checked = CheckedJoin::new(Box::new(lossy), config);
        run_stream(&mut checked, &stream());
    }

    /// A join that hallucinates a pair.
    struct Noisy {
        inner: Box<dyn StreamJoin>,
        emitted: bool,
    }

    impl StreamJoin for Noisy {
        fn process(&mut self, record: &StreamRecord, out: &mut Vec<SimilarPair>) {
            self.inner.process(record, out);
            if !self.emitted && record.id == 10 {
                self.emitted = true;
                out.push(SimilarPair::new(0, record.id, 0.99));
            }
        }
        fn finish(&mut self, out: &mut Vec<SimilarPair>) {
            self.inner.finish(out);
        }
        fn stats(&self) -> JoinStats {
            self.inner.stats()
        }
        fn live_postings(&self) -> u64 {
            self.inner.live_postings()
        }
        fn name(&self) -> String {
            "noisy".into()
        }
    }

    #[test]
    #[should_panic(expected = "never expected")]
    fn spurious_pairs_are_detected() {
        let config = SssjConfig::new(0.9, 0.5);
        let noisy = Noisy {
            inner: JoinSpec::classic(Framework::Streaming, IndexKind::L2, config)
                .build()
                .unwrap(),
            emitted: false,
        };
        let mut checked = CheckedJoin::new(Box::new(noisy), config);
        run_stream(&mut checked, &stream());
    }
}
