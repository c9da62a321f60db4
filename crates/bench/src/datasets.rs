//! Dataset sizing and caching for the harness.

use std::collections::HashMap;

use sssj_data::{generate, preset, Preset};
use sssj_types::StreamRecord;

/// Default stream length per preset at scale 1.0.
///
/// Sized so the full harness (≈1000 runs) completes in minutes on a
/// laptop while preserving the relative dataset sizes of Table 1 (Tweets
/// largest, WebSpam smallest-but-densest).
pub fn default_n(which: Preset, scale: f64) -> usize {
    let base = match which {
        Preset::WebSpam => 600,
        Preset::Rcv1 => 2_500,
        Preset::Blogs => 2_500,
        Preset::Tweets => 6_000,
        // Stress preset (not in Table 1): every record collides, so a
        // modest stream already carries a heavy candidate load.
        Preset::Dense => 2_000,
    };
    ((base as f64 * scale) as usize).max(10)
}

/// A cache of generated preset streams.
#[derive(Default)]
pub struct DatasetCache {
    scale: f64,
    streams: HashMap<Preset, Vec<StreamRecord>>,
}

impl DatasetCache {
    /// Creates a cache generating at the given scale factor.
    pub fn new(scale: f64) -> Self {
        DatasetCache {
            scale,
            streams: HashMap::new(),
        }
    }

    /// The scale factor streams are generated at.
    pub(crate) fn scale(&self) -> f64 {
        self.scale
    }

    /// The stream for a preset, generated on first use.
    pub fn get(&mut self, which: Preset) -> &[StreamRecord] {
        let scale = self.scale;
        self.streams
            .entry(which)
            .or_insert_with(|| generate(&preset(which, default_n(which, scale))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_shrinks_datasets() {
        assert!(default_n(Preset::Tweets, 0.1) < default_n(Preset::Tweets, 1.0));
        assert!(default_n(Preset::Tweets, 1e-9) >= 10);
    }

    #[test]
    fn cache_generates_once() {
        let mut cache = DatasetCache::new(0.02);
        let a_len = cache.get(Preset::Rcv1).len();
        let b_len = cache.get(Preset::Rcv1).len();
        assert_eq!(a_len, b_len);
        assert_eq!(cache.streams.len(), 1);
    }
}
