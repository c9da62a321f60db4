//! Dimension-ordering strategies (the paper's §8 future work).
//!
//! The filtering framework processes coordinates in a fixed global
//! dimension order: the *prefix* of each vector stays un-indexed and the
//! *suffix* goes into posting lists. Which dimensions land in the suffix
//! therefore controls posting-list lengths. Ordering dimensions by
//! decreasing document frequency puts the frequent ones in the prefix —
//! the classic all-pairs heuristic — leaving short, rare-dimension
//! posting lists.
//!
//! Because the join only depends on dot products, any permutation leaves
//! the *output* unchanged; only the work changes. The `harness dimorder`
//! experiment quantifies the cost/benefit trade-off the paper speculates
//! about.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use sssj_types::{DimId, SparseVectorBuilder, StreamRecord};

/// A bijective remapping of the dimensions used by a stream.
#[derive(Clone, Debug)]
pub struct DimOrdering {
    /// `map[old_dim] = new_dim`; identity for untouched dims.
    map: Vec<DimId>,
}

impl DimOrdering {
    fn from_ranked(ranked: Vec<DimId>, dims: usize) -> Self {
        let mut map: Vec<DimId> = (0..dims as DimId).collect();
        for (new, old) in ranked.into_iter().enumerate() {
            map[old as usize] = new as DimId;
        }
        DimOrdering { map }
    }

    fn frequencies(records: &[StreamRecord]) -> Vec<(u64, DimId)> {
        let dims = records
            .iter()
            .flat_map(|r| r.vector.dims())
            .copied()
            .max()
            .map_or(0, |d| d as usize + 1);
        let mut freq = vec![0u64; dims];
        for r in records {
            for &d in r.vector.dims() {
                freq[d as usize] += 1;
            }
        }
        freq.into_iter()
            .enumerate()
            .map(|(d, f)| (f, d as DimId))
            .collect()
    }

    /// Most frequent dimension first (ends up in the un-indexed prefix;
    /// the all-pairs heuristic).
    pub fn frequency_descending(records: &[StreamRecord]) -> Self {
        let mut by_freq = Self::frequencies(records);
        let dims = by_freq.len();
        by_freq.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        Self::from_ranked(by_freq.into_iter().map(|(_, d)| d).collect(), dims)
    }

    /// Rarest dimension first (the adversarial order: frequent dims get
    /// indexed, posting lists explode).
    pub fn frequency_ascending(records: &[StreamRecord]) -> Self {
        let mut by_freq = Self::frequencies(records);
        let dims = by_freq.len();
        by_freq.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        Self::from_ranked(by_freq.into_iter().map(|(_, d)| d).collect(), dims)
    }

    /// A seeded random permutation — the order-agnostic control.
    pub fn shuffled(records: &[StreamRecord], seed: u64) -> Self {
        let dims = records
            .iter()
            .flat_map(|r| r.vector.dims())
            .copied()
            .max()
            .map_or(0, |d| d as usize + 1);
        let mut ranked: Vec<DimId> = (0..dims as DimId).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        // Fisher–Yates.
        for i in (1..ranked.len()).rev() {
            let j = rng.random_range(0..=i);
            ranked.swap(i, j);
        }
        Self::from_ranked(ranked, dims)
    }

    /// The new id of an old dimension.
    pub fn remap(&self, dim: DimId) -> DimId {
        self.map.get(dim as usize).copied().unwrap_or(dim)
    }

    /// Applies the remapping to a whole stream (weights untouched, dims
    /// re-sorted under the new order).
    pub fn apply(&self, records: &[StreamRecord]) -> Vec<StreamRecord> {
        records
            .iter()
            .map(|r| {
                let mut b = SparseVectorBuilder::with_capacity(r.vector.nnz());
                for (d, w) in r.vector.iter() {
                    b.push(self.remap(d), w);
                }
                StreamRecord::new(r.id, r.t, b.build_normalized().expect("weights unchanged"))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sssj_types::{dot, vector::unit_vector, Timestamp};

    fn rec(id: u64, entries: &[(u32, f64)]) -> StreamRecord {
        StreamRecord::new(id, Timestamp::new(id as f64), unit_vector(entries))
    }

    fn sample() -> Vec<StreamRecord> {
        vec![
            rec(0, &[(0, 1.0), (1, 1.0), (2, 1.0)]),
            rec(1, &[(0, 1.0), (1, 1.0)]),
            rec(2, &[(0, 1.0)]),
        ]
    }

    #[test]
    fn descending_puts_frequent_dims_first() {
        let ord = DimOrdering::frequency_descending(&sample());
        // dim 0 appears 3×, dim 1 2×, dim 2 1× — already in order.
        assert_eq!(ord.remap(0), 0);
        assert_eq!(ord.remap(1), 1);
        assert_eq!(ord.remap(2), 2);
    }

    #[test]
    fn ascending_reverses_frequency_rank() {
        let ord = DimOrdering::frequency_ascending(&sample());
        assert_eq!(ord.remap(0), 2);
        assert_eq!(ord.remap(2), 0);
    }

    #[test]
    fn remap_is_a_bijection() {
        let records = sample();
        for ord in [
            DimOrdering::frequency_descending(&records),
            DimOrdering::frequency_ascending(&records),
            DimOrdering::shuffled(&records, 7),
        ] {
            let mut targets: Vec<u32> = (0..3).map(|d| ord.remap(d)).collect();
            targets.sort_unstable();
            assert_eq!(targets, vec![0, 1, 2]);
        }
    }

    #[test]
    fn apply_preserves_dot_products() {
        let records = sample();
        let ord = DimOrdering::shuffled(&records, 99);
        let mapped = ord.apply(&records);
        for i in 0..records.len() {
            for j in 0..records.len() {
                let a = dot(&records[i].vector, &records[j].vector);
                let b = dot(&mapped[i].vector, &mapped[j].vector);
                assert!((a - b).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn unknown_dims_pass_through() {
        let ord = DimOrdering::frequency_descending(&sample());
        assert_eq!(ord.remap(1000), 1000);
    }
}
