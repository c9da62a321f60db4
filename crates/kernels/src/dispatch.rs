//! Runtime lane selection: CPU feature detection, environment override,
//! and an in-process force switch for A/B harnesses.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// An instruction-set lane a kernel can execute on, ordered from the
/// portable baseline upward. Every kernel supports [`Lane::Scalar`];
/// wider lanes are selected only when the CPU advertises them.
#[repr(u8)]
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lane {
    /// Portable Rust — the reference implementation of every kernel.
    Scalar = 1,
    /// SSE4.1: 128-bit integer compares (`pcmpeqd`) for the dim lanes.
    Sse41 = 2,
    /// AVX2: 256-bit `f64` arithmetic and gathers.
    Avx2 = 3,
    /// AVX-512 F + VL (with AVX2 and POPCNT): 512-bit lanes with mask
    /// registers, masked scatters and compress-stores. Only STR-L2's list pass
    /// (`sssj_collections::ScoreAccumulator::accumulate_l2_list_rev`)
    /// has a body of its own here; every kernel of this crate runs its
    /// AVX2 body on this lane.
    Avx512 = 4,
}

impl Lane {
    fn from_u8(v: u8) -> Option<Lane> {
        match v {
            1 => Some(Lane::Scalar),
            2 => Some(Lane::Sse41),
            3 => Some(Lane::Avx2),
            4 => Some(Lane::Avx512),
            _ => None,
        }
    }

    /// The lane's name as accepted by the `SSSJ_KERNELS` variable.
    pub fn name(self) -> &'static str {
        match self {
            Lane::Scalar => "scalar",
            Lane::Sse41 => "sse4.1",
            Lane::Avx2 => "avx2",
            Lane::Avx512 => "avx512",
        }
    }
}

/// In-process override installed by [`force_lane`]; `0` means "none".
static FORCED: AtomicU8 = AtomicU8::new(0);

/// The widest lane the CPU supports. Cached after the first probe.
fn hardware_max() -> Lane {
    static HW: OnceLock<Lane> = OnceLock::new();
    *HW.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            // std's probe also checks that the OS saves the wider state.
            // The lane runs the AVX2 bodies of every other kernel and
            // counts mask bits with POPCNT, so it needs both (every
            // AVX-512 CPU has them).
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512vl")
                && std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("popcnt")
            {
                return Lane::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return Lane::Avx2;
            }
            if std::arch::is_x86_feature_detected!("sse4.1") {
                return Lane::Sse41;
            }
        }
        Lane::Scalar
    })
}

/// The lane an `SSSJ_KERNELS` value asks for, or `None` for `auto`.
/// Unknown values fall through to auto rather than aborting: a typo in
/// CI must not silently change *correctness*, and every lane computes
/// the same answers.
fn parse_lane(value: &str) -> Option<Lane> {
    match value {
        "scalar" => Some(Lane::Scalar),
        "sse4.1" | "sse41" => Some(Lane::Sse41),
        "avx2" => Some(Lane::Avx2),
        "avx512" => Some(Lane::Avx512),
        _ => None,
    }
}

/// The lane an `SSSJ_KERNELS` value selects: the requested lane clamped
/// to the hardware maximum, or the hardware maximum itself.
fn resolve(value: Option<&str>) -> Lane {
    match value.and_then(parse_lane) {
        Some(lane) => lane.min(hardware_max()),
        None => hardware_max(),
    }
}

/// The lane selected by the environment (or the hardware maximum when no
/// variable is set). Read once; [`force_lane`] exists because this cache
/// makes later `set_var` calls invisible.
fn detected() -> Lane {
    static DETECTED: OnceLock<Lane> = OnceLock::new();
    *DETECTED.get_or_init(|| resolve(std::env::var("SSSJ_KERNELS").ok().as_deref()))
}

/// The lane kernels will dispatch to right now.
///
/// Resolution order: [`force_lane`] override, then the `SSSJ_KERNELS`
/// environment variable (`scalar` | `sse4.1` | `avx2` | `avx512` |
/// `auto`), then the widest lane the CPU supports. Requests are clamped
/// to the hardware maximum, so asking for `avx512` on an AVX2-only
/// machine degrades rather than faulting.
#[inline]
pub fn active_lane() -> Lane {
    match Lane::from_u8(FORCED.load(Ordering::Relaxed)) {
        Some(lane) => lane.min(hardware_max()),
        None => detected(),
    }
}

/// Forces every subsequent kernel call in this process onto `lane`
/// (clamped to the hardware maximum); `None` restores environment/auto
/// selection. This is the A/B switch used by the differential tests and
/// the micro benchmarks — the environment variable alone cannot serve,
/// because [`active_lane`] caches it on first use.
///
/// The override is process-global; concurrent benchmark threads flipping
/// it race benignly (every lane is correct) but will blur an A/B timing.
pub fn force_lane(lane: Option<Lane>) {
    FORCED.store(lane.map_or(0, |l| l as u8), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// Serialises the tests that force the process-global lane: the test
    /// harness runs them on parallel threads, and one forcing a lane
    /// while another reads `auto` makes the reader see the forced lane.
    static LANE: Mutex<()> = Mutex::new(());

    fn lane_lock() -> MutexGuard<'static, ()> {
        // A failed sibling poisons the lock; it guards no data, so the
        // guard is recovered rather than failing this test too.
        LANE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn lanes_are_ordered() {
        assert!(Lane::Scalar < Lane::Sse41);
        assert!(Lane::Sse41 < Lane::Avx2);
        assert!(Lane::Avx2 < Lane::Avx512);
    }

    #[test]
    fn force_overrides_and_restores() {
        let _lane = lane_lock();
        let auto = active_lane();
        force_lane(Some(Lane::Scalar));
        assert_eq!(active_lane(), Lane::Scalar);
        force_lane(None);
        assert_eq!(active_lane(), auto);
    }

    #[test]
    fn forced_lane_is_clamped_to_hardware() {
        let _lane = lane_lock();
        for lane in [Lane::Avx2, Lane::Avx512] {
            force_lane(Some(lane));
            assert_eq!(active_lane(), lane.min(super::hardware_max()));
        }
        force_lane(None);
    }

    #[test]
    fn names_roundtrip() {
        for lane in [Lane::Scalar, Lane::Sse41, Lane::Avx2, Lane::Avx512] {
            assert!(!lane.name().is_empty());
            assert_eq!(Lane::from_u8(lane as u8), Some(lane));
            assert_eq!(parse_lane(lane.name()), Some(lane));
        }
        assert_eq!(Lane::Avx512.name(), "avx512");
        assert_eq!(parse_lane("sse41"), Some(Lane::Sse41));
        assert_eq!(parse_lane("auto"), None);
    }

    #[test]
    fn environment_requests_are_clamped_to_hardware() {
        let hw = super::hardware_max();
        assert_eq!(resolve(Some("avx512")), Lane::Avx512.min(hw));
        assert_eq!(resolve(Some("avx2")), Lane::Avx2.min(hw));
        assert_eq!(resolve(Some("scalar")), Lane::Scalar);
        assert_eq!(resolve(Some("auto")), hw);
        assert_eq!(resolve(Some("avx1024")), hw);
        assert_eq!(resolve(None), hw);
    }
}
