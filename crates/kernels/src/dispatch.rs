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
}

impl Lane {
    fn from_u8(v: u8) -> Option<Lane> {
        match v {
            1 => Some(Lane::Scalar),
            2 => Some(Lane::Sse41),
            3 => Some(Lane::Avx2),
            _ => None,
        }
    }

    /// The lane's name as accepted by the `SSSJ_KERNELS` variable.
    pub fn name(self) -> &'static str {
        match self {
            Lane::Scalar => "scalar",
            Lane::Sse41 => "sse4.1",
            Lane::Avx2 => "avx2",
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

/// The lane selected by the environment (or the hardware maximum when no
/// variable is set). Read once; [`force_lane`] exists because this cache
/// makes later `set_var` calls invisible.
fn detected() -> Lane {
    static DETECTED: OnceLock<Lane> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        let requested = match std::env::var("SSSJ_KERNELS").as_deref() {
            Ok("scalar") => Some(Lane::Scalar),
            Ok("sse4.1") | Ok("sse41") => Some(Lane::Sse41),
            Ok("avx2") => Some(Lane::Avx2),
            // Unknown values fall through to auto rather than aborting:
            // a typo in CI must not silently change *correctness*, and
            // every lane computes the same answers.
            _ => None,
        };
        match requested {
            Some(lane) => lane.min(hardware_max()),
            None => hardware_max(),
        }
    })
}

/// The lane kernels will dispatch to right now.
///
/// Resolution order: [`force_lane`] override, then the `SSSJ_KERNELS`
/// environment variable (`scalar` | `sse4.1` | `avx2` | `auto`), then
/// the widest lane the CPU supports. Requests are clamped to the
/// hardware maximum, so asking for `avx2` on an SSE-only machine
/// degrades rather than faulting.
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
        force_lane(Some(Lane::Avx2));
        assert!(active_lane() <= super::hardware_max());
        force_lane(None);
    }

    #[test]
    fn names_roundtrip() {
        for lane in [Lane::Scalar, Lane::Sse41, Lane::Avx2] {
            assert!(!lane.name().is_empty());
        }
    }
}
