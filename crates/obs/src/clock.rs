//! The monotonic timestamp facade (DESIGN.md §12.1).
//!
//! [`Stamp`] is the *only* wall-clock entry point the execution core is
//! allowed to use — tss-lint check 7 bans raw `std::time::Instant::now()`
//! in `crates/exec/src`. Routing every read through one newtype keeps
//! the noop and ring builds timing-identical (the facade is compiled in
//! both) and gives instrumentation a single place to convert stamps to
//! nanoseconds of a run origin for the event rings.

use std::time::{Duration, Instant};

/// A monotonic timestamp; a transparent wrapper over [`Instant`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Stamp(Instant);

impl Stamp {
    /// Reads the monotonic clock.
    #[inline]
    pub fn now() -> Stamp {
        Stamp(Instant::now())
    }

    /// Time elapsed since this stamp was taken.
    #[inline]
    pub fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }

    /// `self - earlier`, saturating to zero (stamps from different
    /// threads may be observed out of order by a few nanoseconds).
    #[inline]
    pub fn since(&self, earlier: Stamp) -> Duration {
        self.0.saturating_duration_since(earlier.0)
    }

    /// Nanoseconds since `origin`, saturating at zero and `u64::MAX`
    /// (ring events store origin-relative u64 nanoseconds).
    #[inline]
    pub fn ns_since(&self, origin: Stamp) -> u64 {
        let d = self.since(origin);
        u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A reading of the *calling thread's* CPU clock
/// (`CLOCK_THREAD_CPUTIME_ID`): the opening stamp of a per-role CPU
/// span (DESIGN.md §12.6). Time a thread spends parked or preempted
/// does not advance it, which is what makes the five role figures of a
/// run add up to the CPU the run cost on a host whose threads share a
/// core. Open and close a span on the same thread. Zero-sized, and
/// [`CpuStamp::elapsed_ns`] a constant zero, in the NoopSink build — no
/// system call is compiled in.
#[derive(Debug, Clone, Copy)]
pub struct CpuStamp(#[cfg(feature = "ring")] u64);

impl CpuStamp {
    /// Reads the calling thread's CPU clock (one system call when
    /// recording; nothing when off).
    #[cfg(feature = "ring")]
    #[inline]
    pub fn now() -> CpuStamp {
        CpuStamp(thread_cpu_ns())
    }

    /// NoopSink: no clock read.
    #[cfg(not(feature = "ring"))]
    #[inline]
    pub fn now() -> CpuStamp {
        CpuStamp()
    }

    /// Nanoseconds of CPU the calling thread has used since this stamp
    /// (saturating at zero).
    #[cfg(feature = "ring")]
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        thread_cpu_ns().saturating_sub(self.0)
    }

    /// NoopSink: nothing was measured.
    #[cfg(not(feature = "ring"))]
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        0
    }
}

/// The calling thread's CPU time in nanoseconds; 0 if the clock cannot
/// be read.
#[cfg(all(feature = "ring", target_os = "linux", target_pointer_width = "64"))]
#[allow(unsafe_code)]
fn thread_cpu_ns() -> u64 {
    /// `struct timespec` of 64-bit Linux: two 64-bit words.
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `timespec` of the layout this
    // target's libc declares, and the call writes nothing else.
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } != 0 {
        return 0;
    }
    (ts.sec as u64).saturating_mul(1_000_000_000).saturating_add(ts.nsec as u64)
}

/// Targets whose thread CPU clock this crate does not bind: the role
/// figures read zero there.
#[cfg(all(feature = "ring", not(all(target_os = "linux", target_pointer_width = "64"))))]
fn thread_cpu_ns() -> u64 {
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A span of real work on this thread reads above zero exactly when
    /// the build records; sleeping does not advance the clock as wall
    /// time does.
    #[test]
    fn cpu_stamps_count_work_not_sleep() {
        let span = CpuStamp::now();
        let wall = Stamp::now();
        std::thread::sleep(Duration::from_millis(20));
        let slept = span.elapsed_ns();
        assert!(
            slept < wall.elapsed().as_nanos() as u64 / 2,
            "a sleep was charged as CPU: {slept}"
        );
        if !cfg!(feature = "ring") {
            assert_eq!(std::mem::size_of::<CpuStamp>(), 0);
            assert_eq!(slept, 0);
            return;
        }
        let span = CpuStamp::now();
        let mut x = 1u64;
        while wall.elapsed() < Duration::from_millis(40) {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        if cfg!(all(target_os = "linux", target_pointer_width = "64")) {
            assert!(span.elapsed_ns() > 1_000_000, "a busy loop used no CPU: {x}");
        }
    }

    #[test]
    fn stamps_are_monotonic_and_saturating() {
        let a = Stamp::now();
        let b = Stamp::now();
        assert_eq!(a.since(b).max(Duration::ZERO), a.since(b), "saturating");
        assert_eq!(a.ns_since(b), 0, "earlier-minus-later saturates to 0");
        assert!(b.ns_since(a) < 1_000_000_000, "two reads within a second");
        assert!(a.elapsed() >= Duration::ZERO);
    }
}
