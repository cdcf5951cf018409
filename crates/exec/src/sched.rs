//! The steal scan (DESIGN.md §13): which deques an idle worker tries,
//! in what order. The executor has one scheduling discipline —
//! owner-LIFO deques plus the scheduler bypass, in which a worker runs
//! the last task its completion released without pushing it — and
//! every idle worker steals with this one scan: a random-start rotation
//! over every other worker.

use crate::deque::rotate_victims;

/// Tiny SplitMix64 for the steal-victim rotation.
#[inline]
pub(crate) fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fills `buf` with the steal scan order of idle worker `w` out of
/// `threads`: the pre-§13 inline scan, *including its rng consumption*
/// — one draw of the worker's private SplitMix64 state per scan, and
/// none when there is no victim — so a seeded run is schedule-identical
/// to the inline scan. The scan is complete (every other deque, once),
/// which the park/termination argument requires.
#[inline]
pub(crate) fn victims(w: usize, threads: usize, rng: &mut u64, buf: &mut Vec<usize>) {
    if threads <= 1 {
        buf.clear();
        return;
    }
    let r = splitmix(rng);
    rotate_victims(w, threads, r, buf);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_victims_match_the_baseline_scan() {
        // Same rng stream, same order as the pre-§13 inline code.
        let mut rng_scan = 7u64;
        let mut rng_base = 7u64;
        let mut buf = Vec::new();
        for w in 0..4usize {
            for _ in 0..16 {
                victims(w, 4, &mut rng_scan, &mut buf);
                let others: Vec<usize> = (0..4).filter(|&v| v != w).collect();
                let start = (splitmix(&mut rng_base) as usize) % others.len();
                let want: Vec<usize> =
                    (0..others.len()).map(|i| others[(start + i) % others.len()]).collect();
                assert_eq!(buf, want);
            }
        }
        assert_eq!(rng_scan, rng_base, "rng consumption diverged from the baseline");
        // Single worker: no victims and, critically, no rng draw.
        let before = rng_scan;
        victims(0, 1, &mut rng_scan, &mut buf);
        assert!(buf.is_empty());
        assert_eq!(rng_scan, before);
    }
}
