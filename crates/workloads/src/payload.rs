//! Payload hooks: what a *native* replay should do per task.
//!
//! The traces this crate generates are timing skeletons — operand
//! tuples plus measured runtimes — so a native executor (`tss-exec`)
//! needs a policy for turning a [`TaskDesc`] into actual work. That
//! policy lives here, next to the generators whose operand footprints
//! it interprets, so every payload consumer (the executor, the `exec`
//! harness, future backends) agrees on byte counts.
//!
//! Two hooks:
//!
//! - [`operand_chunks`] — the memory traffic of one task: per tracked
//!   operand, how many bytes to read/write, capped at [`CHUNK_CAP`] so
//!   SPECFEM's ~770 KB operands (Table I) don't turn a replay into a
//!   pure memset benchmark.
//! - [`task_footprint`] / [`trace_footprint`] — aggregate read/write
//!   byte totals, used to size arenas and report traffic rates.

use tss_trace::{TaskDesc, TaskTrace};

/// Per-operand byte cap for synthetic memory traffic (64 KB: enough to
/// sweep an L1 and touch L2, small enough that one task's traffic stays
/// bounded regardless of the trace's declared object sizes).
pub const CHUNK_CAP: usize = 64 << 10;

/// One operand's share of a task's synthetic memory traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OperandChunk {
    /// The operand's base address (identifies the object; a native
    /// replay maps it into its arena, it is not dereferenced).
    pub addr: u64,
    /// Bytes to move for this operand (`min(size, CHUNK_CAP)`).
    pub len: usize,
    /// Whether the payload should read the object.
    pub reads: bool,
    /// Whether the payload should write the object.
    pub writes: bool,
}

/// The capped memory traffic of one task, operand by operand. Scalars
/// are untracked and yield nothing.
pub fn operand_chunks(task: &TaskDesc) -> impl Iterator<Item = OperandChunk> + '_ {
    task.operands.iter().filter(|o| o.is_tracked()).map(|o| OperandChunk {
        addr: o.addr,
        len: (o.size as usize).min(CHUNK_CAP),
        reads: o.dir.reads(),
        writes: o.dir.writes(),
    })
}

/// Aggregate synthetic traffic in bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Bytes read across all (capped) operand chunks.
    pub read_bytes: u64,
    /// Bytes written across all (capped) operand chunks.
    pub write_bytes: u64,
}

impl Footprint {
    fn add(&mut self, c: OperandChunk) {
        if c.reads {
            self.read_bytes += c.len as u64;
        }
        if c.writes {
            self.write_bytes += c.len as u64;
        }
    }
}

/// Capped read/write traffic of one task.
pub fn task_footprint(task: &TaskDesc) -> Footprint {
    let mut f = Footprint::default();
    for c in operand_chunks(task) {
        f.add(c);
    }
    f
}

/// Capped read/write traffic of a whole trace.
pub fn trace_footprint(trace: &TaskTrace) -> Footprint {
    let mut f = Footprint::default();
    for t in trace.iter() {
        for c in operand_chunks(t) {
            f.add(c);
        }
    }
    f
}

/// Deterministic fault roll for one task: whether the chaos layer
/// makes its payload panic.
///
/// The decision is a pure hash of `(seed, task)` — no global RNG state
/// — so a chaos run is replayable from its seed alone and the
/// injected-failure *set* is identical at any worker count (the chaos CI
/// baseline pins exact counts on that guarantee). `rate_ppm` is the
/// injection probability in parts-per-million. The low word of the
/// packed input is 1: the committed failure sets (the chaos baselines
/// and the determinism digests) were rolled with it.
pub fn fault_decision(seed: u64, task: u32, rate_ppm: u32) -> bool {
    if rate_ppm == 0 {
        return false;
    }
    // SplitMix64 finalizer over the packed inputs: cheap, well mixed,
    // and stable across platforms.
    let mut z = seed.wrapping_add((task as u64) << 32 | 1).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    ((z % 1_000_000) as u32) < rate_ppm
}

#[cfg(test)]
mod tests {
    use super::*;
    use tss_trace::{KernelId, OperandDesc, TaskDesc};

    #[test]
    fn chunks_cap_and_classify() {
        let t = TaskDesc::new(
            KernelId(0),
            10,
            vec![
                OperandDesc::input(0x100, 128),
                OperandDesc::output(0x200, (CHUNK_CAP as u32) * 4),
                OperandDesc::inout(0x300, 64),
                OperandDesc::scalar(8),
            ],
        );
        let chunks: Vec<_> = operand_chunks(&t).collect();
        assert_eq!(chunks.len(), 3, "scalars carry no traffic");
        assert_eq!(chunks[1].len, CHUNK_CAP);
        assert!(chunks[0].reads && !chunks[0].writes);
        assert!(!chunks[1].reads && chunks[1].writes);
        assert!(chunks[2].reads && chunks[2].writes);
    }

    #[test]
    fn footprints_sum_reads_and_writes() {
        let t = TaskDesc::new(
            KernelId(0),
            10,
            vec![OperandDesc::input(0x100, 100), OperandDesc::inout(0x300, 50)],
        );
        let f = task_footprint(&t);
        assert_eq!(f.read_bytes, 150);
        assert_eq!(f.write_bytes, 50);
    }

    #[test]
    fn trace_footprint_is_the_task_sum() {
        let tr = crate::Benchmark::MatMul.trace(crate::Scale::Small, 1);
        let total = trace_footprint(&tr);
        let by_task: Footprint =
            tr.iter().map(task_footprint).fold(Footprint::default(), |mut acc, f| {
                acc.read_bytes += f.read_bytes;
                acc.write_bytes += f.write_bytes;
                acc
            });
        assert_eq!(total, by_task);
        assert!(total.read_bytes > 0 && total.write_bytes > 0);
    }

    #[test]
    fn fault_decision_is_pure_and_rate_bounded() {
        // Pure: same inputs, same answer.
        for task in 0..64u32 {
            assert_eq!(fault_decision(42, task, 50_000), fault_decision(42, task, 50_000));
        }
        // Rate 0 never fires; rate 1_000_000 always fires.
        for task in 0..256u32 {
            assert!(!fault_decision(7, task, 0));
            assert!(fault_decision(7, task, 1_000_000));
        }
        // A 5% rate lands in a loose band over a large sample.
        let fired = (0..100_000u32).filter(|&t| fault_decision(1, t, 50_000)).count();
        assert!((3_000..8_000).contains(&fired), "5% rate fired {fired}/100000");
    }

    #[test]
    fn fault_decision_varies_by_seed() {
        // Distinct seeds give distinct failure sets.
        let a: Vec<u32> = (0..1_000).filter(|&t| fault_decision(1, t, 100_000)).collect();
        let b: Vec<u32> = (0..1_000).filter(|&t| fault_decision(2, t, 100_000)).collect();
        assert_ne!(a, b);
    }
}
