//! A synthetic *mixed-class* workload for the scheduling-policy
//! ablations (DESIGN.md §13): every round interleaves bandwidth-bound
//! *stream* tasks with compute-bound *crunch* tasks, so the executor's
//! class router (`tss-exec::payload::task_class`) sees both worker
//! classes in one trace.
//!
//! Not part of [`crate::Benchmark::all`]: Table I has no such
//! application, and the figure pipeline must keep reproducing the
//! paper's nine rows exactly. The `sched` harness (and anything else
//! studying heterogeneous dispatch) builds it directly.
//!
//! Structure per round, `width` independent chains:
//!
//! ```text
//! stream[c] : in  block[c]   (64 KB)   -- memory class (footprint >= 32 KB)
//!             out block'[c]  (64 KB)
//!             out digest[c]  ( 4 KB)
//! crunch[c] : in  digest[c]  ( 4 KB)   -- compute class (footprint <  32 KB)
//!             out result[c]  ( 1 KB)
//! ```
//!
//! The next round's `stream[c]` reads `block'[c]`, so each chain is a
//! pipeline: memory and compute tasks of *different* rounds overlap,
//! which is exactly the steady state a class-aware scheduler has to
//! keep both worker pools fed through.

use crate::common::Layout;
use tss_sim::{Rng, RuntimeDist};
use tss_trace::{OperandDesc, TaskTrace, TraceGenerator};

/// Bytes per streamed block. Two blocks + digest put a stream task's
/// footprint far above the executor's 32 KB memory-class threshold.
pub const STREAM_BLOCK_BYTES: u64 = 64 << 10;

/// Bytes per digest handed from a stream task to its crunch consumer —
/// small enough that the crunch task stays compute-class.
pub const DIGEST_BYTES: u64 = 4 << 10;

/// Trace generator for the mixed stream/crunch pipeline.
#[derive(Debug, Clone)]
pub struct MixedGen {
    /// Independent stream→crunch chains per round.
    pub width: usize,
    /// Pipeline rounds.
    pub rounds: usize,
}

impl MixedGen {
    /// A generator over `width` chains for `rounds` rounds.
    pub fn new(width: usize, rounds: usize) -> Self {
        MixedGen { width, rounds }
    }

    /// Tasks per run: one stream + one crunch per chain per round.
    pub fn task_count(&self) -> usize {
        self.rounds * self.width * 2
    }
}

impl TraceGenerator for MixedGen {
    fn name(&self) -> &str {
        "Mixed"
    }

    fn generate(&self, seed: u64) -> TaskTrace {
        let mut trace = TaskTrace::new("Mixed");
        let stream = trace.add_kernel("stream");
        let crunch = trace.add_kernel("crunch");
        let mut rng = Rng::seeded(seed ^ 0x3D1E);
        let mut layout = Layout::new();
        // Stream runtime is nominal (the mixed payload memcpys the
        // footprint instead of spinning); crunch carries the spin time.
        let stream_dist = RuntimeDist::from_us(8.0, 10.0, 10.0);
        let crunch_dist = RuntimeDist::from_us(20.0, 45.0, 42.0);

        let mut blocks = layout.objects(self.width, STREAM_BLOCK_BYTES);
        for _round in 0..self.rounds {
            for block in &mut blocks {
                let next = layout.object(STREAM_BLOCK_BYTES);
                let digest = layout.object(DIGEST_BYTES);
                trace.push_task(
                    stream,
                    stream_dist.sample(&mut rng),
                    [
                        OperandDesc::input(*block, STREAM_BLOCK_BYTES as u32),
                        OperandDesc::output(next, STREAM_BLOCK_BYTES as u32),
                        OperandDesc::output(digest, DIGEST_BYTES as u32),
                    ],
                );
                let result = layout.object(1 << 10);
                trace.push_task(
                    crunch,
                    crunch_dist.sample(&mut rng),
                    [
                        OperandDesc::input(digest, DIGEST_BYTES as u32),
                        OperandDesc::output(result, 1 << 10),
                    ],
                );
                *block = next;
            }
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tss_trace::{parallelism_profile, DepGraph};

    /// The executor's memory-class footprint threshold (`tss-exec` is a
    /// downstream crate, so the contract is pinned numerically here:
    /// `payload::MEMORY_CLASS_BYTES` = CHUNK_CAP/2 = 32 KB).
    const MEMORY_CLASS_BYTES: u64 = 32 << 10;

    fn footprint(t: &tss_trace::TaskDesc) -> u64 {
        t.operands.iter().map(|o| o.size as u64).sum()
    }

    #[test]
    fn task_count_formula() {
        let gen = MixedGen::new(8, 3);
        assert_eq!(gen.task_count(), 48);
        assert_eq!(gen.generate(0).len(), gen.task_count());
    }

    #[test]
    fn stream_and_crunch_straddle_the_class_threshold() {
        let trace = MixedGen::new(4, 2).generate(7);
        for (i, t) in trace.iter().enumerate() {
            let fp = footprint(t);
            if i % 2 == 0 {
                assert!(fp >= MEMORY_CLASS_BYTES, "stream task {i} footprint {fp}");
            } else {
                assert!(fp < MEMORY_CLASS_BYTES, "crunch task {i} footprint {fp}");
            }
        }
    }

    #[test]
    fn chains_pipeline_through_rounds() {
        let gen = MixedGen::new(2, 2);
        let trace = gen.generate(0);
        let g = DepGraph::from_trace(&trace);
        // Round 0 chain 0: task 0 stream -> task 1 crunch.
        assert!(g.reachable(0, 1), "crunch must wait for its digest");
        // Round 1 chain 0's stream (task 4) reads round 0's out-block.
        assert!(g.reachable(0, 4), "rounds must pipeline through blocks");
        // Chains stay independent.
        assert!(!g.reachable(0, 2) && !g.reachable(2, 0));
    }

    #[test]
    fn wide_parallelism_across_chains() {
        let trace = MixedGen::new(16, 4).generate(3);
        let g = DepGraph::from_trace(&trace);
        let p = parallelism_profile(&trace, &g);
        assert!(p.max_width >= 16, "width {}", p.max_width);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = MixedGen::new(8, 4).generate(11);
        let b = MixedGen::new(8, 4).generate(11);
        assert_eq!(a.tasks(), b.tasks());
    }
}
