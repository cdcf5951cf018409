//! The simulated CMP's memory system (paper, Table II) as plain data, and
//! the closed-form Section II task-runtime model that reads it. No figure
//! walks a cache: `table2` prints [`HierarchyConfig`] and `motivation`
//! the L1 knee of [`TaskRuntimeModel`].

#![forbid(unsafe_code)]

use tss_sim::Cycle;

/// Geometry of one cache (an L1, or one L2 bank), in bytes and ways.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    pub size_bytes: u64,
    pub ways: usize,
    pub line_bytes: u64,
}

/// Main memory: controllers, channels per controller, the fixed access
/// (row activate + CAS) latency in core cycles, and each channel's
/// bandwidth in bytes per core cycle.
#[derive(Debug, Clone)]
pub struct DramConfig {
    pub controllers: usize,
    pub channels_per_ctrl: usize,
    pub access_cycles: Cycle,
    pub bytes_per_cycle: u64,
}

/// Memory-system parameters, latencies in core cycles. The default is
/// Table II's: private 64 KB 4-way L1s, a shared L2 of 32 × 4 MB 8-way
/// banks with the MSI directory embedded in it, and 4 dual-channel
/// DDR3-800 controllers.
#[derive(Debug, Clone)]
pub struct HierarchyConfig {
    pub l1: CacheConfig,
    pub l1_latency: Cycle,
    pub l2_banks: usize,
    pub l2_bank_cfg: CacheConfig,
    pub l2_latency: Cycle,
    pub dram: DramConfig,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            l1: CacheConfig { size_bytes: 64 << 10, ways: 4, line_bytes: 64 },
            l1_latency: 3,
            l2_banks: 32,
            l2_bank_cfg: CacheConfig { size_bytes: 4 << 20, ways: 8, line_bytes: 64 },
            l2_latency: 22,
            // ~30 ns device latency at 3.2 GHz; DDR3-800 moves 8 B ×
            // 1600 MT/s = 12.8 GB/s ≈ 4 B per core cycle.
            dram: DramConfig {
                controllers: 4,
                channels_per_ctrl: 2,
                access_cycles: 96,
                bytes_per_cycle: 4,
            },
        }
    }
}

/// The Section-II motivation model: task runtime against working-set
/// size, for a task alone on one core that sweeps its block `passes`
/// times (reading on even passes, writing on odd) at
/// `compute_cycles_per_byte`. A 64 B line stalls for its cold fill on
/// the first pass (L2 22 + DRAM 96 + 64 B at 4 B/cycle 16 = 134), then
/// for one L2 round trip (22) per later pass that misses the L1: just
/// the first write's S→M upgrade if the block fits the L1, every later
/// pass if not. So `stalls = lines × (fill + l2 × (fits ? 1 : passes −
/// 1))` and `runtime = compute + stalls`; at 16 passes, 156 stall cycles
/// a line up to 64 KB and 464 above, against 512 of compute.
///
/// These are the deleted cycle-level L1/L2/MSI/DRAM model's cycles
/// exactly, outside two ranges no printed row reaches: from 64 to 80 KB
/// the block overflowed only some 4-way L1 sets (72 KB: 327 stall cycles
/// a line, not 464), and past 4 MB that model's L2, indexing each bank
/// by the global line address, missed on every pass.
#[derive(Debug, Clone)]
pub struct TaskRuntimeModel {
    /// Pure compute cost per byte touched (cycles).
    pub compute_cycles_per_byte: f64,
    /// Number of sweeps over the working set.
    pub passes: u32,
}

impl Default for TaskRuntimeModel {
    fn default() -> Self {
        // Enough reuse for an L1-resident block to amortize its cold misses.
        TaskRuntimeModel { compute_cycles_per_byte: 0.5, passes: 16 }
    }
}

impl TaskRuntimeModel {
    /// Estimates `(total_runtime, stall_cycles)` for a task with a
    /// working set of `block_bytes`, executed alone on one core.
    pub fn estimate(&self, block_bytes: u64) -> (Cycle, Cycle) {
        let h = HierarchyConfig::default();
        let line = h.l1.line_bytes;
        let fill = h.l2_latency + h.dram.access_cycles + line / h.dram.bytes_per_cycle;
        let passes = u64::from(self.passes);
        let later = passes.saturating_sub(1);
        let trips = if block_bytes <= h.l1.size_bytes { later.min(1) } else { later };
        let stalls = block_bytes.div_ceil(line) * (fill * passes.min(1) + h.l2_latency * trips);
        let compute = (self.compute_cycles_per_byte * (block_bytes * passes) as f64) as Cycle;
        (compute + stalls, stalls)
    }

    /// Stall fraction (`stalls / runtime`) for a working set size.
    pub fn stall_fraction(&self, block_bytes: u64) -> f64 {
        let (rt, st) = self.estimate(block_bytes);
        st as f64 / rt.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimates_are_the_deleted_cycle_models_runtime_and_stalls() {
        let m = TaskRuntimeModel::default();
        assert_eq!(m.estimate(8 << 10), (85_504, 19_968));
        assert_eq!(m.estimate(64 << 10), (684_032, 159_744));
        assert_eq!(m.estimate(96 << 10), (1_499_136, 712_704));
        assert_eq!(m.estimate(512 << 10), (7_995_392, 3_801_088));
    }

    #[test]
    fn runtime_model_knees_at_l1_capacity() {
        let m = TaskRuntimeModel::default();
        // Well under 64 KB: second and later passes all hit L1.
        let small = m.stall_fraction(16 << 10);
        // Well over 64 KB: every pass thrashes.
        let large = m.stall_fraction(512 << 10);
        assert!(
            large > 2.0 * small,
            "stall fraction must jump past the L1 knee: {small:.3} -> {large:.3}"
        );
    }

    #[test]
    fn runtime_grows_superlinearly_past_l1() {
        let m = TaskRuntimeModel::default();
        let (rt_64k, _) = m.estimate(64 << 10);
        let (rt_256k, _) = m.estimate(256 << 10);
        // 4x the data must cost more than 4x the time once thrashing.
        assert!(rt_256k > 4 * rt_64k, "{rt_64k} -> {rt_256k}");
    }
}
