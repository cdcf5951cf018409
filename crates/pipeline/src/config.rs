//! Frontend configuration: module counts, storage capacities, and timing.
//!
//! Defaults reproduce the paper's chosen operating point (Section VI):
//! 8 TRSs with 6 MB of eDRAM in total, 2 ORTs + 2 OVTs with 512 KB each,
//! 22-cycle eDRAM access, 16-cycle per-packet module processing — about
//! 7 MB of on-chip storage sustaining a window of tens of thousands of
//! tasks and a sub-60 ns decode rate.

use tss_sim::Cycle;

/// Timing parameters of the frontend (Table II, "Task pipeline").
#[derive(Debug, Clone)]
pub struct TimingParams {
    /// eDRAM access latency in cycles (22 in Table II).
    pub edram_latency: Cycle,
    /// Per-packet module processing cost in cycles (16 in Table II);
    /// multiplied by the number of operands a packet carries.
    pub packet_cost: Cycle,
    /// Point-to-point latency between frontend modules, in cycles (the
    /// frontend is a tile grid; one message = a few NoC hops).
    pub frontend_hop: Cycle,
    /// Cycles the task-generating thread needs to pack one task
    /// (base cost; the decoupled thread's task-creation code).
    pub task_gen_base: Cycle,
    /// Additional packing cycles per operand.
    pub task_gen_per_operand: Cycle,
}

impl Default for TimingParams {
    fn default() -> Self {
        TimingParams {
            edram_latency: 22,
            packet_cost: 16,
            frontend_hop: 4,
            // ~11 ns + ~2.5 ns/operand at 3.2 GHz: the injected
            // task-creation code packs the kernel pointer and operand
            // values into a stack buffer (Section V).
            task_gen_base: 36,
            task_gen_per_operand: 8,
        }
    }
}

/// Why a [`FrontendConfig`] cannot be built ([`FrontendConfig::check`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `num_trs` is outside 1..=256 (module ids are `u8`).
    NumTrs,
    /// `num_ort` is outside 1..=256.
    NumOrt,
    /// A capacity is below the model's minimum; the text says which.
    TooSmall(&'static str),
}

impl ConfigError {
    /// What the value must be, reading on from the field's name — or
    /// from an embedder's own name for it (the `tss` CLI's flags).
    pub fn must_be(self) -> &'static str {
        match self {
            ConfigError::NumTrs | ConfigError::NumOrt => "must be in 1..=256",
            ConfigError::TooSmall(what) => what,
        }
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let field = match self {
            ConfigError::NumTrs => "num_trs ",
            ConfigError::NumOrt => "num_ort ",
            ConfigError::TooSmall(_) => "",
        };
        write!(f, "{field}{}", self.must_be())
    }
}

/// Sizing and feature configuration of the frontend.
#[derive(Debug, Clone)]
pub struct FrontendConfig {
    /// Number of task reservation stations (8 at the paper's chosen
    /// operating point; Figure 12 sweeps 1–64).
    pub num_trs: usize,
    /// Number of ORTs; each has exactly one associated OVT (2 at the
    /// chosen operating point; Figure 12 sweeps 1–8).
    pub num_ort: usize,
    /// Total eDRAM across all TRSs, in bytes (6 MB chosen; Figure 15
    /// sweeps 128 KB – 8 MB).
    pub trs_total_bytes: u64,
    /// Total eDRAM across all ORTs, in bytes (512 KB chosen; Figure 14
    /// sweeps 16 KB – 1 MB).
    pub ort_total_bytes: u64,
    /// Total eDRAM across all OVTs, in bytes (512 KB; "an equivalent
    /// exploration of the OVT design space suggests they require a
    /// similar capacity", Section VI.B).
    pub ovt_total_bytes: u64,
    /// Gateway incoming-task buffer, in bytes (1 KB, holding ~20 tasks).
    pub gateway_buffer_bytes: u64,
    /// TRS storage block size in bytes (128 B, Figure 11).
    pub trs_block_bytes: u64,
    /// Bytes per ORT map entry: a 4 B tag share of the two 64 B
    /// tag blocks per 16-way set, plus the last-user operand ID and
    /// current-version pointer.
    pub ort_entry_bytes: u64,
    /// ORT set associativity (16-way, Section IV.B.3).
    pub ort_ways: usize,
    /// Bytes per OVT version record (usage count, next-version and
    /// chain-head pointers, rename-buffer address).
    pub ovt_entry_bytes: u64,
    /// Rename `out` operands (true in the paper; `false` is the ablation
    /// that serializes WaR/WaW like inout).
    pub renaming: bool,
    /// Consumer chaining (Figure 10). `false` is the ablation where each
    /// producer keeps a full consumer list and notifies every consumer
    /// directly on task finish (more TRS storage and producer-side
    /// messages; no forwarding hops).
    pub chaining: bool,
    /// Timing parameters.
    pub timing: TimingParams,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        FrontendConfig {
            num_trs: 8,
            num_ort: 2,
            trs_total_bytes: 6 << 20,
            ort_total_bytes: 512 << 10,
            ovt_total_bytes: 512 << 10,
            gateway_buffer_bytes: 1 << 10,
            trs_block_bytes: 128,
            ort_entry_bytes: 16,
            ort_ways: 16,
            ovt_entry_bytes: 32,
            renaming: true,
            chaining: true,
            timing: TimingParams::default(),
        }
    }
}

impl FrontendConfig {
    /// Storage blocks per TRS.
    pub fn blocks_per_trs(&self) -> u32 {
        ((self.trs_total_bytes / self.num_trs as u64) / self.trs_block_bytes) as u32
    }

    /// Map entries per ORT.
    pub fn entries_per_ort(&self) -> u32 {
        ((self.ort_total_bytes / self.num_ort as u64) / self.ort_entry_bytes) as u32
    }

    /// Sets per ORT (entries / ways), at least 1.
    pub fn sets_per_ort(&self) -> u32 {
        (self.entries_per_ort() / self.ort_ways as u32).max(1)
    }

    /// Version records per OVT.
    pub fn records_per_ovt(&self) -> u32 {
        ((self.ovt_total_bytes / self.num_ort as u64) / self.ovt_entry_bytes) as u32
    }

    /// Total frontend eDRAM in bytes (the paper's "7 MB of on-chip
    /// eDRAM" headline for the default configuration).
    pub fn total_edram_bytes(&self) -> u64 {
        self.trs_total_bytes + self.ort_total_bytes + self.ovt_total_bytes
    }

    /// The one statement of what a frontend can be built with: 1..=256
    /// modules of a kind, and capacities that hold at least one maximal
    /// task, one ORT set and two version records.
    pub fn check(&self) -> Result<(), ConfigError> {
        let unless = |holds, e| if holds { Ok(()) } else { Err(e) };
        let small = ConfigError::TooSmall;
        unless((1..=256).contains(&self.num_trs), ConfigError::NumTrs)?;
        unless((1..=256).contains(&self.num_ort), ConfigError::NumOrt)?;
        unless(
            self.blocks_per_trs() >= 4,
            small("each TRS must hold at least one maximal task (4 blocks)"),
        )?;
        unless(
            self.entries_per_ort() >= self.ort_ways as u32,
            small("ORT needs at least one set"),
        )?;
        unless(self.records_per_ovt() >= 2, small("OVT needs at least two version records"))?;
        unless(self.gateway_buffer_bytes >= 64, small("gateway buffer unrealistically small"))
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics with [`FrontendConfig::check`]'s error on a degenerate
    /// setup.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_paper_operating_point() {
        let c = FrontendConfig::default();
        c.validate();
        assert_eq!(c.num_trs, 8);
        assert_eq!(c.num_ort, 2);
        // 6 MB / 8 TRS / 128 B = 6144 blocks per TRS.
        assert_eq!(c.blocks_per_trs(), 6144);
        // 512 KB / 2 / 16 B = 16384 entries; 1024 sets of 16 ways.
        assert_eq!(c.entries_per_ort(), 16384);
        assert_eq!(c.sets_per_ort(), 1024);
        // 512 KB / 2 / 32 B = 8192 version records.
        assert_eq!(c.records_per_ovt(), 8192);
        // The headline: 7 MB of eDRAM.
        assert_eq!(c.total_edram_bytes(), 7 << 20);
    }

    #[test]
    fn window_capacity_matches_paper_claim() {
        // 6 MB of TRS storage yields a window of 12k–50k tasks
        // (Section VI.B): 49,152 single-block tasks, or 12,288 maximal
        // 4-block tasks.
        let c = FrontendConfig::default();
        let blocks_total = c.blocks_per_trs() as u64 * c.num_trs as u64;
        assert_eq!(blocks_total, 49_152);
        assert_eq!(blocks_total / 4, 12_288);
    }

    #[test]
    #[should_panic(expected = "at least one maximal task")]
    fn tiny_trs_rejected() {
        let c = FrontendConfig {
            trs_total_bytes: 128 * 3, // 3 blocks only
            num_trs: 1,
            ..FrontendConfig::default()
        };
        c.validate();
    }

    #[test]
    fn check_names_the_field_and_its_range() {
        let with = |num_trs, num_ort| FrontendConfig { num_trs, num_ort, ..Default::default() };
        assert_eq!(with(256, 256).check(), Ok(()));
        assert_eq!(with(0, 2).check(), Err(ConfigError::NumTrs));
        assert_eq!(with(257, 0).check(), Err(ConfigError::NumTrs));
        assert_eq!(with(8, 0).check(), Err(ConfigError::NumOrt));
        assert_eq!(ConfigError::NumOrt.to_string(), "num_ort must be in 1..=256");
    }

    #[test]
    fn timing_defaults_match_table_two() {
        let t = TimingParams::default();
        assert_eq!(t.edram_latency, 22);
        assert_eq!(t.packet_cost, 16);
    }
}
