//! Regenerates **Table II**: the simulated system parameters, as
//! configured in this reproduction's defaults.

use tss_backend::BackendConfig;
use tss_core::Table;
use tss_mem::HierarchyConfig;
use tss_pipeline::FrontendConfig;

fn main() {
    let fe = FrontendConfig::default();
    let be = BackendConfig::for_cores(256);
    // Of the memory rows only the L1 size and L2/DRAM costs feed a figure: `motivation`'s knee.
    let mem = HierarchyConfig::default();

    let mut t = Table::new("Table II: simulated system parameters", &["Component", "Setting"]);
    t.row(vec![
        "Cores".into(),
        format!("32-256 cores, in-order, trace-driven, {} GHz", tss_sim::CLOCK_GHZ),
    ]);
    t.row(vec![
        "L1".into(),
        format!(
            "private, {} KB, {}-way set-associative, {} cycle latency",
            mem.l1.size_bytes >> 10,
            mem.l1.ways,
            mem.l1_latency
        ),
    ]);
    t.row(vec![
        "L2".into(),
        format!(
            "shared, {} banks with {} MB per bank, {}-way, {} cycles latency, directory MSI",
            mem.l2_banks,
            mem.l2_bank_cfg.size_bytes >> 20,
            mem.l2_bank_cfg.ways,
            mem.l2_latency
        ),
    ]);
    t.row(vec![
        "Memory".into(),
        format!(
            "{} memory controllers, {} channels per MC, DDR3 ({} B/cycle per ch.)",
            mem.dram.controllers, mem.dram.channels_per_ctrl, mem.dram.bytes_per_cycle
        ),
    ]);
    t.row(vec![
        "Interconnect".into(),
        format!(
            "segmented two-level ring, {} bytes/cycle, {} concurrent connections per segment, \
             {} cores per local ring",
            be.ring.bytes_per_cycle, be.ring.lanes, be.ring.cores_per_ring
        ),
    ]);
    t.row(vec![
        "Task pipeline".into(),
        format!(
            "{} cycles eDRAM latency, {} cycles module processing per packet",
            fe.timing.edram_latency, fe.timing.packet_cost
        ),
    ]);
    t.row(vec![
        "Frontend".into(),
        format!(
            "{} TRS ({} MB), {} ORT+OVT ({} KB + {} KB), {} KB gateway buffer; \
             {} MB total eDRAM",
            fe.num_trs,
            fe.trs_total_bytes >> 20,
            fe.num_ort,
            fe.ort_total_bytes >> 10,
            fe.ovt_total_bytes >> 10,
            fe.gateway_buffer_bytes >> 10,
            fe.total_edram_bytes() >> 20
        ),
    ]);
    println!("{}", t.render());
}
