//! SPECFEM3D-style seismic wave propagation (Table I: earth physics).
//!
//! An explicit time-stepped stencil over a blocked 2D domain
//! decomposition: each task advances one domain block by one time step,
//! reading its four neighbours' *halo* exchanges from the previous step
//! and publishing its own. Halos are double-buffered (as real codes do),
//! so successive steps' halo writes are WaW — renamed by the pipeline.
//! Table I: huge 770 KB footprints (the one benchmark far beyond L1) and
//! a wide 9–49 µs runtime spread.

use crate::common::Layout;
use tss_sim::{Rng, RuntimeDist};
use tss_trace::{OperandDesc, TaskTrace, TraceGenerator};

/// Trace generator for the seismic stencil.
#[derive(Debug, Clone)]
pub struct SpecfemGen {
    /// Domain grid dimension (blocks per side).
    pub grid: usize,
    /// Time steps.
    pub steps: usize,
}

impl SpecfemGen {
    /// A generator for a `grid × grid` decomposition over `steps` steps.
    pub fn new(grid: usize, steps: usize) -> Self {
        SpecfemGen { grid, steps }
    }

    /// Tasks per run (`grid² × steps`).
    pub fn task_count(&self) -> usize {
        self.grid * self.grid * self.steps
    }
}

impl TraceGenerator for SpecfemGen {
    fn name(&self) -> &str {
        "SPECFEM"
    }

    fn generate(&self, seed: u64) -> TaskTrace {
        let mut trace = TaskTrace::new("SPECFEM");
        let step_kernel = trace.add_kernel("advance_block");
        let mut rng = Rng::seeded(seed ^ 0x5bec);
        let mut layout = Layout::new();
        // Table I: min 9 / med 14 / avg 49 us; 770 KB data.
        let dist = RuntimeDist::from_us(9.0, 14.0, 49.0);
        let g = self.grid;
        let cell_bytes: u64 = 700 << 10;
        let halo_bytes: u64 = 16 << 10;

        let cells = layout.objects(g * g, cell_bytes);
        // Double-buffered halos: [parity][block].
        let halos: Vec<Vec<u64>> = (0..2).map(|_| layout.objects(g * g, halo_bytes)).collect();
        let at = |x: usize, y: usize| y * g + x;

        // One scratch list for every task: `push_task` copies it out.
        let mut ops = Vec::with_capacity(6);
        for t in 0..self.steps {
            let read_parity = (t + 1) % 2; // step t reads what t-1 wrote
            let write_parity = t % 2;
            for y in 0..g {
                for x in 0..g {
                    ops.clear();
                    ops.push(OperandDesc::inout(cells[at(x, y)], cell_bytes as u32));
                    if t > 0 {
                        // Neighbour halos from the previous step.
                        if x > 0 {
                            ops.push(OperandDesc::input(
                                halos[read_parity][at(x - 1, y)],
                                halo_bytes as u32,
                            ));
                        }
                        if x + 1 < g {
                            ops.push(OperandDesc::input(
                                halos[read_parity][at(x + 1, y)],
                                halo_bytes as u32,
                            ));
                        }
                        if y > 0 {
                            ops.push(OperandDesc::input(
                                halos[read_parity][at(x, y - 1)],
                                halo_bytes as u32,
                            ));
                        }
                        if y + 1 < g {
                            ops.push(OperandDesc::input(
                                halos[read_parity][at(x, y + 1)],
                                halo_bytes as u32,
                            ));
                        }
                    }
                    ops.push(OperandDesc::output(halos[write_parity][at(x, y)], halo_bytes as u32));
                    trace.push_task(step_kernel, dist.sample(&mut rng), &ops[..]);
                }
            }
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tss_trace::{parallelism_profile, DepGraph};

    #[test]
    fn task_count_formula() {
        let gen = SpecfemGen::new(4, 3);
        assert_eq!(gen.task_count(), 48);
        assert_eq!(gen.generate(0).len(), 48);
    }

    #[test]
    fn stencil_dependencies_cross_steps_only() {
        let g = 4;
        let gen = SpecfemGen::new(g, 2);
        let trace = gen.generate(0);
        let graph = DepGraph::from_trace(&trace);
        let id = |t: usize, x: usize, y: usize| t * g * g + y * g + x;
        // Step-1 center block reads halos written by step-0 neighbours.
        let preds = graph.preds(id(1, 1, 1));
        for (nx, ny) in [(0, 1), (2, 1), (1, 0), (1, 2)] {
            assert!(preds.contains(&id(0, nx, ny)), "missing halo ({nx},{ny})");
        }
        // Same-step blocks are mutually independent.
        assert!(!graph.reachable(id(1, 0, 0), id(1, 3, 3)));
        assert!(!graph.reachable(id(0, 0, 0), id(0, 1, 0)));
    }

    #[test]
    fn parallelism_is_one_step_wide() {
        let g = 6;
        let trace = SpecfemGen::new(g, 8).generate(1);
        let graph = DepGraph::from_trace(&trace);
        let p = parallelism_profile(&trace, &graph);
        assert!(p.max_width >= g * g, "width {} < {}", p.max_width, g * g);
        // ...but steps serialize, so parallelism cannot exceed ~2 steps.
        assert!(p.avg_parallelism < (2 * g * g) as f64);
    }

    #[test]
    fn stats_near_table_one() {
        let trace = SpecfemGen::new(12, 8).generate(3);
        let min_us = trace.min_runtime().unwrap() as f64 / 3200.0;
        let med_us = trace.median_runtime().unwrap() as f64 / 3200.0;
        let avg_us = trace.avg_runtime() / 3200.0;
        assert!((8.5..10.5).contains(&min_us), "min {min_us}");
        assert!((12.0..18.0).contains(&med_us), "med {med_us}");
        assert!((44.0..54.0).contains(&avg_us), "avg {avg_us}");
        let data_kb = trace.avg_data_bytes() / 1024.0;
        assert!((700.0..800.0).contains(&data_kb), "data {data_kb} KB");
    }
}
