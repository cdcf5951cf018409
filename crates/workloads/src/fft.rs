//! 2D Fast Fourier Transform (Table I: signal processing).
//!
//! The classic decomposition: per-row-block 1D FFTs, a blocked
//! transpose, then per-column-block 1D FFTs — repeated over a stream of
//! independent frames. The transpose forms an all-to-all shuffle: each
//! column task gathers one tile from every row block, which is the
//! barrier-like phase structure that makes FFT latency-sensitive.

use crate::common::Layout;
use tss_sim::{Rng, RuntimeDist};
use tss_trace::{OperandDesc, Operands, TaskTrace, TraceGenerator};

/// Trace generator for the 2D FFT.
#[derive(Debug, Clone)]
pub struct FftGen {
    /// Row/column blocks per frame (`P`); column tasks gather `P` tiles,
    /// so `P + 1` must stay within the 19-operand limit.
    pub blocks: usize,
    /// Independent frames (the paper streams transforms).
    pub frames: usize,
}

impl FftGen {
    /// A generator for `frames` transforms of `blocks` row/col blocks.
    ///
    /// # Panics
    ///
    /// Panics if `blocks + 1` exceeds the 19-operand TRS limit.
    pub fn new(blocks: usize, frames: usize) -> Self {
        assert!(blocks < tss_trace::MAX_OPERANDS, "column task operands exceed TRS limit");
        FftGen { blocks, frames }
    }

    /// Tasks per run: `frames × (P row + P² transpose + P col)`.
    pub fn task_count(&self) -> usize {
        self.frames * (self.blocks + self.blocks * self.blocks + self.blocks)
    }
}

impl TraceGenerator for FftGen {
    fn name(&self) -> &str {
        "FFT"
    }

    fn generate(&self, seed: u64) -> TaskTrace {
        let mut trace = TaskTrace::new("FFT");
        let fft_row = trace.add_kernel("fft1d_row");
        let transpose = trace.add_kernel("transpose");
        let fft_col = trace.add_kernel("fft1d_col");
        let mut rng = Rng::seeded(seed ^ 0xFF7);
        let mut layout = Layout::new();
        let p = self.blocks;
        // Table I: min 13 / med 14 / avg 26 us; 10 KB data.
        let dist = RuntimeDist::from_us(13.0, 14.0, 26.0);
        let row_bytes: u64 = 8 << 10;
        let tile_bytes: u64 = 512;
        let twiddle = layout.object(2 << 10);

        for _frame in 0..self.frames {
            let rows = layout.objects(p, row_bytes);
            let cols = layout.objects(p, row_bytes);
            // Tiles: tile[i][j] carries row block i's contribution to
            // column block j.
            let tiles: Vec<Vec<u64>> = (0..p).map(|_| layout.objects(p, tile_bytes)).collect();

            for &row in &rows {
                trace.push_task(
                    fft_row,
                    dist.sample(&mut rng),
                    [
                        OperandDesc::inout(row, row_bytes as u32),
                        OperandDesc::input(twiddle, 2 << 10),
                    ],
                );
            }
            for (i, &row) in rows.iter().enumerate() {
                for &tile in &tiles[i] {
                    trace.push_task(
                        transpose,
                        dist.sample(&mut rng),
                        [
                            OperandDesc::input(row, row_bytes as u32),
                            OperandDesc::output(tile, tile_bytes as u32),
                        ],
                    );
                }
            }
            for (j, &col) in cols.iter().enumerate() {
                let ops: Operands = (0..p)
                    .map(|i| OperandDesc::input(tiles[i][j], tile_bytes as u32))
                    .chain([OperandDesc::output(col, row_bytes as u32)])
                    .collect();
                trace.push_task(fft_col, dist.sample(&mut rng), ops);
            }
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tss_trace::DepGraph;

    #[test]
    fn task_count_formula() {
        let gen = FftGen::new(8, 3);
        assert_eq!(gen.generate(0).len(), 3 * (8 + 64 + 8));
        assert_eq!(gen.task_count(), 3 * 80);
    }

    #[test]
    fn column_tasks_wait_for_all_their_tiles() {
        let p = 4;
        let trace = FftGen::new(p, 1).generate(0);
        let g = DepGraph::from_trace(&trace);
        // First column task is task p + p^2; it depends on p transposes.
        let col0 = p + p * p;
        assert_eq!(g.preds(col0).len(), p);
        // And transitively on every row FFT.
        for row in 0..p {
            assert!(g.reachable(row, col0), "row {row} must reach col 0");
        }
    }

    #[test]
    fn frames_are_independent() {
        let p = 4;
        let per_frame = p + p * p + p;
        let trace = FftGen::new(p, 2).generate(0);
        let g = DepGraph::from_trace(&trace);
        assert!(!g.reachable(0, per_frame), "frames must not depend on each other");
    }

    #[test]
    fn stats_near_table_one() {
        let trace = FftGen::new(16, 6).generate(11);
        let min_us = trace.min_runtime().unwrap() as f64 / 3200.0;
        let med_us = trace.median_runtime().unwrap() as f64 / 3200.0;
        let avg_us = trace.avg_runtime() / 3200.0;
        assert!((12.5..14.5).contains(&min_us), "min {min_us}");
        assert!((13.0..16.0).contains(&med_us), "med {med_us}");
        assert!((23.0..29.0).contains(&avg_us), "avg {avg_us}");
        let data_kb = trace.avg_data_bytes() / 1024.0;
        assert!((7.0..13.0).contains(&data_kb), "data {data_kb} KB");
    }

    #[test]
    #[should_panic(expected = "operands exceed")]
    fn too_many_blocks_rejected() {
        let _ = FftGen::new(19, 1);
    }
}
