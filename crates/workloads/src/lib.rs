//! The nine benchmark applications of Table I, as task-trace generators.
//!
//! The paper's traces were captured from real StarSs applications on
//! real hardware; this crate synthesizes traces that reproduce what the
//! evaluation is actually sensitive to (DESIGN.md §2):
//!
//! 1. the **dependency structure** of each application (blocked Cholesky
//!    DAG, H264 wavefront + 60-frame references, stencils, reductions,
//!    stage pipelines),
//! 2. the **operand counts and data sizes** per task, and
//! 3. the **runtime distribution** — calibrated so each generated trace
//!    reproduces Table I's min / median / average runtimes (and the
//!    "~95% of tasks over 100 µs" property for H264 and Knn).
//!
//! All generators are deterministic per seed.

#![forbid(unsafe_code)]

pub mod cholesky;
pub mod common;
pub mod fft;
pub mod h264;
pub mod kmeans;
pub mod knn;
pub mod matmul;
pub mod payload;
pub mod pbpi;
pub mod specfem;
pub mod stap;

pub use common::{Layout, PiecewiseUs};
use tss_trace::{TaskTrace, TraceGenerator};

/// How large a trace to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// ~0.5–2k tasks: fast enough for CI tests.
    Small,
    /// ~4–10k tasks: the default for regenerating the paper's figures.
    Paper,
    /// ~20k+ tasks: stress runs (window-size studies need deep traces).
    Large,
}

impl Scale {
    /// Parses a CLI scale name (`small` / `paper` / `large`).
    pub fn parse(name: &str) -> Option<Scale> {
        match name {
            "small" => Some(Scale::Small),
            "paper" => Some(Scale::Paper),
            "large" => Some(Scale::Large),
            _ => None,
        }
    }

    /// The CLI name (inverse of [`Scale::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            Scale::Small => "small",
            Scale::Paper => "paper",
            Scale::Large => "large",
        }
    }
}

/// The nine Table-I benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// Blocked Cholesky decomposition (math kernel).
    Cholesky,
    /// Blocked matrix multiplication (math kernel).
    MatMul,
    /// 2D Fast Fourier Transform (signal processing).
    Fft,
    /// H.264 HD video decoding (multimedia).
    H264,
    /// K-Means clustering (machine learning).
    KMeans,
    /// K-Nearest Neighbors (pattern recognition).
    Knn,
    /// Bayesian phylogenetic inference (bioinformatics).
    Pbpi,
    /// Seismic wave propagation (earth physics).
    Specfem,
    /// Space-time adaptive processing (radar physics).
    Stap,
}

impl Benchmark {
    /// All nine, in Table I order.
    pub fn all() -> [Benchmark; 9] {
        [
            Benchmark::Cholesky,
            Benchmark::MatMul,
            Benchmark::Fft,
            Benchmark::H264,
            Benchmark::KMeans,
            Benchmark::Knn,
            Benchmark::Pbpi,
            Benchmark::Specfem,
            Benchmark::Stap,
        ]
    }

    /// Table I name.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Cholesky => "Cholesky",
            Benchmark::MatMul => "MatMul",
            Benchmark::Fft => "FFT",
            Benchmark::H264 => "H264",
            Benchmark::KMeans => "KMeans",
            Benchmark::Knn => "Knn",
            Benchmark::Pbpi => "PBPI",
            Benchmark::Specfem => "SPECFEM",
            Benchmark::Stap => "STAP",
        }
    }

    /// Parses a Table-I name, case-insensitively (inverse of
    /// [`Benchmark::name`]).
    pub fn parse(name: &str) -> Option<Benchmark> {
        Benchmark::all().into_iter().find(|b| b.name().eq_ignore_ascii_case(name))
    }

    /// Builds this benchmark's generator at the given scale.
    pub fn generator(self, scale: Scale) -> Box<dyn TraceGenerator> {
        use Scale::*;
        match self {
            Benchmark::Cholesky => Box::new(cholesky::CholeskyGen::new(match scale {
                Small => 10,
                Paper => 56,
                Large => 72,
            })),
            Benchmark::MatMul => Box::new(matmul::MatMulGen::new(match scale {
                Small => 10,
                Paper => 18,
                Large => 28,
            })),
            Benchmark::Fft => Box::new(match scale {
                Small => fft::FftGen::new(12, 4),
                Paper => fft::FftGen::new(16, 18),
                Large => fft::FftGen::new(16, 72),
            }),
            Benchmark::H264 => Box::new(match scale {
                Small => h264::H264Gen::new(6, 16, 10),
                Paper => h264::H264Gen::hd(24),
                Large => h264::H264Gen::hd(48),
            }),
            Benchmark::KMeans => Box::new(match scale {
                Small => kmeans::KMeansGen::new(48, 8),
                Paper => kmeans::KMeansGen::new(1024, 12),
                Large => kmeans::KMeansGen::new(1024, 40),
            }),
            Benchmark::Knn => Box::new(match scale {
                Small => knn::KnnGen::new(24, 24),
                Paper => knn::KnnGen::new(64, 84),
                Large => knn::KnnGen::new(64, 300),
            }),
            Benchmark::Pbpi => Box::new(match scale {
                Small => pbpi::PbpiGen::new(48, 8),
                Paper => pbpi::PbpiGen::new(1024, 8),
                Large => pbpi::PbpiGen::new(1024, 28),
            }),
            Benchmark::Specfem => Box::new(match scale {
                Small => specfem::SpecfemGen::new(8, 8),
                Paper => specfem::SpecfemGen::new(20, 28),
                Large => specfem::SpecfemGen::new(20, 96),
            }),
            Benchmark::Stap => Box::new(match scale {
                Small => stap::StapGen::new(8, 48, 8),
                Paper => stap::StapGen::new(48, 96, 12),
                Large => stap::StapGen::new(160, 96, 12),
            }),
        }
    }

    /// Generates this benchmark's trace at a scale with a seed.
    pub fn trace(self, scale: Scale, seed: u64) -> TaskTrace {
        self.generator(scale).generate(seed)
    }

    /// The paper's Table I row for this benchmark (reference values):
    /// `(avg data KB, min µs, med µs, avg µs, decode-rate limit ns)`.
    pub fn table1_reference(self) -> (f64, f64, f64, f64, f64) {
        match self {
            Benchmark::Cholesky => (47.0, 16.0, 33.0, 31.0, 63.0),
            Benchmark::MatMul => (48.0, 23.0, 23.0, 23.0, 90.0),
            Benchmark::Fft => (10.0, 13.0, 14.0, 26.0, 51.0),
            Benchmark::H264 => (97.0, 2.0, 115.0, 130.0, 8.0),
            Benchmark::KMeans => (38.0, 24.0, 59.0, 55.0, 94.0),
            Benchmark::Knn => (10.0, 17.0, 107.0, 109.0, 66.0),
            Benchmark::Pbpi => (32.0, 28.0, 29.0, 29.0, 108.0),
            Benchmark::Specfem => (770.0, 9.0, 14.0, 49.0, 35.0),
            Benchmark::Stap => (8.0, 1.0, 9.0, 28.0, 4.0),
        }
    }
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_generate_at_small_scale() {
        for b in Benchmark::all() {
            let tr = b.trace(Scale::Small, 1);
            assert!(!tr.is_empty(), "{b} generated an empty trace");
            assert!(
                tr.iter().all(|t| t.operands.len() <= tss_trace::MAX_OPERANDS),
                "{b} exceeds the operand limit"
            );
            assert!(tr.iter().all(|t| t.runtime > 0), "{b} has zero-length tasks");
        }
    }

    #[test]
    fn paper_scale_sizes_are_reasonable() {
        for b in Benchmark::all() {
            let n = b.trace(Scale::Paper, 1).len();
            assert!((2_000..70_000).contains(&n), "{b} paper-scale trace has {n} tasks");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        for b in Benchmark::all() {
            let a = b.trace(Scale::Small, 33);
            let c = b.trace(Scale::Small, 33);
            assert_eq!(a.tasks(), c.tasks(), "{b} not deterministic");
        }
    }

    #[test]
    fn min_median_avg_track_table_one_within_tolerance() {
        // Each generated trace must reproduce Table I's runtime columns
        // within 20% (calibration is the whole point of the generators).
        for b in Benchmark::all() {
            let tr = b.trace(Scale::Paper, 5);
            let (data_kb, min_us, med_us, avg_us, _) = b.table1_reference();
            let tol = |x: f64, r: f64| (x - r).abs() / r < 0.20 || (x - r).abs() < 2.0;
            let got_min = tr.min_runtime().unwrap() as f64 / 3200.0;
            let got_med = tr.median_runtime().unwrap() as f64 / 3200.0;
            let got_avg = tr.avg_runtime() / 3200.0;
            let got_data = tr.avg_data_bytes() / 1024.0;
            assert!(tol(got_min, min_us), "{b}: min {got_min} vs {min_us}");
            assert!(tol(got_med, med_us), "{b}: med {got_med} vs {med_us}");
            assert!(tol(got_avg, avg_us), "{b}: avg {got_avg} vs {avg_us}");
            assert!(
                (got_data - data_kb).abs() / data_kb < 0.30,
                "{b}: data {got_data} KB vs {data_kb} KB"
            );
        }
    }

    #[test]
    fn parse_round_trips_names_and_scales() {
        for b in Benchmark::all() {
            assert_eq!(Benchmark::parse(b.name()), Some(b));
            assert_eq!(Benchmark::parse(&b.name().to_lowercase()), Some(b));
        }
        assert_eq!(Benchmark::parse("nope"), None);
        for s in [Scale::Small, Scale::Paper, Scale::Large] {
            assert_eq!(Scale::parse(s.name()), Some(s));
        }
        assert_eq!(Scale::parse("huge"), None);
    }

    #[test]
    fn names_match_table_one() {
        let names: Vec<&str> = Benchmark::all().iter().map(|b| b.name()).collect();
        assert_eq!(
            names,
            vec!["Cholesky", "MatMul", "FFT", "H264", "KMeans", "Knn", "PBPI", "SPECFEM", "STAP"]
        );
    }
}
