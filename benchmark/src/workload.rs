//! What every workload takes and returns.

use crate::json::Json;
use crate::names::Values;
use std::path::PathBuf;

/// Options of one workload run.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    /// Length of the measured part of the run.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Small shapes for a fast smoke run; every check stays on.
    pub quick: bool,
    /// Scratch directory inside the working directory (store files).
    pub work_dir: PathBuf,
}

impl Opts {
    /// How many times set-up runs; `setup_s` is the median.
    pub fn setups(&self) -> usize {
        if self.quick || self.trace {
            1
        } else {
            3
        }
    }
}

/// The result of one workload run.
#[derive(Debug)]
pub struct Outcome {
    /// Every served or computed value matched its reference.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
    /// Human-readable detail, printed to standard error.
    pub notes: Vec<String>,
    /// The trace document of a traced run.
    pub trace: Option<Json>,
}
