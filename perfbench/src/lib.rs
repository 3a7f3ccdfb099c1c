//! End-to-end and per-layer benchmark of the PnetCDF reproduction.
//!
//! Three workloads (see `README.md` beside this crate for why each was
//! chosen and which layer metric should move which end-to-end metric):
//!
//! * `flash_ckpt` — the paper's Figure 7 FLASH checkpoint through
//!   nonblocking `iput_vara` + `wait_all`;
//! * `lbnl_rw` — the paper's Figure 6 LBNL test, blocking collective
//!   write then read of a ZYX-partitioned `tt(Z,Y,X)`;
//! * `indep_rows` — independent per-row puts and per-plane strided, sieved
//!   gets.
//!
//! Every run builds its inputs from the seed during set-up, then issues the
//! library calls itself, timing them on the host clock and reading the
//! virtual clocks the simulation keeps.

pub mod flash;
pub mod indep;
pub mod ladder;
pub mod lbnl;
pub mod probe;
pub mod report;
pub mod world;

pub use report::{Outcome, END_TO_END, PER_LAYER};

/// Workload size: the benchmark's own, or a small one for the self-test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Small,
}

/// Run options shared by every workload.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// Names of the workloads, as the command line takes them.
pub const WORKLOADS: [&str; 3] = ["flash_ckpt", "lbnl_rw", "indep_rows"];

/// Run one workload; `None` for an unknown name.
pub fn run(workload: &str, opts: Opts) -> Option<Outcome> {
    match workload {
        "flash_ckpt" => Some(flash::run(opts)),
        "lbnl_rw" => Some(lbnl::run(opts)),
        "indep_rows" => Some(indep::run(opts)),
        _ => None,
    }
}
