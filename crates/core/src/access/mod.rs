//! Data access functions — the "major effort of this work" (paper §4.2.2).
//!
//! Every access is translated from `(variable, start[], count[], stride[])`
//! into an MPI file view built from the variable's metadata in the cached
//! header (shape, element size, `begin`, record size), then handed to
//! MPI-IO. Collective calls (`*_all`) go through two-phase collective I/O;
//! independent calls use data sieving.
//!
//! * [`highlevel`] — the typed API mirroring serial netCDF (`put/get` ×
//!   `var1/var/vara/vars/varm`), in collective and independent flavors;
//! * [`flexible`] — the flexible API taking an MPI datatype describing
//!   (possibly noncontiguous) memory;
//! * [`map`] — `imap` gather/scatter shared by the `varm` calls;
//! * [`request`] — the unified request engine every access lowers into and
//!   completes through (a blocking call is a queue of one), including the
//!   nonblocking `iput`/`iget`/`wait_all` API.

pub mod flexible;
pub mod highlevel;
pub mod map;
pub mod prefetch;
pub mod request;

use crate::dataset::Dataset;
use crate::error::NcmpiResult;

impl Dataset {
    /// After a write touching a record variable, grow the local `numrecs`.
    pub(crate) fn grow_numrecs(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        stride: Option<&[u64]>,
    ) {
        if !self.header.is_record_var(varid) || count.first().copied().unwrap_or(0) == 0 {
            return;
        }
        let step = stride.map_or(1, |s| s[0]);
        let last = start[0] + (count[0] - 1) * step;
        if last + 1 > self.header.numrecs {
            self.header.numrecs = last + 1;
        }
    }

    /// The data mode a blocking call requires: collective for `*_all`,
    /// independent otherwise.
    pub(crate) fn require_access_mode(&self, collective: bool) -> NcmpiResult<()> {
        if collective {
            self.require_collective()
        } else {
            self.require_independent()
        }
    }
}
