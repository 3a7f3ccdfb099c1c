//! The high-level (typed) data access API.
//!
//! These calls mirror the original netCDF data access functions — single
//! element (`var1`), whole array (`var`), subarray (`vara`), strided
//! subarray (`vars`), mapped strided subarray (`varm`) — with the paper's
//! key change: each exists in a **collective** flavor (suffix `_all`,
//! requiring collective data mode) and an **independent** flavor (requiring
//! independent data mode entered via `begin_indep_data`).

use pnetcdf_format::NcValue;

use crate::access::map::{gather_by_imap, scatter_by_imap};
use crate::dataset::Dataset;
use crate::error::{NcmpiError, NcmpiResult};

impl Dataset {
    fn put_region<T: NcValue>(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        stride: Option<&[u64]>,
        vals: &[T],
        collective: bool,
    ) -> NcmpiResult<()> {
        self.require_access_mode(collective)?;
        let lowered = self
            .stage_typed(varid, count, vals)
            .and_then(|ext| self.lower(varid, start, count, stride, Some(ext)));
        self.complete_one(lowered, collective).map(drop)
    }

    fn get_region<T: NcValue>(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        stride: Option<&[u64]>,
        collective: bool,
    ) -> NcmpiResult<Vec<T>> {
        self.require_access_mode(collective)?;
        // The prefetch cache serves reads from local memory — no file I/O,
        // no synchronization (the §4.1 hint optimization). Prefetching is
        // the same on every rank, so no rank is left in a collective.
        if self.is_prefetched(varid) {
            let req = self.lower(varid, start, count, stride, None)?;
            let ext = self.cached_read(&req);
            return self.ext_to_values((req.nctype, ext));
        }
        let lowered = self.lower(varid, start, count, stride, None);
        let got = self.complete_one(lowered, collective)?;
        self.ext_to_values(got)
    }

    // ---- vara: subarray ---------------------------------------------------

    /// Collective subarray write (`ncmpi_put_vara_<type>_all`).
    pub fn put_vara_all<T: NcValue>(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        vals: &[T],
    ) -> NcmpiResult<()> {
        self.put_region(varid, start, count, None, vals, true)
    }

    /// Independent subarray write (`ncmpi_put_vara_<type>`).
    pub fn put_vara<T: NcValue>(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        vals: &[T],
    ) -> NcmpiResult<()> {
        self.put_region(varid, start, count, None, vals, false)
    }

    /// Collective subarray read (`ncmpi_get_vara_<type>_all`).
    pub fn get_vara_all<T: NcValue>(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
    ) -> NcmpiResult<Vec<T>> {
        self.get_region(varid, start, count, None, true)
    }

    /// Independent subarray read (`ncmpi_get_vara_<type>`).
    pub fn get_vara<T: NcValue>(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
    ) -> NcmpiResult<Vec<T>> {
        self.get_region(varid, start, count, None, false)
    }

    // ---- vars: strided subarray ---------------------------------------------

    /// Collective strided write (`ncmpi_put_vars_<type>_all`).
    pub fn put_vars_all<T: NcValue>(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        stride: &[u64],
        vals: &[T],
    ) -> NcmpiResult<()> {
        self.put_region(varid, start, count, Some(stride), vals, true)
    }

    /// Independent strided write.
    pub fn put_vars<T: NcValue>(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        stride: &[u64],
        vals: &[T],
    ) -> NcmpiResult<()> {
        self.put_region(varid, start, count, Some(stride), vals, false)
    }

    /// Collective strided read (`ncmpi_get_vars_<type>_all`).
    pub fn get_vars_all<T: NcValue>(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        stride: &[u64],
    ) -> NcmpiResult<Vec<T>> {
        self.get_region(varid, start, count, Some(stride), true)
    }

    /// Independent strided read.
    pub fn get_vars<T: NcValue>(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        stride: &[u64],
    ) -> NcmpiResult<Vec<T>> {
        self.get_region(varid, start, count, Some(stride), false)
    }

    // ---- var1: single element -----------------------------------------------

    /// Collective single-element write.
    pub fn put_var1_all<T: NcValue>(
        &mut self,
        varid: usize,
        index: &[u64],
        val: T,
    ) -> NcmpiResult<()> {
        let count = vec![1u64; index.len()];
        self.put_region(varid, index, &count, None, &[val], true)
    }

    /// Independent single-element write (`ncmpi_put_var1_<type>`).
    pub fn put_var1<T: NcValue>(&mut self, varid: usize, index: &[u64], val: T) -> NcmpiResult<()> {
        let count = vec![1u64; index.len()];
        self.put_region(varid, index, &count, None, &[val], false)
    }

    /// Collective single-element read.
    pub fn get_var1_all<T: NcValue>(&mut self, varid: usize, index: &[u64]) -> NcmpiResult<T> {
        let count = vec![1u64; index.len()];
        Ok(self.get_region::<T>(varid, index, &count, None, true)?[0])
    }

    /// Independent single-element read.
    pub fn get_var1<T: NcValue>(&mut self, varid: usize, index: &[u64]) -> NcmpiResult<T> {
        let count = vec![1u64; index.len()];
        Ok(self.get_region::<T>(varid, index, &count, None, false)?[0])
    }

    // ---- var: whole variable ----------------------------------------------------

    /// Collective whole-variable write. For record variables, the number of
    /// records written is derived from the value count.
    pub fn put_var_all<T: NcValue>(&mut self, varid: usize, vals: &[T]) -> NcmpiResult<()> {
        let (start, count) = self.whole(varid, Some(vals.len()))?;
        self.put_region(varid, &start, &count, None, vals, true)
    }

    /// Independent whole-variable write.
    pub fn put_var<T: NcValue>(&mut self, varid: usize, vals: &[T]) -> NcmpiResult<()> {
        let (start, count) = self.whole(varid, Some(vals.len()))?;
        self.put_region(varid, &start, &count, None, vals, false)
    }

    /// Collective whole-variable read.
    pub fn get_var_all<T: NcValue>(&mut self, varid: usize) -> NcmpiResult<Vec<T>> {
        let (start, count) = self.whole(varid, None)?;
        self.get_region(varid, &start, &count, None, true)
    }

    /// Independent whole-variable read.
    pub fn get_var<T: NcValue>(&mut self, varid: usize) -> NcmpiResult<Vec<T>> {
        let (start, count) = self.whole(varid, None)?;
        self.get_region(varid, &start, &count, None, false)
    }

    pub(crate) fn whole(
        &self,
        varid: usize,
        vals_len: Option<usize>,
    ) -> NcmpiResult<(Vec<u64>, Vec<u64>)> {
        if varid >= self.header.vars.len() {
            return Err(NcmpiError::NotFound(format!("variable id {varid}")));
        }
        let mut count = self.header.var_shape(varid);
        let start = vec![0u64; count.len()];
        if let (Some(len), true) = (vals_len, self.header.is_record_var(varid)) {
            let per_rec = self.header.record_elems(varid).max(1);
            if len as u64 % per_rec != 0 {
                return Err(NcmpiError::InvalidArgument(format!(
                    "whole-variable access of {len} values is not a multiple of the \
                     {per_rec} values per record"
                )));
            }
            count[0] = len as u64 / per_rec;
        }
        Ok((start, count))
    }

    // ---- varm: mapped strided subarray ---------------------------------------------

    /// Collective mapped write (`ncmpi_put_varm_<type>_all`).
    pub fn put_varm_all<T: NcValue>(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        stride: Option<&[u64]>,
        imap: &[u64],
        vals: &[T],
    ) -> NcmpiResult<()> {
        let canonical = gather_by_imap(count, imap, vals)?;
        self.put_region(varid, start, count, stride, &canonical, true)
    }

    /// Independent mapped write.
    pub fn put_varm<T: NcValue>(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        stride: Option<&[u64]>,
        imap: &[u64],
        vals: &[T],
    ) -> NcmpiResult<()> {
        let canonical = gather_by_imap(count, imap, vals)?;
        self.put_region(varid, start, count, stride, &canonical, false)
    }

    /// Collective mapped read (`ncmpi_get_varm_<type>_all`).
    pub fn get_varm_all<T: NcValue + Default>(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        stride: Option<&[u64]>,
        imap: &[u64],
    ) -> NcmpiResult<Vec<T>> {
        let canonical = self.get_region::<T>(varid, start, count, stride, true)?;
        scatter_by_imap(count, imap, &canonical)
    }

    /// Independent mapped read.
    pub fn get_varm<T: NcValue + Default>(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        stride: Option<&[u64]>,
        imap: &[u64],
    ) -> NcmpiResult<Vec<T>> {
        let canonical = self.get_region::<T>(varid, start, count, stride, false)?;
        scatter_by_imap(count, imap, &canonical)
    }
}
