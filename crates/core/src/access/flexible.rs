//! The flexible data access API (paper §4.1).
//!
//! "The flexible API provides the user with the ability to describe
//! noncontiguous regions in memory, which is missing from the original
//! interface. These regions are described using MPI datatypes." The file
//! region is still described by `start/count/stride`; the memory side is
//! `(buf, bufcount, mpi_datatype)`. "All the high-level routines could be
//! written over these": here both APIs lower into the same request and
//! complete through the same path (blocking or nonblocking alike), and
//! differ only in how they stage memory — a fused datatype gather + byte
//! swap here, a typed conversion in [`super::highlevel`].
//!
//! The memory datatype's element width must equal the variable's external
//! type width (the common usage); the conversion is then an endianness swap.

use pnetcdf_format::NcType;
use pnetcdf_mpi::Datatype;

use crate::convert;
use crate::dataset::Dataset;
use crate::error::{NcmpiError, NcmpiResult};

impl Dataset {
    /// Check a flexible memory description against the access; returns the
    /// variable's external type.
    pub(crate) fn check_flexible(
        &self,
        varid: usize,
        count: &[u64],
        bufcount: usize,
        memtype: &Datatype,
    ) -> NcmpiResult<NcType> {
        let nctype = self.var_nctype(varid)?;
        let esize = nctype.size() as usize;
        let mem_bytes = memtype.size() as usize * bufcount;
        let sel: u64 = count.iter().product::<u64>() * esize as u64;
        if mem_bytes as u64 != sel {
            return Err(NcmpiError::InvalidArgument(format!(
                "memory datatype describes {mem_bytes} bytes but the access selects {sel}"
            )));
        }
        if mem_bytes % esize != 0 {
            return Err(NcmpiError::InvalidArgument(format!(
                "memory datatype size {mem_bytes} is not a multiple of element size {esize}"
            )));
        }
        Ok(nctype)
    }

    /// Flexible put staging, blocking and nonblocking alike: check that the
    /// dataset is writable, then gather the (possibly noncontiguous) native
    /// memory and swap to external byte order in one fused pass. The simulator still charges the datatype
    /// walk and the conversion separately — the work happens, only the
    /// intermediate buffer is gone.
    pub(crate) fn stage_flexible(
        &self,
        varid: usize,
        count: &[u64],
        buf: &[u8],
        bufcount: usize,
        memtype: &Datatype,
    ) -> NcmpiResult<Vec<u8>> {
        self.require_writable()?;
        let nctype = self.check_flexible(varid, count, bufcount, memtype)?;
        let ext = convert::pack_to_external(buf, bufcount, memtype, nctype)?;
        let cfg = self.comm.config();
        cfg.profile
            .record_bytepath(|b| b.fused_pack_bytes += ext.len() as u64);
        if !memtype.is_contiguous() {
            self.comm.advance(cfg.cpu.pack(ext.len(), 1.0));
        }
        self.comm.advance(cfg.cpu.pack(ext.len(), 1.0));
        Ok(ext)
    }

    /// The flexible get tail: charge the conversion and scatter the
    /// external bytes into the caller's memory description in one fused
    /// convert+scatter pass.
    pub(crate) fn ext_to_memory(
        &self,
        (nctype, ext): (NcType, Vec<u8>),
        buf: &mut [u8],
        bufcount: usize,
        memtype: &Datatype,
    ) -> NcmpiResult<()> {
        let cfg = self.comm.config();
        self.comm.advance(cfg.cpu.pack(ext.len(), 1.0));
        cfg.profile
            .record_bytepath(|b| b.fused_unpack_bytes += ext.len() as u64);
        convert::unpack_from_external(&ext, buf, bufcount, memtype, nctype)?;
        Ok(())
    }

    /// Collective flexible write (`ncmpi_put_vara_all` in the C API).
    pub fn put_vara_all_flexible(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        buf: &[u8],
        bufcount: usize,
        memtype: &Datatype,
    ) -> NcmpiResult<()> {
        self.put_flexible(varid, start, count, None, buf, bufcount, memtype, true)
    }

    /// Independent flexible write (`ncmpi_put_vara`).
    pub fn put_vara_flexible(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        buf: &[u8],
        bufcount: usize,
        memtype: &Datatype,
    ) -> NcmpiResult<()> {
        self.put_flexible(varid, start, count, None, buf, bufcount, memtype, false)
    }

    /// Collective flexible strided write (`ncmpi_put_vars_all`).
    #[allow(clippy::too_many_arguments)]
    pub fn put_vars_all_flexible(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        stride: &[u64],
        buf: &[u8],
        bufcount: usize,
        memtype: &Datatype,
    ) -> NcmpiResult<()> {
        self.put_flexible(
            varid,
            start,
            count,
            Some(stride),
            buf,
            bufcount,
            memtype,
            true,
        )
    }

    /// Independent flexible strided write (`ncmpi_put_vars`).
    #[allow(clippy::too_many_arguments)]
    pub fn put_vars_flexible(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        stride: &[u64],
        buf: &[u8],
        bufcount: usize,
        memtype: &Datatype,
    ) -> NcmpiResult<()> {
        self.put_flexible(
            varid,
            start,
            count,
            Some(stride),
            buf,
            bufcount,
            memtype,
            false,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn put_flexible(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        stride: Option<&[u64]>,
        buf: &[u8],
        bufcount: usize,
        memtype: &Datatype,
        collective: bool,
    ) -> NcmpiResult<()> {
        self.require_access_mode(collective)?;
        let lowered = self
            .stage_flexible(varid, count, buf, bufcount, memtype)
            .and_then(|ext| self.lower(varid, start, count, stride, Some(ext)));
        self.complete_one(lowered, collective).map(drop)
    }

    /// Collective flexible read (`ncmpi_get_vara_all`).
    pub fn get_vara_all_flexible(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        buf: &mut [u8],
        bufcount: usize,
        memtype: &Datatype,
    ) -> NcmpiResult<()> {
        self.get_flexible(varid, start, count, None, buf, bufcount, memtype, true)
    }

    /// Independent flexible read (`ncmpi_get_vara`).
    pub fn get_vara_flexible(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        buf: &mut [u8],
        bufcount: usize,
        memtype: &Datatype,
    ) -> NcmpiResult<()> {
        self.get_flexible(varid, start, count, None, buf, bufcount, memtype, false)
    }

    /// Collective flexible strided read (`ncmpi_get_vars_all`, as in the
    /// paper's Figure 4 READ example).
    #[allow(clippy::too_many_arguments)]
    pub fn get_vars_all_flexible(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        stride: &[u64],
        buf: &mut [u8],
        bufcount: usize,
        memtype: &Datatype,
    ) -> NcmpiResult<()> {
        self.get_flexible(
            varid,
            start,
            count,
            Some(stride),
            buf,
            bufcount,
            memtype,
            true,
        )
    }

    /// Independent flexible strided read (`ncmpi_get_vars`).
    #[allow(clippy::too_many_arguments)]
    pub fn get_vars_flexible(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        stride: &[u64],
        buf: &mut [u8],
        bufcount: usize,
        memtype: &Datatype,
    ) -> NcmpiResult<()> {
        self.get_flexible(
            varid,
            start,
            count,
            Some(stride),
            buf,
            bufcount,
            memtype,
            false,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn get_flexible(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        stride: Option<&[u64]>,
        buf: &mut [u8],
        bufcount: usize,
        memtype: &Datatype,
        collective: bool,
    ) -> NcmpiResult<()> {
        self.require_access_mode(collective)?;
        let lowered = self
            .check_flexible(varid, count, bufcount, memtype)
            .and_then(|_| self.lower(varid, start, count, stride, None));
        let got = self.complete_one(lowered, collective)?;
        self.ext_to_memory(got, buf, bufcount, memtype)
    }
}
