//! End-to-end PnetCDF round-trips: collective and independent writes and
//! reads through the full stack (core → MPI-IO → two-phase → PFS), plus the
//! flexible API and all external types.

use hpc_sim::SimConfig;
use pnetcdf::{Dataset, Datatype, Info, NcType, NcmpiError, Version};
use pnetcdf_mpi::run_world;
use pnetcdf_pfs::{Pfs, StorageMode};

fn cfg() -> SimConfig {
    SimConfig::test_small()
}

#[test]
fn collective_write_then_collective_read() {
    let pfs = Pfs::new(cfg(), StorageMode::Full);
    let n = 4;
    run_world(n, cfg(), |c| {
        let mut ds = Dataset::create(c, &pfs, "a.nc", Version::Cdf1, &Info::new()).unwrap();
        let z = ds.def_dim("z", n as u64).unwrap();
        let y = ds.def_dim("y", 8).unwrap();
        let v = ds.def_var("tt", NcType::Double, &[z, y]).unwrap();
        ds.enddef().unwrap();

        // Each rank owns one z plane.
        let mine: Vec<f64> = (0..8).map(|i| (c.rank() * 100 + i) as f64).collect();
        ds.put_vara_all(v, &[c.rank() as u64, 0], &[1, 8], &mine)
            .unwrap();

        // Read a transposed selection: every rank reads column `rank`.
        let col: Vec<f64> = ds
            .get_vara_all(v, &[0, c.rank() as u64], &[n as u64, 1])
            .unwrap();
        let expect: Vec<f64> = (0..n).map(|z| (z * 100 + c.rank()) as f64).collect();
        assert_eq!(col, expect);
        ds.close().unwrap();
    });
}

#[test]
fn independent_mode_roundtrip() {
    let pfs = Pfs::new(cfg(), StorageMode::Full);
    run_world(3, cfg(), |c| {
        let mut ds = Dataset::create(c, &pfs, "ind.nc", Version::Cdf1, &Info::new()).unwrap();
        let x = ds.def_dim("x", 30).unwrap();
        let v = ds.def_var("a", NcType::Int, &[x]).unwrap();
        ds.enddef().unwrap();

        // Collective calls are rejected in independent mode and vice versa.
        assert!(ds.put_vara::<i32>(v, &[0], &[1], &[0]).is_err());
        ds.begin_indep_data().unwrap();
        assert!(ds.put_vara_all::<i32>(v, &[0], &[1], &[0]).is_err());

        let base = (c.rank() * 10) as u64;
        let vals: Vec<i32> = (0..10).map(|i| (base + i) as i32).collect();
        ds.put_vara(v, &[base], &[10], &vals).unwrap();
        let back: Vec<i32> = ds.get_vara(v, &[base], &[10]).unwrap();
        assert_eq!(back, vals);
        ds.end_indep_data().unwrap();

        // Now visible collectively.
        let all: Vec<i32> = ds.get_vara_all(v, &[0], &[30]).unwrap();
        assert_eq!(all, (0..30).collect::<Vec<i32>>());
        ds.close().unwrap();
    });
}

#[test]
fn all_external_types_roundtrip() {
    let pfs = Pfs::new(cfg(), StorageMode::Full);
    run_world(2, cfg(), |c| {
        let mut ds = Dataset::create(c, &pfs, "types.nc", Version::Cdf1, &Info::new()).unwrap();
        let x = ds.def_dim("x", 4).unwrap();
        let vb = ds.def_var("vb", NcType::Byte, &[x]).unwrap();
        let vc = ds.def_var("vc", NcType::Char, &[x]).unwrap();
        let vs = ds.def_var("vs", NcType::Short, &[x]).unwrap();
        let vi = ds.def_var("vi", NcType::Int, &[x]).unwrap();
        let vf = ds.def_var("vf", NcType::Float, &[x]).unwrap();
        let vd = ds.def_var("vd", NcType::Double, &[x]).unwrap();
        ds.enddef().unwrap();

        if c.rank() == 0 {
            // Rank 0 writes the left half, rank 1 the right half.
        }
        let (s, n) = ((c.rank() * 2) as u64, 2u64);
        let off = c.rank() as i64 * 2;
        ds.put_vara_all(vb, &[s], &[n], &[(off) as i8, (off + 1) as i8])
            .unwrap();
        ds.put_vara_all(vc, &[s], &[n], &[b'a' + off as u8, b'b' + off as u8])
            .unwrap();
        ds.put_vara_all(vs, &[s], &[n], &[(-100 - off) as i16, (100 + off) as i16])
            .unwrap();
        ds.put_vara_all(vi, &[s], &[n], &[(1 << 20) + off as i32, -off as i32])
            .unwrap();
        ds.put_vara_all(vf, &[s], &[n], &[0.5 + off as f32, 1.5 + off as f32])
            .unwrap();
        ds.put_vara_all(vd, &[s], &[n], &[1e100 + off as f64, -off as f64])
            .unwrap();

        let b: Vec<i8> = ds.get_vara_all(vb, &[0], &[4]).unwrap();
        assert_eq!(b, vec![0, 1, 2, 3]);
        let ch: Vec<u8> = ds.get_vara_all(vc, &[0], &[4]).unwrap();
        assert_eq!(ch, vec![b'a', b'b', b'c', b'd']);
        let sh: Vec<i16> = ds.get_vara_all(vs, &[0], &[4]).unwrap();
        assert_eq!(sh, vec![-100, 100, -102, 102]);
        let ii: Vec<i32> = ds.get_vara_all(vi, &[0], &[4]).unwrap();
        assert_eq!(ii, vec![1 << 20, 0, (1 << 20) + 2, -2]);
        let ff: Vec<f32> = ds.get_vara_all(vf, &[0], &[4]).unwrap();
        assert_eq!(ff, vec![0.5, 1.5, 2.5, 3.5]);
        let dd: Vec<f64> = ds.get_vara_all(vd, &[0], &[4]).unwrap();
        assert_eq!(dd[1], 0.0);
        assert_eq!(dd[3], -2.0);
        ds.close().unwrap();
    });
}

#[test]
fn flexible_api_noncontiguous_memory() {
    let pfs = Pfs::new(cfg(), StorageMode::Full);
    run_world(2, cfg(), |c| {
        let mut ds = Dataset::create(c, &pfs, "flex.nc", Version::Cdf1, &Info::new()).unwrap();
        let x = ds.def_dim("x", 8).unwrap();
        let v = ds.def_var("a", NcType::Int, &[x]).unwrap();
        ds.enddef().unwrap();

        // Memory: interleaved i32s — take every other element (stride 2).
        let native: Vec<i32> = (0..8).map(|i| i + 10 * c.rank() as i32).collect();
        let bytes: Vec<u8> = native.iter().flat_map(|v| v.to_ne_bytes()).collect();
        let memtype = Datatype::vector(4, 1, 2, Datatype::int());
        // Rank r writes elements [4r, 4r+4): values 10r+0,2,4,6.
        ds.put_vara_all_flexible(v, &[(c.rank() * 4) as u64], &[4], &bytes, 1, &memtype)
            .unwrap();

        let all: Vec<i32> = ds.get_vara_all(v, &[0], &[8]).unwrap();
        assert_eq!(all, vec![0, 2, 4, 6, 10, 12, 14, 16]);

        // Flexible read back into strided memory.
        let mut out = vec![0u8; 8 * 4];
        ds.get_vara_all_flexible(v, &[(c.rank() * 4) as u64], &[4], &mut out, 1, &memtype)
            .unwrap();
        let got: Vec<i32> = out
            .chunks_exact(4)
            .map(|ch| i32::from_ne_bytes(ch.try_into().unwrap()))
            .collect();
        // Strided positions hold the data; holes are zero.
        let base = 10 * c.rank() as i32;
        assert_eq!(got[0], base);
        assert_eq!(got[2], base + 2);
        assert_eq!(got[4], base + 4);
        assert_eq!(got[6], base + 6);
        assert_eq!(got[1], 0);
        ds.close().unwrap();
    });
}

#[test]
fn varm_transposed_memory() {
    let pfs = Pfs::new(cfg(), StorageMode::Full);
    run_world(1, cfg(), |c| {
        let mut ds = Dataset::create(c, &pfs, "m.nc", Version::Cdf1, &Info::new()).unwrap();
        let z = ds.def_dim("z", 2).unwrap();
        let y = ds.def_dim("y", 3).unwrap();
        let v = ds.def_var("a", NcType::Float, &[z, y]).unwrap();
        ds.enddef().unwrap();

        // Memory is column-major (y varies slowest): imap = [1, 2].
        let mem: Vec<f32> = vec![0.0, 10.0, 1.0, 11.0, 2.0, 12.0];
        ds.put_varm_all(v, &[0, 0], &[2, 3], None, &[1, 2], &mem)
            .unwrap();
        let canonical: Vec<f32> = ds.get_vara_all(v, &[0, 0], &[2, 3]).unwrap();
        assert_eq!(canonical, vec![0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);

        let back: Vec<f32> = ds.get_varm_all(v, &[0, 0], &[2, 3], None, &[1, 2]).unwrap();
        assert_eq!(back, mem);
        ds.close().unwrap();
    });
}

#[test]
fn attributes_and_inquiry() {
    let pfs = Pfs::new(cfg(), StorageMode::Full);
    run_world(2, cfg(), |c| {
        let mut ds = Dataset::create(c, &pfs, "attr.nc", Version::Cdf1, &Info::new()).unwrap();
        let t = ds.def_dim("time", pnetcdf::NC_UNLIMITED).unwrap();
        let x = ds.def_dim("x", 5).unwrap();
        let v = ds.def_var("ts", NcType::Float, &[t, x]).unwrap();
        ds.put_gatt_text("title", "roundtrip test").unwrap();
        ds.put_vatt(v, "scale", pnetcdf::AttrValue::Double(vec![0.5]))
            .unwrap();
        ds.enddef().unwrap();

        let info = ds.inq();
        assert_eq!(info.ndims, 2);
        assert_eq!(info.nvars, 1);
        assert_eq!(info.ngatts, 1);
        assert_eq!(info.unlimdimid, Some(0));
        assert_eq!(ds.inq_varid("ts").unwrap(), v);
        assert_eq!(ds.inq_dimid("x").unwrap(), x);
        assert_eq!(ds.inq_dim(x).unwrap(), ("x".to_string(), 5));
        let vi = ds.inq_var(v).unwrap();
        assert_eq!(vi.name, "ts");
        assert_eq!(vi.nctype, NcType::Float);
        assert_eq!(vi.dimids, vec![t, x]);
        assert_eq!(vi.natts, 1);
        assert_eq!(
            ds.get_gatt("title").unwrap(),
            &pnetcdf::AttrValue::Char("roundtrip test".into())
        );
        assert_eq!(
            ds.get_vatt(v, "scale").unwrap(),
            &pnetcdf::AttrValue::Double(vec![0.5])
        );
        assert!(ds.get_gatt("missing").is_err());
        let _ = c;
        ds.close().unwrap();
    });
}

#[test]
fn reopen_written_dataset() {
    let pfs = Pfs::new(cfg(), StorageMode::Full);
    run_world(2, cfg(), |c| {
        {
            let mut ds = Dataset::create(c, &pfs, "re.nc", Version::Cdf2, &Info::new()).unwrap();
            let x = ds.def_dim("x", 6).unwrap();
            let v = ds.def_var("data", NcType::Short, &[x]).unwrap();
            ds.enddef().unwrap();
            let s = (c.rank() * 3) as u64;
            let vals: Vec<i16> = (0..3).map(|i| (s + i) as i16 * 2).collect();
            ds.put_vara_all(v, &[s], &[3], &vals).unwrap();
            ds.close().unwrap();
        }
        {
            let mut ds = Dataset::open(c, &pfs, "re.nc", true, &Info::new()).unwrap();
            let v = ds.inq_varid("data").unwrap();
            let all: Vec<i16> = ds.get_vara_all(v, &[0], &[6]).unwrap();
            assert_eq!(all, vec![0, 2, 4, 6, 8, 10]);
            // Read-only blocks writes, and is reported before a bad value
            // count in every put flavor.
            let typed = ds.put_vara_all::<i16>(v, &[0], &[3], &[1]);
            assert!(matches!(typed, Err(NcmpiError::ReadOnly)));
            let flex = ds.put_vara_all_flexible(v, &[0], &[3], &[0; 8], 2, &Datatype::int());
            assert!(matches!(flex, Err(NcmpiError::ReadOnly)));
            let queued = ds.iput_vara::<i16>(v, &[0], &[3], &[1]);
            assert!(matches!(queued, Err(NcmpiError::ReadOnly)));
            ds.close().unwrap();
        }
    });
}

#[test]
fn redef_preserves_data_in_parallel() {
    let pfs = Pfs::new(cfg(), StorageMode::Full);
    run_world(2, cfg(), |c| {
        let mut ds = Dataset::create(c, &pfs, "redef.nc", Version::Cdf1, &Info::new()).unwrap();
        let x = ds.def_dim("x", 8).unwrap();
        let v = ds.def_var("first", NcType::Int, &[x]).unwrap();
        ds.enddef().unwrap();
        let s = (c.rank() * 4) as u64;
        let vals: Vec<i32> = (0..4).map(|i| (s + i) as i32).collect();
        ds.put_vara_all(v, &[s], &[4], &vals).unwrap();

        ds.redef().unwrap();
        let y = ds
            .def_dim("extra_dimension_name_to_grow_header", 16)
            .unwrap();
        let w = ds.def_var("second_variable", NcType::Double, &[y]).unwrap();
        ds.enddef().unwrap();

        let all: Vec<i32> = ds.get_vara_all(v, &[0], &[8]).unwrap();
        assert_eq!(all, (0..8).collect::<Vec<i32>>());
        ds.put_vara_all(w, &[(c.rank() * 8) as u64], &[8], &[1.5f64; 8])
            .unwrap();
        ds.close().unwrap();
    });
}

#[test]
fn range_errors_surface() {
    let pfs = Pfs::new(cfg(), StorageMode::Full);
    run_world(1, cfg(), |c| {
        let mut ds = Dataset::create(c, &pfs, "rng.nc", Version::Cdf1, &Info::new()).unwrap();
        let x = ds.def_dim("x", 2).unwrap();
        let v = ds.def_var("b", NcType::Byte, &[x]).unwrap();
        ds.enddef().unwrap();
        // 300 does not fit NC_BYTE.
        assert!(ds.put_vara_all::<i32>(v, &[0], &[2], &[1, 300]).is_err());
        // Out-of-bounds access.
        assert!(ds.put_vara_all::<i8>(v, &[1], &[2], &[1, 2]).is_err());
        ds.close().unwrap();
    });
}

#[test]
fn hints_flow_to_mpiio() {
    let pfs = Pfs::new(cfg(), StorageMode::Full);
    let info = Info::new()
        .with("cb_buffer_size", "2048")
        .with("cb_nodes", "2");
    run_world(4, cfg(), move |c| {
        let mut ds = Dataset::create(c, &pfs, "h.nc", Version::Cdf1, &info).unwrap();
        let x = ds.def_dim("x", 4096).unwrap();
        let v = ds.def_var("a", NcType::Byte, &[x]).unwrap();
        ds.enddef().unwrap();
        let s = (c.rank() * 1024) as u64;
        ds.put_vara_all(v, &[s], &[1024], &vec![c.rank() as i8; 1024])
            .unwrap();
        let back: Vec<i8> = ds.get_vara_all(v, &[s], &[1024]).unwrap();
        assert_eq!(back, vec![c.rank() as i8; 1024]);
        ds.close().unwrap();
    });
}
