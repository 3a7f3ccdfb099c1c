//! Server failover end to end through the netCDF API. The permanent crash
//! that ends the no-parity workload with an agreed `Exhausted` (see
//! `fault_injection.rs`) is survivable once `pnc_parity=enable` is in the
//! info: the retry ladder escalates to an agreed `ServerLost`, every rank
//! marks the server down at the same operation, and the collective retries
//! in degraded mode — redirected writes, reconstructed reads. A later
//! access past the crash window's restart rebuilds the server online.

use hpc_sim::{FaultPlan, SimConfig, Time};
use pnetcdf::{Dataset, Datatype, Info, NcType, Version};
use pnetcdf_mpi::run_world;
use pnetcdf_pfs::{Pfs, StorageMode};

/// `test_small` with profiling on and the given fault spec applied.
fn faulty_cfg(spec: &str) -> SimConfig {
    let plan = FaultPlan::from_spec(spec).unwrap();
    // The multi-window spec syntax must round-trip through Display, or
    // profile reports would misstate the plan that actually ran.
    assert_eq!(FaultPlan::from_spec(&plan.to_string()).unwrap(), plan);
    let cfg = SimConfig::test_small().builder().faults(plan).build();
    cfg.profile.set_enabled(true);
    cfg
}

fn parity_info() -> Info {
    Info::new().with("pnc_parity", "enable")
}

/// The blocking collective path, typed and flexible: a permanent crash
/// mid-job completes degraded instead of exhausting, and the degraded
/// read-back is exact.
#[test]
fn blocking_collective_survives_permanent_crash() {
    for flexible in [false, true] {
        let cfg = faulty_cfg("crash=server:0@t>1e9");
        let profile = cfg.profile.clone();
        let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
        let pfs2 = pfs.clone();
        run_world(4, cfg, move |c| {
            let mut ds = Dataset::create(c, &pfs2, "p.nc", Version::Cdf1, &parity_info()).unwrap();
            let x = ds.def_dim("x", 4096).unwrap();
            let v = ds.def_var("v", NcType::Float, &[x]).unwrap();
            ds.enddef().unwrap();
            // Past the outage start: the write must escalate to failover.
            c.advance(Time::from_secs_f64(2.0));
            let base = c.rank() as u64 * 1024;
            let vals: Vec<f32> = (0..1024).map(|i| (base + i) as f32).collect();
            let mem = Datatype::contiguous(1024, Datatype::float());
            let wrote = if flexible {
                let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_ne_bytes()).collect();
                ds.put_vara_all_flexible(v, &[base], &[1024], &bytes, 1, &mem)
            } else {
                ds.put_vara_all(v, &[base], &[1024], &vals)
            };
            wrote.expect("parity must carry the write through the crash");
            // Degraded read-back, shifted one rank over so every rank reads
            // bytes another rank wrote through the redirect path.
            let rb = ((c.rank() + 1) % 4) as u64 * 1024;
            let got: Vec<f32> = if flexible {
                let mut buf = vec![0u8; 4096];
                ds.get_vara_all_flexible(v, &[rb], &[1024], &mut buf, 1, &mem)
                    .unwrap();
                buf.chunks(4)
                    .map(|b| f32::from_ne_bytes(b.try_into().unwrap()))
                    .collect()
            } else {
                ds.get_vara_all(v, &[rb], &[1024]).unwrap()
            };
            for (i, &g) in got.iter().enumerate() {
                assert_eq!(g, (rb + i as u64) as f32);
            }
            ds.close().expect("close flushes through degraded mode too");
        });
        assert_eq!(pfs.down_server(), Some(0), "server 0 must be marked down");
        let fo = profile.failover_counters();
        assert_eq!(fo.epochs, 1, "exactly one agreed epoch: {fo:?}");
        assert!(fo.redirected_writes > 0, "writes must redirect: {fo:?}");
        assert!(fo.degraded_reads > 0, "reads must reconstruct: {fo:?}");
        assert!(fo.parity_updates > 0, "parity must be maintained: {fo:?}");
        let fc = profile.fault_counters();
        assert!(fc.exhausted > 0, "the ladder exhausts before escalating");
        assert!(fc.agreed_errors > 0, "ServerLost must be agreed: {fc:?}");
    }
}

/// The nonblocking/aggregated path (`iput` + `wait_all`), plus the online
/// rebuild: a crash window *with* a restart ends with the server rebuilt
/// and the file byte-identical to a fault-free run.
#[test]
fn wait_all_survives_and_rebuild_restores_the_server() {
    // Outage from t=1s to t=100s: far longer than the retry ladder
    // tolerates, so only failover can complete the flush.
    let cfg = faulty_cfg("crash=server:0@t>1e9,restart=1e11");
    let profile = cfg.profile.clone();
    let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
    let pfs2 = pfs.clone();
    run_world(4, cfg, move |c| {
        let mut ds = Dataset::create(c, &pfs2, "w.nc", Version::Cdf1, &parity_info()).unwrap();
        let x = ds.def_dim("x", 4096).unwrap();
        let v = ds.def_var("v", NcType::Int, &[x]).unwrap();
        ds.enddef().unwrap();
        c.advance(Time::from_secs_f64(2.0));
        let base = c.rank() as u64 * 1024;
        let vals: Vec<i32> = (0..1024).map(|i| (base + i) as i32).collect();
        ds.iput_vara(v, &[base], &[1024], &vals).unwrap();
        ds.wait_all()
            .expect("parity must carry the merged flush through the crash");
        ds.close().unwrap();
    });
    assert_eq!(pfs.down_server(), Some(0));
    let fo = profile.failover_counters();
    assert_eq!(fo.epochs, 1, "{fo:?}");
    assert!(fo.redirected_writes > 0, "{fo:?}");

    // First access past the restart triggers the online rebuild.
    let f = pfs.open("w.nc").unwrap();
    let degraded = f.to_bytes();
    let mut probe = [0u8; 1];
    f.try_read_at(Time::from_secs_f64(101.0), 0, &mut probe)
        .expect("post-restart read");
    assert_eq!(pfs.down_server(), None, "rebuild must clear the mark");
    let fo = profile.failover_counters();
    assert_eq!(fo.rebuilds, 1, "{fo:?}");
    assert!(fo.rebuilt_bytes > 0, "{fo:?}");
    assert_eq!(
        f.to_bytes(),
        degraded,
        "rebuild must not change the file contents"
    );
}

/// Graceful degradation the other way: with parity *off*, the same crash
/// spec still produces the agreed `Exhausted` of the seed behavior, and no
/// failover counter moves.
#[test]
fn without_parity_the_crash_still_exhausts() {
    let cfg = faulty_cfg("crash=server:0@t>1e9");
    let profile = cfg.profile.clone();
    let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
    let pfs2 = pfs.clone();
    run_world(2, cfg, move |c| {
        let mut ds = Dataset::create(c, &pfs2, "n.nc", Version::Cdf1, &Info::new()).unwrap();
        let x = ds.def_dim("x", 2048).unwrap();
        let v = ds.def_var("v", NcType::Float, &[x]).unwrap();
        ds.enddef().unwrap();
        c.advance(Time::from_secs_f64(2.0));
        ds.put_vara_all(v, &[c.rank() as u64 * 1024], &[1024], &[1.0f32; 1024])
            .unwrap_err();
    });
    assert_eq!(pfs.down_server(), None, "no parity, no failover");
    assert_eq!(
        profile.failover_counters(),
        Default::default(),
        "parity-off runs must not touch failover counters"
    );
}
