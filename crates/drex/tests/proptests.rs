//! Property-based tests for the DReX device model, on the in-repo
//! [`check`](longsight_tensor::check) runner.

use longsight_core::{RotationTable, ThresholdTable};
use longsight_cxl::CxlLink;
use longsight_dram::Geometry;
use longsight_drex::layout::{ContextSlice, UserPartition, MAX_CONTEXT_SLICE_KEYS};
use longsight_drex::{
    time_head_offload, DccSim, DrexDevice, DrexParams, HeadOffloadSpec, HeadWork, RequestDescriptor,
};
use longsight_tensor::check::run_cases;
use longsight_tensor::{prop_ensure, prop_ensure_eq, SimRng};

#[test]
fn context_slices_respect_capacity_and_banks() {
    run_cases("context_slices_respect_capacity_and_banks", 32, |g| {
        let keys = g.usize_in(1, MAX_CONTEXT_SLICE_KEYS + 1);
        let s = ContextSlice::new(0, keys);
        prop_ensure!(s.banks_used() <= 1024);
        prop_ensure!(s.keys_per_bank() <= 128);
        prop_ensure!(s.keys_per_bank() * s.banks_used() >= keys);
        Ok(())
    });
}

#[test]
fn partitions_cover_the_context() {
    run_cases("partitions_cover_the_context", 32, |g| {
        let kv_heads = g.usize_in(1, 9);
        let ctx = g.usize_in(0, 600_000);
        let p = UserPartition::plan(&Geometry::drex(), kv_heads, 4, 64, ctx, 0);
        prop_ensure_eq!(p.slices.len(), kv_heads);
        for head in &p.slices {
            let total: usize = head.iter().map(|s| s.keys).sum();
            prop_ensure_eq!(
                total,
                ctx,
                "slices must cover the context exactly: {total} != {ctx}"
            );
            for s in head {
                prop_ensure!(s.keys <= MAX_CONTEXT_SLICE_KEYS);
            }
        }
        Ok(())
    });
}

#[test]
fn offload_time_monotone_in_survivors() {
    run_cases("offload_time_monotone_in_survivors", 32, |g| {
        let keys = g.usize_in(1024, 100_000);
        let frac_a = g.f64_in(0.01, 0.4);
        let extra = g.f64_in(0.05, 0.5);
        let spec = |sv: usize| HeadOffloadSpec {
            context_len: keys,
            head_dim: 128,
            queries: 4,
            k: 1024,
            survivors: sv,
        };
        let sa = ((keys as f64) * frac_a) as usize;
        let sb = (((keys as f64) * (frac_a + extra)) as usize).min(keys);
        let p = DrexParams::paper();
        let ta = time_head_offload(&p, &spec(sa), 1).unwrap();
        let tb = time_head_offload(&p, &spec(sb), 1).unwrap();
        prop_ensure!(
            tb.total_ns() >= ta.total_ns() * 0.95,
            "more survivors should not get meaningfully faster: {} vs {}",
            ta.total_ns(),
            tb.total_ns()
        );
        Ok(())
    });
}

#[test]
fn dcc_scheduling_is_work_conserving() {
    run_cases("dcc_scheduling_is_work_conserving", 32, |g| {
        let durations = g.vec_f64(1, 40, 10.0, 10_000.0);
        let mut dcc = DccSim::new(DrexParams::paper(), CxlLink::pcie5_x16(), 8);
        let slices: Vec<(usize, f64)> = durations
            .iter()
            .enumerate()
            .map(|(i, &d)| (i % 8, d))
            .collect();
        let (done, _) = dcc.schedule_slices(0.0, &slices, None);
        let total: f64 = durations.iter().sum();
        let max: f64 = durations.iter().cloned().fold(0.0, f64::max);
        // Makespan bounds: at least max(longest job, total/8), at most total.
        prop_ensure!(done >= max - 1e-9);
        prop_ensure!(done >= total / 8.0 - 1e-9);
        prop_ensure!(done <= total + 1e-9);
        Ok(())
    });
}

#[test]
fn device_retrieves_at_most_k() {
    run_cases("device_retrieves_at_most_k", 32, |g| {
        let n = g.usize_in(1, 200);
        let k = g.usize_in(0, 64);
        let threshold = g.u32_in(0, 16);
        let mut dev = DrexDevice::new(
            DrexParams::paper(),
            CxlLink::pcie5_x16(),
            Geometry::drex(),
            ThresholdTable::uniform(1, 1, threshold),
            RotationTable::identity(1, 1, 16),
            16,
        );
        let user = dev.register_user();
        let mut rng = SimRng::seed_from(n as u64);
        let keys: Vec<Vec<f32>> = (0..n).map(|_| rng.normal_vec(16)).collect();
        let vals: Vec<Vec<f32>> = (0..n).map(|_| rng.normal_vec(16)).collect();
        dev.write_kv_block(user, 0, 0, &keys, &vals).unwrap();
        let req = RequestDescriptor {
            user,
            layer: 0,
            queries: vec![vec![rng.normal_vec(16)]],
        };
        let out = dev.offload(&req, k, 0.0).unwrap();
        let hits = &out.response.hits[0][0];
        prop_ensure!(hits.len() <= k.min(n));
        // Scores sorted descending.
        for w in hits.windows(2) {
            prop_ensure!(w[0].score >= w[1].score);
        }
        // Raising the threshold can only shrink the result set.
        if threshold > 0 {
            let mut dev0 = DrexDevice::new(
                DrexParams::paper(),
                CxlLink::pcie5_x16(),
                Geometry::drex(),
                ThresholdTable::uniform(1, 1, 0),
                RotationTable::identity(1, 1, 16),
                16,
            );
            let u0 = dev0.register_user();
            dev0.write_kv_block(u0, 0, 0, &keys, &vals).unwrap();
            let req0 = RequestDescriptor {
                user: u0,
                ..req.clone()
            };
            let out0 = dev0.offload(&req0, k, 0.0).unwrap();
            prop_ensure!(hits.len() <= out0.response.hits[0][0].len());
        }
        Ok(())
    });
}

#[test]
fn dcc_submit_orders_phases() {
    run_cases("dcc_submit_orders_phases", 32, |g| {
        let ctx = g.usize_in(1024, 300_000);
        let survivors_frac = g.f64_in(0.01, 0.3);
        let mut dcc = DccSim::new(DrexParams::paper(), CxlLink::pcie5_x16(), 8);
        let survivors = ((ctx as f64) * survivors_frac) as usize;
        let slices = ctx.div_ceil(MAX_CONTEXT_SLICE_KEYS);
        let work = HeadWork {
            spec: HeadOffloadSpec {
                context_len: ctx,
                head_dim: 64,
                queries: 4,
                k: 512,
                survivors,
            },
            slice_packages: (0..slices).collect(),
        };
        let t = dcc.submit(5_000.0, &[work], 512, 4096).unwrap();
        prop_ensure!(t.submitted_ns >= 5_000.0);
        prop_ensure!(t.device_done_ns >= t.submitted_ns);
        prop_ensure!(t.observed_ns > t.device_done_ns);
        prop_ensure!(t.value_read_ns > 0.0);
        Ok(())
    });
}
