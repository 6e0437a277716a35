//! Micro-benchmarks of the hot kernels: sign packing, SCF block filtering,
//! top-k selection, ITQ training and rotation, full-precision scoring, and
//! the DRAM channel scheduler. Runs on the in-repo timing harness
//! ([`longsight_bench::timing`]); output shape matches the old criterion
//! goldens in `results/kernels.txt`.

use longsight_bench::fig3::{trace_for, train_trace_itq};
use longsight_bench::timing::bench_report;
use longsight_core::{filter_block, filter_block_packed, ItqConfig, ItqRotation, PFU_BLOCK_KEYS};
use longsight_dram::{ChannelSim, DramTiming, Request};
use longsight_tensor::{vecops, Matrix, SignArena, SignBits, SimRng, TopK};
use std::hint::black_box;

fn bench_sign_packing() {
    let mut rng = SimRng::seed_from(1);
    let v = rng.normal_vec(128);
    bench_report("sign/pack_128d", Some(128), || {
        SignBits::from_slice(black_box(&v))
    });
    let q = SignBits::from_slice(&rng.normal_vec(128));
    let k = SignBits::from_slice(&v);
    bench_report("sign/concordance_128d", Some(128), || {
        black_box(&q).concordance(black_box(&k))
    });
}

fn bench_scf_block() {
    let mut rng = SimRng::seed_from(2);
    let q = SignBits::from_slice(&rng.normal_vec(128));
    let keys: Vec<SignBits> = (0..PFU_BLOCK_KEYS)
        .map(|_| SignBits::from_slice(&rng.normal_vec(128)))
        .collect();
    bench_report(
        "scf/filter_block_128x128",
        Some(PFU_BLOCK_KEYS as u64),
        || filter_block(black_box(&q), black_box(&keys), 70),
    );
    let mut arena = SignArena::new(128);
    for k in &keys {
        arena.push_bits(k);
    }
    bench_report(
        "scf/filter_packed_128x128",
        Some(PFU_BLOCK_KEYS as u64),
        || filter_block_packed(black_box(&q), black_box(&arena), 0..PFU_BLOCK_KEYS, 70),
    );
}

fn bench_topk() {
    let mut rng = SimRng::seed_from(3);
    let scores: Vec<f32> = (0..65_536).map(|_| rng.normal() as f32).collect();
    bench_report("topk/top1024_of_64k", Some(scores.len() as u64), || {
        let mut t = TopK::new(1024);
        for (i, &s) in scores.iter().enumerate() {
            t.push(s, i);
        }
        black_box(t.len())
    });
}

fn bench_scoring() {
    let mut rng = SimRng::seed_from(4);
    let q = rng.normal_vec(128);
    let keys: Vec<Vec<f32>> = (0..1024).map(|_| rng.normal_vec(128)).collect();
    bench_report("score/dot_1024x128", Some(1024), || {
        let mut acc = 0.0f32;
        for k in &keys {
            acc += vecops::dot(black_box(&q), k);
        }
        black_box(acc)
    });
}

fn bench_itq() {
    let mut rng = SimRng::seed_from(5);
    let data = Matrix::random_gaussian(256, 64, &mut rng);
    bench_report("itq_train_256x64_10it", None, || {
        ItqRotation::train(
            black_box(&data),
            &ItqConfig {
                iterations: 10,
                seed: 1,
            },
        )
    });
    // Fig 3's geometry: 1024 normalized keys of a 128-dim head, 30 iterations.
    let trace = trace_for(128, 4_096, 0xF163 ^ 4_096);
    bench_report("itq_train_1024x128_30it", None, || {
        train_trace_itq(black_box(&trace), 1024, 0xF163)
    });
    let rot = ItqRotation::train(&data, &ItqConfig::default());
    let v = rng.normal_vec(64);
    bench_report("itq_apply_64d", None, || rot.apply(black_box(&v)));
}

fn bench_dram() {
    let reqs: Vec<Request> = (0..4096)
        .map(|i| Request::read(i % 64, (i / 64) % 32, i % 64))
        .collect();
    bench_report("dram/channel_4096_reqs", Some(reqs.len() as u64), || {
        let mut sim = ChannelSim::new(DramTiming::lpddr5x_8533(), 64);
        black_box(sim.run(black_box(&reqs)))
    });
}

fn main() {
    bench_sign_packing();
    bench_scf_block();
    bench_topk();
    bench_scoring();
    bench_itq();
    bench_dram();
}
