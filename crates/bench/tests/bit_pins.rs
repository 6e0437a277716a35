//! Bit pins for the ITQ training path, the quality-path host kernels and
//! the DReX device model.
//!
//! `linalg::svd_square` and `ItqRotation::train` feed every hybrid+ITQ
//! golden (Fig 3, Fig 4, Fig 10, the filtering baselines). A rewrite of
//! either may change speed but not a single output bit, so these tests hash
//! the exact `f32` bit patterns and compare them with constants recorded
//! before the column-major Jacobi rewrite.

use longsight_bench::fig3::{trace_for, train_trace_itq};
use longsight_core::trace_eval::PreparedTrace;
use longsight_core::{
    FilterStats, HybridConfig, ItqConfig, ItqRotation, LongSightBackend, RotationTable,
    ThresholdTable,
};
use longsight_drex::layout::MAX_CONTEXT_SLICE_KEYS;
use longsight_drex::{
    time_head_offload, time_slice_offload, DccSim, HeadOffloadSpec, HeadOffloadTiming, HeadWork,
};
use longsight_faults::FaultProfile;
use longsight_model::{AttentionBackend, AttentionRequest, HeadKv, ModelConfig};
use longsight_system::{
    DegradeStats, Infeasible, LongSightConfig, LongSightSystem, LookaheadConfig, OffloadProfile,
    ServingSystem, StepReport,
};
use longsight_tensor::{linalg, FlatVecs, Matrix, SignArena, SimRng};

/// FNV-1a over the little-endian bit patterns of `values`.
fn fnv1a_bits<'a>(values: impl IntoIterator<Item = &'a f32>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn svd_square_bits_are_pinned() {
    let mut rng = SimRng::seed_from(0x5BD_128);
    let a = Matrix::random_gaussian(128, 128, &mut rng);
    let svd = linalg::svd_square(&a);
    let got = [
        fnv1a_bits(svd.u.data()),
        fnv1a_bits(&svd.sigma),
        fnv1a_bits(svd.v.data()),
    ];
    assert_eq!(
        got,
        [
            0x9683_33db_dd1a_d28d,
            0x152c_60e2_6882_2728,
            0x8e68_d90b_2c80_abbb
        ],
        "svd_square moved a bit: {got:#x?}"
    );
}

#[test]
fn itq_training_on_the_fig3_set_is_pinned() {
    // Fig 3's first context: 4096 tokens, rotation trained on the first
    // 1024 keys for 30 iterations.
    let trace = trace_for(128, 4_096, 0xF163 ^ 4_096);
    let rotation = train_trace_itq(&trace, 1024, 0xF163);
    let got = fnv1a_bits(rotation.matrix().data());
    assert_eq!(
        got, 0x96a7_e40c_f09f_4749,
        "ITQ training moved a bit: {got:#x}"
    );
}

// Quality-path pins. The per-query pipeline (SCF scan over the packed sign
// arena, full-precision scores, top-k selection, attention over the
// candidates) feeds the Fig 3, Fig 4, Fig 10 and quality goldens. Its host
// kernels may get faster but not move a single output bit, so these tests
// hash the exact bit patterns and compare them with constants recorded
// before the kernels were rewritten.

fn fnv_filter_stats(h: &mut Fnv, s: &FilterStats) {
    for v in [
        s.queries,
        s.dense_kv,
        s.window_accessed,
        s.sparse_region,
        s.scored,
        s.retrieved,
    ] {
        h.u(v);
    }
    h.u(s.per_head.len() as u64);
    for ph in &s.per_head {
        h.u(ph.region);
        h.u(ph.scored);
        h.u(ph.retrieved);
    }
}

#[test]
fn trace_eval_bits_are_pinned() {
    // Every Fig 3 ladder rung (thresholds 0, 4, ..., 128) of the three
    // variants' configurations, at a k that forces selection and one that
    // keeps the whole region.
    let trace = trace_for(128, 2_048, 0x7EA1);
    let itq = train_trace_itq(&trace, 512, 0x7EA1);
    let identity = ItqRotation::identity(128);
    let mut got = Vec::new();
    for (window, rotation) in [(1, &identity), (1024, &identity), (1024, &itq)] {
        let mut h = Fnv::new();
        for k in [64, 1024] {
            let config = HybridConfig {
                window,
                sinks: 16,
                top_k: k,
            };
            let prepared = PreparedTrace::new(&trace, rotation, &config);
            for th in (0..=128u32).step_by(4) {
                let q = prepared.evaluate(th);
                h.f(q.topk_recall);
                h.f(q.ground_truth_recall);
                h.f(q.output_rel_err);
                fnv_filter_stats(&mut h, &q.stats);
            }
        }
        got.push(h.0);
    }
    assert_eq!(
        got,
        [
            0xe83e_96c4_23f1_b5b2,
            0x1990_dbc9_488a_ded8,
            0x0d66_4a32_3d0a_7859
        ],
        "evaluate_trace moved a bit: {got:#x?}"
    );
}

#[test]
fn hybrid_attention_bits_are_pinned() {
    // A sparse region of 4,928 keys spans two 4,096-key scan chunks, so the
    // chunk-local top-k lists go through the merge.
    let dim = 64;
    let n = 5_200;
    let mut rng = SimRng::seed_from(0x4B1D);
    let mut history = HeadKv::new(dim);
    for _ in 0..n {
        let k = rng.normal_vec(dim);
        let v = rng.normal_vec(dim);
        history.push(&k, &v);
    }
    let queries: Vec<Vec<f32>> = (0..4).map(|_| rng.normal_vec(dim)).collect();
    let train = Matrix::from_vec(
        512,
        dim,
        (0..512)
            .flat_map(|i| history.keys().get(i).to_vec())
            .collect(),
    );
    let itq = ItqRotation::train(
        &train,
        &ItqConfig {
            iterations: 10,
            seed: 0x4B1D,
        },
    );
    let req = AttentionRequest {
        layer: 0,
        kv_head: 0,
        position: n - 1,
        queries: &queries,
        history: &history,
        scale: 0.125,
    };
    let mut got = Vec::new();
    for rotation in [ItqRotation::identity(dim), itq] {
        let mut h = Fnv::new();
        for top_k in [64, 1024] {
            for threshold in [0, 30, 36] {
                let mut backend = LongSightBackend::new(
                    HybridConfig {
                        window: 256,
                        sinks: 16,
                        top_k,
                    },
                    ThresholdTable::uniform(1, 1, threshold),
                    RotationTable::from_fn(1, 1, |_, _| rotation.clone()),
                );
                for out in backend.attend(&req) {
                    for x in out {
                        h.u(u64::from(x.to_bits()));
                    }
                }
                fnv_filter_stats(&mut h, backend.stats());
            }
        }
        got.push(h.0);
    }
    assert_eq!(
        got,
        [0x6430_a5ae_9157_0419, 0x51ce_da42_9f03_f5af],
        "hybrid attention moved a bit: {got:#x?}"
    );
}

#[test]
fn sign_arena_words_are_pinned() {
    // Random rows, then rows mixing ±0.0, ±inf, NaN payloads and
    // subnormals, across a 130-dim width (three words, a partial last one).
    let dim = 130;
    let mut rng = SimRng::seed_from(0x5167);
    let specials = [
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        -f32::NAN,
        f32::from_bits(0x7fc0_0001),
        f32::from_bits(0xffc0_0001),
        f32::MIN_POSITIVE / 2.0,
        -f32::MIN_POSITIVE / 2.0,
        1.0,
        -1.0,
    ];
    let mut keys = FlatVecs::new(dim);
    for _ in 0..1_500 {
        keys.push(&rng.normal_vec(dim));
    }
    for r in 0..64 {
        let row: Vec<f32> = (0..dim)
            .map(|i| {
                if (i + r) % 3 == 0 {
                    specials[(i * 7 + r) % specials.len()]
                } else {
                    rng.normal() as f32
                }
            })
            .collect();
        keys.push(&row);
    }
    let all_special: Vec<f32> = (0..dim).map(|i| specials[i % specials.len()]).collect();
    keys.push(&all_special);
    let train = Matrix::from_vec(
        256,
        dim,
        (0..256).flat_map(|i| keys.get(i).to_vec()).collect(),
    );
    let trained = ItqRotation::train(
        &train,
        &ItqConfig {
            iterations: 5,
            seed: 0x5167,
        },
    );
    let mut got = Vec::new();
    for rotation in [ItqRotation::identity(dim), trained] {
        let mut h = Fnv::new();
        let arena = rotation.sign_arena(&keys);
        for w in arena.lane_words(0..arena.len()) {
            h.u(*w);
        }
        let mut pushed = SignArena::new(dim);
        for i in 0..keys.len() {
            let signs = rotation.signs(keys.get(i));
            pushed.push_bits(&signs);
            for w in signs.words() {
                h.u(*w);
            }
        }
        assert_eq!(pushed, arena, "signs() and sign_arena() disagree");
        got.push(h.0);
    }
    assert_eq!(
        got,
        [0x2f65_b4d5_1781_e8fd, 0xe169_3366_bc8b_2465],
        "sign packing moved a bit: {got:#x?}"
    );
}

// Device-model pins. The DReX offload chain (slice timing, DCC scheduling,
// CXL submit/poll/transfer) and the LongSight step evaluation feed every
// serving golden. A refactor of those layers may change their shape but not
// a single output bit, so each case below hashes the exact `f64` bit
// patterns over a grid of models, contexts (8K, 32K, 128K, 1M and 200K, the
// last one leaving a remainder slice), batch sizes, lookahead on/off and
// three fault profiles, and compares them with constants recorded before
// the offload/link timing functions were collapsed.

/// FNV-1a state fed with the bit patterns of integers and `f64`s.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f(&mut self, v: f64) {
        self.u(v.to_bits());
    }

    fn text(&mut self, s: &str) {
        self.u(s.len() as u64);
        for b in s.bytes() {
            self.u(u64::from(b));
        }
    }

    fn head(&mut self, t: &HeadOffloadTiming) {
        for v in [
            t.filter_ns,
            t.bitmap_ns,
            t.addr_gen_ns,
            t.fetch_score_ns,
            t.topk_ns,
        ] {
            self.f(v);
        }
    }

    fn profile(&mut self, p: &OffloadProfile) {
        for v in [
            p.filter_ns,
            p.bitmap_ns,
            p.addr_gen_ns,
            p.fetch_score_ns,
            p.topk_ns,
            p.queue_wait_ns,
            p.value_cxl_ns,
        ] {
            self.f(v);
        }
    }

    fn stats(&mut self, s: &DegradeStats) {
        for v in [s.retried_tokens, s.degraded_tokens, s.failed_requests] {
            self.u(v as u64);
        }
    }

    fn step(&mut self, r: &Result<StepReport, Infeasible>) {
        let r = match r {
            Ok(r) => r,
            Err(e) => return self.text(&format!("{e:?}")),
        };
        self.u(r.users as u64);
        self.u(r.context as u64);
        self.f(r.step_ns);
        self.f(r.throughput_tps);
        let b = &r.breakdown;
        for v in [
            b.gpu_weights_ns,
            b.gpu_attention_ns,
            b.gpu_merge_ns,
            b.drex_offload_ns,
            b.cxl_ns,
        ] {
            self.f(v);
        }
        match &r.offload {
            Some(o) => {
                self.u(1);
                for v in [o.filter_ns, o.score_ns, o.queue_ns, o.link_ns] {
                    self.f(v);
                }
            }
            None => self.u(0),
        }
        match &r.spec {
            Some(s) => {
                self.u(1);
                for v in [
                    s.chain_ns,
                    s.serial_step_ns,
                    s.serial_visible_ns,
                    s.hit_visible_ns,
                    s.refilter_penalty_ns,
                    s.miss_rate,
                ] {
                    self.f(v);
                }
                self.u(s.slots as u64);
                self.u(s.seed);
            }
            None => self.u(0),
        }
    }
}

const CONTEXTS: [usize; 5] = [8_192, 32_768, 131_072, 1 << 20, 200_000];
const USERS: [usize; 3] = [1, 8, 64];

fn models() -> [ModelConfig; 2] {
    [ModelConfig::llama3_1b(), ModelConfig::llama3_8b()]
}

fn fault_cases() -> [(FaultProfile, u64); 3] {
    [
        (FaultProfile::disabled(), 0),
        (FaultProfile::mild(), 11),
        (FaultProfile::scaled(0.2), 11),
    ]
}

fn system(model: &ModelConfig, lookahead: bool, faults: &(FaultProfile, u64)) -> LongSightSystem {
    let la = if lookahead {
        LookaheadConfig::serving_default()
    } else {
        LookaheadConfig::disabled()
    };
    let cfg = LongSightConfig::paper_default()
        .with_lookahead(la)
        .with_faults(faults.0.clone(), faults.1);
    LongSightSystem::new(cfg, model.clone())
}

/// One hash per model over every (context, users, lookahead, faults) case.
fn pin_per_model(
    mut case: impl FnMut(&mut Fnv, &ModelConfig, usize, usize, bool, &(FaultProfile, u64)),
) -> [u64; 2] {
    models().map(|model| {
        let mut h = Fnv::new();
        for ctx in CONTEXTS {
            for users in USERS {
                for lookahead in [false, true] {
                    for faults in fault_cases() {
                        case(&mut h, &model, ctx, users, lookahead, &faults);
                    }
                }
            }
        }
        h.0
    })
}

#[test]
fn evaluate_bits_are_pinned() {
    let got = pin_per_model(|h, model, ctx, users, lookahead, faults| {
        h.step(&system(model, lookahead, faults).evaluate(users, ctx));
    });
    assert_eq!(
        got,
        [0xa49d_d8ef_4eb1_918b, 0x4a28_7741_f0db_d7a6],
        "LongSightSystem::evaluate moved a bit: {got:#x?}"
    );
}

#[test]
fn evaluate_with_faults_bits_are_pinned() {
    let got = pin_per_model(|h, model, ctx, users, lookahead, faults| {
        match system(model, lookahead, faults).evaluate_with_faults(users, ctx) {
            Ok((report, log, stats)) => {
                h.step(&Ok(report));
                h.u(log.len() as u64);
                h.stats(&stats);
            }
            Err(e) => h.step(&Err(e)),
        }
    });
    assert_eq!(
        got,
        [0x6361_d24a_1bc2_d66b, 0x61ce_fe0c_30cb_2d3a],
        "evaluate_with_faults moved a bit: {got:#x?}"
    );
}

#[test]
fn drex_layer_bits_are_pinned() {
    let got = pin_per_model(|h, model, ctx, users, lookahead, faults| {
        if lookahead || faults.0.is_enabled() {
            return; // the clean layer reads neither
        }
        let (ns, profile) = system(model, false, faults).drex_layer(users, ctx);
        h.f(ns);
        h.profile(&profile);
    });
    assert_eq!(
        got,
        [0x9cce_cf46_f0d4_93a9, 0xfc52_1c85_0fb1_063e],
        "drex_layer moved a bit: {got:#x?}"
    );
}

#[test]
fn drex_layer_faulty_bits_are_pinned() {
    let got = pin_per_model(|h, model, ctx, users, lookahead, faults| {
        if lookahead {
            return; // the faulted layer does not read the lookahead config
        }
        let r = system(model, false, faults).drex_layer_faulty(users, ctx);
        h.f(r.layer_ns);
        h.profile(&r.profile);
        h.text(&r.log.to_text());
        h.stats(&r.stats);
        h.u(r.replay_rounds as u64);
        h.u(r.straggled_slices as u64);
    });
    assert_eq!(
        got,
        [0x0010_1c60_976f_9dce, 0x78e4_4d29_d2b2_a334],
        "drex_layer_faulty moved a bit: {got:#x?}"
    );
}

#[test]
fn drex_layer_mixed_bits_are_pinned() {
    let got = pin_per_model(|h, model, ctx, users, lookahead, faults| {
        if lookahead || faults.0.is_enabled() {
            return; // the mixed layer reads neither
        }
        let s = system(model, false, faults);
        h.f(s.drex_layer_mixed(&vec![ctx; users]));
        // A skewed batch: every third user at half and quarter context.
        let skewed: Vec<usize> = (0..users).map(|u| ctx >> (u % 3)).collect();
        h.f(s.drex_layer_mixed(&skewed));
    });
    assert_eq!(
        got,
        [0x7727_c9cd_d6d9_5aea, 0xf424_3938_05f1_4f2b],
        "drex_layer_mixed moved a bit: {got:#x?}"
    );
}

/// Every KV head of one user at `ctx`, with the survivor count and slice
/// placement `LongSightSystem::drex_layer` uses.
fn head_works(model: &ModelConfig, ctx: usize, user: usize, packages: usize) -> Vec<HeadWork> {
    let cfg = LongSightConfig::paper_default();
    let region = ctx - (cfg.hybrid.window + cfg.hybrid.sinks);
    let kv = model.kv_heads;
    let slices = region.div_ceil(MAX_CONTEXT_SLICE_KEYS);
    (0..kv)
        .map(|h| HeadWork {
            spec: HeadOffloadSpec {
                context_len: region,
                head_dim: model.head_dim,
                queries: model.group_size(),
                k: cfg.hybrid.top_k.min(region),
                survivors: (region as f64 / cfg.filter_ratio) as usize,
            },
            slice_packages: (0..slices)
                .map(|s| (user * kv + h + s * kv) % packages)
                .collect(),
        })
        .collect()
}

#[test]
fn dcc_submit_bits_are_pinned() {
    let got = pin_per_model(|h, model, ctx, users, lookahead, faults| {
        if lookahead || faults.0.is_enabled() {
            return; // the DCC model reads neither
        }
        let cfg = LongSightConfig::paper_default();
        let packages = cfg.geometry.packages;
        let mut dcc = DccSim::new(cfg.drex.clone(), cfg.link.clone(), packages);
        let desc_bytes = 8 + model.q_heads * model.head_dim * 2;
        let response_bytes = model.kv_heads * cfg.hybrid.top_k * (model.head_dim * 2 + 8);
        for u in 0..users {
            let heads = head_works(model, ctx, u, packages);
            let t = dcc
                .submit(u as f64 * 1_000.0, &heads, desc_bytes, response_bytes)
                .unwrap();
            for v in [
                t.submitted_ns,
                t.device_done_ns,
                t.observed_ns,
                t.value_read_ns,
                t.queue_wait_ns,
            ] {
                h.f(v);
            }
            h.head(&t.critical_head);
        }
    });
    assert_eq!(
        got,
        [0x3208_4421_fc65_702f, 0x80b0_9ab4_9e98_839e],
        "DccSim::submit moved a bit: {got:#x?}"
    );
}

#[test]
fn time_slice_offload_bits_are_pinned() {
    let got = pin_per_model(|h, model, ctx, users, lookahead, faults| {
        if users != 1 || lookahead || faults.0.is_enabled() {
            return; // one slice timing per (model, context)
        }
        let cfg = LongSightConfig::paper_default();
        let spec = head_works(model, ctx, 0, 1)[0].spec;
        let region = spec.context_len;
        let full = region.min(MAX_CONTEXT_SLICE_KEYS);
        let rem = region - (region.div_ceil(MAX_CONTEXT_SLICE_KEYS) - 1) * MAX_CONTEXT_SLICE_KEYS;
        for (keys, seed) in [(full, 17), (rem, 18), (full, 23)] {
            for survivors in [0, keys / 20, keys / 3, keys] {
                h.head(&time_slice_offload(&cfg.drex, &spec, keys, survivors, seed, None).unwrap());
            }
        }
        h.head(&time_head_offload(&cfg.drex, &spec, 99).unwrap());
    });
    assert_eq!(
        got,
        [0x2861_e7af_3c97_a52d, 0x6116_2df0_099b_f5e3],
        "time_slice_offload moved a bit: {got:#x?}"
    );
}
