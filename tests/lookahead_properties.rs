//! Property tests for the lookahead DReX pipeline, on the in-repo
//! [`check`](longsight::tensor::check) runner.
//!
//! * **No free lunch** — speculation can only hide the offload chain, never
//!   invent time: a lookahead-on step is never cheaper than the clean
//!   synchronous step minus the full unoverlapped chain, and never slower
//!   than the synchronous step itself.
//! * **Degenerate miss rate** — with every speculation stale
//!   (`miss_rate == 1.0`) and a zero re-filter penalty, the closed-loop
//!   serving timing is exactly the synchronous timing; only the miss
//!   counters differ.
//! * **Bounded pool** — the slot pool's occupancy and high-water mark never
//!   exceed its capacity over arbitrary issue/release sequences, and the
//!   issue/deny counters partition the attempts.

use longsight::drex::SpecSlotPool;
use longsight::model::ModelConfig;
use longsight::system::serving::{simulate, WorkloadConfig};
use longsight::system::{LongSightConfig, LongSightSystem, LookaheadConfig, ServingSystem};
use longsight::tensor::check::run_cases;
use longsight::tensor::{prop_ensure, prop_ensure_eq};

#[test]
fn lookahead_is_never_cheaper_than_sync_minus_the_hidden_chain() {
    run_cases(
        "lookahead_is_never_cheaper_than_sync_minus_the_hidden_chain",
        24,
        |g| {
            let model = if g.bool() {
                ModelConfig::llama3_1b()
            } else {
                ModelConfig::llama3_8b()
            };
            let users = g.usize_in(1, 17);
            let context = g.usize_in(8_192, 131_073);
            let mut sync = LongSightSystem::new(LongSightConfig::paper_default(), model.clone());
            let mut spec = LongSightSystem::new(
                LongSightConfig::paper_default().with_lookahead(LookaheadConfig::serving_default()),
                model,
            );
            let (off, on) = match (sync.evaluate(users, context), spec.evaluate(users, context)) {
                (Ok(off), Ok(on)) => (off, on),
                // Infeasible points (KV overflow) must be infeasible on both.
                (Err(_), Err(_)) => return Ok(()),
                _ => return Err(format!("feasibility diverged at {users}x{context}")),
            };
            let s = on
                .spec
                .ok_or_else(|| "lookahead-on report lost its SpecStep".to_string())?;
            prop_ensure_eq!(
                s.serial_step_ns.to_bits(),
                off.step_ns.to_bits(),
                "SpecStep.serial_step_ns must be the lookahead-off step bits"
            );
            prop_ensure!(
                on.step_ns >= off.step_ns - s.chain_ns - 1e-6,
                "hit step {} cheaper than sync {} minus the whole chain {}",
                on.step_ns,
                off.step_ns,
                s.chain_ns
            );
            prop_ensure!(
                on.step_ns <= off.step_ns + 1e-6,
                "hit step {} slower than the synchronous step {}",
                on.step_ns,
                off.step_ns
            );
            prop_ensure!(
                s.hit_visible_ns <= s.serial_visible_ns + 1e-6,
                "hit path exposes more wait ({}) than the sync path ({})",
                s.hit_visible_ns,
                s.serial_visible_ns
            );
            Ok(())
        },
    );
}

#[test]
fn miss_rate_one_with_zero_penalty_degenerates_to_serial_timing() {
    run_cases(
        "miss_rate_one_with_zero_penalty_degenerates_to_serial_timing",
        12,
        |g| {
            let model = ModelConfig::llama3_1b();
            let wl = WorkloadConfig {
                arrivals_per_s: g.f64_in(3.0, 8.0),
                context_tokens: (16_384, 32_768),
                output_tokens: (16, 64),
                duration_s: 3.0,
                seed: g.u64_in(1, 1 << 20),
            };
            let mut sync = LongSightSystem::new(LongSightConfig::paper_default(), model.clone());
            let off = simulate(&mut sync, &model, &wl);
            let all_miss = LookaheadConfig {
                miss_rate: 1.0,
                refilter_penalty_ns: 0.0,
                slots: 64,
                ..LookaheadConfig::serving_default()
            };
            let mut spec = LongSightSystem::new(
                LongSightConfig::paper_default().with_lookahead(all_miss),
                model.clone(),
            );
            let on = simulate(&mut spec, &model, &wl);
            prop_ensure_eq!(on.spec_hits, 0, "miss rate 1.0 cannot land a hit");
            prop_ensure!(on.spec_misses > 0, "run generated no speculated steps");
            // Everything except the speculation counters degenerates to the
            // synchronous run, bit for bit.
            let strip = |m: &longsight::system::serving::ServeMetrics| {
                let mut m = m.clone();
                m.spec_hits = 0;
                m.spec_misses = 0;
                m.spec_denied = 0;
                m
            };
            prop_ensure_eq!(
                strip(&on),
                strip(&off),
                "all-miss zero-penalty timing diverged from the synchronous run"
            );
            Ok(())
        },
    );
}

#[test]
fn slot_pool_occupancy_never_exceeds_its_bound() {
    run_cases("slot_pool_occupancy_never_exceeds_its_bound", 64, |g| {
        let slots = g.usize_in(1, 48);
        let mut pool = SpecSlotPool::new(slots);
        let mut now = 0.0f64;
        let steps = g.usize_in(1, 200);
        let mut attempts = 0u64;
        for _ in 0..steps {
            now += g.f64_in(0.0, 2.0e6);
            pool.release_until(now);
            for _ in 0..g.usize_in(0, 8) {
                pool.issue(now, g.f64_in(0.0, 10.0e6));
                attempts += 1;
                prop_ensure!(
                    pool.occupancy() <= pool.capacity(),
                    "occupancy {} exceeded the {}-slot bound",
                    pool.occupancy(),
                    pool.capacity()
                );
            }
        }
        prop_ensure!(
            pool.peak_occupancy() <= pool.capacity(),
            "peak {} exceeded the {}-slot bound",
            pool.peak_occupancy(),
            pool.capacity()
        );
        prop_ensure_eq!(
            pool.issued() + pool.denied(),
            attempts,
            "issue/deny counters must partition the attempts"
        );
        Ok(())
    });
}
