//! Locks the [`StageTimings`] serialization contract that `strudel
//! serve` exposes through `/metrics`: the Prometheus text rendering
//! (metric names, label set, monotonicity) and the algebra of
//! [`StageTimings::merge`] (commutative, order-independent), which is
//! what makes concurrent per-worker accumulators safe to fold in any
//! completion order.

use proptest::prelude::*;
use std::time::Duration;
use strudel::{Stage, StageTimings};

#[test]
fn prometheus_rendering_locks_names_and_labels() {
    let mut timings = StageTimings::default();
    timings.record(Stage::Dialect, Duration::from_millis(1));
    timings.record(Stage::Parse, Duration::from_millis(12));
    timings.record(Stage::Parse, Duration::from_millis(8));
    let text = timings.to_prometheus("strudel");

    // Both families are declared as counters.
    assert!(text.contains("# TYPE strudel_stage_seconds_total counter"));
    assert!(text.contains("# TYPE strudel_stage_observations_total counter"));
    // Every stage appears in both families with the stage label.
    for stage in Stage::ALL {
        assert!(
            text.contains(&format!(
                "strudel_stage_seconds_total{{stage=\"{}\"}}",
                stage.name()
            )),
            "missing seconds sample for {}:\n{text}",
            stage.name()
        );
        assert!(
            text.contains(&format!(
                "strudel_stage_observations_total{{stage=\"{}\"}}",
                stage.name()
            )),
            "missing observations sample for {}:\n{text}",
            stage.name()
        );
    }
    // Exact values for the recorded stages; untouched stages are zero.
    assert!(text.contains("strudel_stage_seconds_total{stage=\"parse\"} 0.020000000"));
    assert!(text.contains("strudel_stage_observations_total{stage=\"parse\"} 2"));
    assert!(text.contains("strudel_stage_observations_total{stage=\"dialect\"} 1"));
    assert!(text.contains("strudel_stage_seconds_total{stage=\"cell_classify\"} 0.000000000"));
    // The prefix is honored verbatim.
    let other = timings.to_prometheus("svc");
    assert!(other.contains("svc_stage_seconds_total{stage=\"parse\"}"));
    assert!(!other.contains("strudel_"));
}

/// Pull the rendered sample values back out, in `Stage::ALL` order.
fn sample_values(text: &str, family: &str) -> Vec<f64> {
    Stage::ALL
        .iter()
        .map(|s| {
            let needle = format!("{family}{{stage=\"{}\"}} ", s.name());
            let line = text
                .lines()
                .find(|l| l.starts_with(&needle))
                .unwrap_or_else(|| panic!("no sample {needle} in:\n{text}"));
            line[needle.len()..].parse().unwrap()
        })
        .collect()
}

#[test]
fn prometheus_counters_are_monotone_under_recording() {
    let mut timings = StageTimings::default();
    let mut previous_seconds = vec![0.0; Stage::ALL.len()];
    let mut previous_counts = vec![0.0; Stage::ALL.len()];
    for round in 0..4 {
        for (i, stage) in Stage::ALL.into_iter().enumerate() {
            if (round + i) % 2 == 0 {
                timings.record(stage, Duration::from_micros(100 * (i as u64 + 1)));
            }
        }
        let text = timings.to_prometheus("strudel");
        let seconds = sample_values(&text, "strudel_stage_seconds_total");
        let counts = sample_values(&text, "strudel_stage_observations_total");
        for i in 0..Stage::ALL.len() {
            assert!(
                seconds[i] >= previous_seconds[i],
                "seconds regressed for stage {i} in round {round}"
            );
            assert!(
                counts[i] >= previous_counts[i],
                "count regressed for stage {i} in round {round}"
            );
        }
        previous_seconds = seconds;
        previous_counts = counts;
    }
}

/// An arbitrary observation stream. Each `u64` encodes one observation:
/// the stage index is `v % 6`, the duration is `v / 6 + 1` microseconds
/// (the vendored proptest shim has no tuple strategies). Every seventh
/// value additionally records a stream-window count so the merge
/// algebra covers the window counter too.
fn observations() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..50_000, 0..40)
}

fn accumulate(observations: &[u64]) -> StageTimings {
    let mut t = StageTimings::default();
    for &v in observations {
        t.record(
            Stage::ALL[(v % 6) as usize],
            Duration::from_micros(v / 6 + 1),
        );
        if v % 7 == 0 {
            t.record_stream_windows(v % 16 + 1);
        }
    }
    t
}

proptest! {
    #[test]
    fn merge_is_commutative(a in observations(), b in observations()) {
        let (ta, tb) = (accumulate(&a), accumulate(&b));
        let mut ab = ta.clone();
        ab.merge(&tb);
        let mut ba = tb.clone();
        ba.merge(&ta);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn merge_is_order_independent(
        all in observations(),
        cut_a in 0usize..=40,
        cut_b in 0usize..=40,
    ) {
        // Partition one observation stream into three per-worker
        // accumulators at arbitrary points, then fold them in two
        // different completion orders: the aggregate must not depend on
        // which worker finished first — exactly the property the batch
        // engine and the serve registry rely on.
        let cut_a = cut_a.min(all.len());
        let cut_b = cut_b.clamp(cut_a, all.len());
        let parts = [
            accumulate(&all[..cut_a]),
            accumulate(&all[cut_a..cut_b]),
            accumulate(&all[cut_b..]),
        ];
        let mut forward = StageTimings::default();
        for p in &parts {
            forward.merge(p);
        }
        let mut reverse = StageTimings::default();
        for p in parts.iter().rev() {
            reverse.merge(p);
        }
        prop_assert_eq!(&forward, &reverse);
        // And folding the partition equals accumulating the whole
        // stream sequentially.
        prop_assert_eq!(&forward, &accumulate(&all));
    }
}
