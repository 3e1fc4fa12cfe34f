//! The daemon's metrics registry and its Prometheus text rendering.
//!
//! Counters are lock-free atomics bumped on the request path. The
//! per-stage pipeline timings are shard-sharded: each shard owns one
//! [`StageTimings`] slot behind its own mutex, written only by that
//! shard's serving loop — so the accept→serve hot path never contends
//! on a shared timing lock (the old design funnelled every request
//! through one global `Mutex<StageTimings>`). The slots are merged into
//! one accumulator only at `GET /metrics` scrape time, which is sound
//! because [`StageTimings::merge`] is commutative and associative (the
//! property the batch engine's merge proptests pin).
//!
//! `GET /metrics` renders everything in Prometheus text exposition
//! format: request counters by endpoint and outcome, the two cache
//! families (`classify` result JSON and `pack` containers) as labelled
//! hit/miss counters, connection/shed counters, the stage counters from
//! [`StageTimings::to_prometheus`], and throughput gauges computed with
//! the guarded [`strudel::batch::rate`] helper (zero, never NaN, on an
//! idle or freshly started server).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use strudel::batch::rate;
use strudel::StageTimings;

/// One monotone counter per (endpoint, outcome) pair plus the cache,
/// connection, shed, and byte counters. All relaxed atomics: the
/// metrics are statistical, not synchronizing.
#[derive(Debug)]
pub struct Registry {
    started: Instant,
    /// Successful classifications (cache hits included).
    pub classify_ok: AtomicU64,
    /// Classifications that returned a typed error.
    pub classify_err: AtomicU64,
    /// Streaming classifications that ran to the final summary event.
    pub stream_ok: AtomicU64,
    /// Streaming classifications that ended in a typed error, a broken
    /// body, or a vanished client.
    pub stream_err: AtomicU64,
    /// `POST /pack` requests that produced (or re-served) a container.
    pub pack_ok: AtomicU64,
    /// `POST /pack` requests that failed with a typed error.
    pub pack_err: AtomicU64,
    /// `GET /pack/<key>` fetches and selective extractions served.
    pub unpack_ok: AtomicU64,
    /// `GET /pack/<key>` requests that failed (unknown key, bad
    /// selector, corrupt container).
    pub unpack_err: AtomicU64,
    /// `GET /healthz` requests served.
    pub healthz: AtomicU64,
    /// `GET /metrics` requests served.
    pub metrics: AtomicU64,
    /// Successful `POST /admin/reload` swaps.
    pub reload_ok: AtomicU64,
    /// Rejected `POST /admin/reload` attempts (the old model kept
    /// serving).
    pub reload_err: AtomicU64,
    /// Requests that never reached a handler (bad framing, unknown
    /// route, wrong method).
    pub http_err: AtomicU64,
    /// Classify result-cache hits (classification skipped).
    pub cache_hits: AtomicU64,
    /// Classify result-cache misses (full pipeline ran).
    pub cache_misses: AtomicU64,
    /// Pack container-cache hits (`POST /pack` re-serves, `GET
    /// /pack/<key>` fetches that found their container).
    pub pack_cache_hits: AtomicU64,
    /// Pack container-cache misses (`POST /pack` built a fresh
    /// container, `GET /pack/<key>` found nothing under the key).
    pub pack_cache_misses: AtomicU64,
    /// Connections accepted and admitted into a shard (shed connections
    /// are counted separately).
    pub connections: AtomicU64,
    /// Connections shed by admission control with `503`.
    pub shed: AtomicU64,
    /// Total classify request-body bytes accepted.
    pub bytes_in: AtomicU64,
    /// Per-shard pipeline timing slots; each shard writes only its own,
    /// the scrape merges them all.
    shard_timings: Vec<Mutex<StageTimings>>,
}

impl Registry {
    /// A fresh registry with one timing slot per shard; uptime counts
    /// from now.
    pub fn new(n_shards: usize) -> Registry {
        Registry {
            started: Instant::now(),
            classify_ok: AtomicU64::new(0),
            classify_err: AtomicU64::new(0),
            stream_ok: AtomicU64::new(0),
            stream_err: AtomicU64::new(0),
            pack_ok: AtomicU64::new(0),
            pack_err: AtomicU64::new(0),
            unpack_ok: AtomicU64::new(0),
            unpack_err: AtomicU64::new(0),
            healthz: AtomicU64::new(0),
            metrics: AtomicU64::new(0),
            reload_ok: AtomicU64::new(0),
            reload_err: AtomicU64::new(0),
            http_err: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            pack_cache_hits: AtomicU64::new(0),
            pack_cache_misses: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            bytes_in: AtomicU64::new(0),
            shard_timings: (0..n_shards.max(1))
                .map(|_| Mutex::new(StageTimings::default()))
                .collect(),
        }
    }

    /// Bump a counter by one.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Fold a request's local stage timings into the owning shard's
    /// slot. Only that shard calls this, so the lock is uncontended on
    /// the hot path (the scrape takes it briefly at merge time).
    pub fn merge_timings(&self, shard: usize, timings: &StageTimings) {
        let slot = &self.shard_timings[shard % self.shard_timings.len()];
        if let Ok(mut guard) = slot.lock() {
            guard.merge(timings);
        }
    }

    /// Merge every shard's timing slot into one accumulator — the
    /// scrape-time merge (commutative, so shard order is irrelevant).
    pub fn merged_timings(&self) -> StageTimings {
        let mut merged = StageTimings::default();
        for slot in &self.shard_timings {
            if let Ok(guard) = slot.lock() {
                merged.merge(&guard);
            }
        }
        merged
    }

    /// Render the registry in Prometheus text exposition format.
    pub fn render(&self) -> String {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let uptime = self.started.elapsed();
        let classified = get(&self.classify_ok) + get(&self.classify_err);
        let mut out = String::new();
        out.push_str("# TYPE strudel_requests_total counter\n");
        for (endpoint, outcome, value) in [
            ("classify", "ok", get(&self.classify_ok)),
            ("classify", "error", get(&self.classify_err)),
            ("classify_stream", "ok", get(&self.stream_ok)),
            ("classify_stream", "error", get(&self.stream_err)),
            ("pack", "ok", get(&self.pack_ok)),
            ("pack", "error", get(&self.pack_err)),
            ("unpack", "ok", get(&self.unpack_ok)),
            ("unpack", "error", get(&self.unpack_err)),
            ("healthz", "ok", get(&self.healthz)),
            ("metrics", "ok", get(&self.metrics)),
            ("reload", "ok", get(&self.reload_ok)),
            ("reload", "error", get(&self.reload_err)),
            ("other", "error", get(&self.http_err)),
        ] {
            out.push_str(&format!(
                "strudel_requests_total{{endpoint=\"{endpoint}\",outcome=\"{outcome}\"}} {value}\n"
            ));
        }
        out.push_str("# TYPE strudel_cache_hits_total counter\n");
        out.push_str("# TYPE strudel_cache_misses_total counter\n");
        for (family, hits, misses) in [
            ("classify", get(&self.cache_hits), get(&self.cache_misses)),
            (
                "pack",
                get(&self.pack_cache_hits),
                get(&self.pack_cache_misses),
            ),
        ] {
            out.push_str(&format!(
                "strudel_cache_hits_total{{family=\"{family}\"}} {hits}\n\
                 strudel_cache_misses_total{{family=\"{family}\"}} {misses}\n"
            ));
        }
        for (name, value) in [
            ("strudel_connections_total", get(&self.connections)),
            ("strudel_shed_total", get(&self.shed)),
            ("strudel_bytes_in_total", get(&self.bytes_in)),
        ] {
            out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
        }
        out.push_str(&format!(
            "# TYPE strudel_uptime_seconds gauge\nstrudel_uptime_seconds {:.3}\n",
            uptime.as_secs_f64()
        ));
        // Lifetime throughput via the same guarded helpers the batch
        // report uses; both are 0.0 (not NaN) at zero uptime.
        out.push_str(&format!(
            "# TYPE strudel_files_per_second gauge\nstrudel_files_per_second {:.6}\n",
            rate(classified as f64, uptime)
        ));
        out.push_str(&format!(
            "# TYPE strudel_bytes_per_second gauge\nstrudel_bytes_per_second {:.3}\n",
            rate(get(&self.bytes_in) as f64, uptime)
        ));
        out.push_str(&self.merged_timings().to_prometheus("strudel"));
        out
    }
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use strudel::Stage;

    #[test]
    fn render_contains_every_family() {
        let registry = Registry::new(2);
        Registry::bump(&registry.classify_ok);
        Registry::bump(&registry.cache_hits);
        Registry::bump(&registry.pack_cache_misses);
        Registry::bump(&registry.connections);
        let mut local = StageTimings::default();
        local.record(Stage::Dialect, Duration::from_millis(2));
        registry.merge_timings(0, &local);
        let text = registry.render();
        for needle in [
            "strudel_requests_total{endpoint=\"classify\",outcome=\"ok\"} 1",
            "strudel_requests_total{endpoint=\"classify_stream\",outcome=\"ok\"} 0",
            "strudel_requests_total{endpoint=\"pack\",outcome=\"ok\"} 0",
            "strudel_requests_total{endpoint=\"unpack\",outcome=\"error\"} 0",
            "strudel_requests_total{endpoint=\"reload\",outcome=\"error\"} 0",
            "strudel_cache_hits_total{family=\"classify\"} 1",
            "strudel_cache_misses_total{family=\"classify\"} 0",
            "strudel_cache_hits_total{family=\"pack\"} 0",
            "strudel_cache_misses_total{family=\"pack\"} 1",
            "strudel_connections_total 1",
            "strudel_shed_total 0",
            "strudel_bytes_in_total 0",
            "strudel_uptime_seconds",
            "strudel_files_per_second",
            "strudel_bytes_per_second",
            "strudel_stage_seconds_total{stage=\"dialect\"}",
            "strudel_stage_observations_total{stage=\"cell_classify\"} 0",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        // No NaN/inf anywhere, even on a near-zero uptime.
        assert!(!text.contains("NaN") && !text.contains("inf"), "{text}");
    }

    #[test]
    fn shard_slots_merge_at_scrape_time() {
        // Timings recorded into different shard slots show up summed in
        // one render — the commutative scrape-time merge.
        let registry = Registry::new(3);
        for shard in 0..3 {
            let mut local = StageTimings::default();
            local.record(Stage::Parse, Duration::from_millis(10));
            registry.merge_timings(shard, &local);
        }
        let merged = registry.merged_timings();
        assert_eq!(merged.count(Stage::Parse), 3);
        let text = registry.render();
        assert!(
            text.contains("strudel_stage_observations_total{stage=\"parse\"} 3"),
            "{text}"
        );
    }
}
