//! `mvq_obs` — hand-rolled observability for the synthesis stack.
//!
//! Offline and dependency-free (no tokio, no `tracing`), consistent
//! with the workspace's shims policy. Four pieces:
//!
//! - [`metrics`]: lock-free [`Counter`] / [`Gauge`] / log2 [`Histogram`]
//!   primitives — the increment path, machine-checked (by `mvq_lint`'s
//!   `obs` rule) to never lock or allocate.
//! - [`registry`]: named, optionally labelled registration, and the
//!   Prometheus text and JSON renderings of one table — the scrape path
//!   behind `GET /metrics` and `/stats`, which therefore never disagree.
//! - [`trace`]: deterministic [`TraceId`]s, the levelled [`TraceLog`]
//!   emitting one structured JSON line per request, and the [`SlowRing`]
//!   behind `GET /debug/slow`.
//! - [`probe`]: the [`Probe`] trait the search engine announces events
//!   through (it may not read the clock itself — determinism), plus
//!   [`RegistryProbe`] which does the timing and feeds the registry.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod probe;
pub mod promtext;
pub mod registry;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, BUCKETS};
pub use probe::{Probe, ProbeHandle, ProbeMetrics, RegistryProbe};
pub use promtext::{parse_scrape, Scrape, ScrapedHistogram};
pub use registry::{valid_metric_name, Registry};
pub use trace::{LogLevel, SlowEntry, SlowRing, TraceId, TraceLog};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_partition_the_domain() {
        // Buckets must tile [0, u64::MAX] without gaps or overlaps.
        assert_eq!(Histogram::bucket_lower_bound(0), 0);
        assert_eq!(Histogram::bucket_upper_bound(0), 0);
        for i in 1..BUCKETS {
            assert_eq!(
                Histogram::bucket_lower_bound(i),
                Histogram::bucket_upper_bound(i - 1) + 1
            );
        }
        assert_eq!(Histogram::bucket_upper_bound(BUCKETS - 1), u64::MAX);
        // Every value's bucket brackets the value.
        for v in [0, 1, 2, 3, 7, 8, 100, 4096, 1 << 40, u64::MAX] {
            let i = Histogram::bucket_index(v);
            assert!(Histogram::bucket_lower_bound(i) <= v);
            assert!(v <= Histogram::bucket_upper_bound(i));
        }
    }

    #[test]
    fn histogram_count_and_sum_are_exact() {
        let h = Histogram::new();
        for v in [0u64, 1, 5, 17, 300, 70_000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 6);
        assert_eq!(snap.sum, 70_323);
        assert_eq!(snap.buckets.iter().sum::<u64>(), 6);
        assert_eq!(snap.mean(), 70_323 / 6);
    }

    #[test]
    fn quantile_bounds_bracket_the_exact_sample() {
        let values = [3u64, 9, 12, 15, 200, 201, 202, 90_000, 90_001, 4];
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        let snap = h.snapshot();
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            let (lo, hi) = snap.quantile_bounds(q);
            assert!(
                lo <= exact && exact <= hi,
                "q={q}: {exact} not in [{lo}, {hi}]"
            );
            assert_eq!(snap.quantile(q), hi);
        }
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap.quantile_bounds(0.99), (0, 0));
        assert_eq!(snap.mean(), 0);
    }

    #[test]
    fn metric_name_validation() {
        assert!(valid_metric_name("cache_hits_total", true));
        assert!(valid_metric_name("request_us", true));
        assert!(valid_metric_name("snapshot_section_bytes", true));
        assert!(valid_metric_name("frontier_words", false));
        assert!(
            !valid_metric_name("cache_hits", true),
            "missing unit suffix"
        );
        assert!(
            !valid_metric_name("CacheHits_total", true),
            "not snake_case"
        );
        assert!(
            !valid_metric_name("_total", true),
            "must start with a letter"
        );
        assert!(!valid_metric_name("", false));
    }

    #[test]
    #[should_panic(expected = "violates naming rules")]
    fn registry_rejects_unsuffixed_counter() {
        Registry::new().counter("bad_name", "no unit suffix");
    }

    #[test]
    #[should_panic(expected = "registered twice, as different kinds")]
    fn registry_rejects_duplicates() {
        let r = Registry::new();
        r.counter("dup_total", "first");
        r.histogram("dup_total", "second");
    }

    #[test]
    fn reregistering_a_series_returns_its_handle() {
        let r = Registry::new();
        let unit = r.labelled_counter("hits_total", "Hits", &[("model", "1,1,1")]);
        unit.add(3);
        let again = r.labelled_counter("hits_total", "Hits", &[("model", "1,1,1")]);
        assert!(Arc::ptr_eq(&unit, &again));
        let other = r.labelled_counter("hits_total", "Hits", &[("model", "1,1,3")]);
        other.inc();
        assert!(Arc::ptr_eq(
            &r.counter("plain_total", "P"),
            &r.counter("plain_total", "P")
        ));
        let text = r.render_prometheus();
        assert_eq!(
            text.matches("# TYPE hits_total counter").count(),
            1,
            "{text}"
        );
        assert!(text.contains("hits_total{model=\"1,1,1\"} 3\n"), "{text}");
        assert!(text.contains("hits_total{model=\"1,1,3\"} 1\n"), "{text}");
        assert!(r.render_json().contains(r#""hits_total":4"#));
    }

    #[test]
    fn prometheus_render_round_trips_through_parser() {
        let r = Registry::new();
        let c = r.counter("events_total", "Events");
        c.add(7);
        let labels = [("wires", "3"), ("model", "1,1,1")];
        r.labelled_counter("host_total", "Per host", &labels)
            .add(42);
        r.labelled_counter("host_total", "Per host", &[("wires", "4")])
            .add(5);
        let g = r.gauge("frontier_words", "Frontier");
        g.set(-3);
        r.labelled_gauge("completed", "Depth", &labels).set(-1);
        let h = r.histogram("latency_us", "Latency");
        for v in [1u64, 2, 3, 1000, 100_000] {
            h.record(v);
        }
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE events_total counter"));
        assert!(text.contains("events_total 7"));
        assert!(text.contains("host_total{wires=\"3\",model=\"1,1,1\"} 42"));
        assert!(text.contains("frontier_words -3"));
        assert!(text.contains("latency_us_bucket{le=\"+Inf\"} 5"));
        // Empty buckets (4..=7, and every one past 100_000) are skipped.
        assert!(!text.contains("latency_us_bucket{le=\"7\"}"), "{text}");
        assert!(!text.contains("latency_us_bucket{le=\"262143\"}"), "{text}");
        assert!(text.contains("latency_us_count 5"));

        let scrape = parse_scrape(&text);
        assert_eq!(scrape.counters["events_total"], 7);
        assert_eq!(
            scrape.counters[r#"host_total{wires="3",model="1,1,1"}"#],
            42
        );
        assert_eq!(scrape.counters[r#"host_total{wires="4"}"#], 5);
        assert_eq!(scrape.counter_sum("host_total"), Some(47));
        assert_eq!(scrape.counter_sum("events_total"), Some(7));
        assert_eq!(scrape.counter_sum("host"), None);
        assert_eq!(scrape.gauges["frontier_words"], -3);
        assert_eq!(scrape.gauges[r#"completed{wires="3",model="1,1,1"}"#], -1);
        let hist = &scrape.histograms["latency_us"];
        assert_eq!(hist.count, 5);
        assert_eq!(hist.sum, 101_006);
        // Scraped quantile must agree with the snapshot-side derivation.
        let snap = h.snapshot();
        for q in [0.5, 0.9, 0.99] {
            assert_eq!(hist.quantile(q), snap.quantile(q));
        }
    }

    #[test]
    fn trace_id_is_deterministic_text() {
        let id = TraceId {
            worker: 3,
            conn: 12,
            req: 1,
        };
        assert_eq!(id.to_string(), "w3-c12-r1");
    }

    /// `Write` sink shared with the test so emitted lines are visible.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn trace_log_respects_level_switch() {
        let log = TraceLog::new();
        let buf = SharedBuf::default();
        log.set_sink(Box::new(buf.clone()));
        log.emit(LogLevel::Info, "{\"dropped\":true}");
        assert!(buf.0.lock().unwrap().is_empty(), "Off drops everything");
        log.set_level(LogLevel::Info);
        log.emit(LogLevel::Info, "{\"kept\":1}");
        log.emit(LogLevel::Debug, "{\"dropped\":2}");
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert_eq!(text, "{\"kept\":1}\n");
        assert_eq!(LogLevel::parse("DEBUG"), Some(LogLevel::Debug));
        assert_eq!(LogLevel::parse("bogus"), None);
    }

    #[test]
    fn slow_ring_keeps_the_slowest_sorted() {
        let ring = SlowRing::new(3);
        for (us, line) in [(5, "a"), (50, "b"), (20, "c"), (1, "d"), (99, "e")] {
            ring.record(us, line);
        }
        let snap = ring.snapshot();
        let got: Vec<(u64, &str)> = snap.iter().map(|e| (e.total_us, e.line.as_str())).collect();
        assert_eq!(got, [(99, "e"), (50, "b"), (20, "c")]);
    }
}
