//! Minimal parser for the Prometheus text exposition format produced by
//! [`crate::registry::Registry::render_prometheus`].
//!
//! Used by the serve SLO gate in `tests/tests/serve_http.rs` (which judges
//! the server from its *own* `/metrics` scrape rather than client-side
//! timing) and by the integration tests that assert `/metrics` and
//! `/stats` agree. It parses the subset this workspace emits:
//! counter and gauge samples, labelled or not, and histogram
//! `_bucket{le="…"}`/`_sum`/`_count` series.

use std::collections::BTreeMap;

/// One parsed histogram series.
#[derive(Debug, Clone, Default)]
pub struct ScrapedHistogram {
    /// `(upper_bound, cumulative_count)` per bucket in scrape order;
    /// the `+Inf` bucket is represented as `u64::MAX`.
    pub buckets: Vec<(u64, u64)>,
    /// Value of the `_count` sample.
    pub count: u64,
    /// Value of the `_sum` sample.
    pub sum: u64,
}

impl ScrapedHistogram {
    /// Upper-bound estimate of the `q`-th quantile using the
    /// nearest-rank definition over the cumulative buckets (the same
    /// derivation as `HistogramSnapshot::quantile`). Returns 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        for &(upper, cumulative) in &self.buckets {
            if cumulative >= rank {
                return upper;
            }
        }
        u64::MAX
    }
}

/// A parsed `/metrics` scrape.
#[derive(Debug, Clone, Default)]
pub struct Scrape {
    /// Counter samples by series: the bare name, or the name with its
    /// label block as rendered (`expansions_total{wires="3",model="1,1,1"}`).
    pub counters: BTreeMap<String, u64>,
    /// Gauge samples by series, keyed like `counters`.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram series by base name.
    pub histograms: BTreeMap<String, ScrapedHistogram>,
}

impl Scrape {
    /// The sum of every series of counter `name`, labelled or not —
    /// the total `/stats` reports for it; `None` when no series has
    /// that name.
    pub fn counter_sum(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .filter(|(series, _)| {
                series
                    .strip_prefix(name)
                    .is_some_and(|labels| labels.is_empty() || labels.starts_with('{'))
            })
            .map(|(_, &value)| value)
            .reduce(|sum, value| sum + value)
    }
}

/// Parses a Prometheus text scrape. Unknown or malformed lines are
/// skipped rather than fatal — a scrape is diagnostics, not a protocol.
pub fn parse_scrape(text: &str) -> Scrape {
    let mut scrape = Scrape::default();
    // name -> declared type, from `# TYPE` comments.
    let mut types: BTreeMap<&str, &str> = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            if let (Some(name), Some(kind)) = (parts.next(), parts.next()) {
                types.insert(name, kind);
            }
            continue;
        }
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((series, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let name = series.split_once('{').map_or(series, |(name, _)| name);
        if let Some(base) = name
            .strip_suffix("_bucket")
            .filter(|base| types.get(base) == Some(&"histogram"))
        {
            let Some(le) = series
                .strip_prefix(name)
                .and_then(|label| label.strip_prefix("{le=\""))
                .and_then(|rest| rest.strip_suffix("\"}"))
            else {
                continue;
            };
            let upper = if le == "+Inf" {
                u64::MAX
            } else {
                match le.parse() {
                    Ok(v) => v,
                    Err(_) => continue,
                }
            };
            let Ok(cumulative) = value.parse() else {
                continue;
            };
            scrape
                .histograms
                .entry(base.to_string())
                .or_default()
                .buckets
                .push((upper, cumulative));
        } else if let Some(base) = series
            .strip_suffix("_sum")
            .filter(|base| types.get(base) == Some(&"histogram"))
        {
            if let Ok(sum) = value.parse() {
                scrape.histograms.entry(base.to_string()).or_default().sum = sum;
            }
        } else if let Some(base) = series
            .strip_suffix("_count")
            .filter(|base| types.get(base) == Some(&"histogram"))
        {
            if let Ok(count) = value.parse() {
                scrape.histograms.entry(base.to_string()).or_default().count = count;
            }
        } else {
            match types.get(name) {
                Some(&"counter") => {
                    if let Ok(v) = value.parse() {
                        scrape.counters.insert(series.to_string(), v);
                    }
                }
                Some(&"gauge") => {
                    if let Ok(v) = value.parse() {
                        scrape.gauges.insert(series.to_string(), v);
                    }
                }
                _ => {}
            }
        }
    }
    scrape
}
