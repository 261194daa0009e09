//! An embedded, deterministic time-series store over telemetry.
//!
//! Every other observability surface in the suite is point-in-time: the
//! trace ring replays one run, the telemetry report summarizes one run,
//! the blame report diffs exactly two attributions it just computed. This
//! crate is the layer that *retains*: it ingests a finished
//! [`telemetry::TelemetryReport`] into per-series rings, answers
//! range/rate/quantile queries over them, persists finished runs to a
//! versioned on-disk catalog, and renders run-comparison dashboards —
//! so "p99 over the last N windows" and "this run vs. the stored
//! baseline" become queries over history instead of re-simulations.
//!
//! # Storage layout
//!
//! A [`Store`] holds one [`Series`] per `(metric, label set)` pair. Label
//! sets are interned: each distinct sorted `key=value` list is stored
//! once and series reference it by id. A series keeps the last
//! [`RAW_CAP`] `(t_ns, value)` points verbatim in an overwrite-oldest
//! ring, plus lifetime [`Totals`] (`count`/`sum`/`min`/`max`/`last` and
//! the first and last timestamps) that survive the ring's eviction. The
//! ring counts what it evicted, so the persisted `evicted` figure stays
//! exact across a save/load/save round trip.
//!
//! # Determinism
//!
//! Stores are byte-identical across `--jobs N` and reruns: all
//! timestamps are integer virtual nanoseconds, ingestion order is the
//! registry's registration order, serialization iterates series in
//! sorted `(metric, labels)` order, and nothing reads the wall clock.
//! The umbrella `tests/tsdb.rs` matrix enforces this end to end.

#![deny(missing_docs)]

use std::collections::HashMap;
use telemetry::TelemetryReport;

pub mod catalog;
pub mod dashboard;
pub mod query;

pub use catalog::RunCatalog;
pub use dashboard::render_dashboard;
pub use query::{diff_rows, evaluate, DiffRow, EvalRow, Expr, Func, Matcher};

/// Raw points retained per series.
pub const RAW_CAP: usize = 4096;

/// One raw observation: integer virtual nanoseconds and a finite value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Virtual time of the observation.
    pub at_ns: u64,
    /// Observed value.
    pub value: f64,
}

/// Running aggregate over *every* point a series ever saw — unlike the
/// raw ring, totals never forget, so `count`/`sum`/`min`/`max`/`last`
/// survive raw-window eviction (and catalog round-trips, which restore
/// them from the stored file rather than recomputing from the retained
/// window).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Totals {
    /// Total points ingested.
    pub count: u64,
    /// Sum of all values.
    pub sum: f64,
    /// Smallest value ever seen.
    pub min: f64,
    /// Largest value ever seen.
    pub max: f64,
    /// Most recent value.
    pub last: f64,
    /// Virtual time of the first point.
    pub first_at_ns: u64,
    /// Virtual time of the most recent point.
    pub last_at_ns: u64,
}

impl Default for Totals {
    fn default() -> Totals {
        Totals {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            last: 0.0,
            first_at_ns: 0,
            last_at_ns: 0,
        }
    }
}

/// A fixed-capacity overwrite-oldest ring. Tracks how many elements it
/// has evicted so absolute ingest indices stay recoverable.
#[derive(Debug, Clone)]
struct Ring<T> {
    buf: Vec<T>,
    head: usize,
    evicted: u64,
    cap: usize,
}

impl<T: Copy> Ring<T> {
    fn new(cap: usize) -> Ring<T> {
        Ring { buf: Vec::new(), head: 0, evicted: 0, cap }
    }

    fn push(&mut self, v: T) {
        if self.buf.len() < self.cap {
            self.buf.push(v);
        } else {
            self.buf[self.head] = v;
            self.head = (self.head + 1) % self.cap;
            self.evicted += 1;
        }
    }

    fn len(&self) -> usize {
        self.buf.len()
    }

    /// Elements oldest-to-newest.
    fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.buf[self.head..].iter().chain(self.buf[..self.head].iter())
    }
}

/// An interned label set: sorted `key=value` pairs, stored once per
/// distinct combination and referenced by id from every series using it.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct LabelSet(Vec<(String, String)>);

impl LabelSet {
    /// Builds a label set; pairs are sorted by key (then value).
    pub fn new(pairs: &[(&str, &str)]) -> LabelSet {
        let mut v: Vec<(String, String)> =
            pairs.iter().map(|(k, val)| (k.to_string(), val.to_string())).collect();
        v.sort();
        LabelSet(v)
    }

    /// The sorted pairs.
    pub fn pairs(&self) -> &[(String, String)] {
        &self.0
    }

    /// Value of a label key, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Canonical rendering: `{k="v",k2="v2"}`, or the empty string for
    /// the empty set. This is the sort key for series iteration.
    pub fn render(&self) -> String {
        if self.0.is_empty() {
            return String::new();
        }
        let mut out = String::from("{");
        for (i, (k, v)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(v);
            out.push('"');
        }
        out.push('}');
        out
    }
}

/// One `(metric, labels)` time series: its raw window and lifetime totals.
#[derive(Debug, Clone)]
pub struct Series {
    /// Metric name.
    pub metric: String,
    /// Interned label-set id (index into [`Store::label_sets`]).
    pub labels: u32,
    raw: Ring<Point>,
    totals: Totals,
    /// Raw evictions inherited from a persisted run (a reloaded store
    /// only re-ingests the retained window; this keeps the written
    /// `evicted` count stable across save/load/save).
    prior_evicted: u64,
}

impl Series {
    fn new(metric: String, labels: u32) -> Series {
        Series {
            metric,
            labels,
            raw: Ring::new(RAW_CAP),
            totals: Totals::default(),
            prior_evicted: 0,
        }
    }

    fn push(&mut self, at_ns: u64, value: f64) {
        debug_assert!(value.is_finite(), "tsdb values must be finite");
        let t = &mut self.totals;
        if t.count == 0 {
            t.first_at_ns = at_ns;
        }
        t.count += 1;
        t.sum += value;
        t.min = t.min.min(value);
        t.max = t.max.max(value);
        t.last = value;
        t.last_at_ns = at_ns;

        self.raw.push(Point { at_ns, value });
    }

    /// Retained raw points, oldest to newest.
    pub fn raw(&self) -> impl Iterator<Item = &Point> + '_ {
        self.raw.iter()
    }

    /// Retained raw point count.
    pub fn raw_len(&self) -> usize {
        self.raw.len()
    }

    /// Raw points evicted from the retained window (including evictions
    /// recorded by a persisted run this store was reloaded from).
    pub fn raw_evicted(&self) -> u64 {
        self.prior_evicted + self.raw.evicted
    }

    /// Lifetime aggregate of the series.
    pub fn totals(&self) -> &Totals {
        &self.totals
    }
}

/// A time mark for an alert, carried alongside the series so dashboards
/// can overlay incident markers on every sparkline.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertMark {
    /// Virtual time of the alert.
    pub at_ns: u64,
    /// Stable kebab-case kind (`drift`, `slo-burn`, ...).
    pub kind: String,
    /// One-line human detail.
    pub detail: String,
}

/// The store: interned label sets, one series per `(metric, labels)`,
/// and the run's alert marks.
#[derive(Debug, Clone, Default)]
pub struct Store {
    series: Vec<Series>,
    /// Lookup index; never iterated (iteration goes through the sorted
    /// order), so the map's nondeterministic internal order is inert.
    index: HashMap<(String, u32), u32>,
    label_sets: Vec<LabelSet>,
    label_index: HashMap<LabelSet, u32>,
    alerts: Vec<AlertMark>,
}

impl Store {
    /// An empty store.
    pub fn new() -> Store {
        Store::default()
    }

    /// Interns a label set, returning its id.
    pub fn intern(&mut self, labels: &[(&str, &str)]) -> u32 {
        let set = LabelSet::new(labels);
        if let Some(&id) = self.label_index.get(&set) {
            return id;
        }
        let id = self.label_sets.len() as u32;
        self.label_sets.push(set.clone());
        self.label_index.insert(set, id);
        id
    }

    /// The interned label sets, in intern order.
    pub fn label_sets(&self) -> &[LabelSet] {
        &self.label_sets
    }

    /// Resolves (creating if needed) the series for `(metric, labels)`
    /// and returns its id. Resolve once, then feed the hot loop through
    /// [`push_to`](Store::push_to) — the id path does no hashing and no
    /// allocation.
    pub fn series_id(&mut self, metric: &str, labels: &[(&str, &str)]) -> u32 {
        let lid = self.intern(labels);
        let key = (metric.to_string(), lid);
        if let Some(&sid) = self.index.get(&key) {
            return sid;
        }
        let sid = self.series.len() as u32;
        self.series.push(Series::new(key.0.clone(), lid));
        self.index.insert(key, sid);
        sid
    }

    /// Appends a point to a series by id (the allocation-free hot path).
    pub fn push_to(&mut self, sid: u32, at_ns: u64, value: f64) {
        self.series[sid as usize].push(at_ns, value);
    }

    /// Convenience: resolve-and-push in one call.
    pub fn push(&mut self, metric: &str, labels: &[(&str, &str)], at_ns: u64, value: f64) {
        let sid = self.series_id(metric, labels);
        self.push_to(sid, at_ns, value);
    }

    /// Records an alert mark.
    pub fn mark_alert(&mut self, at_ns: u64, kind: &str, detail: String) {
        self.alerts.push(AlertMark { at_ns, kind: kind.to_string(), detail });
    }

    /// Alert marks in record order (telemetry emits them in time order).
    pub fn alerts(&self) -> &[AlertMark] {
        &self.alerts
    }

    /// Number of series.
    pub fn series_count(&self) -> usize {
        self.series.len()
    }

    /// Total retained raw points across all series.
    pub fn total_points(&self) -> usize {
        self.series.iter().map(Series::raw_len).sum()
    }

    /// A series by id.
    pub fn series(&self, sid: u32) -> &Series {
        &self.series[sid as usize]
    }

    /// The canonical display key of a series: `metric{labels}`.
    pub fn series_key(&self, s: &Series) -> String {
        format!("{}{}", s.metric, self.label_sets[s.labels as usize].render())
    }

    /// Series in sorted `(metric, rendered labels)` order — the only
    /// iteration order queries and serialization use, which is what makes
    /// every output byte-deterministic.
    pub fn sorted_series(&self) -> Vec<&Series> {
        let mut v: Vec<&Series> = self.series.iter().collect();
        v.sort_by_key(|s| (s.metric.clone(), self.label_sets[s.labels as usize].render()));
        v
    }

    /// Ingests a finished telemetry report: every counter, gauge and
    /// histogram digest per snapshot, per-client attributed GPU time, the
    /// exact per-run latency log, and the alert stream. Returns an empty
    /// store when telemetry was disabled.
    pub fn from_telemetry(report: &TelemetryReport) -> Store {
        let mut store = Store::new();
        if !report.enabled {
            return store;
        }

        // Resolve every snapshot-level series id once, outside the loop:
        // the per-snapshot path is then pure `push_to`.
        let counter_ids: Vec<u32> =
            report.counter_names.iter().map(|n| store.series_id(n, &[])).collect();
        let gauge_ids: Vec<u32> =
            report.gauge_names.iter().map(|n| store.series_id(n, &[])).collect();
        let mut hist_ids: Vec<[u32; 3]> = Vec::with_capacity(report.hist_names.len());
        for n in &report.hist_names {
            hist_ids.push([
                store.series_id(&format!("{n}.count"), &[]),
                store.series_id(&format!("{n}.p50"), &[]),
                store.series_id(&format!("{n}.p99"), &[]),
            ]);
        }
        // The client table grows during a run (gpu rows are ragged), so
        // client series resolve lazily on first sight.
        let mut gpu_ids: Vec<u32> = Vec::new();
        let mut latency_ids: Vec<u32> = Vec::new();
        let client_model = |c: usize| -> &str {
            report.client_models.get(c).map(String::as_str).unwrap_or("?")
        };

        let mut rows = report.snapshots.cursor();
        while let Some((snap, client_gpu_ns)) = rows.advance() {
            let t = snap.at.as_nanos();
            for (i, &sid) in counter_ids.iter().enumerate() {
                store.push_to(sid, t, snap.counters[i] as f64);
            }
            for (i, &sid) in gauge_ids.iter().enumerate() {
                store.push_to(sid, t, snap.gauges[i]);
            }
            for (i, ids) in hist_ids.iter().enumerate() {
                let h = &snap.hists[i];
                store.push_to(ids[0], t, h.count as f64);
                store.push_to(ids[1], t, h.p50);
                store.push_to(ids[2], t, h.p99);
            }
            for (c, &gpu) in client_gpu_ns.iter().enumerate() {
                while gpu_ids.len() <= c {
                    let cl = gpu_ids.len();
                    let id = store.series_id(
                        "client_gpu_ns",
                        &[("client", &cl.to_string()), ("model", client_model(cl))],
                    );
                    gpu_ids.push(id);
                }
                store.push_to(gpu_ids[c], t, gpu as f64);
            }
        }

        // The exact per-run latency stream: loss-free, unlike the
        // log-linear registry histogram, so stored runs reproduce
        // nearest-rank quantiles (and blame deltas) bit-for-bit.
        for (at, client, latency) in report.run_log.iter() {
            let c = client as usize;
            while latency_ids.len() <= c {
                let cl = latency_ids.len();
                let id = store.series_id(
                    "run_latency_ns",
                    &[("client", &cl.to_string()), ("model", client_model(cl))],
                );
                latency_ids.push(id);
            }
            store.push_to(latency_ids[c], at.as_nanos(), latency.as_nanos() as f64);
        }

        for alert in &report.alerts {
            store.mark_alert(alert.at().as_nanos(), alert.kind(), alert_detail(alert));
        }
        store
    }

    /// Serializes the store to the versioned on-disk run document
    /// (`tsdb-run/v1`). Series are written in sorted order and no wall
    /// clock is consulted, so equal stores produce equal bytes.
    pub fn to_json(&self, run: &str) -> microjson::Value {
        use microjson::Value;
        let series: Vec<Value> = self
            .sorted_series()
            .into_iter()
            .map(|s| {
                let labels = self.label_sets[s.labels as usize]
                    .pairs()
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::str(v.clone())))
                    .collect();
                let points: Vec<Value> = s
                    .raw()
                    .map(|p| Value::Array(vec![Value::UInt(p.at_ns), num(p.value)]))
                    .collect();
                let t = s.totals();
                Value::Object(vec![
                    ("metric".into(), Value::str(s.metric.clone())),
                    ("labels".into(), Value::Object(labels)),
                    ("points".into(), Value::Array(points)),
                    ("evicted".into(), Value::UInt(s.raw_evicted())),
                    (
                        "total".into(),
                        Value::Object(vec![
                            ("count".into(), Value::UInt(t.count)),
                            ("sum".into(), num(t.sum)),
                            ("min".into(), num(if t.count == 0 { 0.0 } else { t.min })),
                            ("max".into(), num(if t.count == 0 { 0.0 } else { t.max })),
                            ("last".into(), num(t.last)),
                            ("first_at_ns".into(), Value::UInt(t.first_at_ns)),
                            ("last_at_ns".into(), Value::UInt(t.last_at_ns)),
                        ]),
                    ),
                ])
            })
            .collect();
        let alerts: Vec<Value> = self
            .alerts
            .iter()
            .map(|a| {
                Value::Object(vec![
                    ("t_ns".into(), Value::UInt(a.at_ns)),
                    ("kind".into(), Value::str(a.kind.clone())),
                    ("detail".into(), Value::str(a.detail.clone())),
                ])
            })
            .collect();
        Value::Object(vec![
            ("schema".into(), Value::str("tsdb-run/v1")),
            ("run".into(), Value::str(run)),
            ("series".into(), Value::Array(series)),
            ("alerts".into(), Value::Array(alerts)),
        ])
    }

    /// Rebuilds a store from a `tsdb-run/v1` document: the retained raw
    /// window is re-ingested and the lifetime totals and eviction count
    /// are restored verbatim, so
    /// `save(load(x)) == save(x)` byte-for-byte.
    pub fn from_json(doc: &microjson::Value) -> Result<Store, String> {
        let schema = doc.get("schema").and_then(|v| v.as_str()).unwrap_or("");
        if schema != "tsdb-run/v1" {
            return Err(format!("unsupported run schema {schema:?}"));
        }
        let mut store = Store::new();
        let series = doc.get("series").and_then(|v| v.as_array()).unwrap_or(&[]);
        for s in series {
            let metric =
                s.get("metric").and_then(|v| v.as_str()).ok_or("series without metric")?;
            let empty = microjson::Value::Object(Vec::new());
            let labels = s.get("labels").unwrap_or(&empty);
            let pairs: Vec<(&str, &str)> = match labels {
                microjson::Value::Object(fields) => fields
                    .iter()
                    .map(|(k, v)| Ok((k.as_str(), v.as_str().ok_or("non-string label")?)))
                    .collect::<Result<_, &str>>()?,
                _ => return Err("labels must be an object".into()),
            };
            let sid = store.series_id(metric, &pairs);
            for p in s.get("points").and_then(|v| v.as_array()).unwrap_or(&[]) {
                let row = p.as_array().ok_or("point must be [t, v]")?;
                let (Some(t), Some(v)) =
                    (row.first().and_then(|t| t.as_u64()), row.get(1).and_then(|v| v.as_f64()))
                else {
                    return Err("point must be [t_ns, value]".into());
                };
                store.push_to(sid, t, v);
            }
            let s_mut = &mut store.series[sid as usize];
            if let Some(ev) = s.get("evicted").and_then(|v| v.as_u64()) {
                s_mut.prior_evicted = ev;
            }
            if let Some(t) = s.get("total") {
                let f = |k: &str| t.get(k).and_then(|v| v.as_f64());
                let u = |k: &str| t.get(k).and_then(|v| v.as_u64());
                if let (Some(count), Some(sum), Some(min), Some(max), Some(last)) =
                    (u("count"), f("sum"), f("min"), f("max"), f("last"))
                {
                    s_mut.totals = Totals {
                        count,
                        sum,
                        min: if count == 0 { f64::INFINITY } else { min },
                        max: if count == 0 { f64::NEG_INFINITY } else { max },
                        last,
                        first_at_ns: u("first_at_ns").unwrap_or(0),
                        last_at_ns: u("last_at_ns").unwrap_or(0),
                    };
                }
            }
        }
        for a in doc.get("alerts").and_then(|v| v.as_array()).unwrap_or(&[]) {
            let at = a.get("t_ns").and_then(|v| v.as_u64()).unwrap_or(0);
            let kind = a.get("kind").and_then(|v| v.as_str()).unwrap_or("?");
            let detail = a.get("detail").and_then(|v| v.as_str()).unwrap_or("");
            store.mark_alert(at, kind, detail.to_string());
        }
        Ok(store)
    }
}

/// Writes a float as the tightest JSON number: integers that fit stay
/// integers (so counter series read back through `as_u64` too).
fn num(v: f64) -> microjson::Value {
    if v >= 0.0 && v <= u64::MAX as f64 && v.fract() == 0.0 {
        microjson::Value::UInt(v as u64)
    } else {
        microjson::Value::Float(v)
    }
}

/// One-line human rendering of a telemetry alert.
fn alert_detail(alert: &telemetry::Alert) -> String {
    use telemetry::Alert;
    match alert {
        Alert::Drift { client, observed_us, expected_us, deviation, .. } => format!(
            "client {client}: quantum {observed_us:.1}us vs expected {expected_us:.1}us ({:+.0}%)",
            deviation * 100.0
        ),
        Alert::SloBurn { model, short_burn, long_burn, .. } => {
            format!("{model}: burn {short_burn:.2}/{long_burn:.2}")
        }
        Alert::FaultRecovery { client, action, detail, .. } => {
            format!("client {client}: {action} ({detail})")
        }
        Alert::Rollout { model, version, action, cand_us, base_us, .. } => {
            format!("{model} v{version}: {action} ({cand_us}us vs {base_us}us)")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift64* — integer-valued samples so f64 sums
    /// stay exact under any association and brute-force recomputes can
    /// demand equality, not tolerance.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
        fn value(&mut self) -> f64 {
            (self.next() % 1_000_000) as f64
        }
    }

    /// For any ingest sequence, the lifetime totals agree exactly with a
    /// brute-force recompute over every point, and the raw window keeps
    /// exactly the last `RAW_CAP` points, counting the rest as evicted.
    #[test]
    fn totals_and_raw_window_agree_with_brute_force_recompute() {
        for (seed, n) in [(1u64, 0usize), (2, 1), (3, 15), (4, 16), (5, 257), (6, 1_000), (7, 5_000)]
        {
            let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
            let mut store = Store::new();
            let sid = store.series_id("m", &[("k", "v")]);
            let mut all: Vec<(u64, f64)> = Vec::new();
            for i in 0..n {
                let t = i as u64 * 100_000;
                let v = rng.value();
                store.push_to(sid, t, v);
                all.push((t, v));
            }
            let s = store.series(sid);
            assert_eq!(s.raw_len(), n.min(RAW_CAP));
            assert_eq!(s.raw_evicted(), n.saturating_sub(RAW_CAP) as u64);
            let kept: Vec<(u64, f64)> = s.raw().map(|p| (p.at_ns, p.value)).collect();
            assert_eq!(kept, all[n.saturating_sub(RAW_CAP)..], "n={n}");
            let t = s.totals();
            assert_eq!(t.count, n as u64);
            if n > 0 {
                let vals = all.iter().map(|&(_, v)| v);
                assert_eq!(t.sum, vals.clone().sum::<f64>());
                assert_eq!(t.min, vals.clone().fold(f64::INFINITY, f64::min));
                assert_eq!(t.max, vals.fold(f64::NEG_INFINITY, f64::max));
                let (first, last) = (all[0], all[n - 1]);
                assert_eq!((t.first_at_ns, t.last_at_ns, t.last), (first.0, last.0, last.1));
            }
        }
    }

    #[test]
    fn label_sets_intern_and_sort() {
        let mut store = Store::new();
        let a = store.intern(&[("b", "2"), ("a", "1")]);
        let b = store.intern(&[("a", "1"), ("b", "2")]);
        assert_eq!(a, b);
        assert_eq!(store.label_sets()[a as usize].render(), "{a=\"1\",b=\"2\"}");
        assert_eq!(LabelSet::new(&[]).render(), "");
    }

    /// Past `RAW_CAP` points the reloaded store holds only the retained
    /// window, so its totals and eviction count must come from the file.
    #[test]
    fn json_roundtrip_is_byte_identical() {
        let n = RAW_CAP as u64 + 1_000;
        let mut rng = Rng(0xabcdef123);
        let mut store = Store::new();
        for i in 0..n {
            store.push("lat", &[("client", "0")], i * 1000, rng.value() + 0.5);
            store.push("lat", &[("client", "1")], i * 1000, rng.value());
            store.push("events", &[], i * 1000, i as f64);
        }
        store.mark_alert(42_000, "drift", "client 0: quantum off".into());
        let mut one = String::new();
        store.to_json("r").write(&mut one);
        let reloaded = Store::from_json(&microjson::Value::parse(&one).unwrap()).unwrap();
        let mut two = String::new();
        reloaded.to_json("r").write(&mut two);
        assert_eq!(one, two, "save(load(x)) must equal save(x)");
        assert_eq!(reloaded.series_count(), 3);
        assert_eq!(reloaded.alerts().len(), 1);
        let events = reloaded.sorted_series()[0];
        assert_eq!(events.metric, "events");
        assert_eq!(events.raw_evicted(), n - RAW_CAP as u64);
        assert_eq!(events.totals().count, n);
    }

    #[test]
    fn sorted_series_orders_by_metric_then_labels() {
        let mut store = Store::new();
        store.push("z", &[], 0, 1.0);
        store.push("a", &[("x", "2")], 0, 1.0);
        store.push("a", &[("x", "1")], 0, 1.0);
        let keys: Vec<String> =
            store.sorted_series().iter().map(|s| store.series_key(s)).collect();
        assert_eq!(keys, vec!["a{x=\"1\"}", "a{x=\"2\"}", "z"]);
    }
}
