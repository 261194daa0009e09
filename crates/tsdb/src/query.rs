//! The query layer: a tiny expression language over a [`Store`], plus
//! the window primitives (`range`, `rate`, `quantile_over_time`) and
//! run-vs-run diffing the CLI and dashboards build on.
//!
//! # Expressions
//!
//! ```text
//! expr     := [func ":"] metric [ "{" matcher ("," matcher)* "}" ]
//! func     := "rate"
//! matcher  := key "=" ( "*" | value | '"' value '"' )
//! ```
//!
//! Two shorthands make regression checks one-liners:
//!
//! * A metric named `pNN` (e.g. `p99`, `p50`) is a nearest-rank quantile
//!   over the exact `run_latency_ns` stream: `p99{client=*}` evaluates
//!   the same `ceil(0.99 · n)` rank the blame experiment's attribution
//!   layer uses, so a stored run reproduces its p99 deltas bit-for-bit.
//! * `rate:counter` is the per-second rate of a cumulative counter over
//!   its retained window.
//!
//! Everything else evaluates to the series' latest value.

use crate::{Point, Series, Store};

/// What an expression computes per matching series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Func {
    /// The latest value.
    Last,
    /// Per-second rate of a cumulative counter over the retained window.
    Rate,
    /// Nearest-rank quantile (`0 < q <= 1`) over the raw window of the
    /// exact run-latency stream.
    Quantile(f64),
}

/// One label matcher.
#[derive(Debug, Clone, PartialEq)]
pub enum Matcher {
    /// Key must be present, any value (`k=*`).
    Any,
    /// Key must equal the value exactly.
    Eq(String),
}

/// A parsed query expression.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// Computation to apply.
    pub func: Func,
    /// Target metric name (quantile shorthands target `run_latency_ns`).
    pub metric: String,
    /// Label matchers; a series matches when every matcher is satisfied.
    pub matchers: Vec<(String, Matcher)>,
}

impl Expr {
    /// Parses an expression; see the module docs for the grammar.
    pub fn parse(text: &str) -> Result<Expr, String> {
        let text = text.trim();
        let (func_txt, rest) = match text.split_once(':') {
            Some((f, r)) if f == "rate" => (Some(f), r),
            _ => (None, text),
        };
        let (name, matcher_txt) = match rest.split_once('{') {
            Some((n, m)) => {
                let m = m.strip_suffix('}').ok_or_else(|| format!("unclosed '{{' in {text:?}"))?;
                (n.trim(), Some(m))
            }
            None => (rest.trim(), None),
        };
        if name.is_empty() {
            return Err(format!("empty metric in {text:?}"));
        }
        let mut matchers = Vec::new();
        if let Some(m) = matcher_txt {
            for part in m.split(',').filter(|p| !p.trim().is_empty()) {
                let (k, v) = part
                    .split_once('=')
                    .ok_or_else(|| format!("matcher {part:?} is not key=value"))?;
                let v = v.trim().trim_matches('"');
                let matcher = if v == "*" { Matcher::Any } else { Matcher::Eq(v.to_string()) };
                matchers.push((k.trim().to_string(), matcher));
            }
        }
        // pNN shorthand: a quantile over the exact per-run latency log.
        if func_txt.is_none() && name.len() >= 2 && name.starts_with('p') {
            if let Ok(pct) = name[1..].parse::<u32>() {
                if (1..=100).contains(&pct) {
                    return Ok(Expr {
                        func: Func::Quantile(pct as f64 / 100.0),
                        metric: "run_latency_ns".to_string(),
                        matchers,
                    });
                }
            }
        }
        let func = if func_txt.is_some() { Func::Rate } else { Func::Last };
        Ok(Expr { func, metric: name.to_string(), matchers })
    }

    /// Display unit of evaluated values (`us` for quantiles over the
    /// nanosecond latency stream, `/s` for rates, empty otherwise).
    pub fn unit(&self) -> &'static str {
        match self.func {
            Func::Quantile(_) => "us",
            Func::Rate => "/s",
            Func::Last => "",
        }
    }

    fn matches(&self, store: &Store, s: &Series) -> bool {
        if s.metric != self.metric {
            return false;
        }
        let labels = &store.label_sets()[s.labels as usize];
        self.matchers.iter().all(|(k, m)| match (labels.get(k), m) {
            (Some(_), Matcher::Any) => true,
            (Some(v), Matcher::Eq(want)) => v == want,
            (None, _) => false,
        })
    }
}

/// Raw points of a series inside `[lo_ns, hi_ns]`, oldest first.
pub fn range(series: &Series, lo_ns: u64, hi_ns: u64) -> Vec<Point> {
    series.raw().filter(|p| p.at_ns >= lo_ns && p.at_ns <= hi_ns).copied().collect()
}

/// Per-second rate of a cumulative series over `[lo_ns, hi_ns]`: the
/// value delta between the first and last covered point divided by their
/// time span. `None` with fewer than two points or a zero span.
pub fn rate(series: &Series, lo_ns: u64, hi_ns: u64) -> Option<f64> {
    let pts = range(series, lo_ns, hi_ns);
    let (first, last) = (pts.first()?, pts.last()?);
    let dt = last.at_ns.checked_sub(first.at_ns)?;
    if dt == 0 {
        return None;
    }
    Some((last.value - first.value) * 1e9 / dt as f64)
}

/// Nearest-rank quantile (`0 < q <= 1`) over the raw points of a series
/// inside `[lo_ns, hi_ns]`: values sorted ascending, ranked by
/// [`metrics::nearest_rank`] as the attribution layer's `p99_run` is, so
/// quantiles over the stored `run_latency_ns` stream reproduce blame
/// numbers exactly.
pub fn quantile_over_time(series: &Series, q: f64, lo_ns: u64, hi_ns: u64) -> Option<f64> {
    let mut vals: Vec<f64> =
        range(series, lo_ns, hi_ns).into_iter().map(|p| p.value).collect();
    if vals.is_empty() {
        return None;
    }
    vals.sort_by(|a, b| a.partial_cmp(b).expect("tsdb values are finite"));
    Some(vals[metrics::nearest_rank(q, vals.len())])
}

/// One evaluated series.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRow {
    /// Canonical series key, `metric{labels}`.
    pub key: String,
    /// Evaluated value (nanoseconds for quantile shorthands).
    pub value: f64,
}

/// Evaluates an expression against a store: one row per matching series,
/// in sorted key order. Rate and quantile evaluate over the full
/// retained window; series the function cannot evaluate (e.g. a rate
/// over one point) are skipped.
pub fn evaluate(store: &Store, expr: &Expr) -> Vec<EvalRow> {
    let mut rows = Vec::new();
    for s in store.sorted_series() {
        if !expr.matches(store, s) {
            continue;
        }
        let value = match expr.func {
            Func::Last => Some(s.totals().last),
            Func::Rate => rate(s, 0, u64::MAX),
            Func::Quantile(q) => quantile_over_time(s, q, 0, u64::MAX),
        };
        if let Some(value) = value {
            rows.push(EvalRow { key: store.series_key(s), value });
        }
    }
    rows
}

/// One joined row of a run-vs-baseline diff.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Canonical series key.
    pub key: String,
    /// Value in the target run, if the series evaluated there.
    pub target: Option<f64>,
    /// Value in the baseline run, if the series evaluated there.
    pub base: Option<f64>,
}

impl DiffRow {
    /// `target - base` when both sides evaluated.
    pub fn delta(&self) -> Option<f64> {
        Some(self.target? - self.base?)
    }
}

/// Evaluates `expr` on both stores and joins the rows by series key
/// (sorted). This is `diff` between two stored runs: no re-simulation,
/// just history.
pub fn diff_rows(target: &Store, base: &Store, expr: &Expr) -> Vec<DiffRow> {
    let t = evaluate(target, expr);
    let b = evaluate(base, expr);
    let mut keys: Vec<String> =
        t.iter().chain(b.iter()).map(|r| r.key.clone()).collect();
    keys.sort();
    keys.dedup();
    keys.into_iter()
        .map(|key| DiffRow {
            target: t.iter().find(|r| r.key == key).map(|r| r.value),
            base: b.iter().find(|r| r.key == key).map(|r| r.value),
            key,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> Store {
        let mut s = Store::new();
        for i in 0..100u64 {
            s.push("run_latency_ns", &[("client", "0")], i * 1_000, (1_000 + i) as f64);
            s.push("run_latency_ns", &[("client", "1")], i * 1_000, (2_000 + i) as f64);
            s.push("runs_completed", &[], i * 1_000, (2 * i) as f64);
        }
        s
    }

    #[test]
    fn parse_covers_the_grammar() {
        let e = Expr::parse("p99{client=*}").unwrap();
        assert_eq!(e.func, Func::Quantile(0.99));
        assert_eq!(e.metric, "run_latency_ns");
        assert_eq!(e.matchers, vec![("client".into(), Matcher::Any)]);
        assert_eq!(e.unit(), "us");

        let e = Expr::parse("rate:runs_completed").unwrap();
        assert_eq!(e.func, Func::Rate);
        assert_eq!(e.unit(), "/s");

        let e = Expr::parse("engine.events_per_s{case=\"fifo\"}").unwrap();
        assert_eq!(e.func, Func::Last);
        assert_eq!(e.matchers, vec![("case".into(), Matcher::Eq("fifo".into()))]);

        assert!(Expr::parse("").is_err());
        assert!(Expr::parse("m{unclosed").is_err());
        assert!(Expr::parse("m{novalue}").is_err());
        // p-followed-by-non-number is a plain metric, not a quantile.
        assert_eq!(Expr::parse("pressure").unwrap().func, Func::Last);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let s = store();
        let e = Expr::parse("p99{client=0}").unwrap();
        let rows = evaluate(&s, &e);
        assert_eq!(rows.len(), 1);
        // 100 values 1000..=1099; rank ceil(0.99*100)=99 -> index 98.
        assert_eq!(rows[0].value, 1_098.0);
        let e50 = Expr::parse("p50{client=0}").unwrap();
        assert_eq!(evaluate(&s, &e50)[0].value, 1_049.0);
    }

    #[test]
    fn rate_spans_the_window() {
        let s = store();
        let e = Expr::parse("rate:runs_completed").unwrap();
        let rows = evaluate(&s, &e);
        // 198 events over 99us -> 2 events/us -> 2e6/s... in ns: 198/99000ns.
        assert!((rows[0].value - 198.0 * 1e9 / 99_000.0).abs() < 1e-6);
    }

    #[test]
    fn diff_joins_by_key_and_orders() {
        let a = store();
        let mut b = store();
        b.push("run_latency_ns", &[("client", "2")], 0, 9.0);
        let e = Expr::parse("p99{client=*}").unwrap();
        let rows = diff_rows(&b, &a, &e);
        assert_eq!(rows.len(), 3);
        assert!(rows[2].key.contains("client=\"2\""));
        assert_eq!(rows[0].delta(), Some(0.0));
        assert_eq!(rows[2].base, None);
    }

    #[test]
    fn range_filters_inclusive() {
        let s = store();
        let series = s.sorted_series();
        let r = range(series[0], 10_000, 12_000);
        assert_eq!(r.len(), 3);
    }
}
