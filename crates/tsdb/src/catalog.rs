//! The run catalog: a directory of persisted `tsdb-run/v1` documents
//! plus a `catalog.json` index, so finished runs (and imported benchmark
//! results) become queryable history.
//!
//! Layout under the catalog directory:
//!
//! ```text
//! runs/
//!   catalog.json      {"schema":"tsdb-catalog/v1","runs":["smoke",...]}
//!   smoke.json        a tsdb-run/v1 document
//!   drifted.json
//! ```
//!
//! The index preserves *insertion order* — deliberately not timestamps,
//! which would make the files differ run-to-run and break the
//! byte-identity the determinism matrix enforces. "Latest" means "most
//! recently stored", which is what `--vs baseline` workflows want.

use crate::Store;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Schema tag of the catalog index.
pub const CATALOG_SCHEMA: &str = "tsdb-catalog/v1";

/// A directory-backed catalog of stored runs.
#[derive(Debug, Clone)]
pub struct RunCatalog {
    dir: PathBuf,
}

impl RunCatalog {
    /// Opens (creating if needed) a catalog at `dir`.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<RunCatalog> {
        fs::create_dir_all(dir.as_ref())?;
        Ok(RunCatalog { dir: dir.as_ref().to_path_buf() })
    }

    /// The catalog directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Stored run names, insertion order. Empty when no index exists yet.
    pub fn runs(&self) -> Vec<String> {
        let Ok(text) = fs::read_to_string(self.dir.join("catalog.json")) else {
            return Vec::new();
        };
        let Ok(doc) = microjson::Value::parse(&text) else { return Vec::new() };
        if doc.get("schema").and_then(|v| v.as_str()) != Some(CATALOG_SCHEMA) {
            return Vec::new();
        }
        doc.get("runs")
            .and_then(|v| v.as_array())
            .unwrap_or(&[])
            .iter()
            .filter_map(|v| v.as_str().map(str::to_string))
            .collect()
    }

    /// The most recently stored run, skipping `except` (so "diff the
    /// latest run against this baseline" defaults sensibly).
    pub fn latest(&self, except: Option<&str>) -> Option<String> {
        self.runs().into_iter().rev().find(|r| Some(r.as_str()) != except)
    }

    /// Persists a store under `name` (re-storing a name overwrites its
    /// file and keeps its original index position). Returns the file
    /// path. Names are restricted to `[A-Za-z0-9._-]` so they map to
    /// safe file names.
    pub fn store_run(&self, name: &str, store: &Store) -> io::Result<PathBuf> {
        validate_name(name).map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let path = self.run_path(name);
        let mut text = String::new();
        store.to_json(name).write(&mut text);
        text.push('\n');
        fs::write(&path, text)?;

        let mut runs = self.runs();
        if !runs.iter().any(|r| r == name) {
            runs.push(name.to_string());
        }
        let index = microjson::Value::Object(vec![
            ("schema".into(), microjson::Value::str(CATALOG_SCHEMA)),
            (
                "runs".into(),
                microjson::Value::Array(runs.into_iter().map(microjson::Value::str).collect()),
            ),
        ]);
        let mut itext = String::new();
        index.write(&mut itext);
        itext.push('\n');
        fs::write(self.dir.join("catalog.json"), itext)?;
        Ok(path)
    }

    /// Loads a stored run back into a [`Store`].
    pub fn load_run(&self, name: &str) -> Result<Store, String> {
        validate_name(name)?;
        let path = self.run_path(name);
        let text = fs::read_to_string(&path)
            .map_err(|e| format!("cannot read run {name:?} at {}: {e}", path.display()))?;
        let doc = microjson::Value::parse(&text).map_err(|e| format!("run {name:?}: {e}"))?;
        Store::from_json(&doc)
    }

    /// Path of a run's document.
    pub fn run_path(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.json"))
    }
}

fn validate_name(name: &str) -> Result<(), String> {
    let ok = !name.is_empty()
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
        && !name.starts_with('.');
    if ok {
        Ok(())
    } else {
        Err(format!("invalid run name {name:?} (use [A-Za-z0-9._-], not starting with '.')"))
    }
}

/// Reads the benchmark's `--out` document into a store, so perf
/// trajectory becomes queryable history alongside real runs.
///
/// The document is an array of passes, one per workload. Every entry of a
/// pass's `metrics` object becomes a point on series
/// `<metric>{workload="<name>"}` with the entry's `value`. All points are
/// stamped at t=0 — a benchmark pass is one observation.
///
/// # Errors
///
/// A document that is not an array of passes, or a pass without a
/// `workload` name or a `metrics` object.
pub fn import_bench(doc: &microjson::Value) -> Result<Store, String> {
    let passes = doc
        .as_array()
        .ok_or("expected an array of benchmark passes (the benchmark's --out document)")?;
    let mut store = Store::new();
    for (i, pass) in passes.iter().enumerate() {
        let workload = pass
            .get("workload")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("pass {i}: no \"workload\" name"))?;
        let Some(microjson::Value::Object(metrics)) = pass.get("metrics") else {
            return Err(format!("pass {i} ({workload}): no \"metrics\" object"));
        };
        for (metric, m) in metrics {
            if let Some(value) = m.get("value").and_then(|v| v.as_f64()) {
                store.push(metric, &[("workload", workload)], 0, value);
            }
        }
    }
    Ok(store)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("tsdb-catalog-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn store_load_roundtrip_and_index_order() {
        let dir = tmpdir("roundtrip");
        let cat = RunCatalog::open(&dir).unwrap();
        assert!(cat.runs().is_empty());
        assert_eq!(cat.latest(None), None);

        let mut a = Store::new();
        a.push("m", &[("k", "v")], 5, 1.5);
        cat.store_run("smoke", &a).unwrap();
        let mut b = Store::new();
        b.push("m", &[], 7, 2.0);
        cat.store_run("drifted", &b).unwrap();
        // Re-storing keeps the original index slot.
        cat.store_run("smoke", &a).unwrap();

        assert_eq!(cat.runs(), vec!["smoke", "drifted"]);
        assert_eq!(cat.latest(None).as_deref(), Some("drifted"));
        assert_eq!(cat.latest(Some("drifted")).as_deref(), Some("smoke"));

        let back = cat.load_run("smoke").unwrap();
        assert_eq!(back.series_count(), 1);
        assert_eq!(back.sorted_series()[0].totals().last, 1.5);

        assert!(cat.store_run("../escape", &a).is_err());
        assert!(cat.load_run("missing").is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn import_bench_labels_each_pass_by_workload() {
        let doc = microjson::Value::parse(
            r#"[{"workload":"paper-hetero","seed":1,"digest":"3d243915ffd986ed",
                 "metrics":{"wall_s":{"value":0.5,"unit":"s","note":""},
                            "allocs":{"value":1200,"unit":"count","note":""}},
                 "samples":{"wall_s":[0.5]},"failures":[]},
                {"workload":"fleet-zipf","seed":1,"digest":"8a7f7bcf7bfc619b",
                 "metrics":{"wall_s":{"value":2.25,"unit":"s","note":""}},
                 "samples":{},"failures":[]}]"#,
        )
        .unwrap();
        let store = import_bench(&doc).unwrap();
        let keys: Vec<String> =
            store.sorted_series().iter().map(|s| store.series_key(s)).collect();
        assert_eq!(
            keys,
            vec![
                "allocs{workload=\"paper-hetero\"}",
                "wall_s{workload=\"fleet-zipf\"}",
                "wall_s{workload=\"paper-hetero\"}",
            ]
        );
        let e = crate::Expr::parse("wall_s{workload=*}").unwrap();
        let rows = crate::evaluate(&store, &e);
        let values: Vec<f64> = rows.iter().map(|r| r.value).collect();
        assert_eq!(values, vec![2.25, 0.5]);
    }

    #[test]
    fn import_bench_rejects_documents_that_are_not_passes() {
        for text in [
            r#"{"schema":"x","engine":{"events":7}}"#,
            r#"[{"metrics":{}}]"#,
            r#"[{"workload":"w"}]"#,
        ] {
            let doc = microjson::Value::parse(text).unwrap();
            assert!(import_bench(&doc).is_err(), "{text}");
        }
    }
}
