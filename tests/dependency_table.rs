//! ARCHITECTURE.md's "Depends on" table, with the "no workspace
//! dependencies" line under the stack diagram, lists exactly the workspace
//! crates each `crates/*/Cargo.toml` names under `[dependencies]`.

use std::collections::{BTreeMap, BTreeSet};

/// The crate names in a table cell or on the `·`-separated line.
fn names(cell: &str) -> BTreeSet<String> {
    let names = cell.split(['`', ',', '·', ' ']).filter(|s| !s.is_empty());
    names.map(str::to_owned).collect()
}

#[test]
fn architecture_lists_each_crates_workspace_dependencies() {
    let root = env!("CARGO_MANIFEST_DIR");
    let doc = std::fs::read_to_string(format!("{root}/ARCHITECTURE.md")).expect("read the doc");
    let rows = doc
        .lines()
        .skip_while(|l| !l.starts_with("| Crate | Depends on |"));
    let rows = rows.skip(2).take_while(|l| l.starts_with('|')).map(|row| {
        let cells: Vec<&str> = row.split('|').collect();
        (cells[1], names(cells[2]))
    });
    let none = doc
        .lines()
        .find_map(|l| l.trim().strip_prefix("no workspace dependencies:"));
    let none = none.expect("the \"no workspace dependencies\" line");
    let mut documented = BTreeMap::new();
    for (crates, deps) in rows.chain([(none, BTreeSet::new())]) {
        for name in names(crates) {
            let listed = documented.insert(name.clone(), deps.clone());
            assert!(listed.is_none(), "{name} is listed twice");
        }
    }

    let mut declared = BTreeMap::new();
    for entry in std::fs::read_dir(format!("{root}/crates")).expect("read crates/") {
        let dir = entry.expect("a crates/ entry").path();
        let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).expect("read a manifest");
        let section = manifest
            .lines()
            .skip_while(|l| *l != "[dependencies]")
            .skip(1);
        let section = section.take_while(|l| !l.starts_with('['));
        let deps = section.filter_map(|l| l.strip_suffix(".workspace = true"));
        let name = dir
            .file_name()
            .expect("a crate directory")
            .to_string_lossy()
            .into_owned();
        declared.insert(name, deps.map(str::to_owned).collect::<BTreeSet<_>>());
    }
    for (name, deps) in &declared {
        let row = documented.remove(name);
        assert_eq!(
            row.as_ref(),
            Some(deps),
            "{name}: ARCHITECTURE.md against its manifest"
        );
    }
    assert!(
        documented.is_empty(),
        "ARCHITECTURE.md lists gone crates: {documented:?}"
    );
}
