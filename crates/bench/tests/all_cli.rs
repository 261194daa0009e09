//! The `all` figure runner's argument handling, driven through the binary.

use std::process::Command;

#[test]
fn unknown_experiment_exits_nonzero_listing_the_known_names() {
    let out = Command::new(env!("CARGO_BIN_EXE_all"))
        .args(["table2", "fig99"])
        .output()
        .expect("spawn all");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "nothing runs before names are checked");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment \"fig99\""), "{stderr}");
    for (name, _) in bench::figs::registry() {
        assert!(stderr.contains(name), "{name} missing from: {stderr}");
    }
}
