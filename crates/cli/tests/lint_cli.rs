//! The `starnuma lint` subcommand, exercised through the real binary so
//! the exit-code, SARIF, and fix contracts are tested end to end.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn starnuma() -> Command {
    Command::new(env!("CARGO_BIN_EXE_starnuma"))
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn dirty_fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../audit/tests/fixture_ws")
}

#[test]
fn lint_exits_nonzero_on_the_dirty_fixture() {
    let out = starnuma()
        .args(["lint", "--root", dirty_fixture().to_str().expect("utf-8")])
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "dirty tree must fail the lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("SN001"), "stdout: {stdout}");
    assert!(stdout.contains("SN006"), "stdout: {stdout}");
    assert!(stdout.contains("SN012"), "stdout: {stdout}");
}

#[test]
fn lint_json_format_emits_a_versioned_report() {
    let out = starnuma()
        .args([
            "lint",
            "--root",
            dirty_fixture().to_str().expect("utf-8"),
            "--format",
            "json",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.trim_start().starts_with("{\"schema_version\":2,"),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("\"files_scanned\":"), "stdout: {stdout}");
    assert!(stdout.contains("\"findings\":[{"), "stdout: {stdout}");
    assert!(stdout.contains("\"code\":\"SN001\""), "stdout: {stdout}");
}

#[test]
fn lint_sarif_format_and_file_output_agree() {
    let dir = std::env::temp_dir().join("starnuma-lint-cli-sarif");
    fs::create_dir_all(&dir).expect("temp dir");
    let sarif_path = dir.join("lint.sarif");
    let out = starnuma()
        .args([
            "lint",
            "--root",
            dirty_fixture().to_str().expect("utf-8"),
            "--format",
            "sarif",
            "--sarif",
            sarif_path.to_str().expect("utf-8"),
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout).trim().to_string();
    let written = fs::read_to_string(&sarif_path).expect("sarif file written");
    assert_eq!(stdout, written.trim(), "stdout and --sarif file must agree");
    assert!(written.contains("\"version\":\"2.1.0\""));
    assert!(written.contains("\"name\":\"starnuma-audit\""));
    assert!(written.contains("\"ruleId\":\"SN006\""));
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn lint_exits_zero_on_the_workspace_itself() {
    let root = workspace_root();
    let out = starnuma()
        .args(["lint", "--root", root.to_str().expect("utf-8")])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "workspace must stay lint-clean:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("no findings"), "stdout: {stdout}");
}

#[test]
fn fix_converges_on_a_copy_of_the_dirty_fixture() {
    let dir = std::env::temp_dir().join("starnuma-lint-cli-fix");
    fs::remove_dir_all(&dir).ok();
    copy_tree(&dirty_fixture(), &dir);

    // First pass: safe rewrites plus allow markers for the rest.
    let out = starnuma()
        .args([
            "lint",
            "--root",
            dir.to_str().expect("utf-8"),
            "--fix",
            "--fix-allow",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "after --fix --fix-allow nothing may remain:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let root_lib = fs::read_to_string(dir.join("src/lib.rs")).expect("fixed file");
    assert!(root_lib.contains("DetMap"), "SN003 rewrite applied");
    let sim_lib = fs::read_to_string(dir.join("crates/sim/src/lib.rs")).expect("fixed file");
    assert!(sim_lib.contains(".sort_by_key("), "SN011 rewrite applied");

    // Second pass must report nothing and rewrite nothing.
    let again = starnuma()
        .args([
            "lint",
            "--root",
            dir.to_str().expect("utf-8"),
            "--fix",
            "--fix-allow",
        ])
        .output()
        .expect("binary runs");
    assert!(again.status.success());
    assert!(
        String::from_utf8_lossy(&again.stdout).contains("no findings"),
        "second --fix run must be clean: {}",
        String::from_utf8_lossy(&again.stdout)
    );
    assert!(
        String::from_utf8_lossy(&again.stderr).is_empty(),
        "second --fix run must not rewrite: {}",
        String::from_utf8_lossy(&again.stderr)
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn lint_writes_nothing_under_the_root() {
    let dir = std::env::temp_dir().join("starnuma-lint-cli-readonly");
    fs::remove_dir_all(&dir).ok();
    copy_tree(&dirty_fixture(), &dir);
    let before = list_tree(&dir);
    let out = starnuma()
        .args(["lint", "--root", dir.to_str().expect("utf-8")])
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "dirty tree must fail the lint");
    assert_eq!(
        list_tree(&dir),
        before,
        "a lint run must not create, remove or rename any path under its root"
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn lint_rejects_unknown_format() {
    let out = starnuma()
        .args(["lint", "--format", "yaml"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown format"));
}

fn copy_tree(from: &Path, to: &Path) {
    fs::create_dir_all(to).expect("create dir");
    for entry in fs::read_dir(from).expect("read dir").filter_map(Result::ok) {
        let src = entry.path();
        let dst = to.join(entry.file_name());
        if src.is_dir() {
            copy_tree(&src, &dst);
        } else {
            fs::copy(&src, &dst).expect("copy file");
        }
    }
}

/// Every path under `root`, relative to it and sorted.
fn list_tree(root: &Path) -> Vec<PathBuf> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in fs::read_dir(dir).expect("read dir").filter_map(Result::ok) {
            let path = entry.path();
            out.push(path.strip_prefix(root).expect("under root").to_path_buf());
            if path.is_dir() {
                walk(root, &path, out);
            }
        }
    }
    let mut out = Vec::new();
    walk(root, root, &mut out);
    out.sort();
    out
}
