//! The `canopus` binary refuses a write it cannot store: a raw `.f64`
//! file is any multiple of 8 bytes, so a NaN or an infinity parses, a
//! relative tolerance of 0 is a bound no lossy codec can be built with,
//! and a file already in the store is written once.
//! The write must fail with a message and a non-zero exit status before
//! anything reaches the store. So must any subcommand given an option
//! it does not declare.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn canopus(args: &[&Path]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_canopus"))
        .args(args)
        .output()
        .expect("run the canopus binary")
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("canopus_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn files_under(p: &Path) -> usize {
    std::fs::read_dir(p)
        .unwrap()
        .map(|e| e.unwrap().path())
        .map(|p| if p.is_dir() { files_under(&p) } else { 1 })
        .sum()
}

/// Every file under `p` with its bytes.
fn contents_under(p: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut out = BTreeMap::new();
    for path in std::fs::read_dir(p).unwrap().map(|e| e.unwrap().path()) {
        if path.is_dir() {
            out.extend(contents_under(&path));
        } else {
            out.insert(path.clone(), std::fs::read(&path).unwrap());
        }
    }
    out
}

/// An initialised store and the small XGC1 demo files under a fresh
/// directory: `(dir, store, mesh, data)`.
fn demo_store(tag: &str) -> (PathBuf, PathBuf, PathBuf, PathBuf) {
    let dir = tmpdir(tag);
    let (store, mesh, data) = (dir.join("store"), dir.join("m.off"), dir.join("d.f64"));
    let p = Path::new;
    assert!(canopus(&[p("init"), &store]).status.success());
    let made = canopus(&[
        p("demo-data"),
        p("xgc1"),
        p("--mesh"),
        &mesh,
        p("--data"),
        &data,
        p("--small"),
    ]);
    assert!(made.status.success());
    (dir, store, mesh, data)
}

#[test]
fn write_of_a_data_file_holding_a_nan_exits_non_zero_with_the_message() {
    let (dir, store, mesh, data) = demo_store("nan");
    let p = Path::new;
    let mut bytes = std::fs::read(&data).unwrap();
    bytes[8 * 42..8 * 43].copy_from_slice(&f64::NAN.to_le_bytes());
    std::fs::write(&data, bytes).unwrap();
    let before = files_under(&store);

    let out = canopus(&[
        p("write"),
        &store,
        p("x.bp"),
        p("dpot"),
        p("--mesh"),
        &mesh,
        p("--data"),
        &data,
        // Lossless: the codec itself would store the NaN.
        p("--codec"),
        p("fpc"),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("value 42 is NaN"), "{stderr}");
    assert_eq!(files_under(&store), before, "nothing stored");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn write_with_a_zero_tolerance_exits_non_zero_with_the_message() {
    let (dir, store, mesh, data) = demo_store("zero_tol");
    let p = Path::new;
    let before = files_under(&store);
    let out = canopus(&[
        p("write"),
        &store,
        p("x.bp"),
        p("dpot"),
        p("--mesh"),
        &mesh,
        p("--data"),
        &data,
        p("--rel-tol"),
        p("0"),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("finite positive bound"), "{stderr}");
    assert_eq!(files_under(&store), before, "nothing stored");
    let _ = std::fs::remove_dir_all(&dir);
}

/// An option the subcommand does not declare is refused by name before
/// anything runs. `--level` is `read`'s option, not `write`'s (which
/// takes `--levels`); taken as an unknown value-carrying option it used
/// to swallow its value and write with the defaults.
#[test]
fn write_with_an_undeclared_option_exits_non_zero_naming_it() {
    let (dir, store, mesh, data) = demo_store("undeclared_write");
    let p = Path::new;
    let before = files_under(&store);
    let out = canopus(&[
        p("write"),
        &store,
        p("x.bp"),
        p("dpot"),
        p("--mesh"),
        &mesh,
        p("--data"),
        &data,
        p("--level"),
        p("5"),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("unknown option --level"), "{stderr}");
    assert_eq!(files_under(&store), before, "nothing stored");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `serve` has no tiering flag: adaptive tiering is gone, and the word
/// after a retired flag must not be eaten as its value.
#[test]
fn serve_with_the_retired_tiering_flag_exits_non_zero_naming_it() {
    let (dir, store, mesh, data) = demo_store("undeclared_serve");
    let p = Path::new;
    let wrote = canopus(&[
        p("write"),
        &store,
        p("x.bp"),
        p("dpot"),
        p("--mesh"),
        &mesh,
        p("--data"),
        &data,
    ]);
    assert!(wrote.status.success());
    let before = files_under(&store);
    let out = canopus(&[
        p("serve"),
        &store,
        p("x.bp"),
        p("dpot"),
        p("--adaptive-tier"),
        p("--workers"),
        p("2"),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("unknown option --adaptive-tier"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "nothing served");
    assert_eq!(files_under(&store), before, "nothing stored");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A file is written once: a second `write` to it exits 1 naming the
/// file, and every byte of the store stays as the first write left it.
#[test]
fn writing_a_stored_file_again_exits_non_zero_naming_it() {
    let (dir, store, mesh, data) = demo_store("rewrite");
    let p = Path::new;
    let write = || {
        canopus(&[
            p("write"),
            &store,
            p("x.bp"),
            p("dpot"),
            p("--mesh"),
            &mesh,
            p("--data"),
            &data,
        ])
    };
    assert!(write().status.success());
    let before = contents_under(&store);
    let out = write();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("x.bp already exists"), "{stderr}");
    assert!(contents_under(&store) == before, "the store changed");
    let _ = std::fs::remove_dir_all(&dir);
}
