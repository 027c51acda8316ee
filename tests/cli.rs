//! `dls-cli` end to end: a bad number is a usage error (exit 1, one line
//! on stderr), never a panic, and a valid solve prints its table.

use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dls-cli"))
        .args(args)
        .output()
        .expect("dls-cli runs")
}

#[test]
fn bad_numbers_exit_1_with_one_line_and_no_panic() {
    let cases: [&[&str]; 8] = [
        &["solve", "0,1", "0.5"],
        &["solve", "1,nan", "0.5"],
        &["gantt", "1,2", "-0.5"],
        &["sweep", "1", "1,inf", "0.5"],
        &["multiround", "0", "0.1", "1,2", "0.5"],
        &["multiround", "3", "-1", "1,2", "0.5"],
        &["run", "1,2", "0.5", "1:slack:0"],
        &["run", "1,2,3", "0.5,0.2", "2:underbid:-1"],
    ];
    for args in cases {
        let out = cli(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed before failing");
    }
}

#[test]
fn rates_above_1e12_exit_1_with_one_line_and_no_panic() {
    // At 1e308 `run` used to panic on an infinite fine base and `solve`
    // printed a NaN makespan.
    let huge = "1e308,1e308,1e308";
    let spec = std::env::temp_dir().join(format!("dls-cli-huge-{}.json", std::process::id()));
    std::fs::write(
        &spec,
        r#"{"network": {"kind": "explicit", "w": [1e308, 1e308, 1e308], "z": [1e308, 1e308]}}"#,
    )
    .expect("write the spec");
    let spec_path = spec.to_str().expect("utf-8 path");
    let cases: [&[&str]; 7] = [
        &["solve", huge, "1e308,1e308"],
        &["run", huge, "1e308,1e308"],
        &["sweep", "1", huge, "1e308,1e308"],
        &["solve", "1,2,1.5", "0.2,1e13"],
        &["gantt", "1,1.0000001e12", "0.5"],
        &["multiround", "3", "0.1", "1,2e12", "0.5"],
        &["run-file", spec_path],
    ];
    for args in cases {
        let out = cli(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("exceeds the largest accepted rate"),
            "{args:?}: {stderr}"
        );
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed before failing");
    }
    std::fs::remove_file(&spec).expect("remove the spec");
    // The bound itself is accepted.
    assert!(cli(&["solve", "1,1e12", "1e12"]).status.success());
}

#[test]
fn valid_solve_prints_the_allocation_table() {
    let out = cli(&["solve", "1,2,1.5", "0.2,0.3"]);
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        "\
network: P0(w=1) --z1=0.2-- P1(w=2) --z2=0.3-- P2(w=1.5)
proc          alpha        w_bar       finish
P0         0.534314     0.534314     0.534314
P1         0.220588     0.947368     0.534314
P2         0.245098     1.500000     0.534314
makespan: 0.534314
"
    );
}
