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
