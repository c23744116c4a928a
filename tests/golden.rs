//! `repro`'s stdout, pinned byte for byte. The renderer leaves every
//! wall-clock column to stderr, so stdout depends only on the scale and
//! the artifact list; a change that moves any deterministic number shows
//! here as the first line that differs.
//!
//! A change that alters output on purpose regenerates the file it moves,
//! e.g. `repro --scale 0.01 all factory > tests/golden/repro_scale_0.01.txt`,
//! and says in its change notes why each changed line moved.

use schedfilter::experiments::render;

/// Renders `all` plus `factory` at `scale` and compares it with
/// `golden`.
fn assert_matches_golden(scale: f64, golden: &str) {
    let artifacts = ["all".to_string(), "factory".to_string()];
    let mut out = Vec::new();
    render(scale, &artifacts, &mut out, &mut std::io::sink()).expect("render to memory");
    let out = String::from_utf8(out).expect("tables are UTF-8");
    if out == golden {
        return;
    }
    let line = out
        .lines()
        .zip(golden.lines())
        .position(|(a, b)| a != b)
        .unwrap_or(out.lines().count().min(golden.lines().count()));
    panic!(
        "repro --scale {scale} stdout differs from the golden file at line {}:\n  got:    {:?}\n  golden: {:?}\n({} lines rendered, {} golden)",
        line + 1,
        out.lines().nth(line),
        golden.lines().nth(line),
        out.lines().count(),
        golden.lines().count(),
    );
}

#[test]
fn repro_stdout_matches_the_golden_file_at_scale_0_01() {
    assert_matches_golden(0.01, include_str!("golden/repro_scale_0.01.txt"));
}

#[test]
#[ignore = "about a minute in a debug build; CI runs it optimised"]
fn repro_stdout_matches_the_golden_file_at_scale_0_05() {
    assert_matches_golden(0.05, include_str!("golden/repro_scale_0.05.txt"));
}
