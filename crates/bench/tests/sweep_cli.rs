//! End-to-end flag validation for the `sweep` binary: malformed values
//! exit 2 with a message naming the flag, never a panic or a silently
//! defaulted run.

use std::process::Command;

fn sweep(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn malformed_flags_exit_2_with_a_named_message() {
    for (args, expected) in [
        (&["--scales", "x"] as &[&str], "bad --scales `x`"),
        (&["--jobs", "2"], "unknown flag `--jobs`"),
        (&["--reps", "-1"], "bad --reps `-1`"),
        (&["--via", "noport"], "bad --via `noport`"),
        (&["--frobnicate", "1"], "unknown flag `--frobnicate`"),
        (&["--out"], "--out needs a value"),
    ] {
        let out = sweep(args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?} must exit 2, stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(expected) && stderr.contains("usage:"),
            "{args:?}: expected `{expected}` and the usage line in:\n{stderr}"
        );
    }
}

#[test]
fn unreachable_via_server_degrades_to_null_serve_columns() {
    let dir = std::env::temp_dir();
    let out_path = dir.join(format!("omislice-sweep-cli-{}.json", std::process::id()));
    // Nothing listens on the reserved TEST-NET-3 address: every serve
    // measurement fails and the sweep must still complete with null
    // serve columns rather than abort.
    let out = sweep(&[
        "--scales",
        "10",
        "--reps",
        "1",
        "--via",
        "127.0.0.1:1",
        "--out",
        out_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "sweep must survive an unreachable server: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&out_path).expect("sweep JSON written");
    std::fs::remove_file(&out_path).ok();
    assert!(
        json.contains("\"serve\":null"),
        "serve columns must be null"
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("no serve columns"),
        "the dropped measurement must be reported, not silent"
    );
}
