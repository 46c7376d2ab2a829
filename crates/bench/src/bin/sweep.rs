//! Thin driver for the workload sweep (see `omislice_bench::sweep`).
//!
//! ```text
//! sweep [--scales 10,50,250,1000,10000] [--reps N] [--out BENCH_sweep.json]
//!       [--via host:port]
//! ```
//!
//! `--via` points at a running `omislice serve` instance; each sample
//! then carries served locate latency (cold cache, warm cache) next to
//! the cold process-start CLI baseline.

use omislice_bench::sweep::{render_table, run_sweep, to_json, SweepOptions};

fn usage(msg: &str) -> ! {
    eprintln!("sweep: {msg}");
    eprintln!(
        "usage: sweep [--scales 10,50,250,1000,10000] [--reps N] [--out BENCH_sweep.json] \
         [--via host:port]"
    );
    std::process::exit(2);
}

fn main() {
    let mut opts = SweepOptions::default();
    let mut out = "BENCH_sweep.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--scales" => {
                opts.scales = value
                    .split(',')
                    .map(|s| {
                        s.trim().parse().unwrap_or_else(|_| {
                            usage(&format!("bad --scales `{value}` (need integers)"))
                        })
                    })
                    .collect();
                if opts.scales.is_empty() {
                    usage("bad --scales `` (need at least one integer)");
                }
            }
            "--reps" => {
                opts.reps = value.parse().unwrap_or(0);
                if opts.reps == 0 {
                    usage(&format!("bad --reps `{value}` (need a positive integer)"));
                }
            }
            "--out" => out = value,
            "--via" => {
                if !value.contains(':') {
                    usage(&format!("bad --via `{value}` (need host:port)"));
                }
                opts.via = Some(value);
            }
            other => usage(&format!("unknown flag `{other}`")),
        }
    }

    let samples = run_sweep(&opts);
    println!("Workload sweep (sizes are dynamic instances; times in microseconds)");
    println!("{}", render_table(&samples));
    std::fs::write(&out, to_json(&samples)).expect("writes the sweep JSON");
    println!("wrote {out} ({} rows)", samples.len());
}
