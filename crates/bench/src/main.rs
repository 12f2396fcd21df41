//! `hpv-bench <experiment>`: runs one experiment of the paper's evaluation
//! (or `all` of them, or `diff`), prints its report and, with `--json PATH`,
//! writes its results artifact and, where it has one, the metric snapshot
//! next to it. See [`hyparview_bench::cli`] for the flags.
//!
//! ```text
//! cargo run --release -p hyparview-bench -- fig2_reliability --quick --jobs 4
//! cargo run --release -p hyparview-bench -- plumtree_wan --smoke --assert --json wan.json
//! ```
//!
//! Exit codes: `0` done, `1` a headline check failed under `--assert`, `2`
//! a usage error (unknown experiment or flag, missing value).

use hyparview_bench::obsv_json::registry_json;
use hyparview_bench::{cli, diff};
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|name| name == "diff") {
        exit(diff::main(&args[1..]));
    }
    let mut invocation = cli::parse(&args).unwrap_or_else(|error| usage(&error));
    let outcome = (invocation.run)(&invocation.params, &mut invocation.flags);
    if let Some(flag) = invocation.flags.unused().first() {
        usage(&format!("{} takes no {flag}", invocation.name));
    }
    println!("{}", outcome.report);

    if let Some(path) = &invocation.json {
        let Some(json) = &outcome.json else {
            usage(&format!("{} writes no JSON artifact", invocation.name));
        };
        write(path, json);
        if let Some(metrics) = &outcome.metrics {
            write(&metrics_path(path), &registry_json(metrics));
        }
    }
    if invocation.assert {
        if !outcome.failures.is_empty() {
            eprintln!("ASSERTION FAILURES:");
            for failure in &outcome.failures {
                eprintln!("  - {failure}");
            }
            exit(1);
        }
        println!("(asserts passed: {})", invocation.name);
    }
}

/// The metric-snapshot path for a results artifact: `x.json` →
/// `x.metrics.json`, so the snapshot uploads and pairs by name with it.
fn metrics_path(json_path: &str) -> String {
    format!("{}.metrics.json", json_path.strip_suffix(".json").unwrap_or(json_path))
}

fn write(path: &str, contents: &str) {
    std::fs::write(path, contents).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("(written: {path})");
}

fn usage(message: &str) -> ! {
    eprintln!("hpv-bench: {message}");
    eprintln!("{}", cli::usage());
    exit(2);
}
