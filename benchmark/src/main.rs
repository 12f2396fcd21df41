//! The repository benchmark.
//!
//! ```text
//! hpv-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! hpv-benchmark run     [--seeds 1,2,3] [--seconds s] [--out file.json]
//! hpv-benchmark trace   [--seeds 1] [--seconds s] [--out file.json]
//! hpv-benchmark compare A.json B.json
//! hpv-benchmark catalogue [--json]
//! ```
//!
//! The first form is one measured run; its last line of standard output is
//! the result as one JSON object. `run` and `trace` repeat it (per workload,
//! one untraced run per seed and one traced run), each run in a process of
//! its own, and print every metric by name. Every layer is measured from
//! outside, through public functions and public counters.

mod alloc;
mod catalogue;
mod json;
mod live;
mod openloop;
mod probes;
mod procfs;
mod report;
mod sim;
mod span;
mod stats;

use catalogue::{Metrics, END_TO_END, PER_LAYER, WORKLOADS};
use json::Json;
use span::Recorder;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// SplitMix64: the harness's own seeded stream, so its inputs do not change
/// when the program's random-number code does.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the bias of the plain remainder is far
    /// below anything a workload could notice.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// An independent seed for the stream named `salt`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    Rng::new(seed ^ salt.wrapping_mul(0xA24B_AED4_963E_E407)).next()
}

/// What one run produced.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; the run is correct when there are none.
    pub problems: Vec<String>,
    /// Lines for the person reading the output.
    pub notes: Vec<String>,
    /// Exact counts that must repeat for a (workload, seed): sim only.
    pub fingerprint: Option<String>,
    /// Samples behind the latency percentiles, and the highest percentile
    /// that sample supports with its value in ms.
    pub latency_samples: u64,
    pub latency_tail: Option<(f64, f64)>,
    /// Worst run-delay share of a measured thread.
    pub run_delay_share: f64,
    /// Sim only: the window's wall time and the exact operation counts the
    /// budget table prices with probe costs.
    pub window_ns: u64,
    pub budget: Vec<BudgetLine>,
}

/// One row of a budget table: `(layer, probe metric that prices the
/// operation, exact count of that operation in the window, what was counted)`.
pub type BudgetLine = (&'static str, &'static str, u64, &'static str);

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

/// A fixed integer loop, median of five: its speed in operations per
/// microsecond tells two runs on differently loaded machines apart.
fn calibration_mops() -> f64 {
    const OPS: u64 = 10_000_000;
    let one = || {
        let started = std::time::Instant::now();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for i in 0..OPS {
            x = std::hint::black_box(x ^ (x << 13) ^ (x >> 7)).wrapping_add(i);
        }
        std::hint::black_box(x);
        OPS as f64 / started.elapsed().as_secs_f64() / 1e6
    };
    stats::median(&[one(), one(), one(), one(), one()])
}

fn one_run(args: &RunArgs) -> Result<(), String> {
    if !WORKLOADS.iter().any(|w| w.name == args.workload) {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("unknown workload {:?}; known: {}", args.workload, known.join(", ")));
    }
    alloc::mark_driver_thread();
    let mut rec = Recorder::new(args.trace);
    let mut out = Outcome::default();

    let root = rec.enter("calibrate");
    let calibration_start = calibration_mops();
    rec.exit(root);

    match args.workload.as_str() {
        "sim_flood_failures" => {
            sim::flood_failures(args.seed, args.seconds, args.trace, &mut rec, &mut out)?
        }
        "sim_plumtree_wan_churn" => {
            sim::plumtree_wan_churn(args.seed, args.seconds, args.trace, &mut rec, &mut out)?
        }
        "live_flood_small" => {
            live::run(&live::FLOOD_SMALL, args.seed, args.seconds, args.trace, &mut rec, &mut out)?
        }
        "live_plumtree_large" => live::run(
            &live::PLUMTREE_LARGE,
            args.seed,
            args.seconds,
            args.trace,
            &mut rec,
            &mut out,
        )?,
        _ => unreachable!("checked against WORKLOADS above"),
    }
    if args.trace {
        let root = rec.enter("probes");
        probes::run_all(args.seed, &mut rec, &mut out.metrics);
        rec.exit(root);
    }

    let root = rec.enter("calibrate");
    let calibration_end = calibration_mops();
    rec.exit(root);
    let drift =
        (calibration_end - calibration_start).abs() / calibration_start.max(calibration_end);
    let disturbed = drift > 0.10 || out.run_delay_share > 0.05;
    out.metrics.set("harness.calibration_mops", calibration_start.min(calibration_end));
    out.metrics.set("harness.disturbed", f64::from(u8::from(disturbed)));
    if disturbed {
        out.notes.push(format!(
            "DISTURBED: calibration drifted {:.1}%, worst run-delay share {:.1}% (reported, not dropped)",
            drift * 100.0,
            out.run_delay_share * 100.0
        ));
    }

    let wall_ns = rec.now_ns();
    report::print_run(args.workload.as_str(), args.seed, args.trace, &out, &rec, wall_ns)?;
    Ok(())
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: report::DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        let number =
            || value.parse::<u64>().map_err(|_| format!("{flag}: {value:?} is not a whole number"));
        match flag.as_str() {
            "--workload" => run.workload = value.clone(),
            "--seed" => run.seed = number()?,
            "--seconds" => run.seconds = number()?.clamp(1, 60),
            "--trace" => run.trace = number()? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if run.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(run)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        None | Some("run") => report::run_sets(args.get(1..).unwrap_or(&[]), &[1, 2, 3]),
        Some("trace") => report::run_sets(&args[1..], &[1]),
        Some("compare") => report::compare(&args[1..]),
        Some("catalogue") => report::catalogue(&args[1..]),
        Some("--help" | "-h" | "help") => {
            println!("{}", report::USAGE);
            Ok(())
        }
        Some(_) => parse_run_args(&args).and_then(|run| one_run(&run)),
    };
    if let Err(message) = result {
        eprintln!("hpv-benchmark: {message}");
        std::process::exit(1);
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(out: &Outcome, trace: bool) -> Json {
    let value = |name: &'static str, unit: &'static str| {
        (
            name,
            Json::object([
                ("value", Json::from(out.metrics.get(name))),
                ("unit", Json::from(unit)),
            ]),
        )
    };
    let metrics = if trace {
        Json::object(PER_LAYER.iter().map(|m| value(m.name, m.unit)))
    } else {
        Json::object(END_TO_END.iter().map(|e| value(e.metric.name, e.metric.unit)))
    };
    Json::object([
        ("correct", Json::from(out.problems.is_empty())),
        ("attempted", Json::from(out.attempted.max(1))),
        ("failed", Json::from(out.failed)),
        ("metrics", metrics),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_streams_repeat_and_differ_by_salt() {
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            [rng.next(), rng.next(), rng.below(10)]
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        assert_ne!(mix(1, 2), mix(1, 3));
        assert_ne!(mix(1, 2), mix(2, 2));
        assert!((0..1_000).all(|_| Rng::new(3).below(7) < 7));
    }

    #[test]
    fn run_arguments() {
        let parse = |line: &str| {
            parse_run_args(&line.split_whitespace().map(String::from).collect::<Vec<_>>())
        };
        let run = parse("--workload live_flood_small --seed 9 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (run.workload.as_str(), run.seed, run.seconds, run.trace),
            ("live_flood_small", 9, 10, true)
        );
        assert!(!parse("--workload x --trace 0").unwrap().trace);
        assert!(parse("--seed 1").is_err(), "the workload is required");
        assert!(parse("--workload x --seed").is_err());
        assert!(parse("--workload x --seed one").is_err());
        assert!(parse("--workload x --bogus 1").is_err());
    }

    /// With `--trace 0` the result holds every end-to-end metric and nothing
    /// else; with `--trace 1` every per-layer metric and nothing else.
    #[test]
    fn result_line_has_exactly_the_catalogue() {
        let mut out = Outcome { attempted: 12, ..Outcome::default() };
        out.metrics.set("setup_s", 1.25);
        for (trace, expected) in [
            (false, END_TO_END.iter().map(|e| e.metric.name).collect::<Vec<_>>()),
            (true, PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()),
        ] {
            let line = result_json(&out, trace).render();
            assert!(!line.contains('\n'));
            let parsed = Json::parse(&line).unwrap();
            let keys: Vec<&str> = parsed.fields().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let names: Vec<&str> =
                parsed.get("metrics").unwrap().fields().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(names, expected);
        }
        let untraced = result_json(&out, false);
        let setup = untraced.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(1.25));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
    }
}
