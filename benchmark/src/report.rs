//! What a run prints, and the commands built on single runs: `run` (sets of
//! untraced runs), `trace` (one traced run per workload) and `compare`.

use crate::catalogue::{layer_of, Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::json::Json;
use crate::span::{self, Recorder};
use crate::stats::{median, quantile_label, quartiles, spread};
use crate::{result_json, Outcome};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};

pub const USAGE: &str = "\
usage: hpv-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
       hpv-benchmark run     [--seeds 1,2,3] [--seconds s] [--out file.json]
       hpv-benchmark trace   [--seeds 1] [--seconds s] [--out file.json]
       hpv-benchmark compare A.json B.json
       hpv-benchmark catalogue [--json]
With no arguments: run. `run` and `trace` differ in their default seeds only:
per workload, one untraced run per seed, then one traced run of the first seed.";

/// `--seconds` of `run` and `trace` when not given; equals `run_seconds` in
/// `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 20;

/// Where trace and result files go: `out/` beside the benchmark's sources.
fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

fn write_out(name: &str, text: &str) -> Result<PathBuf, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

/// A number with four significant digits, for tables; result lines keep all.
fn short(value: f64) -> String {
    if value == 0.0 {
        return "0".into();
    }
    let digits = (3 - value.abs().log10().floor() as i32).clamp(0, 9) as usize;
    format!("{value:.digits$}")
}

/// A value for a table: shares sit near 0 or 1, where four digits hide what
/// matters, so they keep seven decimals.
fn shown(value: f64, unit: &str) -> String {
    if unit == "fraction" {
        format!("{value:.7}")
    } else {
        short(value)
    }
}

/// A bound as a percentage, without trailing zeros: `25%`, `0.1%`.
fn percent(bound: f64) -> String {
    let text = format!("{:.2}", bound * 100.0);
    format!("{}%", text.trim_end_matches('0').trim_end_matches('.'))
}

// ---------------------------------------------------------------------------
// One run
// ---------------------------------------------------------------------------

/// Starts the line of a run's output that holds every value it measured.
const VALUES_PREFIX: &str = "values: ";

pub fn print_run(
    workload: &str,
    seed: u64,
    trace: bool,
    out: &Outcome,
    rec: &Recorder,
    wall_ns: u64,
) -> Result<(), String> {
    let mut text = String::new();
    let w = &mut text;
    let why = WORKLOADS.iter().find(|w| w.name == workload).map_or("", |w| w.why);
    writeln!(w, "# {workload}, seed {seed}, {}", if trace { "traced" } else { "untraced" }).ok();
    writeln!(w, "# {why}").ok();
    for note in &out.notes {
        writeln!(w, "note: {note}").ok();
    }
    for problem in &out.problems {
        writeln!(w, "CHECK FAILED: {problem}").ok();
    }
    if let Some(fingerprint) = &out.fingerprint {
        writeln!(w, "fingerprint: {fingerprint}").ok();
    }

    let note = if trace { " (traced run: not for comparison)" } else { "" };
    writeln!(w, "\n{:<24} {:>14}  {:<9} regression bound{note}", "metric", "value", "unit").ok();
    for e in END_TO_END {
        let (m, value) = (&e.metric, shown(out.metrics.get(e.metric.name), e.metric.unit));
        writeln!(w, "{:<24} {value:>14}  {:<9} {}", m.name, m.unit, percent(e.bound)).ok();
    }
    if let Some((q, value)) = out.latency_tail {
        writeln!(
            w,
            "latency: {} samples; highest percentile with ten samples beyond it: {} = {} ms",
            out.latency_samples,
            quantile_label(q),
            short(value)
        )
        .ok();
    }
    writeln!(
        w,
        "\n{:<14} {:<38} {:>14}  unit   (-: not measured in this run)",
        "layer", "metric", "value"
    )
    .ok();
    for m in PER_LAYER {
        let value = out.metrics.measured(m.name).map_or("-".into(), |v| shown(v, m.unit));
        writeln!(w, "{:<14} {:<38} {value:>14}  {}", layer_of(m.name), m.name, m.unit).ok();
    }
    if trace {
        budget_table(out, w);
        let spans = rec.spans();
        writeln!(w, "\nself time by span name (duration minus what child spans cover):").ok();
        writeln!(w, "{:<30} {:>8} {:>12} {:>12}", "span", "count", "total ms", "self ms").ok();
        for row in span::totals_by_name(spans).iter().take(24) {
            let (total, own) = (row.total_ns as f64 / 1e6, row.self_ns as f64 / 1e6);
            writeln!(w, "{:<30} {:>8} {total:>12.2} {own:>12.2}", row.name, row.count).ok();
        }
        let coverage = span::root_coverage(spans, wall_ns) * 100.0;
        writeln!(w, "root spans cover {coverage:.1}% of the run's {:.2} s", wall_ns as f64 / 1e9)
            .ok();
        let doc = span::trace_json(workload, seed, wall_ns, spans).render();
        let path = write_out(&format!("trace-{workload}.json"), &doc)?;
        writeln!(w, "{} spans written to {}", spans.len(), path.display()).ok();
    }
    writeln!(
        w,
        "attempted {}, failed {}, correct {}",
        out.attempted,
        out.failed,
        out.problems.is_empty()
    )
    .ok();
    print!("{text}");
    // Every measured value by name, for `run`; then the result line.
    let values = Json::object(out.metrics.iter().map(|(name, value)| (name, Json::from(value))));
    println!("{VALUES_PREFIX}{}", values.render());
    println!("{}", result_json(out, trace).render());
    Ok(())
}

/// For each layer: probe cost x the exact count of that operation in the
/// window, as a share of the window. An estimate: a probe prices an
/// operation on a warm cache and a small state.
fn budget_table(out: &Outcome, w: &mut String) {
    if out.budget.is_empty() || out.window_ns == 0 {
        return;
    }
    writeln!(w, "\nbudget of the window (ESTIMATE: probe cost x exact count / window time):").ok();
    writeln!(
        w,
        "{:<10} {:<32} {:>12} {:>9} {:>8}  counted",
        "layer", "priced by", "count", "ns each", "share"
    )
    .ok();
    let mut explained = 0.0;
    for &(layer, probe, count, what) in &out.budget {
        let each = out.metrics.get(probe);
        let share = each * count as f64 / out.window_ns as f64;
        explained += share;
        let (each, share) = (short(each), share * 100.0);
        writeln!(w, "{layer:<10} {probe:<32} {count:>12} {each:>9} {share:>7.1}%  {what}").ok();
    }
    writeln!(
        w,
        "{:<10} {:<32} {:>12} {:>9} {:>7.1}%  unexplained remainder: dispatch self time",
        "sim",
        "-",
        "-",
        "-",
        (1.0 - explained) * 100.0
    )
    .ok();
}

// ---------------------------------------------------------------------------
// Sets of runs
// ---------------------------------------------------------------------------

struct SetArgs {
    seeds: Vec<u64>,
    seconds: u64,
    out: Option<String>,
}

fn parse_set_args(args: &[String], default_seeds: &[u64]) -> Result<SetArgs, String> {
    let mut set = SetArgs { seeds: default_seeds.to_vec(), seconds: DEFAULT_SECONDS, out: None };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        let number = |text: &str| {
            text.parse::<u64>().map_err(|_| format!("{flag}: {text:?} is not a whole number"))
        };
        match flag.as_str() {
            "--seeds" => set.seeds = value.split(',').map(number).collect::<Result<_, _>>()?,
            "--seconds" => set.seconds = number(value)?.clamp(1, 60),
            "--out" => set.out = Some(value.clone()),
            _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
        }
    }
    if set.seeds.is_empty() {
        return Err("--seeds needs at least one seed".into());
    }
    Ok(set)
}

/// One run in a process of its own, so every run starts from the same
/// state (memory high-water mark, sockets in TIME_WAIT aside). Returns what
/// it printed and its entry in the result file.
fn child(workload: &str, seed: u64, seconds: u64, traced: bool) -> Result<(String, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("start run: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload} seed {seed}: run ended with {}", output.status));
    }
    let stdout =
        String::from_utf8(output.stdout).map_err(|_| "run printed invalid UTF-8".to_owned())?;
    let entry = entry_of(workload, seed, traced, &stdout)
        .map_err(|e| format!("{workload} seed {seed}: {e}"))?;
    Ok((stdout, entry))
}

/// A run's entry in the result file, from what the run printed.
fn entry_of(workload: &str, seed: u64, traced: bool, stdout: &str) -> Result<Json, String> {
    let result = Json::parse(stdout.lines().last().unwrap_or(""))?;
    let values = stdout
        .lines()
        .find_map(|l| l.strip_prefix(VALUES_PREFIX))
        .ok_or_else(|| "no values line".to_owned())
        .and_then(Json::parse)?;
    let fingerprint = stdout.lines().find_map(|l| l.strip_prefix("fingerprint: "));
    Ok(Json::object([
        ("workload", Json::from(workload)),
        ("seed", Json::from(seed)),
        ("traced", Json::from(traced)),
        ("correct", Json::from(result.get("correct").and_then(Json::as_bool) == Some(true))),
        ("fingerprint", fingerprint.map_or(Json::Null, Json::from)),
        ("values", values),
    ]))
}

/// `run` and `trace`: per workload, one untraced run per seed, then one
/// traced run of the first seed.
pub fn run_sets(args: &[String], default_seeds: &[u64]) -> Result<(), String> {
    let set = parse_set_args(args, default_seeds)?;
    let mut runs = Vec::new();
    let mut incorrect = 0;
    for workload in &WORKLOADS {
        for &seed in &set.seeds {
            let (stdout, entry) = child(workload.name, seed, set.seconds, false)?;
            let correct = entry.get("correct").and_then(Json::as_bool) == Some(true);
            incorrect += usize::from(!correct);
            let mut line = format!(
                "{:<24} seed {seed:<3} {}",
                workload.name,
                if correct { "ok    " } else { "FAILED" }
            );
            for e in END_TO_END {
                let value = entry.get("values").and_then(|v| v.get(e.metric.name));
                let value =
                    value.and_then(Json::as_f64).map_or("-".into(), |v| shown(v, e.metric.unit));
                write!(line, " {}={value}", e.metric.name).ok();
            }
            println!("{line}");
            stdout
                .lines()
                .filter(|l| l.starts_with("CHECK FAILED") || l.starts_with("note: DISTURBED"))
                .for_each(|l| println!("    {l}"));
            runs.push(entry);
        }
        let (stdout, entry) = child(workload.name, set.seeds[0], set.seconds, true)?;
        incorrect += usize::from(entry.get("correct").and_then(Json::as_bool) != Some(true));
        println!("\n{}\n", stdout.trim_end());
        runs.push(entry);
    }
    let doc = Json::object([("seconds", Json::from(set.seconds)), ("runs", Json::Array(runs))]);
    print!("{}", tables(&doc));
    let mismatched =
        same_seed_mismatches(&fingerprints(&doc, Some(false)), &fingerprints(&doc, Some(true)));
    println!("sim fingerprints, traced against untraced run of the same seed: {mismatched} differ");
    let text = doc.render();
    let path = match &set.out {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| format!("write {path}: {e}"))?;
            PathBuf::from(path)
        }
        None => {
            let stamp = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_secs());
            write_out(&format!("run-{stamp}.json"), &text)?
        }
    };
    println!("results written to {}", path.display());
    if incorrect > 0 || mismatched > 0 {
        return Err(format!(
            "{incorrect} runs failed their output checks, {mismatched} fingerprints differ"
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// catalogue
// ---------------------------------------------------------------------------

/// The command `BENCHMARK.json` names: one run, built from source.
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// `BENCHMARK.json`, generated from the catalogue so the two cannot drift.
pub fn benchmark_json() -> String {
    let list = |rows: Vec<Json>| {
        let rows: Vec<String> = rows.iter().map(|row| format!("    {}", row.render())).collect();
        format!("[\n{}\n  ]", rows.join(",\n"))
    };
    let text = |s: &str| Json::from(s);
    let workloads = WORKLOADS
        .iter()
        .map(|w| Json::object([("name", text(w.name)), ("why", text(w.why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|e| {
            Json::object([
                ("name", text(e.metric.name)),
                ("unit", text(e.metric.unit)),
                ("better", text(e.metric.better.as_str())),
                ("bound", Json::from(e.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            Json::object([
                ("name", text(m.name)),
                ("unit", text(m.unit)),
                ("better", text(m.better.as_str())),
            ])
        })
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {DEFAULT_SECONDS},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        Json::Array(COMMAND.iter().map(|s| text(s)).collect()).render(),
        list(workloads),
        list(end_to_end),
        list(per_layer)
    )
}

/// Every name the benchmark defines, with unit, direction, source and the
/// end-to-end metric it should move: the table `README.md` carries.
pub fn catalogue(args: &[String]) -> Result<(), String> {
    if args.first().is_some_and(|a| a == "--json") {
        print!("{}", benchmark_json());
        return Ok(());
    }
    println!("| workload | why |\n|---|---|");
    for w in &WORKLOADS {
        println!("| `{}` | {} |", w.name, w.why);
    }
    println!("\n| end-to-end metric | unit | better | bound | definition |\n|---|---|---|---|---|");
    for e in END_TO_END {
        let m = &e.metric;
        println!(
            "| `{}` | {} | {} | {} | {} |",
            m.name,
            m.unit,
            m.better.as_str(),
            percent(e.bound),
            m.source
        );
    }
    println!(
        "\n| per-layer metric | unit | better | source | should move |\n|---|---|---|---|---|"
    );
    for m in PER_LAYER {
        println!(
            "| `{}` | {} | {} | {} | {} |",
            m.name,
            m.unit,
            m.better.as_str(),
            m.source,
            m.moves
        );
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Reading result files
// ---------------------------------------------------------------------------

/// Values of `metric` on `workload` over the traced or the untraced runs of
/// a result file.
fn values(doc: &Json, workload: &str, metric: &str, traced: bool) -> Vec<f64> {
    let runs = doc.get("runs").map(Json::as_array).unwrap_or(&[]);
    runs.iter()
        .filter(|run| run.get("workload").and_then(Json::as_str) == Some(workload))
        .filter(|run| run.get("traced").and_then(Json::as_bool) == Some(traced))
        .filter_map(|run| run.get("values")?.get(metric)?.as_f64())
        .collect()
}

/// What `run` prints after its runs: every end-to-end metric per workload
/// with median, quartiles, sample count and bound; every per-layer metric
/// with median and sample count per workload; the tracing overhead.
fn tables(doc: &Json) -> String {
    let mut text = String::new();
    writeln!(
        text,
        "{:<22} {:<24} {:>11} {:>11} {:>11} {:>3} {:>8} {:>6}  unit",
        "end-to-end metric", "workload", "median", "q1", "q3", "n", "spread", "bound"
    )
    .ok();
    for e in END_TO_END {
        let cell = |x: Option<f64>| x.map_or("-".into(), |x| shown(x, e.metric.unit));
        for workload in &WORKLOADS {
            let v = values(doc, workload.name, e.metric.name, false);
            let (q1, q3) = match quartiles(&v) {
                Some((q1, q3)) => (Some(q1), Some(q3)),
                None => (v.first().copied(), v.first().copied()),
            };
            let spread = spread(&v).map_or("-".into(), |s| format!("{:.3}%", s * 100.0));
            writeln!(
                text,
                "{:<22} {:<24} {:>11} {:>11} {:>11} {:>3} {:>8} {:>6}  {}",
                e.metric.name,
                workload.name,
                cell((!v.is_empty()).then(|| median(&v))),
                cell(q1),
                cell(q3),
                v.len(),
                spread,
                percent(e.bound),
                e.metric.unit
            )
            .ok();
        }
    }

    // Per layer: the median over the untraced runs that measured it; for
    // what only a traced run measures (probes, allocations), that run's
    // value, marked `t`.
    writeln!(
        text,
        "\nper-layer metric: median, n = runs behind it (t: the traced run; -: not measured on this workload)"
    )
    .ok();
    write!(text, "{:<38} {:<8}", "", "unit").ok();
    for workload in &WORKLOADS {
        write!(text, " {:>24}", workload.name).ok();
    }
    writeln!(text).ok();
    for m in PER_LAYER {
        write!(text, "{:<38} {:<8}", m.name, m.unit).ok();
        for workload in &WORKLOADS {
            let untraced = values(doc, workload.name, m.name, false);
            let (v, mark) = if untraced.is_empty() {
                (values(doc, workload.name, m.name, true), "t")
            } else {
                (untraced, "")
            };
            let cell = if v.is_empty() {
                "-".to_owned()
            } else {
                format!("{} n={}{mark}", shown(median(&v), m.unit), v.len())
            };
            write!(text, " {cell:>24}").ok();
        }
        writeln!(text).ok();
    }

    writeln!(
        text,
        "\nharness.trace_overhead_share: untraced median deliveries_per_s / the traced run's - 1"
    )
    .ok();
    for workload in &WORKLOADS {
        let untraced = values(doc, workload.name, "deliveries_per_s", false);
        let traced = values(doc, workload.name, "deliveries_per_s", true);
        match traced.first() {
            Some(&traced) if traced > 0.0 && !untraced.is_empty() => writeln!(
                text,
                "  {:<24} {:>+7.2}%  (traced {}, untraced median of {}: {})",
                workload.name,
                (median(&untraced) / traced - 1.0) * 100.0,
                short(traced),
                untraced.len(),
                short(median(&untraced))
            ),
            _ => writeln!(text, "  {:<24} -", workload.name),
        }
        .ok();
    }
    text
}

// ---------------------------------------------------------------------------
// compare
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Better,
    Worse,
    Unresolved,
}

/// `change` is the relative difference of B's median from A's, positive when
/// B is worse. A spread wider than the bound on either side leaves the pair
/// unresolved: it cannot be reported as unchanged.
pub fn verdict(change_for_worse: f64, spread_a: f64, spread_b: f64, bound: f64) -> Verdict {
    if spread_a > bound || spread_b > bound {
        Verdict::Unresolved
    } else if change_for_worse > bound {
        Verdict::Worse
    } else if change_for_worse < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `(workload, seed, fingerprint)` of the sim runs in a result file: all of
/// them, or only the traced or the untraced ones.
fn fingerprints(doc: &Json, traced: Option<bool>) -> Vec<(String, u64, String)> {
    let runs = doc.get("runs").map(Json::as_array).unwrap_or(&[]);
    runs.iter()
        .filter(|run| traced.is_none() || run.get("traced").and_then(Json::as_bool) == traced)
        .filter_map(|run| {
            Some((
                run.get("workload")?.as_str()?.to_owned(),
                run.get("seed")?.as_f64()? as u64,
                run.get("fingerprint")?.as_str()?.to_owned(),
            ))
        })
        .collect()
}

/// Pairs of runs with the same workload and seed whose fingerprints differ,
/// each printed.
fn same_seed_mismatches(a: &[(String, u64, String)], b: &[(String, u64, String)]) -> usize {
    let mut mismatched = 0;
    for (workload, seed, print_a) in a {
        for (_, _, print_b) in b.iter().filter(|(w, s, _)| w == workload && s == seed) {
            if print_a != print_b {
                mismatched += 1;
                println!(
                    "FINGERPRINT MISMATCH {workload} seed {seed}:\n  A {print_a}\n  B {print_b}"
                );
            }
        }
    }
    mismatched
}

pub fn compare(args: &[String]) -> Result<(), String> {
    let [a_path, b_path] = args else {
        return Err(format!("compare needs two result files\n{USAGE}"));
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!("A = {a_path}\nB = {b_path}\n(difference = (median B - median A) / median A; base: median A)\n");
    println!(
        "{:<22} {:<24} {:>11} {:>20} {:>11} {:>20} {:>9} {:>6}  verdict",
        "metric", "workload", "median A", "quartiles A", "median B", "quartiles B", "diff", "bound"
    );
    let mut worse = 0;
    for e in END_TO_END {
        for workload in &WORKLOADS {
            let (va, vb) = (
                values(&a, workload.name, e.metric.name, false),
                values(&b, workload.name, e.metric.name, false),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let diff = if ma != 0.0 { (mb - ma) / ma.abs() } else { 0.0 };
            let for_worse = if e.metric.better == Better::Lower { diff } else { -diff };
            let verdict =
                verdict(for_worse, spread(&va).unwrap_or(0.0), spread(&vb).unwrap_or(0.0), e.bound);
            worse += usize::from(verdict == Verdict::Worse);
            let cell = |x: f64| shown(x, e.metric.unit);
            let quartiles = |v: &[f64]| {
                quartiles(v).map_or("-".into(), |(q1, q3)| format!("{}..{}", cell(q1), cell(q3)))
            };
            println!(
                "{:<22} {:<24} {:>11} {:>20} {:>11} {:>20} {:>+8.3}% {:>6}  {}",
                e.metric.name,
                workload.name,
                cell(ma),
                quartiles(&va),
                cell(mb),
                quartiles(&vb),
                diff * 100.0,
                percent(e.bound),
                format!("{verdict:?}").to_lowercase()
            );
        }
    }

    let mismatched = same_seed_mismatches(&fingerprints(&a, None), &fingerprints(&b, None));
    println!("\nsim fingerprints of equal (workload, seed): {mismatched} differ");
    if worse > 0 || mismatched > 0 {
        return Err(format!(
            "{worse} pairs worse than their bound, {mismatched} fingerprints differ"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        assert_eq!(verdict(0.04, 0.02, 0.03, 0.10), Verdict::Within);
        assert_eq!(verdict(-0.04, 0.02, 0.03, 0.10), Verdict::Within);
        assert_eq!(verdict(0.12, 0.02, 0.03, 0.10), Verdict::Worse);
        assert_eq!(verdict(-0.12, 0.02, 0.03, 0.10), Verdict::Better);
        // A spread wider than the bound on either side: not "unchanged".
        assert_eq!(verdict(0.0, 0.11, 0.03, 0.10), Verdict::Unresolved);
        assert_eq!(verdict(0.5, 0.02, 0.11, 0.10), Verdict::Unresolved);
    }

    /// A result file with one untraced run per value of `frames_per_delivery`
    /// and a traced run of the first seed.
    fn doc(frames: &[f64], fingerprint: &str) -> Json {
        let run = |seed: usize, traced: bool, values: Json| {
            Json::object([
                ("workload", Json::from("sim_flood_failures")),
                ("seed", Json::from(seed as u64)),
                ("traced", Json::from(traced)),
                ("correct", Json::from(true)),
                ("fingerprint", Json::from(fingerprint)),
                ("values", values),
            ])
        };
        let mut runs: Vec<Json> = frames
            .iter()
            .enumerate()
            .map(|(i, &f)| {
                let values = [("frames_per_delivery", f), ("deliveries_per_s", 1_000.0 + i as f64)];
                run(i + 1, false, Json::object(values.map(|(k, v)| (k, Json::from(v)))))
            })
            .collect();
        let traced = [("deliveries_per_s", 800.0), ("core.handle_join_ns", 41.5)];
        runs.push(run(1, true, Json::object(traced.map(|(k, v)| (k, Json::from(v))))));
        Json::object([("seconds", Json::from(10u64)), ("runs", Json::Array(runs))])
    }

    #[test]
    fn reads_values_and_fingerprints_back_from_a_result_file() {
        let doc = Json::parse(&doc(&[5.0, 7.0, 6.0], "events=1").render()).unwrap();
        let flood = "sim_flood_failures";
        assert_eq!(values(&doc, flood, "frames_per_delivery", false), [5.0, 7.0, 6.0]);
        assert!(values(&doc, flood, "frames_per_delivery", true).is_empty());
        assert!(values(&doc, "live_flood_small", "frames_per_delivery", false).is_empty());
        assert!(values(&doc, flood, "setup_s", false).is_empty());
        assert_eq!(fingerprints(&doc, None).len(), 4);
        assert_eq!(
            fingerprints(&doc, Some(false))[2],
            (flood.to_owned(), 3, "events=1".to_owned())
        );
        let (untraced, traced) = (fingerprints(&doc, Some(false)), fingerprints(&doc, Some(true)));
        assert_eq!(same_seed_mismatches(&untraced, &traced), 0);
        let other = vec![(flood.to_owned(), 1, "events=2".to_owned())];
        assert_eq!(same_seed_mismatches(&untraced, &other), 1);
    }

    /// `run` prints every name `BENCHMARK.json` defines, whatever was
    /// measured: medians come from the untraced runs, what only the traced
    /// run measures is marked, and the tracing overhead uses both.
    #[test]
    fn run_prints_every_name_in_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let benchmark = Json::parse(&text).unwrap();
        let filled = Json::parse(&doc(&[5.0, 7.0, 6.0], "events=1").render()).unwrap();
        let empty = Json::object([("runs", Json::Array(Vec::new()))]);
        for doc in [&filled, &empty] {
            let printed = tables(doc);
            for list in ["workloads", "end_to_end", "per_layer"] {
                for entry in benchmark.get(list).unwrap().as_array() {
                    let name = entry.get("name").unwrap().as_str().unwrap();
                    let whole_word =
                        printed.split(|c: char| c.is_whitespace()).any(|word| word == name);
                    assert!(whole_word, "{name} is not printed");
                }
            }
        }
        let printed = tables(&filled);
        let row = |name: &str| {
            printed.lines().find(|l| l.starts_with(name)).unwrap_or_else(|| panic!("{name}"))
        };
        assert!(row("frames_per_delivery").contains("6.000"), "{printed}");
        assert!(row("frames_per_delivery").contains(" 3 "), "sample count: {printed}");
        assert!(row("deliveries_per_s").contains("1001 n=3"), "{printed}");
        assert!(row("core.handle_join_ns").contains("41.50 n=1t"), "{printed}");
        // 1001 / 800 - 1
        assert!(printed.contains("+25.12%"), "{printed}");
    }

    #[test]
    fn short_numbers_keep_four_significant_digits() {
        assert_eq!(short(1234.5678), "1235");
        assert_eq!(short(12.345678), "12.35");
        assert_eq!(short(0.00123456), "0.001235");
        assert_eq!(short(0.0), "0");
        assert_eq!(short(-2.5), "-2.500");
        assert_eq!(short(1e9), "1000000000");
    }

    #[test]
    fn set_arguments() {
        let parse = |line: &str| {
            let args: Vec<String> = line.split_whitespace().map(String::from).collect();
            parse_set_args(&args, &[1, 2, 3])
        };
        let set = parse("--seeds 4,5 --seconds 3 --out x.json").unwrap();
        assert_eq!((set.seeds, set.seconds, set.out.as_deref()), (vec![4, 5], 3, Some("x.json")));
        assert_eq!(parse("").unwrap().seeds, [1, 2, 3]);
        assert!(parse("--seed 4").is_err(), "one spelling only");
        assert!(parse("--seeds 1,x").is_err());
        assert!(parse("--frobnicate 1").is_err());
    }
}
