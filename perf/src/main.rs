//! `fingrav-perf`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! fingrav-perf --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Runs one closed-loop workload (see `README.md` next to this crate)
//! for at least `--seconds` seconds, checks every iteration's outputs
//! byte for byte against a serial reference computed in set-up, and
//! prints a human-readable table followed, as the last line of standard
//! output, by one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` the run alternates untraced and traced iterations and the
//! metrics are the per-layer ones. The exit code is 0 only for a correct
//! run.

mod oracle;
mod probe;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use stats::{geometric_mean, median, median_of_reps};
use workloads::{Iteration, Sample, Scratch};

/// End-to-end metrics, as named in `BENCHMARK.json`: name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("iter_s_p50", "s"),
    ("entry_ms_gmean", "ms"),
    ("entries_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, as named in `BENCHMARK.json`: name and unit. A
/// workload that does not exercise a layer reports 0 for its metrics.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("engine.busy_s", "s"),
    ("engine.ns_per_event", "ns"),
    ("engine.scripts", "count"),
    ("engine.events", "count"),
    ("engine.events_per_script", "ratio"),
    ("engine.max_queue_depth", "count"),
    ("engine.power_logs", "count"),
    ("engine.launches", "count"),
    ("engine.ts_reads", "count"),
    ("engine.ops", "count"),
    ("stages.calibrate_s", "s"),
    ("stages.timing_probe_s", "s"),
    ("stages.ssp_search_s", "s"),
    ("stages.collect_runs_s", "s"),
    ("stages.calibrate.self_s", "s"),
    ("stages.timing_probe.self_s", "s"),
    ("stages.ssp_search.self_s", "s"),
    ("stages.collect_runs.self_s", "s"),
    ("executor.busy_frac", "ratio"),
    ("executor.tail_idle_s", "s"),
    ("checkpoint.write_entry_ms", "ms"),
    ("checkpoint.write_manifest_ms", "ms"),
    ("checkpoint.gather_ms", "ms"),
    ("checkpoint.resume_ms", "ms"),
    ("checkpoint.bytes", "B"),
    ("store.entry_encode_us", "us"),
    ("store.entry_decode_us", "us"),
    ("store.entry_view_us", "us"),
    ("store.prof_encode_us", "us"),
    ("store.prof_view_us", "us"),
    ("transport.first_assign_ms", "ms"),
    ("transport.entry_overhead_ms", "ms"),
    ("transport.drain_ms", "ms"),
    ("transport.denied_early", "count"),
    ("transport.evictions", "count"),
    ("transport.wire_gap_ms", "ms"),
    ("experiments.table1_s", "s"),
    ("experiments.fig3_s", "s"),
    ("experiments.fig5_s", "s"),
    ("experiments.fig6_s", "s"),
    ("experiments.fig7_s", "s"),
    ("experiments.fig8_s", "s"),
    ("experiments.fig9_s", "s"),
    ("experiments.fig10_s", "s"),
    ("experiments.table2_s", "s"),
    ("trace.overhead_frac", "ratio"),
];

/// Set-up passes per run: at least `MIN_SETUP_PASSES`, then more until
/// `SETUP_BUDGET` is spent or `MAX_SETUP_PASSES` ran. `setup_s` is
/// their median.
const MIN_SETUP_PASSES: usize = 3;
const MAX_SETUP_PASSES: usize = 25;
const SETUP_BUDGET: Duration = Duration::from_secs(1);
/// Untimed iterations between set-up and the timed phase. They are
/// checked like timed ones and count in `attempted`.
const WARMUP_ITERATIONS: usize = 1;
/// Iterations each median needs (10 samples beyond the median).
const MIN_ITERATIONS: usize = 20;
/// A run that has not gathered enough samples by then fails instead of
/// running past the caller's time limit.
const HARD_LIMIT: Duration = Duration::from_secs(150);
/// Scratch directories live here, inside the working directory.
const SCRATCH_DIR: &str = ".perf-scratch";

const USAGE: &str = "usage: fingrav-perf --workload <suite-full|service-loopback|\
paper-regen> [--seed N] [--seconds S] [--trace 0|1]";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = workloads::DEFAULT_SEED;
        let mut seconds: f64 = 10.0;
        let mut trace = false;
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(seconds >= 0.0 && seconds.is_finite()) {
                        return Err("--seconds must be a non-negative number".into());
                    }
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
                    }
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !workloads::NAMES.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload `{workload}` (expected one of {})",
                workloads::NAMES.join(", ")
            ));
        }
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        })
    }
}

/// What a finished run reports.
struct Outcome {
    attempted: usize,
    failed: usize,
    /// Metric name to value, in the units of the metric tables.
    metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the JSON result.
    notes: Vec<String>,
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("fingrav-perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            for line in &outcome.notes {
                println!("{line}");
            }
            let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
            for (name, unit) in table {
                println!("{name:<30} {:>16} {unit}", outcome.metrics[name]);
            }
            println!("{}", result_json(&outcome, table));
            if outcome.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("fingrav-perf: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let cwd = std::env::current_dir().map_err(|e| format!("working directory: {e}"))?;
    let scratch = Scratch::new(&cwd.join(SCRATCH_DIR))?;
    let mut workload = workloads::build(&args.workload, args.seed, &scratch)?;

    let mut setup = Vec::new();
    let mut reference = None;
    let setup_started = Instant::now();
    while setup.len() < MIN_SETUP_PASSES
        || (setup.len() < MAX_SETUP_PASSES && setup_started.elapsed() < SETUP_BUDGET)
    {
        let t0 = Instant::now();
        let digest = workload.setup()?;
        setup.push(t0.elapsed().as_secs_f64());
        match reference {
            None => reference = Some(digest),
            Some(r) if r != digest => {
                return Err(format!(
                    "set-up passes disagree on the reference ({r} vs {digest}): \
                     the serial run is not deterministic"
                ))
            }
            Some(_) => {}
        }
    }

    let mut warmup = Vec::with_capacity(WARMUP_ITERATIONS);
    for _ in 0..WARMUP_ITERATIONS {
        warmup.push(workload.iterate(false)?);
    }

    let started = Instant::now();
    let mut plain: Vec<Iteration> = Vec::new();
    let mut traced: Vec<Iteration> = Vec::new();
    let mut peak_rss = None;
    loop {
        let enough =
            plain.len() >= MIN_ITERATIONS && (!args.trace || traced.len() >= MIN_ITERATIONS);
        if enough && started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        if started.elapsed() > HARD_LIMIT {
            return Err(format!(
                "{} iterations after {}s are too few for the medians",
                plain.len(),
                HARD_LIMIT.as_secs()
            ));
        }
        plain.push(workload.iterate(false)?);
        if plain.len() == MIN_ITERATIONS {
            peak_rss = Some(peak_rss_mb()?);
        }
        if args.trace {
            traced.push(workload.iterate(true)?);
        }
    }
    workload.finish()?;

    let mut notes = Vec::new();
    let mut failed = 0;
    for (k, it) in warmup.iter().chain(&plain).chain(&traced).enumerate() {
        if let Some(why) = &it.failure {
            failed += 1;
            eprintln!("fingrav-perf: iteration {k} failed: {why}");
        }
    }
    let attempted = warmup.len() + plain.len() + traced.len();
    notes.push(format!(
        "workload {} seed {} reference {} ({} set-up passes)",
        args.workload,
        args.seed,
        reference.map_or("-".into(), |r| r.to_string()),
        setup.len()
    ));
    notes.push(format!(
        "{attempted} iterations, {failed} failed, {:.1}s timed",
        started.elapsed().as_secs_f64()
    ));

    let metrics = if args.trace {
        per_layer(&plain, &traced, &mut notes)?
    } else {
        let peak_rss = peak_rss.ok_or("too few iterations for peak_rss_mb")?;
        end_to_end(&plain, &setup, peak_rss, &mut notes)?
    };
    if let Some((name, value)) = metrics.iter().find(|(_, v)| !v.is_finite()) {
        return Err(format!("`{name}` is not a finite number ({value})"));
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        notes,
    })
}

fn end_to_end(
    plain: &[Iteration],
    setup: &[f64],
    peak_rss_mb: f64,
    notes: &mut Vec<String>,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let iter_s: Vec<f64> = plain.iter().map(|i| i.seconds).collect();
    let entry_ms: Vec<f64> = plain
        .iter()
        .flat_map(|i| i.entry_ms.iter().copied())
        .collect();
    let iter_p50 = median(&iter_s).map_err(|e| format!("iter_s_p50: {e}"))?;
    let per_entry = per_entry_medians(plain)?;
    let entry_gmean = geometric_mean(&per_entry).ok_or("entry_ms_gmean: no positive latencies")?;
    notes.push(format!(
        "samples: iter_s_p50 n={}, entry medians {} entries x n={}, setup_s n={}",
        iter_p50.n,
        per_entry.len(),
        plain.len(),
        setup.len()
    ));
    let timed: f64 = iter_s.iter().sum();
    let mut metrics = BTreeMap::new();
    metrics.insert(
        "setup_s",
        median_of_reps(setup).ok_or("no set-up pass ran")?,
    );
    metrics.insert("iter_s_p50", iter_p50.value);
    metrics.insert("entry_ms_gmean", entry_gmean);
    metrics.insert("entries_per_s", entry_ms.len() as f64 / timed);
    metrics.insert("peak_rss_mb", peak_rss_mb);
    Ok(metrics)
}

/// Each entry's median latency over the timed iterations, in entry
/// order. The entries of a workload are different kernels or
/// experiments whose latencies form separate clusters; a percentile
/// pooled over all of them can fall in the gap between two clusters or
/// at the edge of one and jump with a few samples, while one entry's
/// median cannot.
fn per_entry_medians(plain: &[Iteration]) -> Result<Vec<f64>, String> {
    let entries = plain.first().map_or(0, |i| i.entry_ms.len());
    if let Some(other) = plain.iter().find(|i| i.entry_ms.len() != entries) {
        return Err(format!(
            "iterations finished {entries} and {} entries",
            other.entry_ms.len()
        ));
    }
    (0..entries)
        .map(|k| {
            let latencies: Vec<f64> = plain.iter().map(|i| i.entry_ms[k]).collect();
            median(&latencies)
                .map(|m| m.value)
                .map_err(|e| format!("entry {k} median: {e}"))
        })
        .collect()
}

/// Summarises the traced iterations: host-time values by their median,
/// exact counts after checking that every iteration read the same count.
fn per_layer(
    plain: &[Iteration],
    traced: &[Iteration],
    notes: &mut Vec<String>,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut samples: BTreeMap<&'static str, Vec<Sample>> = BTreeMap::new();
    for it in traced {
        for (&name, &sample) in &it.layers {
            samples.entry(name).or_default().push(sample);
        }
    }
    let mut metrics: BTreeMap<&'static str, f64> =
        PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect();
    for (name, values) in &samples {
        if !metrics.contains_key(name) {
            return Err(format!("workload reported unknown layer metric `{name}`"));
        }
        if values.len() != traced.len() {
            return Err(format!(
                "`{name}` was sampled in {} of {} traced iterations",
                values.len(),
                traced.len()
            ));
        }
        let value = match values[0] {
            // Simulated counts must repeat exactly: any difference is a
            // determinism bug, not noise.
            Sample::Exact(first) => {
                if let Some(other) = values.iter().find(|v| **v != Sample::Exact(first)) {
                    return Err(format!(
                        "count drift: `{name}` read {first} and then {other:?} \
                         for the same code and seed"
                    ));
                }
                first as f64
            }
            Sample::Value(_) => {
                let v: Vec<f64> = values
                    .iter()
                    .map(|s| match s {
                        Sample::Value(v) => *v,
                        Sample::Exact(c) => *c as f64,
                    })
                    .collect();
                median(&v).map_err(|e| format!("{name}: {e}"))?.value
            }
        };
        metrics.insert(name, value);
    }
    if metrics["transport.evictions"] != 0.0 {
        return Err("a loopback campaign evicted a worker".into());
    }
    let plain_s: Vec<f64> = plain.iter().map(|i| i.seconds).collect();
    let traced_s: Vec<f64> = traced.iter().map(|i| i.seconds).collect();
    let untraced = median(&plain_s).map_err(|e| format!("untraced iter_s_p50: {e}"))?;
    let with_trace = median(&traced_s).map_err(|e| format!("traced iter_s_p50: {e}"))?;
    metrics.insert(
        "trace.overhead_frac",
        with_trace.value / untraced.value - 1.0,
    );
    notes.push(format!(
        "iter_s_p50 untraced {:.6} (n={}), traced {:.6} (n={})",
        untraced.value, untraced.n, with_trace.value, with_trace.n
    ));
    Ok(metrics)
}

/// Peak resident set size of this process so far (`VmHWM`), in MB. It
/// is read once set-up, the warm-up and the first [`MIN_ITERATIONS`]
/// timed iterations are done: a fixed amount of work, so a program that
/// retains memory per iteration does not read bigger merely for running
/// faster.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status for VmHWM: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The last line of output: `{"correct", "attempted", "failed", "metrics"}`.
fn result_json(outcome: &Outcome, table: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                outcome.metrics[name]
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        Args::parse(list.iter().map(|s| s.to_string()))
    }

    /// Every `"key": "value"` string pair of a JSON text, in order.
    fn string_fields<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
        let needle = format!("\"{key}\": \"");
        json.match_indices(&needle)
            .map(|(at, _)| {
                let rest = &json[at + needle.len()..];
                &rest[..rest.find('"').expect("closing quote")]
            })
            .collect()
    }

    #[test]
    fn benchmark_json_names_the_metrics_this_binary_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names = string_fields(&json, "name");
        let units = string_fields(&json, "unit");
        let (workloads, metrics) = names.split_at(names.len() - units.len());
        assert_eq!(workloads, workloads::NAMES);
        let expected: Vec<(&str, &str)> = END_TO_END.iter().chain(&PER_LAYER).copied().collect();
        let declared: Vec<(&str, &str)> = metrics.iter().copied().zip(units).collect();
        assert_eq!(declared, expected);
    }

    #[test]
    fn arguments_parse_and_default() {
        let a = args(&["--workload", "suite-full"]).unwrap();
        assert_eq!(a.seed, workloads::DEFAULT_SEED);
        assert!(!a.trace);
        let a = args(&[
            "--workload",
            "paper-regen",
            "--seed",
            "9",
            "--seconds",
            "2.5",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (9, 2.5, true));
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(args(&[]).is_err());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "suite-full", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "suite-full", "--seconds", "-1"]).is_err());
        assert!(args(&["--workload", "suite-full", "--seed"]).is_err());
        assert!(args(&["--workload", "suite-full", "--bogus", "1"]).is_err());
    }

    #[test]
    fn result_line_is_one_json_object_with_every_metric() {
        let outcome = Outcome {
            attempted: 3,
            failed: 0,
            metrics: END_TO_END.iter().map(|&(n, _)| (n, 0.5)).collect(),
            notes: Vec::new(),
        };
        let line = result_json(&outcome, &END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "));
        assert_eq!(string_fields(&line, "unit").len(), END_TO_END.len());
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
    }
}
