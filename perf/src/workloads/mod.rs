//! The three closed-loop workloads and what they share.
//!
//! Each workload runs its next iteration only after the previous one
//! finished, on at most [`workers`] worker threads or connections.

mod persist;
mod regen;
mod service;
mod suite;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use fingrav_core::backend::SimulationFactory;
use fingrav_core::campaign::Campaign;
use fingrav_core::executor::{CampaignExecutor, CampaignOutcome};
use fingrav_core::runner::RunnerConfig;
use fingrav_sim::config::SimConfig;
use fingrav_workloads::suite as kernels;

use crate::oracle::{self, Digest};
use crate::probe::{executor_occupancy, EngineAgg, EntryObserver, STAGES};

/// The workload names, as given to `--workload`.
pub const NAMES: [&str; 3] = ["suite-full", "service-loopback", "paper-regen"];

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 2025;

/// One per-layer measurement of a traced iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Sample {
    /// A simulated count that must repeat exactly for the same code and
    /// seed; any difference between iterations is reported as drift.
    Exact(u64),
    /// A host-time or host-dependent value; iterations are summarised by
    /// their median.
    Value(f64),
}

/// Per-layer samples of one traced iteration, by metric name.
pub type Layers = BTreeMap<&'static str, Sample>;

/// What one timed iteration produced.
#[derive(Debug, Default)]
pub struct Iteration {
    /// Host seconds the iteration took.
    pub seconds: f64,
    /// Per-entry latencies in milliseconds.
    pub entry_ms: Vec<f64>,
    /// Why the iteration failed (a failed entry or an output that is not
    /// byte-identical to the reference), if it did.
    pub failure: Option<String>,
    /// Per-layer samples; empty unless the iteration was traced.
    pub layers: Layers,
}

/// A benchmark workload.
pub trait Workload {
    /// One set-up pass: builds the inputs and computes the reference
    /// digest from a serial run. Called several times; every pass must
    /// produce the same digest.
    fn setup(&mut self) -> Result<Digest, String>;

    /// Runs one timed iteration, traced or not, and checks its outputs
    /// against the reference.
    fn iterate(&mut self, traced: bool) -> Result<Iteration, String>;

    /// Stops whatever the workload started.
    fn finish(&mut self) -> Result<(), String> {
        Ok(())
    }
}

/// Builds the named workload. `seed` is the base seed of the campaign
/// workloads' simulation factory; `paper-regen` keeps the paper's fixed
/// per-experiment seeds and ignores it.
pub fn build<'s>(
    name: &str,
    seed: u64,
    scratch: &'s Scratch,
) -> Result<Box<dyn Workload + 's>, String> {
    Ok(match name {
        "suite-full" => Box::new(suite::SuiteFull::new(seed)),
        "service-loopback" => Box::new(service::ServiceLoopback::new(seed, scratch)?),
        "paper-regen" => Box::new(regen::PaperRegen::new()),
        other => {
            return Err(format!(
                "unknown workload `{other}` (expected one of {})",
                NAMES.join(", ")
            ))
        }
    })
}

/// Worker threads or connections a workload may use: at most two, and
/// no more than the machine's available parallelism.
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// The paper's fourteen-kernel suite as one campaign at the paper's run
/// counts (`RunnerConfig::default()`).
fn suite_campaign() -> Campaign {
    let machine = SimConfig::default().machine;
    let mut campaign = Campaign::new(RunnerConfig::default());
    campaign.add_all(kernels::full_suite(&machine).into_iter().map(|k| k.desc));
    campaign
}

/// The simulation factory of the campaign workloads, seeded from
/// `--seed`, and the reference digest of a serial run.
struct Seeded {
    factory: SimulationFactory,
    reference: Option<Digest>,
}

impl Seeded {
    fn new(seed: u64) -> Self {
        Seeded {
            factory: SimulationFactory::new(SimConfig::default(), seed),
            reference: None,
        }
    }

    /// Computes the reference from a serial, in-place run of `campaign`.
    fn setup(&mut self, campaign: &Campaign) -> Result<Digest, String> {
        let outcome = CampaignExecutor::serial().execute(campaign, &self.factory);
        let (digest, _) = check_outcome(outcome, None)?;
        self.reference = Some(digest);
        Ok(digest)
    }
}

/// Digests a campaign outcome; an error or skipped slot fails it, and so
/// does a digest other than `reference` (when given). Returns the digest
/// and the outcome's reports.
fn check_outcome(
    mut outcome: CampaignOutcome,
    reference: Option<Digest>,
) -> Result<(Digest, CampaignOutcome), String> {
    if let Some((index, error)) = outcome.errors.first() {
        return Err(format!("campaign slot {index} failed: {error}"));
    }
    let digest = oracle::digest_reports(&mut outcome.reports)?;
    match reference {
        Some(reference) if reference != digest => Err(format!(
            "reports are not byte-identical to the serial reference \
             (digest {digest}, reference {reference})"
        )),
        _ => Ok((digest, outcome)),
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Per-entry latencies, in milliseconds, in campaign order.
fn entry_latencies(observer: &EntryObserver) -> Vec<f64> {
    observer.spans().values().map(|s| ms(s.latency())).collect()
}

/// The `engine.*`, `stages.*` and `executor.*` samples of one traced
/// campaign run by `workers` workers between `begin` and `end`.
fn campaign_layers(
    layers: &mut Layers,
    engine: EngineAgg,
    observer: &EntryObserver,
    workers: usize,
    begin: Instant,
    end: Instant,
) {
    let device = observer.device();
    let busy_s = engine.busy_ns as f64 / 1e9;
    layers.insert("engine.busy_s", Sample::Value(busy_s));
    layers.insert(
        "engine.ns_per_event",
        Sample::Value(engine.busy_ns as f64 / engine.events.max(1) as f64),
    );
    layers.insert("engine.scripts", Sample::Exact(engine.scripts));
    layers.insert("engine.events", Sample::Exact(engine.events));
    layers.insert(
        "engine.events_per_script",
        Sample::Value(engine.events as f64 / engine.scripts.max(1) as f64),
    );
    layers.insert(
        "engine.max_queue_depth",
        Sample::Exact(engine.max_queue_depth as u64),
    );
    layers.insert("engine.power_logs", Sample::Exact(device.power_logs));
    layers.insert("engine.launches", Sample::Exact(device.launches));
    layers.insert("engine.ts_reads", Sample::Exact(device.ts_reads));
    layers.insert("engine.ops", Sample::Exact(device.ops));

    let stages = observer.stages();
    for (k, _) in STAGES.iter().enumerate() {
        let wall = stages.wall[k].as_secs_f64();
        let engine = stages.engine[k].as_secs_f64();
        layers.insert(STAGE_METRICS[k].0, Sample::Value(wall));
        layers.insert(STAGE_METRICS[k].1, Sample::Value(wall - engine));
    }

    let (busy_frac, tail_idle) = executor_occupancy(&observer.spans(), workers, begin, end);
    layers.insert("executor.busy_frac", Sample::Value(busy_frac));
    layers.insert(
        "executor.tail_idle_s",
        Sample::Value(tail_idle.as_secs_f64()),
    );
}

/// Stage wall and self-time metric names, in [`STAGES`] order.
const STAGE_METRICS: [(&str, &str); 4] = [
    ("stages.calibrate_s", "stages.calibrate.self_s"),
    ("stages.timing_probe_s", "stages.timing_probe.self_s"),
    ("stages.ssp_search_s", "stages.ssp_search.self_s"),
    ("stages.collect_runs_s", "stages.collect_runs.self_s"),
];

/// Median of a handful of per-entry values within one iteration.
fn median_within(values: &[f64]) -> f64 {
    crate::stats::median_of_reps(values).unwrap_or(0.0)
}

/// Fresh per-iteration directories under one per-process root inside the
/// working directory, all removed when the `Scratch` is dropped (normal
/// exit, error return, or unwinding panic).
#[derive(Debug)]
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    /// Creates `<base>/<pid>`.
    pub fn new(base: &Path) -> Result<Scratch, String> {
        let root = base.join(std::process::id().to_string());
        if root.exists() {
            std::fs::remove_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
        }
        std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
        Ok(Scratch { root })
    }

    /// A path for a fresh directory named `name` (not created; any
    /// leftover of the same name is removed).
    pub fn fresh(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.root.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        Ok(dir)
    }

    /// Removes a directory made by [`Scratch::fresh`] and syncs the
    /// removal, so its journal commit is not paid by the next timed
    /// iteration's first fsync.
    pub fn remove(&self, dir: &Path) -> Result<(), String> {
        std::fs::remove_dir_all(dir)
            .and_then(|()| std::fs::File::open(&self.root)?.sync_all())
            .map_err(|e| format!("{}: {e}", dir.display()))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Best effort: the process is ending either way.
        let _ = std::fs::remove_dir_all(&self.root);
        if let Some(base) = self.root.parent() {
            // Succeeds only when no other run is using the base.
            let _ = std::fs::remove_dir(base);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_trees_are_removed_on_drop() {
        let base = std::env::temp_dir().join(format!("fingrav-perf-test-{}", std::process::id()));
        let dir = {
            let scratch = Scratch::new(&base).unwrap();
            let dir = scratch.fresh("ckpt-1").unwrap();
            std::fs::create_dir_all(dir.join("shard-00")).unwrap();
            std::fs::write(dir.join("shard-00/entry"), b"x").unwrap();
            assert_eq!(scratch.fresh("ckpt-1").unwrap(), dir);
            assert!(!dir.exists(), "fresh removes a leftover");
            std::fs::create_dir_all(&dir).unwrap();
            dir
        };
        assert!(!dir.exists());
        assert!(!base.exists());
    }
}
