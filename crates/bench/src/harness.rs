//! Experiment-harness plumbing: scales, seeds, simulation construction,
//! and campaign execution over the parallel executor (with live progress
//! on stderr).

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Instant;

use fingrav_core::backend::{FnBackendFactory, SimulationFactory};
use fingrav_core::campaign::Campaign;
use fingrav_core::checkpoint::campaign_digest;
use fingrav_core::executor::{CampaignExecutor, CampaignObserver, CampaignTally};
use fingrav_core::runner::{KernelPowerReport, RunnerConfig};
use fingrav_sim::config::SimConfig;
use fingrav_sim::engine::Simulation;
use fingrav_sim::kernel::KernelDesc;

/// How much compute to spend on an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-guided run counts (Table I: 200–400 runs per kernel).
    Full,
    /// Reduced run counts for quick regeneration and CI.
    Quick,
    /// Minimal run counts for Criterion micro-benchmarks.
    Bench,
}

/// Everything the shared experiment argv grammar understands:
/// `--quick|--full|--bench`, `--out DIR`, `--workers N`,
/// `--checkpoint-dir DIR`, `--resume`, `--serve ADDR`, `--connect ADDR`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedArgs {
    /// The compute scale (last scale flag wins).
    pub scale: Scale,
    /// Explicit worker count (`--workers N`), if given: it sizes both the
    /// campaigns and each experiment's independent simulations.
    pub workers: Option<usize>,
    /// Root directory campaigns checkpoint into (`--checkpoint-dir DIR`),
    /// if given.
    pub checkpoint_dir: Option<PathBuf>,
    /// Whether to resume existing checkpoints instead of re-running
    /// (`--resume`; only meaningful with `--checkpoint-dir`).
    pub resume: bool,
    /// Coordinator address campaigns are served on (`--serve ADDR`):
    /// every harness campaign is measured by remote workers instead of
    /// local threads.
    pub serve: Option<String>,
    /// Coordinator address this process works for (`--connect ADDR`):
    /// every harness campaign runs as a transport worker of the sibling
    /// `--serve` process, then downloads the finished reports so the
    /// rendered artefacts are byte-identical on both nodes.
    pub connect: Option<String>,
    /// Flags the grammar did not recognize.
    pub unknown: Vec<String>,
}

impl ParsedArgs {
    /// Parses the shared experiment argv grammar without side effects.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> ParsedArgs {
        let mut parsed = ParsedArgs {
            scale: Scale::Full,
            workers: None,
            checkpoint_dir: None,
            resume: false,
            serve: None,
            connect: None,
            unknown: Vec::new(),
        };
        let mut args = args.into_iter().peekable();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--quick" => parsed.scale = Scale::Quick,
                "--full" => parsed.scale = Scale::Full,
                "--bench" => parsed.scale = Scale::Bench,
                "--resume" => parsed.resume = true,
                "--out" => {
                    let _dir = args.next();
                }
                // Peek before consuming the value: `--workers --bench`
                // must not swallow the sibling flag.
                "--workers" => match args
                    .peek()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&n| n > 0)
                {
                    Some(n) => {
                        parsed.workers = Some(n);
                        args.next();
                    }
                    None => parsed.unknown.push("--workers".into()),
                },
                // A directory value may legitimately start with a dash, so
                // (like `--out`) the value is consumed unconditionally —
                // but a missing value is surfaced.
                "--checkpoint-dir" => match args.next() {
                    Some(dir) => parsed.checkpoint_dir = Some(PathBuf::from(dir)),
                    None => parsed.unknown.push("--checkpoint-dir".into()),
                },
                "--serve" => match args.next() {
                    Some(addr) => parsed.serve = Some(addr),
                    None => parsed.unknown.push("--serve".into()),
                },
                "--connect" => match args.next() {
                    Some(addr) => parsed.connect = Some(addr),
                    None => parsed.unknown.push("--connect".into()),
                },
                flag if flag.starts_with('-') => parsed.unknown.push(a),
                // Bare positionals (e.g. a cargo-bench filter) pass through
                // silently, matching the previous behaviour.
                _ => {}
            }
        }
        parsed
    }
}

/// Campaign worker-count override set by `--workers N` (0 = automatic).
static WORKER_OVERRIDE: AtomicUsize = AtomicUsize::new(0);
/// Checkpoint root set by `--checkpoint-dir DIR` (None = not durable).
static CHECKPOINT_OVERRIDE: Mutex<Option<PathBuf>> = Mutex::new(None);
/// `--resume` flag: load existing checkpoints instead of re-measuring.
static RESUME_OVERRIDE: AtomicBool = AtomicBool::new(false);
/// Coordinator address set by `--serve ADDR` (None = local execution).
static SERVE_OVERRIDE: Mutex<Option<String>> = Mutex::new(None);
/// Coordinator address set by `--connect ADDR` (None = local execution).
static CONNECT_OVERRIDE: Mutex<Option<String>> = Mutex::new(None);
/// Per-process campaign ordinal: every `named_campaign_report` call gets
/// the next position, and because the `--serve` and `--connect` processes
/// run the same binary with the same flags, both sides count campaigns
/// identically — which is what lets the transport handshake distinguish
/// "coordinator still draining the previous campaign" from "coordinator
/// already restored this campaign from a checkpoint".
static CAMPAIGN_SEQUENCE: AtomicUsize = AtomicUsize::new(0);
/// The one persistent campaign service a `--serve` process hosts every
/// campaign on, started at the first serve. One listener for the whole
/// process (rebinding the fixed address per campaign could
/// intermittently fail with `EADDRINUSE` while the previous campaign's
/// closed connections sit in TIME_WAIT), one service thread draining
/// submissions in campaign-ordinal order.
static SERVE_SERVICE: Mutex<Option<fingrav_core::transport::CampaignService>> = Mutex::new(None);
/// Whether this `--connect` process has completed at least one campaign
/// over the wire. Once it has, a refused connection means the serving
/// process exited (its listener lives for the process lifetime), so
/// later campaigns fall back to local measurement after a short grace
/// instead of burning the full first-contact window.
static WIRE_CONTACTED: AtomicBool = AtomicBool::new(false);

/// Overrides the worker count every harness campaign shards across and
/// [`par_map`] spreads an experiment's simulations over (`None` restores
/// the automatic available-parallelism sizing). Set by
/// [`Scale::from_args`] when the binary received `--workers N`.
pub fn set_workers(workers: Option<usize>) {
    WORKER_OVERRIDE.store(workers.unwrap_or(0), Ordering::Relaxed);
}

/// The `--workers` override currently in effect, if any.
pub fn worker_override() -> Option<usize> {
    match WORKER_OVERRIDE.load(Ordering::Relaxed) {
        0 => None,
        n => Some(n),
    }
}

/// Makes every harness campaign durable: each campaign checkpoints into a
/// digest-keyed subdirectory of `root` (`None` turns checkpointing back
/// off), and `resume` selects whether existing complete checkpoints are
/// loaded instead of re-measured. Set by [`Scale::from_args`] when the
/// binary received `--checkpoint-dir DIR` / `--resume`.
pub fn set_checkpointing(root: Option<PathBuf>, resume: bool) {
    *CHECKPOINT_OVERRIDE.lock().expect("checkpoint override") = root;
    RESUME_OVERRIDE.store(resume, Ordering::Relaxed);
}

/// The `--checkpoint-dir` root currently in effect, if any.
pub fn checkpoint_override() -> Option<PathBuf> {
    CHECKPOINT_OVERRIDE
        .lock()
        .expect("checkpoint override")
        .clone()
}

/// Whether `--resume` is in effect.
pub fn resume_override() -> bool {
    RESUME_OVERRIDE.load(Ordering::Relaxed)
}

/// Switches every harness campaign onto the cross-node transport
/// (`None`/`None` restores local execution): with `serve` set, campaigns
/// are coordinated on that address and measured by remote workers; with
/// `connect` set, this process works for (and then downloads results
/// from) the coordinator there. Set by [`Scale::from_args`] when the
/// binary received `--serve ADDR` / `--connect ADDR`.
pub fn set_transport(serve: Option<String>, connect: Option<String>) {
    *SERVE_OVERRIDE.lock().expect("serve override") = serve;
    *CONNECT_OVERRIDE.lock().expect("connect override") = connect;
}

/// The `--serve` address currently in effect, if any.
pub fn serve_override() -> Option<String> {
    SERVE_OVERRIDE.lock().expect("serve override").clone()
}

/// The `--connect` address currently in effect, if any.
pub fn connect_override() -> Option<String> {
    CONNECT_OVERRIDE.lock().expect("connect override").clone()
}

impl Scale {
    /// Parses the shared experiment argv (`--quick`/`--full`/`--bench`,
    /// `--out DIR`, `--workers N`); defaults to `Full`. A `--workers N`
    /// flag is applied process-wide via [`set_workers`], so every campaign
    /// the binary runs, and every [`par_map`] over an experiment's
    /// simulations, uses exactly `N` workers (results are bit-identical
    /// for any worker count; only wall-clock changes).
    /// Unrecognized flags are surfaced on stderr.
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Scale {
        let parsed = ParsedArgs::parse(args);
        for flag in &parsed.unknown {
            eprintln!(
                "warning: unrecognized flag `{flag}` \
                 (expected --quick, --full, --bench, --workers N, --out DIR, \
                  --checkpoint-dir DIR, --resume, --serve ADDR, or --connect ADDR)"
            );
        }
        if parsed.serve.is_some() && parsed.connect.is_some() {
            eprintln!("warning: --serve and --connect are mutually exclusive; ignoring both");
            set_transport(None, None);
        } else {
            set_transport(parsed.serve.clone(), parsed.connect.clone());
        }
        set_workers(parsed.workers);
        set_checkpointing(parsed.checkpoint_dir.clone(), parsed.resume);
        parsed.scale
    }

    /// Like [`Scale::from_args`], returning the unrecognized flags instead
    /// of printing them and without applying the worker override. The last
    /// scale flag wins when several are given.
    pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> (Scale, Vec<String>) {
        let parsed = ParsedArgs::parse(args);
        (parsed.scale, parsed.unknown)
    }

    /// Run count to use when the paper would use `full` runs.
    pub fn runs(&self, full: u32) -> Option<u32> {
        match self {
            Scale::Full => {
                if full == 0 {
                    None // defer to the guidance table
                } else {
                    Some(full)
                }
            }
            Scale::Quick => Some((full.max(40) / 4).max(30)),
            Scale::Bench => Some(8),
        }
    }
}

/// Deterministic seed per experiment name.
pub fn seed_for(name: &str) -> u64 {
    // FNV-1a, stable across platforms.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Builds a fresh default-config simulation for an experiment.
pub fn simulation(name: &str) -> Simulation {
    Simulation::new(SimConfig::default(), seed_for(name)).expect("default configuration is valid")
}

/// Runner configuration for a scale (`None` runs = paper guidance counts).
pub fn runner_config(runs: Option<u32>) -> RunnerConfig {
    RunnerConfig {
        runs_override: runs,
        ..RunnerConfig::default()
    }
}

/// The worker count experiment campaigns shard across and [`par_map`]
/// runs jobs on: the `--workers N` override when one was parsed,
/// otherwise the machine's available parallelism (as sized by the
/// executor itself).
pub fn default_workers() -> usize {
    worker_override().unwrap_or_else(|| CampaignExecutor::with_available_parallelism().workers())
}

/// Live campaign progress on stderr: one line per finished (or failed)
/// entry, with the slot's emitted-log and completed-launch counts drawn
/// from a [`CampaignTally`]. Streaming means the line appears the moment
/// the entry finishes — long campaigns are observable while they run, and
/// because only stderr is written, regenerated artefacts stay
/// byte-identical.
pub struct CampaignProgress {
    tally: CampaignTally,
    total: usize,
    started: Instant,
}

impl CampaignProgress {
    /// Creates a progress observer for a campaign of `total` entries.
    pub fn new(total: usize) -> Self {
        CampaignProgress {
            tally: CampaignTally::new(total),
            total,
            started: Instant::now(),
        }
    }

    /// The underlying live counters.
    pub fn tally(&self) -> &CampaignTally {
        &self.tally
    }
}

impl CampaignObserver for CampaignProgress {
    fn entry_event(&self, index: usize, event: &fingrav_core::observe::ProfilingEvent) {
        self.tally.entry_event(index, event);
    }

    fn entry_engine_stats(&self, index: usize, stats: fingrav_sim::engine::EngineStats) {
        self.tally.entry_engine_stats(index, stats);
    }

    fn entry_finished(&self, index: usize, report: &KernelPowerReport) {
        self.tally.entry_finished(index, report);
        // Engine stats arrive just before `entry_finished`, so the tally
        // already includes this entry's counters; the rate is campaign
        // events over campaign wall-clock (all workers combined).
        let elapsed = self.started.elapsed().as_secs_f64();
        let events = self.tally.engine_events();
        eprintln!(
            "  [{}/{}] {} done in {elapsed:.1}s: {} logs, {} launches, {} SSP LOIs, \
             {:.1}M engine events ({:.1}M/s)",
            self.tally.finished(),
            self.total,
            report.label,
            self.tally.logs(index),
            self.tally.launches(index),
            report.ssp_loi_count(),
            events as f64 / 1e6,
            events as f64 / 1e6 / elapsed.max(1e-9),
        );
    }

    fn entry_failed(&self, index: usize, error: &fingrav_core::error::MethodologyError) {
        eprintln!("  [slot {index}] FAILED: {error}");
    }
}

/// The deterministic default-config backend factory for an experiment:
/// campaign slot `i` draws seed `mix_seed(seed_for(name), i)`.
pub fn campaign_factory(name: &str) -> SimulationFactory {
    SimulationFactory::new(SimConfig::default(), seed_for(name))
}

/// The checkpoint subdirectory a harness campaign lives under: a readable
/// head (the first seed name) plus a hash of the campaign digest *and* the
/// seed names, so distinct campaigns (or the same kernels under different
/// seeding) never share a checkpoint.
fn checkpoint_key(names: &[String], campaign: &Campaign) -> String {
    let head: String = names
        .first()
        .map(String::as_str)
        .unwrap_or("campaign")
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '-'
            }
        })
        .collect();
    let tag = campaign_digest(campaign) ^ seed_for(&names.join("\n"));
    format!("{head}-{tag:016x}")
}

/// Runs a campaign where slot `i` is seeded `seed_for(&names[i])` directly
/// (the historical one-simulation-per-experiment-name convention), sharded
/// across [`default_workers`]. Regenerated artefacts are bit-identical to
/// the old serial loops; only wall-clock changes.
///
/// When a `--checkpoint-dir` is in effect the campaign is durable: it
/// checkpoints into a digest-keyed subdirectory as it runs, and with
/// `--resume` an existing checkpoint is completed (or, if already
/// complete, simply loaded) instead of re-measured — artefacts stay
/// byte-identical either way.
///
/// When `--serve ADDR` / `--connect ADDR` is in effect the campaign is
/// *distributed* instead: the serving process coordinates it over the
/// [`fingrav_core::transport`] protocol while connecting processes
/// measure the entries and then download the finished reports — both
/// sides render byte-identical artefacts because every entry derives
/// solely from its campaign index and seed name.
pub fn named_campaign_report(campaign: &Campaign, names: Vec<String>) -> Vec<KernelPowerReport> {
    assert_eq!(names.len(), campaign.len(), "one seed name per entry");
    let key = checkpoint_key(&names, campaign);
    let factory = FnBackendFactory(move |i: usize| {
        Simulation::new(SimConfig::default(), seed_for(&names[i]))
            .map_err(|e| fingrav_core::error::MethodologyError::Backend(e.to_string()))
    });
    let progress = std::sync::Arc::new(CampaignProgress::new(campaign.len()));
    let cancel = fingrav_core::executor::CancellationToken::new();
    let sequence = CAMPAIGN_SEQUENCE.fetch_add(1, Ordering::SeqCst) as u64;

    if let Some(addr) = connect_override() {
        // Worker mode: measure whatever the coordinator assigns, then
        // fetch the complete report set so rendering proceeds unchanged.
        let local_fallback = |why: &str| {
            eprintln!("  campaign #{sequence}: {why}; measuring locally");
            CampaignExecutor::new(default_workers())
                .execute_observed(campaign, &factory, &*progress, &cancel)
                .into_report()
                .expect("experiment kernels profile cleanly")
                .reports
        };
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
        // Transport faults get their own retry budget, counted per fault
        // streak rather than from campaign start: a long-running campaign
        // must not lose its right to reconnect just because the fault
        // arrived late.
        let mut fault_retries = 0u32;
        loop {
            // First contact gets a generous window (the serving process
            // may not have started); once the wire has worked, a refusal
            // means the serving process exited, so give up quickly.
            let patience = if WIRE_CONTACTED.load(Ordering::Relaxed) {
                std::time::Duration::from_secs(5)
            } else {
                std::time::Duration::from_secs(120)
            };
            let stream = match fingrav_core::transport::connect_with_retry(addr.as_str(), patience)
            {
                Ok(stream) => stream,
                // The serving process can legitimately be gone already:
                // its final campaigns may all have restored from
                // checkpoints. Local measurement is byte-identical.
                Err(e) => return local_fallback(&format!("coordinator unreachable ({e})")),
            };
            match fingrav_core::transport::work(
                stream,
                campaign,
                &factory,
                &*progress,
                &cancel,
                &fingrav_core::transport::WorkerOptions {
                    max_entries: None,
                    fetch_reports: true,
                    sequence,
                    ..Default::default()
                },
            ) {
                Ok(summary) => {
                    WIRE_CONTACTED.store(true, Ordering::Relaxed);
                    if summary.aborted {
                        panic!(
                            "campaign #{sequence}: the coordinator cancelled the campaign \
                             (see the --serve process's log)"
                        );
                    }
                    match summary.reports {
                        Some(reports) => return reports,
                        // complete=false: a kernel genuinely failed on
                        // some worker or persistence broke — mirror the
                        // local path's loud failure rather than hiding
                        // the cause behind an invariant message.
                        None => panic!(
                            "campaign #{sequence} failed on the coordinator \
                             (campaign_complete = {}; see the --serve process's log)",
                            summary.campaign_complete
                        ),
                    }
                }
                // The coordinator restored this campaign from a complete
                // checkpoint and moved on; measuring locally yields
                // byte-identical reports (every slot derives solely from
                // its index and seed name) and keeps the two processes'
                // campaign sequences aligned.
                Err(fingrav_core::transport::TransportError::Denied { code, detail })
                    if code == fingrav_core::transport::DENY_SEQUENCE_PASSED =>
                {
                    return local_fallback(&detail);
                }
                // The previous campaign's listener is still draining on
                // this address; reconnect until ours comes up.
                Err(fingrav_core::transport::TransportError::Denied { code, detail })
                    if code == fingrav_core::transport::DENY_SEQUENCE_EARLY =>
                {
                    if std::time::Instant::now() >= deadline {
                        panic!("coordinator never reached campaign #{sequence}: {detail}");
                    }
                    std::thread::sleep(std::time::Duration::from_millis(50));
                }
                // A same-sequence digest mismatch means the two processes
                // run different campaign definitions (skewed binaries or
                // flags) — rendering silently diverging artifact trees
                // would be worse than failing loudly.
                Err(e @ fingrav_core::transport::TransportError::DigestMismatch { .. }) => {
                    panic!("serve/connect campaign definitions disagree: {e}")
                }
                Err(fingrav_core::transport::TransportError::Denied { code, detail })
                    if code == fingrav_core::transport::DENY_DIGEST_MISMATCH =>
                {
                    panic!("serve/connect campaign definitions disagree: {detail}")
                }
                // Anything else — a dropped connection, an unexpected
                // frame — first tries to reconnect and resume (the
                // coordinator re-plans the dropped entries, so a fresh
                // connection picks the campaign back up); a persistent
                // fault streak falls back to local measurement, which
                // yields the same bytes and always makes progress.
                Err(e) => {
                    fault_retries += 1;
                    if fault_retries > 20 {
                        return local_fallback(&format!("transport fault ({e})"));
                    }
                    eprintln!("  campaign #{sequence}: transport fault ({e}); reconnecting");
                    std::thread::sleep(std::time::Duration::from_millis(250));
                }
            }
        }
    }
    if let Some(addr) = serve_override() {
        // Coordinator mode: remote workers measure; persistence lands in
        // the usual digest-keyed checkpoint layout so `--resume` (or a
        // plain executor resume) completes an interrupted serve. Without
        // an explicit `--checkpoint-dir` the checkpoints go to a
        // pid-keyed temp root: scoping to this invocation keeps the
        // within-run duplicate-campaign short-circuit while making sure
        // a later run (possibly of a different build) never restores
        // this run's artifacts. The root is left behind for post-mortems
        // (it is what `--resume` would complete) and is small at bench
        // scale; full-scale serves should pass `--checkpoint-dir`.
        let root = checkpoint_override().unwrap_or_else(|| {
            std::env::temp_dir().join(format!("fingrav-serve-{}", std::process::id()))
        });
        let dir = root.join(&key);
        // Mirror the local path's `--resume` semantics: without the flag
        // an existing checkpoint at this key is discarded and the
        // campaign is measured afresh by the workers, instead of
        // Coordinator::serve silently restoring a previous (possibly
        // different-build) run's artifacts.
        if !resume_override() && dir.exists() {
            std::fs::remove_dir_all(&dir).expect("stale serve checkpoint removes");
        }
        // One persistent campaign service hosts every campaign of this
        // process (started at the first serve); each campaign is one
        // submission. The bind itself retries: a previous process on
        // this address (an earlier child of `all --serve`) leaves
        // TIME_WAIT connections that can hold the port for up to a
        // minute.
        let ticket = {
            let mut slot = SERVE_SERVICE.lock().expect("serve service");
            let service = slot.get_or_insert_with(|| {
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
                let listener = loop {
                    match std::net::TcpListener::bind(addr.as_str()) {
                        Ok(listener) => break listener,
                        Err(e) if std::time::Instant::now() < deadline => {
                            eprintln!("  waiting to bind {addr}: {e}");
                            std::thread::sleep(std::time::Duration::from_millis(250));
                        }
                        Err(e) => panic!("coordinator address {addr} never bound: {e}"),
                    }
                };
                fingrav_core::transport::CampaignService::from_listener(
                    listener,
                    fingrav_core::transport::ServiceConfig::default(),
                )
            });
            service.submit_with(
                campaign.clone(),
                dir.clone(),
                Default::default(),
                Some(progress.clone()),
            )
        };
        // Both processes count campaigns identically and this process
        // submits each exactly once, so the service-assigned wire
        // sequence must track the campaign ordinal.
        assert_eq!(
            ticket.sequence(),
            sequence,
            "service submission order diverged from the campaign ordinal"
        );
        // Wait with a no-progress watchdog: the ticket resolves only
        // once workers finish the campaign, so a connect process that
        // died (or gave up and measured locally) would otherwise hang
        // this process forever. Five minutes with zero finished entries
        // is a wedged run, not a slow one — cancel and fail loudly.
        // Progress is any live signal — finished entries OR the
        // per-slot log/launch counters the workers stream — so a
        // single legitimately slow entry on a healthy worker never
        // trips the watchdog.
        let observed = || {
            let tally = progress.tally();
            (0..campaign.len())
                .map(|i| tally.logs(i) + tally.launches(i))
                .sum::<u64>()
                + tally.finished() as u64
        };
        let mut last = observed();
        let mut stalled_for = std::time::Duration::ZERO;
        let tick = std::time::Duration::from_millis(500);
        let watchdog_fired = loop {
            if ticket.phase() == fingrav_core::transport::CampaignPhase::Done {
                break false;
            }
            std::thread::sleep(tick);
            let now = observed();
            if now != last {
                last = now;
                stalled_for = std::time::Duration::ZERO;
            } else {
                stalled_for += tick;
                if stalled_for >= std::time::Duration::from_secs(300) {
                    eprintln!(
                        "  campaign #{sequence}: no worker progress for \
                         {}s; cancelling the serve",
                        stalled_for.as_secs()
                    );
                    ticket.cancel();
                    break true;
                }
            }
        };
        let outcome = ticket.wait().expect("served campaign persists cleanly");
        if watchdog_fired {
            panic!(
                "campaign #{sequence}: no worker made progress within the watchdog \
                 window — is the --connect process running and pointed at this address?"
            );
        }
        return outcome
            .into_report()
            .expect("experiment kernels profile cleanly")
            .reports;
    }

    let executor = CampaignExecutor::new(default_workers());
    let outcome = match checkpoint_override() {
        Some(root) => {
            let dir = root.join(key);
            let manifest = dir.join(fingrav_core::checkpoint::MANIFEST_FILE);
            if resume_override() && manifest.is_file() {
                executor.resume_observed(campaign, &factory, &dir, &*progress, &cancel)
            } else {
                executor.execute_sharded_observed(campaign, &factory, &dir, &*progress, &cancel)
            }
            .expect("campaign checkpoint is writable and consistent")
        }
        None => executor.execute_observed(campaign, &factory, &*progress, &cancel),
    };
    outcome
        .into_report()
        .expect("experiment kernels profile cleanly")
        .reports
}

/// Profiles one kernel on a fresh simulation via a single-slot campaign on
/// the executor (seeded exactly as the historical serial helper: the slot
/// uses `seed_for(exp)` directly, so figure data is unchanged).
pub fn profile_kernel(exp: &str, desc: &KernelDesc, runs: Option<u32>) -> KernelPowerReport {
    let mut campaign = Campaign::new(runner_config(runs));
    campaign.add(desc.clone());
    let factory = FnBackendFactory(move |_| {
        Simulation::new(SimConfig::default(), seed_for(exp))
            .map_err(|e| fingrav_core::error::MethodologyError::Backend(e.to_string()))
    });
    let mut report = CampaignExecutor::serial()
        .run(&campaign, &factory)
        .expect("profiling a suite kernel succeeds");
    report.reports.pop().expect("one kernel, one report")
}

/// Runs `job` over every item across [`default_workers`] threads and
/// returns the results in item order. Meant for an experiment's
/// independent simulations: each job builds its own seeded simulation, so
/// the results do not depend on the worker count or on which thread ran
/// which job.
///
/// At one worker the jobs run in order on the calling thread. Otherwise
/// the calling thread claims jobs alongside `workers - 1` spawned
/// threads. A panicking job panics the caller once every thread has
/// stopped.
pub fn par_map<T: Sync, R: Send>(items: &[T], job: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let workers = default_workers().min(items.len());
    if workers <= 1 {
        return items.iter().map(job).collect();
    }
    let next = Mutex::new(0usize);
    let (tx, rx) = mpsc::channel();
    let work = |tx: mpsc::Sender<(usize, R)>| loop {
        let i = {
            let mut next = next.lock().expect("job claim index");
            *next += 1;
            *next - 1
        };
        let Some(item) = items.get(i) else { break };
        // The receiver outlives the scope, so a send cannot fail.
        tx.send((i, job(item))).expect("result channel open");
    };
    std::thread::scope(|s| {
        for _ in 1..workers {
            let tx = tx.clone();
            s.spawn(move || work(tx));
        }
        work(tx);
    });
    let mut results: Vec<(usize, R)> = rx.into_iter().collect();
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use fingrav_core::runner::FingravRunner;
    use std::time::Duration;

    /// Serializes tests that touch the process-wide worker override.
    pub(crate) static WORKERS_GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn scale_parsing() {
        let _guard = WORKERS_GUARD.lock().unwrap();
        assert_eq!(Scale::from_args(vec![]), Scale::Full);
        assert_eq!(Scale::from_args(vec!["--quick".into()]), Scale::Quick);
        assert_eq!(Scale::from_args(vec!["--bench".into()]), Scale::Bench);
        assert_eq!(Scale::from_args(vec!["--full".into()]), Scale::Full);
        assert_eq!(
            Scale::from_args(vec!["--out".into(), "x".into()]),
            Scale::Full
        );
    }

    #[test]
    fn workers_flag_parses_without_side_effects() {
        let parsed = ParsedArgs::parse(vec!["--workers".into(), "3".into(), "--bench".into()]);
        assert_eq!(parsed.workers, Some(3));
        assert_eq!(parsed.scale, Scale::Bench);
        assert!(parsed.unknown.is_empty());
        // A missing or non-positive value is surfaced, not silently eaten.
        let parsed = ParsedArgs::parse(vec!["--workers".into(), "zero".into()]);
        assert_eq!(parsed.workers, None);
        assert_eq!(parsed.unknown, vec!["--workers".to_string()]);
        let parsed = ParsedArgs::parse(vec!["--workers".into(), "0".into()]);
        assert_eq!(parsed.workers, None);
        assert!(!parsed.unknown.is_empty());
        // A malformed value never swallows a sibling flag.
        let parsed = ParsedArgs::parse(vec!["--workers".into(), "--bench".into()]);
        assert_eq!(parsed.workers, None);
        assert_eq!(parsed.scale, Scale::Bench);
        assert_eq!(parsed.unknown, vec!["--workers".to_string()]);
    }

    #[test]
    fn transport_flags_parse_without_side_effects() {
        let parsed = ParsedArgs::parse(vec![
            "--serve".into(),
            "0.0.0.0:7000".into(),
            "--bench".into(),
        ]);
        assert_eq!(parsed.serve.as_deref(), Some("0.0.0.0:7000"));
        assert_eq!(parsed.connect, None);
        assert_eq!(parsed.scale, Scale::Bench);
        assert!(parsed.unknown.is_empty());

        let parsed = ParsedArgs::parse(vec!["--connect".into(), "10.0.0.2:7000".into()]);
        assert_eq!(parsed.connect.as_deref(), Some("10.0.0.2:7000"));
        assert_eq!(parsed.serve, None);

        // A missing address is surfaced, not silently eaten.
        let parsed = ParsedArgs::parse(vec!["--serve".into()]);
        assert_eq!(parsed.serve, None);
        assert_eq!(parsed.unknown, vec!["--serve".to_string()]);
        let parsed = ParsedArgs::parse(vec!["--connect".into()]);
        assert_eq!(parsed.connect, None);
        assert_eq!(parsed.unknown, vec!["--connect".to_string()]);
    }

    #[test]
    fn workers_flag_overrides_campaign_sharding() {
        let _guard = WORKERS_GUARD.lock().unwrap();
        assert_eq!(
            Scale::from_args(vec!["--workers".into(), "2".into()]),
            Scale::Full
        );
        assert_eq!(worker_override(), Some(2));
        assert_eq!(default_workers(), 2);
        set_workers(None);
        assert_eq!(worker_override(), None);
        assert!(default_workers() >= 1);
    }

    #[test]
    fn explicit_full_overrides_an_earlier_scale_flag() {
        assert_eq!(
            Scale::parse_args(vec!["--quick".into(), "--full".into()]).0,
            Scale::Full
        );
    }

    #[test]
    fn unknown_flags_are_surfaced_not_swallowed() {
        let (scale, unknown) = Scale::parse_args(vec![
            "--quick".into(),
            "--frobnicate".into(),
            "--out".into(),
            "results".into(),
            "-x".into(),
        ]);
        assert_eq!(scale, Scale::Quick);
        assert_eq!(unknown, vec!["--frobnicate".to_string(), "-x".to_string()]);
    }

    #[test]
    fn out_value_is_not_mistaken_for_a_flag() {
        // `--out --weird-dir-name` must consume the value, not report it.
        let (_, unknown) = Scale::parse_args(vec!["--out".into(), "--weird".into()]);
        assert!(unknown.is_empty());
    }

    #[test]
    fn scale_run_counts() {
        assert_eq!(Scale::Full.runs(200), Some(200));
        assert_eq!(Scale::Full.runs(0), None);
        assert_eq!(Scale::Quick.runs(400), Some(100));
        assert_eq!(Scale::Quick.runs(40), Some(30));
        assert_eq!(Scale::Bench.runs(400), Some(8));
    }

    #[test]
    fn seeds_differ_by_name() {
        assert_ne!(seed_for("fig5"), seed_for("fig6"));
        assert_eq!(seed_for("fig5"), seed_for("fig5"));
    }

    #[test]
    fn par_map_returns_results_in_item_order() {
        let _guard = WORKERS_GUARD.lock().unwrap();
        set_workers(Some(3));
        // Job `i` waits until job `i + 1` has finished, so the three jobs
        // (one per worker) finish in reverse order.
        let (done_1, wait_1) = mpsc::channel::<()>();
        let (done_2, wait_2) = mpsc::channel::<()>();
        let waits = [Mutex::new(wait_1), Mutex::new(wait_2)];
        let dones = [done_1, done_2];
        let finished = Mutex::new(Vec::new());
        let out = par_map(&[0usize, 1, 2], |&i| {
            if let Some(wait) = waits.get(i) {
                // A timeout, not a hang, if the jobs ever stop overlapping.
                let next = wait.lock().unwrap().recv_timeout(Duration::from_secs(10));
                next.expect("the next job finished first");
            }
            finished.lock().unwrap().push(i);
            if let Some(done) = i.checked_sub(1).and_then(|j| dones.get(j)) {
                done.send(()).unwrap();
            }
            i * 10
        });
        set_workers(None);
        assert_eq!(finished.into_inner().unwrap(), vec![2, 1, 0]);
        assert_eq!(out, vec![0, 10, 20]);
    }

    #[test]
    fn par_map_at_one_worker_runs_on_the_caller() {
        let _guard = WORKERS_GUARD.lock().unwrap();
        set_workers(Some(1));
        let caller = std::thread::current().id();
        let ids = par_map(&[1, 2, 3, 4], |_| std::thread::current().id());
        set_workers(None);
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn par_map_of_nothing_is_empty() {
        let _guard = WORKERS_GUARD.lock().unwrap();
        set_workers(Some(2));
        let out: Vec<u8> = par_map(&[] as &[u8], |&b| b);
        set_workers(None);
        assert!(out.is_empty());
    }

    #[test]
    fn par_map_propagates_a_panicking_job() {
        let _guard = WORKERS_GUARD.lock().unwrap();
        set_workers(Some(2));
        // Whichever thread claims the failing job, the caller panics once
        // every other job has run, rather than hanging.
        let result = std::panic::catch_unwind(|| {
            par_map(&[0, 1, 2, 3, 4, 5], |&i| {
                assert_ne!(i, 3, "job 3 fails");
                i
            })
        });
        set_workers(None);
        assert!(result.is_err());
    }

    #[test]
    fn profile_kernel_preserves_historical_seeding() {
        // The executor-backed helper must reproduce the old direct-runner
        // path exactly, or every figure would silently change.
        let machine = SimConfig::default().machine.clone();
        let desc = fingrav_workloads::suite::cb_gemm(&machine, 2048);
        let via_helper = profile_kernel("seed-compat", &desc, Some(8));
        let mut sim = simulation("seed-compat");
        let mut runner = FingravRunner::new(&mut sim, runner_config(Some(8)));
        let direct = runner.profile(&desc).expect("profiles");
        assert_eq!(via_helper, direct);
    }
}
