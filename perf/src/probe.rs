//! Measurement from outside the program: a timing wrapper around the
//! simulator backend and campaign observers that stamp lifecycle and
//! stage events on receipt.
//!
//! Nothing here changes what the program computes. [`TimedFactory`]
//! forwards every call to a [`SimulationFactory`] and its simulations,
//! so a campaign run through it is byte-identical to one run through
//! the bare factory; it only brackets each script call with a clock.
//! Stage events and the script calls of one slot arrive on the worker
//! thread that measures the slot, so per-thread counters tie engine time
//! to the stage it ran in without any shared state on the hot path.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use fingrav_core::backend::{BackendFactory, PowerBackend, SimulationFactory};
use fingrav_core::error::{MethodologyError, MethodologyResult};
use fingrav_core::executor::CampaignObserver;
use fingrav_core::observe::{ProfilingEvent, StageKind};
use fingrav_core::runner::KernelPowerReport;
use fingrav_sim::engine::{EngineStats, Simulation};
use fingrav_sim::kernel::{KernelDesc, KernelHandle};
use fingrav_sim::script::Script;
use fingrav_sim::session::{AbortHandle, TelemetryEvent, TelemetrySink};
use fingrav_sim::time::SimDuration;
use fingrav_sim::trace::RunTrace;

thread_local! {
    /// Nanoseconds this thread has spent inside simulator script calls.
    static ENGINE_NS: Cell<u64> = const { Cell::new(0) };
    /// The stage open on this thread: receipt time and `ENGINE_NS` then.
    static OPEN_STAGE: Cell<Option<(Instant, u64)>> = const { Cell::new(None) };
    /// Device events of the entry in flight on this thread, by kind.
    static DEVICE: Cell<DeviceCounts> = const { Cell::new(DeviceCounts::ZERO) };
}

fn engine_ns_here() -> u64 {
    ENGINE_NS.with(Cell::get)
}

/// Engine work summed over every backend a [`TimedFactory`] created
/// since the last [`EngineTotals::take`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineAgg {
    /// Host nanoseconds inside script calls, summed over workers.
    pub busy_ns: u64,
    /// Engine events popped.
    pub events: u64,
    /// Scripts run.
    pub scripts: u64,
    /// Largest pending-event count any backend reached.
    pub max_queue_depth: usize,
}

/// Shared sink the wrapped backends report into when they are dropped.
#[derive(Debug, Default)]
pub struct EngineTotals(Mutex<EngineAgg>);

impl EngineTotals {
    /// Returns the totals gathered so far and starts over.
    pub fn take(&self) -> EngineAgg {
        std::mem::take(&mut *self.0.lock().expect("engine totals lock"))
    }
}

/// A [`BackendFactory`] that hands out timed simulations.
pub struct TimedFactory<'t> {
    inner: &'t SimulationFactory,
    totals: &'t EngineTotals,
}

impl<'t> TimedFactory<'t> {
    /// Wraps `inner`; dropped backends add their work to `totals`.
    pub fn new(inner: &'t SimulationFactory, totals: &'t EngineTotals) -> Self {
        TimedFactory { inner, totals }
    }
}

impl<'t> BackendFactory for TimedFactory<'t> {
    type Backend = TimedSim<'t>;

    fn create(&self, index: usize) -> MethodologyResult<TimedSim<'t>> {
        Ok(TimedSim {
            sim: self.inner.create(index)?,
            busy_ns: 0,
            totals: self.totals,
        })
    }

    fn slot_seed_hint(&self, index: usize) -> Option<u64> {
        self.inner.slot_seed_hint(index)
    }
}

/// A [`Simulation`] whose script calls are timed.
pub struct TimedSim<'t> {
    sim: Simulation,
    busy_ns: u64,
    totals: &'t EngineTotals,
}

impl TimedSim<'_> {
    fn timed<R>(&mut self, call: impl FnOnce(&mut Simulation) -> R) -> R {
        let t0 = Instant::now();
        let out = call(&mut self.sim);
        let ns = t0.elapsed().as_nanos() as u64;
        self.busy_ns += ns;
        ENGINE_NS.with(|c| c.set(c.get() + ns));
        out
    }
}

impl Drop for TimedSim<'_> {
    fn drop(&mut self) {
        let stats: EngineStats = self.sim.engine_stats();
        // A poisoned lock means another worker panicked; that panic is
        // what gets reported, so this backend's totals may be dropped.
        if let Ok(mut agg) = self.totals.0.lock() {
            agg.busy_ns += self.busy_ns;
            agg.events += stats.events_popped;
            agg.scripts += stats.scripts_run;
            agg.max_queue_depth = agg.max_queue_depth.max(stats.max_queue_depth);
        }
    }
}

impl PowerBackend for TimedSim<'_> {
    fn register_kernel(&mut self, desc: &KernelDesc) -> MethodologyResult<KernelHandle> {
        PowerBackend::register_kernel(&mut self.sim, desc)
    }

    fn run_script_observed(
        &mut self,
        script: &Script,
        sink: &mut dyn TelemetrySink,
        abort: &AbortHandle,
    ) -> MethodologyResult<RunTrace> {
        self.timed(|sim| PowerBackend::run_script_observed(sim, script, sink, abort))
    }

    fn run_script(&mut self, script: &Script) -> MethodologyResult<RunTrace> {
        self.timed(|sim| PowerBackend::run_script(sim, script))
    }

    fn run_script_with<S: TelemetrySink>(
        &mut self,
        script: &Script,
        sink: &mut S,
        abort: &AbortHandle,
    ) -> MethodologyResult<RunTrace> {
        self.timed(|sim| sim.run_script_with(script, sink, abort))
    }

    fn engine_stats(&self) -> Option<EngineStats> {
        Some(self.sim.engine_stats())
    }

    fn logger_window(&self) -> SimDuration {
        PowerBackend::logger_window(&self.sim)
    }

    fn coarse_logger_window(&self) -> SimDuration {
        PowerBackend::coarse_logger_window(&self.sim)
    }

    fn gpu_counter_hz(&self) -> f64 {
        PowerBackend::gpu_counter_hz(&self.sim)
    }
}

/// Device events by kind, as streamed through `ProfilingEvent::Device`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceCounts {
    /// Fine power-logger samples emitted.
    pub power_logs: u64,
    /// Timed kernel launches completed.
    pub launches: u64,
    /// GPU timestamp reads.
    pub ts_reads: u64,
    /// Script operations finished.
    pub ops: u64,
}

impl DeviceCounts {
    const ZERO: DeviceCounts = DeviceCounts {
        power_logs: 0,
        launches: 0,
        ts_reads: 0,
        ops: 0,
    };

    fn add(&mut self, other: DeviceCounts) {
        self.power_logs += other.power_logs;
        self.launches += other.launches;
        self.ts_reads += other.ts_reads;
        self.ops += other.ops;
    }
}

/// The four methodology stages, in pipeline order.
pub const STAGES: [StageKind; 4] = [
    StageKind::Calibrate,
    StageKind::TimingProbe,
    StageKind::SspSearch,
    StageKind::CollectRuns,
];

fn stage_slot(stage: StageKind) -> usize {
    STAGES.iter().position(|&s| s == stage).unwrap_or(0)
}

/// Wall and engine time per stage, summed over entries.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimes {
    /// Stage wall time, start to finish as received.
    pub wall: [Duration; 4],
    /// Engine time inside each stage.
    pub engine: [Duration; 4],
}

/// One entry's life as seen by an observer.
#[derive(Debug, Clone, Copy)]
pub struct EntrySpan {
    /// Receipt of `entry_started` (the last one, if the entry restarted).
    pub start: Instant,
    /// Receipt of `entry_finished`.
    pub finish: Instant,
    /// The thread that reported the finish.
    pub thread: ThreadId,
}

impl EntrySpan {
    /// Start to finish.
    pub fn latency(&self) -> Duration {
        self.finish - self.start
    }
}

#[derive(Debug, Default)]
struct ObserverState {
    started: BTreeMap<usize, Instant>,
    spans: BTreeMap<usize, EntrySpan>,
    stages: StageTimes,
    device: DeviceCounts,
}

/// Stamps entry lifecycle events on receipt; when `traced`, also stage
/// boundaries and device events.
#[derive(Debug)]
pub struct EntryObserver {
    traced: bool,
    state: Mutex<ObserverState>,
}

impl EntryObserver {
    /// An observer for one campaign run.
    pub fn new(traced: bool) -> Self {
        EntryObserver {
            traced,
            state: Mutex::new(ObserverState::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ObserverState> {
        self.state.lock().expect("entry observer lock")
    }

    /// Finished entries, keyed by campaign index.
    pub fn spans(&self) -> BTreeMap<usize, EntrySpan> {
        self.lock().spans.clone()
    }

    /// The earliest `entry_started` receipt.
    pub fn first_start(&self) -> Option<Instant> {
        let state = self.lock();
        let starts = state
            .started
            .values()
            .chain(state.spans.values().map(|s| &s.start));
        starts.min().copied()
    }

    /// Stage times gathered (traced observers only).
    pub fn stages(&self) -> StageTimes {
        self.lock().stages
    }

    /// Device events gathered (traced observers only).
    pub fn device(&self) -> DeviceCounts {
        self.lock().device
    }
}

impl CampaignObserver for EntryObserver {
    fn entry_started(&self, index: usize, _label: &str) {
        let now = Instant::now();
        if self.traced {
            DEVICE.with(|d| d.set(DeviceCounts::ZERO));
        }
        self.lock().started.insert(index, now);
    }

    fn entry_event(&self, _index: usize, event: &ProfilingEvent) {
        if !self.traced {
            return;
        }
        match event {
            ProfilingEvent::Device(device) => DEVICE.with(|d| {
                let mut c = d.get();
                match device {
                    TelemetryEvent::PowerLogEmitted { .. } => c.power_logs += 1,
                    TelemetryEvent::LaunchCompleted { .. } => c.launches += 1,
                    TelemetryEvent::GpuTimestampRead { .. } => c.ts_reads += 1,
                    TelemetryEvent::OpFinished { .. } => c.ops += 1,
                    _ => return,
                }
                d.set(c);
            }),
            ProfilingEvent::StageStarted { .. } => {
                OPEN_STAGE.with(|s| s.set(Some((Instant::now(), engine_ns_here()))));
            }
            ProfilingEvent::StageFinished { stage } => {
                let now = Instant::now();
                let engine_now = engine_ns_here();
                if let Some((t0, e0)) = OPEN_STAGE.with(Cell::take) {
                    let slot = stage_slot(*stage);
                    let mut state = self.lock();
                    state.stages.wall[slot] += now - t0;
                    state.stages.engine[slot] += Duration::from_nanos(engine_now - e0);
                }
            }
            _ => {}
        }
    }

    fn entry_finished(&self, index: usize, _report: &KernelPowerReport) {
        let now = Instant::now();
        let mut state = self.lock();
        if self.traced {
            state.device.add(DEVICE.with(Cell::get));
        }
        if let Some(start) = state.started.remove(&index) {
            let thread = std::thread::current().id();
            state.spans.insert(
                index,
                EntrySpan {
                    start,
                    finish: now,
                    thread,
                },
            );
        }
    }

    fn entry_failed(&self, index: usize, _error: &MethodologyError) {
        self.lock().started.remove(&index);
    }
}

/// Executor occupancy over one campaign: the sum of entry time over
/// `workers` × `wall`, and the time from the first worker running out of
/// entries to `end`.
pub fn executor_occupancy(
    spans: &BTreeMap<usize, EntrySpan>,
    workers: usize,
    begin: Instant,
    end: Instant,
) -> (f64, Duration) {
    let busy: Duration = spans.values().map(EntrySpan::latency).sum();
    let wall = (end - begin).as_secs_f64() * workers as f64;
    let mut last_finish: HashMap<ThreadId, Instant> = HashMap::new();
    for span in spans.values() {
        let last = last_finish.entry(span.thread).or_insert(span.finish);
        *last = (*last).max(span.finish);
    }
    let first_idle = last_finish.values().min().copied().unwrap_or(end);
    (
        busy.as_secs_f64() / wall.max(f64::MIN_POSITIVE),
        end - first_idle.min(end),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fingrav_core::campaign::Campaign;
    use fingrav_core::executor::{CampaignExecutor, CampaignTally, CancellationToken};
    use fingrav_core::runner::RunnerConfig;
    use fingrav_sim::config::SimConfig;
    use fingrav_workloads::suite;

    #[test]
    fn timed_backends_change_nothing_and_count_everything() {
        let machine = SimConfig::default().machine;
        let mut campaign = Campaign::new(RunnerConfig::quick(6));
        campaign.add_all(
            suite::gemm_suite(&machine)
                .into_iter()
                .take(3)
                .map(|k| k.desc),
        );
        let factory = SimulationFactory::new(SimConfig::default(), 11);
        let cancel = CancellationToken::new();

        let tally = CampaignTally::new(campaign.len());
        let plain = CampaignExecutor::serial()
            .execute_observed(&campaign, &factory, &tally, &cancel)
            .into_report()
            .unwrap();

        let totals = EngineTotals::default();
        let observer = EntryObserver::new(true);
        let timed = TimedFactory::new(&factory, &totals);
        let outcome =
            CampaignExecutor::new(2).execute_observed(&campaign, &timed, &observer, &cancel);
        assert_eq!(
            outcome.into_report().unwrap(),
            plain,
            "timing changes no byte"
        );

        let engine = totals.take();
        assert_eq!(engine.events, tally.engine_events());
        assert_eq!(engine.scripts, tally.engine_scripts());
        assert!(engine.busy_ns > 0 && engine.max_queue_depth > 0);
        assert_eq!(totals.take(), EngineAgg::default(), "take starts over");

        let device = observer.device();
        assert_eq!(
            device.power_logs,
            (0..3).map(|i| tally.logs(i)).sum::<u64>()
        );
        assert_eq!(
            device.launches,
            (0..3).map(|i| tally.launches(i)).sum::<u64>()
        );
        assert!(device.ts_reads > 0 && device.ops > 0);
        assert_eq!(observer.spans().len(), 3);
        let stages = observer.stages();
        for k in 0..STAGES.len() {
            assert!(stages.wall[k] > Duration::ZERO, "stage {k} timed");
            assert!(
                stages.engine[k] <= stages.wall[k],
                "engine time nests in stage {k}"
            );
        }
    }

    #[test]
    fn untraced_observers_time_entries_only() {
        let observer = EntryObserver::new(false);
        observer.entry_event(
            0,
            &ProfilingEvent::StageStarted {
                stage: StageKind::Calibrate,
            },
        );
        observer.entry_started(0, "k");
        observer.entry_failed(0, &MethodologyError::Aborted);
        assert!(observer.spans().is_empty());
        assert_eq!(observer.stages().wall, [Duration::ZERO; 4]);
    }

    #[test]
    fn occupancy_counts_busy_time_and_the_idle_tail() {
        let here = std::thread::current().id();
        let there = std::thread::spawn(|| std::thread::current().id())
            .join()
            .unwrap();
        let begin = Instant::now();
        let at = |ms: u64| begin + Duration::from_millis(ms);
        let span = |start, finish, thread| EntrySpan {
            start: at(start),
            finish: at(finish),
            thread,
        };
        let spans = BTreeMap::from([
            (0, span(0, 4, here)),
            (1, span(0, 8, there)),
            (2, span(4, 10, here)),
        ]);
        let (busy, tail) = executor_occupancy(&spans, 2, begin, at(10));
        assert!((busy - 0.9).abs() < 1e-9);
        assert_eq!(tail, Duration::from_millis(2));
    }
}
