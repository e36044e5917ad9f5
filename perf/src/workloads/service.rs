//! `service-loopback`: the paper-scale suite campaign submitted one at a
//! time to one in-process `CampaignService` on an ephemeral loopback port
//! and measured by one `transport::work` connection that fetches the
//! reports afterwards and retries on `DENY_SEQUENCE_EARLY`, as the
//! `--connect` side of the harness does. What a served campaign takes
//! over a local run of the same campaign is the transport's cost: the
//! fixed hand-off latency, and the streaming of every device event and
//! entry artifact to the coordinator.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fingrav_core::backend::BackendFactory;
use fingrav_core::campaign::Campaign;
use fingrav_core::executor::{
    CampaignExecutor, CampaignObserver, CampaignOutcome, CancellationToken, ErrorPolicy,
    NoopCampaignObserver,
};
use fingrav_core::transport::{
    connect_with_retry, work, CampaignService, ServiceConfig, TransportError, WorkerOptions,
    WorkerSummary, DENY_SEQUENCE_EARLY,
};

use super::persist;
use super::{
    campaign_layers, check_outcome, entry_latencies, median_within, ms, suite_campaign, Iteration,
    Layers, Sample, Scratch, Seeded, Workload,
};
use crate::oracle::{self, Digest};
use crate::probe::{EngineTotals, EntryObserver, TimedFactory};

/// Worker connections per served campaign. One worker thread plus the
/// coordinator's thread reading its connection already keep both cores
/// of a two-core host busy; a second connection would add two more busy
/// threads and time the scheduler more than the transport.
const CONNECTIONS: usize = 1;
/// How long a worker keeps retrying an early handshake before it gives up.
const EARLY_RETRY_BUDGET: Duration = Duration::from_secs(30);
/// Pause between early-handshake retries (the harness's own pause).
const EARLY_RETRY_PAUSE: Duration = Duration::from_millis(50);

pub struct ServiceLoopback<'s> {
    campaign: Campaign,
    seeded: Seeded,
    totals: EngineTotals,
    scratch: &'s Scratch,
    service: Option<CampaignService>,
    addr: SocketAddr,
    iterations: usize,
}

impl<'s> ServiceLoopback<'s> {
    pub fn new(seed: u64, scratch: &'s Scratch) -> Result<Self, String> {
        let service = CampaignService::bind("127.0.0.1:0", ServiceConfig::default())
            .map_err(|e| format!("binding the campaign service: {e}"))?;
        let addr = service.local_addr().map_err(|e| e.to_string())?;
        Ok(ServiceLoopback {
            campaign: suite_campaign(),
            seeded: Seeded::new(seed),
            totals: EngineTotals::default(),
            scratch,
            service: Some(service),
            addr,
            iterations: 0,
        })
    }
}

/// One campaign served through the service, submit to the last worker
/// holding the reports.
struct Served {
    begin: Instant,
    end: Instant,
    runs: Vec<WorkerRun>,
}

/// What one worker connection did for one campaign.
struct WorkerRun {
    summary: WorkerSummary,
    denied_early: u64,
    returned: Instant,
}

/// Connects, works the campaign with sequence number `sequence`, and
/// retries while the coordinator answers that the worker is early.
fn worker_run<F: BackendFactory>(
    addr: SocketAddr,
    campaign: &Campaign,
    factory: &F,
    observer: &dyn CampaignObserver,
    sequence: u64,
) -> Result<WorkerRun, String> {
    let options = WorkerOptions {
        fetch_reports: true,
        sequence,
        ..WorkerOptions::default()
    };
    let started = Instant::now();
    let mut denied_early = 0;
    loop {
        let stream = connect_with_retry(addr, Duration::from_secs(10))
            .map_err(|e| format!("connecting to {addr}: {e}"))?;
        let cancel = CancellationToken::new();
        match work(stream, campaign, factory, observer, &cancel, &options) {
            Ok(summary) => {
                return Ok(WorkerRun {
                    summary,
                    denied_early,
                    returned: Instant::now(),
                })
            }
            Err(TransportError::Denied { code, detail }) if code == DENY_SEQUENCE_EARLY => {
                if started.elapsed() > EARLY_RETRY_BUDGET {
                    return Err(format!(
                        "coordinator never reached campaign {sequence}: {detail}"
                    ));
                }
                denied_early += 1;
                std::thread::sleep(EARLY_RETRY_PAUSE);
            }
            Err(e) => return Err(format!("worker: {e}")),
        }
    }
}

impl ServiceLoopback<'_> {
    /// Serves the campaign once through the service and its workers,
    /// returning the timing and the coordinator's outcome.
    fn serve<F: BackendFactory>(
        &self,
        factory: &F,
        dir: &std::path::Path,
        coordinator: Arc<EntryObserver>,
        observer: &EntryObserver,
    ) -> Result<(Served, CampaignOutcome), String> {
        let service = self.service.as_ref().ok_or("the service has stopped")?;
        let begin = Instant::now();
        let ticket = service.submit_with(
            self.campaign.clone(),
            dir,
            ErrorPolicy::default(),
            Some(coordinator),
        );
        let sequence = ticket.sequence();
        let runs = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CONNECTIONS)
                .map(|_| {
                    scope.spawn(|| {
                        worker_run(self.addr, &self.campaign, factory, observer, sequence)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| Err("a worker panicked".into())))
                .collect::<Result<Vec<_>, String>>()
        });
        // Stop the campaign if a worker gave up, so the service can drain.
        if runs.is_err() {
            ticket.cancel();
        }
        let outcome = ticket.wait().map_err(|e| format!("served campaign: {e}"));
        let served = Served {
            begin,
            end: Instant::now(),
            runs: runs?,
        };
        Ok((served, outcome?))
    }
}

impl Workload for ServiceLoopback<'_> {
    fn setup(&mut self) -> Result<Digest, String> {
        self.seeded.setup(&self.campaign)
    }

    fn iterate(&mut self, traced: bool) -> Result<Iteration, String> {
        self.iterations += 1;
        let factory = &self.seeded.factory;
        let reference = self.seeded.reference;
        let dir = self.scratch.fresh(&format!("serve-{}", self.iterations))?;
        let coordinator = Arc::new(EntryObserver::new(false));
        let observer = EntryObserver::new(traced);
        let (mut served, outcome) = if traced {
            let timed = TimedFactory::new(factory, &self.totals);
            self.serve(&timed, &dir, Arc::clone(&coordinator), &observer)?
        } else {
            self.serve(factory, &dir, Arc::clone(&coordinator), &observer)?
        };

        let evictions = outcome.evictions.len();
        let mut failure = check_outcome(outcome, reference).err();
        let mut fetched = Vec::new();
        for run in &mut served.runs {
            let reports = run.summary.reports.take().unwrap_or_default();
            fetched = reports.into_iter().map(Some).collect();
            let digest = oracle::digest_reports(&mut fetched);
            if failure.is_none() && digest.ok() != reference {
                failure = Some("a worker's fetched reports are not byte-identical".into());
            }
        }
        if failure.is_none() && evictions != 0 {
            failure = Some(format!("{evictions} eviction(s) on a loopback campaign"));
        }

        let mut layers = Layers::new();
        if traced && failure.is_none() {
            let probe_dir = self.scratch.fresh(&format!("probe-{}", self.iterations))?;
            let probed = persist::probe(
                &self.campaign,
                factory,
                reference,
                &mut fetched,
                &dir,
                &probe_dir,
                &mut layers,
            );
            self.scratch.remove(&probe_dir)?;
            failure = probed.err();
        }
        self.scratch.remove(&dir)?;
        if traced {
            campaign_layers(
                &mut layers,
                self.totals.take(),
                &observer,
                served.runs.len(),
                served.begin,
                served.end,
            );
            self.transport_layers(&mut layers, &coordinator, &observer, &served)?;
            layers.insert("transport.evictions", Sample::Exact(evictions as u64));
        }
        Ok(Iteration {
            seconds: (served.end - served.begin).as_secs_f64(),
            entry_ms: entry_latencies(&coordinator),
            failure,
            layers,
        })
    }

    fn finish(&mut self) -> Result<(), String> {
        if let Some(service) = self.service.take() {
            service.shutdown();
        }
        Ok(())
    }
}

impl ServiceLoopback<'_> {
    /// The `transport.*` samples of one traced served campaign, including
    /// the paired local run that `wire_gap_ms` compares against.
    fn transport_layers(
        &self,
        layers: &mut Layers,
        coordinator: &EntryObserver,
        observer: &EntryObserver,
        served: &Served,
    ) -> Result<(), String> {
        let begin = served.begin;
        let first_assign = coordinator.first_start().map_or(0.0, |t| ms(t - begin));
        let coordinated = coordinator.spans();
        let measured = observer.spans();
        let overhead: Vec<f64> = coordinated
            .iter()
            .filter_map(|(i, s)| measured.get(i).map(|w| ms(s.latency()) - ms(w.latency())))
            .collect();
        let last_finish = coordinated
            .values()
            .map(|s| s.finish)
            .max()
            .unwrap_or(begin);
        let holding = served
            .runs
            .iter()
            .map(|r| r.returned)
            .max()
            .unwrap_or(served.end);
        let denied: u64 = served.runs.iter().map(|r| r.denied_early).sum();

        // The paired local run of the same campaign, on as many workers
        // as the served one had connections.
        let t0 = Instant::now();
        let local = CampaignExecutor::new(CONNECTIONS).execute_observed(
            &self.campaign,
            &self.seeded.factory,
            &NoopCampaignObserver,
            &CancellationToken::new(),
        );
        let local_ms = ms(t0.elapsed());
        check_outcome(local, self.seeded.reference)
            .map_err(|e| format!("paired local run: {e}"))?;

        layers.insert("transport.first_assign_ms", Sample::Value(first_assign));
        layers.insert(
            "transport.entry_overhead_ms",
            Sample::Value(median_within(&overhead)),
        );
        layers.insert(
            "transport.drain_ms",
            Sample::Value(ms(holding.saturating_duration_since(last_finish))),
        );
        layers.insert("transport.denied_early", Sample::Value(denied as f64));
        layers.insert(
            "transport.wire_gap_ms",
            Sample::Value(ms(served.end - begin) - local_ms),
        );
        Ok(())
    }
}
