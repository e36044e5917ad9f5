//! `suite-full`: the fourteen-kernel suite at paper-scale run counts,
//! sharded across the workers with no checkpoint. The engine does nearly
//! all the work here; checkpoint and transport do none.

use std::time::Instant;

use fingrav_core::campaign::Campaign;
use fingrav_core::executor::{CampaignExecutor, CancellationToken};

use super::{
    campaign_layers, check_outcome, entry_latencies, suite_campaign, workers, Iteration, Layers,
    Seeded, Workload,
};
use crate::oracle::Digest;
use crate::probe::{EngineTotals, EntryObserver, TimedFactory};

pub struct SuiteFull {
    campaign: Campaign,
    seeded: Seeded,
    totals: EngineTotals,
}

impl SuiteFull {
    pub fn new(seed: u64) -> Self {
        SuiteFull {
            campaign: suite_campaign(),
            seeded: Seeded::new(seed),
            totals: EngineTotals::default(),
        }
    }
}

impl Workload for SuiteFull {
    fn setup(&mut self) -> Result<Digest, String> {
        self.seeded.setup(&self.campaign)
    }

    fn iterate(&mut self, traced: bool) -> Result<Iteration, String> {
        let factory = &self.seeded.factory;
        let workers = workers();
        let executor = CampaignExecutor::new(workers);
        let observer = EntryObserver::new(traced);
        let cancel = CancellationToken::new();
        let begin = Instant::now();
        let outcome = if traced {
            let timed = TimedFactory::new(factory, &self.totals);
            executor.execute_observed(&self.campaign, &timed, &observer, &cancel)
        } else {
            executor.execute_observed(&self.campaign, factory, &observer, &cancel)
        };
        let end = Instant::now();

        let mut layers = Layers::new();
        if traced {
            campaign_layers(
                &mut layers,
                self.totals.take(),
                &observer,
                workers,
                begin,
                end,
            );
        }
        Ok(Iteration {
            seconds: (end - begin).as_secs_f64(),
            entry_ms: entry_latencies(&observer),
            failure: check_outcome(outcome, self.seeded.reference).err(),
            layers,
        })
    }
}
