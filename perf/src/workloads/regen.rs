//! `paper-regen`: the nine experiment functions behind the paper's
//! tables and figures at full scale, in-process, with the harness's
//! campaigns sharded across the workers. This is `all --full` without
//! its fan-out of one process per artefact, and the only workload that
//! runs `fingrav-baselines` and the analysis modules.
//!
//! The experiments keep the paper's fixed per-experiment seed names, so
//! the `--seed` argument does not change their inputs. An "entry" here is
//! one experiment function call.

use std::fmt::Debug;
use std::time::Instant;

use fingrav_bench::experiments::{
    fig10, fig3, fig5, fig6, fig7, fig8, fig9, table1, table2, Table2Data,
};
use fingrav_bench::harness::set_workers;
use fingrav_bench::Scale;

use super::{workers, Iteration, Layers, Sample, Workload};
use crate::oracle::{self, Digest, Hasher};

/// An experiment's output: digested through `Debug`, and for Table II
/// also required to reproduce every takeaway.
trait Artefact: Debug {
    fn failed_checks(&self) -> Vec<u32> {
        Vec::new()
    }
}

macro_rules! artefact {
    ($($t:ty),*) => { $(impl Artefact for $t {})* };
}
artefact!(
    fingrav_bench::experiments::Table1Data,
    fingrav_bench::experiments::Fig3Data,
    fingrav_bench::experiments::Fig5Data,
    fingrav_bench::experiments::RunShape,
    fingrav_bench::experiments::Fig7Data,
    fingrav_bench::experiments::Fig9Data,
    fingrav_bench::experiments::Fig10Data
);

impl Artefact for Table2Data {
    fn failed_checks(&self) -> Vec<u32> {
        self.checks
            .iter()
            .filter(|c| !c.holds)
            .map(|c| c.takeaway)
            .collect()
    }
}

type Experiment = fn(Scale) -> Box<dyn Artefact>;

/// The experiment functions, in `all`'s order, with their metric names.
const EXPERIMENTS: [(&str, Experiment); 9] = [
    ("experiments.table1_s", |s| Box::new(table1(s))),
    ("experiments.fig3_s", |s| Box::new(fig3(s))),
    ("experiments.fig5_s", |s| Box::new(fig5(s))),
    ("experiments.fig6_s", |s| Box::new(fig6(s))),
    ("experiments.fig7_s", |s| Box::new(fig7(s))),
    ("experiments.fig8_s", |s| Box::new(fig8(s))),
    ("experiments.fig9_s", |s| Box::new(fig9(s))),
    ("experiments.fig10_s", |s| Box::new(fig10(s))),
    ("experiments.table2_s", |s| Box::new(table2(s))),
];

pub struct PaperRegen {
    reference: Option<Digest>,
}

impl PaperRegen {
    pub fn new() -> Self {
        PaperRegen { reference: None }
    }
}

/// One regeneration: every experiment's seconds, and the outputs.
fn regenerate() -> (Vec<f64>, Vec<Box<dyn Artefact>>) {
    EXPERIMENTS
        .iter()
        .map(|(_, run)| {
            let t0 = Instant::now();
            let out = run(Scale::Full);
            (t0.elapsed().as_secs_f64(), out)
        })
        .unzip()
}

/// Digests the outputs in order and checks Table II.
fn digest(outputs: &[Box<dyn Artefact>]) -> Result<Digest, String> {
    let mut hasher = Hasher::default();
    for out in outputs {
        let failed = out.failed_checks();
        if !failed.is_empty() {
            return Err(format!("Table II takeaways {failed:?} do not hold"));
        }
        hasher.update(&oracle::digest_debug(out.as_ref()).to_le_bytes());
    }
    Ok(hasher.finish())
}

impl Workload for PaperRegen {
    fn setup(&mut self) -> Result<Digest, String> {
        // The reference is a one-worker regeneration (`--workers 1`).
        set_workers(Some(1));
        let (_, outputs) = regenerate();
        set_workers(Some(workers()));
        let digest = digest(&outputs)?;
        self.reference = Some(digest);
        Ok(digest)
    }

    fn iterate(&mut self, traced: bool) -> Result<Iteration, String> {
        let begin = Instant::now();
        let (seconds, outputs) = regenerate();
        let end = Instant::now();
        let failure = match digest(&outputs) {
            Ok(d) if Some(d) == self.reference => None,
            Ok(d) => Some(format!(
                "regenerated outputs are not identical to the one-worker reference \
                 (digest {d})"
            )),
            Err(e) => Some(e),
        };
        let mut layers = Layers::new();
        if traced {
            for ((name, _), s) in EXPERIMENTS.iter().zip(&seconds) {
                layers.insert(name, Sample::Value(*s));
            }
        }
        Ok(Iteration {
            seconds: (end - begin).as_secs_f64(),
            entry_ms: seconds.iter().map(|s| s * 1e3).collect(),
            failure,
            layers,
        })
    }
}
