//! The `checkpoint.*` and `store.*` probes: timed calls to the public
//! checkpoint and codec functions on one campaign's own entries, run
//! after a traced iteration and outside its timing.

use std::path::Path;
use std::time::Instant;

use fingrav_core::backend::SimulationFactory;
use fingrav_core::campaign::Campaign;
use fingrav_core::checkpoint::{
    campaign_digest, gather, CampaignManifest, CheckpointDir, EntryArtifact, EntryArtifactView,
};
use fingrav_core::executor::CampaignExecutor;
use fingrav_core::runner::KernelPowerReport;
use fingrav_core::store::ProfileStoreView;

use super::{check_outcome, median_within, ms, workers, Layers, Sample};
use crate::oracle::{self, Digest};

/// Restore-only resumes timed per probe.
const RESUMES: usize = 8;

/// Probes the completed checkpoint `dir` of `campaign` and its `reports`:
/// gathers and restores `dir` (restore-only `resume`), encodes, decodes
/// and views each entry artifact and its three profile stores, and writes
/// each entry and the manifest into the fresh directory `probe_dir`.
/// Every gathered or restored report set must digest to `reference`.
pub fn probe(
    campaign: &Campaign,
    factory: &SimulationFactory,
    reference: Option<Digest>,
    reports: &mut [Option<KernelPowerReport>],
    dir: &Path,
    probe_dir: &Path,
    layers: &mut Layers,
) -> Result<(), String> {
    let t0 = Instant::now();
    let gathered = CheckpointDir::open(dir).and_then(|d| gather(&d, campaign));
    let gather_ms = ms(t0.elapsed());
    let gathered = gathered.map_err(|e| format!("gather: {e}"))?;
    if Some(oracle::digest_report_list(gathered.report.reports)?) != reference {
        return Err("gathered reports are not byte-identical to the reference".into());
    }

    let executor = CampaignExecutor::new(workers());
    let mut resume_ms = Vec::with_capacity(RESUMES);
    for _ in 0..RESUMES {
        let t0 = Instant::now();
        let restored = executor
            .resume(campaign, factory, dir)
            .map_err(|e| format!("restore-only resume: {e}"))?;
        resume_ms.push(ms(t0.elapsed()));
        check_outcome(restored, reference).map_err(|e| format!("resume: {e}"))?;
    }

    let digest = campaign_digest(campaign);
    let probe = CheckpointDir::create(probe_dir).map_err(|e| e.to_string())?;
    let (mut encode, mut decode, mut view, mut write) = (vec![], vec![], vec![], vec![]);
    let (mut prof_encode, mut prof_view) = (vec![], vec![]);
    for (index, slot) in reports.iter_mut().enumerate() {
        let report = slot
            .take()
            .ok_or_else(|| format!("campaign slot {index} has no report"))?;
        let artifact = EntryArtifact {
            index: index as u32,
            config_digest: digest,
            report,
        };
        let t0 = Instant::now();
        let bytes = artifact.to_bytes();
        encode.push(t0.elapsed().as_secs_f64() * 1e6);
        let t0 = Instant::now();
        let decoded = EntryArtifact::from_bytes(&bytes);
        decode.push(t0.elapsed().as_secs_f64() * 1e6);
        let t0 = Instant::now();
        let parsed = EntryArtifactView::parse(&bytes);
        view.push(t0.elapsed().as_secs_f64() * 1e6);
        if !matches!(&decoded, Ok(d) if *d == artifact) || parsed.is_err() {
            return Err(format!("entry {index} does not round-trip its encoding"));
        }
        let t0 = Instant::now();
        probe
            .write_entry((index % workers()) as u32, &artifact)
            .map_err(|e| e.to_string())?;
        write.push(ms(t0.elapsed()));
        let r = &artifact.report;
        for store in [
            &r.run_profile.store,
            &r.sse_profile.store,
            &r.ssp_profile.store,
        ] {
            let t0 = Instant::now();
            let bytes = store.to_bytes();
            prof_encode.push(t0.elapsed().as_secs_f64() * 1e6);
            let t0 = Instant::now();
            let parsed = ProfileStoreView::new(&bytes);
            prof_view.push(t0.elapsed().as_secs_f64() * 1e6);
            parsed.map_err(|e| format!("entry {index} profile store: {e}"))?;
        }
        *slot = Some(artifact.report);
    }
    // A campaign writes its manifest once when planned and once per
    // finished entry.
    let manifest = CampaignManifest::plan(campaign, factory, workers());
    let mut manifest_ms = Vec::new();
    for _ in 0..=reports.len() {
        let t0 = Instant::now();
        probe.write_manifest(&manifest).map_err(|e| e.to_string())?;
        manifest_ms.push(ms(t0.elapsed()));
    }

    for (name, values) in [
        ("store.entry_encode_us", &encode),
        ("store.entry_decode_us", &decode),
        ("store.entry_view_us", &view),
        ("store.prof_encode_us", &prof_encode),
        ("store.prof_view_us", &prof_view),
        ("checkpoint.write_entry_ms", &write),
        ("checkpoint.write_manifest_ms", &manifest_ms),
        ("checkpoint.resume_ms", &resume_ms),
    ] {
        layers.insert(name, Sample::Value(median_within(values)));
    }
    layers.insert("checkpoint.gather_ms", Sample::Value(gather_ms));
    layers.insert("checkpoint.bytes", Sample::Exact(tree_bytes(dir)?));
    Ok(())
}

/// Total size of the regular files under `dir`.
fn tree_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let meta = entry.metadata().map_err(|e| e.to_string())?;
        total += if meta.is_dir() {
            tree_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}
