//! Resumable on-disk result store and multi-machine shard merging.
//!
//! A [`ResultStore`] is a directory holding one campaign's (or one
//! campaign *shard's*) results durably:
//!
//! - `manifest.json` — campaign name, a deterministic **fingerprint**
//!   of the expanded job list, the total job count, which shard of how
//!   many this store holds, and (for CLI-launched campaigns) the spec
//!   axes, so `eend-cli campaign merge` can re-expand the grid without
//!   re-stating it;
//! - `records.jsonl` — one appended JSON line per finished job, keyed
//!   by the job's global expansion index and carrying the **full**
//!   [`RunMetrics`], written through the streaming executor in job
//!   order and flushed per record;
//! - `failures.jsonl` — contained job failures, created only when a job
//!   fails under a skip or retry policy.
//!
//! Both JSONL files are [`Journal`]s: a killed process loses at most one
//! partial trailing line, which [`ResultStore::open`] truncates away.
//! Re-opening the store against the same spec (the fingerprint check
//! refuses a different one) and calling [`ResultStore::run`] again
//! simulates **only the missing jobs**: an interrupted-then-resumed
//! campaign reassembles to the byte-identical [`CampaignResult`] a
//! one-shot run produces.
//!
//! Sharding composes with this: `CampaignSpec::shard(i, n)` slices the
//! job list round-robin, each machine runs its slice into its own
//! store, and [`merge_stores`] reassembles the shards into one result,
//! verifying the fingerprints agree and every job is covered exactly
//! once. [`merge_stores_streaming`] does the same merge straight into a
//! [`RecordSink`], holding one record per store instead of the whole
//! grid — the path `eend-cli campaign merge --csv` and the serve
//! daemon's aggregate endpoint run on.

use crate::executor::{FailurePolicy, JobFailure, JobScheduler};
use crate::journal::{Journal, JournalReader};
use crate::report::{json_num, json_str, CampaignResult, Record};
use crate::sink::RecordSink;
use crate::spec::{BaseScenario, CampaignSpec, FailurePlan, Job};
use eend_radio::EnergyReport;
use eend_sim::{Fnv1a, SimDuration};
use eend_wireless::{stacks, RunMetrics};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

/// Manifest file name inside a store directory.
const MANIFEST_FILE: &str = "manifest.json";
/// Record shard file name inside a store directory.
pub(crate) const RECORDS_FILE: &str = "records.jsonl";
/// Contained-job-failure log inside a store directory.
pub(crate) const FAILURES_FILE: &str = "failures.jsonl";

/// Writes `bytes` to `path` atomically: a unique temp sibling, flushed
/// and synced, then renamed over the destination, followed by a
/// best-effort fsync of the containing directory so the rename itself
/// survives a crash. Readers never observe a half-written file — they
/// see the old content or the new, so a kill mid-write can no longer
/// strand a torn `manifest.json` (or bench record) on disk.
///
/// Failpoints: `fs.write` (before the temp file is written) and
/// `fs.rename` (after the temp file is durable, before the rename).
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let file_name = path
        .file_name()
        .ok_or_else(|| bad_data(format!("cannot atomically write to {}", path.display())))?;
    let tmp = dir.join(format!(".{}.tmp-{}", file_name.to_string_lossy(), std::process::id()));
    let res = (|| {
        eend_fail::io_guard("fs.write")?;
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        eend_fail::io_guard("fs.rename")?;
        std::fs::rename(&tmp, path)?;
        // Not every platform allows opening a directory for sync; the
        // rename is already atomic, this only hardens against power loss.
        if let Ok(d) = File::open(&dir) {
            let _ = d.sync_all();
        }
        Ok(())
    })();
    if res.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    res
}

fn bad_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

// ---------------------------------------------------------------------
// Fingerprinting.

/// A deterministic fingerprint of an expanded campaign: FNV-1a over the
/// campaign name and every job's grid coordinates, seed, and duration.
/// Two machines that expand the same spec compute the same fingerprint;
/// any change to an axis, a seed range, or the horizon changes it —
/// which is how a store refuses to resume under a different spec.
pub fn fingerprint(campaign: &str, jobs: &[Job]) -> u64 {
    let mut h = Fnv1a::default();
    h.write_str(campaign);
    h.write_u64(jobs.len() as u64);
    for j in jobs {
        h.write_u64(j.index as u64);
        h.write_str(&j.point.stack.name);
        h.write_f64(j.point.rate_kbps);
        h.write_u64(j.point.nodes as u64);
        h.write_f64(j.point.speed_mps);
        // The traffic label carries the model's parameters
        // (`TrafficModel::label`) and the radio label names a fixed
        // registry profile, so hashing the labels pins both axes.
        h.write_str(&j.point.traffic);
        h.write_str(&j.point.radio);
        h.write_str(&j.point.failure);
        h.write_u64(j.point.seed);
        h.write_u64(j.scenario.duration.as_nanos());
        // The failure *label* above is free text — hash the actual kill
        // schedule too, or two plans with the same label would collide
        // and a store would resume under different failure injections.
        h.write_u64(j.scenario.node_failures.len() as u64);
        for &(at, node) in &j.scenario.node_failures {
            h.write_u64(at.as_nanos());
            h.write_u64(node as u64);
        }
        // Likewise the radio label: every unnamed builder-supplied mix
        // is spelled "custom", so hash the actual base card and
        // per-node assignment or two different hardware mixes would
        // resume into one store.
        hash_card(&mut h, &j.scenario.card);
        match &j.scenario.card_assignment {
            eend_wireless::CardAssignment::Uniform => h.write_u64(0),
            eend_wireless::CardAssignment::Alternating(cards) => {
                h.write_u64(1 + cards.len() as u64);
                for c in cards {
                    hash_card(&mut h, c);
                }
            }
        }
    }
    h.finish()
}

/// Hashes a radio card's identity: name plus every power-model
/// parameter, so even two cards sharing a name cannot collide.
fn hash_card(h: &mut Fnv1a, c: &eend_radio::RadioCard) {
    h.write_str(c.name);
    for v in [
        c.p_idle_mw,
        c.p_rx_mw,
        c.p_sleep_mw,
        c.p_base_mw,
        c.alpha2,
        c.path_loss_n,
        c.nominal_range_m,
        c.switch_energy_mj,
    ] {
        h.write_f64(v);
    }
}

// ---------------------------------------------------------------------
// Spec axes (the CLI-expressible subset of a CampaignSpec).

/// The axes of a CLI-launched campaign, as stored in a manifest so that
/// `merge` (and a resume on another machine) can rebuild the spec
/// without the user re-stating it. Stacks, traffic models and radio
/// profiles are stored by name/label and resolved through their
/// registries ([`eend_wireless::stacks::by_name`],
/// [`eend_wireless::TrafficModel::parse`],
/// [`eend_wireless::radio_profiles::by_name`]); failure plans serialize
/// in full (label + kill schedule). Campaigns whose stacks or profiles
/// are not registry members — typically custom
/// [`crate::spec::CampaignSpec::expand_with`] builders — cannot be
/// represented here and use the job-list APIs directly.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecAxes {
    /// Preset family ([`BaseScenario::name`] spelling).
    pub preset: String,
    /// Stack names, in sweep order.
    pub stacks: Vec<String>,
    /// Rate axis (Kbit/s); empty = preset default.
    pub rates: Vec<f64>,
    /// Node-count axis (density preset only).
    pub node_counts: Vec<usize>,
    /// Mobility-speed axis (m/s).
    pub speeds: Vec<f64>,
    /// Traffic-model axis ([`eend_wireless::TrafficModel::label`]
    /// spellings); empty = CBR only.
    pub traffic: Vec<String>,
    /// Radio-profile axis (registry names); empty = uniform only.
    pub radio: Vec<String>,
    /// Failure-plan axis (full plans, not just labels); empty = none.
    pub failures: Vec<FailurePlan>,
    /// Seeded runs per cell.
    pub seeds: u64,
    /// Seed offset.
    pub seed_base: u64,
    /// Duration override in seconds.
    pub secs: Option<u64>,
}

impl SpecAxes {
    /// Captures the axes of `spec` (stacks, traffic models and radio
    /// profiles by name; failure plans in full). Returns `None` when a
    /// stack or radio profile is not a registry member — such a spec
    /// cannot be rebuilt from names alone.
    pub fn of(spec: &CampaignSpec) -> Option<SpecAxes> {
        for s in &spec.stacks {
            if stacks::by_name(&s.name).as_ref() != Some(s) {
                return None;
            }
        }
        for p in &spec.radio_profiles {
            if eend_wireless::radio_profiles::by_name(p.name).as_ref() != Some(p) {
                return None;
            }
        }
        Some(SpecAxes {
            preset: spec.base.name().to_owned(),
            stacks: spec.stacks.iter().map(|s| s.name.clone()).collect(),
            rates: spec.rates_kbps.clone(),
            node_counts: spec.node_counts.clone(),
            speeds: spec.speeds_mps.clone(),
            traffic: spec.traffic_models.iter().map(|m| m.label()).collect(),
            radio: spec.radio_profiles.iter().map(|p| p.name.to_owned()).collect(),
            failures: spec.failures.clone(),
            seeds: spec.seed_count,
            seed_base: spec.seed_base,
            secs: spec.secs,
        })
    }

    /// Rebuilds the [`CampaignSpec`] these axes describe.
    pub fn to_spec(&self, campaign: &str) -> io::Result<CampaignSpec> {
        let base = BaseScenario::parse(&self.preset)
            .ok_or_else(|| bad_data(format!("manifest names unknown preset {:?}", self.preset)))?;
        let mut stack_list = Vec::with_capacity(self.stacks.len());
        for name in &self.stacks {
            stack_list.push(stacks::by_name(name).ok_or_else(|| {
                bad_data(format!("manifest names unknown stack {name:?}"))
            })?);
        }
        let mut traffic = Vec::with_capacity(self.traffic.len());
        for label in &self.traffic {
            traffic.push(eend_wireless::TrafficModel::parse(label).ok_or_else(|| {
                bad_data(format!("manifest names unknown traffic model {label:?}"))
            })?);
        }
        let mut radio = Vec::with_capacity(self.radio.len());
        for name in &self.radio {
            radio.push(eend_wireless::radio_profiles::by_name(name).ok_or_else(|| {
                bad_data(format!("manifest names unknown radio profile {name:?}"))
            })?);
        }
        let mut spec = CampaignSpec::new(campaign, base)
            .stacks(stack_list)
            .rates(self.rates.clone())
            .node_counts(self.node_counts.clone())
            .speeds(self.speeds.clone())
            .traffic(traffic)
            .radio_profiles(radio)
            .failures(self.failures.clone())
            .seeds(self.seeds)
            .seed_base(self.seed_base);
        if let Some(secs) = self.secs {
            spec = spec.secs(secs);
        }
        Ok(spec)
    }

    /// Renders these axes as a JSON object — the `"axes"` value of
    /// `manifest.json`, and the schema `eend-serve`'s submit endpoint
    /// accepts, so a spec submitted over the wire is exactly a `--out`
    /// campaign.
    pub fn to_json(&self) -> String {
        let failures = self
            .failures
            .iter()
            .map(|p| {
                let kills = p
                    .kills
                    .iter()
                    .map(|&(at, node)| format!("[{},{node}]", json_num(at)))
                    .collect::<Vec<_>>()
                    .join(",");
                format!("{{\"label\":{},\"kills\":[{kills}]}}", json_str(&p.label))
            })
            .collect::<Vec<_>>()
            .join(",");
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"preset\":{},\"stacks\":[{}],\"rates\":[{}],\
             \"node_counts\":[{}],\"speeds\":[{}],\"traffic\":[{}],\
             \"radio\":[{}],\"failures\":[{failures}],\"seeds\":{},\
             \"seed_base\":{},\"secs\":{}}}",
            json_str(&self.preset),
            self.stacks.iter().map(|n| json_str(n)).collect::<Vec<_>>().join(","),
            self.rates.iter().map(|r| json_num(*r)).collect::<Vec<_>>().join(","),
            self.node_counts.iter().map(|n| n.to_string()).collect::<Vec<_>>().join(","),
            self.speeds.iter().map(|v| json_num(*v)).collect::<Vec<_>>().join(","),
            self.traffic.iter().map(|t| json_str(t)).collect::<Vec<_>>().join(","),
            self.radio.iter().map(|r| json_str(r)).collect::<Vec<_>>().join(","),
            self.seeds,
            self.seed_base,
            match self.secs {
                Some(v) => v.to_string(),
                None => "null".to_owned(),
            }
        );
        s
    }

    /// Parses the JSON object form produced by [`SpecAxes::to_json`].
    pub fn from_json(text: &str) -> io::Result<SpecAxes> {
        SpecAxes::from_jval(&parse_json(text)?)
    }

    /// Parses an already-parsed axes object (shared by the manifest
    /// reader and the serve submit endpoint).
    pub(crate) fn from_jval(a: &JVal) -> io::Result<SpecAxes> {
        Ok(SpecAxes {
            preset: a.get("preset")?.str()?.to_owned(),
            stacks: a
                .get("stacks")?
                .arr()?
                .iter()
                .map(|s| s.str().map(str::to_owned))
                .collect::<io::Result<_>>()?,
            rates: a.get("rates")?.arr()?.iter().map(|x| x.f64()).collect::<io::Result<_>>()?,
            node_counts: a
                .get("node_counts")?
                .arr()?
                .iter()
                .map(|x| x.usize())
                .collect::<io::Result<_>>()?,
            speeds: a.get("speeds")?.arr()?.iter().map(|x| x.f64()).collect::<io::Result<_>>()?,
            traffic: a
                .get("traffic")?
                .arr()?
                .iter()
                .map(|t| t.str().map(str::to_owned))
                .collect::<io::Result<_>>()?,
            radio: a
                .get("radio")?
                .arr()?
                .iter()
                .map(|r| r.str().map(str::to_owned))
                .collect::<io::Result<_>>()?,
            failures: a
                .get("failures")?
                .arr()?
                .iter()
                .map(|p| {
                    Ok(FailurePlan {
                        label: p.get("label")?.str()?.to_owned(),
                        kills: p
                            .get("kills")?
                            .arr()?
                            .iter()
                            .map(|k| {
                                let k = k.arr()?;
                                if k.len() != 2 {
                                    return Err(bad_data("kill needs [secs, node]"));
                                }
                                Ok((k[0].f64()?, k[1].usize()?))
                            })
                            .collect::<io::Result<_>>()?,
                    })
                })
                .collect::<io::Result<_>>()?,
            seeds: a.get("seeds")?.u64()?,
            seed_base: a.get("seed_base")?.u64()?,
            secs: match a.get("secs")? {
                JVal::Null => None,
                x => Some(x.u64()?),
            },
        })
    }
}

// ---------------------------------------------------------------------
// Manifest.

/// The identity of a store: which campaign, which expansion (by
/// fingerprint), and which shard of it this directory holds.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Campaign name.
    pub campaign: String,
    /// [`fingerprint`] of the **full** expanded job list (all shards).
    pub fingerprint: u64,
    /// Job count of the full expansion.
    pub total_jobs: usize,
    /// Which shard this store holds (0-based).
    pub shard_index: usize,
    /// Of how many shards (1 = unsharded).
    pub shard_count: usize,
    /// CLI-expressible axes, when the campaign has them.
    pub axes: Option<SpecAxes>,
    /// The [`FailurePolicy`] label this store runs under (`None` =
    /// abort, the default). Stored beside the axes so a *resumed*
    /// campaign keeps the policy it was launched with; not part of the
    /// store's identity, so re-opening with a different policy updates
    /// the manifest instead of refusing.
    pub on_failure: Option<String>,
}

impl Manifest {
    /// The manifest of shard `index`/`count` of `spec` (use `(0, 1)`
    /// for an unsharded store). Captures the axes when expressible.
    pub fn for_spec(spec: &CampaignSpec, index: usize, count: usize) -> Manifest {
        assert!(count > 0 && index < count, "bad shard {index}/{count}");
        let jobs = spec.expand();
        Manifest {
            campaign: spec.name.clone(),
            fingerprint: fingerprint(&spec.name, &jobs),
            total_jobs: jobs.len(),
            shard_index: index,
            shard_count: count,
            axes: SpecAxes::of(spec),
            on_failure: None,
        }
    }

    /// The failure policy this manifest records (absent or unparsable
    /// labels mean the default, [`FailurePolicy::Abort`]).
    pub fn policy(&self) -> FailurePolicy {
        self.on_failure
            .as_deref()
            .and_then(FailurePolicy::parse)
            .unwrap_or(FailurePolicy::Abort)
    }

    fn to_json(&self) -> String {
        let mut s = String::from("{");
        let _ = write!(
            s,
            "\"version\":2,\"campaign\":{},\"fingerprint\":\"{:016x}\",\
             \"total_jobs\":{},\"shard_index\":{},\"shard_count\":{}",
            json_str(&self.campaign),
            self.fingerprint,
            self.total_jobs,
            self.shard_index,
            self.shard_count
        );
        match &self.on_failure {
            None => s.push_str(",\"on_failure\":null"),
            Some(p) => {
                let _ = write!(s, ",\"on_failure\":{}", json_str(p));
            }
        }
        match &self.axes {
            None => s.push_str(",\"axes\":null"),
            Some(a) => {
                let _ = write!(s, ",\"axes\":{}", a.to_json());
            }
        }
        s.push_str("}\n");
        s
    }

    fn from_json(text: &str) -> io::Result<Manifest> {
        let v = parse_json(text)?;
        // Version 2 added the traffic/radio/failure axes (and axis
        // identity on record lines); older stores cannot be resumed by
        // this build — say so instead of failing on a missing key.
        let version = v.get("version")?.u64()?;
        if version != 2 {
            return Err(bad_data(format!(
                "store manifest version {version} is not supported by this build \
                 (expected 2); re-run the campaign into a fresh store or merge it \
                 with the binary that wrote it"
            )));
        }
        let fp_hex = v.get("fingerprint")?.str()?;
        let fingerprint = u64::from_str_radix(fp_hex, 16)
            .map_err(|_| bad_data(format!("bad fingerprint {fp_hex:?}")))?;
        let axes = match v.get("axes")? {
            JVal::Null => None,
            a => Some(SpecAxes::from_jval(a)?),
        };
        // Optional: version-2 manifests written before failure policies
        // existed simply lack the key, which means abort (the default).
        let on_failure = match v.get_opt("on_failure")? {
            None | Some(JVal::Null) => None,
            Some(p) => Some(p.str()?.to_owned()),
        };
        Ok(Manifest {
            campaign: v.get("campaign")?.str()?.to_owned(),
            fingerprint,
            total_jobs: v.get("total_jobs")?.usize()?,
            shard_index: v.get("shard_index")?.usize()?,
            shard_count: v.get("shard_count")?.usize()?,
            axes,
            on_failure,
        })
    }
}

// ---------------------------------------------------------------------
// The store.

/// One campaign shard's durable results. See the [module docs](self).
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    manifest: Manifest,
    completed: BTreeSet<usize>,
    failures: BTreeMap<usize, JobFailure>,
    records: Journal,
    failure_log: Journal,
}

impl ResultStore {
    /// Opens (or creates) the store at `dir` for the campaign `manifest`
    /// describes.
    ///
    /// A fresh directory is initialised with the manifest. An existing
    /// one must carry the **same** manifest — same fingerprint, shard,
    /// and job count — otherwise the store refuses with
    /// [`io::ErrorKind::InvalidData`]: resuming a campaign under a
    /// different spec would silently mix incompatible records.
    /// Completed job ids are recovered from `records.jsonl`; a partial
    /// trailing line (the footprint of a killed process) is truncated
    /// away, and interior corruption or a duplicated job id is an error.
    pub fn open(dir: impl AsRef<Path>, mut manifest: Manifest) -> io::Result<ResultStore> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let manifest_path = dir.join(MANIFEST_FILE);
        if manifest_path.exists() {
            let existing = read_manifest(&manifest_path)?;
            if existing.fingerprint != manifest.fingerprint
                || existing.total_jobs != manifest.total_jobs
                || existing.shard_index != manifest.shard_index
                || existing.shard_count != manifest.shard_count
                || existing.campaign != manifest.campaign
            {
                return Err(bad_data(format!(
                    "store at {} belongs to campaign {:?} (fingerprint {:016x}, \
                     {} jobs, shard {}/{}) — refusing to resume campaign {:?} \
                     (fingerprint {:016x}, {} jobs, shard {}/{})",
                    dir.display(),
                    existing.campaign,
                    existing.fingerprint,
                    existing.total_jobs,
                    existing.shard_index,
                    existing.shard_count,
                    manifest.campaign,
                    manifest.fingerprint,
                    manifest.total_jobs,
                    manifest.shard_index,
                    manifest.shard_count,
                )));
            }
            // The failure policy is *state*, not identity: an explicit
            // policy on this open wins (and is persisted for the next
            // resume); `None` inherits whatever the store already runs
            // under.
            let effective = manifest.on_failure.clone().or_else(|| existing.on_failure.clone());
            manifest.on_failure = effective;
            if manifest.on_failure != existing.on_failure {
                write_atomic(&manifest_path, manifest.to_json().as_bytes())?;
            }
        } else {
            write_atomic(&manifest_path, manifest.to_json().as_bytes())?;
        }
        ResultStore::load(dir, manifest)
    }

    /// Opens a store that already exists, trusting its on-disk manifest
    /// (the entry point for `merge`, which learns the campaign *from*
    /// the stores). Prefer [`ResultStore::open`] when the expected spec
    /// is known — it cross-checks the fingerprint.
    pub fn open_existing(dir: impl AsRef<Path>) -> io::Result<ResultStore> {
        let dir = dir.as_ref().to_path_buf();
        let manifest = read_manifest(&dir.join(MANIFEST_FILE))?;
        ResultStore::load(dir, manifest)
    }

    /// Opens both journals, recovering completed job ids and the
    /// contained failures of jobs still pending. `failures.jsonl` is an
    /// append-only log: a job may appear several times across
    /// interrupted runs (the last entry wins).
    fn load(dir: PathBuf, manifest: Manifest) -> io::Result<ResultStore> {
        let total = manifest.total_jobs;
        let mut completed = BTreeSet::new();
        let records_path = dir.join(RECORDS_FILE);
        let records = Journal::open(&records_path, Some("store.flush"), record_id, |id, line| {
            if id >= total {
                return Err(bad_data(format!("record for job {id} out of range ({total} total)")));
            }
            if !completed.insert(id) {
                return Err(bad_data(format!(
                    "job {id} has more than one record in {} (line {line}) — the store \
                     has been corrupted or merged with itself",
                    records_path.display()
                )));
            }
            Ok(())
        })?;
        let mut failures = BTreeMap::new();
        let failure_log =
            Journal::open(dir.join(FAILURES_FILE), None, failure_from_line, |f, _| {
                failures.insert(f.job_id, f);
                Ok(())
            })?;
        failures.retain(|id, _| !completed.contains(id));
        Ok(ResultStore { dir, manifest, completed, failures, records, failure_log })
    }

    /// The manifest this store was opened with.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Global job ids with durable records.
    pub fn completed(&self) -> &BTreeSet<usize> {
        &self.completed
    }

    /// Contained job failures recorded in `failures.jsonl`, keyed by
    /// global job id. A failed job has no record, so it stays
    /// [`ResultStore::pending`] — resuming re-attempts exactly these;
    /// entries whose job has since completed are pruned on open.
    pub fn failures(&self) -> &BTreeMap<usize, JobFailure> {
        &self.failures
    }

    /// The failure policy this store runs under (from its manifest;
    /// absent means [`FailurePolicy::Abort`]).
    pub fn policy(&self) -> FailurePolicy {
        self.manifest.policy()
    }

    /// This shard's jobs that still lack a durable record, in job order.
    pub fn pending(&self, shard_jobs: &[Job]) -> Vec<Job> {
        shard_jobs.iter().filter(|j| !self.completed.contains(&j.index)).cloned().collect()
    }

    /// `true` when every job of `shard_jobs` has a durable record.
    pub fn is_complete(&self, shard_jobs: &[Job]) -> bool {
        shard_jobs.iter().all(|j| self.completed.contains(&j.index))
    }

    /// Simulates every *missing* job of this shard on `scheduler` (a
    /// private [`crate::Executor`] or the shared [`crate::WorkerPool`]),
    /// appending each record durably (flushed per record) as it streams
    /// out in job order, and returns how many jobs actually ran.
    /// Already-completed jobs are skipped — calling this after an
    /// interruption finishes exactly the remainder. `limit` caps how
    /// many pending jobs run (used by the resume smoke test to simulate
    /// an interruption deterministically).
    ///
    /// `shard_jobs` must be this store's shard slice of the campaign
    /// (`CampaignSpec::shard(shard_index, shard_count)`).
    pub fn run<S: JobScheduler + ?Sized>(
        &mut self,
        scheduler: &S,
        shard_jobs: &[Job],
        limit: Option<usize>,
    ) -> io::Result<usize> {
        self.run_observed(scheduler, shard_jobs, limit, |_| {})
    }

    /// [`ResultStore::run`] with a completion observer: `observe(id)`
    /// fires on the scheduling thread immediately after job `id`'s
    /// record is durable (written and flushed), in job order. The serve
    /// daemon uses this to wake streaming subscribers the moment a
    /// record can be tailed from disk, without a second scan.
    pub fn run_observed<S: JobScheduler + ?Sized>(
        &mut self,
        scheduler: &S,
        shard_jobs: &[Job],
        limit: Option<usize>,
        observe: impl FnMut(usize),
    ) -> io::Result<usize> {
        let opts = RunOptions { limit, policy: self.policy(), cancel: None };
        let outcome = self.run_with(scheduler, shard_jobs, &opts, observe)?;
        Ok(outcome.ran + outcome.failed)
    }

    /// The policy-aware run path under [`ResultStore::run`] /
    /// [`ResultStore::run_observed`]: simulates this shard's missing
    /// jobs under `opts.policy`, appending each record durably in job
    /// order, logging contained failures to `failures.jsonl`, and
    /// honouring a cooperative cancel flag — when `opts.cancel` goes
    /// high, the in-flight durable record is finished, no further jobs
    /// are claimed, and the call returns cleanly with
    /// [`RunOutcome::cancelled`] set (resuming later runs exactly the
    /// remainder).
    ///
    /// A run that re-attempts an earlier session's recorded failures
    /// appends their records out of id order; it compacts
    /// `records.jsonl` back to ascending ids before returning, so the
    /// streaming merge's order invariant holds for every finished run.
    ///
    /// Failpoints: `store.flush` (per record append, hit-counted),
    /// `store.bookkeep` (between a record's durable append and its
    /// in-memory bookkeeping, matched on the job id).
    pub fn run_with<S: JobScheduler + ?Sized>(
        &mut self,
        scheduler: &S,
        shard_jobs: &[Job],
        opts: &RunOptions<'_>,
        mut observe: impl FnMut(usize),
    ) -> io::Result<RunOutcome> {
        let (idx, cnt) = (self.manifest.shard_index, self.manifest.shard_count);
        for j in shard_jobs {
            if j.index % cnt != idx {
                return Err(bad_data(format!(
                    "job {} does not belong to shard {idx}/{cnt}",
                    j.index
                )));
            }
        }
        let mut todo = self.pending(shard_jobs);
        if let Some(limit) = opts.limit {
            todo.truncate(limit);
        }
        if todo.is_empty() {
            return Ok(RunOutcome { ran: 0, failed: 0, cancelled: false });
        }
        // Re-attempting a job that a *previous* session recorded as
        // failed appends its record after later jobs' records. Readers
        // (streaming merge, the serve tailer) rely on ascending ids, so
        // such a run compacts the file back into id order afterwards.
        let fills_gap = self
            .completed
            .iter()
            .next_back()
            .is_some_and(|max| todo.first().is_some_and(|j| j.index < *max));
        let records = &mut self.records;
        let failure_log = &mut self.failure_log;
        let completed = &mut self.completed;
        let failures = &mut self.failures;
        let mut line = String::new();
        let mut ran = 0usize;
        let mut failed = 0usize;
        let cancelled = std::cell::Cell::new(false);
        let cancel_after = |cancelled: &std::cell::Cell<bool>| -> io::Result<()> {
            if opts.cancel.is_some_and(|c| c.load(Ordering::SeqCst)) {
                cancelled.set(true);
                return Err(io::Error::new(io::ErrorKind::Interrupted, "shutdown requested"));
            }
            Ok(())
        };
        let mut on_record = |i: usize, record: &Record| {
            let id = todo[i].index;
            line.clear();
            record_line_into(&mut line, id, record);
            records.append(line.as_bytes(), &opts.policy)?;
            // Chaos hook: a kill landing *between* the durable
            // record and the bookkeeping that follows it.
            eend_fail::io_guard_at("store.bookkeep", id as u64)?;
            completed.insert(id);
            ran += 1;
            observe(id);
            cancel_after(&cancelled)
        };
        let mut on_failure = |f: &JobFailure| {
            // The journal creates the file on first append: a
            // fault-free campaign never has one.
            failure_log.append(failure_line(f).as_bytes(), &opts.policy)?;
            failures.insert(f.job_id, f.clone());
            failed += 1;
            cancel_after(&cancelled)
        };
        let result =
            scheduler.run_jobs_streaming(&todo, &opts.policy, &mut on_record, &mut on_failure);
        // A job that failed in an earlier session and succeeded in this
        // one leaves a stale failure entry; prune as open() would.
        let completed = &self.completed;
        self.failures.retain(|id, _| !completed.contains(id));
        if fills_gap && ran > 0 && (result.is_ok() || cancelled.get()) {
            self.compact_records()?;
        }
        match result {
            Ok(()) => Ok(RunOutcome { ran, failed, cancelled: false }),
            Err(_) if cancelled.get() => Ok(RunOutcome { ran, failed, cancelled: true }),
            Err(e) => Err(e),
        }
    }

    /// Rewrites `records.jsonl` in ascending job-id order (atomically,
    /// temp + rename). Only needed after a run that filled a gap left
    /// by an earlier session's contained failure; fault-free stores are
    /// always appended in order and never pay this.
    fn compact_records(&mut self) -> io::Result<()> {
        let mut lines = Journal::read(self.records.path())?;
        let mut entries = Vec::new();
        while let Some(entry) = lines.next(|l| Ok((record_id(l)?, l.to_owned())))? {
            entries.push(entry);
        }
        entries.sort_by_key(|(id, _)| *id);
        let mut out = String::new();
        for (_, line) in entries {
            out.push_str(&line);
            out.push('\n');
        }
        self.records.replace(out.as_bytes())
    }

    /// Reassembles this (unsharded) store into a [`CampaignResult`] —
    /// shorthand for [`merge_stores`] over one store. `jobs` must be the
    /// full expansion the store was created from.
    pub fn assemble(&self, jobs: &[Job]) -> io::Result<CampaignResult> {
        merge_stores(&[self], jobs)
    }
}

/// Options for [`ResultStore::run_with`].
#[derive(Debug, Default)]
pub struct RunOptions<'a> {
    /// Cap on how many pending jobs run (used by the resume smoke test
    /// to simulate an interruption deterministically).
    pub limit: Option<usize>,
    /// What a panicking job does to the run (and how many attempts a
    /// failing record append gets).
    pub policy: FailurePolicy,
    /// Cooperative cancellation: checked after every durable record, so
    /// a graceful shutdown finishes the in-flight record and stops.
    pub cancel: Option<&'a AtomicBool>,
}

/// What a [`ResultStore::run_with`] call accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Jobs whose records were appended durably.
    pub ran: usize,
    /// Jobs whose panics the policy contained (logged to
    /// `failures.jsonl`; still pending for the next resume).
    pub failed: usize,
    /// The run stopped early because the cancel flag went high.
    pub cancelled: bool,
}

/// Reads and parses a store manifest, labelling unreadable content as
/// the probably-torn artefact it is rather than a bare parse error.
/// (New manifests are written via [`write_atomic`], so a torn manifest
/// means an older writer or a non-atomic filesystem was involved.)
fn read_manifest(path: &Path) -> io::Result<Manifest> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        io::Error::new(e.kind(), format!("no store manifest at {}: {e}", path.display()))
    })?;
    Manifest::from_json(&text).map_err(|e| {
        bad_data(format!(
            "store manifest at {} is unreadable: {e} — if this store was written by an \
             older build the manifest may be a torn write from a killed process; \
             re-create the store or restore the manifest from its shard peers",
            path.display()
        ))
    })
}

/// Merges shard stores back into one in-order [`CampaignResult`].
///
/// All stores must carry the same fingerprint and job count as `jobs`
/// (the full expansion), and together they must cover every job exactly
/// once. Each record's stored stack name and seed are cross-checked
/// against the job list as defence in depth.
///
/// This is [`merge_stores_streaming`] into a [`crate::MemorySink`]; use
/// the streaming form directly when the merged records only need to be
/// rendered or aggregated, so the full result never materializes.
pub fn merge_stores(stores: &[&ResultStore], jobs: &[Job]) -> io::Result<CampaignResult> {
    let first = stores.first().ok_or_else(|| bad_data("no stores to merge"))?;
    let campaign = first.manifest.campaign.clone();
    let mut sink = crate::sink::MemorySink::new();
    merge_stores_streaming(stores, jobs, &mut sink)?;
    Ok(CampaignResult { campaign, records: sink.into_records() })
}

/// Streams the union of shard stores' records, in job order, into a
/// [`RecordSink`] — the engine under [`merge_stores`], `eend-cli
/// campaign merge --csv`, and the serve daemon's aggregate endpoint.
/// Unlike materializing a [`CampaignResult`], at most one parsed record
/// per store is held at a time (plus whatever the sink retains), so
/// grids larger than RAM still merge.
///
/// The integrity contract of [`merge_stores`] applies: every store must
/// carry the merged expansion's fingerprint and job count, every job
/// must be covered exactly once across the stores, and each record's
/// stored identity is cross-checked against the job it claims to be.
/// The single-pass merge additionally relies on — and enforces — the
/// order [`ResultStore::run`] writes: record ids strictly ascend within
/// each store, so a duplicated or reordered line is refused.
pub fn merge_stores_streaming(
    stores: &[&ResultStore],
    jobs: &[Job],
    sink: &mut dyn RecordSink,
) -> io::Result<()> {
    let first = stores.first().ok_or_else(|| bad_data("no stores to merge"))?;
    let campaign = first.manifest.campaign.clone();
    let fp = fingerprint(&campaign, jobs);
    for store in stores {
        let m = &store.manifest;
        if m.fingerprint != fp || m.total_jobs != jobs.len() || m.campaign != campaign {
            return Err(bad_data(format!(
                "store at {} (campaign {:?}, fingerprint {:016x}, {} jobs) does not \
                 match the expansion being merged (campaign {:?}, fingerprint {fp:016x}, \
                 {} jobs)",
                store.dir.display(),
                m.campaign,
                m.fingerprint,
                m.total_jobs,
                campaign,
                jobs.len(),
            )));
        }
    }
    let mut cursors = Vec::with_capacity(stores.len());
    for store in stores {
        let mut c = RecordCursor::open(store)?;
        c.advance()?;
        cursors.push(c);
    }
    for job in jobs {
        let mut found: Option<usize> = None;
        for (ci, c) in cursors.iter().enumerate() {
            if c.head.as_ref().map(|(id, _)| *id) == Some(job.index) {
                if found.is_some() {
                    return Err(bad_data(format!(
                        "job {} appears in more than one store",
                        job.index
                    )));
                }
                found = Some(ci);
            }
        }
        let Some(ci) = found else {
            return Err(bad_data(format!(
                "job {} ({}, seed {}) has no record in any store — campaign incomplete",
                job.index, job.point.stack.name, job.point.seed
            )));
        };
        let cursor = &mut cursors[ci];
        let (_, v) = cursor.head.take().expect("head id matched above");
        verify_line_identity(&v, job)?;
        let metrics = metrics_from_json(v.get("metrics")?)?;
        sink.accept(&Record { point: job.point.clone(), metrics })?;
        cursor.advance()?;
    }
    // Ascending order means any record the job loop never claimed is
    // still parked at some cursor's head: an out-of-range id.
    for c in &cursors {
        if let Some((id, _)) = &c.head {
            return Err(bad_data(format!(
                "record for job {id} in {} is outside the merged expansion ({} jobs)",
                c.lines.path().display(),
                jobs.len()
            )));
        }
    }
    sink.finish()
}

/// A sequential, constant-memory reader over one store's record lines:
/// holds only the current parsed record, enforcing strictly ascending
/// job ids (the order [`ResultStore::run`] appends). A torn final line
/// reads as end-of-file, as for any [`Journal`] reader.
struct RecordCursor {
    lines: JournalReader,
    last_id: Option<usize>,
    head: Option<(usize, JVal)>,
}

impl RecordCursor {
    fn open(store: &ResultStore) -> io::Result<RecordCursor> {
        Ok(RecordCursor { lines: Journal::read(store.records.path())?, last_id: None, head: None })
    }

    /// Reads the next record line into `head`, or leaves it `None` at
    /// end-of-file.
    fn advance(&mut self) -> io::Result<()> {
        self.head = self.lines.next(|l| {
            let v = parse_json(l)?;
            Ok((v.get("job")?.usize()?, v))
        })?;
        let Some((id, _)) = self.head else { return Ok(()) };
        if let Some(last) = self.last_id.filter(|&last| id <= last) {
            return Err(bad_data(format!(
                "job {id} follows job {last} in {} (line {}) — records must \
                 strictly ascend within a store, so this line is a duplicate \
                 or the file has been reordered",
                self.lines.path().display(),
                self.lines.line_no()
            )));
        }
        self.last_id = Some(id);
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Record (de)serialization.

fn energy_report_into(out: &mut String, r: &EnergyReport) {
    let _ = write!(
        out,
        "[{},{},{},{},{},{},{},{},{},{},{},{}]",
        json_num(r.idle_mj),
        json_num(r.sleep_mj),
        json_num(r.switch_mj),
        json_num(r.tx_data_mj),
        json_num(r.tx_ctrl_mj),
        json_num(r.rx_data_mj),
        json_num(r.rx_ctrl_mj),
        r.time_tx.as_nanos(),
        r.time_rx.as_nanos(),
        r.time_idle.as_nanos(),
        r.time_sleep.as_nanos(),
        r.wakeups
    );
}

fn energy_report_from(v: &JVal) -> io::Result<EnergyReport> {
    let a = v.arr()?;
    if a.len() != 12 {
        return Err(bad_data(format!("energy report needs 12 fields, got {}", a.len())));
    }
    Ok(EnergyReport {
        idle_mj: a[0].f64()?,
        sleep_mj: a[1].f64()?,
        switch_mj: a[2].f64()?,
        tx_data_mj: a[3].f64()?,
        tx_ctrl_mj: a[4].f64()?,
        rx_data_mj: a[5].f64()?,
        rx_ctrl_mj: a[6].f64()?,
        time_tx: SimDuration::from_nanos(a[7].u64()?),
        time_rx: SimDuration::from_nanos(a[8].u64()?),
        time_idle: SimDuration::from_nanos(a[9].u64()?),
        time_sleep: SimDuration::from_nanos(a[10].u64()?),
        wakeups: a[11].u64()?,
    })
}

/// Renders one store line: global job id, the point's identity
/// (cross-checked on merge), and the complete metrics. All f64s use
/// Rust's shortest-round-trip formatting, so parsing restores the exact
/// bit pattern and the reassembled result is byte-identical to an
/// in-memory run.
fn record_line_into(out: &mut String, id: usize, record: &Record) {
    let p = &record.point;
    let m = &record.metrics;
    let _ = write!(
        out,
        "{{\"job\":{id},\"stack\":{},\"seed\":{},\"traffic\":{},\"radio\":{},\"metrics\":{{",
        json_str(&p.stack.name),
        p.seed,
        json_str(&p.traffic),
        json_str(&p.radio)
    );
    let _ = write!(
        out,
        "\"data_sent\":{},\"data_delivered\":{},\"delivered_bits\":{},\
         \"drops_no_route\":{},\"drops_link_failure\":{},\"drops_buffer\":{},\
         \"drops_ifq\":{},\"rreq_tx\":{},\"rrep_tx\":{},\"rerr_tx\":{},\
         \"dsdv_update_tx\":{},\"atim_tx\":{},\"broadcast_collisions\":{},\
         \"rts_collisions\":{},\"link_failures\":{},\"data_forwarders\":{},\
         \"duration_s\":{}",
        m.data_sent,
        m.data_delivered,
        json_num(m.delivered_bits),
        m.drops_no_route,
        m.drops_link_failure,
        m.drops_buffer,
        m.drops_ifq,
        m.rreq_tx,
        m.rrep_tx,
        m.rerr_tx,
        m.dsdv_update_tx,
        m.atim_tx,
        m.broadcast_collisions,
        m.rts_collisions,
        m.link_failures,
        m.data_forwarders,
        json_num(m.duration_s)
    );
    out.push_str(",\"energy_total\":");
    energy_report_into(out, &m.energy_total);
    out.push_str(",\"per_node_energy\":[");
    for (i, r) in m.per_node_energy.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        energy_report_into(out, r);
    }
    out.push_str("],\"routes\":[");
    for (i, route) in m.routes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match route {
            None => out.push_str("null"),
            Some(hops) => {
                out.push('[');
                for (k, h) in hops.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{h}");
                }
                out.push(']');
            }
        }
    }
    out.push_str("]}}\n");
}

/// The job id of one `records.jsonl` line (the journal decoder).
fn record_id(line: &str) -> io::Result<usize> {
    parse_json(line)?.get("job")?.usize()
}

/// Renders one `failures.jsonl` line.
fn failure_line(f: &JobFailure) -> String {
    format!(
        "{{\"job\":{},\"attempts\":{},\"cause\":{}}}\n",
        f.job_id,
        f.attempts,
        json_str(&f.cause)
    )
}

/// Decodes one `failures.jsonl` line.
fn failure_from_line(line: &str) -> io::Result<JobFailure> {
    let v = parse_json(line)?;
    Ok(JobFailure {
        job_id: v.get("job")?.usize()?,
        attempts: v.get("attempts")?.u64()? as u32,
        cause: v.get("cause")?.str()?.to_owned(),
    })
}

pub(crate) fn metrics_from_json(v: &JVal) -> io::Result<RunMetrics> {
    Ok(RunMetrics {
        data_sent: v.get("data_sent")?.u64()?,
        data_delivered: v.get("data_delivered")?.u64()?,
        delivered_bits: v.get("delivered_bits")?.f64()?,
        drops_no_route: v.get("drops_no_route")?.u64()?,
        drops_link_failure: v.get("drops_link_failure")?.u64()?,
        drops_buffer: v.get("drops_buffer")?.u64()?,
        drops_ifq: v.get("drops_ifq")?.u64()?,
        rreq_tx: v.get("rreq_tx")?.u64()?,
        rrep_tx: v.get("rrep_tx")?.u64()?,
        rerr_tx: v.get("rerr_tx")?.u64()?,
        dsdv_update_tx: v.get("dsdv_update_tx")?.u64()?,
        atim_tx: v.get("atim_tx")?.u64()?,
        broadcast_collisions: v.get("broadcast_collisions")?.u64()?,
        rts_collisions: v.get("rts_collisions")?.u64()?,
        link_failures: v.get("link_failures")?.u64()?,
        per_node_energy: v
            .get("per_node_energy")?
            .arr()?
            .iter()
            .map(energy_report_from)
            .collect::<io::Result<_>>()?,
        energy_total: energy_report_from(v.get("energy_total")?)?,
        data_forwarders: v.get("data_forwarders")?.usize()?,
        routes: v
            .get("routes")?
            .arr()?
            .iter()
            .map(|r| match r {
                JVal::Null => Ok(None),
                _ => Ok(Some(r.arr()?.iter().map(|h| h.usize()).collect::<io::Result<_>>()?)),
            })
            .collect::<io::Result<_>>()?,
        duration_s: v.get("duration_s")?.f64()?,
    })
}

/// Cross-checks a stored line's identity against the job it claims to
/// be (used by the store tests; merge calls it per record).
pub(crate) fn verify_line_identity(v: &JVal, job: &Job) -> io::Result<()> {
    let stack = v.get("stack")?.str()?;
    let seed = v.get("seed")?.u64()?;
    let traffic = v.get("traffic")?.str()?;
    let radio = v.get("radio")?.str()?;
    let p = &job.point;
    if stack != p.stack.name || seed != p.seed || traffic != p.traffic || radio != p.radio {
        return Err(bad_data(format!(
            "record for job {} claims ({stack:?}, seed {seed}, traffic {traffic:?}, \
             radio {radio:?}) but the spec expands to ({:?}, seed {}, traffic {:?}, radio {:?})",
            job.index, p.stack.name, p.seed, p.traffic, p.radio
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Minimal JSON.

/// A parsed JSON value. Numbers keep their raw token so u64s round-trip
/// without an f64 detour and f64s restore their exact bit pattern.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum JVal {
    Null,
    Bool(bool),
    Num(String),
    Str(String),
    Arr(Vec<JVal>),
    Obj(Vec<(String, JVal)>),
}

impl JVal {
    fn type_name(&self) -> &'static str {
        match self {
            JVal::Null => "null",
            JVal::Bool(_) => "bool",
            JVal::Num(_) => "number",
            JVal::Str(_) => "string",
            JVal::Arr(_) => "array",
            JVal::Obj(_) => "object",
        }
    }

    pub(crate) fn get(&self, key: &str) -> io::Result<&JVal> {
        let JVal::Obj(pairs) = self else {
            return Err(bad_data(format!("expected object with {key:?}, got {}", self.type_name())));
        };
        pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| bad_data(format!("missing key {key:?}")))
    }

    /// Like [`JVal::get`], but a missing key reads as `None` (for keys
    /// added after files in the wild were written).
    pub(crate) fn get_opt(&self, key: &str) -> io::Result<Option<&JVal>> {
        let JVal::Obj(pairs) = self else {
            return Err(bad_data(format!("expected object with {key:?}, got {}", self.type_name())));
        };
        Ok(pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }

    pub(crate) fn str(&self) -> io::Result<&str> {
        match self {
            JVal::Str(s) => Ok(s),
            other => Err(bad_data(format!("expected string, got {}", other.type_name()))),
        }
    }

    pub(crate) fn arr(&self) -> io::Result<&[JVal]> {
        match self {
            JVal::Arr(a) => Ok(a),
            other => Err(bad_data(format!("expected array, got {}", other.type_name()))),
        }
    }

    pub(crate) fn u64(&self) -> io::Result<u64> {
        match self {
            JVal::Num(raw) => {
                raw.parse().map_err(|_| bad_data(format!("expected u64, got {raw:?}")))
            }
            other => Err(bad_data(format!("expected number, got {}", other.type_name()))),
        }
    }

    pub(crate) fn usize(&self) -> io::Result<usize> {
        self.u64().map(|v| v as usize)
    }

    pub(crate) fn f64(&self) -> io::Result<f64> {
        match self {
            JVal::Num(raw) => {
                raw.parse().map_err(|_| bad_data(format!("expected f64, got {raw:?}")))
            }
            other => Err(bad_data(format!("expected number, got {}", other.type_name()))),
        }
    }
}

/// Parses one complete JSON document (with nothing but whitespace
/// after it).
pub(crate) fn parse_json(text: &str) -> io::Result<JVal> {
    let mut p = JsonParser { s: text, i: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.i != p.s.len() {
        return Err(bad_data(format!("trailing garbage at byte {}", p.i)));
    }
    Ok(v)
}

/// Walks `s` by byte; `i` only ever rests on a char boundary, because it
/// advances over ASCII bytes or over whole unescaped runs of a string.
struct JsonParser<'a> {
    s: &'a str,
    i: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.s.as_bytes().get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn peek(&self) -> io::Result<u8> {
        self.s.as_bytes().get(self.i).copied().ok_or_else(|| bad_data("unexpected end of JSON"))
    }

    fn eat(&mut self, b: u8) -> io::Result<()> {
        if self.peek()? == b {
            self.i += 1;
            Ok(())
        } else {
            Err(bad_data(format!(
                "expected {:?} at byte {}, got {:?}",
                b as char, self.i, self.peek()? as char
            )))
        }
    }

    fn lit(&mut self, word: &str, v: JVal) -> io::Result<JVal> {
        if self.s[self.i..].starts_with(word) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(bad_data(format!("bad literal at byte {}", self.i)))
        }
    }

    fn value(&mut self) -> io::Result<JVal> {
        self.skip_ws();
        match self.peek()? {
            b'n' => self.lit("null", JVal::Null),
            b't' => self.lit("true", JVal::Bool(true)),
            b'f' => self.lit("false", JVal::Bool(false)),
            b'"' => Ok(JVal::Str(self.string()?)),
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek()? == b']' {
                    self.i += 1;
                    return Ok(JVal::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.peek()? {
                        b',' => self.i += 1,
                        b']' => {
                            self.i += 1;
                            return Ok(JVal::Arr(items));
                        }
                        c => return Err(bad_data(format!("bad array separator {:?}", c as char))),
                    }
                }
            }
            b'{' => {
                self.i += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.peek()? == b'}' {
                    self.i += 1;
                    return Ok(JVal::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.eat(b':')?;
                    pairs.push((key, self.value()?));
                    self.skip_ws();
                    match self.peek()? {
                        b',' => self.i += 1,
                        b'}' => {
                            self.i += 1;
                            return Ok(JVal::Obj(pairs));
                        }
                        c => return Err(bad_data(format!("bad object separator {:?}", c as char))),
                    }
                }
            }
            c if c == b'-' || c.is_ascii_digit() => {
                let start = self.i;
                while matches!(
                    self.s.as_bytes().get(self.i),
                    Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                ) {
                    self.i += 1;
                }
                let raw = &self.s[start..self.i];
                // Validate now so accessors can't hit un-number tokens.
                raw.parse::<f64>().map_err(|_| bad_data(format!("bad number {raw:?}")))?;
                Ok(JVal::Num(raw.to_owned()))
            }
            c => Err(bad_data(format!("unexpected {:?} at byte {}", c as char, self.i))),
        }
    }

    fn string(&mut self) -> io::Result<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the unescaped run up to the next quote or backslash
            // (both ASCII, so the cut lands on a char boundary).
            let rest = &self.s[self.i..];
            let run = rest.find(['"', '\\']).ok_or_else(|| bad_data("unterminated string"))?;
            out.push_str(&rest[..run]);
            self.i += run + 1;
            match rest.as_bytes()[run] {
                b'"' => return Ok(out),
                _ => {
                    let e = self.peek()?;
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.i..self.i + 4)
                                .ok_or_else(|| bad_data("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| bad_data("bad \\u escape"))?;
                            self.i += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| bad_data("surrogate \\u escape"))?,
                            );
                        }
                        _ => return Err(bad_data(format!("bad escape \\{}", e as char))),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips_the_writers() {
        let v = parse_json(r#"{"a":1,"b":[1.5,null,"x\"y\n"],"c":{"d":true}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().u64().unwrap(), 1);
        let b = v.get("b").unwrap().arr().unwrap();
        assert_eq!(b[0].f64().unwrap(), 1.5);
        assert_eq!(b[1], JVal::Null);
        assert_eq!(b[2].str().unwrap(), "x\"y\n");
        assert!(matches!(v.get("c").unwrap().get("d").unwrap(), JVal::Bool(true)));
        assert!(parse_json("{\"a\":1} junk").is_err());
        assert!(parse_json("{").is_err());
    }

    #[test]
    fn json_numbers_keep_exact_tokens() {
        // u64 beyond 2^53 and a shortest-round-trip f64 both survive.
        let v = parse_json("[18446744073709551615,0.1,-2.5e-3]").unwrap();
        let a = v.arr().unwrap();
        assert_eq!(a[0].u64().unwrap(), u64::MAX);
        assert_eq!(a[1].f64().unwrap(), 0.1);
        assert_eq!(a[2].f64().unwrap(), -2.5e-3);
    }

    #[test]
    fn fingerprint_is_sensitive_to_every_axis() {
        use crate::{BaseScenario, CampaignSpec};
        use eend_wireless::stacks;
        let base = CampaignSpec::new("fp", BaseScenario::Small)
            .stacks(vec![stacks::titan_pc()])
            .rates(vec![2.0, 4.0])
            .seeds(2)
            .secs(30);
        let fp = |s: &CampaignSpec| fingerprint(&s.name, &s.expand());
        let reference = fp(&base);
        assert_eq!(reference, fp(&base.clone()), "deterministic");
        assert_ne!(reference, fp(&base.clone().rates(vec![2.0, 5.0])));
        assert_ne!(reference, fp(&base.clone().seeds(3)));
        assert_ne!(reference, fp(&base.clone().seed_base(7)));
        assert_ne!(reference, fp(&base.clone().secs(31)));
        assert_ne!(reference, fp(&base.clone().stacks(vec![stacks::dsr_active()])));
        assert_ne!(
            reference,
            fp(&base.clone().traffic(vec![eend_wireless::TrafficModel::Poisson])),
            "traffic axis must change the fingerprint"
        );
        assert_ne!(
            fp(&base.clone().traffic(vec![eend_wireless::TrafficModel::OnOffBurst {
                mean_on_s: 5.0,
                mean_off_s: 5.0
            }])),
            fp(&base.clone().traffic(vec![eend_wireless::TrafficModel::OnOffBurst {
                mean_on_s: 5.0,
                mean_off_s: 9.0
            }])),
            "on/off parameters must not collide"
        );
        assert_ne!(
            reference,
            fp(&base
                .clone()
                .radio_profiles(vec![eend_wireless::radio_profiles::mixed_hypo()])),
            "radio axis must change the fingerprint"
        );
        // Same failure label, different kill schedule: must differ too.
        let plan = |node| {
            crate::FailurePlan { label: "kill".to_owned(), kills: vec![(10.0, node)] }
        };
        assert_ne!(
            fp(&base.clone().failures(vec![plan(3)])),
            fp(&base.clone().failures(vec![plan(5)])),
            "kill schedules with identical labels must not collide"
        );
    }

    #[test]
    fn fingerprint_is_pinned() {
        // Daemon data directories are named after this digest, so a
        // changed hash would orphan every existing store. The spec
        // touches every hashed input: strings, floats, seeds, horizon,
        // a kill schedule and a per-node card mix.
        use crate::{BaseScenario, CampaignSpec};
        use eend_wireless::stacks;
        let spec = CampaignSpec::new("pinned", BaseScenario::Small)
            .stacks(vec![stacks::titan_pc(), stacks::dsr_active()])
            .rates(vec![2.0, 4.5])
            .seeds(2)
            .secs(30)
            .traffic(vec![eend_wireless::TrafficModel::Poisson])
            .radio_profiles(vec![eend_wireless::radio_profiles::mixed_hypo()])
            .failures(vec![crate::FailurePlan {
                label: "kill".to_owned(),
                kills: vec![(10.0, 3)],
            }]);
        assert_eq!(fingerprint(&spec.name, &spec.expand()), 0x0ff7_c1ce_68ff_5e45);
    }

    #[test]
    fn fingerprint_distinguishes_unnamed_card_mixes() {
        use crate::{BaseScenario, CampaignSpec};
        use eend_wireless::{presets, stacks, CardAssignment};
        // Two expand_with builders whose card mixes differ but share the
        // "custom" label: the fingerprint must still tell them apart.
        let spec = CampaignSpec::new("fp", BaseScenario::Small)
            .stacks(vec![stacks::titan_pc()])
            .rates(vec![4.0])
            .secs(20);
        let with_mix = |cards: Vec<eend_radio::RadioCard>| {
            spec.expand_with(move |p| {
                presets::small_network(p.stack.clone(), p.rate_kbps, p.seed)
                    .with_card_assignment(CardAssignment::Alternating(cards.clone()))
            })
        };
        let a = with_mix(vec![
            eend_radio::cards::cabletron(),
            eend_radio::cards::cabletron(),
            eend_radio::cards::cabletron(),
            eend_radio::cards::hypothetical_cabletron(),
        ]);
        let b = with_mix(vec![
            eend_radio::cards::cabletron(),
            eend_radio::cards::hypothetical_cabletron(),
            eend_radio::cards::hypothetical_cabletron(),
            eend_radio::cards::hypothetical_cabletron(),
        ]);
        assert_eq!(a[0].point.radio, "custom");
        assert_eq!(b[0].point.radio, "custom");
        assert_ne!(
            fingerprint("fp", &a),
            fingerprint("fp", &b),
            "identically-labelled card mixes must not collide"
        );
    }

    #[test]
    fn manifest_round_trips_with_and_without_axes() {
        use crate::{BaseScenario, CampaignSpec};
        use eend_wireless::stacks;
        let spec = CampaignSpec::new("mrt", BaseScenario::Density)
            .stacks(vec![stacks::titan_pc(), stacks::dsr_odpm_pc()])
            .node_counts(vec![300, 400])
            .traffic(vec![
                eend_wireless::TrafficModel::Cbr,
                eend_wireless::TrafficModel::OnOffBurst { mean_on_s: 2.5, mean_off_s: 7.5 },
            ])
            .radio_profiles(vec![
                eend_wireless::radio_profiles::uniform(),
                eend_wireless::radio_profiles::sparse_hypo(),
            ])
            .failures(vec![
                crate::FailurePlan::none(),
                crate::FailurePlan::kill("kill-relay", 60.5, 3),
            ])
            .seeds(2)
            .seed_base(10)
            .secs(45);
        let m = Manifest::for_spec(&spec, 1, 3);
        let back = Manifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);
        let axes = back.axes.unwrap();
        let rebuilt = axes.to_spec("mrt").unwrap();
        assert_eq!(rebuilt, spec, "axes must rebuild the exact spec");

        let mut no_axes = Manifest::for_spec(&spec, 0, 1);
        no_axes.axes = None;
        assert_eq!(Manifest::from_json(&no_axes.to_json()).unwrap(), no_axes);

        let mut with_policy = Manifest::for_spec(&spec, 0, 1);
        with_policy.on_failure = Some("retry=3".to_owned());
        let back = Manifest::from_json(&with_policy.to_json()).unwrap();
        assert_eq!(back, with_policy);
        assert_eq!(back.policy(), FailurePolicy::retry(3));
    }

    #[test]
    fn manifests_without_a_policy_key_read_as_abort() {
        // Version-2 manifests written before PR 8 lack "on_failure":
        // they must still load, defaulting to the abort policy.
        let pre_pr8 = r#"{"version":2,"campaign":"old","fingerprint":"00000000000000aa",
            "total_jobs":4,"shard_index":0,"shard_count":1,"axes":null}"#;
        let m = Manifest::from_json(pre_pr8).unwrap();
        assert_eq!(m.on_failure, None);
        assert_eq!(m.policy(), FailurePolicy::Abort);
    }

    #[test]
    fn pre_axis_manifests_are_refused_with_a_version_message() {
        // A version-1 manifest (written before the traffic/radio/failure
        // axes existed) must fail with a version diagnosis, not an
        // opaque missing-key parse error.
        let v1 = r#"{"version":1,"campaign":"old","fingerprint":"00000000000000aa",
            "total_jobs":4,"shard_index":0,"shard_count":1,"axes":null}"#;
        let err = Manifest::from_json(v1).unwrap_err();
        assert!(err.to_string().contains("version 1"), "got: {err}");
        assert!(err.to_string().contains("not supported"), "got: {err}");
    }

    /// One real record line (without its `\n`) from a short small-network
    /// run, its traffic label swapped for multi-byte UTF-8.
    fn sample_record_line() -> &'static str {
        static LINE: std::sync::OnceLock<String> = std::sync::OnceLock::new();
        LINE.get_or_init(|| {
            use crate::{BaseScenario, CampaignSpec, Executor};
            let spec = CampaignSpec::new("fuzz", BaseScenario::Small)
                .stacks(vec![eend_wireless::stacks::titan_pc()])
                .rates(vec![4.0])
                .seeds(1)
                .secs(20);
            let jobs = spec.expand();
            let mut record = Executor::with_workers(1).run_jobs(&jobs).remove(0);
            record.point.traffic = "é — 日本".to_owned();
            let mut line = String::new();
            record_line_into(&mut line, 3, &record);
            line.truncate(line.len() - 1);
            line
        })
    }

    /// Every char-boundary cut of `line` shorter than the whole.
    fn proper_prefixes(line: &str) -> impl Iterator<Item = &str> {
        (0..line.len()).filter(|&k| line.is_char_boundary(k)).map(move |k| &line[..k])
    }

    #[test]
    fn no_proper_prefix_of_a_record_or_failure_line_decodes() {
        let line = sample_record_line();
        assert_eq!(record_id(line).unwrap(), 3);
        for prefix in proper_prefixes(line) {
            assert!(record_id(prefix).is_err(), "record prefix decoded: {prefix:?}");
        }
        let f = JobFailure { job_id: 4, attempts: 2, cause: "é — 日本 \"quoted\"".to_owned() };
        let rendered = failure_line(&f);
        let line = rendered.trim_end_matches('\n');
        assert_eq!(failure_from_line(line).unwrap(), f);
        for prefix in proper_prefixes(line) {
            assert!(failure_from_line(prefix).is_err(), "failure prefix decoded: {prefix:?}");
        }
    }

    #[test]
    fn non_ascii_failure_cause_round_trips_across_a_reopen() {
        use crate::{BaseScenario, CampaignSpec};
        let spec = CampaignSpec::new("utf8", BaseScenario::Small)
            .stacks(vec![eend_wireless::stacks::titan_pc()])
            .rates(vec![4.0])
            .seeds(2)
            .secs(20);
        let dir = std::env::temp_dir().join(format!("eend-store-utf8-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let failure = JobFailure { job_id: 1, attempts: 3, cause: "é — 日本".to_owned() };
        {
            let mut store = ResultStore::open(&dir, Manifest::for_spec(&spec, 0, 1)).unwrap();
            let line = failure_line(&failure);
            store.failure_log.append(line.as_bytes(), &FailurePolicy::Abort).unwrap();
        }
        let store = ResultStore::open(&dir, Manifest::for_spec(&spec, 0, 1)).unwrap();
        assert_eq!(store.failures().get(&1), Some(&failure));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Openers that put the parser inside an object key, a string or an
    /// array before the random pieces start.
    const JSON_OPENERS: &[&str] = &["", "\"", "{\"", "[\""];

    /// Pieces that stress the parser: structure, escapes (lone `\` and
    /// short `\u`), numbers, literals and multi-byte UTF-8.
    #[rustfmt::skip]
    const JSON_PIECES: &[&str] = &[
        "{", "}", "[", "]", "\"", ":", ",", " ", "\\", "\\u", "\\u0", "\\u00", "\\u00e9",
        "\\ud800", "\\n", "0", "-", "1.5e-3", "e", "+", ".", "null", "nul", "true", "fals", "é",
        "日本", "—", "\u{1f600}", "\"job\"", "\u{0}",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        #[test]
        fn parse_json_never_panics_on_arbitrary_text(
            opener in 0..JSON_OPENERS.len(),
            picks in proptest::collection::vec(0..JSON_PIECES.len(), 0..24),
        ) {
            let text: String = std::iter::once(JSON_OPENERS[opener])
                .chain(picks.iter().map(|&i| JSON_PIECES[i]))
                .collect();
            if let Err(e) = parse_json(&text) {
                proptest::prop_assert_eq!(e.kind(), io::ErrorKind::InvalidData);
            }
        }

        #[test]
        fn parse_json_never_panics_on_a_mutated_record_line(
            edits in proptest::collection::vec((0usize..1 << 20, 0u16..256), 1..4),
        ) {
            let mut bytes = sample_record_line().as_bytes().to_vec();
            for &(at, b) in &edits {
                let at = at % bytes.len();
                bytes[at] = b as u8;
            }
            let text = String::from_utf8_lossy(&bytes);
            if let Err(e) = parse_json(&text) {
                proptest::prop_assert_eq!(e.kind(), io::ErrorKind::InvalidData);
            }
        }
    }

    #[test]
    fn record_lines_round_trip_metrics_exactly() {
        use crate::{BaseScenario, CampaignSpec, Executor};
        use eend_wireless::stacks;
        let spec = CampaignSpec::new("rt", BaseScenario::Small)
            .stacks(vec![stacks::titan_pc()])
            .rates(vec![4.0])
            .seeds(1)
            .secs(20);
        let jobs = spec.expand();
        let records = Executor::with_workers(1).run_jobs(&jobs);
        let mut line = String::new();
        record_line_into(&mut line, jobs[0].index, &records[0]);
        let v = parse_json(line.trim_end()).unwrap();
        verify_line_identity(&v, &jobs[0]).unwrap();
        let back = metrics_from_json(v.get("metrics").unwrap()).unwrap();
        assert_eq!(back, records[0].metrics, "full RunMetrics must round-trip bit-exactly");
    }
}
