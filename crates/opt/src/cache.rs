//! The on-disk evaluation cache: an append-only [`Journal`] of scores
//! keyed by design fingerprint.
//!
//! Every score's floats are stored as exact bit patterns (`f64::to_bits`
//! hex) alongside a human-readable rendering, so a cached search replays
//! **byte-identically**: the trace a resumed search writes is
//! indistinguishable from the original's. A torn final line (crash
//! mid-append) is truncated away and its design evaluated again; interior
//! corruption is an error. A final line that lost only its `\n` is kept
//! and re-terminated: the decoder accepts nothing but the exact layout
//! `render_line` writes, so no proper prefix of a line decodes.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use eend_campaign::{FailurePolicy, Journal};

use crate::fingerprint::design_fingerprint;
use crate::oracle::{EvalOracle, Score};
use eend_core::design::Design;
use eend_core::problem::DesignProblem;

const EVALS_FILE: &str = "evals.jsonl";
const MANIFEST_FILE: &str = "manifest.json";

/// A persistent fingerprint → [`Score`] map.
#[derive(Debug)]
pub struct EvalCache {
    dir: PathBuf,
    journal: Journal,
    map: HashMap<u64, Score>,
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Splits `"key":"value",` off the front of `rest`.
fn take<'a>(rest: &'a str, key: &str) -> Option<(&'a str, &'a str)> {
    let rest = rest.strip_prefix('"')?.strip_prefix(key)?.strip_prefix("\":\"")?;
    let (value, rest) = rest.split_once('"')?;
    Some((value, rest.strip_prefix(',')?))
}

/// Sixteen lowercase hex digits, as `{:016x}` writes them.
fn hex(s: &str) -> Option<u64> {
    let lower = s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    if s.len() == 16 && lower {
        u64::from_str_radix(s, 16).ok()
    } else {
        None
    }
}

/// Decodes one line in exactly the layout [`render_line`] writes (minus
/// its `\n`). Every proper prefix fails: the closing `}` is required.
fn decode_line(line: &str) -> io::Result<(u64, Score)> {
    let decode = || {
        let (fp, r) = take(line.strip_prefix('{')?, "fp")?;
        let (enetwork, r) = take(r, "enetwork_b")?;
        let (delivered, r) = take(r, "delivered_b")?;
        let (ttfd, r) = take(r, "ttfd_b")?;
        let (overloaded, r) = take(r, "overloaded")?;
        let (unrouted, r) = take(r, "unrouted")?;
        let readable = r.strip_prefix("\"enetwork_j\":")?.strip_suffix('}')?;
        readable.parse::<f64>().ok()?;
        if !unrouted.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        let score = Score {
            enetwork_j: f64::from_bits(hex(enetwork)?),
            delivered_bits: f64::from_bits(hex(delivered)?),
            ttfd_s: f64::from_bits(hex(ttfd)?),
            overloaded: match overloaded {
                "t" => true,
                "f" => false,
                _ => return None,
            },
            unrouted: unrouted.parse().ok()?,
        };
        Some((hex(fp)?, score))
    };
    decode().ok_or_else(|| invalid("not an eval cache line".to_owned()))
}

fn render_line(fp: u64, s: &Score) -> String {
    format!(
        concat!(
            "{{\"fp\":\"{:016x}\",\"enetwork_b\":\"{:016x}\",\"delivered_b\":\"{:016x}\",",
            "\"ttfd_b\":\"{:016x}\",\"overloaded\":\"{}\",\"unrouted\":\"{}\",",
            "\"enetwork_j\":{}}}\n"
        ),
        fp,
        s.enetwork_j.to_bits(),
        s.delivered_bits.to_bits(),
        s.ttfd_s.to_bits(),
        if s.overloaded { "t" } else { "f" },
        s.unrouted,
        s.enetwork_j,
    )
}

impl EvalCache {
    /// Opens (or creates) the cache under `dir` for the oracle identified
    /// by `oracle_label`. A directory previously used with a different
    /// oracle or problem is refused — scores are only comparable within
    /// one (oracle, problem) pair, which the manifest pins.
    ///
    /// # Errors
    ///
    /// I/O failures, a manifest mismatch, or interior corruption of the
    /// eval log (a torn final line is tolerated and truncated away).
    pub fn open(dir: &Path, oracle_label: &str, problem_fp: u64) -> io::Result<EvalCache> {
        fs::create_dir_all(dir)?;
        let manifest = format!(
            "{{\"oracle\":\"{oracle_label}\",\"problem_fp\":\"{problem_fp:016x}\"}}\n"
        );
        let manifest_path = dir.join(MANIFEST_FILE);
        match fs::read_to_string(&manifest_path) {
            Ok(existing) => {
                if existing != manifest {
                    return Err(invalid(format!(
                        "cache at {} belongs to a different oracle/problem:\n  have {}\n  want {}",
                        dir.display(),
                        existing.trim_end(),
                        manifest.trim_end()
                    )));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                eend_campaign::store::write_atomic(&manifest_path, manifest.as_bytes())?;
            }
            Err(e) => return Err(e),
        }

        let mut map = HashMap::new();
        let journal = Journal::open(dir.join(EVALS_FILE), None, decode_line, |(fp, score), _| {
            map.insert(fp, score);
            Ok(())
        })?;
        Ok(EvalCache { dir: dir.to_path_buf(), journal, map })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of cached evaluations.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` if nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The cached score for `fp`, if any.
    pub fn get(&self, fp: u64) -> Option<Score> {
        self.map.get(&fp).copied()
    }

    /// Appends a score (no-op if the fingerprint is already present).
    ///
    /// # Errors
    ///
    /// I/O failure on append or flush.
    pub fn insert(&mut self, fp: u64, score: Score) -> io::Result<()> {
        if self.map.contains_key(&fp) {
            return Ok(());
        }
        self.journal.append(render_line(fp, &score).as_bytes(), &FailurePolicy::Abort)?;
        self.map.insert(fp, score);
        Ok(())
    }
}

/// Memoizes an inner oracle, in memory and (optionally) on disk. The
/// inner oracle's `calls()` only advances on a miss, so
/// `oracle.calls() == 0` after a fully-cached search is the asserted
/// "re-run does zero work" guarantee.
#[derive(Debug)]
pub struct CachedOracle<O> {
    inner: O,
    mem: HashMap<u64, Score>,
    disk: Option<EvalCache>,
    hits: u64,
}

impl<O: EvalOracle> CachedOracle<O> {
    /// Memory-only memoization (one process, no persistence).
    pub fn in_memory(inner: O) -> CachedOracle<O> {
        CachedOracle { inner, mem: HashMap::new(), disk: None, hits: 0 }
    }

    /// Disk-backed memoization under `dir`, keyed by the inner oracle's
    /// label and the problem fingerprint.
    ///
    /// # Errors
    ///
    /// Propagates [`EvalCache::open`] failures.
    pub fn on_disk(inner: O, dir: &Path, problem_fp: u64) -> io::Result<CachedOracle<O>> {
        let disk = EvalCache::open(dir, &inner.label(), problem_fp)?;
        Ok(CachedOracle { inner, mem: HashMap::new(), disk: Some(disk), hits: 0 })
    }

    /// Cache hits served so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// The inner oracle (e.g. to read its call counter).
    pub fn inner(&self) -> &O {
        &self.inner
    }
}

impl<O: EvalOracle> EvalOracle for CachedOracle<O> {
    fn evaluate(&mut self, problem: &DesignProblem, design: &Design) -> Score {
        let fp = design_fingerprint(problem, design);
        let cached = match &self.disk {
            Some(c) => c.get(fp),
            None => self.mem.get(&fp).copied(),
        };
        if let Some(score) = cached {
            self.hits += 1;
            return score;
        }
        let score = self.inner.evaluate(problem, design);
        match &mut self.disk {
            Some(c) => c.insert(fp, score).expect("eval cache append failed"),
            None => {
                self.mem.insert(fp, score);
            }
        }
        score
    }

    fn calls(&self) -> u64 {
        self.inner.calls()
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::problem_fingerprint;
    use crate::oracle::FluidOracle;
    use eend_core::design::{Designer, Heuristic};
    use eend_core::problem::{Demand, DesignProblem, WirelessInstance};
    use eend_radio::cards;

    fn problem() -> DesignProblem {
        let inst = WirelessInstance::new(
            vec![(0.0, 0.0), (200.0, 0.0), (400.0, 0.0)],
            cards::cabletron(),
        );
        DesignProblem::new(inst, vec![Demand::new(0, 2, 8_000.0)])
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("eend-opt-cache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trips_scores_bit_exactly() {
        let dir = tempdir("roundtrip");
        let score = Score {
            enetwork_j: 1.0 / 3.0,
            delivered_bits: 8.1e6,
            ttfd_s: f64::INFINITY,
            overloaded: true,
            unrouted: 2,
        };
        {
            let mut c = EvalCache::open(&dir, "test-oracle", 42).unwrap();
            c.insert(7, score).unwrap();
            assert_eq!(c.len(), 1);
        }
        let c = EvalCache::open(&dir, "test-oracle", 42).unwrap();
        let back = c.get(7).unwrap();
        assert_eq!(back.enetwork_j.to_bits(), score.enetwork_j.to_bits());
        assert_eq!(back.delivered_bits.to_bits(), score.delivered_bits.to_bits());
        assert_eq!(back.ttfd_s.to_bits(), score.ttfd_s.to_bits());
        assert_eq!(back.overloaded, score.overloaded);
        assert_eq!(back.unrouted, score.unrouted);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn refuses_foreign_manifest() {
        let dir = tempdir("manifest");
        drop(EvalCache::open(&dir, "oracle-a", 1).unwrap());
        assert!(EvalCache::open(&dir, "oracle-b", 1).is_err(), "different oracle");
        assert!(EvalCache::open(&dir, "oracle-a", 2).is_err(), "different problem");
        assert!(EvalCache::open(&dir, "oracle-a", 1).is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tolerates_torn_tail_only() {
        let dir = tempdir("torn");
        let score = Score {
            enetwork_j: 2.5,
            delivered_bits: 100.0,
            ttfd_s: 10.0,
            overloaded: false,
            unrouted: 0,
        };
        {
            let mut c = EvalCache::open(&dir, "o", 1).unwrap();
            c.insert(1, score).unwrap();
            c.insert(2, score).unwrap();
        }
        let path = dir.join(EVALS_FILE);
        // Tear the last line mid-record.
        let body = fs::read_to_string(&path).unwrap();
        fs::write(&path, &body[..body.len() - 10]).unwrap();
        let c = EvalCache::open(&dir, "o", 1).unwrap();
        assert_eq!(c.len(), 1);
        assert!(c.get(1).is_some() && c.get(2).is_none());
        // Interior corruption is an error.
        fs::write(&path, format!("garbage\n{}", render_line(3, &score))).unwrap();
        assert!(EvalCache::open(&dir, "o", 1).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn keeps_a_complete_final_line_that_lost_its_newline() {
        let dir = tempdir("unterminated");
        let score = Score {
            enetwork_j: 2.5,
            delivered_bits: 100.0,
            ttfd_s: 10.0,
            overloaded: false,
            unrouted: 0,
        };
        {
            let mut c = EvalCache::open(&dir, "o", 1).unwrap();
            c.insert(1, score).unwrap();
            c.insert(2, score).unwrap();
        }
        let path = dir.join(EVALS_FILE);
        let body = fs::read_to_string(&path).unwrap();
        fs::write(&path, body.trim_end_matches('\n')).unwrap();
        let mut c = EvalCache::open(&dir, "o", 1).unwrap();
        assert_eq!(c.len(), 2, "the unterminated line is complete and kept");
        assert_eq!(fs::read_to_string(&path).unwrap(), body, "its newline is restored");
        c.insert(3, score).unwrap();
        assert_eq!(EvalCache::open(&dir, "o", 1).unwrap().len(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn no_proper_prefix_of_a_cache_line_decodes() {
        let score = Score {
            enetwork_j: 1.0 / 3.0,
            delivered_bits: 8.1e6,
            ttfd_s: f64::INFINITY,
            overloaded: true,
            unrouted: 12,
        };
        let rendered = render_line(0xdead_beef, &score);
        let line = rendered.trim_end_matches('\n');
        let (fp, back) = decode_line(line).unwrap();
        assert_eq!(fp, 0xdead_beef);
        assert_eq!(back, score);
        for k in 0..line.len() {
            assert!(decode_line(&line[..k]).is_err(), "prefix decoded: {:?}", &line[..k]);
        }
    }

    #[test]
    fn cached_oracle_serves_hits_without_inner_calls() {
        let p = problem();
        let d = Heuristic::IdleFirst.design(&p);
        let dir = tempdir("oracle");
        let fp = problem_fingerprint(&p);
        let first = {
            let mut o = CachedOracle::on_disk(FluidOracle::standard(100.0), &dir, fp).unwrap();
            let s1 = o.evaluate(&p, &d);
            let s2 = o.evaluate(&p, &d);
            assert_eq!(s1, s2);
            assert_eq!(o.calls(), 1, "second evaluate must hit memory");
            assert_eq!(o.hits(), 1);
            s1
        };
        // A fresh process (fresh oracle) answers entirely from disk.
        let mut o = CachedOracle::on_disk(FluidOracle::standard(100.0), &dir, fp).unwrap();
        let s = o.evaluate(&p, &d);
        assert_eq!(o.calls(), 0, "disk hit must not execute the oracle");
        assert_eq!(s.enetwork_j.to_bits(), first.enetwork_j.to_bits());
        fs::remove_dir_all(&dir).unwrap();
    }
}
