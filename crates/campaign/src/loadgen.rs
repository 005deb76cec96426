//! Multi-tenant load against an in-process [`serve`] daemon, the
//! library under `eend-cli loadgen`: a round submits N campaigns of equal
//! cost over TCP (all at once, or one at a time), tails each with M
//! `/stream` subscribers, and times submits, completions, time to first
//! record and subscriber fan-out. A round polls a `stop` predicate while
//! it waits; a stopped round drains its daemon and counts only the
//! campaigns that reached `"state":"done"`.

use crate::executor::Executor;
use crate::json::parse_json;
use crate::serve::{serve, ServeConfig, ServerHandle};
use crate::spec::{BaseScenario, CampaignSpec};
use crate::store::SpecAxes;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// One HTTP request against the daemon; responses are close-delimited,
/// so read-to-end is the whole response.
fn request(addr: SocketAddr, raw: &str) -> io::Result<String> {
    let mut s = TcpStream::connect(addr)?;
    s.write_all(raw.as_bytes())?;
    let mut out = String::new();
    let _ = s.read_to_string(&mut out);
    Ok(out)
}

/// `GET path` against the daemon.
fn get(addr: SocketAddr, path: &str) -> io::Result<String> {
    request(addr, &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"))
}

/// The body of a response (everything after the blank line).
fn body(resp: &str) -> &str {
    resp.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("")
}

/// The `k`-th loadgen campaign of round `round`: distinct name, same
/// shape, so the daemon sees N different fingerprints of equal cost.
fn spec(round: &str, k: usize, seeds: u64, secs: u64) -> CampaignSpec {
    CampaignSpec::new(&format!("loadgen-{round}-{k}"), BaseScenario::Small)
        .stacks(vec![eend_wireless::stacks::titan_pc()])
        .rates(vec![2.0, 4.0])
        .seeds(seeds)
        .secs(secs)
}

/// What one loadgen invocation measures.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Worker bound of each round's daemon pool.
    pub workers: usize,
    /// Live `/stream` subscribers per campaign.
    pub subscribers: usize,
    /// Seeds per campaign (each campaign is 2 rates x `seeds` jobs).
    pub seeds: u64,
    /// Simulated seconds per job.
    pub secs: u64,
    /// Campaigns per round, one level per entry.
    pub levels: Vec<usize>,
    /// Run a serial round (one campaign in flight) per level.
    pub serial: bool,
    /// Run a concurrent round (all campaigns at once) per level.
    pub concurrent: bool,
}

/// One measured round. Its `Display` form is the one-line summary
/// `eend-cli loadgen` prints; [`record_json`] renders the record.
#[derive(Debug, Clone, PartialEq)]
pub struct Round {
    /// Whether `stop` cut the round short.
    pub interrupted: bool,
    concurrency: usize,
    serial: bool,
    /// Campaigns that reached `"state":"done"`, and their jobs.
    campaigns: usize,
    jobs_total: usize,
    submit_wall_s: f64,
    wall_s: f64,
    completed_per_s: f64,
    jobs_per_s: f64,
    ttfr_p50_ms: f64,
    ttfr_max_ms: f64,
    fanout_p50_ms: f64,
    fanout_p99_ms: f64,
}

impl std::fmt::Display for Round {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:10} x{:<2} {:>7.2} campaigns/s  {:>8.1} jobs/s  ttfr p50 {:>7.1} ms  \
             fanout p50/p99 {:.1}/{:.1} ms  ({} campaigns, {} jobs, {:.3} s){}",
            if self.serial { "serial" } else { "concurrent" },
            self.concurrency,
            self.completed_per_s,
            self.jobs_per_s,
            self.ttfr_p50_ms,
            self.fanout_p50_ms,
            self.fanout_p99_ms,
            self.campaigns,
            self.jobs_total,
            self.wall_s,
            if self.interrupted { "  [interrupted]" } else { "" }
        )
    }
}

/// Per-subscriber trace: elapsed-since-round-start of each streamed
/// line, in arrival order.
type SubscriberTrace = Vec<Duration>;
type Tail = JoinHandle<SubscriberTrace>;

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// A campaign's `state` as `/status/<fp>` reports it.
fn campaign_state(addr: SocketAddr, fp: &str) -> io::Result<String> {
    let status = get(addr, &format!("/status/{fp}"))?;
    Ok(parse_json(body(&status))?.get("state")?.str()?.to_owned())
}

/// Submits `spec` and returns its fingerprint.
fn submit(addr: SocketAddr, spec: &CampaignSpec) -> io::Result<String> {
    let axes = SpecAxes::of(spec)
        .ok_or_else(|| io::Error::other(format!("campaign {} has no spec axes", spec.name)))?;
    let req = format!("{{\"campaign\":\"{}\",\"axes\":{}}}", spec.name, axes.to_json());
    let resp = request(
        addr,
        &format!("POST /submit HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{req}", req.len()),
    )?;
    let b = body(&resp);
    let v = parse_json(b).map_err(|e| io::Error::other(format!("submit refused: {e}: {b}")))?;
    Ok(v.get("fingerprint")?.str()?.to_owned())
}

/// Starts `subscribers` `/stream/<fp>` tails, each recording when every
/// body line arrives.
fn spawn_tails(addr: SocketAddr, fp: &str, subscribers: usize, start: Instant) -> Vec<Tail> {
    let req = format!("GET /stream/{fp} HTTP/1.1\r\nHost: t\r\n\r\n");
    (0..subscribers)
        .map(|_| {
            let req = req.clone();
            thread::spawn(move || {
                let Ok(mut conn) = TcpStream::connect(addr) else { return Vec::new() };
                if conn.write_all(req.as_bytes()).is_err() {
                    return Vec::new();
                }
                let lines = BufReader::new(conn).lines().map_while(Result::ok);
                lines.skip_while(|l| !l.is_empty()).skip(1).map(|_| start.elapsed()).collect()
            })
        })
        .collect()
}

/// Drives `specs` through `daemon` and shuts it down: submits them all
/// at once, or under `serial` each after the one before is done. A
/// `stop` that trips while the round waits ends it early; only the
/// campaigns the daemon reports done count, with their jobs.
fn run_round(
    daemon: ServerHandle,
    specs: &[CampaignSpec],
    subscribers: usize,
    serial: bool,
    stop: &dyn Fn() -> bool,
) -> io::Result<Round> {
    let addr = daemon.addr();
    let start = Instant::now();
    let mut submit_wall_s = 0.0;
    let mut submit_at: Vec<Duration> = Vec::with_capacity(specs.len());
    let mut fps: Vec<String> = Vec::with_capacity(specs.len());
    let mut done: Vec<bool> = Vec::with_capacity(specs.len());
    let mut tails: Vec<(usize, Tail)> = Vec::new();
    let mut interrupted = false;

    // Polls until the campaign is done (`true`) or `stop` trips (`false`).
    let wait_done = |fp: &str| -> io::Result<bool> {
        loop {
            match campaign_state(addr, fp)?.as_str() {
                "done" => return Ok(true),
                "failed" => return Err(io::Error::other(format!("loadgen campaign {fp} failed"))),
                _ => {}
            }
            if stop() {
                return Ok(false);
            }
            thread::sleep(Duration::from_millis(5));
        }
    };

    let run = (|| -> io::Result<()> {
        if serial {
            // The single-runner baseline: one campaign in flight at a
            // time, so submits/s is gated on full campaign completion.
            for (k, spec) in specs.iter().enumerate() {
                let t = Instant::now();
                let fp = submit(addr, spec)?;
                submit_wall_s += t.elapsed().as_secs_f64();
                submit_at.push(start.elapsed());
                tails
                    .extend(spawn_tails(addr, &fp, subscribers, start).into_iter().map(|t| (k, t)));
                let finished = wait_done(&fp)?;
                fps.push(fp);
                done.push(finished);
                if !finished {
                    interrupted = true;
                    break;
                }
            }
        } else {
            let t = Instant::now();
            for (k, spec) in specs.iter().enumerate() {
                let fp = submit(addr, spec)?;
                submit_at.push(start.elapsed());
                tails
                    .extend(spawn_tails(addr, &fp, subscribers, start).into_iter().map(|t| (k, t)));
                fps.push(fp);
            }
            submit_wall_s = t.elapsed().as_secs_f64();
            for fp in &fps {
                let finished = !interrupted && wait_done(fp)?;
                interrupted |= !finished;
                done.push(finished);
            }
        }
        // A stopped round still counts every campaign that got done
        // while it waited on another.
        if interrupted {
            for (fp, d) in fps.iter().zip(done.iter_mut()) {
                *d = *d || campaign_state(addr, fp)? == "done";
            }
        }
        Ok(())
    })();
    let wall_s = start.elapsed().as_secs_f64();

    // Draining the daemon closes every live stream, so the subscriber
    // threads all come home — interrupted, failed or not.
    daemon.shutdown();
    let mut traces: Vec<(usize, SubscriberTrace)> = Vec::with_capacity(tails.len());
    for (k, t) in tails {
        traces.push((k, t.join().map_err(|_| io::Error::other("subscriber thread panicked"))?));
    }
    run?;

    let completed = done.iter().filter(|&&d| d).count();
    let jobs_total: usize =
        specs.iter().zip(&done).filter(|(_, &d)| d).map(|(s, _)| s.job_count()).sum();
    // Time to first record, per campaign: the earliest streamed line
    // across its subscribers, relative to its own submit instant.
    let mut ttfr_ms: Vec<f64> = Vec::new();
    for (k, submit) in submit_at.iter().enumerate() {
        let firsts = traces.iter().filter(|(tk, _)| *tk == k).filter_map(|(_, t)| t.first());
        if let Some(first) = firsts.min() {
            ttfr_ms.push(first.saturating_sub(*submit).as_secs_f64() * 1e3);
        }
    }
    ttfr_ms.sort_by(|a, b| a.total_cmp(b));
    // Fan-out, per (campaign, record): how far the slowest subscriber
    // trails the fastest for the same record.
    let mut fanout_ms: Vec<f64> = Vec::new();
    for k in 0..specs.len() {
        let per_sub: Vec<&SubscriberTrace> =
            traces.iter().filter(|(tk, _)| *tk == k).map(|(_, t)| t).collect();
        let records = per_sub.iter().map(|t| t.len()).min().unwrap_or(0);
        for i in 0..records {
            let times = per_sub.iter().map(|t| t[i]);
            let (min, max) = (times.clone().min().unwrap(), times.max().unwrap());
            fanout_ms.push(max.saturating_sub(min).as_secs_f64() * 1e3);
        }
    }
    fanout_ms.sort_by(|a, b| a.total_cmp(b));
    Ok(Round {
        concurrency: if serial { 1 } else { specs.len() },
        serial,
        campaigns: completed,
        jobs_total,
        submit_wall_s,
        wall_s,
        completed_per_s: completed as f64 / wall_s,
        jobs_per_s: jobs_total as f64 / wall_s,
        ttfr_p50_ms: percentile(&ttfr_ms, 50.0),
        ttfr_max_ms: ttfr_ms.last().copied().unwrap_or(0.0),
        fanout_p50_ms: percentile(&fanout_ms, 50.0),
        fanout_p99_ms: percentile(&fanout_ms, 99.0),
        interrupted,
    })
}

/// Runs `cfg`'s rounds in order — per level, the serial round and then
/// the concurrent one, as enabled — each on a fresh daemon over a fresh
/// data directory (under the system temp directory, removed after the
/// round), handing each to `report` as it lands. `stop` is checked
/// before every round and inside each.
pub fn run(
    cfg: &LoadConfig,
    stop: &dyn Fn() -> bool,
    report: &mut dyn FnMut(&Round),
) -> io::Result<Vec<Round>> {
    let mut rounds = Vec::new();
    for (i, &level) in cfg.levels.iter().enumerate() {
        for (on, serial, tag) in [(cfg.serial, true, 's'), (cfg.concurrent, false, 'c')] {
            if !on || stop() {
                continue;
            }
            let tag = format!("{tag}{i}");
            let data = std::env::temp_dir().join(format!(
                "eend-loadgen-{}-{tag}-{level}{}",
                std::process::id(),
                if serial { "-serial" } else { "" }
            ));
            let _ = std::fs::remove_dir_all(&data);
            let executor = Executor::with_workers(cfg.workers);
            let daemon = serve("127.0.0.1:0", ServeConfig { data_dir: data.clone(), executor })?;
            let specs: Vec<_> = (0..level).map(|k| spec(&tag, k, cfg.seeds, cfg.secs)).collect();
            let r = run_round(daemon, &specs, cfg.subscribers, serial, stop);
            let _ = std::fs::remove_dir_all(&data);
            let r = r?;
            report(&r);
            rounds.push(r);
        }
    }
    Ok(rounds)
}

/// The `eend-loadgen/1` record of `rounds` measured under `cfg` on a
/// host with `host_cores` cores.
pub fn record_json(cfg: &LoadConfig, host_cores: usize, rounds: &[Round]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"eend-loadgen/1\",");
    let _ = writeln!(out, "  \"workers\": {},", cfg.workers);
    let _ = writeln!(out, "  \"host_cores\": {host_cores},");
    let _ = writeln!(out, "  \"subscribers_per_campaign\": {},", cfg.subscribers);
    let _ =
        writeln!(out, "  \"jobs_per_campaign\": {},", spec("", 0, cfg.seeds, cfg.secs).job_count());
    let _ = writeln!(out, "  \"sim_secs_per_job\": {},", cfg.secs);
    let _ = writeln!(out, "  \"rounds\": [");
    for (i, r) in rounds.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"concurrency\": {}, \"round\": {{\"mode\": \"{}\", \"campaigns\": {}, \
             \"jobs_total\": {}, \"submit_wall_s\": {:.4}, \"wall_s\": {:.4}, \
             \"completed_per_s\": {:.3}, \"jobs_per_s\": {:.1}, \"ttfr_p50_ms\": {:.2}, \
             \"ttfr_max_ms\": {:.2}, \"fanout_p50_ms\": {:.2}, \"fanout_p99_ms\": {:.2}}}}}{}",
            r.concurrency,
            if r.serial { "serial" } else { "concurrent" },
            r.campaigns,
            r.jobs_total,
            r.submit_wall_s,
            r.wall_s,
            r.completed_per_s,
            r.jobs_per_s,
            r.ttfr_p50_ms,
            r.ttfr_max_ms,
            r.fanout_p50_ms,
            r.fanout_p99_ms,
            if i + 1 < rounds.len() { "," } else { "" }
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"analysis\": \"{}\"", analysis(rounds, host_cores));
    let _ = writeln!(out, "}}");
    out
}

/// One-line scaling verdict for the record: concurrent-vs-serial
/// speedup per level, with the single-core caveat spelled out.
fn analysis(rounds: &[Round], host_cores: usize) -> String {
    let mut parts: Vec<String> = Vec::new();
    let levels: std::collections::BTreeSet<usize> = rounds
        .iter()
        .map(|r| if r.serial { r.campaigns.max(r.concurrency) } else { r.concurrency })
        .collect();
    for level in levels {
        let serial = rounds.iter().find(|r| {
            r.serial && r.campaigns.max(r.concurrency) == level && r.completed_per_s > 0.0
        });
        let conc =
            rounds.iter().find(|r| !r.serial && r.concurrency == level && r.completed_per_s > 0.0);
        if let (Some(s), Some(c)) = (serial, conc) {
            parts.push(format!(
                "{}x concurrent = {:.2}x serial throughput",
                level,
                c.completed_per_s / s.completed_per_s
            ));
        }
    }
    let caveat = if host_cores == 1 {
        "Single-core host: jobs serialize on one worker either way, so near-parity \
         (not >=2x) is the expected curve; the scheduler's win here is fairness and \
         time-to-first-record, not aggregate throughput. Re-run on a multi-core host \
         to see the scaling."
    } else {
        ""
    };
    if parts.is_empty() {
        caveat.to_owned()
    } else {
        format!("{}. {caveat}", parts.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::fingerprint;

    #[test]
    fn a_stopped_serial_round_counts_only_the_campaigns_that_finished() {
        let data = std::env::temp_dir().join(format!("eend-loadgen-stop-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&data);
        let daemon = serve(
            "127.0.0.1:0",
            ServeConfig { data_dir: data.clone(), executor: Executor::with_workers(1) },
        )
        .unwrap();
        let addr = daemon.addr();
        // A 2-job campaign, then a 16-job one that is still running when
        // the stop trips: stop reads "the first campaign is done".
        let specs = [spec("stop", 0, 1, 10), spec("stop", 1, 8, 300)];
        let fp0 = format!("{:016x}", fingerprint(&specs[0].name, &specs[0].expand()));
        let stop = || campaign_state(addr, &fp0).is_ok_and(|s| s == "done");
        let r = run_round(daemon, &specs, 1, true, &stop).unwrap();
        let _ = std::fs::remove_dir_all(&data);
        assert!(r.interrupted);
        assert_eq!(r.campaigns, 1, "the finished campaign counts, the stopped one does not");
        assert_eq!(r.jobs_total, specs[0].job_count());
        assert_eq!(r.jobs_per_s, specs[0].job_count() as f64 / r.wall_s);
        assert_eq!(r.completed_per_s, 1.0 / r.wall_s);
    }

    #[test]
    fn percentiles_pick_the_nearest_rank() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert_eq!(percentile(&xs, 99.0), 5.0);
    }
}
