//! `campaign-serve`: an in-process `eend_campaign::serve` daemon on
//! loopback, driven by closed-loop HTTP clients.
//!
//! Each client repeats one cycle: submit a fresh small-network campaign,
//! stream it to EOF, read `/aggregate` cold then warm, and re-submit the
//! identical spec, which must answer from cache.

use crate::stats::{median, tail};
use crate::trace::{self, Span, Tracer};
use crate::{host, Ctx, Outcome};
use eend_campaign::{
    merge_stores_streaming, BaseScenario, CampaignSpec, Executor, JsonlSink, ResultStore,
    ServeConfig, ServerHandle, SpecAxes,
};
use eend_sim::mix_seed;
use eend_wireless::stacks;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::Instant;

/// Closed-loop clients; each holds at most one connection at a time.
const CLIENTS: usize = 2;
/// Daemon starts timed for `setup_s` in each pause between load blocks.
/// A start takes 0.15-0.5 ms on a 2-vCPU x86-64 VM, most of it thread
/// hand-offs, whose latency moves 2-3x from one minute of the host to
/// the next; so the starts are spread over the run and the median needs
/// many.
const STARTS_PER_PAUSE: usize = 10;
/// Seconds of load between two host probes.
const BLOCK_S: f64 = 2.0;
/// Simulated seconds per job: about 10 ms of work for a 50-node
/// TITAN-PC run on a 2-core x86-64 host.
const JOB_SECS: u64 = 300;

static OPEN_CONNS: AtomicUsize = AtomicUsize::new(0);
static PEAK_CONNS: AtomicUsize = AtomicUsize::new(0);

/// An open client connection, counted while it lives.
struct Conn(TcpStream);

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let s = TcpStream::connect(addr)?;
        let now = OPEN_CONNS.fetch_add(1, Ordering::SeqCst) + 1;
        PEAK_CONNS.fetch_max(now, Ordering::SeqCst);
        Ok(Conn(s))
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        OPEN_CONNS.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Client threads for a host with `nproc` processors.
pub fn client_threads(nproc: usize) -> usize {
    CLIENTS.min(nproc)
}

/// Most client connections that were open at once.
pub fn peak_connections() -> usize {
    PEAK_CONNS.load(Ordering::SeqCst)
}

/// Reads the status line and headers, returning the status code.
fn read_head(r: &mut BufReader<&TcpStream>) -> io::Result<u16> {
    let mut line = String::new();
    r.read_line(&mut line)?;
    let code = line
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| io::Error::other(format!("bad status line {line:?}")))?;
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 || line == "\r\n" {
            return Ok(code);
        }
    }
}

/// One request; the daemon closes each connection after its response,
/// so the body runs to EOF.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
    let conn = Conn::open(addr)?;
    (&conn.0).write_all(
        format!(
            "{method} {path} HTTP/1.1\r\nHost: b\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )?;
    let mut r = BufReader::new(&conn.0);
    let code = read_head(&mut r)?;
    let mut out = String::new();
    r.read_to_string(&mut out)?;
    Ok((code, out))
}

/// Streams `/stream/<fp>` to EOF: `(status, body, arrival of each line)`.
fn stream(addr: SocketAddr, fp: &str) -> io::Result<(u16, String, Vec<Instant>)> {
    let conn = Conn::open(addr)?;
    (&conn.0).write_all(format!("GET /stream/{fp} HTTP/1.1\r\nHost: b\r\n\r\n").as_bytes())?;
    let mut r = BufReader::new(&conn.0);
    let code = read_head(&mut r)?;
    let (mut body, mut arrivals) = (String::new(), Vec::new());
    while r.read_line(&mut body)? > 0 {
        arrivals.push(Instant::now());
    }
    Ok((code, body, arrivals))
}

/// The string value of `"key":"…"` in a flat JSON response.
fn json_str<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let at = body.find(&format!("\"{key}\":\""))? + key.len() + 4;
    Some(&body[at..at + body[at..].find('"')?])
}

/// Starts a daemon over a fresh, empty data dir and waits for `GET /`
/// to answer. The dir is made before the clock starts: on the VM's ext4
/// disk, making it took 60-450 µs and grew from run to run, as long as
/// the rest of the start, and that is the disk's latency, not the
/// daemon's.
fn start(dir: &Path, workers: usize) -> io::Result<(ServerHandle, f64)> {
    std::fs::create_dir_all(dir)?;
    let t = Instant::now();
    let handle = eend_campaign::serve::serve(
        "127.0.0.1:0",
        ServeConfig {
            data_dir: dir.to_path_buf(),
            executor: Executor::with_workers(workers),
        },
    )?;
    let (code, _) = request(handle.addr(), "GET", "/", "")?;
    if code != 200 {
        return Err(io::Error::other(format!("health probe answered {code}")));
    }
    Ok((handle, t.elapsed().as_secs_f64()))
}

/// Times `n` daemon starts, each over a fresh data dir and shut down.
fn time_starts(ctx: &Ctx, tag: &str, n: usize) -> io::Result<Vec<f64>> {
    (0..n)
        .map(|i| {
            let dir = ctx.work_dir.join(format!("serve-{tag}-{i}"));
            let (handle, took) = start(&dir, ctx.nproc)?;
            handle.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
            Ok(took)
        })
        .collect()
}

/// Client-side timings of one cycle, milliseconds.
#[derive(Debug, Default)]
struct Cycle {
    submit_ms: f64,
    ttfr_ms: f64,
    first_record_ms: f64,
    campaign_s: f64,
    gaps_ms: Vec<f64>,
    bytes: usize,
    aggregate_cold_ms: f64,
    aggregate_warm_ms: f64,
    resubmit_ms: f64,
    active_tasks: Vec<f64>,
    jobs_requested: usize,
    aggregate_requests: usize,
}

/// The `k`-th campaign of `client`: a fresh name and seed base, the
/// same 8-job shape.
fn spec(ctx: &Ctx, client: usize, k: usize) -> CampaignSpec {
    CampaignSpec::new(
        &format!("bench-{:x}-c{client}-{k}", ctx.seed),
        BaseScenario::Small,
    )
    .stacks(vec![stacks::titan_pc()])
    .rates(vec![2.0, 4.0])
    .seeds(4)
    .seed_base(mix_seed(&[0xca4a, ctx.seed, client as u64, k as u64]) % 1_000_000_000)
    .secs(JOB_SECS)
}

fn ms(since: Instant, until: Instant) -> f64 {
    (until - since).as_secs_f64() * 1e3
}

/// One cycle with its correctness checks; `Err` names what failed.
fn cycle(
    handle: &ServerHandle,
    data: &Path,
    spec: &CampaignSpec,
    tracer: &mut Tracer,
) -> Result<Cycle, String> {
    let addr = handle.addr();
    let mut c = Cycle::default();
    let sample = |c: &mut Cycle| c.active_tasks.push(handle.active_pool_tasks() as f64);
    let axes = SpecAxes::of(spec).ok_or("spec is not representable on the wire")?;
    let body = format!(
        "{{\"campaign\":\"{}\",\"axes\":{}}}",
        spec.name,
        axes.to_json()
    );
    let e = |what: &str, err: io::Error| format!("{what}: {err}");

    let op = tracer.enter("serve.cycle");
    sample(&mut c);
    let span = tracer.enter("serve.submit");
    let t_submit = Instant::now();
    c.jobs_requested += spec.job_count();
    let (code, resp) = request(addr, "POST", "/submit", &body).map_err(|err| e("submit", err))?;
    let t_accepted = Instant::now();
    tracer.exit(span);
    c.submit_ms = ms(t_submit, t_accepted);
    if code != 200 || !resp.contains("\"cached\":false") {
        return Err(format!("fresh submit answered {code}: {resp}"));
    }
    let fp = json_str(&resp, "fingerprint")
        .ok_or("submit without fingerprint")?
        .to_owned();

    sample(&mut c);
    let span = tracer.enter("serve.stream");
    let (code, streamed, arrivals) = stream(addr, &fp).map_err(|err| e("stream", err))?;
    tracer.exit(span);
    let t_eof = Instant::now();
    if code != 200 || arrivals.len() != spec.job_count() {
        return Err(format!(
            "stream answered {code} with {} of {} records",
            arrivals.len(),
            spec.job_count()
        ));
    }
    c.ttfr_ms = ms(t_submit, arrivals[0]);
    c.first_record_ms = ms(t_accepted, arrivals[0]);
    c.campaign_s = (t_eof - t_submit).as_secs_f64();
    c.gaps_ms = arrivals.windows(2).map(|w| ms(w[0], w[1])).collect();
    c.bytes = streamed.len();

    let mut aggregate = |c: &mut Cycle, name: &'static str| -> Result<(String, f64), String> {
        sample(c);
        let span = tracer.enter(name);
        let t = Instant::now();
        c.aggregate_requests += 1;
        let (code, agg) =
            request(addr, "GET", &format!("/aggregate/{fp}"), "").map_err(|err| e(name, err))?;
        let took = ms(t, Instant::now());
        tracer.exit(span);
        if code != 200 || agg.is_empty() {
            return Err(format!("{name} answered {code}"));
        }
        Ok((agg, took))
    };
    let (cold, took) = aggregate(&mut c, "serve.aggregate_cold")?;
    c.aggregate_cold_ms = took;
    let (warm, took) = aggregate(&mut c, "serve.aggregate_warm")?;
    c.aggregate_warm_ms = took;
    if warm != cold {
        return Err("warm /aggregate differs from cold".into());
    }

    sample(&mut c);
    let span = tracer.enter("serve.resubmit");
    let t = Instant::now();
    c.jobs_requested += spec.job_count();
    let (code, resp) = request(addr, "POST", "/submit", &body).map_err(|err| e("resubmit", err))?;
    c.resubmit_ms = ms(t, Instant::now());
    tracer.exit(span);
    if code != 200
        || !resp.contains("\"cached\":true")
        || json_str(&resp, "fingerprint") != Some(&fp)
    {
        return Err(format!("re-submit answered {code}: {resp}"));
    }
    tracer.exit(op);

    // The stream must be the store's records, rendered, with contiguous ids.
    let dir = data.join(&fp);
    let store = ResultStore::open_existing(&dir).map_err(|err| e("open store", err))?;
    let mut sink = JsonlSink::new(&spec.name, Vec::new());
    merge_stores_streaming(&[&store], &spec.expand(), &mut sink).map_err(|err| e("merge", err))?;
    if sink.into_inner() != streamed.as_bytes() {
        return Err("streamed lines differ from the store's records".into());
    }
    let records =
        std::fs::read_to_string(dir.join("records.jsonl")).map_err(|err| e("records", err))?;
    for (i, line) in records.lines().enumerate() {
        if !line.starts_with(&format!("{{\"job\":{i},")) {
            return Err(format!("records.jsonl line {i} is not job {i}"));
        }
    }
    Ok(c)
}

/// Drives the daemon with closed-loop clients until `ctx.seconds`.
pub fn run(ctx: &Ctx, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let clients = client_threads(ctx.nproc);
    let data = ctx.work_dir.join("serve");
    let (handle, took) = match start(&data, ctx.nproc) {
        Ok(t) => t,
        Err(err) => {
            out.attempted += 1;
            out.fail(format!("daemon failed to start: {err}"));
            return out;
        }
    };
    let mut setups = vec![took];
    let mut start_errors = Vec::new();

    // The load runs in blocks; between blocks every client waits at the
    // gate while the host is probed and more daemons are started and
    // timed, so neither shares the CPUs with the load.
    let blocks = (ctx.seconds / BLOCK_S).ceil().max(1.0) as usize;
    let block_s = ctx.seconds / blocks as f64;
    let gate = Barrier::new(clients + 1);
    let mut wall = 0.0;
    let results: Vec<(Result<Cycle, String>, Vec<Span>)> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..clients)
            .map(|client| {
                let (handle, data, gate) = (&handle, &data, &gate);
                s.spawn(move || {
                    let mut results = Vec::new();
                    let mut k = 0;
                    for _ in 0..blocks {
                        gate.wait();
                        let block = Instant::now();
                        while block.elapsed().as_secs_f64() < block_s {
                            let mut tracer = Tracer::new(traced, ctx.origin);
                            tracer.set_run((client as u64) << 32 | k as u64);
                            let spec = spec(ctx, client, k);
                            let r = catch_unwind(AssertUnwindSafe(|| {
                                cycle(handle, data, &spec, &mut tracer)
                            }))
                            .unwrap_or_else(|_| {
                                Err(format!("cycle {k} of client {client} panicked"))
                            });
                            let spans = if r.is_ok() {
                                tracer.into_spans()
                            } else {
                                Vec::new()
                            };
                            results.push((r, spans));
                            k += 1;
                        }
                        gate.wait();
                    }
                    results
                })
            })
            .collect();
        host::sample();
        for b in 0..blocks {
            let block = Instant::now();
            gate.wait();
            gate.wait();
            wall += block.elapsed().as_secs_f64();
            host::sample();
            match time_starts(ctx, &b.to_string(), STARTS_PER_PAUSE) {
                Ok(more) => setups.extend(more),
                Err(err) => start_errors.push(format!("daemon failed to start: {err}")),
            }
        }
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client loop catches cycle panics"))
            .collect()
    });
    let executed = handle.jobs_executed();
    let computed = handle.aggregates_computed();
    let active_after = handle.active_pool_tasks();
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&data);
    for err in start_errors {
        out.attempted += 1;
        out.fail(err);
    }

    let mut cycles = Vec::new();
    let mut span_lists = Vec::new();
    for (r, spans) in results {
        out.attempted += 1;
        match r {
            Ok(c) => {
                cycles.push(c);
                span_lists.push(spans);
            }
            Err(msg) => out.fail(msg),
        }
    }
    let n = cycles.len();
    let jobs_per_cycle = spec(ctx, 0, 0).job_count();
    // Each fresh campaign runs its jobs once and computes its aggregate
    // once; re-submits and warm reads must add nothing.
    if executed != out.attempted as usize * jobs_per_cycle {
        out.fail(format!(
            "daemon executed {executed} jobs for {} fresh campaigns",
            out.attempted
        ));
    }
    if computed != out.attempted as usize {
        out.fail(format!(
            "daemon computed {computed} aggregates for {} campaigns",
            out.attempted
        ));
    }
    if active_after != 0 {
        out.fail(format!(
            "{active_after} pool tasks still registered after the load"
        ));
    }
    if n == 0 {
        out.fail("no cycle completed".into());
        return out;
    }

    let col = |f: fn(&Cycle) -> f64| -> Vec<f64> { cycles.iter().map(f).collect() };
    let ttfr = col(|c| c.ttfr_ms);
    let gaps: Vec<f64> = cycles
        .iter()
        .flat_map(|c| c.gaps_ms.iter().copied())
        .collect();
    let active: Vec<f64> = cycles
        .iter()
        .flat_map(|c| c.active_tasks.iter().copied())
        .collect();
    out.rounds = n;
    out.throughput_per_s = executed as f64 / wall;
    out.e2e.set("setup_s", median(&setups));
    out.e2e.set("throughput_per_s", out.throughput_per_s);
    out.e2e.set("op_p50_s", median(&col(|c| c.campaign_s)));
    out.label("jobs_per_s", "1/s", out.throughput_per_s);
    out.label("ttfr_p50_ms", "ms", median(&ttfr));
    match tail(&ttfr) {
        Some(t) => out.note(format!(
            "metric ttfr_tail_ms {} ms (p{:.2} of {} cycles, {} beyond)",
            t.value,
            t.pct,
            t.n,
            crate::stats::TAIL_BEYOND
        )),
        None => out.note(format!(
            "metric ttfr_tail_ms undefined: {} cycles",
            ttfr.len()
        )),
    }
    out.label("campaign_p50_s", "s", median(&col(|c| c.campaign_s)));
    out.label("cycles", "count", n as f64);

    let l = &mut out.layers;
    let per_cycle = |v: usize| v as f64 / n as f64;
    l.set("serve.cycles", n as f64);
    l.set("serve.submit_ms_p50", median(&col(|c| c.submit_ms)));
    l.set(
        "serve.first_record_ms_p50",
        median(&col(|c| c.first_record_ms)),
    );
    l.set("serve.record_gap_ms_p50", median(&gaps));
    l.set(
        "serve.bytes_streamed",
        per_cycle(cycles.iter().map(|c| c.bytes).sum()),
    );
    l.set("serve.resubmit_ms_p50", median(&col(|c| c.resubmit_ms)));
    l.set(
        "serve.aggregate_cold_ms_p50",
        median(&col(|c| c.aggregate_cold_ms)),
    );
    l.set(
        "serve.aggregate_warm_ms_p50",
        median(&col(|c| c.aggregate_warm_ms)),
    );
    l.set("serve.ttfr_p50_ms", median(&ttfr));
    if let Some(t) = tail(&ttfr) {
        l.set("serve.ttfr_tail_ms", t.value);
        l.set("serve.ttfr_tail_pct", t.pct);
    }
    let requested: usize = cycles.iter().map(|c| c.jobs_requested).sum();
    let aggregate_requests: usize = cycles.iter().map(|c| c.aggregate_requests).sum();
    l.set("campaign.jobs_requested", per_cycle(requested));
    l.set("campaign.jobs_executed", per_cycle(executed));
    l.set(
        "campaign.reuse_ratio",
        1.0 - executed as f64 / requested as f64,
    );
    l.set("campaign.aggregate_requests", per_cycle(aggregate_requests));
    l.set("campaign.aggregates_computed", per_cycle(computed));
    l.set(
        "serve.aggregate_hit_ratio",
        1.0 - computed as f64 / aggregate_requests as f64,
    );
    l.set(
        "campaign.active_tasks_mean",
        active.iter().sum::<f64>() / active.len() as f64,
    );
    out.spans = trace::merge(span_lists);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_str_reads_flat_string_fields() {
        let body = "{\"fingerprint\":\"00ab\",\"cached\":true}";
        assert_eq!(json_str(body, "fingerprint"), Some("00ab"));
        assert_eq!(json_str(body, "state"), None);
    }
}
