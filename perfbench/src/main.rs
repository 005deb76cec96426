//! The eend benchmark: four user paths measured end to end, plus a
//! traced run that splits each path by layer. See `README.md`.
//!
//! ```text
//! eend-perfbench --workload sim-dense|sim-scale|campaign-serve|design-search
//!                --seed N --seconds S --trace 0|1 [--out DIR]
//! ```
//!
//! Human-readable lines start with `#`; the last line of standard output
//! is the JSON result.

mod design;
mod host;
mod report;
mod serve;
mod sim;
mod stats;
mod trace;

use report::Values;
use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Span;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    SimDense,
    SimScale,
    CampaignServe,
    DesignSearch,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "sim-dense" => Workload::SimDense,
            "sim-scale" => Workload::SimScale,
            "campaign-serve" => Workload::CampaignServe,
            "design-search" => Workload::DesignSearch,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::SimDense => "sim-dense",
            Workload::SimScale => "sim-scale",
            Workload::CampaignServe => "campaign-serve",
            Workload::DesignSearch => "design-search",
        }
    }

    /// Threads issuing load: the daemon's clients, else the one thread
    /// that runs the simulations or the search.
    fn client_threads(self, nproc: usize) -> usize {
        match self {
            Workload::CampaignServe => serve::client_threads(nproc),
            _ => 1,
        }
    }

    fn run(self, ctx: &Ctx, traced: bool) -> Outcome {
        match self {
            Workload::SimDense => sim::run(sim::Kind::Dense, ctx, traced),
            Workload::SimScale => sim::run(sim::Kind::Scale, ctx, traced),
            Workload::CampaignServe => serve::run(ctx, traced),
            Workload::DesignSearch => design::run(ctx, traced),
        }
    }
}

/// What a workload run is given.
pub struct Ctx {
    /// The workload seed; every input derives from it.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Run exactly this many rounds instead of filling `seconds`.
    pub rounds: Option<usize>,
    /// A fresh directory for this run's data and caches.
    pub work_dir: PathBuf,
    /// Time origin shared by every span.
    pub origin: Instant,
    /// Available parallelism.
    pub nproc: usize,
}

impl Ctx {
    /// Whether to start another round after `done` rounds took
    /// `elapsed` seconds: always a first one, then while another round
    /// as long as the average so far still ends within the budget.
    pub fn another_round(&self, done: usize, elapsed: f64) -> bool {
        match self.rounds {
            Some(n) => done < n,
            None => done == 0 || elapsed + elapsed / done as f64 <= self.seconds,
        }
    }
}

/// What a workload run measured.
pub struct Outcome {
    /// Operations attempted (runs, campaign cycles, searches).
    pub attempted: u64,
    /// Operations that failed: panics, non-200 answers, failed checks.
    pub failed: u64,
    /// Rounds (or cycles) completed.
    pub rounds: usize,
    /// Operations' work per second, the basis of the tracing overhead.
    pub throughput_per_s: f64,
    /// End-to-end metrics.
    pub e2e: Values,
    /// Per-layer metrics.
    pub layers: Values,
    /// Recorded spans (empty unless traced).
    pub spans: Vec<Span>,
    /// Human-readable lines for the report.
    pub notes: Vec<String>,
}

impl Default for Outcome {
    fn default() -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            rounds: 0,
            throughput_per_s: 0.0,
            e2e: Values::end_to_end(),
            layers: Values::per_layer(),
            spans: Vec::new(),
            notes: Vec::new(),
        }
    }
}

impl Outcome {
    /// Counts a failed operation and says why on standard error.
    pub fn fail(&mut self, why: String) {
        eprintln!("FAIL: {why}");
        self.failed += 1;
    }

    /// Adds a report line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Adds a named measurement to the report.
    pub fn label(&mut self, name: &str, unit: &str, value: f64) {
        self.note(format!("metric {name} {value} {unit}"));
    }
}

/// Busy time on every processor before anything is timed. On a
/// 2-vCPU x86-64 VM, a fixed work chunk took 2-3x longer for the first
/// 1.5 s of load after an idle second than afterwards.
const WARM_UP: Duration = Duration::from_secs(2);

/// Spins `nproc` threads for [`WARM_UP`], then runs the host probe
/// once untimed so its table is resident.
fn warm_up(nproc: usize) {
    std::thread::scope(|s| {
        for _ in 0..nproc {
            s.spawn(|| {
                let start = Instant::now();
                let mut x = 1u64;
                while start.elapsed() < WARM_UP {
                    for i in 0..100_000 {
                        x = black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
                    }
                }
            });
        }
    });
    host::probe();
}

/// FNV-1a over `parts`, in order: a one-line stand-in for long texts
/// (simulation digests, search traces) in reports and comparisons.
pub fn fnv1a<'a>(parts: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h = eend_opt::Fnv1a::default();
    for p in parts {
        h.write(p.as_bytes());
    }
    h.finish()
}

/// Peak resident set size of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out = PathBuf::from("perfbench/out");
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                })
            }
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nusage: eend-perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let clients = args.workload.client_threads(nproc);
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# load nproc {nproc} client_threads {clients}");
    if clients > nproc {
        eprintln!("error: {clients} client threads would exceed nproc {nproc}");
        return ExitCode::from(3);
    }
    let work_dir = args.out.join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work_dir);
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("error: cannot create {}: {e}", work_dir.display());
        return ExitCode::from(2);
    }
    warm_up(nproc);
    let ctx = |seconds: f64, rounds: Option<usize>| Ctx {
        seed: args.seed,
        seconds,
        rounds,
        work_dir: work_dir.clone(),
        origin: Instant::now(),
        nproc,
    };

    let (mut outcome, values) = if args.trace {
        // Untraced then traced over the same rounds: the ratio of their
        // throughputs, each at reference host speed, is the tracing
        // overhead.
        let base = args.workload.run(&ctx(args.seconds / 2.0, None), false);
        let base_factor = host::take_factor().map_or(1.0, |f| f.factor);
        let mut traced = args
            .workload
            .run(&ctx(args.seconds / 2.0, Some(base.rounds)), true);
        let traced_factor = host::take_factor().map_or(1.0, |f| f.factor);
        traced.attempted += base.attempted;
        traced.failed += base.failed;
        let overhead = (base.throughput_per_s / base_factor)
            / (traced.throughput_per_s / traced_factor)
            * 100.0
            - 100.0;
        let path = args
            .out
            .join(format!("trace-{}.jsonl", args.workload.name()));
        match trace::write_jsonl(&path, &traced.spans) {
            Ok(()) => traced.note(format!(
                "spans {} written to {}",
                traced.spans.len(),
                path.display()
            )),
            Err(e) => traced.fail(format!("cannot write {}: {e}", path.display())),
        }
        let mut values = traced.layers.clone();
        values.set("trace.overhead_pct", overhead);
        values.set("load.nproc", nproc as f64);
        values.set("load.client_threads", clients as f64);
        values.set("load.peak_connections", serve::peak_connections() as f64);
        (traced, values)
    } else {
        let mut run = args.workload.run(&ctx(args.seconds, None), false);
        match peak_rss_mb() {
            Some(mb) => run.e2e.set("peak_rss_mb", mb),
            None => run.fail("cannot read VmHWM from /proc/self/status".into()),
        }
        // Timings are reported at the reference host speed; the raw ones
        // go to the report.
        match host::take_factor() {
            Some(f) => {
                for (name, unit, v) in run.e2e.rows() {
                    run.label(&format!("{name}_raw"), unit, v);
                }
                run.note(format!(
                    "host factor {} ({} probes, median {} s, reference {} s)",
                    f.factor,
                    f.probes,
                    f.median_s,
                    host::REFERENCE_S
                ));
                run.e2e.at_host_speed(f.factor);
            }
            None => run.fail("the host was never probed".into()),
        }
        let values = run.e2e.clone();
        for name in values.missing() {
            run.fail(format!("end-to-end metric {name} was not measured"));
        }
        (run, values)
    };
    let _ = std::fs::remove_dir_all(&work_dir);

    let peak = serve::peak_connections();
    if peak > nproc {
        outcome.fail(format!(
            "{peak} connections were open at once, above nproc {nproc}"
        ));
    }
    for (name, unit, v) in values.rows() {
        if !v.is_finite() {
            outcome.fail(format!("{name} is not finite"));
        }
        println!("# metric {name} {v} {unit}");
    }
    for line in &outcome.notes {
        println!("# {line}");
    }
    let attempted = outcome.attempted.max(1);
    let failed = outcome.failed.min(attempted);
    println!("# load peak_connections {peak}");
    println!(
        "# metric error_rate {} ratio ({failed} of {attempted} operations)",
        failed as f64 / attempted as f64
    );
    println!(
        "{}",
        report::result_line(outcome.failed == 0, attempted, failed, &values)
    );
    ExitCode::SUCCESS
}
