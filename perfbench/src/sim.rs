//! `sim-dense` and `sim-scale`: TITAN-PC packet simulations, one at a
//! time on one thread, timed around `Simulator::new` and
//! `Simulator::run_with_stats`.

use crate::stats::median;
use crate::trace::{self, Tracer};
use crate::{fnv1a, host, Ctx, Outcome};
use eend_sim::mix_seed;
use eend_wireless::{presets, stacks, QueueStats, RunMetrics, Scenario, Simulator};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Which simulator workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `mobility_bench` at 200 nodes: the density cliff, heap queue.
    Dense,
    /// `mobility10k`: 10,000 nodes, timing-wheel queue.
    Scale,
}

impl Kind {
    /// Distinct seeds per round. Run cost varies by seed (0.3–0.6 s at
    /// n=200, 1.3–2.5 s at 10k on a 2-core x86-64 host), so a round
    /// averages over enough seeds that the choice of workload seed moves
    /// the mean by less than the metric bounds.
    fn seeds_per_round(self) -> usize {
        match self {
            Kind::Dense => 36,
            Kind::Scale => 16,
        }
    }

    fn scenario(self, seed: u64) -> Scenario {
        match self {
            Kind::Dense => presets::mobility_bench(stacks::titan_pc(), 200, seed),
            Kind::Scale => presets::mobility10k(stacks::titan_pc(), seed),
        }
    }

    fn tag(self) -> u64 {
        match self {
            Kind::Dense => 0xde45e,
            Kind::Scale => 0x5ca1e,
        }
    }
}

/// Exact per-round counters; every round runs the same seeds, so every
/// round must reproduce them.
#[derive(Debug, Clone, Default, PartialEq)]
struct Counts {
    events: u64,
    queue_peak: usize,
    queue_growth: usize,
    wheel: bool,
    sent: u64,
    delivered: u64,
    rreq: u64,
    rrep: u64,
    rerr: u64,
    bcast_collisions: u64,
    rts_collisions: u64,
    atim: u64,
    /// Bit pattern of the summed network energy.
    enetwork_bits: u64,
    digests: Vec<String>,
}

impl Counts {
    fn add(&mut self, m: &RunMetrics, q: &QueueStats) {
        self.events += q.scheduled_total;
        self.queue_peak = self.queue_peak.max(q.peak_len);
        self.queue_growth = self.queue_growth.max(q.capacity - q.initial_capacity);
        self.wheel |= q.is_wheel_backend;
        self.sent += m.data_sent;
        self.delivered += m.data_delivered;
        self.rreq += m.rreq_tx;
        self.rrep += m.rrep_tx;
        self.rerr += m.rerr_tx;
        self.bcast_collisions += m.broadcast_collisions;
        self.rts_collisions += m.rts_collisions;
        self.atim += m.atim_tx;
        self.enetwork_bits = (f64::from_bits(self.enetwork_bits) + m.enetwork_j()).to_bits();
        self.digests.push(m.scale_digest());
    }

    /// FNV-1a over the round's per-run digests, in seed order.
    fn combined_digest(&self) -> u64 {
        fnv1a(self.digests.iter().map(String::as_str))
    }
}

/// One simulation with its checks: `(metrics, queue stats, setup s, run s)`.
fn simulate(kind: Kind, seed: u64, tracer: &mut Tracer) -> (RunMetrics, QueueStats, f64, f64) {
    let op = tracer.enter("sim.op");
    let t0 = Instant::now();
    let span = tracer.enter("wireless.scenario");
    let scenario = kind.scenario(seed);
    tracer.exit(span);
    let span = tracer.enter("wireless.new");
    let sim = Simulator::new(&scenario);
    tracer.exit(span);
    let t1 = Instant::now();
    let span = tracer.enter("wireless.run");
    let (m, q) = sim.run_with_stats();
    tracer.exit(span);
    let t2 = Instant::now();
    tracer.exit(op);
    (m, q, (t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64())
}

/// Runs rounds of the workload's seeds until `ctx.seconds` would be
/// exceeded (or exactly `ctx.rounds` rounds when set).
pub fn run(kind: Kind, ctx: &Ctx, traced: bool) -> Outcome {
    let seeds: Vec<u64> = (0..kind.seeds_per_round() as u64)
        .map(|i| mix_seed(&[kind.tag(), ctx.seed, i]))
        .collect();
    let mut tracer = Tracer::new(traced, ctx.origin);
    let mut out = Outcome::default();
    let mut first: Option<Counts> = None;
    let (mut setups, mut run_times, mut walls) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while ctx.another_round(walls.len(), start.elapsed().as_secs_f64()) {
        let round_start = Instant::now();
        let mut counts = Counts::default();
        let (mut setup, mut probing) = (0.0, 0.0);
        for &seed in &seeds {
            probing += host::between_ops();
            tracer.set_run(out.attempted);
            out.attempted += 1;
            let run = catch_unwind(AssertUnwindSafe(|| simulate(kind, seed, &mut tracer)));
            let Ok((m, q, setup_s, run_s)) = run else {
                tracer.abandon();
                out.fail(format!("seed {seed}: the simulation panicked"));
                continue;
            };
            setup += setup_s;
            run_times.push(run_s);
            if m.data_delivered > m.data_sent || !m.enetwork_j().is_finite() {
                out.fail(format!(
                    "seed {seed}: delivered {} of {} sent, energy {} J",
                    m.data_delivered,
                    m.data_sent,
                    m.enetwork_j()
                ));
            }
            counts.add(&m, &q);
        }
        walls.push(round_start.elapsed().as_secs_f64() - probing);
        setups.push(setup);
        match &first {
            None => first = Some(counts),
            Some(f) if *f != counts => out.fail(format!(
                "round {} differs from round 1 for the same seeds",
                walls.len()
            )),
            Some(_) => {}
        }
    }
    let counts = first.expect("at least one round");
    // With a single timed round, replay the first seed so every run
    // compares a repetition against its first result.
    if walls.len() == 1 {
        out.attempted += 1;
        let replay = catch_unwind(|| {
            let (m, ..) = simulate(kind, seeds[0], &mut Tracer::new(false, ctx.origin));
            m.scale_digest()
        });
        if replay.ok().as_ref() != counts.digests.first() {
            out.fail(format!("seed {}: replay digest differs", seeds[0]));
        }
    }
    for (seed, d) in seeds.iter().zip(&counts.digests) {
        out.note(format!(
            "digest seed={seed} scale_digest_fnv1a={:016x}",
            fnv1a([d.as_str()])
        ));
    }
    out.note(format!("combined_digest {:016x}", counts.combined_digest()));

    let ops = run_times.len() as f64;
    let total_wall: f64 = walls.iter().sum();
    out.rounds = walls.len();
    out.throughput_per_s = ops / total_wall;
    out.e2e.set("setup_s", median(&setups));
    out.e2e.set("throughput_per_s", out.throughput_per_s);
    out.e2e.set("op_p50_s", median(&run_times));
    out.label("sim_runs_per_s", "1/s", out.throughput_per_s);
    out.label("sim_run_p50_s", "s", median(&run_times));
    out.label("sim_run_samples", "count", ops);

    let rounds = walls.len() as f64;
    let l = &mut out.layers;
    l.set("sim.events", counts.events as f64);
    l.set("sim.queue_peak", counts.queue_peak as f64);
    l.set("sim.queue_growth", counts.queue_growth as f64);
    l.set("sim.wheel", f64::from(u8::from(counts.wheel)));
    l.set("wireless.rreq_tx", counts.rreq as f64);
    l.set("wireless.rrep_tx", counts.rrep as f64);
    l.set("wireless.rerr_tx", counts.rerr as f64);
    l.set("wireless.bcast_collisions", counts.bcast_collisions as f64);
    l.set("wireless.rts_collisions", counts.rts_collisions as f64);
    l.set("wireless.atim_tx", counts.atim as f64);
    l.set(
        "wireless.events_per_delivered",
        counts.events as f64 / counts.delivered.max(1) as f64,
    );
    l.set(
        "wireless.delivery_ratio",
        counts.delivered as f64 / counts.sent.max(1) as f64,
    );
    l.set("radio.enetwork_j", f64::from_bits(counts.enetwork_bits));
    let spans = tracer.into_spans();
    if traced {
        let selfs = trace::self_times(&spans);
        let (new_s, _) = trace::time_of(&spans, &selfs, "wireless.new");
        let (run_s, _) = trace::time_of(&spans, &selfs, "wireless.run");
        l.set("wireless.new_s", new_s / rounds);
        l.set("wireless.run_s", run_s / rounds);
        l.set(
            "sim.ns_per_event",
            run_s * 1e9 / (counts.events as f64 * rounds),
        );
    }
    out.spans = spans;
    out
}
