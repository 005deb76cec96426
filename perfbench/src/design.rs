//! `design-search`: seeded annealing with the fluid oracle over the
//! named case-study instances, through an on-disk evaluation cache —
//! a cold pass that fills a fresh cache, then a warm pass that replays
//! the same searches from it.
//!
//! Two [`Timed`] wrappers bracket the cache: the outer one sees every
//! evaluation request, the inner one only those the cache missed.

use crate::stats::median;
use crate::trace::{self, Tracer};
use crate::{fnv1a, host, Ctx, Outcome};
use eend_core::design::Design;
use eend_core::problem::DesignProblem;
use eend_opt::Score;
use eend_opt::{
    anneal, instances, problem_fingerprint, CachedOracle, EvalOracle, FluidOracle, SearchOpts,
};
use eend_sim::mix_seed;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

/// Annealing seeds per instance in a round. A search's cost depends on
/// its seed's trajectory, and with four seeds the median search time
/// moved by a quarter between workload seeds.
const SEEDS: usize = 8;
/// Evaluation requests per search.
const BUDGET: u64 = 4000;
/// Fluid-model horizon, as `eend-cli design` uses by default.
const HORIZON_S: f64 = 900.0;

/// Spans every evaluation passing through (when tracing).
struct Timed<O> {
    inner: O,
    span: &'static str,
    tracer: Rc<RefCell<Tracer>>,
}

impl<O: EvalOracle> EvalOracle for Timed<O> {
    fn evaluate(&mut self, problem: &DesignProblem, design: &Design) -> Score {
        let open = self.tracer.borrow_mut().enter(self.span);
        let score = self.inner.evaluate(problem, design);
        self.tracer.borrow_mut().exit(open);
        score
    }

    fn calls(&self) -> u64 {
        self.inner.calls()
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

type Oracle = Timed<CachedOracle<Timed<FluidOracle>>>;

/// Opens the cache for `problem` under `dir` (replaying what it holds).
fn open(problem: &DesignProblem, dir: &Path, tracer: &Rc<RefCell<Tracer>>) -> Oracle {
    let inner = Timed {
        inner: FluidOracle::standard(HORIZON_S),
        span: "core.evaluate",
        tracer: Rc::clone(tracer),
    };
    let cached = CachedOracle::on_disk(inner, dir, problem_fingerprint(problem))
        .unwrap_or_else(|e| panic!("cannot open eval cache {}: {e}", dir.display()));
    Timed {
        inner: cached,
        span: "opt.cached_eval",
        tracer: Rc::clone(tracer),
    }
}

/// Exact per-round counters.
#[derive(Debug, Default, PartialEq)]
struct Counts {
    requests: u64,
    executed: u64,
    /// FNV-1a of each cold search's trace, so rounds compare without
    /// holding every trace (peak RSS would then depend on the round count).
    trace_digests: Vec<u64>,
}

/// Runs rounds of cold + warm passes until `ctx.seconds` would be
/// exceeded (or exactly `ctx.rounds` rounds when set).
pub fn run(ctx: &Ctx, traced: bool) -> Outcome {
    let tracer = Rc::new(RefCell::new(Tracer::new(traced, ctx.origin)));
    let seeds: Vec<u64> = (0..SEEDS as u64)
        .map(|i| mix_seed(&[0xde51, ctx.seed, i]))
        .collect();
    let mut out = Outcome::default();
    let (mut setups, mut searches, mut walls) = (vec![], vec![], vec![]);
    let mut first: Option<Counts> = None;
    let start = Instant::now();
    while ctx.another_round(walls.len(), start.elapsed().as_secs_f64()) {
        let round_start = Instant::now();
        let mut probing = 0.0;
        let root = ctx.work_dir.join(format!("cache-{}", walls.len()));
        let mut counts = Counts::default();
        let mut cold_traces = Vec::new();

        let mut cold: Vec<(DesignProblem, Oracle)> = instances::NAMES
            .iter()
            .map(|name| {
                let problem = instances::by_name(name).expect("named instance");
                let oracle = open(&problem, &root.join(name), &tracer);
                (problem, oracle)
            })
            .collect();

        let mut search = |out: &mut Outcome, problem: &DesignProblem, oracle: &mut Oracle, seed| {
            probing += host::between_ops();
            tracer.borrow_mut().set_run(out.attempted);
            out.attempted += 1;
            let open = tracer.borrow_mut().enter("opt.search");
            let t = Instant::now();
            let opts = SearchOpts {
                seed,
                budget: BUDGET,
                ..SearchOpts::new()
            };
            let result = catch_unwind(AssertUnwindSafe(|| anneal(problem, oracle, &opts)));
            searches.push(t.elapsed().as_secs_f64());
            match result {
                Ok(r) => {
                    tracer.borrow_mut().exit(open);
                    Some(r)
                }
                Err(_) => {
                    tracer.borrow_mut().abandon();
                    out.fail(format!("seed {seed}: the search panicked"));
                    None
                }
            }
        };

        for (problem, oracle) in &mut cold {
            for &seed in &seeds {
                let before = oracle.calls();
                let Some(result) = search(&mut out, problem, oracle, seed) else {
                    cold_traces.push(String::new());
                    continue;
                };
                counts.executed += oracle.calls() - before;
                let objective = SearchOpts::new().objective;
                let best_start = result
                    .baselines
                    .iter()
                    .map(|(_, s)| objective.value(s))
                    .fold(f64::INFINITY, f64::min);
                if result.best_objective > best_start {
                    out.fail(format!(
                        "seed {seed}: winner {} is worse than the best start {best_start}",
                        result.best_objective
                    ));
                }
                counts.requests += result.evals;
                cold_traces.push(result.trace_jsonl());
            }
        }
        drop(cold);
        counts.trace_digests = cold_traces.iter().map(|t| fnv1a([t.as_str()])).collect();

        // Set-up is what re-running a search over an existing cache
        // costs before its first evaluation: building the instance and
        // replaying the cache journal. The cold open above is dominated
        // by the manifest's fsync, whose latency is the disk's, not the
        // program's.
        let mut setup = 0.0;
        let mut i = 0;
        for name in instances::NAMES {
            let t = Instant::now();
            let problem = instances::by_name(name).expect("named instance");
            let open_span = tracer.borrow_mut().enter("opt.cache_open");
            let mut oracle = open(&problem, &root.join(name), &tracer);
            tracer.borrow_mut().exit(open_span);
            setup += t.elapsed().as_secs_f64();
            for &seed in &seeds {
                let cold_trace = &cold_traces[i];
                i += 1;
                let Some(result) = search(&mut out, &problem, &mut oracle, seed) else {
                    continue;
                };
                counts.requests += result.evals;
                if result.trace_jsonl() != *cold_trace {
                    out.fail(format!("{name} seed {seed}: warm trace differs from cold"));
                }
            }
            if oracle.calls() != 0 {
                out.fail(format!(
                    "{name}: warm pass executed {} evaluations",
                    oracle.calls()
                ));
            }
        }
        let _ = std::fs::remove_dir_all(&root);
        setups.push(setup);
        walls.push(round_start.elapsed().as_secs_f64() - probing);
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
    let rounds = walls.len() as f64;
    out.rounds = walls.len();
    out.throughput_per_s = counts.requests as f64 * rounds / walls.iter().sum::<f64>();
    out.e2e.set("setup_s", median(&setups));
    out.e2e.set("throughput_per_s", out.throughput_per_s);
    out.e2e.set("op_p50_s", median(&searches));
    out.label("evals_per_s", "1/s", out.throughput_per_s);
    out.label("search_p50_s", "s", median(&searches));
    out.label("search_samples", "count", searches.len() as f64);

    let l = &mut out.layers;
    l.set("opt.requests", counts.requests as f64);
    l.set("opt.executed", counts.executed as f64);
    l.set(
        "opt.cache_hit_ratio",
        1.0 - counts.executed as f64 / counts.requests as f64,
    );
    let spans = Rc::try_unwrap(tracer)
        .ok()
        .expect("oracles dropped")
        .into_inner()
        .into_spans();
    if traced {
        let selfs = trace::self_times(&spans);
        let (evaluate_s, _) = trace::time_of(&spans, &selfs, "core.evaluate");
        let (_, cache_s) = trace::time_of(&spans, &selfs, "opt.cached_eval");
        let (_, search_self_s) = trace::time_of(&spans, &selfs, "opt.search");
        let (open_s, _) = trace::time_of(&spans, &selfs, "opt.cache_open");
        l.set("core.evaluate_s", evaluate_s / rounds);
        l.set("opt.cache_s", cache_s / rounds);
        l.set("opt.search_self_s", search_self_s / rounds);
        l.set("opt.cache_open_s", open_s / rounds);
    }
    out.spans = spans;
    out
}
