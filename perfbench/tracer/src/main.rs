//! Traced per-layer run of the benchmark.
//!
//! ```text
//! perfbench_tracer <jobs> <out-dir> <spec.toml>...
//! perfbench_tracer probe <threads>
//! ```
//!
//! `probe` times a fixed amount of work that shares no code with the
//! repository, spread over `threads` threads, and prints its wall
//! seconds: the host-speed reference the end-to-end timings are scaled
//! by (see perfbench/NOTES.md).
//!
//! Runs every spec twice in this process: once untraced through
//! `experiment::run_spec_streaming` (the `experiment` binary's path)
//! and once traced, with each cell timed from outside and every
//! stationary Monte-Carlo cell re-run through `TrialPlan::run` behind a
//! timing wrapper around the public `Adversary` trait. The traced
//! results JSON goes to `<out-dir>/<stem>.traced.json`; the caller
//! compares it byte for byte with the untraced binary's output. Layer
//! costs come from replays of the layer types at each cell's
//! parameters, so counts × costs can be set against cell time.
//!
//! The last line of stdout is one JSON object
//! `{"ok": bool, "errors": [...], "metrics": {name: {"value", "unit"}}}`
//! naming every metric of `metric_names`, in that order.

use consistency_bench::experiment::{self, CellResult};
use nakamoto_sim::adversary::{
    Adversary, BalanceAdversary, ImmediateReleaseAdversary, PrivateChainAdversary, ReleaseDirective,
};
use nakamoto_sim::block::{BlockId, Provenance, Round};
use nakamoto_sim::compose::ComposedAdversary;
use nakamoto_sim::config::SimConfig;
use nakamoto_sim::consistency::ChainTracker;
use nakamoto_sim::events::{ConvergenceDetector, RoundState, SuffixTracker};
use nakamoto_sim::execution::{Simulation, DEFAULT_PRUNE_INTERVAL};
use nakamoto_sim::executor::{self, TaskKind};
use nakamoto_sim::network::Network;
use nakamoto_sim::oracle::MiningOracle;
use nakamoto_sim::scenario::{Regime, ScenarioAdversary, ScenarioRunner, StrategyKind};
use nakamoto_sim::selfish::SelfishMiningAdversary;
use nakamoto_sim::spec::{
    Estimate, ExperimentCell, ExperimentMode, ExperimentPlan, ExperimentSpec,
};
use probability::rng::Xoshiro256PlusPlus;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Cell classes for the per-class execution metrics: the attack grid's
/// `c × strategy` classes, the c = 3 private-chain class of the
/// single-run specs (the headline bench row's regime), scenario cells,
/// and every other scalar stationary Monte-Carlo cell.
const CLASSES: [&str; 9] = [
    "c0.5.private-chain",
    "c0.5.balance",
    "c1.private-chain",
    "c1.balance",
    "c2.private-chain",
    "c2.balance",
    "c3.private-chain",
    "scenario",
    "other",
];

/// Strategies the adversary metrics are keyed by.
const STRATEGIES: [&str; 5] = ["honest", "private-chain", "balance", "selfish", "composed"];

/// Network regimes the scenario phase timings are keyed by.
const PHASE_KINDS: [&str; 3] = ["calm", "full-delta", "eclipse"];

/// Every metric this tracer prints, with its unit, in output order.
/// The templated families expand over [`CLASSES`], [`STRATEGIES`] and
/// [`PHASE_KINDS`].
fn metric_names() -> Vec<(String, &'static str)> {
    let fixed = |names: &[(&str, &'static str)]| -> Vec<(String, &'static str)> {
        names.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    let mut out = fixed(&[
        ("spec.parse_ms", "ms"),
        ("spec.expand_ms", "ms"),
        ("experiment.overlay_ms", "ms"),
        ("experiment.json_ms", "ms"),
        ("experiment.json_bytes", "bytes"),
        ("experiment.cell_ms.p50", "ms"),
        ("experiment.cell_ms.max", "ms"),
        ("executor.dispatch_us", "us"),
        ("executor.busy_frac", "frac"),
        ("executor.tail_ms", "ms"),
        ("executor.tasks", "count"),
        ("executor.steals", "count"),
        ("executor.jobs_inline", "count"),
        ("montecarlo.trials", "count"),
        ("montecarlo.rounds", "count"),
        ("montecarlo.adaptive_saved_frac", "frac"),
        ("batch.rounds_per_s", "1/s"),
        ("batch.scalar_rounds_per_s", "1/s"),
        ("splitting.replicas", "count"),
        ("splitting.rounds", "count"),
        ("splitting.stage_ms", "ms"),
        ("exact.solve_us", "us"),
    ]);
    for class in CLASSES {
        out.push((format!("execution.rounds_per_s.{class}"), "1/s"));
        out.push((format!("execution.executed_round_frac.{class}"), "frac"));
        out.push((format!("execution.unexplained_frac.{class}"), "frac"));
    }
    out.extend(fixed(&[
        ("oracle.gaps", "count"),
        ("oracle.gap_ns", "ns"),
        ("events.update_ns", "ns"),
        ("events.skip_ns", "ns"),
    ]));
    for strategy in STRATEGIES {
        out.push((format!("adversary.act_calls.{strategy}"), "count"));
        out.push((format!("adversary.act_ns.{strategy}"), "ns"));
        out.push((format!("adversary.releases.{strategy}"), "count"));
    }
    out.extend(fixed(&[
        ("network.deliveries", "count"),
        ("network.schedule_ns", "ns"),
        ("network.drain_ns", "ns"),
        ("consistency.consider_ns", "ns"),
        ("tree.add_ns", "ns"),
        ("tree.prunes", "count"),
        ("tree.prune_ms", "ms"),
    ]));
    for kind in PHASE_KINDS {
        out.push((format!("scenario.phase_ms.{kind}"), "ms"));
    }
    out.extend(fixed(&[
        ("trace.overhead_frac", "frac"),
        ("trace.timer_ns", "ns"),
    ]));
    out
}

// ---------------------------------------------------------------------
// Timing helpers
// ---------------------------------------------------------------------

fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Timer calibration, in ns: `floor` is what an empty
/// `Instant::now()` … `elapsed()` span reads, which every wrapped
/// call's span carries and the per-call figures subtract; `pair` is
/// what one timed span adds to the run (both clock reads in full).
/// Medians of 9 batches.
#[derive(Debug, Clone, Copy)]
struct TimerCost {
    floor: f64,
    pair: f64,
}

fn calibrate_timer() -> TimerCost {
    const N: u32 = 200_000;
    let (mut floors, mut pairs) = (Vec::new(), Vec::new());
    for _ in 0..9 {
        let mut total = 0u64;
        let t = Instant::now();
        for _ in 0..N {
            total += ns_since(black_box(Instant::now()));
        }
        pairs.push(ns_since(t) as f64 / f64::from(N));
        floors.push(total as f64 / f64::from(N));
    }
    TimerCost {
        floor: median(floors),
        pair: median(pairs),
    }
}

static TIMER: OnceLock<TimerCost> = OnceLock::new();

/// CPU time of the calling thread in ns (`CLOCK_THREAD_CPUTIME_ID`).
/// Trial costs are booked in CPU time, not wall time: the pool runs
/// more threads than CPUs while joins help, and wall time would count
/// the time a trial sat descheduled as layer time.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the C
    // layout of 64-bit Linux, and clock_gettime writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    u64::try_from(ts.tv_sec).unwrap_or(0) * 1_000_000_000 + u64::try_from(ts.tv_nsec).unwrap_or(0)
}

/// Without the thread clock, trials are booked in wall time.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn thread_cpu_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    ns_since(*EPOCH.get_or_init(Instant::now))
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median wall time of `reps` calls of `f`, in ms.
fn median_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    median(
        (0..reps)
            .map(|_| {
                let t = Instant::now();
                black_box(f());
                ns_since(t) as f64 / 1e6
            })
            .collect(),
    )
}

// ---------------------------------------------------------------------
// The timing wrapper around the public Adversary trait
// ---------------------------------------------------------------------

/// Counts one wrapped adversary accumulated.
#[derive(Debug, Default, Clone, Copy)]
struct ActCounts {
    calls: u64,
    /// Calls that were timed, and their summed spans.
    timed: u64,
    ns: u64,
    releases: u64,
    honest_delays: u64,
    /// Empty spans timed beside the calls, and what they read.
    floor_spans: u64,
    floor_ns: u64,
}

impl ActCounts {
    fn add(&mut self, o: &ActCounts) {
        self.calls += o.calls;
        self.timed += o.timed;
        self.ns += o.ns;
        self.releases += o.releases;
        self.honest_delays += o.honest_delays;
        self.floor_spans += o.floor_spans;
        self.floor_ns += o.floor_ns;
    }

    /// Mean cost of one call: the mean span less the timer floor
    /// measured beside the calls (the start-up calibration when none
    /// was), never below zero.
    fn act_ns(&self) -> f64 {
        if self.timed == 0 {
            return 0.0;
        }
        let floor = if self.floor_spans > 0 {
            self.floor_ns as f64 / self.floor_spans as f64
        } else {
            TIMER.get().map_or(0.0, |t| t.floor)
        };
        (self.ns as f64 / self.timed as f64 - floor).max(0.0)
    }

    fn minus(&self, o: &ActCounts) -> ActCounts {
        ActCounts {
            calls: self.calls - o.calls,
            timed: self.timed - o.timed,
            ns: self.ns - o.ns,
            releases: self.releases - o.releases,
            honest_delays: self.honest_delays - o.honest_delays,
            floor_spans: self.floor_spans - o.floor_spans,
            floor_ns: self.floor_ns - o.floor_ns,
        }
    }
}

/// Where wrapped adversaries built by `TrialPlan::run` leave their
/// counts and their trial's CPU time when their trial ends (trials may
/// run on any pool thread).
#[derive(Debug, Default)]
struct Sink(Mutex<(ActCounts, u64)>);

impl Sink {
    fn counts(&self) -> ActCounts {
        self.0.lock().expect("sink lock").0
    }

    fn trial_ns(&self) -> u64 {
        self.0.lock().expect("sink lock").1
    }
}

/// An adversary that forwards every trait method to `inner`, counts
/// every `act`/`act_split` call and times every 8th. It changes no
/// decision, so results are identical to the bare strategy's.
struct Timed<A> {
    inner: A,
    counts: ActCounts,
    sink: Option<Arc<Sink>>,
    /// Thread CPU time at construction.
    born: u64,
}

impl<A> Timed<A> {
    /// Runs one `act`/`act_split` call. Every 8th call is timed (a
    /// clock read costs about as much as a call, so timing all of them
    /// would double the run), and every 8th timed call is followed by
    /// an empty span, so the floor subtracted is measured where and
    /// when the calls ran.
    fn call(
        &mut self,
        releases: &mut Vec<ReleaseDirective>,
        f: impl FnOnce(&mut A, &mut Vec<ReleaseDirective>),
    ) {
        let before = releases.len();
        if self.counts.calls % 8 == 0 {
            let t = Instant::now();
            f(&mut self.inner, releases);
            self.counts.ns += ns_since(t);
            self.counts.timed += 1;
            if self.counts.timed % 8 == 0 {
                self.counts.floor_ns += ns_since(Instant::now());
                self.counts.floor_spans += 1;
            }
        } else {
            f(&mut self.inner, releases);
        }
        self.counts.calls += 1;
        self.counts.releases += (releases.len() - before) as u64;
    }

    fn new(inner: A, sink: Option<Arc<Sink>>) -> Self {
        Timed {
            inner,
            counts: ActCounts::default(),
            sink,
            born: thread_cpu_ns(),
        }
    }
}

impl<A> Drop for Timed<A> {
    fn drop(&mut self) {
        if let Some(sink) = &self.sink {
            // A poisoned lock means another trial panicked; that panic
            // reaches the caller, so these counts may be dropped.
            if let Ok(mut sink) = sink.0.lock() {
                sink.0.add(&self.counts);
                sink.1 += thread_cpu_ns() - self.born;
            }
        }
    }
}

impl<A: Adversary> Adversary for Timed<A> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn group_count(&self) -> usize {
        self.inner.group_count()
    }

    fn honest_delay(&mut self, round: Round, from_group: usize, to_group: usize) -> u64 {
        self.counts.honest_delays += 1;
        self.inner.honest_delay(round, from_group, to_group)
    }

    fn act(
        &mut self,
        round: Round,
        group_tips: &[BlockId; 2],
        tree: &mut nakamoto_sim::tree::BlockTree,
        successes: u64,
        releases: &mut Vec<ReleaseDirective>,
    ) {
        self.call(releases, |a, r| {
            a.act(round, group_tips, tree, successes, r)
        });
    }

    fn sub_miner_counts(&self, n_adversary: u64) -> Option<Vec<u64>> {
        self.inner.sub_miner_counts(n_adversary)
    }

    fn act_split(
        &mut self,
        round: Round,
        group_tips: &[BlockId; 2],
        tree: &mut nakamoto_sim::tree::BlockTree,
        successes: &[u64],
        releases: &mut Vec<ReleaseDirective>,
    ) {
        self.call(releases, |a, r| {
            a.act_split(round, group_tips, tree, successes, r);
        });
    }

    fn supports_fast_forward(&self) -> bool {
        self.inner.supports_fast_forward()
    }

    fn live_blocks(&self) -> Vec<BlockId> {
        self.inner.live_blocks()
    }
}

// ---------------------------------------------------------------------
// Layer replays at a cell's parameters
// ---------------------------------------------------------------------

/// Per-operation costs (ns unless noted) of the round loop's layers,
/// replayed at one configuration.
#[derive(Debug, Clone, Copy, Default)]
struct LayerCosts {
    gap_ns: f64,
    /// Successful rounds (oracle gaps) per simulated round.
    gaps_per_round: f64,
    update_ns: f64,
    skip_ns: f64,
    schedule_ns: f64,
    drain_ns: f64,
    consider_ns: f64,
    add_ns: f64,
    prune_ns: f64,
}

const REPLAY_OPS: usize = 20_000;

fn split_honest(groups: usize, n_honest: u64) -> [u64; 2] {
    if groups == 1 {
        [n_honest, 0]
    } else {
        [n_honest / 2, n_honest - n_honest / 2]
    }
}

/// Replays each layer's public operations at `cfg` with `groups`
/// honest delivery groups and returns their per-operation costs.
fn replay_layers(cfg: &SimConfig, groups: usize) -> LayerCosts {
    let mut costs = LayerCosts::default();
    let rng = Xoshiro256PlusPlus::seed_from_u64(cfg.seed ^ 0x7EACE);
    let mut oracle = MiningOracle::new(
        split_honest(groups, cfg.n_honest()),
        cfg.n_adversary(),
        cfg.hardness,
        rng,
    );

    // Oracle: gap sampling, timed as one loop.
    let mut gaps = Vec::with_capacity(REPLAY_OPS);
    let mut honest = Vec::with_capacity(REPLAY_OPS);
    let t = Instant::now();
    for _ in 0..REPLAY_OPS {
        match oracle.sample_gap_to_success() {
            Some((gap, out)) => {
                gaps.push(gap);
                honest.push(out.honest_total());
            }
            None => break,
        }
    }
    let elapsed = ns_since(t);
    if gaps.is_empty() {
        return costs;
    }
    costs.gap_ns = elapsed as f64 / gaps.len() as f64;
    costs.gaps_per_round = gaps.len() as f64 / gaps.iter().sum::<u64>() as f64;

    // Detectors: per-round updates on executed rounds, closed-form
    // advances across quiet stretches.
    let mut suffix = SuffixTracker::new(cfg.delta);
    let mut convergence = ConvergenceDetector::new(cfg.delta);
    let t = Instant::now();
    for &h in &honest {
        suffix.update(RoundState::from_count(h));
        convergence.update(h);
    }
    costs.update_ns = ns_since(t) as f64 / honest.len() as f64;
    let t = Instant::now();
    for &gap in &gaps {
        suffix.advance_n_run(gap.max(2) - 1);
        convergence.advance_n_run(gap.max(2) - 1);
    }
    costs.skip_ns = ns_since(t) as f64 / gaps.len() as f64;
    black_box((suffix.rounds_counted(), convergence.count()));

    // Tree and chain selection: a chain extended one block at a time,
    // each block considered by every group.
    let mut tree = nakamoto_sim::tree::BlockTree::new();
    let mut blocks = Vec::with_capacity(REPLAY_OPS);
    let mut tip = tree.root();
    let t = Instant::now();
    for i in 0..REPLAY_OPS {
        tip = tree.add_block(tip, i as Round + 1, Provenance::Honest(i % groups));
        blocks.push(tip);
    }
    costs.add_ns = ns_since(t) as f64 / REPLAY_OPS as f64;
    let mut tracker = ChainTracker::new(groups);
    let t = Instant::now();
    for &block in &blocks {
        for g in 0..groups {
            black_box(tracker.consider(g, block, &tree));
        }
    }
    costs.consider_ns = ns_since(t) as f64 / (REPLAY_OPS * groups) as f64;

    // Pruning: the tree one prune interval grows, cut below its tip.
    let per_interval = ((DEFAULT_PRUNE_INTERVAL as f64 * cfg.hardness * cfg.n_miners as f64).ceil()
        as usize)
        .clamp(8, REPLAY_OPS);
    costs.prune_ns = median(
        (0..9)
            .map(|_| {
                let mut tree = nakamoto_sim::tree::BlockTree::new();
                let mut tip = tree.root();
                let mut keep = tip;
                for i in 0..per_interval {
                    tip = tree.add_block(tip, i as Round + 1, Provenance::Honest(0));
                    if i + 1 == per_interval - cfg.delta.min(4) as usize {
                        keep = tip;
                    }
                }
                let t = Instant::now();
                tree.prune_to(keep);
                black_box(tree.len());
                ns_since(t) as f64
            })
            .collect(),
    );

    // Network: 64 blocks scheduled on consecutive rounds ahead, then
    // those 64 rounds drained; each batch is one timed span, so the
    // clock's own cost is spread over 64 operations.
    const BATCH: usize = 64;
    let mut network = Network::new();
    let mut out = Vec::new();
    let (mut sched, mut drain, mut delivered) = (0u64, 0u64, 0u64);
    let mut round: Round = 0;
    for chunk in blocks.chunks(BATCH) {
        let t = Instant::now();
        for (i, &block) in chunk.iter().enumerate() {
            network.schedule(block, i % groups, round + 1 + i as Round);
        }
        sched += ns_since(t);
        let t = Instant::now();
        for _ in 0..chunk.len() {
            round += 1;
            network.drain_due_into(round, &mut out);
            delivered += out.len() as u64;
        }
        drain += ns_since(t);
    }
    costs.schedule_ns = sched as f64 / blocks.len() as f64;
    costs.drain_ns = drain as f64 / delivered.max(1) as f64;
    costs
}

/// Replays memoised by configuration and group count (cells of one grid
/// share few distinct points).
fn replay_cached(cfg: &SimConfig, groups: usize) -> LayerCosts {
    static CACHE: OnceLock<Mutex<BTreeMap<String, LayerCosts>>> = OnceLock::new();
    let key = format!(
        "{} {} {} {} {groups}",
        cfg.n_miners, cfg.adversary_fraction, cfg.hardness, cfg.delta
    );
    let cache = CACHE.get_or_init(Mutex::default);
    if let Some(c) = cache.lock().expect("replay cache lock").get(&key) {
        return *c;
    }
    let costs = replay_layers(cfg, groups);
    cache.lock().expect("replay cache lock").insert(key, costs);
    costs
}

// ---------------------------------------------------------------------
// Per-cell trace records and their accumulation
// ---------------------------------------------------------------------

/// What one simulated workload (a cell's trials, or a scenario replay)
/// contributes to the layer accounting.
#[derive(Debug, Default, Clone, Copy)]
struct LayerWork {
    rounds: u64,
    blocks: u64,
    honest_blocks: u64,
    acts: ActCounts,
    /// CPU time the work took (summed over its trials).
    busy_ns: u64,
    /// The configuration and group count the layer replay runs at.
    replay_at: Option<(SimConfig, usize)>,
    /// Filled from the replay after the timed pass.
    costs: LayerCosts,
}

impl LayerWork {
    fn gaps(&self) -> f64 {
        self.costs.gaps_per_round * self.rounds as f64
    }

    fn deliveries(&self) -> u64 {
        self.acts.releases + self.acts.honest_delays
    }

    fn prunes(&self) -> f64 {
        (self.rounds / DEFAULT_PRUNE_INTERVAL) as f64
    }

    /// Time each layer accounts for (its count × its replayed cost),
    /// in ns; `trace` is the timing wrapper's own cost.
    fn parts(&self) -> [(&'static str, f64); 8] {
        let c = &self.costs;
        let gaps = self.gaps();
        let acts = self.acts.calls as f64;
        let deliveries = self.deliveries() as f64;
        [
            ("oracle", gaps * c.gap_ns),
            ("events", gaps * c.skip_ns + acts * c.update_ns),
            ("adversary", acts * self.acts.act_ns()),
            ("network", deliveries * (c.schedule_ns + c.drain_ns)),
            (
                "consistency",
                (deliveries + self.honest_blocks as f64) * c.consider_ns,
            ),
            ("tree.add", self.blocks as f64 * c.add_ns),
            ("tree.prune", self.prunes() * c.prune_ns),
            (
                "trace",
                self.acts.timed as f64 * TIMER.get().map_or(0.0, |t| t.pair),
            ),
        ]
    }

    /// Time the layer counts × replayed costs account for, in ns.
    fn explained_ns(&self) -> f64 {
        self.parts().iter().map(|(_, ns)| ns).sum()
    }
}

/// One traced cell.
struct CellTrace {
    result: CellResult,
    start_ns: u64,
    end_ns: u64,
    thread: std::thread::ThreadId,
    overlay_ns: u64,
    class: Option<&'static str>,
    strategy: Option<&'static str>,
    work: Option<LayerWork>,
}

fn strategy_name(kind: StrategyKind) -> &'static str {
    match kind {
        StrategyKind::Honest => "honest",
        StrategyKind::PrivateChain => "private-chain",
        StrategyKind::Balance => "balance",
        StrategyKind::Selfish => "selfish",
        StrategyKind::Composed(_) => "composed",
    }
}

fn class_of(cfg: &SimConfig, strategy: StrategyKind) -> &'static str {
    let c = cfg.c();
    let near = |x: f64| (c - x).abs() < 1e-9 * x;
    match strategy {
        StrategyKind::PrivateChain if near(0.5) => "c0.5.private-chain",
        StrategyKind::Balance if near(0.5) => "c0.5.balance",
        StrategyKind::PrivateChain if near(1.0) => "c1.private-chain",
        StrategyKind::Balance if near(1.0) => "c1.balance",
        StrategyKind::PrivateChain if near(2.0) => "c2.private-chain",
        StrategyKind::Balance if near(2.0) => "c2.balance",
        StrategyKind::PrivateChain if near(3.0) => "c3.private-chain",
        _ => "other",
    }
}

/// Runs a stationary Wilson plan through `TrialPlan::run` with every
/// trial's adversary wrapped in [`Timed`].
fn run_wrapped(
    plan: &nakamoto_sim::montecarlo::TrialPlan,
    strategy: StrategyKind,
    compositions: &[nakamoto_sim::compose::Composition],
    sink: &Arc<Sink>,
) -> nakamoto_sim::montecarlo::MonteCarloRun {
    let delta = plan.config.delta;
    let s = Some(Arc::clone(sink));
    match strategy {
        StrategyKind::Honest => {
            plan.run(move |_| Timed::new(ImmediateReleaseAdversary::new(), s.clone()))
        }
        StrategyKind::PrivateChain => {
            plan.run(move |_| Timed::new(PrivateChainAdversary::new(delta), s.clone()))
        }
        StrategyKind::Balance => {
            plan.run(move |_| Timed::new(BalanceAdversary::new(delta), s.clone()))
        }
        StrategyKind::Selfish => {
            plan.run(move |_| Timed::new(SelfishMiningAdversary::new(delta), s.clone()))
        }
        StrategyKind::Composed(i) => {
            let composition = compositions[i].clone();
            plan.run(move |_| {
                Timed::new(
                    ComposedAdversary::new(delta, composition.clone()),
                    s.clone(),
                )
            })
        }
    }
}

fn group_count(strategy: StrategyKind, delta: u64) -> usize {
    match strategy {
        StrategyKind::Balance => BalanceAdversary::new(delta).group_count(),
        _ => 1,
    }
}

/// Executes one cell the traced way. Results must equal the untraced
/// path's: only the timing wrapper and outside timers are added.
fn run_traced_cell(cell: ExperimentCell, epoch: Instant) -> Result<CellTrace, String> {
    let start_ns = ns_since(epoch);
    let plan = cell.spec.plan().map_err(|e| e.to_string())?;
    let mut class = None;
    let mut strategy_label = None;
    let mut work = None;
    let estimate = match &plan {
        ExperimentPlan::Stationary {
            plan: trial_plan,
            strategy,
            compositions,
            splitting: None,
        } => {
            let sink = Arc::new(Sink::default());
            let run = run_wrapped(trial_plan, *strategy, compositions, &sink);
            strategy_label = Some(strategy_name(*strategy));
            // Batched lanes overlap their wrappers' lifetimes, so only
            // scalar cells feed the per-class time accounting.
            if trial_plan.batch_width <= 1 {
                class = Some(class_of(&trial_plan.config, *strategy));
                let aggregate = &run.aggregate;
                work = Some(LayerWork {
                    rounds: aggregate.total_rounds(),
                    blocks: aggregate.total_honest_blocks + aggregate.total_adversary_blocks,
                    honest_blocks: aggregate.total_honest_blocks,
                    acts: sink.counts(),
                    busy_ns: sink.trial_ns(),
                    replay_at: Some((
                        trial_plan.config,
                        group_count(*strategy, trial_plan.config.delta),
                    )),
                    costs: LayerCosts::default(),
                });
            } else {
                work = Some(LayerWork {
                    acts: sink.counts(),
                    ..LayerWork::default()
                });
            }
            Estimate::Wilson(run)
        }
        _ => plan.execute().estimate,
    };
    let t = Instant::now();
    let config = experiment::binding_config(&cell.spec).map_err(|e| e.to_string())?;
    let analytic = consistency_core::analytic::for_sim_config(&config);
    let overlay_ns = ns_since(t);
    Ok(CellTrace {
        result: CellResult {
            labels: cell.labels,
            spec: cell.spec,
            rounds_per_trial: plan.rounds_per_trial(),
            estimate,
            analytic,
        },
        start_ns,
        end_ns: ns_since(epoch),
        thread: std::thread::current().id(),
        overlay_ns,
        class,
        strategy: strategy_label,
        work,
    })
}

/// Per-phase-kind timings and per-strategy counts of one scenario cell,
/// from two single-trial replays of its first trial: the real
/// `ScenarioRunner`, phase by phase, and the same phases driven through
/// a `Simulation` whose `ScenarioAdversary` is wrapped in [`Timed`].
struct ScenarioTrace {
    phase_ms: Vec<(&'static str, f64)>,
    acts: Vec<(&'static str, ActCounts)>,
    work: LayerWork,
    transparent: bool,
}

fn phase_kind(regime: Regime) -> &'static str {
    match regime {
        Regime::Calm => "calm",
        Regime::Adversarial => "full-delta",
        Regime::Eclipse { .. } => "eclipse",
    }
}

fn trace_scenario(spec: &ExperimentSpec) -> Result<ScenarioTrace, String> {
    let scenario = spec.scenario().map_err(|e| e.to_string())?;
    let mut runner = ScenarioRunner::new(scenario.clone());
    let mut phase_ms = Vec::new();
    for phase in scenario.phases() {
        let t = Instant::now();
        runner.run_next_phase();
        phase_ms.push((phase_kind(phase.regime), ns_since(t) as f64 / 1e6));
    }
    let expected = runner.sim().report();

    let rng = Xoshiro256PlusPlus::seed_from_u64(scenario.base().seed);
    let adversary = Timed::new(ScenarioAdversary::new(&scenario), None);
    let mut sim = Simulation::with_rng(scenario.phase_config(0), adversary, rng);
    if scenario.detector_delta(0) != scenario.base().delta {
        sim.reconfigure_detectors(scenario.detector_delta(0));
    }
    let mut acts = Vec::new();
    let mut total = ActCounts::default();
    let cpu = thread_cpu_ns();
    for (i, phase) in scenario.phases().iter().enumerate() {
        if i > 0 {
            let cfg = scenario.phase_config(i);
            sim.adversary_mut()
                .inner
                .set_phase(phase.strategy, phase.regime);
            sim.reconfigure_mining(cfg.adversary_fraction, cfg.hardness);
            let d = scenario.detector_delta(i);
            if d != scenario.detector_delta(i - 1) {
                sim.reconfigure_detectors(d);
            }
        }
        let before = sim.adversary().counts;
        sim.run(phase.rounds);
        let delta = sim.adversary().counts.minus(&before);
        total.add(&delta);
        acts.push((strategy_name(phase.strategy), delta));
    }
    let busy_ns = thread_cpu_ns() - cpu;
    let report = sim.report();
    // The attack window is the highest-ν phase: its configuration sets
    // the layer costs for the whole cell.
    let window = experiment::binding_config(spec).map_err(|e| e.to_string())?;
    Ok(ScenarioTrace {
        phase_ms,
        acts,
        transparent: report == expected,
        work: LayerWork {
            rounds: report.rounds,
            blocks: report.honest_blocks + report.adversary_blocks,
            honest_blocks: report.honest_blocks,
            acts: total,
            busy_ns,
            replay_at: None,
            costs: replay_cached(&window, scenario.group_count()),
        },
    })
}

// ---------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------

#[derive(Default)]
struct Totals {
    metrics: BTreeMap<String, f64>,
    cell_ms: Vec<f64>,
    busy_ns: u64,
    traced_wall_ns: u64,
    untraced_wall_ns: u64,
    class_work: BTreeMap<&'static str, Vec<LayerWork>>,
    /// Per class: simulated rounds and untraced cell seconds.
    class_rounds: BTreeMap<&'static str, (u64, f64)>,
    strategy_acts: BTreeMap<&'static str, ActCounts>,
    phase_ms: BTreeMap<&'static str, Vec<f64>>,
    all_work: Vec<LayerWork>,
    adaptive_run: u64,
    adaptive_cap: u64,
    batch_rounds: u64,
    batch_ns: u64,
    scalar_ns: u64,
    splitting_stages: u64,
    splitting_ns: f64,
    exact_us: Vec<f64>,
    errors: Vec<String>,
}

impl Totals {
    fn add(&mut self, name: &str, v: f64) {
        *self.metrics.entry(name.to_string()).or_insert(0.0) += v;
    }

    fn set(&mut self, name: &str, v: f64) {
        self.metrics.insert(name.to_string(), v);
    }

    /// Books an untraced cell's rounds and elapsed time to `class`.
    fn class_rate(&mut self, class: &'static str, untraced: &CellResult) {
        let e = self.class_rounds.entry(class).or_default();
        e.0 += untraced.estimate.simulated_rounds();
        e.1 += untraced.estimate.elapsed_secs();
    }
}

fn stem(path: &str) -> String {
    std::path::Path::new(path)
        .file_stem()
        .map_or_else(|| path.to_string(), |s| s.to_string_lossy().into_owned())
}

fn trace_spec(path: &str, jobs: usize, out_dir: &str, totals: &mut Totals) -> Result<(), String> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let spec = ExperimentSpec::parse(&source).map_err(|e| format!("{path}: {e}"))?;
    let name = stem(path);

    // Spec layer: parse and expand, median of repeated calls.
    totals.add(
        "spec.parse_ms",
        median_ms(15, || ExperimentSpec::parse(&source).is_ok()),
    );
    totals.add(
        "spec.expand_ms",
        median_ms(15, || spec.expand().map(|c| c.len())),
    );

    // Untraced pass: the experiment binary's own path.
    let t = Instant::now();
    let untraced = experiment::run_spec_streaming(&spec, jobs, |_, _| {})
        .map_err(|e| format!("{name}: {e}"))?;
    totals.untraced_wall_ns += ns_since(t);

    // Traced pass: every cell one unit on the shared pool at `jobs`.
    let cells = Arc::new(spec.expand().map_err(|e| format!("{name}: {e}"))?);
    let total = cells.len() as u64;
    let width = if jobs == 0 {
        executor::global_width()
    } else {
        jobs
    };
    let before = executor::global_stats();
    let epoch = Instant::now();
    let traced = {
        let cells = Arc::clone(&cells);
        executor::run_ordered(total, width, TaskKind::Composite, move |i| {
            run_traced_cell(cells[i as usize].clone(), epoch)
        })
    };
    let wall_ns = ns_since(epoch);
    let after = executor::global_stats();
    totals.traced_wall_ns += wall_ns;
    totals.add(
        "executor.tasks",
        (after.tasks_executed - before.tasks_executed) as f64,
    );
    totals.add("executor.steals", (after.steals - before.steals) as f64);
    totals.add(
        "executor.jobs_inline",
        (after.jobs_inline - before.jobs_inline) as f64,
    );
    let traced: Vec<CellTrace> = traced
        .into_iter()
        .collect::<Result<_, _>>()
        .map_err(|e| format!("{name}: {e}"))?;

    // Tail: wall time after the first worker ran out of cells.
    let mut last_end: Vec<(std::thread::ThreadId, u64)> = Vec::new();
    for c in &traced {
        match last_end.iter_mut().find(|(t, _)| *t == c.thread) {
            Some((_, end)) => *end = (*end).max(c.end_ns),
            None => last_end.push((c.thread, c.end_ns)),
        }
    }
    let first_idle = if last_end.len() < width {
        0
    } else {
        last_end.iter().map(|&(_, end)| end).min().unwrap_or(0)
    };
    totals.add(
        "executor.tail_ms",
        wall_ns.saturating_sub(first_idle) as f64 / 1e6,
    );

    for (c, plain) in traced.iter().zip(&untraced) {
        let cell_ns = c.end_ns - c.start_ns;
        totals.busy_ns += cell_ns;
        totals.cell_ms.push(cell_ns as f64 / 1e6);
        totals.add("experiment.overlay_ms", c.overlay_ns as f64 / 1e6);
        let r = &c.result;
        if let (Some(s), Some(w)) = (c.strategy, &c.work) {
            totals.strategy_acts.entry(s).or_default().add(&w.acts);
        }
        if let (Some(class), Some(mut w)) = (c.class, c.work) {
            if let Some((cfg, groups)) = w.replay_at {
                w.costs = replay_cached(&cfg, groups);
            }
            totals.class_work.entry(class).or_default().push(w);
            totals.all_work.push(w);
            totals.class_rate(class, plain);
        }
        match &r.estimate {
            Estimate::Wilson(run) => {
                totals.add("montecarlo.trials", run.aggregate.trials as f64);
                totals.add("montecarlo.rounds", run.aggregate.total_rounds() as f64);
                if r.spec.run.stop_half_width.is_some() {
                    totals.adaptive_run += run.aggregate.trials;
                    totals.adaptive_cap += r.spec.run.trials;
                }
            }
            Estimate::Splitting(run) => {
                totals.add(
                    "splitting.replicas",
                    run.levels.iter().map(|l| l.effort).sum::<u64>() as f64,
                );
                totals.add("splitting.rounds", run.total_rounds as f64);
                totals.splitting_stages += run.levels.len() as u64;
                totals.splitting_ns += run.elapsed_secs * 1e9;
            }
            Estimate::Exact(run) => totals.exact_us.push(run.elapsed_secs * 1e6),
        }
        // Batched cells: the same plan again, single-threaded, batched
        // and scalar; both must reproduce the traced aggregate.
        if let (Ok(ExperimentPlan::Stationary { plan, .. }), Estimate::Wilson(run)) =
            (r.spec.plan(), &r.estimate)
        {
            if plan.batch_width > 1 {
                let strategy = match &r.spec.mode {
                    ExperimentMode::Stationary { strategy, .. } => *strategy,
                    ExperimentMode::Scenario(_) => StrategyKind::Honest,
                };
                let sink = Arc::new(Sink::default());
                let single = plan.clone().with_threads(1);
                let batched = run_wrapped(&single, strategy, &r.spec.compositions, &sink);
                let scalar = run_wrapped(
                    &single.clone().with_batch_width(1),
                    strategy,
                    &r.spec.compositions,
                    &sink,
                );
                if batched.aggregate != run.aggregate || scalar.aggregate != run.aggregate {
                    totals
                        .errors
                        .push(format!("{name}: batched and scalar aggregates differ"));
                }
                totals.batch_rounds += run.aggregate.total_rounds();
                totals.batch_ns += (batched.elapsed_secs * 1e9) as u64;
                totals.scalar_ns += (scalar.elapsed_secs * 1e9) as u64;
            }
        }
        if let ExperimentMode::Scenario(_) = &r.spec.mode {
            let s = trace_scenario(&r.spec)?;
            if !s.transparent {
                totals.errors.push(format!(
                    "{name}: wrapped scenario replay differs from ScenarioRunner"
                ));
            }
            for (kind, ms) in s.phase_ms {
                totals.phase_ms.entry(kind).or_default().push(ms);
            }
            for (strategy, acts) in s.acts {
                totals.strategy_acts.entry(strategy).or_default().add(&acts);
            }
            totals
                .class_work
                .entry("scenario")
                .or_default()
                .push(s.work);
            totals.all_work.push(s.work);
            totals.class_rate("scenario", plain);
        }
        if experiment::to_json(&name, std::slice::from_ref(r))
            != experiment::to_json(&name, std::slice::from_ref(plain))
        {
            totals.errors.push(format!(
                "{name}: traced cell [{}] differs",
                r.labels.join(", ")
            ));
        }
    }

    // JSON emission: the traced results, written for the byte guard.
    let results: Vec<CellResult> = traced.into_iter().map(|c| c.result).collect();
    let json = experiment::to_json(&name, &results);
    totals.add(
        "experiment.json_ms",
        median_ms(15, || experiment::to_json(&name, &results).len()),
    );
    totals.add("experiment.json_bytes", json.len() as f64);
    let out = format!("{out_dir}/{name}.traced.json");
    std::fs::write(&out, json).map_err(|e| format!("{out}: {e}"))?;
    Ok(())
}

fn finish(totals: &mut Totals, jobs: usize) {
    let width = if jobs == 0 {
        executor::global_width()
    } else {
        jobs
    };
    totals.set("experiment.cell_ms.p50", median(totals.cell_ms.clone()));
    totals.set(
        "experiment.cell_ms.max",
        totals.cell_ms.iter().copied().fold(0.0, f64::max),
    );
    const UNITS: u64 = 20_000;
    let t = Instant::now();
    black_box(executor::run_ordered(UNITS, width, TaskKind::Leaf, |i| {
        black_box(i)
    }));
    totals.set(
        "executor.dispatch_us",
        ns_since(t) as f64 / UNITS as f64 / 1e3,
    );
    if totals.traced_wall_ns > 0 {
        totals.set(
            "executor.busy_frac",
            totals.busy_ns as f64 / (width as f64 * totals.traced_wall_ns as f64),
        );
    }
    if totals.adaptive_cap > 0 {
        totals.set(
            "montecarlo.adaptive_saved_frac",
            1.0 - totals.adaptive_run as f64 / totals.adaptive_cap as f64,
        );
    }
    if totals.batch_ns > 0 {
        totals.set(
            "batch.rounds_per_s",
            totals.batch_rounds as f64 / (totals.batch_ns as f64 / 1e9),
        );
        totals.set(
            "batch.scalar_rounds_per_s",
            totals.batch_rounds as f64 / (totals.scalar_ns as f64 / 1e9),
        );
    }
    if totals.splitting_stages > 0 {
        totals.set(
            "splitting.stage_ms",
            totals.splitting_ns / totals.splitting_stages as f64 / 1e6,
        );
    }
    if !totals.exact_us.is_empty() {
        totals.set("exact.solve_us", median(totals.exact_us.clone()));
    }

    for (class, works) in totals.class_work.clone() {
        let rounds: u64 = works.iter().map(|w| w.rounds).sum();
        let busy: u64 = works.iter().map(|w| w.busy_ns).sum();
        let calls: u64 = works.iter().map(|w| w.acts.calls).sum();
        let explained: f64 = works.iter().map(LayerWork::explained_ns).sum();
        let (plain_rounds, plain_secs) =
            totals.class_rounds.get(class).copied().unwrap_or_default();
        if plain_secs > 0.0 {
            totals.set(
                &format!("execution.rounds_per_s.{class}"),
                plain_rounds as f64 / plain_secs,
            );
        }
        if busy > 0 && rounds > 0 {
            // The breakdown behind the class's rate, in ns per simulated
            // round, for the human reader (stderr).
            let mut line = format!(
                "layers {class:<19} {:6.2} ns/round traced:",
                busy as f64 / rounds as f64
            );
            for (i, (layer, _)) in works[0].parts().iter().enumerate() {
                let ns: f64 = works.iter().map(|w| w.parts()[i].1).sum();
                line.push_str(&format!(" {layer} {:.2}", ns / rounds as f64));
            }
            eprintln!("{line}");
            totals.set(
                &format!("execution.executed_round_frac.{class}"),
                calls as f64 / rounds as f64,
            );
            totals.set(
                &format!("execution.unexplained_frac.{class}"),
                1.0 - explained / busy as f64,
            );
        }
    }

    // Layer costs weighted by how often each layer ran.
    let works = totals.all_work.clone();
    let weighted = |count: &dyn Fn(&LayerWork) -> f64, cost: &dyn Fn(&LayerCosts) -> f64| {
        let n: f64 = works.iter().map(count).sum();
        if n > 0.0 {
            works.iter().map(|w| count(w) * cost(&w.costs)).sum::<f64>() / n
        } else {
            0.0
        }
    };
    let gaps = |w: &LayerWork| w.gaps();
    let updates = |w: &LayerWork| w.acts.calls as f64;
    let deliveries = |w: &LayerWork| w.deliveries() as f64;
    let considers = |w: &LayerWork| (w.deliveries() + w.honest_blocks) as f64;
    let blocks = |w: &LayerWork| w.blocks as f64;
    let prunes = |w: &LayerWork| w.prunes();
    let sums = [
        ("oracle.gaps", works.iter().map(gaps).sum::<f64>().round()),
        ("oracle.gap_ns", weighted(&gaps, &|c| c.gap_ns)),
        ("events.update_ns", weighted(&updates, &|c| c.update_ns)),
        ("events.skip_ns", weighted(&gaps, &|c| c.skip_ns)),
        (
            "network.deliveries",
            works.iter().map(deliveries).sum::<f64>(),
        ),
        (
            "network.schedule_ns",
            weighted(&deliveries, &|c| c.schedule_ns),
        ),
        ("network.drain_ns", weighted(&deliveries, &|c| c.drain_ns)),
        (
            "consistency.consider_ns",
            weighted(&considers, &|c| c.consider_ns),
        ),
        ("tree.add_ns", weighted(&blocks, &|c| c.add_ns)),
        ("tree.prunes", works.iter().map(prunes).sum::<f64>()),
        ("tree.prune_ms", weighted(&prunes, &|c| c.prune_ns) / 1e6),
    ];
    for (name, v) in sums {
        totals.set(name, v);
    }
    for (strategy, acts) in totals.strategy_acts.clone() {
        totals.set(
            &format!("adversary.act_calls.{strategy}"),
            acts.calls as f64,
        );
        totals.set(&format!("adversary.act_ns.{strategy}"), acts.act_ns());
        totals.set(
            &format!("adversary.releases.{strategy}"),
            acts.releases as f64,
        );
    }
    for (kind, ms) in totals.phase_ms.clone() {
        totals.set(&format!("scenario.phase_ms.{kind}"), median(ms));
    }
    if totals.untraced_wall_ns > 0 {
        totals.set(
            "trace.overhead_frac",
            totals.traced_wall_ns as f64 / totals.untraced_wall_ns as f64 - 1.0,
        );
    }
    totals.set("trace.timer_ns", TIMER.get().map_or(0.0, |t| t.floor));
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The host-speed probe: fixed dependent chains of xorshift steps with
/// branchy loads and stores spread over an 8 MiB table per thread, so
/// it slows with the host's cores and caches as the round loop does.
/// `threads` threads share a fixed number of chunks through an atomic
/// counter, as the executor's workers share cells, so the wall time
/// follows the threads' combined speed. Returns wall seconds.
fn probe(threads: usize) -> f64 {
    const CHUNKS: usize = 60;
    const STEPS: u64 = 100_000;
    const SIZE: usize = 1 << 21;
    let next = std::sync::atomic::AtomicUsize::new(0);
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let mut table = vec![0u32; SIZE];
                let mut acc = 0u64;
                while next.fetch_add(1, std::sync::atomic::Ordering::Relaxed) < CHUNKS {
                    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
                    for i in 0..STEPS {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let j = (x as usize) & (SIZE - 1);
                        match x & 3 {
                            0 => table[j] = table[j].wrapping_add(i as u32),
                            1 => acc = acc.wrapping_add(u64::from(table[j])),
                            _ => table[(j + 1) & (SIZE - 1)] ^= x as u32,
                        }
                    }
                }
                black_box((acc, &table));
            });
        }
    });
    t.elapsed().as_secs_f64()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("probe") {
        match args.get(1).map(|t| t.parse::<usize>()) {
            Some(Ok(threads)) if threads > 0 => println!("{}", probe(threads)),
            _ => {
                eprintln!("usage: perfbench_tracer probe <threads>");
                std::process::exit(2);
            }
        }
        return;
    }
    if args.len() < 3 {
        eprintln!("usage: perfbench_tracer <jobs> <out-dir> <spec.toml>...");
        std::process::exit(2);
    }
    let jobs: usize = match args[0].parse() {
        Ok(j) => j,
        Err(e) => {
            eprintln!("jobs: {e}");
            std::process::exit(2);
        }
    };
    if jobs > 0 {
        executor::configure_global_width(jobs);
    }
    TIMER.get_or_init(calibrate_timer);
    let mut totals = Totals::default();
    for path in &args[2..] {
        if let Err(e) = trace_spec(path, jobs, &args[1], &mut totals) {
            totals.errors.push(e);
        }
    }
    finish(&mut totals, jobs);

    let names = metric_names();
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = totals.metrics.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!(
                "{}: {{\"value\": {v:e}, \"unit\": {}}}",
                json_string(name),
                json_string(unit)
            )
        })
        .collect();
    let unknown: Vec<&String> = totals
        .metrics
        .keys()
        .filter(|k| !names.iter().any(|(n, _)| n == *k))
        .collect();
    for k in unknown {
        totals
            .errors
            .push(format!("metric {k} is not in the published list"));
    }
    let errors: Vec<String> = totals.errors.iter().map(|e| json_string(e)).collect();
    println!(
        "{{\"ok\": {}, \"errors\": [{}], \"metrics\": {{{}}}}}",
        totals.errors.is_empty(),
        errors.join(", "),
        metrics.join(", ")
    );
}
