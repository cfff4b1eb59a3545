//! The workloads and the legs every workload runs, in this order:
//!
//! 1. set-up, a fixed number of times: corpus generation with
//!    self-validation, the workload's inputs, and one warm-up pass on one
//!    thread, so caches fill and the interner is populated;
//! 2. the traced leg (`--trace 1` only): pass 0 on one thread with every
//!    layer scoped;
//! 3. priming: every pass once on one thread, each run timed; its records
//!    are the reference every later repetition must reproduce;
//! 4. the latency and throughput legs, interleaved over a fixed number of
//!    rounds: each round runs every pass, each on one thread with every
//!    run timed alone and then on two clients.
//!
//! The inputs are fixed: the repository's corpus and the passes drawn
//! from its seed, so every outcome repeats exactly whatever `--seed` is.
//! The seed decides the schedule: the order of the passes in each round
//! and the order a fleet pass submits its runs in.
//!
//! The warm-up and priming run on one thread so that what the
//! process-wide caches (layout cache, interner) keep is allocated in a
//! fixed order, and the allocator returns free memory to the OS before
//! every pass; together these make `peak_rss_mb` repeat to within about
//! 3% between quartiles.

use std::time::Instant;

use eclair_chaos::ChaosProfile;
use eclair_fleet::derive_seed;
use eclair_hybrid::HybridPolicy;
use eclair_sites::TaskSpec;

use crate::agent_load::AgentLoad;
use crate::fleet_load::FleetLoad;
use crate::layers::{self, scope, Layer};
use crate::metrics::{Metrics, END_TO_END, PER_LAYER};
use crate::stats::{self, Fnv};

/// Seed of every input: the corpus is `generate(INPUT_SEED)`, the one
/// `eclair_corpus::corpus_tasks()` serves, and pass `p` runs on stream
/// `p + 1` of it.
const INPUT_SEED: u64 = eclair_corpus::CORPUS_SEED;
/// Seed stream of the chaos schedule.
const CHAOS_STREAM: u64 = u64::MAX;
/// Seed stream of the set-up warm-up pass.
const WARMUP_STREAM: u64 = u64::MAX - 1;
/// Fault rate of the chaos-recovery workload.
const CHAOS_RATE: f64 = 0.25;
/// The traced leg fails when more than this share of its time lies
/// outside every layer scope.
const MAX_UNATTRIBUTED: f64 = 0.05;

/// The deterministic facts of one run that two legs must agree on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunKey {
    /// Outcome code (the fleet's `RunOutcome`, or the agent's verdict bits).
    pub outcome: u64,
    /// The task's success check held.
    pub success: bool,
    pub attempts: u64,
    pub fm_calls: u64,
    pub tokens: u64,
    /// Actions attempted, over all attempts.
    pub steps: u64,
    pub faults: u64,
    /// Virtual execution time (fleet) or SOP-text digest (agent).
    pub detail: u64,
}

/// What one pass produced: a key per run in task order, and the digest,
/// size and event count of the flight record it exported.
pub struct Pass {
    pub keys: Vec<RunKey>,
    pub export: u64,
    pub export_bytes: u64,
    pub events: u64,
}

impl Pass {
    pub fn new(keys: Vec<RunKey>, jsonl: &str, events: u64) -> Self {
        Self {
            keys,
            export: Fnv::of(jsonl.as_bytes()),
            export_bytes: jsonl.len() as u64,
            events,
        }
    }
}

/// One workload's three ways of running a pass over its tasks.
pub trait Load {
    /// The production path on two clients, flight-record export included.
    /// `order` seeds the order the runs are submitted in, where the load
    /// can take them in any order without changing a result.
    fn pass_parallel(&self, seed: u64, order: u64) -> Pass;
    /// On this thread, pushing each run's wall time in milliseconds.
    fn pass_timed(&self, seed: u64, run_ms: &mut Vec<f64>) -> Pass;
    /// On this thread with every layer scoped, pushing each run's wall
    /// time in nanoseconds (export excluded, as in `pass_timed`).
    fn pass_traced(&self, seed: u64, run_ns: &mut Vec<f64>) -> Pass;
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FleetCorpus,
    ChaosRecovery,
    HybridBots,
    AgentPipeline,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FleetCorpus,
        Workload::ChaosRecovery,
        Workload::HybridBots,
        Workload::AgentPipeline,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetCorpus => "fleet-corpus",
            Workload::ChaosRecovery => "chaos-recovery",
            Workload::HybridBots => "hybrid-bots",
            Workload::AgentPipeline => "agent-pipeline",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Rounds of the timed legs, fixed so that every commit takes each
    /// minimum over the same number of samples. Calibrated to 10–12 s per
    /// invocation on the quiet 2-vCPU measurement host, which leaves room
    /// under the 30 s ceiling for a host running at 40% of its speed. At
    /// least 4, so that a long run's fastest round is rarely one the host
    /// interrupted and p99 holds still on a busy host.
    pub fn rounds(self) -> usize {
        match self {
            Workload::FleetCorpus => 8,
            Workload::ChaosRecovery => 6,
            Workload::HybridBots => 24,
            Workload::AgentPipeline => 4,
        }
    }

    fn load(self, tasks: Vec<TaskSpec>) -> Box<dyn Load> {
        match self {
            Workload::FleetCorpus => Box::new(FleetLoad::new(tasks, None, None)),
            Workload::ChaosRecovery => {
                let chaos = ChaosProfile::full(derive_seed(INPUT_SEED, CHAOS_STREAM), CHAOS_RATE);
                Box::new(FleetLoad::new(tasks, Some(chaos), None))
            }
            Workload::HybridBots => {
                Box::new(FleetLoad::new(tasks, None, Some(HybridPolicy::default())))
            }
            Workload::AgentPipeline => Box::new(AgentLoad::new(tasks)),
        }
    }
}

/// How much work one invocation does.
pub struct Plan {
    /// Seed of the schedule: pass order and submission order.
    pub seed: u64,
    /// Ceiling on the timed legs; the run fails beyond it.
    pub seconds: f64,
    /// Run the traced leg and report per-layer metrics instead of
    /// end-to-end ones.
    pub trace: bool,
    /// Set-ups `setup_s` is the median of.
    pub setups: usize,
    /// Distinct passes (pass seeds) every round runs.
    pub passes: usize,
    /// Rounds of the latency and throughput legs.
    pub rounds: usize,
    /// Truncate the corpus (tests); `None` runs all of it.
    pub max_tasks: Option<usize>,
}

/// A finished invocation.
pub struct Outcome {
    /// `(name, value, unit)` in the order of the reported table.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Runs executed in the measured legs.
    pub attempted: u64,
    /// Runs whose result differed from their pass's priming run (a
    /// cancelled run differs too).
    pub failed: u64,
    /// Failed correctness checks.
    pub errors: Vec<String>,
    /// Per-run samples the latency percentiles were taken from.
    pub latency_samples: usize,
    /// Context printed beside the metrics (sample and success counts).
    pub notes: Vec<String>,
}

#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Checks {
    /// Count `pass`'s runs; when `reference` is given, check that every
    /// run and the flight-record bytes reproduce it.
    fn pass(&mut self, leg: &str, index: usize, pass: &Pass, reference: Option<&Pass>) {
        self.attempted += pass.keys.len() as u64;
        let Some(want) = reference else { return };
        let differ = pass.keys.len().abs_diff(want.keys.len())
            + pass
                .keys
                .iter()
                .zip(&want.keys)
                .filter(|(a, b)| a != b)
                .count();
        if differ > 0 {
            self.failed += differ as u64;
            self.errors.push(format!(
                "{leg} pass {index}: {differ} runs differ from the pass's priming run"
            ));
        }
        if (pass.export, pass.export_bytes) != (want.export, want.export_bytes) {
            self.errors.push(format!(
                "{leg} pass {index}: flight record differs from the pass's priming run"
            ));
        }
    }
}

/// One set-up and what it took.
struct SetUp {
    load: Box<dyn Load>,
    /// Digest of the corpus manifest.
    manifest: u64,
    generate_ms: f64,
    total_s: f64,
}

/// Generate the corpus (self-validating every task), build the
/// workload's inputs, and run the warm-up pass on two clients.
fn set_up(workload: Workload, plan: &Plan) -> Result<SetUp, String> {
    let t = Instant::now();
    let corpus = eclair_corpus::generate(INPUT_SEED)
        .map_err(|e| format!("corpus generation failed: {e}"))?;
    let generate_ms = t.elapsed().as_secs_f64() * 1e3;
    let manifest = Fnv::of(corpus.manifest.to_json().as_bytes());
    let mut tasks = corpus.tasks;
    tasks.truncate(plan.max_tasks.unwrap_or(usize::MAX));
    let load = workload.load(tasks);
    // On this thread, so that what the process-wide caches keep is
    // allocated in a fixed order and the resident set repeats.
    load.pass_timed(derive_seed(INPUT_SEED, WARMUP_STREAM), &mut Vec::new());
    Ok(SetUp {
        load,
        manifest,
        generate_ms,
        total_s: t.elapsed().as_secs_f64(),
    })
}

/// Fisher–Yates shuffle drawing from `derive_seed(seed, i)`.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    for i in (1..items.len()).rev() {
        let j = derive_seed(seed, i as u64) % (i as u64 + 1);
        items.swap(i, j as usize);
    }
}

/// Run one workload under `plan`.
pub fn run(workload: Workload, plan: &Plan) -> Result<Outcome, String> {
    let started = Instant::now();
    let pass_seed = |pass: usize| derive_seed(INPUT_SEED, pass as u64 + 1);
    let mut checks = Checks::default();
    let mut notes = Vec::new();

    // 1. Set-up, `plan.setups` times for its median. Each drops the
    // previous inputs first, so one corpus is resident at a time.
    let mut setup_s = Vec::new();
    let mut generate_ms = Vec::new();
    let mut manifest = None;
    let mut load = None;
    for _ in 0..plan.setups.max(1) {
        drop(load.take());
        release_free_memory();
        let s = set_up(workload, plan)?;
        if *manifest.get_or_insert(s.manifest) != s.manifest {
            checks
                .errors
                .push("corpus generation is not a pure function of its seed".into());
        }
        setup_s.push(s.total_s);
        generate_ms.push(s.generate_ms);
        load = Some(s.load);
    }
    let load = load.expect("at least one set-up");

    // 2. Traced leg, on the caches only the set-up has warmed, as the
    // untraced pass 0 of priming meets them: its cache counters then show
    // the misses pass 0 causes.
    let traced = plan.trace.then(|| {
        layers::reset();
        eclair_trace::perf::reset();
        let mut run_ns = Vec::new();
        let pass = {
            let _root = scope(Layer::Root);
            load.pass_traced(pass_seed(0), &mut run_ns)
        };
        (
            pass,
            run_ns,
            layers::snapshot(),
            eclair_trace::perf::snapshot(),
        )
    });

    // 3. Priming: every pass once on this thread, in pass order, so that
    // what the process-wide caches keep is allocated in a fixed order
    // before the timed legs. Its records are the reference every later
    // repetition of a pass must reproduce, and its run times the first
    // latency sample of each run.
    let passes = plan.passes.max(1);
    // Per pass: each run's fastest time.
    let mut run_ms: Vec<Vec<f64>> = vec![Vec::new(); passes];
    let reference: Vec<Pass> = (0..passes)
        .map(|index| {
            release_free_memory();
            let pass = load.pass_timed(pass_seed(index), &mut run_ms[index]);
            checks.pass("priming", index, &pass, None);
            pass
        })
        .collect();
    if let Some((pass, ..)) = &traced {
        checks.pass("traced", 0, pass, Some(&reference[0]));
    }
    // Pass 0's priming time, the untraced twin of the traced pass.
    let pass0_ms: f64 = run_ms[0].iter().sum();

    // 4. Latency and throughput legs, interleaved over a fixed number of
    // rounds so both sample the same host conditions. Each round runs
    // every pass twice, in the round's order: on this thread with every
    // run timed alone, then on two clients. A pass does identical work in
    // every round, so time above its fastest round is interference from
    // the host: each run's latency is its fastest round (priming
    // included), and throughput is the runs of all passes over the sum of
    // each pass's fastest round.
    let rounds = plan.rounds.max(1);
    let mut best_pass_s = vec![f64::INFINITY; passes];
    let legs = Instant::now();
    for round in 0..rounds {
        let schedule = derive_seed(plan.seed, round as u64);
        let mut order: Vec<usize> = (0..passes).collect();
        shuffle(&mut order, schedule);
        for index in order {
            let seed = pass_seed(index);
            let mut ms = Vec::new();
            release_free_memory();
            let pass = load.pass_timed(seed, &mut ms);
            checks.pass("latency", index, &pass, Some(&reference[index]));
            for (best, x) in run_ms[index].iter_mut().zip(ms) {
                *best = best.min(x);
            }
            release_free_memory();
            let t = Instant::now();
            let pass = load.pass_parallel(seed, derive_seed(schedule, index as u64 + 1));
            best_pass_s[index] = best_pass_s[index].min(t.elapsed().as_secs_f64());
            checks.pass("throughput", index, &pass, Some(&reference[index]));
        }
    }
    let measured_s = legs.elapsed().as_secs_f64();
    if measured_s > plan.seconds {
        checks.errors.push(format!(
            "the timed legs took {measured_s:.1} s, more than the {} s allowed",
            plan.seconds
        ));
    }
    let run_ms: Vec<f64> = run_ms.concat();
    let throughput = run_ms.len() as f64 / best_pass_s.iter().sum::<f64>();
    notes.push(format!(
        "{rounds} rounds of {passes} passes of {} runs in total, {measured_s:.1} s; \
         {} set-ups; {:.1} s in all",
        run_ms.len(),
        setup_s.len(),
        started.elapsed().as_secs_f64()
    ));

    let mut m = Metrics::default();
    let metrics = match traced {
        None => {
            let mut sorted = run_ms.clone();
            sorted.sort_by(f64::total_cmp);
            let n = sorted.len();
            notes.push(format!(
                "run_p50_ms, run_p99_ms: {n} runs, each its fastest of {} timings; \
                 {} beyond p99",
                rounds + 1,
                stats::beyond(99.0, n)
            ));
            let succeeded = reference
                .iter()
                .flat_map(|p| &p.keys)
                .filter(|k| k.success)
                .count();
            notes.push(format!(
                "completion_rate: {succeeded} of the {n} runs of the passes succeeded"
            ));
            m.push("setup_s", stats::median(&setup_s));
            m.push("throughput_runs_per_s", throughput);
            m.push("run_p50_ms", stats::percentile(&sorted, 50.0));
            m.push("run_p99_ms", stats::percentile(&sorted, 99.0));
            m.push("completion_rate", succeeded as f64 / n.max(1) as f64);
            m.push("peak_rss_mb", peak_rss_mb()?);
            m.finish(&END_TO_END)
        }
        Some((pass, run_ns, totals, perf)) => {
            let runs = pass.keys.len().max(1) as f64;
            let total = totals.total_ns().max(1) as f64;
            let unattributed = totals.self_ns[Layer::Root as usize] as f64 / total;
            if unattributed > MAX_UNATTRIBUTED {
                checks.errors.push(format!(
                    "traced leg: {:.1}% of its time is outside every layer (limit {:.0}%)",
                    100.0 * unattributed,
                    100.0 * MAX_UNATTRIBUTED
                ));
            }
            let traced_ms: f64 = run_ns.iter().sum::<f64>() / 1e6;
            let mean_ms = run_ms.iter().sum::<f64>() / run_ms.len().max(1) as f64;
            m.push("corpus.generate_ms", stats::median(&generate_ms));
            m.push("traced.run_us", total / 1e3 / runs);
            m.push("traced.overhead_frac", traced_ms / pass0_ms - 1.0);
            for (name, layer) in SHARES {
                m.push(name, totals.self_ns[layer as usize] as f64 / total);
            }
            let calls = |l: Layer| totals.calls[l as usize] as f64;
            m.push("gui.screenshot_calls", calls(Layer::GuiScreenshot));
            m.push("gui.dispatch_calls", calls(Layer::GuiDispatch));
            let frames = perf.frame_cache_hits + perf.frame_cache_misses;
            m.push("gui.frames", frames as f64);
            m.push("gui.frame_cache_hit_rate", perf.frame_cache_hit_rate());
            m.push(
                "gui.frame_cache_invalidations",
                perf.frame_cache_invalidations as f64,
            );
            m.push("gui.relayouts_full", perf.relayouts_full as f64);
            m.push("gui.layout_cache_hits", perf.layout_cache_hits as f64);
            m.push("gui.intern_misses", perf.intern_misses as f64);
            m.push(
                "gui.intern_table_size",
                eclair_gui::intern::table_size() as f64,
            );
            let sum = |f: fn(&RunKey) -> u64| pass.keys.iter().map(f).sum::<u64>() as f64;
            m.push("core.execute.steps", sum(|k| k.steps));
            m.push("core.execute.attempts", sum(|k| k.attempts));
            m.push("fm.calls", sum(|k| k.fm_calls));
            m.push("fm.tokens", sum(|k| k.tokens));
            let perceives = perf.perceive_memo_hits + perf.perceive_memo_misses;
            m.push("fm.perceive_lookups", perceives as f64);
            m.push("fm.perceive_memo_hit_rate", perf.perceive_memo_rate());
            let shared = perf.shared_hits + perf.single_flight_waits + perf.shared_misses;
            m.push("fm.shared_lookups", shared as f64);
            m.push("fm.shared_hit_rate", perf.shared_rate());
            m.push("chaos.faults_injected", sum(|k| k.faults));
            m.push("hybrid.compiles", calls(Layer::HybridCompile));
            m.push("trace.events", pass.events as f64);
            m.push("trace.jsonl_bytes", pass.export_bytes as f64);
            m.push(
                "fleet.scaling_efficiency",
                throughput / (2.0 * 1e3 / mean_ms),
            );
            for (names, layers) in ALLOC_LAYERS {
                let (allocs, bytes) = totals.allocs_of(layers);
                m.push(names[0], allocs as f64);
                m.push(names[1], bytes as f64);
            }
            m.finish(&PER_LAYER)
        }
    };
    Ok(Outcome {
        metrics,
        attempted: checks.attempted,
        failed: checks.failed,
        errors: checks.errors,
        latency_samples: run_ms.len(),
        notes,
    })
}

/// Each layer's self time as a share of the traced pass; the shares,
/// unattributed remainder included, sum to 1.
const SHARES: [(&str, Layer); 11] = [
    ("sites.launch_share", Layer::SitesLaunch),
    ("sites.evaluate_share", Layer::SitesEvaluate),
    ("gui.screenshot_share", Layer::GuiScreenshot),
    ("gui.dispatch_share", Layer::GuiDispatch),
    ("core.execute.self_share", Layer::CoreExecute),
    ("hybrid.compile_share", Layer::HybridCompile),
    ("core.demonstrate.record_share", Layer::DemonstrateRecord),
    ("core.demonstrate.sop_gen_share", Layer::DemonstrateSopGen),
    ("core.validate.check_share", Layer::Validate),
    ("trace.export_share", Layer::TraceExport),
    ("traced.unattributed_share", Layer::Root),
];

/// Layers whose allocations are reported, with their metric names.
const ALLOC_LAYERS: [([&str; 2], &[Layer]); 7] = [
    (
        ["sites.allocs", "sites.alloc_bytes"],
        &[Layer::SitesLaunch, Layer::SitesEvaluate],
    ),
    (
        ["gui.allocs", "gui.alloc_bytes"],
        &[Layer::GuiScreenshot, Layer::GuiDispatch],
    ),
    (
        ["core.execute.allocs", "core.execute.alloc_bytes"],
        &[Layer::CoreExecute],
    ),
    (
        ["hybrid.allocs", "hybrid.alloc_bytes"],
        &[Layer::HybridCompile],
    ),
    (
        ["core.demonstrate.allocs", "core.demonstrate.alloc_bytes"],
        &[Layer::DemonstrateRecord, Layer::DemonstrateSopGen],
    ),
    (
        ["core.validate.allocs", "core.validate.alloc_bytes"],
        &[Layer::Validate],
    ),
    (["trace.allocs", "trace.alloc_bytes"], &[Layer::TraceExport]),
];

/// Return the allocator's free memory to the OS before a pass, so that
/// `peak_rss_mb` measures what one pass needs. Without this, glibc keeps
/// freed memory in amounts that depend on thread timing, and the peak
/// lands in one of two modes 9% apart on fleet-corpus.
fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::ffi::c_int;
        }
        // SAFETY: `malloc_trim` only hands free pages back to the OS; it
        // has no preconditions and leaves live allocations alone.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(trace: bool) -> Plan {
        Plan {
            seed: 2024,
            seconds: f64::INFINITY,
            trace,
            setups: 2,
            passes: 2,
            rounds: 2,
            max_tasks: Some(8),
        }
    }

    #[test]
    fn every_workload_passes_its_checks_on_small_passes() {
        for workload in Workload::ALL {
            for trace in [false, true] {
                let out = run(workload, &tiny(trace)).expect("runs");
                assert!(
                    out.errors.is_empty(),
                    "{}: {:?}",
                    workload.name(),
                    out.errors
                );
                assert_eq!(out.failed, 0, "{}", workload.name());
                // Priming (2 passes × 8 runs), 2 rounds × 2 passes × 8
                // runs on each of the latency and throughput legs, plus
                // the traced pass.
                assert_eq!(out.attempted, if trace { 88 } else { 80 });
                let table: Vec<(&str, &str)> = if trace {
                    PER_LAYER.to_vec()
                } else {
                    END_TO_END.to_vec()
                };
                let printed: Vec<(&str, &str)> =
                    out.metrics.iter().map(|&(n, _, u)| (n, u)).collect();
                assert_eq!(printed, table);
                assert!(out.metrics.iter().all(|m| m.1.is_finite()));
            }
        }
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let shuffled = |seed| {
            let mut v: Vec<usize> = (0..10).collect();
            shuffle(&mut v, seed);
            v
        };
        let mut sorted = shuffled(7);
        assert_eq!(sorted, shuffled(7));
        assert_ne!(sorted, shuffled(8));
        sorted.sort();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn the_timed_legs_fail_beyond_their_ceiling() {
        let plan = Plan {
            seconds: 0.0,
            ..tiny(false)
        };
        let out = run(Workload::HybridBots, &plan).expect("runs");
        assert!(out.errors.iter().any(|e| e.contains("allowed")));
    }
}
