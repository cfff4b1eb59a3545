//! The agent-pipeline workload: `Eclair::automate` (Demonstrate →
//! Execute → Validate) over the corpus at `EvidenceLevel::WdKf`.
//!
//! A pass is served by two agents, each owning one model and taking
//! alternate tasks. When both are done, the pass exports each agent's
//! whole trace in turn, as a fleet pass exports its merged trace after the
//! workers finish; so the pass's peak memory does not depend on whether
//! the two agents happen to export at the same moment. The traced pass
//! re-assembles `automate` from the library's public stage functions with
//! a layer scope around each.

use std::time::Instant;

use eclair_core::agent::WorkflowReport;
use eclair_core::demonstrate::{generate_sop, record_gold_demo, EvidenceLevel};
use eclair_core::execute::executor::{run_on_session, ExecConfig};
use eclair_core::validate::{check_completion, check_trajectory};
use eclair_core::{Eclair, EclairConfig};
use eclair_fleet::derive_seed;
use eclair_fm::FmModel;
use eclair_sites::TaskSpec;
use eclair_trace::RunSummary;

use crate::layers::{scope, Layer, TimedSurface};
use crate::legs::{Load, Pass, RunKey};
use crate::stats::Fnv;

/// Agents per pass: one per client of the closed loop.
const AGENTS: u64 = 2;

/// The agent workload over a fixed task list.
pub struct AgentLoad {
    tasks: Vec<TaskSpec>,
}

impl AgentLoad {
    /// Every pass automates each task once.
    pub fn new(tasks: Vec<TaskSpec>) -> Self {
        Self { tasks }
    }

    /// Agent `agent`'s configuration in the pass seeded `seed`.
    fn config(seed: u64, agent: u64) -> EclairConfig {
        EclairConfig {
            evidence: EvidenceLevel::WdKf,
            seed: derive_seed(seed, agent),
            ..EclairConfig::default()
        }
    }

    /// `(task index, task)` pairs agent `agent` serves, in order.
    fn share(&self, agent: u64) -> impl Iterator<Item = (usize, &TaskSpec)> {
        self.tasks
            .iter()
            .enumerate()
            .skip(agent as usize)
            .step_by(AGENTS as usize)
    }
}

fn key(r: &WorkflowReport) -> RunKey {
    RunKey {
        outcome: r.success as u64
            | (r.self_reported_complete as u64) << 1
            | (r.trajectory_faithful as u64) << 2,
        success: r.success,
        attempts: 1,
        fm_calls: r.summary.fm_calls(),
        tokens: r.summary.total().total_tokens(),
        steps: r.actions_attempted as u64,
        faults: 0,
        detail: Fnv::of(r.sop_text.as_bytes()),
    }
}

/// What one agent produced in a pass: `(task index, key)` per task, plus
/// the digest, byte length and event count of its exported trace.
struct AgentShare {
    keys: Vec<(usize, RunKey)>,
    export: u64,
    bytes: u64,
    events: u64,
}

impl AgentShare {
    fn new(keys: Vec<(usize, RunKey)>, model: &FmModel) -> Self {
        let jsonl = model.trace().to_jsonl();
        Self {
            keys,
            export: Fnv::of(jsonl.as_bytes()),
            bytes: jsonl.len() as u64,
            events: model.trace().events().len() as u64,
        }
    }
}

/// Combine the agents' shares into one pass, keys in task order.
fn combine(shares: Vec<AgentShare>) -> Pass {
    let mut digest = Fnv::default();
    let mut keys = Vec::new();
    let (mut bytes, mut events) = (0, 0);
    for share in shares {
        digest.write(&share.export.to_le_bytes());
        bytes += share.bytes;
        events += share.events;
        keys.extend(share.keys);
    }
    keys.sort_by_key(|&(i, _)| i);
    Pass {
        keys: keys.into_iter().map(|(_, k)| k).collect(),
        export: digest.finish(),
        export_bytes: bytes,
        events,
    }
}

/// Export each agent's trace in turn, dropping each agent after its export.
fn export(agents: Vec<(Vec<(usize, RunKey)>, Eclair)>) -> Pass {
    combine(
        agents
            .into_iter()
            .map(|(keys, eclair)| AgentShare::new(keys, eclair.model()))
            .collect(),
    )
}

impl AgentLoad {
    /// Agent `agent`'s tasks of the pass, with the agent, unexported.
    fn automate_share(
        &self,
        seed: u64,
        agent: u64,
        mut run_ms: Option<&mut Vec<f64>>,
    ) -> (Vec<(usize, RunKey)>, Eclair) {
        let mut eclair = Eclair::new(Self::config(seed, agent));
        let mut keys = Vec::new();
        for (i, task) in self.share(agent) {
            let t = Instant::now();
            let report = eclair.automate(task);
            if let Some(samples) = run_ms.as_deref_mut() {
                samples.push(t.elapsed().as_secs_f64() * 1e3);
            }
            keys.push((i, key(&report)));
        }
        (keys, eclair)
    }

    fn traced_share(&self, seed: u64, agent: u64, run_ns: &mut Vec<f64>) -> AgentShare {
        let config = Self::config(seed, agent);
        let mut model = FmModel::new(config.profile.clone(), config.seed);
        let mut keys = Vec::new();
        for (i, task) in self.share(agent) {
            let t = Instant::now();
            let key = traced_automate(&config, &mut model, task);
            run_ns.push(t.elapsed().as_nanos() as f64);
            keys.push((i, key));
        }
        let _export = scope(Layer::TraceExport);
        AgentShare::new(keys, &model)
    }
}

/// `Eclair::automate` on `model`, one layer scope per stage.
fn traced_automate(config: &EclairConfig, model: &mut FmModel, task: &TaskSpec) -> RunKey {
    let trace_start = model.trace().events().len();
    let demo = {
        let _record = scope(Layer::DemonstrateRecord);
        record_gold_demo(task)
    };
    let sop = {
        let _sop = scope(Layer::DemonstrateSopGen);
        generate_sop(model, &task.intent, Some(&demo), config.evidence)
    };
    let (result, success) = {
        let _execute = scope(Layer::CoreExecute);
        let mut cfg = ExecConfig::with_sop(sop.clone()).budgeted(task.gold_trace.len());
        cfg.strategy = config.strategy;
        let mut surface = {
            let _sites = scope(Layer::SitesLaunch);
            TimedSurface::new(task.launch())
        };
        let result = run_on_session(model, &mut surface, &task.intent, &cfg);
        let _sites = scope(Layer::SitesEvaluate);
        let success = task.success.evaluate(surface.inner());
        (result, success)
    };
    let (complete, faithful) = {
        let _validate = scope(Layer::Validate);
        (
            check_completion(model, &demo, &task.intent).verdict,
            check_trajectory(model, &demo, &sop).verdict,
        )
    };
    let summary = RunSummary::from_events(&model.trace().events()[trace_start..]);
    RunKey {
        outcome: success as u64 | (complete as u64) << 1 | (faithful as u64) << 2,
        success,
        attempts: 1,
        fm_calls: summary.fm_calls(),
        tokens: summary.total().total_tokens(),
        steps: result.actions_attempted as u64,
        faults: 0,
        detail: Fnv::of(sop.format().as_bytes()),
    }
}

impl Load for AgentLoad {
    /// Each agent's tasks run in corpus order: an agent's model carries
    /// state from task to task, so `order` is not used.
    fn pass_parallel(&self, seed: u64, _order: u64) -> Pass {
        let agents = std::thread::scope(|s| {
            let handles: Vec<_> = (0..AGENTS)
                .map(|agent| s.spawn(move || self.automate_share(seed, agent, None)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("agent thread panicked"))
                .collect()
        });
        export(agents)
    }

    fn pass_timed(&self, seed: u64, run_ms: &mut Vec<f64>) -> Pass {
        export(
            (0..AGENTS)
                .map(|agent| self.automate_share(seed, agent, Some(&mut *run_ms)))
                .collect(),
        )
    }

    fn pass_traced(&self, seed: u64, run_ns: &mut Vec<f64>) -> Pass {
        combine(
            (0..AGENTS)
                .map(|agent| self.traced_share(seed, agent, run_ns))
                .collect(),
        )
    }
}
