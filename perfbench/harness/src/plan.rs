//! The planning workload: what a user runs to choose a distribution for
//! P = 23 nodes. G-2DBC, GCR&M over every eligible size, the LU and
//! Cholesky graphs under the paper's cost model, the static protocol
//! check, and the simulator under two network models.

use crate::factor::{self, gcrm_metrics, gcrm_search, verify_metrics, Seeds, MODEL_GFLOPS};
use crate::gate::Gate;
use crate::metrics::Metrics;
use crate::spans::{self, span};
use crate::stats::{median, time};
use flexdist_core::g2dbc;
use flexdist_core::gcrm::GcrmSearch;
use flexdist_dist::{cholesky_comm_volume, lu_comm_volume, CommBreakdown, TileAssignment};
use flexdist_factor::net::frame_len;
use flexdist_factor::{build_graph, derive_schedule, CommSchedule, Operation, TaskList};
use flexdist_kernels::KernelCostModel;
use flexdist_runtime::{MachineConfig, NetworkModel, SimReport, Simulator};
use flexdist_verify::{check_protocol, ProtocolReport};
use std::path::Path;
use std::time::Instant;

pub const NAME: &str = "plan_p23";
const P: u32 = 23;
const T: usize = 60;
/// The paper's tile size, used by the cost model only.
const NB: usize = 500;

/// Wall time of each pipeline step, seconds.
#[derive(Clone, Copy, Default)]
struct Times {
    g2dbc: f64,
    gcrm: f64,
    assign: f64,
    volume: f64,
    graph: f64,
    schedule: f64,
    verify: f64,
    sim_constant: f64,
    sim_shared: f64,
    total: f64,
}

impl Times {
    /// Everything before the first simulation: what a distributed run
    /// of the chosen distributions would pay before its first kernel.
    fn setup(&self) -> f64 {
        self.g2dbc
            + self.gcrm
            + self.assign
            + self.volume
            + self.graph
            + self.schedule
            + self.verify
    }
}

/// One factorization's share of the plan.
struct Leg {
    volume: CommBreakdown,
    tl: TaskList,
    sched: CommSchedule,
    proto: ProtocolReport,
    constant: SimReport,
    shared: SimReport,
}

struct Plan {
    search: GcrmSearch,
    legs: [Leg; 2],
    times: Times,
}

/// Run the whole pipeline once, timing each step.
fn pipeline(seeds: &Seeds) -> Result<Plan, String> {
    let mut tm = Times::default();
    let t0 = Instant::now();
    let (lu_pat, dt) = time(|| span("core.g2dbc", || g2dbc::g2dbc(P)));
    tm.g2dbc = dt;
    let (search, dt) = time(|| span("core.gcrm_search", || gcrm_search(P, seeds.gcrm)));
    let search = search?;
    tm.gcrm = dt;
    let ((a_lu, a_ch), dt) = time(|| {
        span("dist.assign", || {
            (
                TileAssignment::extended(&lu_pat, T),
                TileAssignment::extended(&search.best, T),
            )
        })
    });
    tm.assign = dt;
    let ((v_lu, v_ch), dt) = time(|| {
        span("dist.comm_volume", || {
            (lu_comm_volume(&a_lu), cholesky_comm_volume(&a_ch))
        })
    });
    tm.volume = dt;
    let cost = KernelCostModel::uniform(NB, MODEL_GFLOPS);
    let ((tl_lu, tl_ch), dt) = time(|| {
        span("graph.build", || {
            (
                build_graph(Operation::Lu, &a_lu, &cost),
                build_graph(Operation::Cholesky, &a_ch, &cost),
            )
        })
    });
    tm.graph = dt;
    let ((s_lu, s_ch), dt) = time(|| {
        span("schedule.derive", || {
            (
                derive_schedule(&tl_lu, &a_lu),
                derive_schedule(&tl_ch, &a_ch),
            )
        })
    });
    let (s_lu, s_ch) = (
        s_lu.map_err(|e| e.to_string())?,
        s_ch.map_err(|e| e.to_string())?,
    );
    tm.schedule = dt;
    let ((p_lu, p_ch), dt) = time(|| {
        span("verify.protocol", || {
            (
                check_protocol(&tl_lu, &a_lu, None),
                check_protocol(&tl_ch, &a_ch, None),
            )
        })
    });
    let (p_lu, p_ch) = (p_lu?, p_ch?);
    tm.verify = dt;
    let constant = MachineConfig::paper_testbed(P);
    let shared = MachineConfig {
        network: NetworkModel::SharedBandwidth,
        ..constant.clone()
    };
    let simulate = |tl: &TaskList, m: &MachineConfig| Simulator::new(&tl.graph).run(m);
    let ((c_lu, c_ch), dt) = time(|| {
        span("sim.constant", || {
            (simulate(&tl_lu, &constant), simulate(&tl_ch, &constant))
        })
    });
    tm.sim_constant = dt;
    let ((h_lu, h_ch), dt) = time(|| {
        span("sim.shared_bw", || {
            (simulate(&tl_lu, &shared), simulate(&tl_ch, &shared))
        })
    });
    tm.sim_shared = dt;
    tm.total = t0.elapsed().as_secs_f64();
    Ok(Plan {
        search,
        legs: [
            Leg {
                volume: v_lu,
                tl: tl_lu,
                sched: s_lu,
                proto: p_lu,
                constant: c_lu,
                shared: h_lu,
            },
            Leg {
                volume: v_ch,
                tl: tl_ch,
                sched: s_ch,
                proto: p_ch,
                constant: c_ch,
                shared: h_ch,
            },
        ],
        times: tm,
    })
}

/// Gate one plan against the first: a valid balanced GCR&M pattern
/// with a repeatable cost, clean protocols that deliver the closed-form
/// volume, and simulated message counts equal to it.
fn check(gate: &mut Gate, plan: &Plan, first: Option<&Plan>) -> bool {
    let before = gate.failures.len();
    factor::check_gcrm(gate, NAME, &plan.search);
    for (leg, op) in plan.legs.iter().zip(["lu", "chol"]) {
        gate.check(leg.proto.is_clean(), || {
            format!("{NAME} {op}: protocol findings: {}", leg.proto.to_text())
        });
        gate.check(leg.proto.n_deliveries == leg.volume.total(), || {
            format!(
                "{NAME} {op}: verifier proves {} deliveries, closed form says {}",
                leg.proto.n_deliveries,
                leg.volume.total()
            )
        });
        for (model, rep) in [("constant", &leg.constant), ("shared", &leg.shared)] {
            gate.check(rep.messages == leg.volume.total(), || {
                format!(
                    "{NAME} {op}: {model} simulation sent {} messages, closed form says {}",
                    rep.messages,
                    leg.volume.total()
                )
            });
        }
    }
    if let Some(first) = first {
        gate.check(
            plan.search.best_cost.to_bits() == first.search.best_cost.to_bits(),
            || format!("{NAME}: GCR&M cost changed between repetitions"),
        );
        for (a, b) in plan.legs.iter().zip(&first.legs) {
            gate.check(a.volume == b.volume, || {
                format!("{NAME}: volume changed between repetitions")
            });
        }
    }
    gate.failures.len() == before
}

/// What one run of the planning workload measured.
pub struct PlanRun {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub gate: Gate,
}

/// Run the pipeline for `seconds` after one warm-up. With `trace`,
/// repetitions alternate between span recording off and on, and the
/// layers the pipeline does not reach are probed on
/// [`factor::PLAN_PROBE`].
pub fn run(seed: u64, seconds: f64, trace: bool, scratch: &Path) -> Result<PlanRun, String> {
    let seeds = Seeds::new(seed);
    let mut gate = Gate::default();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let warm = span("warmup", || pipeline(&seeds))?;
    attempted += 1;
    if !check(&mut gate, &warm, None) {
        failed += 1;
    }
    // Only the timings are kept: each plan is dropped once gated.
    let mut plans: Vec<(bool, Times)> = Vec::new();
    let t0 = Instant::now();
    let mut k = 0u32;
    while k < 5 || t0.elapsed().as_secs_f64() < seconds {
        let traced = trace && k % 2 == 1;
        spans::set_recording(traced);
        spans::set_rep(k);
        let plan = span("plan", || pipeline(&seeds));
        spans::set_recording(trace);
        let plan = plan?;
        attempted += 1;
        if !check(&mut gate, &plan, Some(&warm)) {
            failed += 1;
        }
        plans.push((traced, plan.times));
        k += 1;
    }
    spans::set_rep(0);

    let all = |f: fn(&Times) -> f64| -> Vec<f64> {
        plans
            .iter()
            .filter(|(tr, _)| !tr)
            .map(|(_, t)| f(t))
            .collect()
    };
    let mut m = Metrics::default();
    let frame = frame_len(NB).map_err(|e| e.to_string())? as f64;
    let msgs: u64 = warm.legs.iter().map(|l| l.volume.total()).sum();
    if !trace {
        m.median_of("run_s", &all(|t| t.total), "s");
        m.median_of("setup_s", &all(Times::setup), "s");
        m.set("comm_msgs", msgs as f64, "count");
        m.set("comm_bytes", msgs as f64 * frame, "bytes");
        return Ok(PlanRun {
            metrics: m,
            attempted,
            failed,
            gate,
        });
    }

    // Layers the pipeline does not reach, on the probe factorization.
    let mut probe = factor::run(&factor::PLAN_PROBE, seed, 2.0, true, scratch)?;
    attempted += probe.attempted;
    failed += probe.failed_reps;
    gate.failures.append(&mut probe.gate.failures);
    factor::layers(&factor::PLAN_PROBE, seed, &probe, scratch, &mut m)?;

    // Layers the pipeline does reach, from its own repetitions.
    let ops = [Operation::Lu, Operation::Cholesky];
    let flops: f64 = ops.iter().map(|op| op.total_flops(T, NB)).sum();
    m.set("kernels.flops", flops, "flop");
    m.set(
        "kernels.flops_per_byte",
        flops / (msgs as f64 * frame),
        "flop/B",
    );
    m.median_of("core.g2dbc_s", &all(|t| t.g2dbc), "s");
    m.median_of("core.gcrm_search_s", &all(|t| t.gcrm), "s");
    gcrm_metrics(&warm.search, P, &mut m);
    m.median_of("dist.assign_s", &all(|t| t.assign), "s");
    m.median_of("dist.comm_volume_s", &all(|t| t.volume), "s");
    m.median_of("graph.build_s", &all(|t| t.graph), "s");
    let sum = |f: fn(&Leg) -> usize| warm.legs.iter().map(f).sum::<usize>() as f64;
    m.set("graph.tasks", sum(|l| l.tl.graph.n_tasks()), "count");
    m.set("graph.edges", sum(|l| l.tl.graph.n_edges()), "count");
    m.median_of("schedule.derive_s", &all(|t| t.schedule), "s");
    m.set(
        "schedule.bcasts",
        sum(|l| l.sched.bcast.iter().flatten().count()),
        "count",
    );
    m.median_of("verify.protocol_s", &all(|t| t.verify), "s");
    // The larger of the two proofs' bounds.
    let worst = warm
        .legs
        .iter()
        .max_by_key(|l| l.proto.peaks.iter().map(|q| q.peak_bytes(NB)).max())
        .ok_or("plan has no legs")?;
    verify_metrics(&worst.proto, NB, &mut m);
    m.set("verify.findings", sum(|l| l.proto.findings.len()), "count");
    let sim = all(|t| t.sim_constant);
    m.median_of("sim.run_s", &sim, "s");
    let events: u64 = warm
        .legs
        .iter()
        .map(|l| l.constant.tasks as u64 + l.constant.messages)
        .sum();
    m.set("sim.events_per_s", events as f64 / median(&sim), "1/s");
    m.median_of("sim.shared_bw_run_s", &all(|t| t.sim_shared), "s");
    let traced: Vec<f64> = plans
        .iter()
        .filter(|(tr, _)| *tr)
        .map(|(_, t)| t.total)
        .collect();
    m.set(
        "trace.overhead_s",
        median(&traced) - median(&all(|t| t.total)),
        "s",
    );
    Ok(PlanRun {
        metrics: m,
        attempted,
        failed,
        gate,
    })
}
