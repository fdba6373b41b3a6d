//! The distributed-factorization workloads: set-up, the measured
//! `execute_distributed_with` loop, the correctness gate, and the
//! per-layer probes of the traced run.

use crate::gate::{self, Gate};
use crate::metrics::Metrics;
use crate::probes::{self, Wire};
use crate::spans::span;
use crate::stats::{median, time};
use flexdist_core::g2dbc;
use flexdist_core::gcrm::{self, GcrmConfig, GcrmSearch};
use flexdist_dist::{cholesky_comm_volume, lu_comm_volume, CommBreakdown, TileAssignment};
use flexdist_factor::net::{frame_len, FaultPlan, FullMesh, NetReport, NetTrace, SocketConfig};
use flexdist_factor::residual::{cholesky_residual, lu_residual};
use flexdist_factor::{
    build_graph, derive_recovery, derive_schedule, execute, execute_distributed_with, Backend,
    CommSchedule, DexecOptions, DexecOutput, ExecReport, Operation, TaskList,
};
use flexdist_kernels::{KernelCostModel, TiledMatrix};
use flexdist_runtime::{MachineConfig, NetworkModel, Simulator};
use flexdist_verify::{check_protocol, check_protocol_crashed, ProtocolReport};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Random restarts per GCR&M pattern size (the paper's setting).
pub const GCRM_RESTARTS: u64 = 100;
/// Per-frame probability of each noise kind on the noisy workload.
const NOISE: f64 = 0.05;
/// Distinct fault plans the noisy workload cycles through per run.
const FAULT_PLANS: u64 = 4;
/// Fewest measured repetitions: every fault plan, traced and untraced,
/// at least twice.
const MIN_REPS: usize = 2 * FAULT_PLANS as usize;
/// Rate the simulator's default kernel model assumes, GF/s per core.
pub const MODEL_GFLOPS: f64 = 30.0;

/// One distributed-factorization configuration.
pub struct Spec {
    pub name: &'static str,
    pub op: Operation,
    pub p: u32,
    /// GCR&M pattern (otherwise G-2DBC).
    pub gcrm: bool,
    pub t: usize,
    pub nb: usize,
    /// UDS sockets between in-process rank threads (otherwise channels).
    pub uds: bool,
    /// Rank crashes (rank, epoch) to recover from under noise; empty for
    /// a strict run.
    pub crashes: &'static [(u32, u32)],
}

pub const LU_P5: Spec = Spec {
    name: "lu_p5_compute",
    op: Operation::Lu,
    p: 5,
    gcrm: false,
    t: 16,
    nb: 128,
    uds: false,
    crashes: &[],
};

pub const CHOL_P7: Spec = Spec {
    name: "chol_p7_uds_fine",
    op: Operation::Cholesky,
    p: 7,
    gcrm: true,
    t: 96,
    nb: 8,
    uds: true,
    crashes: &[],
};

pub const RECOVER_P7: Spec = Spec {
    name: "lu_p7_recover_noisy",
    op: Operation::Lu,
    p: 7,
    gcrm: false,
    t: 24,
    nb: 32,
    uds: false,
    crashes: &[(1, 6), (3, 12)],
};

/// The factorization whose layers the planning workload does not reach
/// (executors, transport, recovery, CLI) are probed on in its traced run.
pub const PLAN_PROBE: Spec = Spec {
    name: "plan_p23_probe",
    op: Operation::Lu,
    p: 23,
    gcrm: false,
    t: 24,
    nb: 32,
    uds: false,
    crashes: &[],
};

/// splitmix64 of `seed` and a stream index.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Everything a workload derives from its seed.
pub struct Seeds {
    pub matrix: u64,
    pub gcrm: u64,
    pub faults: Vec<u64>,
}

impl Seeds {
    pub fn new(seed: u64) -> Self {
        Self {
            matrix: mix(seed, 0),
            gcrm: mix(seed, 1),
            faults: (0..FAULT_PLANS).map(|k| mix(seed, 2 + k)).collect(),
        }
    }
}

/// GCR&M over every eligible size at the paper's restart count.
pub fn gcrm_search(p: u32, base_seed: u64) -> Result<GcrmSearch, String> {
    gcrm::search(
        p,
        &GcrmConfig {
            n_seeds: GCRM_RESTARTS,
            base_seed,
            ..GcrmConfig::default()
        },
    )
    .map_err(|e| format!("GCR&M search for P={p}: {e}"))
}

/// Restarts a [`gcrm_search`] for `p` attempts.
pub fn gcrm_restarts(p: u32) -> usize {
    gcrm::eligible_sizes(p, GcrmConfig::default().max_size_factor).len() * GCRM_RESTARTS as usize
}

/// The GCR&M acceptance check: a valid, balanced best pattern.
pub fn check_gcrm(gate: &mut Gate, what: &str, search: &GcrmSearch) {
    let best = &search.best;
    gate.check(best.validate().is_ok() && best.imbalance() <= 1, || {
        format!(
            "{what}: GCR&M best pattern invalid or imbalance {} > 1",
            best.imbalance()
        )
    });
}

/// Wall time of each set-up step, seconds.
#[derive(Clone, Copy, Default)]
pub struct SetupTimes {
    pub pattern: f64,
    pub assign: f64,
    pub volume: f64,
    pub graph: f64,
    pub schedule: f64,
    pub verify: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.pattern + self.assign + self.volume + self.graph + self.schedule + self.verify
    }
}

/// Everything a distributed run pays for before its first kernel.
pub struct Setup {
    pub search: Option<GcrmSearch>,
    pub a: TileAssignment,
    pub volume: CommBreakdown,
    pub tl: TaskList,
    pub sched: CommSchedule,
    pub proto: ProtocolReport,
    pub times: SetupTimes,
}

/// Build the set-up of `spec`, timing each step.
pub fn setup(spec: &Spec, seeds: &Seeds) -> Result<Setup, String> {
    let mut times = SetupTimes::default();
    let (search, dt) = if spec.gcrm {
        let (found, dt) = time(|| span("core.gcrm_search", || gcrm_search(spec.p, seeds.gcrm)));
        (Some(found?), dt)
    } else {
        (None, 0.0)
    };
    let (pattern, dt) = match &search {
        Some(found) => (found.best.clone(), dt),
        None => time(|| span("core.g2dbc", || g2dbc::g2dbc(spec.p))),
    };
    times.pattern = dt;
    let (a, dt) = time(|| span("dist.assign", || TileAssignment::extended(&pattern, spec.t)));
    times.assign = dt;
    let (volume, dt) = time(|| {
        span("dist.comm_volume", || match spec.op {
            Operation::Lu => lu_comm_volume(&a),
            _ => cholesky_comm_volume(&a),
        })
    });
    times.volume = dt;
    let cost = KernelCostModel::uniform(spec.nb, MODEL_GFLOPS);
    let (tl, dt) = time(|| span("graph.build", || build_graph(spec.op, &a, &cost)));
    times.graph = dt;
    let (sched, dt) = time(|| span("schedule.derive", || derive_schedule(&tl, &a)));
    let sched = sched.map_err(|e| format!("schedule derivation: {e}"))?;
    times.schedule = dt;
    let (proto, dt) = time(|| {
        span("verify.protocol", || {
            if spec.crashes.is_empty() {
                check_protocol(&tl, &a, None)
            } else {
                check_protocol_crashed(&tl, &a, spec.crashes, None)
            }
        })
    });
    let proto = proto.map_err(|e| format!("protocol verification: {e}"))?;
    times.verify = dt;
    Ok(Setup {
        search,
        a,
        volume,
        tl,
        sched,
        proto,
        times,
    })
}

/// The workload's input matrix (diagonally dominant for LU, SPD for
/// Cholesky).
pub fn input(spec: &Spec, seed: u64) -> TiledMatrix {
    match spec.op {
        Operation::Lu => TiledMatrix::random_diag_dominant(spec.t, spec.nb, seed),
        _ => {
            let mut m = TiledMatrix::random_spd(spec.t, spec.nb, seed);
            m.symmetrize_from_lower();
            m
        }
    }
}

/// The fault plan of repetition `rep`: `None` on a strict workload,
/// otherwise the crashes plus noise from one of the seed's fault seeds.
fn fault_plan(spec: &Spec, seeds: &Seeds, rep: usize) -> Result<Option<FaultPlan>, String> {
    if spec.crashes.is_empty() {
        return Ok(None);
    }
    let fseed = seeds.faults[rep % seeds.faults.len()];
    let mut plan = FaultPlan::new(fseed)
        .with_rates(NOISE, NOISE, NOISE)
        .with_delay(NOISE);
    for &(r, e) in spec.crashes {
        plan = plan.with_crash(r, e).map_err(|e| e.to_string())?;
    }
    Ok(Some(plan))
}

/// The shared-memory reference runs and what the gate learned from them.
pub struct Reference {
    pub matrix: TiledMatrix,
    pub s_1t: f64,
    pub s_nproc: f64,
    pub nproc_report: ExecReport,
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Run the shared-memory executor at 1 and `nproc` threads and check
/// the two agree bitwise and the residual is small.
pub fn reference(gate: &mut Gate, spec: &Spec, tl: &TaskList, a0: &TiledMatrix) -> Reference {
    let ((m1, r1), s_1t) = time(|| span("execute.1t", || execute(tl, a0.clone(), 1)));
    let ((mn, rn), s_nproc) = time(|| span("execute.nproc", || execute(tl, a0.clone(), nproc())));
    gate.check(r1.error.is_none() && rn.error.is_none(), || {
        format!(
            "shared-memory kernel error: {:?} / {:?}",
            r1.error, rn.error
        )
    });
    gate.bitwise("execute at nproc vs 1 thread", &mn, &m1);
    let residual = span("gate.residual", || match spec.op {
        Operation::Lu => lu_residual(a0, &m1),
        _ => cholesky_residual(a0, &m1),
    });
    gate.residual(spec.name, residual);
    println!(
        "  residual {residual:.3e} (bound {:e})",
        gate::RESIDUAL_BOUND
    );
    Reference {
        matrix: m1,
        s_1t,
        s_nproc,
        nproc_report: rn,
    }
}

/// One measured repetition.
pub struct Rep {
    pub seconds: f64,
    pub traced: bool,
    /// Traffic counters of a run that completed (the factors are
    /// checked and dropped at once).
    pub report: Option<NetReport>,
    pub fault_seed: Option<u64>,
}

/// Where the workload's UDS sockets live, removed on drop.
pub struct SockDir(PathBuf);

impl SockDir {
    pub fn new(scratch: &Path, tag: &str) -> Result<Self, String> {
        let dir = scratch.join(format!("{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for SockDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The expected goodput and recovery-send count of a run, and what
/// deriving the recovery chain produced and cost.
pub struct Expected {
    pub volume: CommBreakdown,
    pub recovered: u64,
    /// Active plans, recovery sends and seconds of the derivation.
    pub derive: (usize, u64, f64),
}

/// Closed-form goodput of the run: Eq. 1/2 on a strict workload, the
/// composed spliced volume of the last recovery plan otherwise. On a
/// strict workload the recovery derivation is still timed, as a probe,
/// for crashes at a quarter and half of the run.
pub fn expected(spec: &Spec, s: &Setup, seeds: &Seeds) -> Result<Expected, String> {
    let probe: Vec<(u32, u32)> = if spec.crashes.is_empty() {
        vec![(1, (spec.t / 4) as u32), (3, (spec.t / 2) as u32)]
    } else {
        spec.crashes.to_vec()
    };
    let mut plan = FaultPlan::new(seeds.faults[0]);
    for &(r, e) in &probe {
        plan = plan.with_crash(r, e).map_err(|e| e.to_string())?;
    }
    let (plans, derive_s) = time(|| {
        span("recovery.derive", || {
            derive_recovery(&s.tl, &s.a, Some(&plan), &FullMesh)
        })
    });
    let plans = plans.map_err(|e| format!("recovery derivation: {e}"))?;
    let last = plans.last().ok_or("recovery derivation returned no plan")?;
    let active_plans = plans.iter().filter(|p| p.active).count();
    let strict = spec.crashes.is_empty();
    Ok(Expected {
        volume: if strict { s.volume } else { last.expected },
        recovered: if strict { 0 } else { last.recovered.total() },
        derive: (active_plans, last.recovered.total(), derive_s),
    })
}

/// Run one distributed factorization.
pub fn factor_once(
    s: &Setup,
    a0: &TiledMatrix,
    faults: Option<FaultPlan>,
    sock: Option<&Path>,
    trace: bool,
) -> (Result<DexecOutput, String>, f64) {
    let backend = match sock {
        Some(dir) => Backend::Socket(SocketConfig::uds(dir)),
        None => Backend::Channel,
    };
    let opts = DexecOptions {
        trace,
        recover: faults.is_some(),
        faults,
        backend,
        ..DexecOptions::default()
    };
    let (out, dt) = time(|| {
        span("dexec.execute_distributed_with", || {
            execute_distributed_with(&s.tl, &s.a, a0, &opts)
        })
    });
    (out.map_err(|e| e.to_string()), dt)
}

/// Gate one repetition. Returns whether it passed.
pub fn check_rep(
    gate: &mut Gate,
    spec: &Spec,
    out: &Result<DexecOutput, String>,
    reference: &TiledMatrix,
    exp: &Expected,
) -> bool {
    let before = gate.failures.len();
    match out {
        Err(e) => {
            gate.check(false, || format!("{}: run failed: {e}", spec.name));
        }
        Ok(out) => {
            let rep = &out.report;
            gate.check(rep.error.is_none(), || {
                format!("{}: kernel error {:?}", spec.name, rep.error)
            });
            gate.wire(spec.name, &rep.wire, &exp.volume);
            let frame = frame_len(spec.nb).map_or(0, |f| f as u64);
            gate.check(rep.bytes == rep.wire.total() * frame, || {
                format!(
                    "{}: {} goodput bytes for {} frames of {frame} bytes",
                    spec.name,
                    rep.bytes,
                    rep.wire.total()
                )
            });
            gate.check(rep.recovered_msgs == exp.recovered, || {
                format!(
                    "{}: {} recovery sends, spliced stream says {}",
                    spec.name, rep.recovered_msgs, exp.recovered
                )
            });
            gate.bitwise(spec.name, &out.matrix, reference);
        }
    }
    gate.failures.len() == before
}

/// Everything one run of a distributed workload measured.
pub struct FactorRun {
    pub setups: Vec<SetupTimes>,
    pub setup: Setup,
    pub exp: Expected,
    pub reference: Reference,
    pub reps: Vec<Rep>,
    /// The last traced repetition's trace and wall time.
    pub last_trace: Option<(NetTrace, f64)>,
    pub attempted: u64,
    pub failed_reps: u64,
    pub gate: Gate,
}

impl FactorRun {
    pub fn untraced_s(&self) -> Vec<f64> {
        self.reps
            .iter()
            .filter(|r| !r.traced)
            .map(|r| r.seconds)
            .collect()
    }

    pub fn traced_s(&self) -> Vec<f64> {
        self.reps
            .iter()
            .filter(|r| r.traced)
            .map(|r| r.seconds)
            .collect()
    }

    fn reports(&self) -> impl Iterator<Item = &NetReport> {
        self.reps.iter().filter_map(|r| r.report.as_ref())
    }
}

/// Run a distributed workload: set up several times (at least five, for
/// at least a second), gate the reference, then factorize for `seconds`
/// after a warm-up of at least a second. With `trace`, repetitions
/// alternate between the program's own tracing off and on.
pub fn run(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: &Path,
) -> Result<FactorRun, String> {
    let seeds = Seeds::new(seed);
    let a0 = input(spec, seeds.matrix);
    let mut gate = Gate::default();

    let t_setup = Instant::now();
    let mut setups = Vec::new();
    let mut costs = Vec::new();
    let mut last = None;
    while setups.len() < 5 || (t_setup.elapsed().as_secs_f64() < 1.0 && setups.len() < 40) {
        let s = span("setup", || setup(spec, &seeds))?;
        setups.push(s.times);
        if let Some(search) = &s.search {
            costs.push(search.best_cost);
        }
        last = Some(s);
    }
    let s = last.expect("at least one set-up ran");
    if let Some(search) = &s.search {
        check_gcrm(&mut gate, spec.name, search);
    }
    gate.check(
        costs.iter().all(|c| c.to_bits() == costs[0].to_bits()),
        || {
            format!(
                "{}: GCR&M cost differs between set-ups: {costs:?}",
                spec.name
            )
        },
    );
    gate.check(s.proto.is_clean(), || {
        format!(
            "{}: protocol verifier findings: {}",
            spec.name,
            s.proto.to_text()
        )
    });
    if spec.crashes.is_empty() {
        gate.check(s.proto.n_deliveries == s.volume.total(), || {
            format!(
                "{}: verifier proves {} deliveries, closed form says {}",
                spec.name,
                s.proto.n_deliveries,
                s.volume.total()
            )
        });
    }

    let exp = span("gate", || expected(spec, &s, &seeds))?;
    let reference = span("gate", || reference(&mut gate, spec, &s.tl, &a0));
    for missed in gate::self_test(&reference.matrix, &exp.volume) {
        gate.check(false, || format!("gate self-test: {missed}"));
    }

    let sock = if spec.uds {
        Some(SockDir::new(scratch, "sock")?)
    } else {
        None
    };
    let sock_path = sock.as_ref().map(SockDir::path);
    let mut reps = Vec::new();
    let mut last_trace = None;
    let mut attempted = 0u64;
    let mut failed_reps = 0u64;
    let mut run_rep = |k: usize, traced: bool, keep: bool, gate: &mut Gate| -> Result<(), String> {
        let faults = fault_plan(spec, &seeds, k)?;
        let fault_seed = faults.as_ref().map(FaultPlan::seed);
        let (out, seconds) = factor_once(&s, &a0, faults, sock_path, traced);
        attempted += 1;
        if !span("gate", || {
            check_rep(gate, spec, &out, &reference.matrix, &exp)
        }) {
            failed_reps += 1;
        }
        if keep {
            let report = out.ok().map(|o| {
                if let Some(t) = o.trace {
                    last_trace = Some((t, seconds));
                }
                o.report
            });
            reps.push(Rep {
                seconds,
                traced,
                report,
                fault_seed,
            });
        }
        Ok(())
    };
    // Warm up for at least a second: the first repetitions after the
    // reference runs are slower than the rest.
    let t_warm = Instant::now();
    while t_warm.elapsed().as_secs_f64() < 1.0 {
        span("warmup", || run_rep(0, false, false, &mut gate))?;
    }
    let t_meas = Instant::now();
    let mut k = 0usize;
    while k < MIN_REPS || t_meas.elapsed().as_secs_f64() < seconds {
        let traced = trace && k % 2 == 1;
        crate::spans::set_rep(k as u32);
        span("factor", || run_rep(k, traced, true, &mut gate))?;
        k += 1;
    }
    crate::spans::set_rep(0);
    drop(sock);

    Ok(FactorRun {
        setups,
        setup: s,
        exp,
        reference,
        reps,
        last_trace,
        attempted,
        failed_reps,
        gate,
    })
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(spec: &Spec, run: &FactorRun, m: &mut Metrics) {
    let setup: Vec<f64> = run.setups.iter().map(SetupTimes::total).collect();
    m.median_of("run_s", &run.untraced_s(), "s");
    m.median_of("setup_s", &setup, "s");
    let wire = run.exp.volume.total() as f64;
    m.set("comm_msgs", wire, "count");
    let frame = frame_len(spec.nb).map_or(0.0, |f| f as f64);
    m.set("comm_bytes", wire * frame, "bytes");
}

/// Host machine model from the probes: one worker per rank, the
/// measured one-way latency and streaming bandwidth of the workload's
/// transport.
fn host_machine(p: u32, latency_us: f64, gbps: f64) -> MachineConfig {
    MachineConfig {
        workers_per_node: 1,
        latency: latency_us * 1e-6,
        bandwidth: gbps * 1e9,
        ..MachineConfig::paper_testbed(p)
    }
}

/// Seconds of each of `reps` simulator runs on `machine`, and the
/// events (tasks plus messages) one run processes.
pub fn sim_seconds(tl: &TaskList, machine: &MachineConfig, reps: usize) -> (Vec<f64>, u64) {
    let mut sim = Simulator::new(&tl.graph);
    let mut samples = Vec::new();
    let mut events = 0;
    for _ in 0..reps {
        let (rep, dt) = time(|| span("sim.run", || sim.run(machine)));
        events = rep.tasks as u64 + rep.messages;
        samples.push(dt);
    }
    (samples, events)
}

/// The per-layer metrics of a traced run.
#[allow(clippy::too_many_lines)]
pub fn layers(
    spec: &Spec,
    seed: u64,
    run: &FactorRun,
    scratch: &Path,
    m: &mut Metrics,
) -> Result<(), String> {
    let s = &run.setup;
    let nb = spec.nb;
    let chol = spec.op != Operation::Lu;
    let budget = Duration::from_millis(150);

    // flexdist-kernels
    let k = span("kernels.probe", || probes::kernels(nb, chol, budget));
    m.set("kernels.gemm_gflops", k.gemm, "GF/s");
    m.set("kernels.trsm_gflops", k.trsm, "GF/s");
    m.set("kernels.syrk_gflops", k.syrk, "GF/s");
    m.set("kernels.potrf_gflops", k.potrf, "GF/s");
    m.set("kernels.getrf_gflops", k.getrf, "GF/s");
    let flops = spec.op.total_flops(spec.t, nb);
    let frame = frame_len(nb).map_or(0.0, |f| f as f64);
    let bytes = run.exp.volume.total() as f64 * frame;
    m.set("kernels.flops", flops, "flop");
    m.set("kernels.flops_per_byte", flops / bytes.max(1.0), "flop/B");

    // flexdist-core + flexdist-matching: the pattern the workload does
    // not build in its set-up is probed here.
    let setup_med = |f: fn(&SetupTimes) -> f64| -> Vec<f64> { run.setups.iter().map(f).collect() };
    let search = if spec.gcrm {
        m.median_of("core.gcrm_search_s", &setup_med(|t| t.pattern), "s");
        let g: Vec<f64> = (0..5)
            .map(|_| time(|| span("core.g2dbc", || g2dbc::g2dbc(spec.p))).1)
            .collect();
        m.median_of("core.g2dbc_s", &g, "s");
        s.search.clone().ok_or("GCR&M set-up without a search")?
    } else {
        m.median_of("core.g2dbc_s", &setup_med(|t| t.pattern), "s");
        let (search, dt) = time(|| {
            span("core.gcrm_search", || {
                gcrm_search(spec.p, Seeds::new(seed).gcrm)
            })
        });
        m.set("core.gcrm_search_s", dt, "s");
        search?
    };
    gcrm_metrics(&search, spec.p, m);

    m.median_of("dist.assign_s", &setup_med(|t| t.assign), "s");
    m.median_of("dist.comm_volume_s", &setup_med(|t| t.volume), "s");
    m.median_of("graph.build_s", &setup_med(|t| t.graph), "s");
    m.set("graph.tasks", s.tl.graph.n_tasks() as f64, "count");
    m.set("graph.edges", s.tl.graph.n_edges() as f64, "count");
    m.median_of("schedule.derive_s", &setup_med(|t| t.schedule), "s");
    m.set(
        "schedule.bcasts",
        s.sched.bcast.iter().flatten().count() as f64,
        "count",
    );
    m.median_of("verify.protocol_s", &setup_med(|t| t.verify), "s");
    verify_metrics(&s.proto, nb, m);

    // factor::execute
    let r = &run.reference;
    m.set("execute.s_1t", r.s_1t, "s");
    m.set("execute.s_nproc", r.s_nproc, "s");
    m.set(
        "execute.steals",
        r.nproc_report.tasks_stolen() as f64,
        "count",
    );
    m.set(
        "execute.idle_s",
        r.nproc_report.total_idle().as_secs_f64(),
        "s",
    );

    // factor::dexec engine
    let untraced = median(&run.untraced_s());
    let traced = median(&run.traced_s());
    m.median_of("dexec.factor_s", &run.untraced_s(), "s");
    m.set("dexec.gflops", flops / untraced / 1e9, "GF/s");
    m.set("dexec.overhead_ratio", untraced / r.s_nproc, "ratio");
    let (compute_frac, lines) = compute_split(run);
    m.set("dexec.compute_frac", compute_frac, "ratio");
    let last = run.reports().last().ok_or("no successful repetition")?;
    let tasks: Vec<f64> = last.per_rank.iter().map(|q| q.tasks as f64).collect();
    let mean_tasks = tasks.iter().sum::<f64>() / tasks.len().max(1) as f64;
    m.set(
        "dexec.rank_task_imbalance",
        tasks.iter().copied().fold(0.0, f64::max) / mean_tasks.max(1.0),
        "ratio",
    );
    m.set(
        "dexec.max_rank_recv_msgs",
        last.per_rank.iter().map(|q| q.recv_msgs).max().unwrap_or(0) as f64,
        "count",
    );
    m.set("trace.overhead_s", traced - untraced, "s");
    print!("{lines}");

    // flexdist-net: probes, then the counters of every fault plan used.
    let (enc, dec) = span("net.codec", || probes::codec(nb, budget));
    m.set("net.encode_gbps", enc, "GB/s");
    m.set("net.decode_gbps", dec, "GB/s");
    let chan = span("net.p2p.channel", || probes::p2p(&Wire::Channel, nb))?;
    let dir = SockDir::new(scratch, "p2p")?;
    let uds = span("net.p2p.uds", || probes::p2p(&Wire::Uds(dir.path()), nb))?;
    drop(dir);
    m.set("net.pingpong_us.channel", chan.latency_us, "us");
    m.set("net.pingpong_us.uds", uds.latency_us, "us");
    m.set("net.stream_gbps.channel", chan.stream_gbps, "GB/s");
    m.set("net.stream_gbps.uds", uds.stream_gbps, "GB/s");
    fault_metrics(run, m);

    // flexdist-runtime
    let paper = MachineConfig::paper_testbed(spec.p);
    let (sim_s, events) = sim_seconds(&s.tl, &paper, 5);
    m.median_of("sim.run_s", &sim_s, "s");
    m.set("sim.events_per_s", events as f64 / median(&sim_s), "1/s");
    let shared = MachineConfig {
        network: NetworkModel::SharedBandwidth,
        ..paper
    };
    m.median_of(
        "sim.shared_bw_run_s",
        &sim_seconds(&s.tl, &shared, 5).0,
        "s",
    );
    let wire = if spec.uds { &uds } else { &chan };
    let panel = if chol {
        (k.potrf + k.trsm + k.syrk) / 3.0
    } else {
        (k.getrf + k.trsm) / 2.0
    };
    let host_cost = KernelCostModel {
        nb,
        core_gflops: k.gemm,
        panel_efficiency: panel / k.gemm,
    };
    let host_tl = build_graph(spec.op, &s.a, &host_cost);
    let host = host_machine(spec.p, wire.latency_us, wire.stream_gbps);
    let predicted = span("sim.host_model", || {
        Simulator::new(&host_tl.graph).run(&host).makespan
    });
    m.set("sim.pred_ratio", predicted / untraced, "ratio");
    println!(
        "  host time model: predicted {predicted:.4} s vs measured {untraced:.4} s; {} ranks \
         share {} cores, an oversubscription the model does not capture",
        spec.p,
        nproc()
    );

    // factor::recovery + dist::splice
    let (active_plans, recovered, derive_s) = run.exp.derive;
    m.set("recovery.derive_s", derive_s, "s");
    m.set("recovery.active_plans", active_plans as f64, "count");
    m.set("recovery.recovered_msgs", recovered as f64, "count");

    // flexdist-cli
    let mut argv: Vec<String> = format!(
        "dexec --op {} --scheme {} --seeds {GCRM_RESTARTS} --p {} --t {} --nb {nb} --seed {}",
        if chol { "chol" } else { "lu" },
        if spec.gcrm { "gcrm" } else { "g2dbc" },
        spec.p,
        spec.t,
        Seeds::new(seed).matrix
    )
    .split_whitespace()
    .map(String::from)
    .collect();
    if !spec.crashes.is_empty() {
        let list: Vec<String> = spec
            .crashes
            .iter()
            .map(|(r, e)| format!("{r}@{e}"))
            .collect();
        argv.extend([
            "--recover".to_string(),
            "--crash".to_string(),
            list.join(","),
        ]);
    }
    let (cli, dt) = time(|| span("cli.dexec", || flexdist_cli::run(&argv)));
    cli.map_err(|e| format!("flexdist {}: {e}", argv.join(" ")))?;
    m.set("cli.dexec_s", dt, "s");
    Ok(())
}

/// GCR&M search counters.
pub fn gcrm_metrics(search: &GcrmSearch, p: u32, m: &mut Metrics) {
    let restarts = gcrm_restarts(p);
    m.set("core.gcrm_restarts", restarts as f64, "count");
    m.set(
        "core.gcrm_accept_ratio",
        search.records.len() as f64 / restarts.max(1) as f64,
        "ratio",
    );
    m.set("core.gcrm_cost", search.best_cost, "cost");
}

/// Static verifier results.
pub fn verify_metrics(proto: &ProtocolReport, nb: usize, m: &mut Metrics) {
    m.set("verify.findings", proto.findings.len() as f64, "count");
    m.set(
        "verify.min_capacity",
        f64::from(proto.min_capacity.unwrap_or(u32::MAX)),
        "frames",
    );
    m.set(
        "verify.peak_rank_bytes",
        proto
            .peaks
            .iter()
            .map(|q| q.peak_bytes(nb))
            .max()
            .unwrap_or(0) as f64,
        "bytes",
    );
}

/// Reliability counters: the mean over the distinct fault plans the run
/// used (each plan's counters are exact for its seed).
fn fault_metrics(run: &FactorRun, m: &mut Metrics) {
    let mut seen: Vec<(Option<u64>, &NetReport)> = Vec::new();
    for r in &run.reps {
        if let Some(report) = &r.report {
            if !seen.iter().any(|(s, _)| *s == r.fault_seed) {
                seen.push((r.fault_seed, report));
            }
        }
    }
    let n = seen.len().max(1) as f64;
    let mean = |f: &dyn Fn(&NetReport) -> f64| seen.iter().map(|(_, r)| f(r)).sum::<f64>() / n;
    m.set(
        "net.retransmits",
        mean(&|r| r.faults.retransmits as f64),
        "count",
    );
    m.set(
        "net.corrupt_rejected",
        mean(&|r| r.faults.corrupt_rejected as f64),
        "count",
    );
    m.set(
        "net.dup_rejected",
        mean(&|r| r.faults.duplicates_rejected as f64),
        "count",
    );
    m.set(
        "net.overhead_bytes",
        mean(&|r| r.faults.overhead_bytes as f64),
        "bytes",
    );
    m.set(
        "net.goodput_ratio",
        mean(&|r| r.bytes as f64 / (r.bytes + r.faults.overhead_bytes).max(1) as f64),
        "ratio",
    );
}

/// Split each rank's wall time of the last traced repetition into
/// kernel time (its task spans) and the rest. Returns the machine-wide
/// kernel share and one line per rank.
fn compute_split(run: &FactorRun) -> (f64, String) {
    let Some((trace, wall)) = &run.last_trace else {
        return (f64::NAN, String::new());
    };
    let mut busy = vec![0.0; trace.n_ranks as usize];
    for s in &trace.spans {
        busy[s.node as usize] += s.end - s.start;
    }
    let mut lines = String::new();
    for (rank, b) in busy.iter().enumerate() {
        lines.push_str(&format!(
            "  rank {rank:>2}: kernels {:.4} s, other {:.4} s of {:.4} s wall\n",
            b,
            wall - b,
            wall
        ));
    }
    (busy.iter().sum::<f64>() / (wall * busy.len() as f64), lines)
}
