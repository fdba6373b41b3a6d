//! Distributed execution: one rank per node, explicit tile messages.
//!
//! Where [`execute`](crate::execute::execute) runs the task graph on a
//! shared-memory thread pool, this engine instantiates **one rank per
//! node of the [`TileAssignment`]**, gives each rank only the tiles it
//! owns, and moves every non-local operand over the
//! [`flexdist_net`] fabric as a serialized [`TileMsg`] — the panel and
//! trailing broadcasts of the paper's Fig. 2, made executable.
//!
//! ## Broadcast schedule
//!
//! Every send follows the paper's Fig. 2 owner walk:
//!
//! * after `GETRF(ℓ)` / `POTRF(ℓ)`, tile `(ℓ,ℓ)` goes to the distinct
//!   owners of the panel tiles it unlocks (**panel** class);
//! * after each panel `TRSM`, the solved tile goes to the distinct
//!   owners of its trailing row/column (LU) or colrow (Cholesky)
//!   (**trailing** class).
//!
//! The engine takes those messages from one place: the spliced stream of
//! `flexdist_dist::splice`, which a crash-free run uses with zero
//! crashes and a recovering run with its whole crash cascade. One
//! builder turns a stream into a [`CommSchedule`]. The zero-crash stream
//! equals the plain walk that `{lu,cholesky}_comm_volume` folds, so the
//! measured [`NetReport::wire`] equals those counts **exactly** — the
//! headline conformance invariant, enforced by tests and by the
//! `flexdist dexec` CLI on every run.
//!
//! ## Progress engine
//!
//! Each rank runs a single-threaded loop over its own tasks: local
//! dependencies are tracked with per-task counters over same-rank graph
//! edges; remote operands are tracked as missing [`TileKey`]s resolved by
//! the [`ReplicaCache`] as messages arrive. When no task is ready the
//! rank blocks on its inbox. Sends never block (unbounded channels), and
//! every message a rank receives is consumed by at least one of its
//! tasks, so the protocol is deadlock-free; a dropped or extra message
//! surfaces as a typed [`NetError`] instead of a hang.
//!
//! ## Reliability under injected faults
//!
//! With [`DexecOptions::faults`] set, every link misbehaves according to
//! the seeded [`FaultPlan`] and the engine compensates: senders
//! retransmit dropped/corrupted frames ([`Endpoint::send_frame_reliable`])
//! until delivered or [`NetError::RetryExhausted`]; receivers reject
//! corrupt frames by checksum, deduplicate retransmitted replicas through
//! the [`ReplicaCache`] seen-set, evict replica payloads after their last
//! local read, and bound every wait with a progress watchdog that turns
//! starvation into [`NetError::Stalled`] naming the replicas still
//! outstanding. A rank the plan crashes exits with
//! [`NetError::RankCrashed`] before the scheduled iteration. Because the
//! fate of every physical frame is a pure function of the seed and the
//! message identity, the same seed reproduces the same [`NetReport`] —
//! fault counters included — and the factorized matrix stays
//! bitwise-identical to the shared-memory executor on every survivable
//! schedule.
//!
//! ## Bitwise identity
//!
//! Tasks writing the same tile are chained by same-rank WAW/RAW edges,
//! so every tile sees the exact kernel sequence of the shared-memory
//! executor, and panel tiles are never rewritten after being broadcast —
//! distributed results are bitwise-identical to `execute()` at any
//! worker count (asserted by `tests/distributed_diff.rs`).

use crate::graphs::{Op, Operation, TaskList};
use crate::recovery::{derive_recovery, RecoverPlan, NO_RANK};
use flexdist_dist::splice::{cholesky_spliced_chain, lu_spliced_chain, CrashPoint, SplicedMsg};
use flexdist_dist::{BcastClass, TileAssignment};
use flexdist_kernels::{
    gemm_nn, gemm_nt, getrf_nopiv, potrf, syrk_ln, trsm_left_lower_unit, trsm_right_lower_trans,
    trsm_right_upper, KernelError, Tile, TiledMatrix,
};
use flexdist_net::{
    build_fabric_with, build_socket_fabric, Endpoint, FaultPlan, FullMesh, LinkStats, MsgClass,
    MsgEvent, MsgKind, NetError, NetReport, NetTrace, RankIo, ReplicaCache, SocketConfig,
    SocketTransport, TileKey, Topology,
};
use flexdist_runtime::TaskSpan;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which [`Transport`](flexdist_net::Transport) carries the frames.
#[derive(Debug, Clone, Default)]
pub enum Backend {
    /// In-process mpsc channels: the deterministic test double.
    #[default]
    Channel,
    /// OS sockets (UDS or TCP per the config), still driven by one
    /// thread per rank inside this process. Separate-process execution
    /// goes through [`execute_rank_socket`] instead.
    Socket(SocketConfig),
}

/// Knobs of a distributed run.
pub struct DexecOptions<'a> {
    /// Which rank pairs may talk directly (default: [`FullMesh`]).
    pub topology: &'a dyn Topology,
    /// Record a span + message trace.
    pub trace: bool,
    /// Deterministic fault schedule to interpose on every link. `None`
    /// runs the strict protocol (any anomaly is fatal); `Some` arms the
    /// reliability layer (retransmission, dedup, checksum rejection,
    /// watchdog).
    pub faults: Option<FaultPlan>,
    /// How long a rank may sit with no consumable message before the
    /// progress watchdog turns the wait into [`NetError::Stalled`].
    pub watchdog: Duration,
    /// Transport backend under every endpoint.
    pub backend: Backend,
    /// Recover from scheduled rank crashes instead of failing the run:
    /// for each crash (sorted by epoch, ties by rank) survivors re-map
    /// the casualty's tiles onto themselves
    /// (`TileAssignment::remap_excluding`, composing across the
    /// cascade), splice the fused post-crash schedule in, and continue
    /// to completion. Composes with drop/dup/corrupt/delay noise: the
    /// goodput counters count each logical send once on the sender
    /// side, so they remain a pure function of the crash points while
    /// retransmit overhead floats.
    pub recover: bool,
    /// Test knob: the named rank sleeps for the given duration before
    /// entering its progress loop, modeling a slow schedule
    /// re-derivation near the watchdog deadline (the recovery-grace
    /// regression tests drive this).
    pub splice_delay: Option<(u32, Duration)>,
}

impl Default for DexecOptions<'_> {
    fn default() -> Self {
        Self {
            topology: &FullMesh,
            trace: false,
            faults: None,
            watchdog: Duration::from_secs(30),
            backend: Backend::Channel,
            recover: false,
            splice_delay: None,
        }
    }
}

/// Everything a distributed run produces.
pub struct DexecOutput {
    /// The factorized matrix, reassembled from the ranks' owned tiles.
    pub matrix: TiledMatrix,
    /// Measured traffic and kernel status.
    pub report: NetReport,
    /// Span + message trace, when requested.
    pub trace: Option<NetTrace>,
}

/// Run a task list distributed over one rank per node, full mesh.
///
/// # Errors
/// Propagates [`NetError`] on protocol violations, shape mismatches, or
/// unsupported operations (only LU and Cholesky have a broadcast
/// schedule). Kernel failures (zero pivot, not-SPD) are reported in
/// [`NetReport::error`], not as an `Err`.
pub fn execute_distributed(
    tl: &TaskList,
    assignment: &TileAssignment,
    input: &TiledMatrix,
) -> Result<(TiledMatrix, NetReport), NetError> {
    let out = execute_distributed_with(tl, assignment, input, &DexecOptions::default())?;
    Ok((out.matrix, out.report))
}

/// Like [`execute_distributed`], with a span + message trace.
///
/// # Errors
/// See [`execute_distributed`].
pub fn execute_distributed_traced(
    tl: &TaskList,
    assignment: &TileAssignment,
    input: &TiledMatrix,
) -> Result<DexecOutput, NetError> {
    execute_distributed_with(
        tl,
        assignment,
        input,
        &DexecOptions {
            trace: true,
            ..DexecOptions::default()
        },
    )
}

/// One broadcast a task performs after completing: its written tile to
/// the distinct owners that read it remotely, in first-encounter order
/// of the Fig. 2 owner walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskBcast {
    /// Panel or trailing leg of the iteration.
    pub class: MsgClass,
    /// Tile row.
    pub i: u32,
    /// Tile column.
    pub j: u32,
    /// Iteration at which the tile's final value ships (`min(i, j)`).
    pub epoch: u32,
    /// Distinct receiving ranks, never containing the sender.
    pub receivers: Vec<u32>,
    /// Parallel to `receivers`: marks sends that exist only because of
    /// a crash re-map (counted in the `Recovered` goodput counters).
    /// All-false on a crash-free schedule.
    pub recovered: Vec<bool>,
}

/// The complete static communication schedule of a distributed run,
/// derived from the ops + owner map alone — every send and every remote
/// operand of every task, before a single message moves.
///
/// Every schedule, crash-free or recovering, comes out of one builder
/// over a `flexdist_dist::splice` stream: [`derive_schedule`] is its
/// zero-crash case, and [`derive_recovery`](crate::derive_recovery)
/// builds the survivor and casualty schedules from the cascade's
/// stream. This is the single source of truth shared by the progress
/// engine ([`execute_distributed_with`]) and the static protocol
/// verifier (`flexdist-verify`'s `protocol` module): both consume
/// exactly this structure, so what the verifier proves is what the
/// engine runs.
#[derive(Debug, Clone)]
pub struct CommSchedule {
    /// Tile count per matrix side.
    pub t: usize,
    /// Rank count (one per node of the assignment).
    pub n_ranks: u32,
    /// Executing rank of each task (owner-computes).
    pub node: Vec<u32>,
    /// Same-rank predecessor counts.
    pub local_deps: Vec<u32>,
    /// Remote operands each task waits for.
    pub needs: Vec<Vec<TileKey>>,
    /// Broadcast each task performs on completion.
    pub bcast: Vec<Option<TaskBcast>>,
    /// Tile each task writes in place.
    pub writes: Vec<(u32, u32)>,
    /// Factorization iteration each task belongs to.
    pub epochs: Vec<u32>,
}

/// Tiles a kernel reads besides its written tile, with the epoch at
/// which each was (or will be) broadcast.
pub(crate) fn reads_of(op: Op) -> impl Iterator<Item = (usize, usize, usize)> {
    let reads = match op {
        Op::Getrf { .. } | Op::Potrf { .. } => [None, None],
        Op::TrsmColUpper { l, .. } | Op::TrsmRowLower { l, .. } | Op::TrsmLowerTrans { l, .. } => {
            [Some((l, l, l)), None]
        }
        Op::GemmNn { i, j, l } => [Some((i, l, l)), Some((l, j, l))],
        Op::GemmNt { i, j, l } => [Some((i, l, l)), Some((j, l, l))],
        Op::SyrkUpdate { j, l } => [Some((j, l, l)), None],
        Op::SyrkAccumulate { i, j, l } | Op::GemmAb { i, j, l } => {
            [Some((i, l, l)), Some((l, j, l))]
        }
    };
    reads.into_iter().flatten()
}

/// The factorization iteration a task belongs to (its `l`) — the epoch
/// scale of [`FaultPlan::crash_epoch`] schedules.
pub(crate) fn epoch_of(op: Op) -> u32 {
    let l = match op {
        Op::Getrf { l }
        | Op::Potrf { l }
        | Op::TrsmColUpper { l, .. }
        | Op::TrsmRowLower { l, .. }
        | Op::TrsmLowerTrans { l, .. }
        | Op::GemmNn { l, .. }
        | Op::GemmNt { l, .. }
        | Op::SyrkUpdate { l, .. }
        | Op::SyrkAccumulate { l, .. }
        | Op::GemmAb { l, .. } => l,
    };
    l as u32
}

/// The tile a kernel writes (in place).
pub(crate) fn write_of(op: Op) -> (usize, usize) {
    match op {
        Op::Getrf { l } | Op::Potrf { l } => (l, l),
        Op::TrsmColUpper { i, l } | Op::TrsmLowerTrans { i, l } => (i, l),
        Op::TrsmRowLower { l, j } => (l, j),
        Op::GemmNn { i, j, .. } | Op::GemmNt { i, j, .. } => (i, j),
        Op::SyrkUpdate { j, .. } => (j, j),
        Op::SyrkAccumulate { i, j, .. } | Op::GemmAb { i, j, .. } => (i, j),
    }
}

/// The spliced broadcast stream of `op` over an assignment chain (see
/// `flexdist_dist::splice`); with one map and no crash, the plain Fig. 2
/// walk.
///
/// # Errors
/// [`NetError::Unsupported`] for operations without a broadcast
/// schedule (only LU and Cholesky have one).
pub(crate) fn chain_stream(
    op: Operation,
    maps: &[TileAssignment],
    crashes: &[CrashPoint],
) -> Result<Vec<SplicedMsg>, NetError> {
    match op {
        Operation::Lu => Ok(lu_spliced_chain(maps, crashes)),
        Operation::Cholesky => Ok(cholesky_spliced_chain(maps, crashes)),
        other => Err(NetError::Unsupported {
            operation: other.name().to_string(),
        }),
    }
}

/// Build the [`CommSchedule`] one participant runs over `map` from a
/// broadcast stream — the one place where placement, same-rank
/// dependency counts, needs and broadcast legs are computed.
///
/// Placement is owner-computes under `map`; `cut = Some((dead, epoch))`
/// removes that rank's tasks of epochs `≥ epoch` ([`NO_RANK`]
/// placement, so they are neither queued nor counted). Each leg of
/// `stream` attaches to its tile's finalizing task — the unique task
/// writing the tile at iteration `min(i, j)` — when that task runs on
/// the leg's sender here; legs of other senders belong to other
/// participants' schedules.
pub(crate) fn build_schedule(
    tl: &TaskList,
    map: &TileAssignment,
    stream: &[SplicedMsg],
    cut: Option<(u32, u32)>,
) -> CommSchedule {
    let g = &tl.graph;
    let n = tl.ops.len();
    let t = tl.t;
    let mut node = Vec::with_capacity(n);
    let mut writes = Vec::with_capacity(n);
    let mut epochs = Vec::with_capacity(n);
    for &op in &tl.ops {
        let (i, j) = write_of(op);
        let epoch = epoch_of(op);
        let owner = map.owner(i, j);
        let cut_off = cut.is_some_and(|(dead, at)| owner == dead && epoch >= at);
        node.push(if cut_off { NO_RANK } else { owner });
        writes.push((i as u32, j as u32));
        epochs.push(epoch);
    }
    let mut local_deps = vec![0u32; n];
    for (u, &nu) in node.iter().enumerate() {
        if nu == NO_RANK {
            continue;
        }
        for &s in g.successors_of(u as u32) {
            if node[s as usize] == nu {
                local_deps[s as usize] += 1;
            }
        }
    }
    let needs = tl
        .ops
        .iter()
        .zip(&node)
        .map(|(&op, &me)| {
            reads_of(op)
                .filter(|&(i, j, _)| map.owner(i, j) != me)
                .map(|(i, j, e)| TileKey {
                    i: i as u32,
                    j: j as u32,
                    epoch: e as u32,
                })
                .collect()
        })
        .collect();
    let mut finalizer: Vec<Option<usize>> = vec![None; t * t];
    for (id, (&(i, j), &epoch)) in writes.iter().zip(&epochs).enumerate() {
        if epoch == i.min(j) {
            finalizer[i as usize * t + j as usize] = Some(id);
        }
    }
    let mut bcast = vec![None; n];
    for m in stream {
        let Some(id) = finalizer[m.i * t + m.j] else {
            continue;
        };
        if node[id] != m.sender {
            continue;
        }
        bcast[id] = Some(TaskBcast {
            class: match m.class {
                BcastClass::Panel => MsgClass::Panel,
                BcastClass::Trailing => MsgClass::Trailing,
            },
            i: m.i as u32,
            j: m.j as u32,
            epoch: m.epoch as u32,
            receivers: m.receivers.clone(),
            recovered: m.recovered.clone(),
        });
    }
    CommSchedule {
        t,
        n_ranks: map.n_nodes(),
        node,
        local_deps,
        needs,
        bcast,
        writes,
        epochs,
    }
}

/// Derive the complete static communication schedule of a distributed
/// run from the task list and owner map: the zero-crash case of
/// [`build_schedule`], over the spliced stream of the single map `a`.
///
/// That stream equals the owner walks of `flexdist_dist::schedule`
/// message for message (same tiles, same distinct-receiver sets in the
/// same order) — the property that makes measured wire volume equal the
/// analytic counts, and that `flexdist-verify` checks by diffing the
/// two derivations against each other.
///
/// # Errors
/// [`NetError::Unsupported`] for operations without a broadcast
/// schedule (only LU and Cholesky have one).
pub fn derive_schedule(tl: &TaskList, a: &TileAssignment) -> Result<CommSchedule, NetError> {
    let stream = chain_stream(tl.operation, std::slice::from_ref(a), &[])?;
    Ok(build_schedule(tl, a, &stream, None))
}

/// What one rank hands back after draining its tasks: its share of the
/// factorized matrix, its traffic counters, and any kernel failure.
/// Public so a multi-process launcher can ship each rank's outcome over
/// a control channel and rebuild the run with [`merge_rank_outcomes`].
pub struct RankOutcome {
    /// Owned tiles after factorization, keyed by flat index `i * t + j`.
    pub tiles: Vec<(usize, Tile)>,
    /// Receive-side counters and task count of this rank.
    pub io: RankIo,
    /// Outgoing per-link counters, `(peer, stats)`.
    pub sent: Vec<(u32, LinkStats)>,
    /// Task spans, when tracing.
    pub spans: Vec<TaskSpan>,
    /// Message events, when tracing.
    pub msgs: Vec<MsgEvent>,
    /// First kernel failure on this rank, with the failing task id.
    pub error: Option<(usize, KernelError)>,
}

/// Run the kernel of one task against the rank-local store + replica
/// cache. The outer error is a protocol bug (missing tile), the inner
/// one a numerical kernel failure.
#[allow(clippy::too_many_arguments)]
fn run_local_op(
    op: Op,
    t: usize,
    nb: usize,
    me: u32,
    a: &TileAssignment,
    tiles: &mut [Option<Tile>],
    cache: &ReplicaCache,
) -> Result<Result<(), KernelError>, NetError> {
    let (wi, wj) = write_of(op);
    let widx = wi * t + wj;
    let mut out = tiles[widx].take().ok_or(NetError::MissingLocalTile {
        rank: me,
        i: wi as u32,
        j: wj as u32,
    })?;
    let read = |i: usize, j: usize, epoch: usize| -> Result<&Tile, NetError> {
        if a.owner(i, j) == me {
            tiles[i * t + j].as_ref().ok_or(NetError::MissingLocalTile {
                rank: me,
                i: i as u32,
                j: j as u32,
            })
        } else {
            let key = TileKey {
                i: i as u32,
                j: j as u32,
                epoch: epoch as u32,
            };
            cache.get(key).ok_or(NetError::MissingReplica {
                rank: me,
                i: key.i,
                j: key.j,
                epoch: key.epoch,
            })
        }
    };
    let status = match op {
        Op::Getrf { .. } => getrf_nopiv(out.as_mut_slice(), nb),
        Op::Potrf { .. } => potrf(out.as_mut_slice(), nb),
        Op::TrsmColUpper { l, .. } => {
            trsm_right_upper(read(l, l, l)?.as_slice(), out.as_mut_slice(), nb);
            Ok(())
        }
        Op::TrsmRowLower { l, .. } => {
            trsm_left_lower_unit(read(l, l, l)?.as_slice(), out.as_mut_slice(), nb);
            Ok(())
        }
        Op::TrsmLowerTrans { l, .. } => {
            trsm_right_lower_trans(read(l, l, l)?.as_slice(), out.as_mut_slice(), nb);
            Ok(())
        }
        Op::GemmNn { i, j, l } => {
            let left = read(i, l, l)?.as_slice();
            let right = read(l, j, l)?.as_slice();
            gemm_nn(-1.0, left, right, 1.0, out.as_mut_slice(), nb);
            Ok(())
        }
        Op::GemmNt { i, j, l } => {
            let left = read(i, l, l)?.as_slice();
            let right = read(j, l, l)?.as_slice();
            gemm_nt(-1.0, left, right, 1.0, out.as_mut_slice(), nb);
            Ok(())
        }
        Op::SyrkUpdate { j, l } => {
            syrk_ln(-1.0, read(j, l, l)?.as_slice(), 1.0, out.as_mut_slice(), nb);
            Ok(())
        }
        Op::SyrkAccumulate { .. } | Op::GemmAb { .. } => {
            return Err(NetError::Unsupported {
                operation: "syrk/gemm task".to_string(),
            })
        }
    };
    tiles[widx] = Some(out);
    Ok(status)
}

/// How one rank participates in a (possibly recovering) run.
#[derive(Debug, Clone, Copy, Default)]
struct RankMode {
    /// Recovery armed: the scheduled crash is modeled statically (the
    /// dead rank runs a truncated plan) instead of firing at run time.
    recover: bool,
    /// This rank *is* the scheduled casualty: after its pre-crash tasks
    /// it leaves the fabric immediately — no inbox drain, no tiles
    /// returned — like a process that died.
    dying: bool,
    /// Extra watchdog intervals tolerated before `Stalled`, so a peer's
    /// slow schedule re-derivation near the deadline is not mistaken
    /// for starvation.
    grace: u32,
    /// Sleep before the progress loop (recovery-grace test knob).
    delay: Option<Duration>,
}

#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn run_rank(
    me: u32,
    tl: &TaskList,
    a: &TileAssignment,
    plan: &CommSchedule,
    input: &TiledMatrix,
    mut ep: Endpoint,
    t0: Instant,
    want_trace: bool,
    watchdog: Duration,
    mode: RankMode,
) -> Result<RankOutcome, NetError> {
    let g = &tl.graph;
    let t = tl.t;
    let nb = input.nb();
    let fault_mode = ep.fault_plan().is_some();
    let crash_at = if mode.recover {
        // Recovery models the crash statically: the dead rank's plan is
        // already truncated to its pre-crash tasks, so the runtime kill
        // switch must not fire (the heap could otherwise pop a
        // post-crash task while an earlier-epoch one still waits,
        // making the cut nondeterministic).
        None
    } else {
        ep.fault_plan().and_then(|p| p.crash_epoch(me))
    };
    if let Some(d) = mode.delay {
        std::thread::sleep(d);
    }
    let mut grace_left = mode.grace;
    let mut tiles: Vec<Option<Tile>> = (0..t * t)
        .map(|k| {
            let (i, j) = (k / t, k % t);
            (a.owner(i, j) == me).then(|| input.tile(i, j).clone())
        })
        .collect();
    let mut cache = ReplicaCache::new(t, nb);
    let mut deps = plan.local_deps.clone();
    let mut missing: Vec<u32> = plan.needs.iter().map(|n| n.len() as u32).collect();
    let mut waiting: HashMap<TileKey, Vec<usize>> = HashMap::new();
    // How many of this rank's tasks still read each remote replica;
    // at zero the payload is evicted (the key stays known to the cache,
    // so late retransmitted copies are still deduplicated).
    let mut readers_left: HashMap<TileKey, u32> = HashMap::new();
    let mut ready: BinaryHeap<(i64, Reverse<usize>)> = BinaryHeap::new();
    let mut my_total = 0u64;
    for (id, &rank) in plan.node.iter().enumerate() {
        if rank != me {
            continue;
        }
        my_total += 1;
        for &key in &plan.needs[id] {
            waiting.entry(key).or_default().push(id);
            *readers_left.entry(key).or_insert(0) += 1;
        }
        if deps[id] == 0 && missing[id] == 0 {
            ready.push((g.priority_of(id as u32), Reverse(id)));
        }
    }
    let mut out = RankOutcome {
        tiles: Vec::new(),
        io: RankIo {
            rank: me,
            ..RankIo::default()
        },
        sent: Vec::new(),
        spans: Vec::new(),
        msgs: Vec::new(),
        error: None,
    };
    let mut done = 0u64;
    while done < my_total {
        if let Some((_, Reverse(id))) = ready.pop() {
            let op = tl.ops[id];
            if let Some(ce) = crash_at {
                if epoch_of(op) >= ce {
                    // The fault plan kills this rank here. Dropping the
                    // endpoint closes the inbox; peers retrying into it
                    // run out their attempt budgets.
                    return Err(NetError::RankCrashed {
                        rank: me,
                        epoch: ce,
                    });
                }
            }
            let started = t0.elapsed().as_secs_f64();
            let status = run_local_op(op, t, nb, me, a, &mut tiles, &cache)?;
            if let Err(e) = status {
                if out.error.is_none() {
                    out.error = Some((id, e));
                }
            }
            if want_trace {
                out.spans.push(TaskSpan {
                    task: id as u32,
                    node: me,
                    worker: 0,
                    label: g.label_of(id as u32),
                    start: started,
                    end: t0.elapsed().as_secs_f64(),
                });
            }
            if let Some(b) = &plan.bcast[id] {
                let idx = b.i as usize * t + b.j as usize;
                let tile = tiles[idx].as_ref().ok_or(NetError::MissingLocalTile {
                    rank: me,
                    i: b.i,
                    j: b.j,
                })?;
                // Encoded once; every receiver gets these same bytes.
                let frame = ep.encode_frame(b.class, b.i, b.j, b.epoch, tile)?;
                for (k, &to) in b.receivers.iter().enumerate() {
                    // Send-enqueue vs. wire-departure: `enq` is stamped
                    // before the (blocking, possibly retransmitting) send,
                    // `dep` after it returns. Trace replay uses `dep` so
                    // sender-side queueing is not mistaken for transmission.
                    let enq = if want_trace {
                        t0.elapsed().as_secs_f64()
                    } else {
                        0.0
                    };
                    let receipt = ep.send_frame_reliable(to, &frame)?;
                    out.io.sent_msgs += 1;
                    out.io.sent_bytes += receipt.goodput_bytes as u64;
                    if b.recovered.get(k).copied().unwrap_or(false) {
                        out.io.recovered_msgs += 1;
                        out.io.recovered_bytes += receipt.goodput_bytes as u64;
                    }
                    if want_trace {
                        let dep = t0.elapsed().as_secs_f64();
                        for ev in &receipt.events {
                            out.msgs.push(MsgEvent {
                                from: me,
                                to,
                                class: b.class,
                                i: b.i,
                                j: b.j,
                                epoch: b.epoch,
                                bytes: ev.bytes,
                                at: enq,
                                dep,
                                kind: ev.kind,
                                attempt: ev.attempt,
                            });
                        }
                    }
                }
            }
            for &key in &plan.needs[id] {
                if let Some(left) = readers_left.get_mut(&key) {
                    *left -= 1;
                    if *left == 0 {
                        cache.evict(key);
                    }
                }
            }
            for &s in g.successors_of(id as u32) {
                let s = s as usize;
                if plan.node[s] == me {
                    deps[s] -= 1;
                    if deps[s] == 0 && missing[s] == 0 {
                        ready.push((g.priority_of(s as u32), Reverse(s)));
                    }
                }
            }
            done += 1;
        } else {
            let stalled = |waiting: &HashMap<TileKey, Vec<usize>>| {
                let mut keys: Vec<TileKey> = waiting.keys().copied().collect();
                keys.sort_by_key(|k| (k.epoch, k.i, k.j));
                NetError::Stalled {
                    rank: me,
                    waiting_on: keys,
                }
            };
            let (msg, bytes) = match ep.recv_deadline(watchdog) {
                Ok(Some(got)) => got,
                // The watchdog fired: nothing consumable arrived for the
                // whole interval while tasks are still blocked. In a
                // recovering run each rank carries a bounded grace budget
                // so a peer still re-deriving its spliced schedule is not
                // mistaken for starvation.
                Ok(None) => {
                    if grace_left > 0 {
                        grace_left -= 1;
                        continue;
                    }
                    return Err(stalled(&waiting));
                }
                // Under faults, every peer exiting while this rank still
                // waits is a starvation, not a protocol bug: the missing
                // broadcast died with a crashed or exhausted sender.
                Err(NetError::ChannelClosed { .. }) if fault_mode => return Err(stalled(&waiting)),
                Err(e) => return Err(e),
            };
            let key = msg.key();
            let from = msg.src;
            let epoch = msg.epoch;
            if fault_mode {
                if !cache.insert_or_dup(me, msg)? {
                    // Retransmitted or injected duplicate: already
                    // consumed, drop it quietly.
                    out.io.dup_rejected += 1;
                    continue;
                }
            } else {
                cache.insert(me, msg)?;
            }
            out.io.recv_msgs += 1;
            out.io.recv_bytes += bytes as u64;
            let Some(waiters) = waiting.remove(&key) else {
                return Err(NetError::UnexpectedMsg {
                    rank: me,
                    from,
                    i: key.i,
                    j: key.j,
                    epoch,
                });
            };
            for w in waiters {
                missing[w] -= 1;
                if missing[w] == 0 && deps[w] == 0 {
                    ready.push((g.priority_of(w as u32), Reverse(w)));
                }
            }
        }
    }
    if mode.dying {
        // The scheduled casualty: it consumed every pre-crash operand it
        // needed (each gated one of its executed tasks), so nothing is
        // ever inbound for it again — close the outgoing half and vanish
        // from the fabric without draining, like a dead process. Its
        // tiles die with it; the survivors' re-mapped schedule covers
        // every tile of the matrix without them. It does linger until
        // fabric bring-up completes: the modeled crash is mid-run, and a
        // rank process that vanishes while slower peers are still
        // dialing its listener would turn the scheduled crash into an
        // unmodeled bring-up failure (refused dials, then peers blocked
        // on a listener that never fills).
        ep.leave_fabric();
        out.io.tasks = my_total;
        out.sent = ep.sent_stats();
        out.tiles = Vec::new();
        return Ok(out);
    }
    // Tasks done: close the outgoing half and keep the inbox alive until
    // every peer does the same, consuming whatever is still inbound.
    // This replaces the old coordinator-side drain — each rank accounts
    // for its own in-flight duplicates and corrupt copies, which works
    // identically whether the peers are threads or processes, and keeps
    // the fault counters a pure function of the seed.
    let rf = ep.finish_and_drain()?;
    out.io.corrupt_rejected = rf.corrupt_rejected;
    out.io.delayed = rf.delayed;
    out.io.dup_rejected += rf.dups_drained;
    out.io.tasks = my_total;
    out.sent = ep.sent_stats();
    out.tiles = tiles
        .into_iter()
        .enumerate()
        .filter_map(|(k, tile)| tile.map(|tile| (k, tile)))
        .collect();
    Ok(out)
}

/// The schedules a run executes. Every rank derives them identically
/// from the same deterministic inputs — in a multi-process run that
/// shared derivation *is* the crash-agreement round.
enum RunPlan {
    /// No crash to recover from: every rank runs the crash-free
    /// schedule.
    Plain(CommSchedule),
    /// The active recovery plans, sorted by `(epoch, rank)`. Inactive
    /// plans (a trailing crash with no remaining work) are dropped:
    /// those crashes can never fire.
    Recover(Vec<RecoverPlan>),
}

impl RunPlan {
    /// Check the input shape, then derive only the schedules the run
    /// needs: the recovery chain when recovery is armed and some crash
    /// removes work, the crash-free schedule otherwise.
    fn derive(
        tl: &TaskList,
        a: &TileAssignment,
        input: &TiledMatrix,
        opts: &DexecOptions<'_>,
    ) -> Result<Self, NetError> {
        if input.tiles() != tl.t {
            return Err(NetError::ShapeMismatch {
                expected: tl.t,
                got: input.tiles(),
            });
        }
        if opts.recover {
            let chain: Vec<RecoverPlan> =
                derive_recovery(tl, a, opts.faults.as_ref(), opts.topology)?
                    .into_iter()
                    .filter(|rp| rp.active)
                    .collect();
            if !chain.is_empty() {
                return Ok(Self::Recover(chain));
            }
        }
        Ok(Self::Plain(derive_schedule(tl, a)?))
    }

    /// Enlist `ep`'s rank: adopt on `ep` every re-map whose frames it
    /// must accept, and return the owner map, schedule and mode it runs.
    /// Casualty m runs its truncated plan under the map in force when it
    /// dies (after the re-maps of every earlier crash) and leaves the
    /// fabric after its last pre-crash task; every survivor adopts the
    /// whole re-map chain and runs the fused schedule under the final
    /// map.
    fn enlist<'x>(
        &'x self,
        a: &'x TileAssignment,
        ep: &mut Endpoint,
        opts: &DexecOptions<'_>,
    ) -> (&'x TileAssignment, &'x CommSchedule, RankMode) {
        let rank = ep.rank();
        let delay = opts
            .splice_delay
            .and_then(|(r, d)| (r == rank).then_some(d));
        let chain = match self {
            Self::Plain(plan) => {
                return (
                    a,
                    plan,
                    RankMode {
                        delay,
                        ..RankMode::default()
                    },
                )
            }
            Self::Recover(chain) => chain,
        };
        let casualty = chain.iter().position(|rp| rp.dead == rank);
        let adopted = &chain[..casualty.unwrap_or(chain.len())];
        for rp in adopted {
            ep.adopt_remap(Arc::new(rp.remapped.clone()), rp.dead);
        }
        let run_a = adopted.last().map_or(a, |rp| &rp.remapped);
        let plan = match casualty {
            Some(m) => &chain[m].dead_sched,
            None => &chain[0].survivor,
        };
        let mode = RankMode {
            recover: true,
            dying: casualty.is_some(),
            grace: chain.len() as u32,
            delay,
        };
        (run_a, plan, mode)
    }
}

/// Run a task list distributed over one rank per node.
///
/// # Errors
/// See [`execute_distributed`].
pub fn execute_distributed_with(
    tl: &TaskList,
    assignment: &TileAssignment,
    input: &TiledMatrix,
    opts: &DexecOptions<'_>,
) -> Result<DexecOutput, NetError> {
    let t = tl.t;
    let run = RunPlan::derive(tl, assignment, input, opts)?;
    let shared = Arc::new(assignment.clone());
    let faults = opts.faults.clone().map(Arc::new);
    let n_ranks = assignment.n_nodes();
    let endpoints: Vec<Endpoint> = match &opts.backend {
        Backend::Channel => build_fabric_with(&shared, opts.topology, faults),
        Backend::Socket(cfg) => build_socket_fabric(n_ranks, opts.topology, cfg)?
            .into_iter()
            .enumerate()
            .map(|(rank, tr)| {
                Endpoint::from_transport(
                    rank as u32,
                    Arc::clone(&shared),
                    opts.topology,
                    Box::new(tr),
                    faults.clone(),
                )
            })
            .collect(),
    };
    let t0 = Instant::now();
    let want_trace = opts.trace;
    let watchdog = opts.watchdog;
    let results: Vec<Result<RankOutcome, NetError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = endpoints
            .into_iter()
            .map(|mut ep| {
                let rank = ep.rank();
                let (run_a, run_plan, mode) = run.enlist(assignment, &mut ep, opts);
                scope.spawn(move || {
                    run_rank(
                        rank, tl, run_a, run_plan, input, ep, t0, want_trace, watchdog, mode,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                Err(p) => std::panic::resume_unwind(p),
            })
            .collect()
    });
    let mut outcomes = Vec::with_capacity(results.len());
    let mut failure: Option<NetError> = None;
    for r in results {
        match r {
            Ok(out) => outcomes.push(out),
            Err(e) => {
                if failure
                    .as_ref()
                    .is_none_or(|f| failure_rank(&e) < failure_rank(f))
                {
                    failure = Some(e);
                }
            }
        }
    }
    if let Some(e) = failure {
        return Err(e);
    }
    let mut spans = Vec::new();
    let mut msgs = Vec::new();
    for out in &mut outcomes {
        spans.append(&mut out.spans);
        msgs.append(&mut out.msgs);
    }
    let (matrix, report) = merge_rank_outcomes(t, input.nb(), n_ranks, outcomes);
    let trace = opts.trace.then(|| {
        spans.sort_by_key(|s| s.task);
        let kind_order = |k: MsgKind| match k {
            MsgKind::Dropped => 0u8,
            MsgKind::Corrupt => 1,
            MsgKind::Goodput => 2,
            MsgKind::Duplicate => 3,
        };
        msgs.sort_by_key(|m| {
            (
                m.from,
                m.epoch,
                m.i,
                m.j,
                m.to,
                m.attempt,
                kind_order(m.kind),
            )
        });
        NetTrace {
            n_ranks,
            spans,
            messages: msgs,
        }
    });
    Ok(DexecOutput {
        matrix,
        report,
        trace,
    })
}

/// Rank failures prioritized by root cause: a scheduled crash explains
/// the retry exhaustion and stalls it causes downstream, and exhausted
/// senders explain stalled receivers.
fn failure_rank(e: &NetError) -> u8 {
    match e {
        NetError::RankCrashed { .. } => 0,
        NetError::RetryExhausted { .. } => 1,
        NetError::Stalled { .. } => 2,
        _ => 3,
    }
}

/// Rebuild the run-level result from per-rank outcomes: scatter owned
/// tiles into one matrix and fold the counters into a [`NetReport`].
/// Used both by [`execute_distributed_with`] after joining its rank
/// threads and by a multi-process launcher after collecting each rank
/// process's [`RankOutcome`] over its control channel. Outcomes may
/// arrive in any order.
#[must_use]
pub fn merge_rank_outcomes(
    t: usize,
    nb: usize,
    n_ranks: u32,
    mut outcomes: Vec<RankOutcome>,
) -> (TiledMatrix, NetReport) {
    outcomes.sort_by_key(|o| o.io.rank);
    let mut matrix = TiledMatrix::zeros(t, nb);
    let mut per_rank = Vec::with_capacity(outcomes.len());
    let mut sent = Vec::with_capacity(outcomes.len());
    let mut first_error: Option<(usize, KernelError)> = None;
    let mut tasks = 0usize;
    for out in &mut outcomes {
        for (k, tile) in out.tiles.drain(..) {
            *matrix.tile_mut(k / t, k % t) = tile;
        }
        tasks += out.io.tasks as usize;
        per_rank.push(out.io);
        sent.push(std::mem::take(&mut out.sent));
        if let Some((id, e)) = out.error {
            if first_error.is_none_or(|(fid, _)| id < fid) {
                first_error = Some((id, e));
            }
        }
    }
    let report =
        NetReport::from_parts(n_ranks, tasks, per_rank, &sent, first_error.map(|(_, e)| e));
    (matrix, report)
}

/// Run exactly **one** rank of a distributed factorization over the
/// socket fabric — the body of a stand-alone rank process. Every rank
/// of the run calls this with the same deterministic inputs (task list,
/// assignment, input matrix, options); the sockets under `cfg.dir`
/// connect them. Blocks until this rank's tasks are done and every peer
/// has closed its stream.
///
/// The caller (the process launcher) is responsible for collecting each
/// rank's [`RankOutcome`] and folding them with [`merge_rank_outcomes`].
///
/// # Errors
/// See [`execute_distributed`], plus `Io` on socket failures.
pub fn execute_rank_socket(
    tl: &TaskList,
    assignment: &TileAssignment,
    input: &TiledMatrix,
    rank: u32,
    cfg: &SocketConfig,
    opts: &DexecOptions<'_>,
) -> Result<RankOutcome, NetError> {
    let run = RunPlan::derive(tl, assignment, input, opts)?;
    let shared = Arc::new(assignment.clone());
    let faults = opts.faults.clone().map(Arc::new);
    let transport = SocketTransport::establish(rank, assignment.n_nodes(), opts.topology, cfg)?;
    let mut ep = Endpoint::from_transport(rank, shared, opts.topology, Box::new(transport), faults);
    let (run_a, run_plan, mode) = run.enlist(assignment, &mut ep, opts);
    run_rank(
        rank,
        tl,
        run_a,
        run_plan,
        input,
        ep,
        Instant::now(),
        opts.trace,
        opts.watchdog,
        mode,
    )
}
