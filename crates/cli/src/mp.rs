//! Multi-process rank launching and the rank-outcome wire format.
//!
//! `flexdist dexec --backend uds|tcp` runs each rank as its **own OS
//! process**: the parent re-invokes its own binary with the hidden
//! `_rank` subcommand once per rank, every child rebuilds the identical
//! deterministic configuration from the replicated flags, executes its
//! rank over the socket fabric ([`flexdist_factor::execute_rank_socket`])
//! and prints exactly one `rank-outcome` JSON document on stdout — the
//! control channel. The parent collects the documents, folds them with
//! [`flexdist_factor::merge_rank_outcomes`] and checks the merged run
//! against the in-process executor (bitwise matrix identity, goodput
//! conformance).
//!
//! Tile payloads travel as `f64::to_bits` integers so the control
//! channel is exactly as lossless as the FXT3 wire itself.

use flexdist_factor::net::{LinkStats, NetReport, RankIo, SocketKind};
use flexdist_factor::{merge_rank_outcomes, RankOutcome};
use flexdist_json::{object, Value};
use flexdist_kernels::{KernelError, Tile, TiledMatrix};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};

/// Everything a rank process needs to rebuild the run deterministically.
/// The flags mirror `dexec`'s own, so parent and children derive the
/// same pattern, task graph and input matrix independently.
pub struct MpSpec {
    /// `--op` token (`lu` or `chol`).
    pub op: String,
    /// Scheme flags replicated verbatim: either `--pattern FILE` or
    /// `--scheme S --p N --seeds K`.
    pub scheme_flags: Vec<String>,
    /// Tile count per side.
    pub t: usize,
    /// Tile dimension.
    pub nb: usize,
    /// Input-matrix seed.
    pub seed: u64,
    /// Socket family carrying the frames.
    pub kind: SocketKind,
    /// Number of rank processes (= nodes of the assignment).
    pub n_ranks: u32,
    /// Scheduled crash points `(rank, epoch)` replicated to every
    /// child — a whole cascade of distinct casualties; empty runs
    /// crash-free.
    pub crashes: Vec<(u32, u32)>,
    /// Drop/duplicate/corrupt/delay probability armed on every link in
    /// every child alongside the crashes; `0.0` keeps the wire quiet.
    /// Fault fates are pure functions of the replicated seed, so every
    /// child computes the same noise pattern.
    pub noise_rate: f64,
    /// Arm recovery in every child: survivors re-map each crashed
    /// rank's tiles and continue; every crashed rank is a real child
    /// process that exits after its pre-crash work.
    pub recover: bool,
}

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A fresh private directory for one socket fabric. Kept short because
/// UDS socket paths are limited to ~100 bytes on most platforms.
///
/// # Errors
/// Reports directory-creation failures.
pub fn fresh_socket_dir() -> Result<PathBuf, String> {
    let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("fxd{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Remove a fabric directory created by [`fresh_socket_dir`].
pub fn remove_socket_dir(dir: &Path, n_ranks: u32) {
    flexdist_factor::net::cleanup_socket_dir(dir, n_ranks);
    let _ = std::fs::remove_dir(dir);
}

/// Fork one process per rank, collect every rank's outcome over the
/// stdout control channel, and merge them into a run-level result.
///
/// # Errors
/// Reports spawn failures, a child's non-zero exit (with its stderr),
/// and malformed rank-outcome documents.
pub fn run_ranks(spec: &MpSpec) -> Result<(TiledMatrix, NetReport), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let dir = fresh_socket_dir()?;
    let spawn = |rank: u32| {
        let mut cmd = Command::new(&exe);
        cmd.arg("_rank")
            .args(["--rank", &rank.to_string()])
            .args(["--op", &spec.op])
            .args(&spec.scheme_flags)
            .args(["--t", &spec.t.to_string()])
            .args(["--nb", &spec.nb.to_string()])
            .args(["--seed", &spec.seed.to_string()])
            .args(["--sock", spec.kind.name()])
            .args(["--dir", &dir.display().to_string()]);
        if !spec.crashes.is_empty() {
            let pts: Vec<String> = spec
                .crashes
                .iter()
                .map(|(r, e)| format!("{r}@{e}"))
                .collect();
            cmd.args(["--crash", &pts.join(",")]);
        }
        if spec.noise_rate > 0.0 {
            cmd.args(["--noise-rate", &spec.noise_rate.to_string()]);
        }
        if spec.recover {
            cmd.arg("--recover");
        }
        cmd.stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        cmd.spawn().map_err(|e| format!("spawn rank {rank}: {e}"))
    };
    let mut children = Vec::with_capacity(spec.n_ranks as usize);
    for rank in 0..spec.n_ranks {
        match spawn(rank) {
            Ok(child) => children.push(child),
            Err(e) => {
                // Peers would block dialing the unspawned rank until
                // their connect timeout; reap what was started.
                for mut c in children {
                    let _ = c.kill();
                    let _ = c.wait();
                }
                remove_socket_dir(&dir, spec.n_ranks);
                return Err(e);
            }
        }
    }
    // Collect every child before judging any: a failed rank makes its
    // peers fail too, and the root cause is the lowest-ranked failure.
    let mut outcomes = Vec::with_capacity(children.len());
    let mut failure: Option<String> = None;
    for (rank, child) in children.into_iter().enumerate() {
        let out = child
            .wait_with_output()
            .map_err(|e| format!("wait rank {rank}: {e}"))?;
        if !out.status.success() {
            if failure.is_none() {
                let err = String::from_utf8_lossy(&out.stderr);
                failure = Some(format!("rank {rank} failed: {}", err.trim()));
            }
            continue;
        }
        if failure.is_none() {
            let text = String::from_utf8_lossy(&out.stdout);
            match parse_rank_outcome(&text, spec.nb) {
                Ok(o) => outcomes.push(o),
                Err(e) => failure = Some(format!("rank {rank}: {e}")),
            }
        }
    }
    remove_socket_dir(&dir, spec.n_ranks);
    if let Some(e) = failure {
        return Err(e);
    }
    Ok(merge_rank_outcomes(spec.t, spec.nb, spec.n_ranks, outcomes))
}

fn u(x: u64) -> Value {
    Value::Int(i128::from(x))
}

/// Serialize one rank's outcome as the `rank-outcome` control document.
/// Spans and message events are not shipped: the multi-process path is
/// untraced (tracing stays with the in-process backends).
#[must_use]
pub fn rank_outcome_to_json(out: &RankOutcome) -> Value {
    let io = &out.io;
    let tiles: Vec<Value> = out
        .tiles
        .iter()
        .map(|(k, tile)| {
            let bits: Vec<Value> = tile.as_slice().iter().map(|x| u(x.to_bits())).collect();
            object(vec![("idx", u(*k as u64)), ("bits", Value::Array(bits))])
        })
        .collect();
    let sent: Vec<Value> = out
        .sent
        .iter()
        .map(|(to, s)| {
            object(vec![
                ("to", u(u64::from(*to))),
                ("msgs", u(s.msgs)),
                ("bytes", u(s.bytes)),
                ("panel", u(s.panel)),
                ("trailing", u(s.trailing)),
                ("dropped", u(s.dropped)),
                ("corrupt", u(s.corrupt)),
                ("duplicated", u(s.duplicated)),
                ("overhead_bytes", u(s.overhead_bytes)),
            ])
        })
        .collect();
    let error = match &out.error {
        None => Value::Null,
        Some((task, e)) => {
            let (kind, index) = match e {
                KernelError::NotPositiveDefinite { index } => ("not_positive_definite", *index),
                KernelError::ZeroPivot { index } => ("zero_pivot", *index),
            };
            object(vec![
                ("task", u(*task as u64)),
                ("kind", Value::String(kind.to_string())),
                ("index", u(index as u64)),
            ])
        }
    };
    object(vec![
        ("kind", Value::String("rank-outcome".to_string())),
        ("rank", u(u64::from(io.rank))),
        (
            "io",
            object(vec![
                ("tasks", u(io.tasks)),
                ("sent_msgs", u(io.sent_msgs)),
                ("sent_bytes", u(io.sent_bytes)),
                ("recv_msgs", u(io.recv_msgs)),
                ("recv_bytes", u(io.recv_bytes)),
                ("recovered_msgs", u(io.recovered_msgs)),
                ("recovered_bytes", u(io.recovered_bytes)),
                ("dup_rejected", u(io.dup_rejected)),
                ("corrupt_rejected", u(io.corrupt_rejected)),
                ("delayed", u(io.delayed)),
            ]),
        ),
        ("sent", Value::Array(sent)),
        ("tiles", Value::Array(tiles)),
        ("error", error),
    ])
}

fn need_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("rank-outcome: missing or non-integer field {key:?}"))
}

/// Parse a `rank-outcome` document back into a [`RankOutcome`]. The
/// tile dimension comes from the caller (it is part of the replicated
/// run configuration, not the document).
///
/// # Errors
/// Reports JSON syntax problems and structural mismatches (wrong kind,
/// wrong payload length, unknown error kind).
pub fn parse_rank_outcome(text: &str, nb: usize) -> Result<RankOutcome, String> {
    let doc = flexdist_json::parse(text).map_err(|e| format!("rank-outcome JSON: {e}"))?;
    if doc.get("kind").and_then(Value::as_str) != Some("rank-outcome") {
        return Err("rank-outcome: wrong or missing document kind".to_string());
    }
    let io_doc = doc
        .get("io")
        .ok_or_else(|| "rank-outcome: missing io".to_string())?;
    let io = RankIo {
        rank: u32::try_from(need_u64(&doc, "rank")?)
            .map_err(|_| "rank-outcome: rank out of range".to_string())?,
        tasks: need_u64(io_doc, "tasks")?,
        sent_msgs: need_u64(io_doc, "sent_msgs")?,
        sent_bytes: need_u64(io_doc, "sent_bytes")?,
        recv_msgs: need_u64(io_doc, "recv_msgs")?,
        recv_bytes: need_u64(io_doc, "recv_bytes")?,
        recovered_msgs: need_u64(io_doc, "recovered_msgs")?,
        recovered_bytes: need_u64(io_doc, "recovered_bytes")?,
        dup_rejected: need_u64(io_doc, "dup_rejected")?,
        corrupt_rejected: need_u64(io_doc, "corrupt_rejected")?,
        delayed: need_u64(io_doc, "delayed")?,
    };
    let mut sent = Vec::new();
    for s in doc
        .get("sent")
        .and_then(Value::as_array)
        .ok_or_else(|| "rank-outcome: missing sent array".to_string())?
    {
        let to = u32::try_from(need_u64(s, "to")?)
            .map_err(|_| "rank-outcome: sent.to out of range".to_string())?;
        sent.push((
            to,
            LinkStats {
                msgs: need_u64(s, "msgs")?,
                bytes: need_u64(s, "bytes")?,
                panel: need_u64(s, "panel")?,
                trailing: need_u64(s, "trailing")?,
                dropped: need_u64(s, "dropped")?,
                corrupt: need_u64(s, "corrupt")?,
                duplicated: need_u64(s, "duplicated")?,
                overhead_bytes: need_u64(s, "overhead_bytes")?,
            },
        ));
    }
    let mut tiles = Vec::new();
    for td in doc
        .get("tiles")
        .and_then(Value::as_array)
        .ok_or_else(|| "rank-outcome: missing tiles array".to_string())?
    {
        let idx = usize::try_from(need_u64(td, "idx")?)
            .map_err(|_| "rank-outcome: tile idx out of range".to_string())?;
        let bits = td
            .get("bits")
            .and_then(Value::as_array)
            .ok_or_else(|| "rank-outcome: tile without bits".to_string())?;
        if bits.len() != nb * nb {
            return Err(format!(
                "rank-outcome: tile {idx} carries {} values, expected {}",
                bits.len(),
                nb * nb
            ));
        }
        let mut tile = Tile::zeros(nb);
        for (slot, b) in tile.as_mut_slice().iter_mut().zip(bits) {
            let raw = b
                .as_u64()
                .ok_or_else(|| "rank-outcome: non-integer tile bits".to_string())?;
            *slot = f64::from_bits(raw);
        }
        tiles.push((idx, tile));
    }
    let error = match doc.get("error") {
        None | Some(Value::Null) => None,
        Some(e) => {
            let task = usize::try_from(need_u64(e, "task")?)
                .map_err(|_| "rank-outcome: error.task out of range".to_string())?;
            let index = usize::try_from(need_u64(e, "index")?)
                .map_err(|_| "rank-outcome: error.index out of range".to_string())?;
            let err = match e.get("kind").and_then(Value::as_str) {
                Some("not_positive_definite") => KernelError::NotPositiveDefinite { index },
                Some("zero_pivot") => KernelError::ZeroPivot { index },
                other => return Err(format!("rank-outcome: unknown error kind {other:?}")),
            };
            Some((task, err))
        }
    };
    Ok(RankOutcome {
        tiles,
        io,
        sent,
        spans: Vec::new(),
        msgs: Vec::new(),
        error,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_outcome() -> RankOutcome {
        let mut tile = Tile::zeros(2);
        // Adversarial payloads: NaN, -0.0 and a subnormal must survive
        // the control channel bit-for-bit.
        tile.as_mut_slice().copy_from_slice(&[
            f64::from_bits(0x7ff8_0000_0000_0001),
            -0.0,
            f64::MIN_POSITIVE / 2.0,
            -3.5,
        ]);
        RankOutcome {
            tiles: vec![(5, tile)],
            io: RankIo {
                rank: 3,
                tasks: 7,
                sent_msgs: 11,
                sent_bytes: 1234,
                recv_msgs: 9,
                recv_bytes: u64::MAX - 1,
                recovered_msgs: 3,
                recovered_bytes: 555,
                dup_rejected: 2,
                corrupt_rejected: 1,
                delayed: 4,
            },
            sent: vec![(
                0,
                LinkStats {
                    msgs: 3,
                    bytes: 99,
                    panel: 1,
                    trailing: 2,
                    dropped: 1,
                    corrupt: 0,
                    duplicated: 1,
                    overhead_bytes: 33,
                },
            )],
            spans: Vec::new(),
            msgs: Vec::new(),
            error: Some((42, KernelError::ZeroPivot { index: 6 })),
        }
    }

    #[test]
    fn rank_outcome_round_trips_bit_for_bit() {
        let out = sample_outcome();
        let text = rank_outcome_to_json(&out).to_string();
        let back = parse_rank_outcome(&text, 2).unwrap();
        assert_eq!(back.io, out.io);
        assert_eq!(back.sent, out.sent);
        assert_eq!(back.error, out.error);
        assert_eq!(back.tiles.len(), 1);
        assert_eq!(back.tiles[0].0, 5);
        let a: Vec<u64> = out.tiles[0]
            .1
            .as_slice()
            .iter()
            .map(|x| x.to_bits())
            .collect();
        let b: Vec<u64> = back.tiles[0]
            .1
            .as_slice()
            .iter()
            .map(|x| x.to_bits())
            .collect();
        assert_eq!(a, b, "payload bits must survive the control channel");
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(parse_rank_outcome("{}", 2).is_err());
        assert!(parse_rank_outcome("not json", 2).is_err());
        let mut out = sample_outcome();
        out.error = None;
        let text = rank_outcome_to_json(&out).to_string();
        // Wrong nb: payload length no longer matches.
        let err = match parse_rank_outcome(&text, 3) {
            Err(e) => e,
            Ok(_) => panic!("wrong nb must be rejected"),
        };
        assert!(err.contains("expected 9"), "{err}");
    }
}
