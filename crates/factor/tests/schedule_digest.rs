//! Golden digests of the static communication schedule.
//!
//! Every field of every [`CommSchedule`] — placement, same-rank
//! dependency counts, needs in order, per-task broadcast legs with
//! their receiver order and `recovered` flags, written tiles and epochs
//! — is hashed with FNV-1a over a fixed little-endian serialization and
//! compared with a pinned constant. The crash-free grid is {LU,
//! Cholesky} × {G-2DBC, SBC, 2DBC} × P ∈ {4, 7}; SBC has no pattern at
//! 4 or 7 nodes, so it runs on the largest admissible count below (3 and
//! 6). One two-crash cascade per operation pins each `RecoverPlan`'s
//! `survivor` and `dead_sched`. Any change to how schedules are derived
//! that moves a single message, need or flag changes a digest.

use flexdist_core::{g2dbc, sbc, twodbc, Pattern};
use flexdist_dist::TileAssignment;
use flexdist_factor::net::{FaultPlan, FullMesh, MsgClass};
use flexdist_factor::{build_graph, derive_recovery, derive_schedule, CommSchedule, Operation};
use flexdist_kernels::KernelCostModel;

const T: usize = 9;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn words(&mut self, ws: impl IntoIterator<Item = u64>) {
        let ws: Vec<u64> = ws.into_iter().collect();
        self.word(ws.len() as u64);
        for w in ws {
            self.word(w);
        }
    }
}

fn digest(s: &CommSchedule) -> u64 {
    let mut h = Fnv::new();
    h.word(s.t as u64);
    h.word(u64::from(s.n_ranks));
    h.words(s.node.iter().map(|&n| u64::from(n)));
    h.words(s.local_deps.iter().map(|&d| u64::from(d)));
    h.word(s.needs.len() as u64);
    for keys in &s.needs {
        h.words(keys.iter().flat_map(|k| [k.i, k.j, k.epoch].map(u64::from)));
    }
    h.word(s.bcast.len() as u64);
    for b in &s.bcast {
        let Some(b) = b else {
            h.word(0);
            continue;
        };
        h.word(match b.class {
            MsgClass::Panel => 1,
            MsgClass::Trailing => 2,
        });
        h.words([b.i, b.j, b.epoch].map(u64::from));
        h.words(b.receivers.iter().map(|&r| u64::from(r)));
        h.words(b.recovered.iter().map(|&f| u64::from(f)));
    }
    h.words(
        s.writes
            .iter()
            .flat_map(|&(i, j)| [u64::from(i), u64::from(j)]),
    );
    h.words(s.epochs.iter().map(|&e| u64::from(e)));
    h.0
}

fn assignment(scheme: &str, p: u32) -> TileAssignment {
    let pat: Pattern = match scheme {
        "g2dbc" => g2dbc::g2dbc(p),
        "sbc" => {
            let q = sbc::largest_admissible_at_most(p).expect("an SBC count below p");
            sbc::sbc_extended(q).expect("admissible")
        }
        _ => twodbc::best_2dbc(p),
    };
    TileAssignment::extended(&pat, T)
}

fn model() -> KernelCostModel {
    KernelCostModel::uniform(8, 10.0)
}

/// `(operation, scheme, P, digest)` of every crash-free schedule.
const CRASH_FREE: [(Operation, &str, u32, u64); 12] = [
    (Operation::Lu, "g2dbc", 4, 0x24d9_e970_25ac_2346),
    (Operation::Lu, "g2dbc", 7, 0x718d_eef1_c741_0099),
    (Operation::Lu, "sbc", 4, 0xadbd_a66c_47d7_e245),
    (Operation::Lu, "sbc", 7, 0x6849_82ee_0478_b3f4),
    (Operation::Lu, "2dbc", 4, 0x24d9_e970_25ac_2346),
    (Operation::Lu, "2dbc", 7, 0xed86_86d5_981c_5dc5),
    (Operation::Cholesky, "g2dbc", 4, 0xb3b8_d047_ad78_7030),
    (Operation::Cholesky, "g2dbc", 7, 0xc78e_1b42_913c_24eb),
    (Operation::Cholesky, "sbc", 4, 0x7de9_3c20_a45d_516e),
    (Operation::Cholesky, "sbc", 7, 0xfb81_fba7_0fd2_d1f6),
    (Operation::Cholesky, "2dbc", 4, 0xb3b8_d047_ad78_7030),
    (Operation::Cholesky, "2dbc", 7, 0xf8ee_2e20_39d0_d8a5),
];

#[test]
fn crash_free_schedules_match_their_pinned_digests() {
    let mut got = Vec::new();
    for &(op, scheme, p, _) in &CRASH_FREE {
        let a = assignment(scheme, p);
        let tl = build_graph(op, &a, &model());
        let s = derive_schedule(&tl, &a).expect("LU and Cholesky have a schedule");
        // Placement is owner-computes: exactly the graph's node map.
        for id in 0..tl.graph.n_tasks() {
            assert_eq!(
                s.node[id],
                tl.graph.node_of(id as u32),
                "{op:?} {scheme} P={p}: task {id} placed off its graph node"
            );
        }
        got.push(digest(&s));
    }
    let want: Vec<u64> = CRASH_FREE.iter().map(|c| c.3).collect();
    assert_eq!(got, want, "crash-free digests moved: {got:#x?}");
}

/// `(operation, survivor digest, dead_sched digest per crash)` of one
/// two-crash cascade on G-2DBC P = 7: rank 1 dies before iteration 2,
/// rank 3 before iteration 4.
const CASCADES: [(Operation, u64, [u64; 2]); 2] = [
    (
        Operation::Lu,
        0x2dd4_2a21_9a9d_a6df,
        [0x32d2_8587_50bd_da9d, 0x0d59_5e16_5752_b370],
    ),
    (
        Operation::Cholesky,
        0xd9ac_e1a7_01a0_aed6,
        [0xe5e4_fa3f_4477_0f63, 0xcfe8_b7b8_c1ff_2816],
    ),
];

#[test]
fn cascade_plans_match_their_pinned_digests() {
    let mut got = Vec::new();
    for &(op, _, _) in &CASCADES {
        let a = assignment("g2dbc", 7);
        let tl = build_graph(op, &a, &model());
        let faults = FaultPlan::new(5)
            .with_crash(1, 2)
            .and_then(|f| f.with_crash(3, 4))
            .expect("distinct ranks");
        let plans = derive_recovery(&tl, &a, Some(&faults), &FullMesh).expect("recoverable");
        assert_eq!(plans.len(), 2);
        assert!(
            plans.iter().all(|rp| rp.active),
            "{op:?}: pick active crashes"
        );
        for rp in &plans {
            assert_eq!(digest(&rp.survivor), digest(&plans[0].survivor));
        }
        got.push((
            digest(&plans[0].survivor),
            [digest(&plans[0].dead_sched), digest(&plans[1].dead_sched)],
        ));
    }
    let want: Vec<(u64, [u64; 2])> = CASCADES.iter().map(|c| (c.1, c.2)).collect();
    assert_eq!(got, want, "cascade digests moved: {got:#x?}");
}
