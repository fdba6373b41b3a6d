//! The paper's Fig. 2 broadcast walks as a reusable message stream.
//!
//! [`comm`](crate::comm) counts communication volume; this module yields
//! the **messages themselves**: for each factorization iteration, every
//! panel and trailing broadcast with its sender, tile, epoch, and the
//! distinct receiver set in first-encounter order. The volume counters
//! are reimplemented on top of this walk, so every exact-count and
//! hand-count test of `comm` doubles as a fidelity proof of the stream.
//!
//! The distributed executor does *not* run this walk: its schedule is the
//! zero-crash case of the spliced chain in [`splice`](crate::splice),
//! which writes out the same reader sets separately. This walk is the
//! independent oracle the static protocol verifier
//! (`flexdist-verify::protocol`) diffs the executor's schedule against,
//! message for message.

use crate::assignment::TileAssignment;

/// Which leg of the per-iteration broadcast a message belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BcastClass {
    /// Factorized diagonal tile to the panel solvers (GETRF/POTRF
    /// output → TRSM inputs).
    Panel,
    /// Solved panel tile into the trailing submatrix (TRSM outputs →
    /// GEMM/SYRK inputs).
    Trailing,
}

/// One logical broadcast of the schedule: a tile leaving its owner for a
/// set of distinct remote nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BcastMsg {
    /// Panel or trailing leg.
    pub class: BcastClass,
    /// Owning (sending) node of the tile.
    pub sender: u32,
    /// Tile row.
    pub i: usize,
    /// Tile column.
    pub j: usize,
    /// Iteration `ℓ` at which the tile's final value is broadcast;
    /// always `min(i, j)` for the factorizations.
    pub epoch: usize,
    /// Distinct receiving nodes in first-encounter order of the owner
    /// walk, never containing the sender. Never empty: broadcasts whose
    /// receiver set collapses to the sender are elided from the stream.
    pub receivers: Vec<u32>,
}

/// Distinct-receiver collector: a stamp vector keyed by node that keeps
/// the distinct owners of a reader set in first-encounter order, never
/// the sender. The one collector behind the walks, the splice and the
/// GEMM counter.
pub(crate) struct Collector {
    stamp: Vec<u32>,
    current: u32,
}

impl Collector {
    pub(crate) fn new(n_nodes: u32) -> Self {
        Self {
            stamp: vec![0; n_nodes as usize],
            current: 0,
        }
    }

    pub(crate) fn collect(
        &mut self,
        sender: u32,
        owners: impl IntoIterator<Item = u32>,
    ) -> Vec<u32> {
        self.current += 1;
        self.stamp[sender as usize] = self.current;
        let mut out = Vec::new();
        for node in owners {
            let s = &mut self.stamp[node as usize];
            if *s != self.current {
                *s = self.current;
                out.push(node);
            }
        }
        out
    }
}

fn push(
    msgs: &mut Vec<BcastMsg>,
    class: BcastClass,
    sender: u32,
    i: usize,
    j: usize,
    epoch: usize,
    receivers: Vec<u32>,
) {
    if !receivers.is_empty() {
        msgs.push(BcastMsg {
            class,
            sender,
            i,
            j,
            epoch,
            receivers,
        });
    }
}

/// Every broadcast of a right-looking tiled LU factorization, iteration
/// by iteration: the diagonal tile `(ℓ,ℓ)` to the distinct owners of its
/// panel (column tiles `(i,ℓ)` and row tiles `(ℓ,i)`, `i > ℓ`), then
/// each solved column tile `(i,ℓ)` across its trailing row and each row
/// tile `(ℓ,j)` down its trailing column.
pub fn lu_broadcasts(a: &TileAssignment) -> impl Iterator<Item = BcastMsg> + '_ {
    let t = a.tiles();
    (0..t).flat_map(move |l| {
        let mut rc = Collector::new(a.n_nodes());
        let mut msgs = Vec::new();
        let diag = a.owner(l, l);
        let recv = rc.collect(
            diag,
            ((l + 1)..t).flat_map(|i| [a.owner(i, l), a.owner(l, i)]),
        );
        push(&mut msgs, BcastClass::Panel, diag, l, l, l, recv);
        for i in (l + 1)..t {
            let sender = a.owner(i, l);
            let recv = rc.collect(sender, ((l + 1)..t).map(|j| a.owner(i, j)));
            push(&mut msgs, BcastClass::Trailing, sender, i, l, l, recv);
        }
        for j in (l + 1)..t {
            let sender = a.owner(l, j);
            let recv = rc.collect(sender, ((l + 1)..t).map(|i| a.owner(i, j)));
            push(&mut msgs, BcastClass::Trailing, sender, l, j, l, recv);
        }
        msgs.into_iter()
    })
}

/// Every broadcast of a right-looking tiled Cholesky factorization: the
/// diagonal tile `(ℓ,ℓ)` to the distinct owners of `(i,ℓ)`, `i > ℓ`,
/// then each solved tile `(i,ℓ)` to the distinct owners of its trailing
/// colrow — row tiles `(i,j)` for `ℓ < j ≤ i` and column tiles `(j,i)`
/// for `j > i`.
pub fn cholesky_broadcasts(a: &TileAssignment) -> impl Iterator<Item = BcastMsg> + '_ {
    let t = a.tiles();
    (0..t).flat_map(move |l| {
        let mut rc = Collector::new(a.n_nodes());
        let mut msgs = Vec::new();
        let diag = a.owner(l, l);
        let recv = rc.collect(diag, ((l + 1)..t).map(|i| a.owner(i, l)));
        push(&mut msgs, BcastClass::Panel, diag, l, l, l, recv);
        for i in (l + 1)..t {
            let sender = a.owner(i, l);
            let recv = rc.collect(
                sender,
                ((l + 1)..=i)
                    .map(|j| a.owner(i, j))
                    .chain(((i + 1)..t).map(|j| a.owner(j, i))),
            );
            push(&mut msgs, BcastClass::Trailing, sender, i, l, l, recv);
        }
        msgs.into_iter()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexdist_core::{g2dbc, twodbc, Pattern};

    fn anti_diag() -> TileAssignment {
        let pat = Pattern::from_rows(2, &[vec![Some(0), Some(1)], vec![Some(1), Some(0)]]);
        TileAssignment::cyclic(&pat, 2)
    }

    #[test]
    fn lu_walk_hand_count_2x2() {
        // Mirrors `two_tiles_two_nodes_lu_hand_count` message by message.
        let msgs: Vec<BcastMsg> = lu_broadcasts(&anti_diag()).collect();
        assert_eq!(msgs.len(), 3);
        assert_eq!(
            msgs[0],
            BcastMsg {
                class: BcastClass::Panel,
                sender: 0,
                i: 0,
                j: 0,
                epoch: 0,
                receivers: vec![1],
            }
        );
        assert_eq!(
            msgs[1],
            BcastMsg {
                class: BcastClass::Trailing,
                sender: 1,
                i: 1,
                j: 0,
                epoch: 0,
                receivers: vec![0],
            }
        );
        assert_eq!(
            msgs[2],
            BcastMsg {
                class: BcastClass::Trailing,
                sender: 1,
                i: 0,
                j: 1,
                epoch: 0,
                receivers: vec![0],
            }
        );
    }

    #[test]
    fn cholesky_walk_hand_count_2x2() {
        let msgs: Vec<BcastMsg> = cholesky_broadcasts(&anti_diag()).collect();
        assert_eq!(msgs.len(), 2);
        assert_eq!(msgs[0].class, BcastClass::Panel);
        assert_eq!((msgs[0].i, msgs[0].j), (0, 0));
        assert_eq!(msgs[1].class, BcastClass::Trailing);
        assert_eq!((msgs[1].i, msgs[1].j), (1, 0));
        assert_eq!(msgs[1].receivers, vec![0]);
    }

    #[test]
    fn receivers_are_distinct_and_never_the_sender() {
        let a = TileAssignment::cyclic(&g2dbc::g2dbc(7), 9);
        for m in lu_broadcasts(&a).chain(cholesky_broadcasts(&a)) {
            let mut seen = std::collections::HashSet::new();
            for &r in &m.receivers {
                assert_ne!(r, m.sender, "sender in receiver set of {m:?}");
                assert!(seen.insert(r), "duplicate receiver in {m:?}");
            }
            assert!(!m.receivers.is_empty());
            assert_eq!(m.epoch, m.i.min(m.j), "epoch invariant broken: {m:?}");
        }
    }

    #[test]
    fn every_tile_broadcast_at_most_once() {
        // A tile (i,j) leaves its owner exactly once, at epoch min(i,j).
        let a = TileAssignment::cyclic(&twodbc::two_dbc(3, 2), 8);
        let mut seen = std::collections::HashSet::new();
        for m in lu_broadcasts(&a) {
            assert!(seen.insert((m.i, m.j)), "tile ({},{}) sent twice", m.i, m.j);
        }
    }
}
