//! Post-crash spliced broadcast streams: the Fig. 2 owner walks fused
//! across crash points.
//!
//! When node `dead` dies at the start of epoch `e`, the run is a hybrid
//! of two assignments: everything the dead node finalized *before* `e`
//! was produced and broadcast under the original map `a`, while every
//! task at epoch `≥ e` — including the re-execution of the dead node's
//! lost tiles from their input values — runs under the re-mapped
//! survivor assignment `a2` (see [`TileAssignment::remap_without`]).
//!
//! This module computes the exact message stream of that hybrid run by
//! fusing the two walks tile by tile — for one crash,
//! `lu_spliced_chain(&[a, a2], &[(dead, e)])`, and for a cascade of k
//! crashes the same call over a k+1 map chain. It is the closed-form
//! oracle the executor's goodput accounting and the static protocol
//! verifier are both held to: the recovered run's wire volume must
//! equal [`SplicedVolume::total`] exactly, with the *extra* messages
//! caused by the re-map (and nothing else) flagged and counted in
//! [`SplicedVolume::recovered`].
//!
//! With no crash at all (`lu_spliced_chain(&[a], &[])`) the stream is
//! the plain walk, receiver order included, with nothing flagged — and
//! that zero-crash stream *is* the distributed executor's crash-free
//! schedule. The walk in [`crate::schedule`] stays as the independent
//! oracle it is checked against.
//!
//! ## Fusion rules
//!
//! For a tile `(i,j)` broadcast at epoch `ℓ = min(i,j)`, with receiver
//! sets `Arec` under `a` and `A2rec` under `a2` (each excluding its own
//! sender, empty if the broadcast is elided):
//!
//! * `ℓ ≥ e` — the broadcast happens entirely after the crash: one
//!   message from the `a2` owner to `A2rec`. A send is *recovered* when
//!   it would not exist in a crash-free run: the tile was dead-owned
//!   (its owner changed), or the receiver reads it only under `a2` (a
//!   new owner of some re-assigned tile).
//! * `ℓ < e`, surviving owner — the owner broadcast to `Arec` before
//!   the crash (the dead node, if a reader, consumed its copy before
//!   dying); after the re-map it additionally serves the new readers
//!   `A2rec ∖ Arec`, which re-execute the dead node's updates. One
//!   message, `Arec` then the delta, delta flagged recovered.
//! * `ℓ < e`, dead owner — the dead node finalized and broadcast the
//!   tile before dying, *except* to the tile's new owner `s′ =
//!   a2.owner(i,j)`, which instead re-computes the tile locally (so a
//!   delivery would be an unexpected message under the strict
//!   protocol). Two messages: the dead node to `Arec ∖ {s′}`
//!   (pre-crash, not recovered), and `s′` to the new readers
//!   `A2rec ∖ Arec` (all recovered). Either is elided when empty.
//!
//! Exactly-once delivery per `(receiver, tile)` is preserved by
//! construction, and no message is addressed to the dead node after its
//! crash (it only appears inside `Arec` at epochs `< e`).
//!
//! ## Cascades (k sequential crashes)
//!
//! [`lu_spliced_chain`] / [`cholesky_spliced_chain`] generalize the
//! fusion to an assignment chain `maps[0..=k]`, one re-map per crash
//! (sorted by `(epoch, rank)`). Per tile, the rules compose along the
//! tile's *ownership chain*: the broadcast fires under the map of the
//! generation `g` containing `ℓ` (the number of crashes at epochs
//! `≤ ℓ`), each later re-map's new readers are served by the tile's
//! owner under that re-map, and no send is ever addressed to any
//! *future* owner of the tile — every heir, first- or later-
//! generation, re-executes the lost producer chain locally instead of
//! receiving finalized tiles. Receivers accumulate across generations,
//! so per-`(receiver, tile)` exactly-once delivery is preserved for
//! any k, and a send is flagged recovered exactly when its
//! `(sender → receiver)` pair is absent from the crash-free walk under
//! `maps[0]`.

use crate::assignment::TileAssignment;
use crate::comm::CommBreakdown;
use crate::schedule::{BcastClass, Collector};

/// One broadcast of the spliced (post-crash) schedule: a
/// [`BcastMsg`](crate::schedule::BcastMsg) plus a per-receiver flag
/// marking the sends that exist only because of the recovery re-map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplicedMsg {
    /// Panel or trailing leg.
    pub class: BcastClass,
    /// Sending node: the `a` owner for pre-crash messages, the `a2`
    /// owner for post-crash and re-serve messages.
    pub sender: u32,
    /// Tile row.
    pub i: usize,
    /// Tile column.
    pub j: usize,
    /// Iteration `ℓ = min(i, j)` of the broadcast.
    pub epoch: usize,
    /// Distinct receivers, never containing the sender, never empty.
    pub receivers: Vec<u32>,
    /// `recovered[k]` — the send to `receivers[k]` is extra work caused
    /// by the re-map (absent from the crash-free run under `a`).
    pub recovered: Vec<bool>,
}

/// Communication volume of a spliced run, split into the grand total
/// (what the recovered run's goodput must equal) and the recovered
/// portion (sends that exist only because of the re-map).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SplicedVolume {
    /// Every tile send of the spliced run, pre- and post-crash.
    pub total: CommBreakdown,
    /// The flagged subset: re-serves to new owners and re-mapped
    /// post-crash broadcasts that a crash-free run would not perform.
    pub recovered: CommBreakdown,
}

/// Fold a spliced stream into its total / recovered volumes.
#[must_use]
pub fn spliced_volume(msgs: &[SplicedMsg]) -> SplicedVolume {
    let mut out = SplicedVolume::default();
    for m in msgs {
        let n = m.receivers.len() as u64;
        let r = m.recovered.iter().filter(|&&f| f).count() as u64;
        match m.class {
            BcastClass::Panel => {
                out.total.panel += n;
                out.recovered.panel += r;
            }
            BcastClass::Trailing => {
                out.total.trailing += n;
                out.recovered.trailing += r;
            }
        }
    }
    out
}

/// One crash of a cascade, in the dist layer's coordinates: rank
/// `dead` executes every task of epochs `< epoch` and none at `≥
/// epoch`.
pub type CrashPoint = (u32, usize);

/// Shared walk state: the assignment chain `maps[0..=k]` (one per
/// crash generation; `maps[m]` is in effect after the first `m`
/// crashes) and the receiver collector.
struct Fuser<'x> {
    maps: &'x [TileAssignment],
    crashes: &'x [CrashPoint],
    rc: Collector,
    out: Vec<SplicedMsg>,
}

impl Fuser<'_> {
    /// Fuse one broadcast slot of the walk (tile `(i,j)` at epoch
    /// `ℓ = min(i,j)` to the owners of `readers`) across every crash
    /// point of the cascade, appending the resulting message(s) — one
    /// per distinct sender of the tile's ownership chain.
    fn fuse(
        &mut self,
        class: BcastClass,
        i: usize,
        j: usize,
        readers: impl Iterator<Item = (usize, usize)> + Clone,
    ) {
        let l = i.min(j);
        let k = self.crashes.len();
        let maps = self.maps;
        let owner = |m: usize| maps[m].owner(i, j);
        let readers_under = |m: usize| readers.clone().map(move |(ri, rj)| maps[m].owner(ri, rj));
        // Crash-free receivers, against which the recovered flags are
        // computed: a send is recovered exactly when its (sender →
        // receiver) pair is absent from the plain walk under maps[0].
        let mut rec0 = self.rc.collect(owner(0), readers_under(0));
        // The generation whose map is live when the broadcast fires.
        let g = self.crashes.iter().filter(|&&(_, e)| e <= l).count();
        // Receivers already served, across all generations.
        let mut acc: Vec<u32> = Vec::new();
        for m in g..=k {
            let s = owner(m);
            // rec0 outlives generation 0 only to flag later generations.
            let mut receivers = match m {
                0 if k == 0 => std::mem::take(&mut rec0),
                0 => rec0.clone(),
                _ => self.rc.collect(s, readers_under(m)),
            };
            // Every owner after generation m re-computes the tile
            // locally (heirs re-execute the lost producer chain), so no
            // send is ever addressed to them.
            receivers.retain(|&r| !acc.contains(&r) && ((m + 1)..=k).all(|q| owner(q) != r));
            if m < k {
                // Only later generations read what was served.
                acc.extend(&receivers);
            }
            // Generation 0 sends only crash-free pairs.
            let recovered: Vec<bool> = receivers
                .iter()
                .map(|r| m > 0 && (s != owner(0) || !rec0.contains(r)))
                .collect();
            if receivers.is_empty() {
                continue;
            }
            // Merge into the previous message when the owner survived
            // this crash (one broadcast, extended with the new readers).
            if let Some(last) = self.out.last_mut() {
                if last.sender == s && last.i == i && last.j == j && last.class == class {
                    last.receivers.extend(receivers);
                    last.recovered.extend(recovered);
                    continue;
                }
            }
            self.out.push(SplicedMsg {
                class,
                sender: s,
                i,
                j,
                epoch: l,
                receivers,
                recovered,
            });
        }
    }
}

/// Validate an assignment chain + crash list for the `*_spliced_chain`
/// walks.
///
/// # Panics
/// Panics if the chain is empty or inconsistent (see
/// [`lu_spliced_chain`]).
fn check_chain(maps: &[TileAssignment], crashes: &[CrashPoint]) {
    assert!(!maps.is_empty(), "the assignment chain cannot be empty");
    assert_eq!(
        maps.len(),
        crashes.len() + 1,
        "need one map per crash generation"
    );
    for m in &maps[1..] {
        assert_eq!(maps[0].tiles(), m.tiles(), "assignment shapes differ");
        assert_eq!(maps[0].n_nodes(), m.n_nodes(), "node counts differ");
    }
    for (idx, &(dead, epoch)) in crashes.iter().enumerate() {
        assert!(dead < maps[0].n_nodes(), "dead node {dead} out of range");
        assert!(
            crashes[..idx].iter().all(|&(d, _)| d != dead),
            "rank {dead} crashes twice"
        );
        if let Some(&(prev_dead, prev_epoch)) = idx.checked_sub(1).and_then(|p| crashes.get(p)) {
            assert!(
                (prev_epoch, prev_dead) < (epoch, dead),
                "crashes must be sorted by (epoch, rank)"
            );
        }
    }
}

fn new_fuser<'x>(maps: &'x [TileAssignment], crashes: &'x [CrashPoint]) -> Fuser<'x> {
    check_chain(maps, crashes);
    Fuser {
        maps,
        crashes,
        rc: Collector::new(maps[0].n_nodes()),
        out: Vec::new(),
    }
}

/// The spliced LU broadcast stream of a crash cascade: the walk of
/// [`lu_broadcasts`](crate::schedule::lu_broadcasts) fused across
/// every crash of `crashes` (sorted by `(epoch, rank)`), with
/// `maps[m]` the assignment in effect after the first `m` crashes —
/// `maps[0]` the original, `maps[m+1] =
/// maps[m].remap_excluding(crashes[m].0, earlier casualties)`. With
/// `maps = [a]` and no crash — or an all-identical chain, for an
/// inactive cascade — the stream equals the plain walk with no
/// recovered sends.
///
/// # Panics
/// Panics if the chain and crash list disagree in length, the maps
/// disagree on shape or node count, a crashed rank is out of range or
/// repeated, or the crashes are not sorted by `(epoch, rank)`.
#[must_use]
pub fn lu_spliced_chain(maps: &[TileAssignment], crashes: &[CrashPoint]) -> Vec<SplicedMsg> {
    let mut f = new_fuser(maps, crashes);
    let t = maps[0].tiles();
    for l in 0..t {
        let readers = ((l + 1)..t).flat_map(|i| [(i, l), (l, i)]);
        f.fuse(BcastClass::Panel, l, l, readers);
        for i in (l + 1)..t {
            f.fuse(BcastClass::Trailing, i, l, ((l + 1)..t).map(|j| (i, j)));
        }
        for j in (l + 1)..t {
            f.fuse(BcastClass::Trailing, l, j, ((l + 1)..t).map(|i| (i, j)));
        }
    }
    f.out
}

/// The spliced Cholesky broadcast stream of a crash cascade: the walk
/// of [`cholesky_broadcasts`](crate::schedule::cholesky_broadcasts)
/// fused across every crash of `crashes` (see [`lu_spliced_chain`] for
/// the chain contract).
///
/// # Panics
/// As [`lu_spliced_chain`].
#[must_use]
pub fn cholesky_spliced_chain(maps: &[TileAssignment], crashes: &[CrashPoint]) -> Vec<SplicedMsg> {
    let mut f = new_fuser(maps, crashes);
    let t = maps[0].tiles();
    for l in 0..t {
        f.fuse(BcastClass::Panel, l, l, ((l + 1)..t).map(|i| (i, l)));
        for i in (l + 1)..t {
            let readers = ((l + 1)..=i)
                .map(|j| (i, j))
                .chain(((i + 1)..t).map(|j| (j, i)));
            f.fuse(BcastClass::Trailing, i, l, readers);
        }
    }
    f.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{cholesky_comm_volume, lu_comm_volume};
    use crate::schedule::{cholesky_broadcasts, lu_broadcasts, BcastMsg};
    use flexdist_core::{g2dbc, sbc};

    fn g2dbc_assign(p: u32, t: usize) -> TileAssignment {
        TileAssignment::cyclic(&g2dbc::g2dbc(p), t)
    }

    fn to_plain(m: &SplicedMsg) -> BcastMsg {
        BcastMsg {
            class: m.class,
            sender: m.sender,
            i: m.i,
            j: m.j,
            epoch: m.epoch,
            receivers: m.receivers.clone(),
        }
    }

    #[test]
    fn identity_remap_reproduces_the_plain_walk() {
        // With an identity re-map (inactive recovery) the spliced stream
        // must equal the plain walk exactly, at any crash epoch, with
        // nothing flagged recovered.
        let a = g2dbc_assign(5, 8);
        let maps = [a.clone(), a.clone()];
        for e in [0usize, 3, 8, 99] {
            let s = lu_spliced_chain(&maps, &[(2, e)]);
            let plain: Vec<BcastMsg> = lu_broadcasts(&a).collect();
            assert_eq!(s.iter().map(to_plain).collect::<Vec<_>>(), plain);
            assert!(s.iter().all(|m| m.recovered.iter().all(|&f| !f)));
            let v = spliced_volume(&s);
            assert_eq!(v.total, lu_comm_volume(&a));
            assert_eq!(v.recovered.total(), 0);
        }
    }

    #[test]
    fn crash_at_epoch_zero_runs_entirely_under_the_remap() {
        // e = 0: the dead node never executes anything, so the stream is
        // exactly the plain walk of the re-mapped assignment.
        let a = g2dbc_assign(6, 9);
        let maps = [a.clone(), a.remap_without(4)];
        let s = cholesky_spliced_chain(&maps, &[(4, 0)]);
        let plain: Vec<BcastMsg> = cholesky_broadcasts(&maps[1]).collect();
        assert_eq!(s.iter().map(to_plain).collect::<Vec<_>>(), plain);
        assert_eq!(spliced_volume(&s).total, cholesky_comm_volume(&maps[1]));
        // Something must still be flagged: every broadcast of a tile
        // that used to be dead-owned is pure recovery traffic.
        assert!(spliced_volume(&s).recovered.total() > 0);
    }

    #[test]
    fn exactly_once_per_receiver_and_no_self_sends() {
        let a = g2dbc_assign(7, 10);
        let maps = [a.clone(), a.remap_without(3)];
        for e in 0..10 {
            for s in [
                lu_spliced_chain(&maps, &[(3, e)]),
                cholesky_spliced_chain(&maps, &[(3, e)]),
            ] {
                let mut seen = std::collections::HashSet::new();
                for m in &s {
                    assert_eq!(m.receivers.len(), m.recovered.len());
                    assert!(!m.receivers.is_empty());
                    assert_eq!(m.epoch, m.i.min(m.j));
                    for (&r, &f) in m.receivers.iter().zip(&m.recovered) {
                        assert_ne!(r, m.sender, "self-send in {m:?}");
                        assert!(
                            seen.insert((m.i, m.j, r)),
                            "tile ({},{}) delivered twice to {r} (e={e})",
                            m.i,
                            m.j
                        );
                        if r == 3 {
                            // The dead node only ever receives pre-crash
                            // deliveries, never recovery traffic.
                            assert!(m.epoch < e, "post-crash send to dead: {m:?}");
                            assert!(!f, "recovered send to dead: {m:?}");
                        }
                    }
                }
                seen.clear();
            }
        }
    }

    #[test]
    fn dead_node_neither_sends_nor_receives_after_the_crash() {
        let a = g2dbc_assign(5, 8);
        let maps = [a.clone(), a.remap_without(0)];
        for e in 0..8 {
            for m in lu_spliced_chain(&maps, &[(0, e)]) {
                if m.sender == 0 {
                    assert!(m.epoch < e, "dead sends post-crash: {m:?}");
                    assert!(m.recovered.iter().all(|&f| !f));
                }
            }
        }
    }

    #[test]
    fn recovered_flags_mark_exactly_the_delta_to_the_crash_free_run() {
        // Unflagged sends must be a sub-multiset of the crash-free walk's
        // (sender → receiver, tile) pairs; flagged sends must be absent
        // from it.
        let a = TileAssignment::extended(&sbc::sbc_extended(21).unwrap(), 9);
        let maps = [a.clone(), a.remap_without(7)];
        let plain: std::collections::HashSet<(u32, u32, usize, usize)> = lu_broadcasts(&a)
            .flat_map(|m| {
                let s = m.sender;
                let (i, j) = (m.i, m.j);
                m.receivers.into_iter().map(move |r| (s, r, i, j))
            })
            .collect();
        for e in [2usize, 5] {
            for m in lu_spliced_chain(&maps, &[(7, e)]) {
                for (&r, &f) in m.receivers.iter().zip(&m.recovered) {
                    let key = (m.sender, r, m.i, m.j);
                    if f {
                        assert!(!plain.contains(&key), "flagged send exists plain: {key:?}");
                    } else {
                        assert!(plain.contains(&key), "unflagged send not plain: {key:?}");
                    }
                }
            }
        }
    }

    /// Build the composed assignment chain for a crash list.
    fn chain_for(a: &TileAssignment, crashes: &[(u32, usize)]) -> Vec<TileAssignment> {
        let mut maps = vec![a.clone()];
        let mut gone: Vec<u32> = Vec::new();
        for &(dead, _) in crashes {
            let last = maps.last().expect("chain is never empty");
            maps.push(last.remap_excluding(dead, &gone));
            gone.push(dead);
        }
        maps
    }

    #[test]
    fn cascade_is_exactly_once_and_never_serves_the_dead_or_heirs() {
        // Two and three sequential crashes: per-(receiver, tile)
        // exactly-once, nobody receives at or after its own crash
        // epoch, and no future owner of a tile ever receives it.
        let a = g2dbc_assign(7, 9);
        let cascades: [&[(u32, usize)]; 3] = [
            &[(2, 1), (5, 4)],
            &[(1, 2), (3, 2)],
            &[(0, 1), (4, 3), (6, 5)],
        ];
        for crashes in cascades {
            let maps = chain_for(&a, crashes);
            for stream in [
                lu_spliced_chain(&maps, crashes),
                cholesky_spliced_chain(&maps, crashes),
            ] {
                let mut seen = std::collections::HashSet::new();
                for m in &stream {
                    assert_eq!(m.receivers.len(), m.recovered.len());
                    assert!(!m.receivers.is_empty());
                    assert_eq!(m.epoch, m.i.min(m.j));
                    if let Some(&(_, ce)) = crashes.iter().find(|&&(d, _)| d == m.sender) {
                        assert!(
                            m.epoch < ce,
                            "casualty {} sends its own broadcast post-crash: {m:?}",
                            m.sender
                        );
                    }
                    for &r in &m.receivers {
                        assert_ne!(r, m.sender, "self-send in {m:?}");
                        assert!(
                            seen.insert((m.i, m.j, r)),
                            "tile ({},{}) delivered twice to {r}",
                            m.i,
                            m.j
                        );
                        if let Some(&(_, ce)) = crashes.iter().find(|&&(d, _)| d == r) {
                            assert!(m.epoch < ce, "post-crash send to casualty {r}: {m:?}");
                        }
                        // No generation's owner of the tile ever receives it.
                        assert!(
                            maps.iter().all(|map| map.owner(m.i, m.j) != r),
                            "owner-chain member {r} served tile ({},{})",
                            m.i,
                            m.j
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cascade_serves_every_reader_under_the_final_map() {
        // Completeness under composition: every distinct final-map
        // owner of a tile's reader set that never owned the tile is
        // served exactly once.
        let a = g2dbc_assign(6, 8);
        let crashes: [(u32, usize); 2] = [(5, 2), (1, 4)];
        let maps = chain_for(&a, &crashes);
        let af = maps.last().expect("chain tail");
        let t = 8usize;
        let msgs = cholesky_spliced_chain(&maps, &crashes);
        let mut got: std::collections::HashMap<(usize, usize), Vec<u32>> =
            std::collections::HashMap::new();
        for m in &msgs {
            got.entry((m.i, m.j)).or_default().extend(&m.receivers);
        }
        for l in 0..t {
            for i in (l + 1)..t {
                let mut need: Vec<u32> = ((l + 1)..=i)
                    .map(|j| af.owner(i, j))
                    .chain(((i + 1)..t).map(|j| af.owner(j, i)))
                    .filter(|&o| maps.iter().all(|map| map.owner(i, l) != o))
                    .collect();
                need.sort_unstable();
                need.dedup();
                let have = got.get(&(i, l)).cloned().unwrap_or_default();
                for o in need {
                    assert!(have.contains(&o), "final reader {o} of ({i},{l}) unserved");
                }
            }
        }
    }

    #[test]
    fn second_generation_heir_hands_off_the_inherited_tiles() {
        // Kill a rank, then kill one of its heirs: tiles that moved
        // dead1 → heir → dead2's heir must end at a rank that is
        // neither casualty, and their recovery broadcasts must come
        // from the final owner.
        let a = g2dbc_assign(5, 8);
        let d1 = 1u32;
        let maps1 = chain_for(&a, &[(d1, 2)]);
        // Find an heir that inherited at least one of d1's tiles.
        let d2 = (0..8 * 8)
            .map(|s| maps1[1].owner(s / 8, s % 8))
            .zip((0..8 * 8).map(|s| a.owner(s / 8, s % 8)))
            .find_map(|(now, was)| (was == d1 && now != d1).then_some(now))
            .expect("the re-map moved something");
        let crashes: [(u32, usize); 2] = [(d1, 2), (d2, 4)];
        let maps = chain_for(&a, &crashes);
        let af = &maps[2];
        let mut chained = 0u32;
        for i in 0..8 {
            for j in 0..8 {
                if a.owner(i, j) == d1 && maps[1].owner(i, j) == d2 {
                    chained += 1;
                    assert_ne!(af.owner(i, j), d1);
                    assert_ne!(af.owner(i, j), d2);
                }
            }
        }
        assert!(chained > 0, "pick a cascade that chains an inheritance");
        let mut final_heir_reserved = false;
        for m in lu_spliced_chain(&maps, &crashes) {
            for (&r, &f) in m.receivers.iter().zip(&m.recovered) {
                if f && a.owner(m.i, m.j) == d1 && maps[1].owner(m.i, m.j) == d2 {
                    // Recovery traffic for twice-inherited tiles comes
                    // from the ownership chain after d1: the first heir
                    // (pre its own crash only) or the final owner.
                    assert_ne!(m.sender, d1, "first casualty re-serves: {m:?}");
                    if m.sender == d2 {
                        assert!(m.epoch < 4, "dead heir re-serves post-crash: {m:?}");
                    } else {
                        assert_eq!(m.sender, af.owner(m.i, m.j), "wrong re-server: {m:?}");
                        final_heir_reserved = true;
                    }
                    assert_ne!(r, d1);
                    assert_ne!(r, d2);
                }
            }
        }
        assert!(
            final_heir_reserved,
            "the second-generation heir never handed anything off"
        );
    }

    #[test]
    fn cascade_volume_composes_and_identity_chain_is_plain() {
        let a = g2dbc_assign(6, 8);
        // Identity chain: no crash, stream == plain walk.
        let s = lu_spliced_chain(std::slice::from_ref(&a), &[]);
        let plain: Vec<BcastMsg> = lu_broadcasts(&a).collect();
        assert_eq!(s.iter().map(to_plain).collect::<Vec<_>>(), plain);
        assert_eq!(spliced_volume(&s).total, lu_comm_volume(&a));
        assert_eq!(spliced_volume(&s).recovered.total(), 0);
        // A cascade's recovered share grows with each crash.
        let c1: [(u32, usize); 1] = [(2, 2)];
        let c2: [(u32, usize); 2] = [(2, 2), (4, 4)];
        let v1 = spliced_volume(&lu_spliced_chain(&chain_for(&a, &c1), &c1));
        let v2 = spliced_volume(&lu_spliced_chain(&chain_for(&a, &c2), &c2));
        assert!(v2.recovered.total() > v1.recovered.total());
    }

    #[test]
    fn every_reader_is_served_under_the_remap() {
        // Completeness: for every tile, every distinct remote a2-owner of
        // its reader set receives the tile exactly once — except the dead
        // node, which (post-crash) reads nothing.
        let a = g2dbc_assign(6, 8);
        let maps = [a.clone(), a.remap_without(5)];
        let a2 = &maps[1];
        let e = 4usize;
        let t = 8usize;
        let msgs = cholesky_spliced_chain(&maps, &[(5, e)]);
        let mut got: std::collections::HashMap<(usize, usize), Vec<u32>> =
            std::collections::HashMap::new();
        for m in &msgs {
            got.entry((m.i, m.j)).or_default().extend(&m.receivers);
        }
        for l in 0..t {
            for i in (l + 1)..t {
                // Trailing tile (i,l): a2-readers are owners of its colrow.
                let s2 = a2.owner(i, l);
                let mut need: Vec<u32> = ((l + 1)..=i)
                    .map(|j| a2.owner(i, j))
                    .chain(((i + 1)..t).map(|j| a2.owner(j, i)))
                    .filter(|&o| o != s2)
                    .collect();
                need.sort_unstable();
                need.dedup();
                let have = got.get(&(i, l)).cloned().unwrap_or_default();
                for o in need {
                    assert!(
                        have.contains(&o),
                        "a2-reader {o} of ({i},{l}) never served (e={e})"
                    );
                }
            }
        }
    }
}
