//! The data plane of a rendezvous round: which bytes move where, and
//! when it is sound to read them — "the borrow rule", stated in
//! [`super`]'s module doc. The control plane decides *whether* a round
//! completes; nothing here waits, and nothing here is staged.

use super::{Io, OpTag};

/// Elements folded per pass: the block stays in L1 under every view.
const BLOCK: usize = 1024;

/// One member's published payload: its caller's send buffer, or — when
/// an injected fault dropped the payload — that many zeros.
#[derive(Debug, Clone, Copy)]
struct View {
    ptr: *const f32,
    len: usize,
    zeros: bool,
}

// SAFETY: a `View` is a `&[f32]` with its lifetime erased, and `&[f32]`
// is `Send`; the claim/release borrow rule stands in for the lifetime.
unsafe impl Send for View {}

impl View {
    fn of(send: &[f32], zeros: bool) -> View {
        let (ptr, len) = (send.as_ptr(), send.len());
        View { ptr, len, zeros }
    }
}

/// Where a member stands in the open round: `Owed` may still claim it,
/// `Reading` holds a claim, `Idle` is anything else — released, written
/// off, or the group is collecting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) enum Member {
    Idle,
    Owed,
    Reading,
}

/// An AllReduce slice a member has taken and must fold; only
/// [`Plane::take_slice`] makes one, so no two members hold the same.
pub(super) struct Slice(usize);

/// The per-group data-plane state, guarded by the group lock.
#[derive(Debug)]
pub(super) struct Plane {
    views: Vec<View>,
    members: Vec<Member>,
    /// Each member's copy of `views`, lent to its claim; allocated once.
    lent: Vec<Vec<View>>,
    /// AllReduce slices taken so far.
    taken: usize,
    /// AllReduce slices not yet folded; `None` for every other op.
    unfolded: Option<usize>,
    /// Element-wise sum of an AllReduce round, folded slice by slice.
    reduced: Vec<f32>,
}

impl Plane {
    pub(super) fn new(n: usize) -> Self {
        Plane {
            views: vec![View::of(&[], true); n],
            members: vec![Member::Idle; n],
            lent: (0..n).map(|_| Vec::with_capacity(n)).collect(),
            taken: 0,
            unfolded: None,
            reduced: Vec::new(),
        }
    }

    /// Publishes `member`'s payload for the collecting round. The control
    /// plane retracts a view by lowering its `deposited` flag, which it
    /// only does while collecting — when nobody can be reading.
    pub(super) fn publish(&mut self, member: usize, send: &[f32], dropped: bool) {
        self.views[member] = View::of(send, dropped);
    }

    /// Opens the completed round of `tag` for claims, or panics on
    /// payloads of different lengths in anything but an AllGather.
    /// `reduced` only ever grows, so a warm AllReduce writes nothing here.
    pub(super) fn open(&mut self, tag: OpTag) {
        let len = self.views[0].len;
        let same = matches!(tag, OpTag::AllGather) || self.views.iter().all(|v| v.len == len);
        assert!(same, "{} buffers must match in length", tag.name());
        self.members.fill(Member::Owed);
        self.taken = 0;
        self.unfolded = matches!(tag, OpTag::AllReduce).then_some(self.views.len());
        if self.unfolded.is_some() && self.reduced.len() < len {
            self.reduced.resize(len, 0.0);
        }
    }

    pub(super) fn member(&self, member: usize) -> Member {
        self.members[member]
    }

    /// `member` will neither claim nor read again: written off as dead,
    /// erroring out of a completed round, or unwinding.
    pub(super) fn retire(&mut self, member: usize) {
        self.members[member] = Member::Idle;
    }

    pub(super) fn drained(&self) -> bool {
        self.members.iter().all(|&m| m == Member::Idle)
    }

    /// The owner's half of the borrow rule: whether a claim that can read
    /// a view is outstanding or can still be made. A poisoned group
    /// grants no new claim, and once every AllReduce slice is folded the
    /// claims left read only `reduced`. False while the group collects.
    pub(super) fn views_in_use(&self, poisoned: bool) -> bool {
        let reads = |&m| m == Member::Reading || (m == Member::Owed && !poisoned);
        self.members.iter().any(reads) && !self.folded()
    }

    /// `member` claims the open round: a copy of the views and the right
    /// to read them until [`Plane::release`].
    ///
    /// # Safety
    ///
    /// The round is open and `member` is owed it, and the caller upholds
    /// the borrow rule: no owner of a published view returns from its
    /// call while [`Plane::views_in_use`].
    pub(super) unsafe fn claim(&mut self, member: usize) -> Claim {
        self.members[member] = Member::Reading;
        let mut views = std::mem::take(&mut self.lent[member]);
        views.clear();
        views.extend_from_slice(&self.views);
        let reduced = self.reduced.as_mut_ptr();
        Claim {
            member,
            views,
            reduced,
        }
    }

    pub(super) fn release(&mut self, claim: Claim) {
        self.members[claim.member] = Member::Idle;
        self.lent[claim.member] = claim.views;
    }

    /// The next AllReduce slice nobody has started, if any is left.
    pub(super) fn take_slice(&mut self) -> Option<Slice> {
        if self.unfolded.is_none() || self.taken == self.views.len() {
            return None;
        }
        self.taken += 1;
        Some(Slice(self.taken - 1))
    }

    /// Records a slice as folded; true when `reduced` is whole.
    pub(super) fn finish_slice(&mut self, _folded: Slice) -> bool {
        self.unfolded = self.unfolded.map(|left| left - 1);
        self.folded()
    }

    /// Whether `reduced` holds the whole sum of the open AllReduce.
    pub(super) fn folded(&self) -> bool {
        self.unfolded == Some(0)
    }
}

/// One member's claim on a completed round (see [`Plane::claim`]); used
/// outside the group lock.
pub(super) struct Claim {
    member: usize,
    views: Vec<View>,
    reduced: *mut f32,
}

impl Claim {
    /// Member `k`'s payload; `None` reads as zeros.
    fn view(&self, k: usize) -> Option<&[f32]> {
        let View { ptr, len, zeros } = self.views[k];
        // SAFETY: a `Claim` exists only between `Plane::claim` and
        // `Plane::release`, and `claim`'s contract keeps the buffer's
        // owner inside its call — not writing it — for that long.
        (!zeros).then(|| unsafe { std::slice::from_raw_parts(ptr, len) })
    }

    /// Start of share `s` when `len` elements split evenly among the
    /// members; a remainder (AllReduce slices only — the scattering ops
    /// reject one) goes to the first shares, and shares may be empty.
    fn share(&self, len: usize, s: usize) -> usize {
        let n = self.views.len();
        len / n * s + s.min(len % n)
    }

    /// Writes this member's result of the completed round `tag` from its
    /// peers' views (an AllReduce's from `reduced`) into the caller's
    /// buffers.
    ///
    /// # Safety
    ///
    /// If the round is an AllReduce, every slice is folded
    /// ([`Plane::folded`]): nobody writes `reduced` from then until this
    /// claim's release lets the round drain.
    pub(super) unsafe fn deliver(&self, tag: OpTag, io: &mut Io<'_>, dropped: bool) {
        let me = self.member;
        match (tag, io) {
            (OpTag::AllReduce, Io::InPlace(data)) => {
                // SAFETY: sized and kept alive as in `fold_slice`; this
                // function's contract leaves no writer.
                let sum = unsafe { std::slice::from_raw_parts(self.reduced, data.len()) };
                data.copy_from_slice(sum);
            }
            (OpTag::AllGather | OpTag::AllToAll, Io::Into { recv, .. }) => {
                recv.clear();
                for (k, sent) in self.views.iter().enumerate() {
                    let at = match tag {
                        OpTag::AllGather => 0..sent.len,
                        _ => self.share(sent.len, me)..self.share(sent.len, me + 1),
                    };
                    match self.view(k) {
                        Some(v) => recv.extend_from_slice(&v[at]),
                        None => recv.resize(recv.len() + at.len(), 0.0),
                    }
                }
            }
            (OpTag::ReduceScatter, Io::Into { send, recv }) => {
                recv.clear();
                recv.resize(send.len() / self.views.len(), 0.0);
                self.fold(self.share(send.len(), me), recv);
            }
            // The root's payload *is* its result (and the view its peers
            // are reading) — unless a fault dropped it.
            (OpTag::Broadcast(root), Io::InPlace(data)) if root != me || dropped => {
                match self.view(root) {
                    Some(v) => data.copy_from_slice(v),
                    None => data.fill(0.0),
                }
            }
            _ => {}
        }
    }

    /// `dst[j] = ((0 + v₀[from + j]) + v₁[from + j]) + …`: every element
    /// folds from zero in group-index order — the order every
    /// `loss_digest` rests on — one L1-sized block at a time.
    fn fold(&self, from: usize, dst: &mut [f32]) {
        let zeros = [0.0; BLOCK];
        for (b, block) in dst.chunks_mut(BLOCK).enumerate() {
            let at = from + b * BLOCK..from + b * BLOCK + block.len();
            block.fill(0.0);
            for k in 0..self.views.len() {
                let part = self
                    .view(k)
                    .map_or(&zeros[..block.len()], |v| &v[at.clone()]);
                block.iter_mut().zip(part).for_each(|(d, s)| *d += s);
            }
        }
    }

    /// AllReduce: folds `slice` of the sum into the group's `reduced`.
    pub(super) fn fold_slice(&self, slice: &Slice) {
        let len = self.views[0].len;
        let at = self.share(len, slice.0)..self.share(len, slice.0 + 1);
        // SAFETY: `reduced` holds at least `len` elements and is resized
        // only when a round opens — after every earlier claim's release,
        // by the borrow rule; `Slice`s are disjoint and each is held by
        // one member, so nobody else touches this range until
        // `Plane::finish_slice`.
        let dst = unsafe { std::slice::from_raw_parts_mut(self.reduced.add(at.start), at.len()) };
        self.fold(at.start, dst);
    }
}

/// The claim / release / drain state machine, stepped by hand: no
/// threads, no clock.
#[cfg(test)]
mod tests {
    use super::*;

    /// Payloads for `n` members, `len` long: member `m` sends `m + j/8`.
    fn payloads(n: usize, len: usize) -> Vec<Vec<f32>> {
        let of = |m: usize| (0..len).map(|j| m as f32 + j as f32 / 8.0).collect();
        (0..n).map(of).collect()
    }

    /// A round of `tag` that every member of `sends` has joined.
    fn opened(tag: OpTag, sends: &[Vec<f32>]) -> Plane {
        let mut plane = Plane::new(sends.len());
        for (m, send) in sends.iter().enumerate() {
            plane.publish(m, send, false);
        }
        plane.open(tag);
        plane
    }

    #[test]
    fn a_written_off_member_leaves_when_the_round_settles_and_not_before() {
        let sends = payloads(3, 6);
        let mut plane = opened(OpTag::AllToAll, &sends);
        // SAFETY: `sends` outlives every claim in this test.
        let first = unsafe { plane.claim(0) };
        plane.retire(2); // member 2 slept through its eviction
        assert_eq!(plane.member(2), Member::Idle);
        assert!(plane.views_in_use(false) && !plane.drained());
        // SAFETY: as above.
        let second = unsafe { plane.claim(1) };
        plane.release(first);
        assert!(
            plane.views_in_use(false) && !plane.drained(),
            "member 1 may still be reading member 2's view"
        );
        plane.release(second);
        assert!(!plane.views_in_use(false), "now member 2 may leave");
        assert!(plane.drained());
    }

    #[test]
    fn an_unwinding_members_claim_is_retired_and_poison_grants_no_new_one() {
        let sends = payloads(3, 6);
        let mut plane = opened(OpTag::AllGather, &sends);
        // SAFETY: `sends` outlives every claim in this test.
        let reader = unsafe { plane.claim(0) };
        // SAFETY: as above.
        let unwinding = unsafe { plane.claim(1) };
        drop(unwinding); // member 1 panics mid-copy …
        plane.retire(1); // … and `PoisonOnPanic` retires it
        assert!(
            plane.views_in_use(true),
            "member 0 still holds a claim: the unwinding owner stays"
        );
        plane.release(reader);
        assert!(
            !plane.views_in_use(true),
            "member 2 is owed, but a poisoned group grants no claim"
        );
        assert!(plane.views_in_use(false) && !plane.drained());
    }

    #[test]
    fn every_all_reduce_slice_is_folded_once_whichever_members_claim() {
        const N: usize = 4;
        for len in [0, 3, 10, 2 * BLOCK + 5] {
            let sends = payloads(N, len);
            let want: Vec<f32> = (0..len)
                .map(|j| sends.iter().fold(0.0, |sum, send| sum + send[j]))
                .collect();
            for awake in [vec![2], vec![0, 3], vec![3, 1, 0], vec![0, 1, 2, 3]] {
                let mut plane = opened(OpTag::AllReduce, &sends);
                plane.reduced.fill(f32::NAN); // whatever the last round left
                let claims: Vec<Claim> = awake
                    .iter()
                    // SAFETY: `sends` outlives every claim in this test.
                    .map(|&m| unsafe { plane.claim(m) })
                    .collect();
                let mut folds = [0; N];
                // the awake members take turns, one slice each
                for claim in claims.iter().cycle() {
                    let Some(slice) = plane.take_slice() else {
                        break;
                    };
                    assert!(plane.views_in_use(false), "a slice is still unfolded");
                    folds[slice.0] += 1;
                    claim.fold_slice(&slice);
                    plane.finish_slice(slice);
                }
                assert_eq!(folds, [1; N], "len {len}, awake {awake:?}");
                assert!(plane.folded());
                assert!(
                    !plane.views_in_use(false),
                    "a late claimer reads only `reduced`: owners may leave"
                );
                for claim in claims {
                    let mut data = vec![f32::NAN; len];
                    // SAFETY: every slice is folded (just asserted).
                    unsafe { claim.deliver(OpTag::AllReduce, &mut Io::InPlace(&mut data), false) };
                    assert_eq!(data, want, "len {len}, awake {awake:?}");
                    plane.release(claim);
                }
                assert_eq!(plane.drained(), awake.len() == N, "the rest drain lazily");
            }
        }
    }
}
