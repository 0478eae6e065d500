//! Global candidate selection: maximum-weight non-overlapping choice.
//!
//! The rewriting pass ([`crate::rewrite`]) measures, for every candidate
//! cone replacement, the nodes it would *free* — the root plus its
//! maximal fanout-free cone. Accepting candidates greedily in traversal
//! order double-counts those savings whenever two candidates' freed sets
//! overlap: both claim the shared nodes, but the nodes die only once.
//! This module solves the underlying combinatorial problem instead: given
//! candidates that each **claim** a set of resources (node indices),
//! **read** another set (nodes they keep alive without freeing — for
//! rewriting, the cut leaves), and carry a **weight** (measured gain),
//! pick a maximum-weight subset in which no item's claims overlap
//! another's claims *or* reads. A read/claim overlap is a real conflict:
//! the reader would keep alive a node the claimer was credited with
//! freeing, silently shrinking the claimer's realized gain.
//!
//! The problem is weighted independent set on the conflict graph —
//! NP-hard in general, but the instances here are small (hundreds of
//! candidates, claim sets of a handful of nodes) and sparse, so a greedy
//! pass refined by 1-exchange is accurate in practice and, unlike
//! accepting each rewrite in traversal order, never counts a freed node
//! twice: the gains of a selected set add up.
//!
//! The solver is deliberately generic over plain `usize` resource slots so
//! it can be unit-tested (and reused) without dragging in AIG types.
//!
//! **Cost.** Slot state is two arrays — the selected owner of each slot
//! and the selected readers of each slot — so every conflict test walks
//! only the tested item's own claims and reads. Each round runs two
//! sweeps:
//!
//! * the **upward** sweep visits every unselected item once, collecting
//!   its conflict set in one reused buffer (sorted and deduplicated, so
//!   each blocker's weight counts once);
//! * the **downward** sweep visits, for every selected item `j`, every
//!   unselected item, asking whether its conflicts are `j` alone — an
//!   early-exit walk that allocates nothing — and tracks the pack it
//!   builds with per-slot epoch marks, so a pack-membership test is one
//!   array read. That is O(selected × items) cheap tests per round, which
//!   on rewriting instances (hundreds of candidates) costs less than
//!   measuring the candidates did.
//!
//! "Conflicts with `j` alone" includes **no conflict at all**: an item an
//! earlier eviction left conflict-free, but which its sweep had already
//! passed, joins the first downward pack it fits. That admission could
//! also wait for the next upward sweep, and a scan over `j`'s conflict
//! neighbours only would be cheaper, but it would count exchanges
//! differently, and in the last round allowed it would leave the item
//! out — so the rewriting pass would report other counters and could
//! commit other graphs. The sweeps are kept exactly as they are, and a
//! test-only reference copy that rebuilds every conflict list checks them
//! mask for mask and counter for counter.

/// One selectable item: the slots it claims and reads, plus its weight.
#[derive(Clone, Debug)]
pub struct Selectable {
    /// Resource slots this item claims exclusively (for rewriting: the
    /// node indices freed by the replacement, root included).
    pub claims: Vec<usize>,
    /// Slots this item keeps alive without claiming them (for rewriting:
    /// the cut leaves the replacement is built over). Reads conflict with
    /// other items' claims but not with other reads.
    pub reads: Vec<usize>,
    /// The item's value (for rewriting: the measured AND-count gain).
    pub weight: i64,
}

/// Counters of one [`select_nonoverlapping`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SelectionStats {
    /// Items offered to the solver.
    pub candidates: usize,
    /// Items selected.
    pub selected: usize,
    /// Positive-weight items left unselected because of conflicts.
    pub dropped_overlap: usize,
    /// Improving 1-exchanges applied after the initial greedy pass.
    pub exchange_swaps: usize,
    /// Total weight of the selected set.
    pub selected_weight: i64,
}

/// Pushes the selected items conflicting with item `i` onto `out`, with
/// repeats: owners of any slot `i` claims or reads, plus selected readers
/// of any slot `i` claims.
fn push_conflicts(
    items: &[Selectable],
    owner: &[Option<usize>],
    readers: &[Vec<usize>],
    i: usize,
    out: &mut Vec<usize>,
) {
    for &s in &items[i].claims {
        out.extend(owner[s]);
        out.extend_from_slice(&readers[s]);
    }
    for &s in &items[i].reads {
        out.extend(owner[s]);
    }
}

/// Whether every selected item conflicting with item `i` is `j` — true
/// as well when nothing conflicts with `i` at all. The same walk as
/// [`push_conflicts`], stopping at the first other conflict.
fn conflicts_only_with(
    items: &[Selectable],
    owner: &[Option<usize>],
    readers: &[Vec<usize>],
    i: usize,
    j: usize,
) -> bool {
    let owned_by_other = |s: usize| owner[s].is_some_and(|o| o != j);
    items[i]
        .claims
        .iter()
        .all(|&s| !owned_by_other(s) && readers[s].iter().all(|&r| r == j))
        && items[i].reads.iter().all(|&s| !owned_by_other(s))
}

fn deselect(
    items: &[Selectable],
    owner: &mut [Option<usize>],
    readers: &mut [Vec<usize>],
    selected: &mut [bool],
    j: usize,
) {
    selected[j] = false;
    for &s in &items[j].claims {
        owner[s] = None;
    }
    for &s in &items[j].reads {
        readers[s].retain(|&r| r != j);
    }
}

fn select(
    items: &[Selectable],
    owner: &mut [Option<usize>],
    readers: &mut [Vec<usize>],
    selected: &mut [bool],
    i: usize,
) {
    selected[i] = true;
    for &s in &items[i].claims {
        owner[s] = Some(i);
    }
    for &s in &items[i].reads {
        readers[s].push(i);
    }
}

/// Picks a maximum-weight subset of `items` with no claim/claim or
/// claim/read overlaps (greedy by weight, refined by 1-exchange).
/// `num_slots` bounds the slot indices appearing in any claim or read
/// set. Items without positive weight are never selected — they cannot
/// improve on leaving them out.
///
/// Returns a selection mask over `items` plus counters. Deterministic:
/// ties are broken by item index.
///
/// # Panics
///
/// Panics if an item claims or reads a slot `>= num_slots`.
///
/// # Examples
///
/// Two overlapping items and an independent one — the heavier of the
/// overlapping pair wins, the independent item rides along:
///
/// ```
/// use emm_aig::select::{select_nonoverlapping, Selectable};
///
/// let items = vec![
///     Selectable { claims: vec![0, 1], reads: vec![], weight: 3 },
///     Selectable { claims: vec![1, 2], reads: vec![], weight: 5 },
///     Selectable { claims: vec![7], reads: vec![2], weight: 1 },
/// ];
/// let (picked, stats) = select_nonoverlapping(&items, 8);
/// assert_eq!(picked, vec![false, true, false]);
/// assert_eq!(stats.selected_weight, 5);
/// ```
///
/// (The third item is rejected because it *reads* slot 2, which the
/// selected second item claims to free.)
pub fn select_nonoverlapping(
    items: &[Selectable],
    num_slots: usize,
) -> (Vec<bool>, SelectionStats) {
    let mut stats = SelectionStats {
        candidates: items.len(),
        ..SelectionStats::default()
    };
    let mut selected = vec![false; items.len()];
    // Owner of each slot (index of the selected item claiming it) and the
    // selected items reading it.
    let mut owner: Vec<Option<usize>> = vec![None; num_slots];
    let mut readers: Vec<Vec<usize>> = vec![Vec::new(); num_slots];
    // Heaviest first; ties by index for determinism.
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by_key(|&i| (-items[i].weight, i));
    // Scratch reused by every sweep: the conflict set of the upward
    // candidate, and the downward pack with its slot marks (a slot is in
    // the pack's claims or reads iff its mark equals the current epoch).
    let mut conflicting: Vec<usize> = Vec::new();
    let mut pack: Vec<usize> = Vec::new();
    let mut pack_claimed = vec![0usize; num_slots];
    let mut pack_read = vec![0usize; num_slots];
    let mut epoch = 0usize;

    // The first upward sweep is the pure greedy pass (nothing is selected
    // yet, so every admission has an empty conflict set). After that, two
    // exchange moves refine the set until neither improves:
    //
    // * **up**: a rejected item heavier than the selected items it
    //   conflicts with evicts them and takes their place;
    // * **down**: a selected item lighter than a disjoint packing of the
    //   rejected items *only it* blocks is evicted for that packing.
    //
    // Every applied move strictly increases the selected weight, so the
    // loop terminates; the round cap only bounds the tail.
    let mut changed = true;
    let mut rounds = 0;
    while changed && rounds < 4 {
        changed = false;
        rounds += 1;
        // Upward sweep: fill gaps, evict lighter conflict sets. Items
        // with no positive weight can never improve the selected total
        // over leaving them out, so they are never admitted.
        for &i in &order {
            if selected[i] || items[i].weight <= 0 {
                continue;
            }
            conflicting.clear();
            push_conflicts(items, &owner, &readers, i, &mut conflicting);
            conflicting.sort_unstable();
            conflicting.dedup();
            let conflict_weight: i64 = conflicting.iter().map(|&j| items[j].weight).sum();
            if !conflicting.is_empty() && items[i].weight <= conflict_weight {
                continue;
            }
            for &j in &conflicting {
                deselect(items, &mut owner, &mut readers, &mut selected, j);
            }
            select(items, &mut owner, &mut readers, &mut selected, i);
            if !conflicting.is_empty() {
                stats.exchange_swaps += 1;
            }
            changed = true;
        }
        // Downward sweep: replace a selected item by a heavier packing of
        // the rejected items that conflict with it alone.
        for j in 0..items.len() {
            if !selected[j] {
                continue;
            }
            epoch += 1;
            pack.clear();
            let mut pack_weight = 0i64;
            for &i in &order {
                if selected[i] || i == j || items[i].weight <= 0 {
                    continue;
                }
                // Conflicts with the current selection must be `j` alone
                // (or none: an item a sweep has freed joins the pack too),
                // and the pack itself must stay internally conflict-free
                // (claims disjoint from pack claims and reads; reads
                // disjoint from pack claims — read/read sharing is fine).
                if !conflicts_only_with(items, &owner, &readers, i, j) {
                    continue;
                }
                let compatible = items[i]
                    .claims
                    .iter()
                    .all(|&s| pack_claimed[s] != epoch && pack_read[s] != epoch)
                    && items[i].reads.iter().all(|&s| pack_claimed[s] != epoch);
                if !compatible {
                    continue;
                }
                pack.push(i);
                for &s in &items[i].claims {
                    pack_claimed[s] = epoch;
                }
                for &s in &items[i].reads {
                    pack_read[s] = epoch;
                }
                pack_weight += items[i].weight;
            }
            if pack_weight > items[j].weight {
                deselect(items, &mut owner, &mut readers, &mut selected, j);
                for &i in &pack {
                    select(items, &mut owner, &mut readers, &mut selected, i);
                }
                stats.exchange_swaps += 1;
                changed = true;
            }
        }
    }

    stats.selected = selected.iter().filter(|&&s| s).count();
    stats.dropped_overlap = items
        .iter()
        .zip(&selected)
        .filter(|(it, &s)| !s && it.weight > 0)
        .count();
    stats.selected_weight = (0..items.len())
        .filter(|&i| selected[i])
        .map(|i| items[i].weight)
        .sum();
    (selected, stats)
}

/// The selection as first written, kept as the reference the
/// allocation-free sweeps above must match mask for mask and counter for
/// counter: it rebuilds, sorts and dedups a fresh conflict list for
/// every test and tracks the downward pack in plain vectors.
#[cfg(test)]
mod reference {
    use super::{deselect, select, Selectable, SelectionStats};

    /// Selected items currently conflicting with item `i`: owners of any slot
    /// `i` claims or reads, plus selected readers of any slot `i` claims.
    fn conflicts_of(
        items: &[Selectable],
        owner: &[Option<usize>],
        readers: &[Vec<usize>],
        i: usize,
    ) -> Vec<usize> {
        let mut c: Vec<usize> = Vec::new();
        for &s in &items[i].claims {
            if let Some(o) = owner[s] {
                c.push(o);
            }
            c.extend_from_slice(&readers[s]);
        }
        for &s in &items[i].reads {
            if let Some(o) = owner[s] {
                c.push(o);
            }
        }
        c.sort_unstable();
        c.dedup();
        c
    }

    /// [`super::select_nonoverlapping`], allocating as it goes.
    pub(super) fn select_nonoverlapping(
        items: &[Selectable],
        num_slots: usize,
    ) -> (Vec<bool>, SelectionStats) {
        let mut stats = SelectionStats {
            candidates: items.len(),
            ..SelectionStats::default()
        };
        let mut selected = vec![false; items.len()];
        let mut owner: Vec<Option<usize>> = vec![None; num_slots];
        let mut readers: Vec<Vec<usize>> = vec![Vec::new(); num_slots];
        let mut order: Vec<usize> = (0..items.len()).collect();
        order.sort_by_key(|&i| (-items[i].weight, i));

        let mut changed = true;
        let mut rounds = 0;
        while changed && rounds < 4 {
            changed = false;
            rounds += 1;
            for &i in &order {
                if selected[i] || items[i].weight <= 0 {
                    continue;
                }
                let conflicting = conflicts_of(items, &owner, &readers, i);
                let conflict_weight: i64 = conflicting.iter().map(|&j| items[j].weight).sum();
                if !conflicting.is_empty() && items[i].weight <= conflict_weight {
                    continue;
                }
                for &j in &conflicting {
                    deselect(items, &mut owner, &mut readers, &mut selected, j);
                }
                select(items, &mut owner, &mut readers, &mut selected, i);
                if !conflicting.is_empty() {
                    stats.exchange_swaps += 1;
                }
                changed = true;
            }
            for j in 0..items.len() {
                if !selected[j] {
                    continue;
                }
                let mut pack: Vec<usize> = Vec::new();
                let mut pack_claims: Vec<usize> = Vec::new();
                let mut pack_reads: Vec<usize> = Vec::new();
                let mut pack_weight = 0i64;
                for &i in &order {
                    if selected[i] || i == j || items[i].weight <= 0 {
                        continue;
                    }
                    if !conflicts_of(items, &owner, &readers, i)
                        .iter()
                        .all(|&c| c == j)
                    {
                        continue;
                    }
                    let compatible = items[i]
                        .claims
                        .iter()
                        .all(|s| !pack_claims.contains(s) && !pack_reads.contains(s))
                        && items[i].reads.iter().all(|s| !pack_claims.contains(s));
                    if !compatible {
                        continue;
                    }
                    pack.push(i);
                    pack_claims.extend_from_slice(&items[i].claims);
                    pack_reads.extend_from_slice(&items[i].reads);
                    pack_weight += items[i].weight;
                }
                if pack_weight > items[j].weight {
                    deselect(items, &mut owner, &mut readers, &mut selected, j);
                    for &i in &pack {
                        select(items, &mut owner, &mut readers, &mut selected, i);
                    }
                    stats.exchange_swaps += 1;
                    changed = true;
                }
            }
        }

        stats.selected = selected.iter().filter(|&&s| s).count();
        stats.dropped_overlap = items
            .iter()
            .zip(&selected)
            .filter(|(it, &s)| !s && it.weight > 0)
            .count();
        stats.selected_weight = (0..items.len())
            .filter(|&i| selected[i])
            .map(|i| items[i].weight)
            .sum();
        (selected, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(claims: &[usize], weight: i64) -> Selectable {
        Selectable {
            claims: claims.to_vec(),
            reads: Vec::new(),
            weight,
        }
    }

    fn reader(claims: &[usize], reads: &[usize], weight: i64) -> Selectable {
        Selectable {
            claims: claims.to_vec(),
            reads: reads.to_vec(),
            weight,
        }
    }

    /// A seeded xorshift stream.
    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// A random instance over a few slots, dense enough that claims and
    /// reads overlap often: up to 30 items claiming 1–4 slots and reading
    /// 0–3, weights drawn from a narrow range (many ties) that includes
    /// zero and negative values.
    fn random_instance(next: &mut impl FnMut() -> u64) -> (Vec<Selectable>, usize) {
        let num_slots = 2 + next() % 24;
        let num_items = next() % 31;
        let mut items = Vec::new();
        for _ in 0..num_items {
            let num_claims = 1 + next() % 4;
            let num_reads = next() % 4;
            items.push(Selectable {
                claims: (0..num_claims)
                    .map(|_| (next() % num_slots) as usize)
                    .collect(),
                reads: (0..num_reads)
                    .map(|_| (next() % num_slots) as usize)
                    .collect(),
                weight: (next() % 15) as i64 - 2,
            });
        }
        (items, num_slots as usize)
    }

    /// The allocation-free sweeps pick the same mask with the same
    /// counters as the reference on thousands of random instances, and
    /// the instances do reach the exchange moves.
    #[test]
    fn matches_the_reference_on_random_instances() {
        let mut next = xorshift(0x5EED_0F5E_1EC7_0001);
        let mut with_swaps = 0;
        for case in 0..4000 {
            let (items, num_slots) = random_instance(&mut next);
            let fast = select_nonoverlapping(&items, num_slots);
            let slow = reference::select_nonoverlapping(&items, num_slots);
            assert_eq!(fast, slow, "case {case}: {items:?}");
            with_swaps += usize::from(fast.1.exchange_swaps > 0);
        }
        assert!(with_swaps > 400, "only {with_swaps} instances swapped");
    }

    /// The downward pack also takes items that conflict with nothing at
    /// all. Round 1: greedy selects J and K; the downward sweep trades J
    /// for {C1, C2} and K for {E1, E2}. Round 2, upward: J and B stay
    /// blocked by C1 + C2, then D1 evicts C1 and D2 evicts C2, which
    /// leaves J and B conflict-free but unselected — the sweep has passed
    /// them. Round 2, downward: J joins the pack of D1, the first selected
    /// item, without conflicting with it, and outweighs it. A scan over
    /// conflict neighbours only would keep D1 there and admit J one round
    /// later, ending at the same mask after 4 exchanges instead of 6.
    #[test]
    fn freed_items_join_the_first_downward_pack() {
        // Every conflict is a shared claim slot: 0 J–B, 1 J–C1, 2 J–C2,
        // 3 K–B, 4 K–D1, 5 K–D2, 6 K–E1, 7 K–E2, 8 B–C1, 9 B–C2,
        // 10 D1–C1, 11 D2–C2.
        let items = vec![
            item(&[0, 1, 2], 11),      // J
            item(&[1, 8, 10], 6),      // C1
            item(&[2, 9, 11], 6),      // C2
            item(&[0, 3, 8, 9], 10),   // B
            item(&[3, 4, 5, 6, 7], 8), // K
            item(&[4, 10], 7),         // D1
            item(&[5, 11], 7),         // D2
            item(&[6], 5),             // E1
            item(&[7], 5),             // E2
        ];
        let (picked, stats) = select_nonoverlapping(&items, 12);
        assert_eq!(
            picked,
            vec![true, false, false, false, false, true, true, true, true]
        );
        assert_eq!(stats.exchange_swaps, 6);
        assert_eq!(stats.selected_weight, 35);
        assert_eq!(
            (picked, stats),
            reference::select_nonoverlapping(&items, 12)
        );
    }

    #[test]
    fn empty_input_selects_nothing() {
        let (picked, stats) = select_nonoverlapping(&[], 4);
        assert!(picked.is_empty());
        assert_eq!(stats, SelectionStats::default());
    }

    #[test]
    fn disjoint_items_are_all_selected() {
        let items = vec![item(&[0], 1), item(&[1], 2), item(&[2, 3], 3)];
        let (picked, stats) = select_nonoverlapping(&items, 4);
        assert_eq!(picked, vec![true, true, true]);
        assert_eq!(stats.selected, 3);
        assert_eq!(stats.dropped_overlap, 0);
        assert_eq!(stats.selected_weight, 6);
    }

    #[test]
    fn heavier_of_two_overlapping_wins() {
        let items = vec![item(&[0, 1], 2), item(&[1, 2], 5)];
        let (picked, stats) = select_nonoverlapping(&items, 3);
        assert_eq!(picked, vec![false, true]);
        assert_eq!(stats.dropped_overlap, 1);
        assert_eq!(stats.selected_weight, 5);
    }

    #[test]
    fn reads_conflict_with_claims_but_not_reads() {
        // Item 1 reads slot 0, which item 0 claims to free: selecting
        // both would keep the "freed" node alive, so they conflict and
        // the heavier item 0 wins. Items 0 and 2 share only a *read*
        // (slot 9) — no conflict, both selected.
        let items = vec![
            reader(&[0, 1], &[9], 3),
            reader(&[5], &[0], 2),
            reader(&[6], &[9], 2),
        ];
        let (picked, stats) = select_nonoverlapping(&items, 10);
        assert_eq!(picked, vec![true, false, true]);
        assert_eq!(stats.selected_weight, 5);
        assert_eq!(stats.dropped_overlap, 1);
    }

    #[test]
    fn selected_reader_blocks_lighter_claimer() {
        // Item 0 (selected first) reads slot 3; item 1 claims to free it.
        // Selecting item 1 would kill a node item 0 relies on staying
        // alive — the conflict is caught through the readers index.
        let items = vec![reader(&[7], &[3], 5), item(&[3], 4)];
        let (picked, stats) = select_nonoverlapping(&items, 8);
        assert_eq!(picked, vec![true, false]);
        assert_eq!(stats.selected_weight, 5);
    }

    #[test]
    fn exchange_recovers_from_greedy_trap() {
        // Greedy takes the weight-10 hub first, blocking both spokes
        // (weight 6 each). The hub is then exchanged away for a spoke, and
        // the refill sweep admits the other spoke: total 12 > 10.
        let items = vec![item(&[0, 1], 10), item(&[0], 6), item(&[1], 6)];
        let (picked, stats) = select_nonoverlapping(&items, 2);
        assert_eq!(picked, vec![false, true, true]);
        assert_eq!(stats.selected_weight, 12);
        assert!(stats.exchange_swaps >= 1);
    }

    #[test]
    fn ties_break_by_index_deterministically() {
        let items = vec![item(&[0], 4), item(&[0], 4)];
        let (picked, _) = select_nonoverlapping(&items, 1);
        assert_eq!(picked, vec![true, false]);
    }

    #[test]
    fn non_positive_weights_are_never_selected() {
        // A conflict-free zero/negative item must stay out: admitting it
        // can only lower the total below the empty-set baseline. Such
        // items are also not "overlap-dropped" — they were never
        // eligible.
        let items = vec![item(&[0], -3), item(&[1], 0), item(&[2], 2)];
        let (picked, stats) = select_nonoverlapping(&items, 3);
        assert_eq!(picked, vec![false, false, true]);
        assert_eq!(stats.selected_weight, 2);
        assert_eq!(stats.dropped_overlap, 0);
    }

    #[test]
    fn selected_gains_add_up_exactly() {
        // Chain of pairwise overlaps: 1-2, 2-3, 3-4. Optimal is {1,3} or
        // alternating sets; whatever is chosen, claims must be disjoint.
        let items = vec![
            item(&[0, 1], 3),
            item(&[1, 2], 4),
            item(&[2, 3], 3),
            item(&[3, 4], 4),
        ];
        let (picked, stats) = select_nonoverlapping(&items, 5);
        let mut seen = std::collections::HashSet::new();
        for (i, &p) in picked.iter().enumerate() {
            if p {
                for &s in &items[i].claims {
                    assert!(seen.insert(s), "slot {s} claimed twice");
                }
            }
        }
        assert_eq!(stats.selected_weight, 8, "picks the two weight-4 items");
    }
}
