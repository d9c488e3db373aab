//! The crate's one cid-to-state map: the driver files each command in
//! flight under its cid, and the reactor files each parked future under the
//! same cid.

/// Fixed-layout table keyed by a queue's command ids: a dense slab of
/// `(cid, T)` slots addressed through a cid→slot index. Lookups, inserts
/// and removals never hash and never allocate in steady state (slots and
/// the free list retain capacity), and iteration order is the deterministic
/// slot order — no randomized-hash order can reach completion or reap
/// ordering.
#[derive(Debug)]
pub(crate) struct InflightTable<T> {
    /// By a cid's low bits: the slot index + 1 of the entry whose cid has
    /// them, 0 for none. A power of two long, from [`INDEX_MIN`] entries on
    /// the first insert; doubled only when two cids in the table share
    /// their low bits, which cannot happen while the cids in the table span
    /// fewer values than the index has entries.
    slot_of_cid: Vec<u32>,
    /// Dense slot storage; `None` entries are on the free list.
    slots: Vec<Option<(u16, T)>>,
    /// Recycled slot indices.
    free: Vec<u32>,
    /// Live entry count.
    live: usize,
}

/// Entries of a fresh [`InflightTable`] index (256 B).
const INDEX_MIN: usize = 64;

impl<T> Default for InflightTable<T> {
    fn default() -> Self {
        InflightTable {
            slot_of_cid: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }
}

impl<T> InflightTable<T> {
    pub(crate) fn contains(&self, cid: u16) -> bool {
        self.slot(cid).is_some()
    }

    /// The first cid from `*next` on (wrapping) that is not in the table;
    /// `*next` moves past it. `None` only when all 65 536 are taken.
    pub(crate) fn next_free_cid(&self, next: &mut u16) -> Option<u16> {
        (0..=u16::MAX).find_map(|_| {
            let cid = *next;
            *next = next.wrapping_add(1);
            (!self.contains(cid)).then_some(cid)
        })
    }

    /// Where `cid` sits in the index. The index is never empty once
    /// something was inserted, and a lookup before that finds no slot.
    fn position(&self, cid: u16) -> usize {
        cid as usize & self.slot_of_cid.len().wrapping_sub(1)
    }

    /// The slot of `cid`, if it is in the table.
    fn slot(&self, cid: u16) -> Option<usize> {
        let slot = self.slot_of_cid.get(self.position(cid))?.checked_sub(1)? as usize;
        match self.slots.get(slot)? {
            Some((stored, _)) if *stored == cid => Some(slot),
            _ => None,
        }
    }

    pub(crate) fn get(&self, cid: u16) -> Option<&T> {
        self.slots[self.slot(cid)?].as_ref().map(|(_, v)| v)
    }

    pub(crate) fn get_mut(&mut self, cid: u16) -> Option<&mut T> {
        let slot = self.slot(cid)?;
        self.slots[slot].as_mut().map(|(_, v)| v)
    }

    pub(crate) fn insert(&mut self, cid: u16, value: T) {
        debug_assert!(!self.contains(cid), "cid {cid} already in the table");
        if self.slot_of_cid.is_empty() {
            self.slot_of_cid = vec![0; INDEX_MIN];
        }
        // At the full cid space every cid has a position of its own.
        while self.slot_of_cid[self.position(cid)] != 0 && self.slot_of_cid.len() < 1 << 16 {
            self.widen();
        }
        let slot = match self.free.pop() {
            Some(slot) => {
                // Free-list entries index slots pushed below.
                self.slots[slot as usize] = Some((cid, value));
                slot
            }
            None => {
                self.slots.push(Some((cid, value)));
                (self.slots.len() - 1) as u32
            }
        };
        let at = self.position(cid);
        self.slot_of_cid[at] = slot + 1;
        self.live += 1;
    }

    /// Doubles the index and files every entry again.
    fn widen(&mut self) {
        self.slot_of_cid = vec![0; self.slot_of_cid.len() * 2];
        let mask = self.slot_of_cid.len() - 1;
        for (slot, entry) in self.slots.iter().enumerate() {
            if let Some((cid, _)) = entry {
                self.slot_of_cid[*cid as usize & mask] = slot as u32 + 1;
            }
        }
    }

    pub(crate) fn remove(&mut self, cid: u16) -> Option<T> {
        let slot = self.slot(cid)?;
        let at = self.position(cid);
        self.slot_of_cid[at] = 0;
        let (_, value) = self.slots[slot].take()?;
        self.free.push(slot as u32);
        self.live -= 1;
        Some(value)
    }

    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Live entries in slot order (deterministic; callers that need cid
    /// order sort the cids they collect).
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u16, &T)> {
        self.slots
            .iter()
            .filter_map(|slot| slot.as_ref().map(|(cid, v)| (*cid, v)))
    }

    /// Every live entry's value, consuming the table.
    pub(crate) fn into_values(self) -> impl Iterator<Item = T> {
        self.slots.into_iter().flatten().map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// The parent's in-flight table: a cid→slot index over the full cid
    /// space, as the reference for the low-bits index.
    #[derive(Default)]
    struct FullTable {
        slot_of_cid: Vec<u32>,
        slots: Vec<Option<(u16, u64)>>,
        free: Vec<u32>,
        live: usize,
    }

    impl FullTable {
        fn contains(&self, cid: u16) -> bool {
            self.slot_of_cid
                .get(cid as usize)
                .is_some_and(|&slot| slot > 0)
        }

        fn insert(&mut self, cid: u16, tag: u64) {
            if self.slot_of_cid.is_empty() {
                self.slot_of_cid = vec![0; 1 << 16];
            }
            let slot = match self.free.pop() {
                Some(slot) => {
                    self.slots[slot as usize] = Some((cid, tag));
                    slot
                }
                None => {
                    self.slots.push(Some((cid, tag)));
                    (self.slots.len() - 1) as u32
                }
            };
            self.slot_of_cid[cid as usize] = slot + 1;
            self.live += 1;
        }

        fn remove(&mut self, cid: u16) -> Option<u64> {
            let indexed = self.slot_of_cid.get_mut(cid as usize)?;
            let slot = indexed.checked_sub(1)?;
            *indexed = 0;
            let (_, tag) = self.slots[slot as usize].take()?;
            self.free.push(slot);
            self.live -= 1;
            Some(tag)
        }

        fn iter(&self) -> impl Iterator<Item = (u16, u64)> + '_ {
            self.slots.iter().flatten().copied()
        }

        /// `next_free_cid` over this table.
        fn alloc_cid(&self, next_cid: &mut u16) -> u16 {
            loop {
                let cid = *next_cid;
                *next_cid = next_cid.wrapping_add(1);
                if !self.contains(cid) {
                    return cid;
                }
            }
        }
    }

    #[test]
    fn the_index_widens_only_when_two_cids_in_flight_share_low_bits() {
        let mut t = InflightTable::default();
        assert!(t.get(0).is_none() && t.remove(0).is_none(), "empty");
        t.insert(3, 3u64);
        t.insert(3 + 63, 66);
        assert_eq!(t.slot_of_cid.len(), INDEX_MIN);
        assert!(t.get(3 + 64).is_none(), "same low bits, not in the table");
        t.insert(3 + 64, 67);
        assert_eq!(t.slot_of_cid.len(), 2 * INDEX_MIN);
        t.insert(3 + 4 * 64, 259);
        assert_eq!(t.slot_of_cid.len(), 8 * INDEX_MIN);
        for cid in [3, 66, 67, 259] {
            assert_eq!(t.get(cid), Some(&(cid as u64)));
        }
        *t.get_mut(66).unwrap() += 1000;
        assert_eq!(t.remove(66), Some(1066));
        assert_eq!(t.remove(67), Some(67));
        assert!(t.get(67).is_none() && t.get(3).is_some());
        assert_eq!(t.into_values().collect::<Vec<_>>(), [3, 259]);
    }

    proptest::proptest! {
        /// The low-bits index against the full-space table and a map model,
        /// over insertions, removals in any order, bursts that run the cids
        /// far past stragglers (widening the index), jumps of the next cid
        /// (wrapping it), and removals of cids not in the table: the same
        /// cids handed out, the same lookups, the same slot order.
        #[test]
        fn inflight_table_matches_the_full_index(
            ops in proptest::collection::vec((0u8..6, proptest::prelude::any::<u16>()), 1..120),
        ) {
            let (mut table, mut next) = (InflightTable::default(), 0u16);
            let (mut full, mut full_next) = (FullTable::default(), 0u16);
            let mut model = BTreeMap::new();
            let mut tag = 0u64;
            let mut submit = |table: &mut InflightTable<u64>, next: &mut u16, full: &mut FullTable, full_next: &mut u16, model: &mut BTreeMap<u16, u64>| {
                let cid = table.next_free_cid(next).unwrap();
                assert_eq!(cid, full.alloc_cid(full_next));
                tag += 1;
                table.insert(cid, tag);
                full.insert(cid, tag);
                model.insert(cid, tag);
                cid
            };
            for (op, arg) in ops {
                match op {
                    0 | 1 => {
                        submit(&mut table, &mut next, &mut full, &mut full_next, &mut model);
                    }
                    2 if !model.is_empty() => {
                        let cid = *model.keys().nth(arg as usize % model.len()).unwrap();
                        let want = model.remove(&cid);
                        assert_eq!(full.remove(cid), want);
                        assert_eq!(table.remove(cid), want);
                    }
                    3 => {
                        for _ in 0..arg % 300 {
                            let cid = submit(&mut table, &mut next, &mut full, &mut full_next, &mut model);
                            model.remove(&cid);
                            full.remove(cid);
                            table.remove(cid);
                        }
                    }
                    4 => {
                        next = arg;
                        full_next = arg;
                    }
                    _ => {
                        let want = model.remove(&arg);
                        assert_eq!(full.remove(arg), want);
                        assert_eq!(table.remove(arg), want);
                    }
                }
                assert_eq!(table.len(), model.len());
                assert_eq!(full.live, model.len());
                let order: Vec<(u16, u64)> = table.iter().map(|(cid, &t)| (cid, t)).collect();
                assert_eq!(order, full.iter().collect::<Vec<_>>(), "slot order");
                for (&cid, &want) in &model {
                    assert_eq!(table.get(cid), Some(&want));
                }
                for probe in [arg, arg.wrapping_add(64), arg ^ 0x8000] {
                    assert_eq!(table.contains(probe), model.contains_key(&probe));
                }
            }
        }
    }
}
