//! Dense per-object tables.
//!
//! A node keeps some state for every object it hosts, and it hosts every
//! object of the deployment from the start, so a per-object map holds one
//! entry per object for the whole run. [`ObjectTable`] stores those entries
//! in one vector of `(id, entry)` pairs in ascending [`ObjectId`] order: a
//! lookup in a dense run of ids reads only the wanted slot (the table keeps
//! its first id beside the vector), any other lookup is one binary search,
//! a walk visits objects in id order, and the table costs one allocation
//! plus its entries and eight bytes an object, instead of a B-tree's node
//! slack.

use crate::ObjectId;

/// A map from [`ObjectId`] to `V`, held as one vector sorted by id (see
/// the module docs). Inserting a new id shifts the entries behind it, so
/// the table suits key sets that are fixed up front and rarely grow.
///
/// The id in slot 0 is kept beside the vector as well: a lookup derives
/// the slot an id would have in a dense run from it, so a hit reads the
/// one `(id, entry)` pair it wants and never the cache line of slot 0.
#[derive(Debug, Clone)]
pub struct ObjectTable<V> {
    /// The id in slot 0; meaningless while the table is empty.
    first: ObjectId,
    slots: Vec<(ObjectId, V)>,
}

impl<V> ObjectTable<V> {
    /// An empty table with room for `n` objects.
    pub fn with_capacity(n: usize) -> Self {
        ObjectTable { first: ObjectId(0), slots: Vec::with_capacity(n) }
    }

    /// Number of objects in the table.
    #[inline]
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Where `id` sits: `Ok(slot)` when present, `Err(slot)` where it
    /// would be inserted otherwise.
    ///
    /// A node's ids are usually one dense run (objects `1..=n` on one
    /// shard), so the slot `id` would have in such a run — its distance
    /// from the stored first id — is tried first: that probe touches only
    /// the entry the caller wants anyway, where a binary search over
    /// entries this wide misses the cache once per step.
    #[inline]
    pub fn find(&self, id: ObjectId) -> Result<usize, usize> {
        let guess = id.0.wrapping_sub(self.first.0) as usize;
        if self.slots.get(guess).is_some_and(|&(k, _)| k == id) {
            return Ok(guess);
        }
        self.slots.binary_search_by_key(&id, |&(k, _)| k)
    }

    /// The entry of `id`, if present.
    #[inline]
    pub fn get(&self, id: ObjectId) -> Option<&V> {
        self.find(id).ok().map(|i| &self.slots[i].1)
    }

    /// The entry of `id` for mutation, if present.
    #[inline]
    pub fn get_mut(&mut self, id: ObjectId) -> Option<&mut V> {
        self.find(id).ok().map(|i| &mut self.slots[i].1)
    }

    /// The entry in `slot` (an index [`ObjectTable::find`] returned).
    #[inline]
    pub fn slot(&self, slot: usize) -> &V {
        &self.slots[slot].1
    }

    /// The entry in `slot` for mutation.
    #[inline]
    pub fn slot_mut(&mut self, slot: usize) -> &mut V {
        &mut self.slots[slot].1
    }

    /// Inserts `value` for `id` at `slot`, the `Err` position
    /// [`ObjectTable::find`] returned for it.
    ///
    /// # Panics
    /// Panics when `slot` would break the id order (including when `id`
    /// is already present).
    pub fn insert_at(&mut self, slot: usize, id: ObjectId, value: V) {
        let after = slot.checked_sub(1).map(|i| self.slots[i].0);
        let before = self.slots.get(slot).map(|&(k, _)| k);
        assert!(
            after.is_none_or(|k| k < id) && before.is_none_or(|k| id < k),
            "{id} does not belong in slot {slot}"
        );
        self.slots.insert(slot, (id, value));
        if slot == 0 {
            self.first = id;
        }
    }

    /// The ids, ascending.
    pub fn ids(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.slots.iter().map(|&(k, _)| k)
    }

    /// `(id, entry)` pairs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, &V)> + '_ {
        self.slots.iter().map(|(k, v)| (*k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Adds `v` to the entry of `id`, inserting a zero entry first.
    fn add(t: &mut ObjectTable<u64>, id: ObjectId, v: u64) {
        let slot = t.find(id).unwrap_or_else(|slot| {
            t.insert_at(slot, id, 0);
            slot
        });
        *t.slot_mut(slot) += v;
    }

    #[test]
    fn inserts_keep_id_order() {
        let mut t = ObjectTable::with_capacity(3);
        for id in [5, 1, 3] {
            add(&mut t, ObjectId(id), id);
        }
        add(&mut t, ObjectId(3), 1);
        assert_eq!(
            t.iter().collect::<Vec<_>>(),
            [(ObjectId(1), &1), (ObjectId(3), &4), (ObjectId(5), &5)]
        );
        assert_eq!(t.find(ObjectId(4)), Err(2));
        t.insert_at(2, ObjectId(4), 9);
        assert_eq!(t.ids().collect::<Vec<_>>(), [1, 3, 4, 5].map(ObjectId));
        assert_eq!(t.get(ObjectId(4)), Some(&9));
        assert_eq!(t.get(ObjectId(2)), None);
    }

    #[test]
    #[should_panic(expected = "does not belong")]
    fn insert_at_rejects_a_misplaced_id() {
        let mut t = ObjectTable::with_capacity(2);
        t.insert_at(0, ObjectId(2), ());
        t.insert_at(0, ObjectId(7), ());
    }

    proptest! {
        /// The table against a `BTreeMap` under random insert and lookup
        /// orders, dense runs and gaps alike: same entries, same slots,
        /// same id-ordered walk.
        #[test]
        fn matches_a_btreemap(ops in prop::collection::vec((0u64..40, 0u64..100), 0..200)) {
            let mut table = ObjectTable::with_capacity(0);
            let mut model = BTreeMap::new();
            for (id, v) in ops {
                let id = ObjectId(id);
                if v % 3 == 0 {
                    prop_assert_eq!(table.get(id), model.get(&id));
                    let below = model.range(..id).count();
                    let want = if model.contains_key(&id) { Ok(below) } else { Err(below) };
                    prop_assert_eq!(table.find(id), want);
                } else {
                    add(&mut table, id, v);
                    *model.entry(id).or_insert(0) += v;
                }
            }
            prop_assert_eq!(table.len(), model.len());
            prop_assert!(table.iter().eq(model.iter().map(|(k, v)| (*k, v))));
        }

        /// A dense run grown at slot 0, in its gaps and at its end: after
        /// every insert the stored first id is the smallest one, and every
        /// id around the run is found where a `BTreeMap` ranks it.
        #[test]
        fn find_follows_the_first_id_through_inserts(
            base in 0u64..1_000,
            len in 0u64..24,
            inserts in prop::collection::vec((0u8..3, 0u64..6), 0..40),
        ) {
            let mut table = ObjectTable::with_capacity(0);
            let mut model = BTreeMap::new();
            // Every other id of the run stays free for the middle inserts.
            for k in 0..len {
                let id = ObjectId(base + 2 * k);
                add(&mut table, id, k);
                model.insert(id, k);
            }
            for (i, (place, gap)) in inserts.into_iter().enumerate() {
                let (lo, hi) = match (model.keys().next(), model.keys().last()) {
                    (Some(lo), Some(hi)) => (lo.0, hi.0),
                    _ => (base, base),
                };
                let id = match place {
                    0 => lo.checked_sub(1 + gap),
                    1 => Some(hi + 1 + gap),
                    _ => (lo..hi).find(|&k| !model.contains_key(&ObjectId(k))),
                };
                let Some(id) = id.map(ObjectId) else { continue };
                let slot = model.range(..id).count();
                prop_assert_eq!(table.find(id), Err(slot));
                table.insert_at(slot, id, i as u64);
                model.insert(id, i as u64);
                prop_assert_eq!(Some(&table.first), model.keys().next());
                let (lo, hi) = (model.keys().next().unwrap().0, model.keys().last().unwrap().0);
                for k in lo.saturating_sub(2)..hi + 3 {
                    let k = ObjectId(k);
                    let below = model.range(..k).count();
                    let want = if model.contains_key(&k) { Ok(below) } else { Err(below) };
                    prop_assert_eq!(table.find(k), want);
                    prop_assert_eq!(table.get(k), model.get(&k));
                }
            }
        }
    }
}
