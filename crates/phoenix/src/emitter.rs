//! Intermediate pair emission.
//!
//! Each map worker owns one [`Emitter`]. Emitted pairs are hash-partitioned
//! across the configured number of reduce partitions by the hash a key is
//! given once, by [`WordState`], and carries on through reduce. When the
//! job declares a combiner, pairs are folded eagerly into a per-partition
//! hash map instead of being buffered, which is what keeps Word Count's
//! intermediate footprint bounded by the number of *distinct* words per
//! fragment rather than the number of word occurrences.
//!
//! From `emit` until something has to outlive the job input a key is an
//! [`InterKey`]: owned, or — for keys that are text of the job input
//! ([`Emitter::emit_ref`]) — a slice of that input, so that nothing is
//! allocated per worker, per chunk or per fragment for it (DESIGN.md §19).

use crate::hash::{Hashed, PassThrough, WordState};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};

/// An intermediate pair as the emitter and reduce hold it.
pub(crate) type Pair<'i, K, V> = (Hashed<InterKey<'i, K>>, V);

/// Associative fold over values, implemented by jobs that declare a
/// combiner. Object-safe so the emitter can hold a borrowed reference
/// without knowing the job type.
pub trait CombineFn<V>: Sync {
    /// `acc := acc ⊕ next`.
    fn fold(&self, acc: &mut V, next: V);
}

impl<J: crate::job::Job> CombineFn<J::Value> for J {
    fn fold(&self, acc: &mut J::Value, next: J::Value) {
        self.combine(acc, next)
    }
}

/// How an owned key type stands for text: its [`Borrow<str>`] view — under
/// which, by `Borrow`'s contract, it hashes and orders like the text — its
/// constructor and its refill in place, captured as plain functions by
/// [`Emitter::emit_ref`], the one place that knows the bounds, so the
/// bound-free runtime and Merge functions can compare and materialise keys.
pub struct TextKey<K> {
    view: fn(&K) -> &str,
    own: fn(&str) -> K,
    refill: fn(&str, &mut K),
}

// By hand: three function pointers copy whatever `K` is.
impl<K> Clone for TextKey<K> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<K> Copy for TextKey<K> {}

impl<K: Borrow<str>> TextKey<K>
where
    str: ToOwned<Owned = K>,
{
    /// One table per key type, promoted to a static: an [`InterKey::Input`]
    /// — every combining-table entry is an `InterKey` — holds one pointer.
    pub(crate) const TABLE: Self = TextKey {
        view: <K as Borrow<str>>::borrow,
        own: str::to_owned,
        refill: str::clone_into,
    };
}

/// An intermediate key: what a pair is keyed on from `emit` until the owned
/// key has to outlive the job input — in the output of
/// [`Runtime::run`](crate::runtime::Runtime::run), or in a
/// [`Merger`](crate::partition::Merger) the first time it sees the key.
pub enum InterKey<'i, K> {
    /// Owned from the start ([`Emitter::emit`]).
    Owned(K),
    /// Text of the job input ([`Emitter::emit_ref`]).
    Input(&'i str, &'i TextKey<K>),
}

impl<K: Ord> InterKey<'_, K> {
    /// The owned key; for input text, its one allocation.
    pub fn into_owned(self) -> K {
        match self {
            InterKey::Owned(key) => key,
            InterKey::Input(text, as_text) => (as_text.own)(text),
        }
    }

    /// The key by reference, as [`Job::reduce`](crate::job::Job::reduce)
    /// takes it: input text is copied into `scratch`, whose allocation is
    /// reused from key to key.
    pub(crate) fn key_in<'s>(&'s self, scratch: &'s mut Option<K>) -> &'s K {
        match (self, scratch) {
            (InterKey::Owned(key), _) => key,
            (InterKey::Input(text, as_text), Some(key)) => {
                (as_text.refill)(text, key);
                key
            }
            (InterKey::Input(text, as_text), scratch) => scratch.insert((as_text.own)(text)),
        }
    }

    /// How this key orders against an owned one, without owning it.
    pub fn cmp_key(&self, key: &K) -> Ordering {
        match self {
            InterKey::Owned(own) => own.cmp(key),
            InterKey::Input(text, as_text) => (*text).cmp((as_text.view)(key)),
        }
    }
}

impl<K: Ord> Ord for InterKey<'_, K> {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (_, InterKey::Owned(key)) => self.cmp_key(key),
            (InterKey::Owned(key), _) => other.cmp_key(key).reverse(),
            (InterKey::Input(a, _), InterKey::Input(b, _)) => a.cmp(b),
        }
    }
}

impl<K: Ord> PartialOrd for InterKey<'_, K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K: Ord> PartialEq for InterKey<'_, K> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<K: Ord> Eq for InterKey<'_, K> {}

impl<K: Hash> Hash for InterKey<'_, K> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            InterKey::Owned(key) => key.hash(state),
            InterKey::Input(text, _) => text.hash(state),
        }
    }
}

enum Buffers<'i, K, V> {
    /// Plain append buffers, one per reduce partition.
    Plain(Vec<Vec<Pair<'i, K, V>>>),
    /// Eagerly-combined maps, one per reduce partition.
    Combining(Vec<HashMap<Hashed<InterKey<'i, K>>, V, PassThrough>>),
}

/// Per-worker sink for intermediate `(key, value)` pairs.
pub struct Emitter<'i, K, V> {
    buffers: Buffers<'i, K, V>,
    combiner: Option<&'i dyn CombineFn<V>>,
    /// The job input's text [`Emitter::emit_ref`] recognises its keys in.
    input: &'i str,
    emitted: u64,
}

impl<'i, K: Ord + Hash + Clone, V> Emitter<'i, K, V> {
    /// An emitter with `partitions` plain buffers (no combiner).
    pub fn new(partitions: usize) -> Self {
        assert!(partitions > 0, "emitter needs at least one partition");
        Emitter {
            buffers: Buffers::Plain((0..partitions).map(|_| Vec::new()).collect()),
            combiner: None,
            input: "",
            emitted: 0,
        }
    }

    /// An emitter that folds pairs with equal keys using `combiner`.
    pub fn with_combiner(partitions: usize, combiner: &'i dyn CombineFn<V>) -> Self {
        assert!(partitions > 0, "emitter needs at least one partition");
        Emitter {
            buffers: Buffers::Combining((0..partitions).map(|_| HashMap::default()).collect()),
            combiner: Some(combiner),
            input: "",
            emitted: 0,
        }
    }

    /// The same emitter over the job input's valid UTF-8 prefix `input` —
    /// keys [`Emitter::emit_ref`] finds inside it stay borrowed from it —
    /// with room in each combining table for `table_keys` keys from the
    /// start.
    pub(crate) fn over(mut self, input: &'i str, table_keys: usize) -> Self {
        self.input = input;
        if let Buffers::Combining(maps) = &mut self.buffers {
            maps.iter_mut().for_each(|map| map.reserve(table_keys));
        }
        self
    }

    /// Number of reduce partitions.
    pub fn partitions(&self) -> usize {
        match &self.buffers {
            Buffers::Plain(v) => v.len(),
            Buffers::Combining(v) => v.len(),
        }
    }

    /// Emit one intermediate pair.
    pub fn emit(&mut self, key: K, value: V) {
        self.push(InterKey::Owned(key), value)
    }

    /// Emit one intermediate pair whose key is text, without allocating
    /// for it when `key` is a slice of the job input (a word of the chunk
    /// being mapped): such a key is found again in the input by its
    /// address — as `bytes::Bytes::slice_ref` finds a sub-slice — and held
    /// as that slice until the run's output or the Merge function keeps it
    /// — at most one allocation per distinct key per job. Any other `key`
    /// is copied at once, as by [`Emitter::emit`]. Either way it groups
    /// with every equal key, however emitted.
    pub fn emit_ref(&mut self, key: &str, value: V)
    where
        K: Borrow<str>,
        str: ToOwned<Owned = K>,
    {
        let in_input = (key.as_ptr() as usize)
            .checked_sub(self.input.as_ptr() as usize)
            .and_then(|start| self.input.get(start..start.checked_add(key.len())?));
        let key = match in_input {
            Some(text) => InterKey::Input(text, &TextKey::TABLE),
            None => InterKey::Owned(key.to_owned()),
        };
        self.push(key, value)
    }

    fn push(&mut self, key: InterKey<'i, K>, value: V) {
        self.emitted += 1;
        let hash = WordState::default().hash_one(&key);
        // From bits a combining table uses for neither its bucket (the low
        // ones) nor its 7-bit tag (the top ones).
        let p = ((u64::from((hash >> 24) as u32) * self.partitions() as u64) >> 32) as usize;
        let key = Hashed { hash, key };
        match &mut self.buffers {
            Buffers::Plain(bufs) => bufs[p].push((key, value)),
            Buffers::Combining(maps) => match maps[p].entry(key) {
                // `with_combiner` is the only constructor that builds
                // `Buffers::Combining`, and it always sets `combiner`; the
                // last-write-wins fallback is unreachable but keeps the
                // hot emit path panic-free.
                Entry::Occupied(mut e) => match self.combiner {
                    Some(combiner) => combiner.fold(e.get_mut(), value),
                    None => *e.get_mut() = value,
                },
                Entry::Vacant(e) => {
                    e.insert(value);
                }
            },
        }
    }

    /// Total pairs emitted (before combining).
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Number of pairs currently buffered (after combining).
    pub fn buffered(&self) -> usize {
        match &self.buffers {
            Buffers::Plain(v) => v.iter().map(Vec::len).sum(),
            Buffers::Combining(v) => v.iter().map(HashMap::len).sum(),
        }
    }

    /// Drain the emitter into per-partition pair vectors.
    pub(crate) fn into_partitions(self) -> Vec<Vec<Pair<'i, K, V>>> {
        match self.buffers {
            Buffers::Plain(v) => v,
            Buffers::Combining(v) => v.into_iter().map(|m| m.into_iter().collect()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Summer;
    impl CombineFn<u64> for Summer {
        fn fold(&self, acc: &mut u64, next: u64) {
            *acc += next;
        }
    }

    fn owned_pairs(e: Emitter<'_, String, u64>) -> Vec<(String, u64)> {
        let pairs = e.into_partitions().into_iter().flatten();
        pairs.map(|(k, v)| (k.key.into_owned(), v)).collect()
    }

    #[test]
    fn plain_emitter_buffers_everything() {
        let mut e: Emitter<'_, String, u64> = Emitter::new(4);
        e.emit("a".into(), 1);
        e.emit("a".into(), 1);
        e.emit("b".into(), 1);
        assert_eq!(e.emitted(), 3);
        assert_eq!(e.buffered(), 3);
        let parts = e.into_partitions();
        assert_eq!(parts.len(), 4);
        let total: usize = parts.iter().map(Vec::len).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn same_key_lands_in_same_partition() {
        let mut e: Emitter<'_, String, u64> = Emitter::new(8);
        for _ in 0..10 {
            e.emit("stable".into(), 1);
        }
        let parts = e.into_partitions();
        let nonempty = parts.iter().filter(|p| !p.is_empty()).count();
        assert_eq!(nonempty, 1);
        let total: usize = parts.iter().map(Vec::len).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn combining_emitter_folds_duplicates() {
        let summer = Summer;
        let mut e: Emitter<'_, String, u64> = Emitter::with_combiner(4, &summer);
        for _ in 0..100 {
            e.emit("x".into(), 1);
        }
        e.emit("y".into(), 5);
        assert_eq!(e.emitted(), 101);
        assert_eq!(e.buffered(), 2);
        let mut sorted = owned_pairs(e);
        sorted.sort();
        assert_eq!(sorted, vec![("x".into(), 100), ("y".into(), 5)]);
    }

    #[test]
    fn emit_ref_borrows_input_text_and_copies_anything_else() {
        let text = "red green red";
        let mut e: Emitter<'_, String, u64> = Emitter::new(1).over(text, 0);
        e.emit_ref(&text[..3], 1);
        e.emit_ref(&String::from("red"), 1);
        let keys: Vec<_> = e.into_partitions().remove(0);
        assert!(matches!(keys[0].0.key, InterKey::Input("red", _)));
        assert!(matches!(&keys[1].0.key, InterKey::Owned(k) if k == "red"));
        assert_eq!(keys[0].0.hash, keys[1].0.hash);
        // Without an input to find it in, every key is copied.
        let mut e: Emitter<'_, String, u64> = Emitter::new(1);
        e.emit_ref(&text[..3], 1);
        assert!(matches!(
            e.into_partitions()[0][0].0.key,
            InterKey::Owned(_)
        ));
    }

    #[test]
    fn borrowed_and_owned_forms_of_a_key_are_one_key() {
        let text = "red green red";
        let summer = Summer;
        let mut e: Emitter<'_, String, u64> = Emitter::with_combiner(4, &summer).over(text, 0);
        e.emit("red".into(), 1);
        e.emit_ref(&text[..3], 1);
        e.emit_ref(&text[4..9], 1);
        e.emit("green".into(), 1);
        e.emit_ref(&text[10..], 1);
        assert_eq!((e.emitted(), e.buffered()), (5, 2));
        let mut sorted = owned_pairs(e);
        sorted.sort();
        assert_eq!(sorted, vec![("green".into(), 2), ("red".into(), 3)]);
        // Order agrees across the two forms, as reduce's grouping needs
        // (the hash laws are `hash.rs`' tests).
        let borrowed: InterKey<'_, String> = InterKey::Input("red", &TextKey::TABLE);
        let owned = InterKey::Owned(String::from("red"));
        assert_eq!(borrowed.cmp(&owned), Ordering::Equal);
        assert!(borrowed > InterKey::Owned(String::from("green")));
    }

    #[test]
    fn input_text_is_one_pointer_wide_and_refills_one_scratch_key() {
        // Every combining-table entry is an `InterKey`: `TextKey`'s
        // functions stored inline would widen them all.
        assert_eq!(std::mem::size_of::<InterKey<'_, String>>(), 32);
        let green: InterKey<'_, String> = InterKey::Input("green", &TextKey::TABLE);
        let red: InterKey<'_, String> = InterKey::Input("red", &TextKey::TABLE);
        let mut scratch = None;
        assert_eq!(green.key_in(&mut scratch), "green");
        let allocation = scratch.as_ref().map(|key| key.as_ptr());
        assert_eq!(red.key_in(&mut scratch), "red");
        let refilled = scratch.as_ref().map(|key| key.as_ptr());
        assert_eq!(refilled, allocation, "refilled in place, not rebuilt");
        // An owned key is shown as it is and leaves the scratch alone.
        let blue = InterKey::Owned(String::from("blue"));
        assert_eq!(blue.key_in(&mut scratch), "blue");
        assert_eq!(scratch.as_deref(), Some("red"));
        assert_eq!(red.cmp_key(&String::from("red")), Ordering::Equal);
        assert_eq!(blue.cmp_key(&String::from("red")), Ordering::Less);
    }

    #[test]
    fn keys_spread_over_every_partition() {
        let mut e: Emitter<'_, u64, u64> = Emitter::new(5);
        for i in 0..1000 {
            e.emit(i, i);
        }
        assert!(e.into_partitions().iter().all(|p| p.len() > 100));
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn zero_partitions_panics() {
        let _e: Emitter<'_, u8, u8> = Emitter::new(0);
    }

    #[test]
    fn single_partition_gets_all_keys() {
        let mut e: Emitter<'_, u32, u32> = Emitter::new(1);
        for i in 0..50 {
            e.emit(i, i);
        }
        let parts = e.into_partitions();
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].len(), 50);
    }
}
