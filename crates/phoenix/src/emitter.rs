//! Intermediate pair emission.
//!
//! Each map worker owns one [`Emitter`]. Emitted pairs are hash-partitioned
//! across the configured number of reduce partitions; a stable (per-build
//! deterministic) hash is used so every worker agrees on the partition of a
//! key. When the job declares a combiner, pairs are folded eagerly into a
//! per-partition hash map instead of being buffered, which is what keeps
//! Word Count's intermediate footprint bounded by the number of *distinct*
//! words per fragment rather than the number of word occurrences.
//!
//! Between `emit` and reduce a key is an `InterKey`: owned, or — for keys
//! that are text of the job input ([`Emitter::emit_ref`]) — a slice of that
//! input, so that nothing is allocated per worker or per chunk for it
//! (DESIGN.md §19).

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Stable hash used for partitioning keys across reduce partitions.
///
/// `DefaultHasher::new()` uses fixed keys, so the value is deterministic
/// within a build — all workers agree, and repeated runs of a binary
/// partition identically.
pub fn partition_hash<K: Hash>(key: &K) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

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
/// which, by `Borrow`'s contract, it hashes and orders like the text — and
/// its constructor. [`Emitter::emit_ref`], the one place that knows the
/// bounds, captures them as plain functions, so the bound-free runtime can
/// still compare and materialise such keys.
pub(crate) struct TextKey<K> {
    view: fn(&K) -> &str,
    own: fn(&str) -> K,
}

/// An intermediate key: what a pair is keyed on from `emit` until reduce
/// has grouped it and needs the owned key.
pub(crate) enum InterKey<'i, K> {
    /// Owned from the start ([`Emitter::emit`]).
    Owned(K),
    /// Text of the job input ([`Emitter::emit_ref`]).
    Input(&'i str, TextKey<K>),
}

impl<K> InterKey<'_, K> {
    /// The owned key; for input text, its one allocation.
    pub(crate) fn into_owned(self) -> K {
        match self {
            InterKey::Owned(key) => key,
            InterKey::Input(text, as_text) => (as_text.own)(text),
        }
    }
}

impl<K: Ord> Ord for InterKey<'_, K> {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (InterKey::Owned(a), InterKey::Owned(b)) => a.cmp(b),
            (InterKey::Owned(a), InterKey::Input(b, as_text)) => (as_text.view)(a).cmp(b),
            (InterKey::Input(a, as_text), InterKey::Owned(b)) => (*a).cmp((as_text.view)(b)),
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
    Plain(Vec<Vec<(InterKey<'i, K>, V)>>),
    /// Eagerly-combined maps, one per reduce partition.
    Combining(Vec<HashMap<InterKey<'i, K>, V>>),
}

/// Per-worker sink for intermediate `(key, value)` pairs.
pub struct Emitter<'i, K, V> {
    buffers: Buffers<'i, K, V>,
    combiner: Option<&'i dyn CombineFn<V>>,
    /// The job input [`Emitter::emit_ref`] recognises its keys in.
    input: &'i [u8],
    emitted: u64,
}

impl<'i, K: Ord + Hash + Clone, V> Emitter<'i, K, V> {
    /// An emitter with `partitions` plain buffers (no combiner).
    pub fn new(partitions: usize) -> Self {
        assert!(partitions > 0, "emitter needs at least one partition");
        Emitter {
            buffers: Buffers::Plain((0..partitions).map(|_| Vec::new()).collect()),
            combiner: None,
            input: &[],
            emitted: 0,
        }
    }

    /// An emitter that folds pairs with equal keys using `combiner`.
    pub fn with_combiner(partitions: usize, combiner: &'i dyn CombineFn<V>) -> Self {
        assert!(partitions > 0, "emitter needs at least one partition");
        Emitter {
            buffers: Buffers::Combining((0..partitions).map(|_| HashMap::new()).collect()),
            combiner: Some(combiner),
            input: &[],
            emitted: 0,
        }
    }

    /// The same emitter over the job input `input`: keys
    /// [`Emitter::emit_ref`] finds inside it stay borrowed from it.
    pub(crate) fn over(mut self, input: &'i [u8]) -> Self {
        self.input = input;
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
    /// as that slice until reduce has grouped it, one allocation per
    /// distinct key. Any other `key` is copied at once, as by
    /// [`Emitter::emit`]. Either way it groups with every equal key,
    /// however emitted.
    pub fn emit_ref(&mut self, key: &str, value: V)
    where
        K: Borrow<str> + for<'a> From<&'a str>,
    {
        let in_input = (key.as_ptr() as usize)
            .checked_sub(self.input.as_ptr() as usize)
            .and_then(|start| self.input.get(start..start.checked_add(key.len())?))
            .and_then(|bytes| std::str::from_utf8(bytes).ok());
        let key = match in_input {
            Some(text) => {
                let as_text = TextKey {
                    view: <K as Borrow<str>>::borrow,
                    own: |text: &str| K::from(text),
                };
                InterKey::Input(text, as_text)
            }
            None => InterKey::Owned(K::from(key)),
        };
        self.push(key, value)
    }

    fn push(&mut self, key: InterKey<'i, K>, value: V) {
        self.emitted += 1;
        let parts = self.partitions();
        let p = (partition_hash(&key) % parts as u64) as usize;
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
    pub(crate) fn into_partitions(self) -> Vec<Vec<(InterKey<'i, K>, V)>> {
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
        pairs.map(|(k, v)| (k.into_owned(), v)).collect()
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
        let input = b"red green red".to_vec();
        let text = std::str::from_utf8(&input).unwrap();
        let mut e: Emitter<'_, String, u64> = Emitter::new(1).over(&input);
        e.emit_ref(&text[..3], 1);
        e.emit_ref(&String::from("red"), 1);
        let keys: Vec<_> = e.into_partitions().remove(0);
        assert!(matches!(keys[0].0, InterKey::Input("red", _)));
        assert!(matches!(&keys[1].0, InterKey::Owned(k) if k == "red"));
        // Without an input to find it in, every key is copied.
        let mut e: Emitter<'_, String, u64> = Emitter::new(1);
        e.emit_ref(&text[..3], 1);
        assert!(matches!(e.into_partitions()[0][0].0, InterKey::Owned(_)));
    }

    #[test]
    fn borrowed_and_owned_forms_of_a_key_are_one_key() {
        let input = b"red green red".to_vec();
        let text = std::str::from_utf8(&input).unwrap();
        let summer = Summer;
        let mut e: Emitter<'_, String, u64> = Emitter::with_combiner(4, &summer).over(&input);
        e.emit("red".into(), 1);
        e.emit_ref(&text[..3], 1);
        e.emit_ref(&text[4..9], 1);
        e.emit("green".into(), 1);
        e.emit_ref(&text[10..], 1);
        assert_eq!((e.emitted(), e.buffered()), (5, 2));
        let mut sorted = owned_pairs(e);
        sorted.sort();
        assert_eq!(sorted, vec![("green".into(), 2), ("red".into(), 3)]);
        // Hash and order agree across the two forms, as partitioning and
        // reduce's sort need.
        let as_text = |view, own| TextKey { view, own };
        let borrowed: InterKey<'_, String> = InterKey::Input(
            "red",
            as_text(|k: &String| k.as_str(), |t: &str| t.to_string()),
        );
        let owned = InterKey::Owned(String::from("red"));
        assert_eq!(partition_hash(&borrowed), partition_hash(&owned));
        assert_eq!(partition_hash(&owned), partition_hash(&String::from("red")));
        assert_eq!(borrowed.cmp(&owned), Ordering::Equal);
        assert!(borrowed > InterKey::Owned(String::from("green")));
    }

    #[test]
    fn partition_hash_is_stable_across_calls() {
        let a = partition_hash(&"hello");
        let b = partition_hash(&"hello");
        assert_eq!(a, b);
        assert_ne!(partition_hash(&"hello"), partition_hash(&"world"));
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
