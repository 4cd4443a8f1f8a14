//! The one hasher of tables keyed by job text (DESIGN.md §19).

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::OnceLock;

/// Builds the hasher of every table keyed by job text: a folded multiply
/// over 8-byte words, keyed once per process from `RandomState`, so file
/// text cannot be chosen offline to collide or to fill one reduce partition.
#[derive(Debug, Clone, Copy)]
pub struct WordState([u64; 2]);

impl Default for WordState {
    fn default() -> Self {
        static KEYS: OnceLock<[u64; 2]> = OnceLock::new();
        WordState(*KEYS.get_or_init(|| [0, 1].map(|i| RandomState::new().hash_one(i))))
    }
}

impl BuildHasher for WordState {
    type Hasher = WordHasher;

    fn build_hasher(&self) -> WordHasher {
        WordHasher(self.0)
    }
}

/// [`WordState`]'s hasher: the value so far, and the key.
#[derive(Debug, Clone)]
pub struct WordHasher([u64; 2]);

fn fold(x: u64, y: u64) -> u64 {
    let full = u128::from(x) * u128::from(y);
    (full as u64) ^ (full >> 64) as u64
}

fn le<const N: usize>(bytes: &[u8]) -> u64 {
    let mut word = [0; 8];
    word[..N].copy_from_slice(&bytes[..N]);
    u64::from_le_bytes(word)
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        let [acc, key] = &mut self.0;
        let n = bytes.len();
        let (lo, hi) = match n {
            0..=3 => (bytes.iter().fold(0, |w, &b| w << 8 | u64::from(b)), 0),
            4..=7 => (le::<4>(bytes), le::<4>(&bytes[n - 4..])),
            _ => {
                for block in bytes[..n - 1].chunks_exact(16) {
                    *acc = fold(*acc ^ le::<8>(block), *key ^ le::<8>(&block[8..]));
                }
                let last = &bytes[n.saturating_sub(16)..];
                (le::<8>(last), le::<8>(&bytes[n - 8..]))
            }
        };
        *acc = fold(*acc ^ lo, *key ^ hi ^ n as u64);
    }

    fn finish(&self) -> u64 {
        self.0[0]
    }
}

/// A key with its hash, taken once: a table of them under [`PassThrough`]
/// hashes nothing again, and they order by hash, then (if equal) by key.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Hashed<T> {
    pub(crate) hash: u64,
    pub(crate) key: T,
}

impl<T> Hash for Hashed<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash)
    }
}

/// Builds the hasher of a table keyed by a hash already taken.
pub(crate) type PassThrough = BuildHasherDefault<Taken>;

#[derive(Default)]
pub(crate) struct Taken(u64);

impl Hasher for Taken {
    fn write(&mut self, bytes: &[u8]) {
        self.0 ^= WordState::default().hash_one(bytes);
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emitter::{InterKey, TextKey};

    #[test]
    fn one_text_hashes_alike_in_every_form_and_at_every_call() {
        let state = WordState::default();
        let other = WordState::default();
        for text in [
            "",
            "a",
            "red",
            "green",
            "magenta",
            "seventeen-bytes!!",
            "ä€😀 mixed",
        ] {
            let hash = state.hash_one(text);
            assert_eq!(hash, other.hash_one(text), "{text:?}");
            // `String` hashes as its `str`, and so do both forms of an
            // intermediate key (DESIGN.md §19).
            assert_eq!(hash, state.hash_one(String::from(text)));
            let input: InterKey<'_, String> = InterKey::Input(text, &TextKey::TABLE);
            assert_eq!(hash, state.hash_one(&input));
            assert_eq!(hash, state.hash_one(InterKey::Owned(text.to_string())));
        }
    }

    #[test]
    fn every_byte_of_a_word_moves_its_hash() {
        let state = WordState::default();
        for len in 1..=40 {
            let word = vec![b'a'; len];
            let hash = state.hash_one(&word[..]);
            for at in 0..len {
                let mut other = word.clone();
                other[at] = b'b';
                assert_ne!(hash, state.hash_one(&other[..]), "len {len}, byte {at}");
            }
            assert_ne!(hash, state.hash_one(&word[..len - 1]), "len {len}");
        }
    }

    #[test]
    fn a_stored_hash_is_passed_through() {
        let key = Hashed { hash: 42, key: "x" };
        assert_eq!(PassThrough::default().hash_one(&key), 42);
    }
}
