//! Join-key hashing shared by every hash join: the row-path reference
//! ([`Instance::equijoin`]) and the two drivers of the columnar
//! [`JoinIndex`], the engine's morsel executor and the c-table join
//! (`CTable::join_bar` in `ipdb-tables`, which indexes the ground-key
//! rows of each side).
//!
//! A key is hashed by [`KeyHasher`]: a multiplicative word hasher
//! (FxHash-style rotate–xor–multiply per 8-byte word) finished by a
//! 64-bit avalanche step, so every output bit depends on every input
//! bit. There is one hashing step, [`KeyHasher::fold`], which adds one
//! key value to a state. [`key_hash`] folds one row's key values in key
//! order; the columnar kernels fold one key column at a time into a
//! buffer of per-row states ([`ColumnarInstance::key_hashes`]). Both run
//! the same steps in the same order, so they give the same hash. A
//! packed integer column folds each `i64` with [`KeyHasher::fold_int`],
//! which writes the same words as folding the `Value::Int` it stands
//! for, so hashes are equal across the two column forms too, and a
//! packed key column joins a `Value` column holding the same integers.
//! Bucket
//! maps keyed by that hash use [`PassThrough`], which hands the
//! already-mixed `u64` to the table unchanged instead of hashing it a
//! second time.
//!
//! The hash is deterministic (no per-process keys) and not collision
//! resistant. Every probe re-checks key equality, so a collision costs
//! one extra comparison and never a wrong match; keys crafted to collide
//! can slow a join toward quadratic time, as they could under
//! `DefaultHasher::new()`, whose keys are fixed too.
//!
//! [`Instance::equijoin`]: crate::Instance::equijoin
//! [`JoinIndex`]: crate::JoinIndex
//! [`ColumnarInstance::key_hashes`]: crate::ColumnarInstance::key_hashes

use std::hash::{BuildHasherDefault, Hash, Hasher};

use crate::value::Value;

/// The odd multiplier of the word mix (2⁶⁴ / φ).
const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Hashes a join key — the values of its key columns, in key order —
/// into one `u64`.
///
/// Values of different variants never compare equal, and hashing
/// includes the variant tag, so `Int(1)`, `Bool(true)` and `Str("1")`
/// land in different buckets almost always; when they do not, the
/// equality re-check keeps them apart.
pub(crate) fn key_hash<'a>(key: impl IntoIterator<Item = &'a Value>) -> u64 {
    let mut h = KeyHasher::default();
    for v in key {
        h.fold(v);
    }
    h.finish()
}

/// The word hasher behind [`key_hash`]: a key's state after some of its
/// values have been folded in. [`Hasher::finish`] turns a state into the
/// key's hash.
#[derive(Clone, Default)]
pub(crate) struct KeyHasher(u64);

impl KeyHasher {
    /// Folds the next key value into the state.
    #[inline]
    pub(crate) fn fold(&mut self, v: &Value) {
        v.hash(self);
    }

    /// Folds the integer `n`, exactly as [`KeyHasher::fold`] folds
    /// `Value::Int(n)`: a packed integer column hashes like the values
    /// it stands for. (`Value::Int(n)` is built on the stack, so this
    /// allocates nothing; the derived hash writes its tag and `n`.)
    #[inline]
    pub(crate) fn fold_int(&mut self, n: i64) {
        Value::Int(n).hash(self);
    }

    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(MUL);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        // The length goes in first, so byte strings that differ only in
        // trailing zero padding of the last word still hash apart.
        self.mix(bytes.len() as u64);
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(w);
            self.mix(u64::from_le_bytes(buf));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut buf = [0u8; 8];
            buf[..tail.len()].copy_from_slice(tail);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    // One word each for what `Value`'s derived `Hash` writes: the
    // variant tag (`isize`), a `Bool` (`u8`, also the terminator `str`
    // hashing appends) and an `Int` (`i64`).
    fn write_isize(&mut self, n: isize) {
        self.mix(n as u64);
    }

    fn write_u8(&mut self, n: u8) {
        self.mix(u64::from(n));
    }

    fn write_i64(&mut self, n: i64) {
        self.mix(n as u64);
    }

    fn finish(&self) -> u64 {
        // Avalanche (the MurmurHash3 64-bit finalizer): the word mix
        // leaves the low bits weak, and hash tables index by them.
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// A hasher for maps keyed by a [`key_hash`] value: a `u64` key passes
/// through unchanged, since it is already mixed. Any other input is
/// folded in byte by byte, so the hasher is total — it never panics,
/// whatever a map asks it to hash.
#[derive(Default)]
pub(crate) struct PassThrough(u64);

impl Hasher for PassThrough {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(MUL);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The [`std::hash::BuildHasher`] for bucket maps keyed by [`key_hash`].
pub(crate) type BuildPassThrough = BuildHasherDefault<PassThrough>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    #[test]
    fn equal_keys_hash_equal_and_variants_differ() {
        let one = [Value::from(1), Value::from(true), Value::str("1")];
        let hashes: HashSet<u64> = one.iter().map(|v| key_hash([v])).collect();
        assert_eq!(hashes.len(), 3, "variant tag is part of the hash");
        for v in &one {
            assert_eq!(key_hash([v]), key_hash([&v.clone()]));
        }
        // Key order matters: (a, b) and (b, a) are different keys.
        let (a, b) = (Value::from(1), Value::from(2));
        assert_ne!(key_hash([&a, &b]), key_hash([&b, &a]));
    }

    #[test]
    fn packed_ints_fold_like_int_values() {
        for n in [0, 1, -1, 7, i64::MIN, i64::MAX] {
            let (mut packed, mut value) = (KeyHasher::default(), KeyHasher::default());
            packed.fold_int(n);
            value.fold(&Value::Int(n));
            assert_eq!(packed.finish(), value.finish(), "{n}");
            // After another value too, as in a two-column key.
            packed.fold(&Value::str("k"));
            value.fold(&Value::str("k"));
            packed.fold_int(n);
            value.fold(&Value::Int(n));
            assert_eq!(packed.finish(), value.finish(), "{n}");
        }
    }

    #[test]
    fn byte_path_separates_prefixes_and_padding() {
        let strs = [
            "",
            "a",
            "a\0",
            "ab",
            "abcdefgh",
            "abcdefgh\0",
            "abcdefghi",
            "abcdefghij",
            "abcdefgh_long_suffix",
        ];
        let vals: Vec<Value> = strs.iter().map(|s| Value::str(*s)).collect();
        let hashes: HashSet<u64> = vals.iter().map(|v| key_hash([v])).collect();
        assert_eq!(hashes.len(), strs.len());
    }

    #[test]
    fn small_ints_spread_over_low_bits() {
        // Hash tables index by the low bits: 1024 consecutive ints
        // should fill most of 1024 low-bit buckets.
        let low: HashSet<u64> = (0..1024i64)
            .map(|k| key_hash([&Value::from(k)]) & 1023)
            .collect();
        assert!(
            low.len() > 550,
            "only {} distinct low-bit buckets",
            low.len()
        );
    }

    #[test]
    fn pass_through_is_identity_on_u64_and_total_otherwise() {
        let mut h = PassThrough::default();
        h.write_u64(0xdead_beef);
        assert_eq!(h.finish(), 0xdead_beef);
        // Any other input is hashed, not rejected.
        let mut h = PassThrough::default();
        h.write(b"any bytes");
        h.write_u32(7);
        h.write_u128(9);
        let _ = h.finish();
        let mut m: HashMap<u64, u32, BuildPassThrough> = HashMap::default();
        m.insert(key_hash([&Value::from(5)]), 5);
        assert_eq!(m.get(&key_hash([&Value::from(5)])), Some(&5));
    }
}
