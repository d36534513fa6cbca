//! A fixed, fast hasher for the engine's `(workflow, task)` maps.
//!
//! The maps are hot (every dispatch, transfer completion and slot refill touches one), and
//! their keys are two dense indices the engine assigns itself.  SipHash's random keys guard
//! against keys an outside party crafts to collide, which these cannot be, so here they buy
//! nothing but time.  This is the FxHash multiply-rotate word hash: no seed, one rotate, xor
//! and multiply per word.  Every map keyed with it is lookup-only or sorted before its order
//! can reach a result.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// FxHash: `hash = (hash.rotate_left(5) ^ word) * K` per written word.
#[derive(Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.add(u64::from(byte));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` hashed with [`FxHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
