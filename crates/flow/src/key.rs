//! Content-hash cache keys.
//!
//! A node's [`CacheKey`] is a 128-bit FNV-1a digest over a canonical byte
//! serialization of everything that can change its output: a schema
//! version, the stage kind label, the node's parameters (in sorted key
//! order), its emit path (sibling render nodes often differ *only* in
//! which artifact they draw), the global run seed, and the cache keys of
//! its dependencies in dependency order.
//! Hashing dependency *keys*
//! rather than dependency *outputs* makes the key computable statically —
//! a warm cache answers "is anything upstream stale?" without running a
//! single node.
//!
//! FNV-1a is used (rather than `std::hash`) because its output is fixed by
//! the algorithm, not by the standard library release, so cache
//! directories stay valid across toolchain upgrades.

use std::collections::BTreeMap;
use std::fmt;

/// Bump when the key recipe or the artifact encoding changes shape;
/// invalidates every previously cached artifact.
const SCHEMA_VERSION: u64 = 2;

const FNV_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// A 128-bit content hash identifying one node's output.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CacheKey(u128);

impl CacheKey {
    /// The key as a 32-character lowercase hex string — used as the cache
    /// directory name.
    pub fn hex(&self) -> String {
        format!("{:032x}", self.0)
    }
}

impl fmt::Debug for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CacheKey({})", self.hex())
    }
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.hex())
    }
}

/// Incremental FNV-1a-128 hasher with length-prefixed field framing, so
/// adjacent fields can never alias (`"ab","c"` vs `"a","bc"`).
pub struct KeyHasher {
    state: u128,
}

impl KeyHasher {
    /// Starts a hasher pre-seeded with the key schema version.
    pub fn new() -> Self {
        let mut h = KeyHasher { state: FNV_OFFSET };
        h.write_u64(SCHEMA_VERSION);
        h
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u128::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Hashes a raw integer (framed, little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Hashes a length-prefixed string field.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// Hashes another key (e.g. a dependency's key).
    pub fn write_key(&mut self, key: CacheKey) {
        self.write_bytes(&key.0.to_le_bytes());
    }

    /// Finalizes the digest.
    pub fn finish(self) -> CacheKey {
        CacheKey(self.state)
    }
}

impl Default for KeyHasher {
    fn default() -> Self {
        Self::new()
    }
}

/// Computes a node's cache key from everything that determines its output.
///
/// `dep_keys` must be passed in the node's declared dependency order:
/// the same dependencies wired in a different order feed the node's
/// closure differently and must produce a different key.
pub fn node_key(
    kind: &str,
    params: &BTreeMap<String, String>,
    emit: Option<&str>,
    seed: u64,
    dep_keys: &[CacheKey],
) -> CacheKey {
    let mut h = KeyHasher::new();
    h.write_str(kind);
    h.write_u64(params.len() as u64);
    for (k, v) in params {
        h.write_str(k);
        h.write_str(v);
    }
    h.write_u64(emit.is_some() as u64);
    h.write_str(emit.unwrap_or(""));
    h.write_u64(seed);
    h.write_u64(dep_keys.len() as u64);
    for &dep in dep_keys {
        h.write_key(dep);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(pairs: &[(&str, &str)]) -> BTreeMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn identical_inputs_give_identical_keys() {
        let p = params(&[("budget", "8"), ("network", "resnet50")]);
        let a = node_key("engine:bo", &p, None, 1, &[]);
        let b = node_key("engine:bo", &p, None, 1, &[]);
        assert_eq!(a, b);
        assert_eq!(a.hex().len(), 32);
    }

    #[test]
    fn every_ingredient_perturbs_the_key() {
        let p = params(&[("budget", "8")]);
        let base = node_key("engine:bo", &p, None, 1, &[]);
        assert_ne!(base, node_key("engine:gd", &p, None, 1, &[]));
        assert_ne!(
            base,
            node_key("engine:bo", &params(&[("budget", "9")]), None, 1, &[])
        );
        assert_ne!(base, node_key("engine:bo", &params(&[]), None, 1, &[]));
        assert_ne!(base, node_key("engine:bo", &p, None, 2, &[]));
        // Sibling render nodes may differ only in their emit path.
        assert_ne!(base, node_key("engine:bo", &p, Some("a.svg"), 1, &[]));
        assert_ne!(
            node_key("engine:bo", &p, Some("a.svg"), 1, &[]),
            node_key("engine:bo", &p, Some("b.svg"), 1, &[])
        );
        assert_ne!(base, node_key("engine:bo", &p, Some(""), 1, &[]));
        let dep = node_key("dataset", &params(&[]), None, 1, &[]);
        assert_ne!(base, node_key("engine:bo", &p, None, 1, &[dep]));
    }

    #[test]
    fn dep_order_and_upstream_changes_propagate() {
        let d1 = node_key("dataset", &params(&[("n", "60")]), None, 1, &[]);
        let d2 = node_key("train", &params(&[("dz", "4")]), None, 1, &[d1]);
        let fwd = node_key("csv", &params(&[]), None, 1, &[d1, d2]);
        let rev = node_key("csv", &params(&[]), None, 1, &[d2, d1]);
        assert_ne!(fwd, rev);

        // A changed upstream param ripples through transitively.
        let d1b = node_key("dataset", &params(&[("n", "61")]), None, 1, &[]);
        let d2b = node_key("train", &params(&[("dz", "4")]), None, 1, &[d1b]);
        assert_ne!(d2, d2b);
        assert_ne!(fwd, node_key("csv", &params(&[]), None, 1, &[d1b, d2b]));
    }

    #[test]
    fn field_framing_prevents_aliasing() {
        // Adjacent string fields must not concatenate.
        let a = node_key("csv", &params(&[("ab", "c")]), None, 1, &[]);
        let b = node_key("csv", &params(&[("a", "bc")]), None, 1, &[]);
        assert_ne!(a, b);
        let c = node_key("en", &params(&[("gine", "x")]), None, 1, &[]);
        let d = node_key("engine", &params(&[("", "x")]), None, 1, &[]);
        assert_ne!(c, d);
    }
}
