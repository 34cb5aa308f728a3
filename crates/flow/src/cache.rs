//! On-disk artifact cache.
//!
//! Every node output lives in its own directory named by the node's
//! 32-hex-char content hash: `<root>/<key>/meta` records provenance
//! (node id, stage kind, schema) and `<root>/<key>/value.bin` holds the
//! encoded [`Value`] for `Persist` entries. `Stamp` entries write only the
//! `meta` marker — they prove the stage ran for this exact key without
//! storing an unserializable payload (models, datasets). Writes go through
//! a temp directory renamed into place, so a crashed run never leaves a
//! half-written entry that a later run would trust.

use std::fs;
use std::path::{Path, PathBuf};

use crate::key::CacheKey;
use crate::value::Value;

/// Environment variable overriding the cache root directory.
pub const CACHE_ROOT_ENV: &str = "VAESA_FLOW_CACHE";

/// Default cache location relative to the working directory.
pub const DEFAULT_CACHE_ROOT: &str = "results/cache/flow";

/// Resolves the cache root: `$VAESA_FLOW_CACHE` if set and non-empty,
/// else [`DEFAULT_CACHE_ROOT`].
pub fn default_cache_root() -> PathBuf {
    match std::env::var(CACHE_ROOT_ENV) {
        Ok(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => PathBuf::from(DEFAULT_CACHE_ROOT),
    }
}

/// What a cache probe found for a key.
#[derive(Debug, PartialEq)]
pub enum CacheEntry {
    /// No entry on disk.
    Miss,
    /// A stamp marker: the stage completed for this key, but its payload
    /// was in-memory-only and must be recomputed if a consumer needs it.
    Stamp,
    /// A persisted payload, decoded.
    Hit(Value),
}

/// A content-addressed artifact store rooted at one directory.
pub struct FlowCache {
    root: PathBuf,
}

impl FlowCache {
    /// Opens (without creating) a cache at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        FlowCache { root: root.into() }
    }

    /// The cache root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn entry_dir(&self, key: CacheKey) -> PathBuf {
        self.root.join(key.hex())
    }

    /// Looks up a key. Corrupt entries (unreadable or undecodable
    /// `value.bin`) are treated as misses rather than errors so a damaged
    /// cache degrades to recomputation.
    pub fn lookup(&self, key: CacheKey) -> CacheEntry {
        let dir = self.entry_dir(key);
        if !dir.join("meta").is_file() {
            return CacheEntry::Miss;
        }
        let payload = dir.join("value.bin");
        if !payload.is_file() {
            return CacheEntry::Stamp;
        }
        match fs::read(&payload).ok().and_then(|b| Value::decode(&b).ok()) {
            Some(value) => CacheEntry::Hit(value),
            None => CacheEntry::Miss,
        }
    }

    fn write_entry(
        &self,
        key: CacheKey,
        node_id: &str,
        kind: &str,
        payload: Option<&Value>,
    ) -> Result<(), String> {
        let dir = self.entry_dir(key);
        if dir.exists() {
            return Ok(());
        }
        let encoded = match payload {
            Some(value) => Some(value.encode()?),
            None => None,
        };
        fs::create_dir_all(&self.root)
            .map_err(|e| format!("create cache root {}: {e}", self.root.display()))?;
        // Stage into a sibling temp dir, then rename into place. The rename
        // is atomic on POSIX; a concurrent writer racing us produced the
        // same content for the same key, so losing the race is fine.
        let tmp = self
            .root
            .join(format!(".tmp-{}-{}", key.hex(), std::process::id()));
        let _ = fs::remove_dir_all(&tmp);
        fs::create_dir_all(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
        let meta = format!("node = {node_id}\nkind = {kind}\nkey = {key}\n");
        fs::write(tmp.join("meta"), meta).map_err(|e| format!("write meta: {e}"))?;
        if let Some(bytes) = encoded {
            fs::write(tmp.join("value.bin"), bytes).map_err(|e| format!("write value.bin: {e}"))?;
        }
        match fs::rename(&tmp, &dir) {
            Ok(()) => Ok(()),
            Err(_) if dir.exists() => {
                let _ = fs::remove_dir_all(&tmp);
                Ok(())
            }
            Err(e) => {
                let _ = fs::remove_dir_all(&tmp);
                Err(format!("install cache entry {key}: {e}"))
            }
        }
    }

    /// Persists a node's payload under its key.
    ///
    /// # Errors
    ///
    /// Fails if the payload contains in-memory values or on I/O errors.
    pub fn store(
        &self,
        key: CacheKey,
        node_id: &str,
        kind: &str,
        value: &Value,
    ) -> Result<(), String> {
        self.write_entry(key, node_id, kind, Some(value))
    }

    /// Records a stamp marker (completion proof without payload).
    ///
    /// # Errors
    ///
    /// Fails on I/O errors.
    pub fn stamp(&self, key: CacheKey, node_id: &str, kind: &str) -> Result<(), String> {
        self.write_entry(key, node_id, kind, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::node_key;
    use std::collections::BTreeMap;

    fn temp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("vaesa-flow-cache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn key(n: u64) -> CacheKey {
        node_key("test", &BTreeMap::new(), None, n, &[])
    }

    #[test]
    fn store_then_lookup_round_trips() {
        let root = temp_root("roundtrip");
        let cache = FlowCache::new(&root);
        let k = key(1);
        assert_eq!(cache.lookup(k), CacheEntry::Miss);
        let v = Value::floats([1.0, 2.5, -0.0]);
        cache.store(k, "fig/test", "csv", &v).unwrap();
        assert_eq!(cache.lookup(k), CacheEntry::Hit(v));
        // Storing again over an existing entry is a no-op, not an error.
        cache.store(k, "fig/test", "csv", &Value::Unit).unwrap();
        assert_eq!(
            cache.lookup(k),
            CacheEntry::Hit(Value::floats([1.0, 2.5, -0.0]))
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn stamps_record_completion_without_payload() {
        let root = temp_root("stamp");
        let cache = FlowCache::new(&root);
        let k = key(2);
        cache.stamp(k, "fig/train", "train").unwrap();
        assert_eq!(cache.lookup(k), CacheEntry::Stamp);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_payload_degrades_to_miss() {
        let root = temp_root("corrupt");
        let cache = FlowCache::new(&root);
        let k = key(3);
        cache.store(k, "n", "csv", &Value::Int(9)).unwrap();
        fs::write(root.join(k.hex()).join("value.bin"), [0xFFu8, 0x01]).unwrap();
        assert_eq!(cache.lookup(k), CacheEntry::Miss);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn mem_payloads_are_rejected() {
        let root = temp_root("mem");
        let cache = FlowCache::new(&root);
        assert!(cache
            .store(key(4), "n", "train", &Value::mem(1usize))
            .is_err());
        let _ = fs::remove_dir_all(&root);
    }
}
