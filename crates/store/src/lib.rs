//! # reghd-store — sharded per-user model store for RegHD serving
//!
//! RegHD's models are tiny — `k` cluster hypervectors plus `k` model
//! hypervectors and a handful of scalars — which is precisely what makes a
//! **per-user** model fleet practical: a million residents fit in a few
//! packfiles. This crate scales the serving registry from "a handful of
//! operator-loaded names" to that fleet:
//!
//! * **Sharding** ([`store::ModelStore`]) — keys are FNV-hashed onto `N`
//!   shards, each with its own lock, packfiles, index, and hot cache, so
//!   lookups and publishes on different users never contend.
//! * **Packfiles + mmap** ([`pack`]) — `.rghd` v2 bundles live
//!   back-to-back in per-shard pack files, memory-mapped read-only
//!   ([`mmap::MappedFile`]). Section CRCs are **not** swept at startup;
//!   each section is verified lazily on first touch
//!   ([`reghd_serve::bundle::SectionFrames`]), so indexing a million
//!   resident bundles stays O(keys), not O(bytes).
//! * **Hot LRU** ([`lru::LruCache`]) — decoded models are cached under a
//!   byte budget with hit/miss/eviction counters; everything else stays
//!   cold on disk until resolved.
//! * **Delta publication** ([`delta::ModelDelta`]) — the streaming trainer
//!   republishes only the byte runs of its image that changed since the
//!   last publish (the cluster/model hypervectors it touched); the store
//!   patches the base image without decoding it and verifies the result
//!   hashes to the exact bytes a full publish would have produced.
//!   Publication is canary-gated, and a key whose current
//!   image fails validation on first touch rolls back to its last-good
//!   version — per key, without disturbing any other resident model.
//!
//! The store plugs into the serving layer as a
//! [`reghd_serve::registry::ModelResolver`]: registry lookups fall through
//! to [`store::ModelStore::get`] for names the in-process map does not
//! hold.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod delta;
pub mod faults;
pub mod lru;
pub mod mmap;
pub mod pack;
pub mod store;

pub use delta::ModelDelta;
pub use faults::StoreFaultInjector;
pub use lru::LruCache;
pub use mmap::MappedFile;
pub use pack::{PackLoc, PackSet};
pub use store::{ModelStore, StoreConfig, StoreStats};

/// 64-bit FNV-1a — the store's artefact identity hash, the serving
/// registry's bundle hash, so `list` output lines up across both.
pub use reghd_serve::bundle::fnv1a;

/// Errors surfaced by the model store.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure (pack append, index log, mmap).
    Io(std::io::Error),
    /// Stored bytes failed structural or checksum validation.
    Corrupt(String),
    /// A published artefact failed validation before it was admitted.
    Bundle(String),
    /// A published artefact parsed but failed its canary replay.
    Canary(String),
    /// No model is resident under the requested key.
    NotFound(String),
    /// A delta could not be applied to its base image.
    Delta(String),
    /// A key contains characters the index log cannot carry.
    BadKey(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "io error: {e}"),
            Self::Corrupt(msg) => write!(f, "corrupt store data: {msg}"),
            Self::Bundle(msg) => write!(f, "bad bundle: {msg}"),
            Self::Canary(msg) => write!(f, "canary check failed: {msg}"),
            Self::NotFound(key) => write!(f, "unknown key {key}"),
            Self::Delta(msg) => write!(f, "delta rejected: {msg}"),
            Self::BadKey(key) => write!(f, "invalid key {key:?} (use [A-Za-z0-9._:-])"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_with_context() {
        assert!(StoreError::NotFound("u1".into()).to_string().contains("u1"));
        assert!(StoreError::Corrupt("bad crc".into())
            .to_string()
            .contains("bad crc"));
        assert!(StoreError::BadKey("a b".into()).to_string().contains("a b"));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
    }
}
