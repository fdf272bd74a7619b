//! The content-addressed result cache: a crash-safe single-file append
//! log (DESIGN.md §16).
//!
//! Every record is written as one contiguous frame —
//!
//! ```text
//! magic  u32  "RMDL" (LE of 0x4C444D52)
//! key    u64  canonical request key (layout + knobs, FNV-1a 64)
//! len    u32  payload length in bytes
//! sum    u64  FNV-1a 64 checksum of the payload
//! payload     dims, counters, health flag, both masks' f32 bits (LE)
//! ```
//!
//! — appended and fsync'd before the response that references it leaves
//! the server. On open the file is scanned front to back; the first
//! torn or corrupt frame (short header, short payload, bad magic, bad
//! checksum) ends the scan and the file is truncated to the last good
//! frame, so a `kill -9` mid-append costs at most the record being
//! written, never the store.
//!
//! The index keeps each result's mask hash beside it, computed once when
//! the result is inserted or replayed on open, so a hit answers without
//! any work that scales with the mask size.
//!
//! Cache policy (the bit-identity invariant): only *usable*
//! (`Clean`/`RecoveredAfterRollback`), *non-retried* outcomes are
//! inserted. A usable first-pass outcome means no wall-clock budget
//! intervened, so the stored masks are a pure function of the canonical
//! key — recomputing the same key on any thread count or backend yields
//! bit-identical pixels. Degraded and retried outcomes are served but
//! never cached.

use ldmo_geom::Grid;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Frame magic ("LDMR" little-endian).
pub const CACHE_MAGIC: u32 = 0x4C44_4D52;

const HEADER_BYTES: usize = 4 + 8 + 4 + 8;

/// FNV-1a 64 over a byte stream — the workspace's canonical content hash
/// (dependency-free, stable across platforms).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a 64 hash over more bytes.
pub fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The canonical request key: FNV-1a over the *canonical* layout text
/// (re-rendered, so formatting variants of the same layout collide) plus
/// the optimization knobs that change the result.
pub fn request_key(canonical_layout: &str, max_iterations: usize, max_candidates: usize) -> u64 {
    let mut h = fnv1a(canonical_layout.as_bytes());
    h = fnv1a_extend(h, &(max_iterations as u64).to_le_bytes());
    fnv1a_extend(h, &(max_candidates as u64).to_le_bytes())
}

/// Content hash of a mask pair (dims + f32 bit patterns, LE), rendered as
/// 16 hex digits. This is the value the protocol's `mask_hash` field
/// carries and the cached-vs-recomputed bit-identity is asserted on.
pub fn mask_hash(masks: &[Grid; 2]) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for m in masks {
        let (w, hgt) = m.shape();
        h = fnv1a_extend(h, &(w as u64).to_le_bytes());
        h = fnv1a_extend(h, &(hgt as u64).to_le_bytes());
        for v in m.as_slice() {
            h = fnv1a_extend(h, &v.to_le_bytes());
        }
    }
    format!("{h:016x}")
}

/// One cached optimization result.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedResult {
    /// The optimized double-patterning mask pair.
    pub masks: [Grid; 2],
    /// EPE violations of the served masks.
    pub epe_violations: u32,
    /// ILT attempts the original computation made.
    pub attempts: u32,
    /// Decomposition candidates ranked.
    pub candidates: u32,
    /// Iterations of the accepted run.
    pub iterations: u32,
    /// Whether the original health was `RecoveredAfterRollback` (the only
    /// non-`Clean` health the cache admits).
    pub recovered: bool,
}

impl CachedResult {
    /// The content hash of the stored mask pair.
    pub fn mask_hash(&self) -> String {
        mask_hash(&self.masks)
    }

    fn encode(&self) -> Vec<u8> {
        let (w0, h0) = self.masks[0].shape();
        let (w1, h1) = self.masks[1].shape();
        let mut out = Vec::with_capacity(29 + 4 * (w0 * h0 + w1 * h1));
        for d in [w0, h0, w1, h1] {
            out.extend_from_slice(&(d as u32).to_le_bytes());
        }
        for n in [
            self.epe_violations,
            self.attempts,
            self.candidates,
            self.iterations,
        ] {
            out.extend_from_slice(&n.to_le_bytes());
        }
        out.push(u8::from(self.recovered));
        for m in &self.masks {
            for v in m.as_slice() {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        out
    }

    fn decode(payload: &[u8]) -> Option<CachedResult> {
        if payload.len() < 33 {
            return None;
        }
        let u32_at = |i: usize| u32::from_le_bytes(payload[i..i + 4].try_into().expect("4 bytes"));
        let (w0, h0) = (u32_at(0) as usize, u32_at(4) as usize);
        let (w1, h1) = (u32_at(8) as usize, u32_at(12) as usize);
        let recovered = payload[32] != 0;
        let expected = 33 + 4 * (w0 * h0 + w1 * h1);
        if payload.len() != expected {
            return None;
        }
        let mut off = 33;
        let mut read_grid = |w: usize, h: usize| -> Grid {
            let data: Vec<f32> = (0..w * h)
                .map(|i| {
                    let p = off + i * 4;
                    f32::from_le_bytes(payload[p..p + 4].try_into().expect("4 bytes"))
                })
                .collect();
            off += w * h * 4;
            Grid::from_vec(w, h, data)
        };
        let mask0 = read_grid(w0, h0);
        let mask1 = read_grid(w1, h1);
        Some(CachedResult {
            masks: [mask0, mask1],
            epe_violations: u32_at(16),
            attempts: u32_at(20),
            candidates: u32_at(24),
            iterations: u32_at(28),
            recovered,
        })
    }
}

/// What the startup scan found and repaired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Valid records recovered into the in-memory index.
    pub records: usize,
    /// Torn-tail bytes truncated away (0 on a clean file).
    pub truncated_bytes: u64,
}

/// The open cache: an in-memory index over the append log.
#[derive(Debug)]
pub struct ResultCache {
    file: File,
    /// Each result beside its [`mask_hash`].
    index: HashMap<u64, (CachedResult, String)>,
}

impl ResultCache {
    /// Opens (or creates) the store at `path`, replaying the log and
    /// truncating any torn tail.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors; corrupt *content* is repaired, not
    /// reported as an error.
    pub fn open(path: impl AsRef<Path>) -> io::Result<(ResultCache, RecoveryStats)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let mut index = HashMap::new();
        let mut good = 0usize;
        let mut records = 0usize;
        while bytes.len() - good >= HEADER_BYTES {
            let magic = u32::from_le_bytes(bytes[good..good + 4].try_into().expect("4 bytes"));
            let key = u64::from_le_bytes(bytes[good + 4..good + 12].try_into().expect("8 bytes"));
            let len = u32::from_le_bytes(bytes[good + 12..good + 16].try_into().expect("4 bytes"))
                as usize;
            let sum = u64::from_le_bytes(bytes[good + 16..good + 24].try_into().expect("8 bytes"));
            if magic != CACHE_MAGIC || bytes.len() - good - HEADER_BYTES < len {
                break;
            }
            let payload = &bytes[good + HEADER_BYTES..good + HEADER_BYTES + len];
            if fnv1a(payload) != sum {
                break;
            }
            let Some(result) = CachedResult::decode(payload) else {
                break;
            };
            let hash = result.mask_hash();
            index.insert(key, (result, hash));
            records += 1;
            good += HEADER_BYTES + len;
        }
        let truncated = (bytes.len() - good) as u64;
        if truncated > 0 {
            file.set_len(good as u64)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::End(0))?;
        Ok((
            ResultCache { file, index },
            RecoveryStats {
                records,
                truncated_bytes: truncated,
            },
        ))
    }

    /// Looks up a result by its canonical key.
    pub fn get(&self, key: u64) -> Option<&CachedResult> {
        self.index.get(&key).map(|(result, _)| result)
    }

    /// Looks up a result together with its stored [`mask_hash`].
    pub(crate) fn get_with_hash(&self, key: u64) -> Option<(&CachedResult, &str)> {
        self.index.get(&key).map(|(r, hash)| (r, hash.as_str()))
    }

    /// Appends a result (no-op if the key is already present — content
    /// addressing makes duplicates identical by construction). The frame
    /// is fsync'd before this returns: a response never references a
    /// record that a crash could lose.
    ///
    /// # Errors
    ///
    /// Propagates write/sync errors; the in-memory index is only updated
    /// after the frame is durable.
    pub fn insert(&mut self, key: u64, result: CachedResult) -> io::Result<bool> {
        let mask_hash = result.mask_hash();
        self.insert_hashed(key, result, mask_hash)
    }

    /// [`ResultCache::insert`] for a caller that already hashed the masks.
    ///
    /// # Errors
    ///
    /// As [`ResultCache::insert`].
    pub(crate) fn insert_hashed(
        &mut self,
        key: u64,
        result: CachedResult,
        mask_hash: String,
    ) -> io::Result<bool> {
        if self.index.contains_key(&key) {
            return Ok(false);
        }
        let payload = result.encode();
        let mut frame = Vec::with_capacity(HEADER_BYTES + payload.len());
        frame.extend_from_slice(&CACHE_MAGIC.to_le_bytes());
        frame.extend_from_slice(&key.to_le_bytes());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        self.file.write_all(&frame)?;
        self.file.sync_data()?;
        self.index.insert(key, (result, mask_hash));
        Ok(true)
    }

    /// Number of cached results.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn sample(seed: f32) -> CachedResult {
        let data: Vec<f32> = (0..16).map(|i| seed + i as f32 * 0.25).collect();
        CachedResult {
            masks: [
                Grid::from_vec(4, 4, data.clone()),
                Grid::from_vec(4, 4, data),
            ],
            epe_violations: 3,
            attempts: 2,
            candidates: 8,
            iterations: 6,
            recovered: false,
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ldmo-serve-cache-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&dir);
        dir
    }

    #[test]
    fn fnv_is_stable() {
        // pinned vectors: the on-disk format must not drift silently
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"ldmo"), fnv1a(b"ldmo"));
        assert_ne!(fnv1a(b"ldmo"), fnv1a(b"ldmp"));
    }

    #[test]
    fn request_key_separates_knobs() {
        let k = request_key("layout", 6, 8);
        assert_eq!(k, request_key("layout", 6, 8));
        assert_ne!(k, request_key("layout", 7, 8));
        assert_ne!(k, request_key("layout", 6, 9));
        assert_ne!(k, request_key("tayout", 6, 8));
    }

    #[test]
    fn roundtrip_and_reopen() {
        let path = tmp("roundtrip");
        let (mut cache, stats) = ResultCache::open(&path).expect("open");
        assert_eq!(stats, RecoveryStats::default());
        assert!(cache.insert(1, sample(0.0)).expect("insert"));
        assert!(cache.insert(2, sample(1.0)).expect("insert"));
        // duplicate keys are no-ops
        assert!(!cache.insert(1, sample(9.0)).expect("insert"));
        assert_eq!(cache.len(), 2);
        let stored = cache.get_with_hash(2).map(|(_, hash)| hash.to_owned());
        assert_eq!(stored, Some(sample(1.0).mask_hash()));
        drop(cache);

        let (cache, stats) = ResultCache::open(&path).expect("reopen");
        assert_eq!(stats.records, 2);
        assert_eq!(stats.truncated_bytes, 0);
        assert_eq!(cache.get(1), Some(&sample(0.0)));
        assert_eq!(cache.get(2), Some(&sample(1.0)));
        // the hash replayed into the index is the masks' own
        let (hit, hash) = cache.get_with_hash(1).expect("hit");
        assert_eq!(hit, &sample(0.0));
        assert_eq!(hash, sample(0.0).mask_hash());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated() {
        let path = tmp("torn");
        let (mut cache, _) = ResultCache::open(&path).expect("open");
        cache.insert(7, sample(2.0)).expect("insert");
        drop(cache);
        let clean_len = std::fs::metadata(&path).expect("meta").len();

        // simulate a crash mid-append: a half-written second frame
        let mut f = OpenOptions::new().append(true).open(&path).expect("append");
        f.write_all(&CACHE_MAGIC.to_le_bytes()).expect("write");
        f.write_all(&[0xAB; 13]).expect("write");
        drop(f);

        let (cache, stats) = ResultCache::open(&path).expect("recover");
        assert_eq!(stats.records, 1);
        assert_eq!(stats.truncated_bytes, 17);
        assert_eq!(cache.get(7), Some(&sample(2.0)));
        assert_eq!(std::fs::metadata(&path).expect("meta").len(), clean_len);

        // recovery is idempotent — the repaired file reopens clean
        drop(cache);
        let (_, stats) = ResultCache::open(&path).expect("reopen");
        assert_eq!(
            stats,
            RecoveryStats {
                records: 1,
                truncated_bytes: 0
            }
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_checksum_ends_the_scan() {
        let path = tmp("checksum");
        let (mut cache, _) = ResultCache::open(&path).expect("open");
        cache.insert(1, sample(0.0)).expect("insert");
        cache.insert(2, sample(1.0)).expect("insert");
        drop(cache);

        // flip one payload byte of the *second* frame
        let mut bytes = std::fs::read(&path).expect("read");
        let frame = HEADER_BYTES + sample(0.0).encode().len();
        bytes[frame + HEADER_BYTES + 5] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("write");

        let (cache, stats) = ResultCache::open(&path).expect("recover");
        assert_eq!(stats.records, 1);
        assert!(stats.truncated_bytes > 0);
        assert_eq!(cache.get(1), Some(&sample(0.0)));
        assert_eq!(cache.get(2), None);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mask_hash_distinguishes_shape_and_content() {
        let a = [
            Grid::from_vec(2, 2, vec![0.0; 4]),
            Grid::from_vec(2, 2, vec![0.0; 4]),
        ];
        let b = [
            Grid::from_vec(4, 1, vec![0.0; 4]),
            Grid::from_vec(2, 2, vec![0.0; 4]),
        ];
        let mut c = a.clone();
        c[1] = Grid::from_vec(2, 2, vec![0.0, 0.0, 0.0, 1.0e-7]);
        assert_eq!(mask_hash(&a), mask_hash(&a));
        assert_ne!(mask_hash(&a), mask_hash(&b), "shape must be hashed");
        assert_ne!(mask_hash(&a), mask_hash(&c), "every f32 bit counts");
    }
}
