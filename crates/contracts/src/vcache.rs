//! The persistent verdict cache: incremental verification's on-disk state.
//!
//! Flux (and any SMT-backed checker) stays affordable on large codebases by
//! caching query results, so an unchanged function is never re-solved. This
//! module reproduces that economics for the obligation engine: a small
//! versioned binary file (by default `ci/verify_cache.bin`, never
//! committed) maps `(obligation key, fn content hash, obligation-domain
//! hash)` to a verified verdict, all under a whole-cache *config hash*
//! covering toolchain, schema and effort parameters.
//!
//! The format follows the corpus-file discipline from `tt_kernel::corpus`:
//! fixed-width little-endian records behind a magic/version header, with
//! decode-side validation of every field. On top of that, the whole file
//! carries an FNV-1a checksum (computed with the checksum field zeroed), so
//! *any* single-bit corruption — header or records — is detected and the
//! engine falls back to a full cold run. A corrupt cache is never partially
//! reused.
//!
//! ## Staleness model
//!
//! A cached verdict is only returned when all three hashes match:
//!
//! * **key** — which obligation (kind tag + component + function name);
//! * **`fn_hash`** — the content hash of the function's source span (via
//!   [`crate::span::SourceIndex`]), so any edit to the function body or its
//!   contract sites invalidates;
//! * **`domain_hash`** — the obligation's discharge domain (spec identity:
//!   kind, trusted flag, effort densities, allowlist text for audit
//!   passes), so a changed spec invalidates even with identical code.
//!
//! The file-level config hash additionally covers compiler version, cache
//! schema and build profile: a toolchain bump is a cold run. Only
//! *verified* (or clean, for audit passes) verdicts are ever stored —
//! refutations and findings are always re-discharged so a failure can never
//! be masked by a stale cache.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use crate::span::{fnv1a, Fnv};

/// File magic: "TTVC" (TickTock Verdict Cache).
pub const MAGIC: [u8; 4] = *b"TTVC";
/// Format version; bump on any layout change, or when what a record's
/// hashes mean changes. Version 2: the `fn_hash` half of a verifier
/// verdict is [`crate::verifier::source_key`] (crate-closure anchors and
/// the registering files), no longer the bare anchor hash.
pub const VERSION: u16 = 2;
/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 40;
/// Fixed record length in bytes.
pub const RECORD_LEN: usize = 48;

/// Valid bits in a record's flags byte.
const FLAG_VERIFIED: u8 = 0b01;
const FLAG_TRUSTED: u8 = 0b10;
const FLAG_MASK: u8 = FLAG_VERIFIED | FLAG_TRUSTED;
/// Valid kind tags are `0..KIND_LIMIT` (contract kinds + audit passes).
const KIND_LIMIT: u8 = 8;

/// Why a cache file was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheError {
    /// The file is shorter than the fixed header.
    Truncated,
    /// The magic bytes are wrong — not a verdict cache.
    BadMagic,
    /// The format version is not [`VERSION`].
    BadVersion(u16),
    /// The byte length after the header is not a multiple of [`RECORD_LEN`],
    /// or the header's record count disagrees with the actual length.
    BadLength,
    /// The whole-file checksum does not match: the file was corrupted.
    BadChecksum,
    /// A record carries invalid flag/kind/reserved bytes.
    BadRecord,
    /// Two records carry the same key hash: the image is ambiguous (which
    /// verdict would win depends on the decoder), so it is rejected.
    DuplicateKey,
    /// Record keys are not in ascending order: not an image [`encode`]
    /// writes, whose records are sorted by key.
    ///
    /// [`encode`]: VerdictCache::encode
    KeysOutOfOrder,
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::Truncated => write!(f, "cache file truncated"),
            CacheError::BadMagic => write!(f, "bad cache magic"),
            CacheError::BadVersion(v) => write!(f, "unsupported cache version {v}"),
            CacheError::BadLength => write!(f, "cache length inconsistent"),
            CacheError::BadChecksum => write!(f, "cache checksum mismatch"),
            CacheError::BadRecord => write!(f, "cache record invalid"),
            CacheError::DuplicateKey => write!(f, "cache records share a key"),
            CacheError::KeysOutOfOrder => write!(f, "cache records out of key order"),
        }
    }
}

impl std::error::Error for CacheError {}

/// How a cache load resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadOutcome {
    /// The file was present, valid, and matched the config hash.
    Warm,
    /// No cache file existed: a first (cold) run.
    NoFile,
    /// The file was valid but written under a different toolchain/config
    /// hash or format [`VERSION`]; its verdicts were discarded.
    ConfigChanged,
    /// The file failed validation; its verdicts were discarded.
    Corrupt(CacheError),
}

impl LoadOutcome {
    /// Whether the load produced any reusable verdicts.
    pub fn is_warm(&self) -> bool {
        matches!(self, LoadOutcome::Warm)
    }
}

/// One cached verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// Hash of the obligation identity (kind tag, component, function).
    pub key_hash: u64,
    /// Content hash of the function span(s) the verdict covers.
    pub fn_hash: u64,
    /// Hash of the obligation's discharge domain (the spec).
    pub domain_hash: u64,
    /// Cases discharged when the verdict was produced.
    pub cases: u64,
    /// Wall time of the original discharge, in nanoseconds.
    pub duration_ns: u64,
    /// Whether the obligation was trusted (axiomatized) rather than checked.
    pub trusted: bool,
    /// The kind tag (a [`crate::ContractKind`] ordinal or audit-pass tag).
    pub kind: u8,
}

impl Verdict {
    /// Encodes the verdict as one fixed-width record.
    pub fn encode(&self) -> [u8; RECORD_LEN] {
        let mut b = [0u8; RECORD_LEN];
        b[0..8].copy_from_slice(&self.key_hash.to_le_bytes());
        b[8..16].copy_from_slice(&self.fn_hash.to_le_bytes());
        b[16..24].copy_from_slice(&self.domain_hash.to_le_bytes());
        b[24..32].copy_from_slice(&self.cases.to_le_bytes());
        b[32..40].copy_from_slice(&self.duration_ns.to_le_bytes());
        b[40] = FLAG_VERIFIED | if self.trusted { FLAG_TRUSTED } else { 0 };
        b[41] = self.kind;
        // b[42..48] reserved, must be zero.
        b
    }

    /// Decodes one record, validating flags, kind and reserved bytes.
    pub fn decode(b: &[u8; RECORD_LEN]) -> Result<Self, CacheError> {
        let flags = b[40];
        if flags & !FLAG_MASK != 0 || flags & FLAG_VERIFIED == 0 {
            return Err(CacheError::BadRecord);
        }
        let kind = b[41];
        if kind >= KIND_LIMIT || b[42..48].iter().any(|&x| x != 0) {
            return Err(CacheError::BadRecord);
        }
        let u64_at = |at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
        Ok(Verdict {
            key_hash: u64_at(0),
            fn_hash: u64_at(8),
            domain_hash: u64_at(16),
            cases: u64_at(24),
            duration_ns: u64_at(32),
            trusted: flags & FLAG_TRUSTED != 0,
            kind,
        })
    }
}

/// Hashes an obligation identity into a record key.
pub fn verdict_key(kind_tag: u8, component: &str, function: &str) -> u64 {
    let mut h = Fnv::new();
    h.mix_u64(kind_tag as u64);
    h.mix_str(component);
    h.mix_str(function);
    h.finish()
}

/// The in-memory verdict cache, with load/save and hit accounting.
#[derive(Debug, Clone)]
pub struct VerdictCache {
    config_hash: u64,
    cold_wall_ns: u64,
    records: BTreeMap<u64, Verdict>,
    hits: u64,
    misses: u64,
}

impl VerdictCache {
    /// An empty (cold) cache under the given config hash.
    pub fn new(config_hash: u64) -> Self {
        Self {
            config_hash,
            cold_wall_ns: 0,
            records: BTreeMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Loads a cache file, falling back to an empty cold cache when the
    /// file is missing, corrupt, or written under a different config hash
    /// or format version.
    /// The outcome says which; callers warn on [`LoadOutcome::Corrupt`].
    /// Corruption never yields partial reuse: every record is discarded.
    pub fn load_or_cold(path: &Path, config_hash: u64) -> (Self, LoadOutcome) {
        let bytes = match fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return (Self::new(config_hash), LoadOutcome::NoFile)
            }
            // Unreadable is indistinguishable from corrupt for our purposes.
            Err(_) => {
                return (
                    Self::new(config_hash),
                    LoadOutcome::Corrupt(CacheError::Truncated),
                )
            }
        };
        match Self::decode(&bytes) {
            Ok(cache) if cache.config_hash == config_hash => (cache, LoadOutcome::Warm),
            // Another format version is a valid file from another build,
            // not corruption: the same cold fallback as a config change.
            Ok(_) | Err(CacheError::BadVersion(_)) => {
                (Self::new(config_hash), LoadOutcome::ConfigChanged)
            }
            Err(e) => (Self::new(config_hash), LoadOutcome::Corrupt(e)),
        }
    }

    /// Serializes the cache (header, records, then the checksum patched
    /// into the header).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.records.len() * RECORD_LEN);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&[0u8; 2]); // reserved
        out.extend_from_slice(&self.config_hash.to_le_bytes());
        out.extend_from_slice(&self.cold_wall_ns.to_le_bytes());
        out.extend_from_slice(&(self.records.len() as u64).to_le_bytes());
        out.extend_from_slice(&[0u8; 8]); // checksum slot, zeroed for hashing
        for v in self.records.values() {
            out.extend_from_slice(&v.encode());
        }
        let checksum = fnv1a(&out);
        out[32..40].copy_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Decodes and fully validates a cache file image.
    pub fn decode(bytes: &[u8]) -> Result<Self, CacheError> {
        if bytes.len() < HEADER_LEN {
            return Err(CacheError::Truncated);
        }
        if bytes[0..4] != MAGIC {
            return Err(CacheError::BadMagic);
        }
        let version = u16::from_le_bytes(bytes[4..6].try_into().unwrap());
        if version != VERSION {
            return Err(CacheError::BadVersion(version));
        }
        if bytes[6..8] != [0, 0] {
            return Err(CacheError::BadRecord);
        }
        let body = bytes.len() - HEADER_LEN;
        if !body.is_multiple_of(RECORD_LEN) {
            return Err(CacheError::BadLength);
        }
        let count = u64::from_le_bytes(bytes[24..32].try_into().unwrap());
        if count != (body / RECORD_LEN) as u64 {
            return Err(CacheError::BadLength);
        }
        let stored_checksum = u64::from_le_bytes(bytes[32..40].try_into().unwrap());
        let mut image = bytes.to_vec();
        image[32..40].fill(0);
        if fnv1a(&image) != stored_checksum {
            return Err(CacheError::BadChecksum);
        }
        let config_hash = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        let cold_wall_ns = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
        // Keys strictly ascending, as `encode` writes them: every image
        // that decodes re-encodes to itself, byte for byte.
        let mut records = BTreeMap::new();
        let mut last = None;
        for chunk in bytes[HEADER_LEN..].chunks_exact(RECORD_LEN) {
            let rec: &[u8; RECORD_LEN] = chunk.try_into().unwrap();
            let v = Verdict::decode(rec)?;
            match last {
                Some(k) if v.key_hash == k => return Err(CacheError::DuplicateKey),
                Some(k) if v.key_hash < k => return Err(CacheError::KeysOutOfOrder),
                _ => {}
            }
            last = Some(v.key_hash);
            records.insert(v.key_hash, v);
        }
        Ok(Self {
            config_hash,
            cold_wall_ns,
            records,
            hits: 0,
            misses: 0,
        })
    }

    /// Writes the cache to `path` (single buffered write, parent dirs
    /// assumed to exist — `ci/` is committed).
    pub fn save(&self, path: &Path) -> io::Result<()> {
        fs::write(path, self.encode())
    }

    /// Looks up a verdict; a hit requires the key, the function content
    /// hash *and* the domain hash to all match. Mismatches count as misses
    /// (the stale record will be overwritten by the fresh `store`).
    pub fn lookup(&mut self, key_hash: u64, fn_hash: u64, domain_hash: u64) -> Option<Verdict> {
        match self.records.get(&key_hash) {
            Some(v) if v.fn_hash == fn_hash && v.domain_hash == domain_hash => {
                self.hits += 1;
                Some(*v)
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    /// Stores (or replaces) a verified verdict.
    pub fn store(&mut self, verdict: Verdict) {
        self.records.insert(verdict.key_hash, verdict);
    }

    /// Cache hits since load.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses since load.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate over all lookups since load (0.0 when none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Number of stored verdicts.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the cache holds no verdicts.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The config hash this cache was created under.
    pub fn config_hash(&self) -> u64 {
        self.config_hash
    }

    /// The recorded cold-run wall time (ns); 0 until a cold run stores it.
    pub fn cold_wall_ns(&self) -> u64 {
        self.cold_wall_ns
    }

    /// Records the cold-run wall time used by warm-run speedup gates.
    pub fn set_cold_wall_ns(&mut self, ns: u64) {
        self.cold_wall_ns = ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> VerdictCache {
        let mut c = VerdictCache::new(0xC0FF_EE00_1234_5678);
        c.set_cold_wall_ns(1_960_000_000);
        for i in 0..5u64 {
            c.store(Verdict {
                key_hash: verdict_key(1, "Kernel (Process)", &format!("fn_{i}")),
                fn_hash: 0x1111 * (i + 1),
                domain_hash: 0x2222 * (i + 1),
                cases: 100 + i,
                duration_ns: 1_000 * (i + 1),
                trusted: i % 2 == 0,
                kind: (i % 5) as u8,
            });
        }
        c
    }

    #[test]
    fn encode_decode_round_trips() {
        let c = sample();
        let bytes = c.encode();
        assert_eq!(bytes.len(), HEADER_LEN + 5 * RECORD_LEN);
        let d = VerdictCache::decode(&bytes).expect("valid image");
        assert_eq!(d.config_hash(), c.config_hash());
        assert_eq!(d.cold_wall_ns(), c.cold_wall_ns());
        assert_eq!(d.len(), 5);
        for v in c.records.values() {
            assert_eq!(d.records.get(&v.key_hash), Some(v));
        }
    }

    #[test]
    fn lookup_requires_all_three_hashes() {
        let mut c = sample();
        let key = verdict_key(1, "Kernel (Process)", "fn_0");
        assert!(c.lookup(key, 0x1111, 0x2222).is_some());
        assert!(c.lookup(key, 0xdead, 0x2222).is_none(), "fn change = miss");
        assert!(
            c.lookup(key, 0x1111, 0xdead).is_none(),
            "spec change = miss"
        );
        assert!(c.lookup(0xdead, 0x1111, 0x2222).is_none(), "unknown key");
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 3);
        assert!((c.hit_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = sample().encode();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut garbled = bytes.clone();
                garbled[byte] ^= 1 << bit;
                assert!(
                    VerdictCache::decode(&garbled).is_err(),
                    "bit flip at byte {byte} bit {bit} must be detected"
                );
            }
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = sample().encode();
        for len in 0..bytes.len() {
            assert!(
                VerdictCache::decode(&bytes[..len]).is_err(),
                "truncation to {len} bytes must be detected"
            );
        }
    }

    #[test]
    fn header_field_errors_are_classified() {
        let bytes = sample().encode();
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert_eq!(
            VerdictCache::decode(&bad_magic).unwrap_err(),
            CacheError::BadMagic
        );
        let mut bad_version = bytes.clone();
        bad_version[4] = 99;
        // Version is checked before the checksum: an old-format file is
        // reported as such, not as corruption.
        assert_eq!(
            VerdictCache::decode(&bad_version).unwrap_err(),
            CacheError::BadVersion(99)
        );
        assert_eq!(
            VerdictCache::decode(&bytes[..HEADER_LEN - 1]).unwrap_err(),
            CacheError::Truncated
        );
        // Extra trailing bytes: not a record multiple.
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(
            VerdictCache::decode(&long).unwrap_err(),
            CacheError::BadLength
        );
        // A whole extra zero record: count mismatch.
        let mut extra = bytes.clone();
        extra.extend_from_slice(&[0u8; RECORD_LEN]);
        assert_eq!(
            VerdictCache::decode(&extra).unwrap_err(),
            CacheError::BadLength
        );
    }

    #[test]
    fn load_or_cold_never_partially_reuses() {
        let dir = std::env::temp_dir().join(format!("ttvc-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("verify_cache.bin");
        let config = 0xABCD;

        // Missing file: cold, no error.
        let _ = std::fs::remove_file(&path);
        let (c, outcome) = VerdictCache::load_or_cold(&path, config);
        assert_eq!(outcome, LoadOutcome::NoFile);
        assert!(c.is_empty());

        // Valid file: warm.
        let mut warm = VerdictCache::new(config);
        warm.store(Verdict {
            key_hash: 7,
            fn_hash: 8,
            domain_hash: 9,
            cases: 1,
            duration_ns: 2,
            trusted: false,
            kind: 0,
        });
        warm.save(&path).unwrap();
        let (c, outcome) = VerdictCache::load_or_cold(&path, config);
        assert_eq!(outcome, LoadOutcome::Warm);
        assert_eq!(c.len(), 1);

        // Different config hash: cold, records discarded.
        let (c, outcome) = VerdictCache::load_or_cold(&path, config + 1);
        assert_eq!(outcome, LoadOutcome::ConfigChanged);
        assert!(c.is_empty());

        // Bit-flipped file: corrupt, records discarded, classified error.
        let mut garbled = std::fs::read(&path).unwrap();
        let mid = HEADER_LEN + RECORD_LEN / 2;
        garbled[mid] ^= 0x10;
        std::fs::write(&path, &garbled).unwrap();
        let (c, outcome) = VerdictCache::load_or_cold(&path, config);
        assert!(matches!(outcome, LoadOutcome::Corrupt(_)), "{outcome:?}");
        assert!(c.is_empty(), "corrupt cache must never be partially reused");

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn verdict_record_rejects_invalid_bytes() {
        let v = Verdict {
            key_hash: 1,
            fn_hash: 2,
            domain_hash: 3,
            cases: 4,
            duration_ns: 5,
            trusted: true,
            kind: 4,
        };
        let b = v.encode();
        assert_eq!(Verdict::decode(&b), Ok(v));
        let mut bad = b;
        bad[40] = 0b100; // unknown flag bit
        assert_eq!(Verdict::decode(&bad), Err(CacheError::BadRecord));
        let mut bad = b;
        bad[40] = 0; // verified bit clear
        assert_eq!(Verdict::decode(&bad), Err(CacheError::BadRecord));
        let mut bad = b;
        bad[41] = KIND_LIMIT; // kind out of range
        assert_eq!(Verdict::decode(&bad), Err(CacheError::BadRecord));
        let mut bad = b;
        bad[47] = 1; // reserved byte set
        assert_eq!(Verdict::decode(&bad), Err(CacheError::BadRecord));
    }

    /// Rewrites an image's record count and checksum to match its bytes,
    /// so decoding gets past the whole-file checks to the records.
    fn reseal(bytes: &mut [u8]) {
        let count = ((bytes.len() - HEADER_LEN) / RECORD_LEN) as u64;
        bytes[24..32].copy_from_slice(&count.to_le_bytes());
        bytes[32..40].fill(0);
        let checksum = fnv1a(bytes);
        bytes[32..40].copy_from_slice(&checksum.to_le_bytes());
    }

    fn same(a: &VerdictCache, b: &VerdictCache) -> bool {
        a.config_hash == b.config_hash && a.cold_wall_ns == b.cold_wall_ns && a.records == b.records
    }

    #[test]
    fn two_records_under_one_key_are_rejected() {
        let mut bytes = sample().encode();
        let first = bytes[HEADER_LEN..HEADER_LEN + RECORD_LEN].to_vec();
        bytes.splice(HEADER_LEN..HEADER_LEN, first);
        reseal(&mut bytes);
        assert_eq!(
            VerdictCache::decode(&bytes).unwrap_err(),
            CacheError::DuplicateKey
        );
        // Same records, swapped: out of order.
        let mut bytes = sample().encode();
        let (a, b) = (HEADER_LEN, HEADER_LEN + RECORD_LEN);
        let second = bytes[b..b + RECORD_LEN].to_vec();
        bytes.copy_within(a..b, b);
        bytes[a..b].copy_from_slice(&second);
        reseal(&mut bytes);
        assert_eq!(
            VerdictCache::decode(&bytes).unwrap_err(),
            CacheError::KeysOutOfOrder
        );
    }

    fn verdict_strategy() -> impl proptest::Strategy<Value = Verdict> {
        use proptest::prelude::*;
        proptest::array::uniform8(any::<u64>()).prop_map(|w| Verdict {
            key_hash: w[0],
            fn_hash: w[1],
            domain_hash: w[2],
            cases: w[3],
            duration_ns: w[4],
            trusted: w[5] & 1 == 1,
            kind: (w[6] % KIND_LIMIT as u64) as u8,
        })
    }

    proptest::proptest! {
        #[test]
        fn decode_round_trips_every_encoded_cache(
            config in proptest::prelude::any::<u64>(),
            cold in proptest::prelude::any::<u64>(),
            verdicts in proptest::collection::vec(verdict_strategy(), 0..12),
        ) {
            let mut c = VerdictCache::new(config);
            c.set_cold_wall_ns(cold);
            for v in verdicts {
                c.store(v);
            }
            let bytes = c.encode();
            let d = VerdictCache::decode(&bytes).expect("an encoded cache decodes");
            proptest::prop_assert!(same(&c, &d));
            proptest::prop_assert_eq!(d.encode(), bytes);
        }

        #[test]
        fn decode_never_panics_on_arbitrary_bytes(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..200),
            resealed in proptest::prelude::any::<bool>(),
        ) {
            let mut bytes = bytes;
            if resealed && bytes.len() >= HEADER_LEN {
                bytes[..4].copy_from_slice(&MAGIC);
                bytes[4..6].copy_from_slice(&VERSION.to_le_bytes());
                reseal(&mut bytes);
            }
            if let Ok(d) = VerdictCache::decode(&bytes) {
                proptest::prop_assert_eq!(d.encode(), bytes);
            }
        }

        #[test]
        fn truncated_or_flipped_images_decode_to_themselves_or_a_typed_error(
            verdicts in proptest::collection::vec(verdict_strategy(), 1..6),
            cut in proptest::prelude::any::<u64>(),
            flip in proptest::prelude::any::<u64>(),
            resealed in proptest::prelude::any::<bool>(),
        ) {
            let mut c = VerdictCache::new(7);
            for v in verdicts {
                c.store(v);
            }
            let bytes = c.encode();
            let truncated = &bytes[..(cut % bytes.len() as u64) as usize];
            proptest::prop_assert!(VerdictCache::decode(truncated).is_err());
            let mut flipped = bytes.clone();
            let bit = (flip % (8 * bytes.len() as u64)) as usize;
            flipped[bit / 8] ^= 1 << (bit % 8);
            if resealed {
                reseal(&mut flipped);
            }
            match VerdictCache::decode(&flipped) {
                Ok(d) => proptest::prop_assert_eq!(d.encode(), flipped),
                Err(e) => proptest::prop_assert!(!e.to_string().is_empty()),
            }
        }
    }

    #[test]
    fn a_version_1_cache_loads_as_a_cold_run() {
        let mut old = sample().encode();
        old[4..6].copy_from_slice(&1u16.to_le_bytes());
        reseal(&mut old);
        let path = std::env::temp_dir().join(format!("ttvc-v1-{}.bin", std::process::id()));
        fs::write(&path, &old).unwrap();
        let (cache, outcome) = VerdictCache::load_or_cold(&path, sample().config_hash());
        let _ = fs::remove_file(&path);
        assert_eq!(outcome, LoadOutcome::ConfigChanged);
        assert!(cache.is_empty());
    }

    #[test]
    fn empty_cache_round_trips() {
        let c = VerdictCache::new(42);
        let d = VerdictCache::decode(&c.encode()).unwrap();
        assert!(d.is_empty());
        assert_eq!(d.config_hash(), 42);
        assert_eq!(d.hit_rate(), 0.0);
    }
}
