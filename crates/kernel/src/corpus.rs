//! Fixed-width per-run result records and on-disk corpus persistence.
//!
//! Fleet campaigns produce up to 10^6 runs; keeping a `RunRecord` (with
//! its full trace) per run is out of the question. A [`CorpusRecord`] is
//! the compact summary a campaign keeps per run — enough to re-identify
//! the run (chip, seed, cache mode, interrupt schedule), re-drive it
//! (seed + schedule ID are the whole input), and triage it
//! (fired/restart/kill counts, oracle failures, trace length, recovery
//! cycles). Records are fixed-width-per-version little-endian so a
//! corpus file under `ci/corpus/` is walkable by record and diffable by
//! byte offset.
//!
//! Two wire versions coexist:
//!
//! - **v1** (32 bytes): the pre-explorer layout, no schedule field.
//!   Decodes forever — a v1 record means "no interrupt schedule"
//!   ([`CorpusRecord::schedule`] = 0).
//! - **v2** (40 bytes): v1 plus the replayable 64-bit
//!   [`tt_hw::sched::InterruptSchedule::id`] at bytes 32..40. The
//!   encoder emits v1 for unscheduled records, so corpora written
//!   before the explorer existed stay byte-identical when re-encoded.
//!
//! Each record leads with `magic, version`, and the version fixes the
//! record length, so a reader never needs file-level framing to walk a
//! mixed corpus.

use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::Path;

/// Encoded size of a version-1 (unscheduled) [`CorpusRecord`].
pub const RECORD_LEN: usize = 32;
/// Encoded size of a version-2 (schedule-carrying) [`CorpusRecord`].
pub const RECORD_LEN_V2: usize = 40;

/// First byte of every record.
const MAGIC: u8 = 0xC7;
/// Unscheduled layout (no trailing schedule ID).
const VERSION_V1: u8 = 1;
/// Scheduled layout: v1 plus the 64-bit schedule ID at bytes 32..40.
const VERSION_V2: u8 = 2;

const FLAG_COLD: u8 = 1 << 0;
const FLAG_KILLED: u8 = 1 << 1;
const FLAG_CLEAN: u8 = 1 << 2;
const KNOWN_FLAGS: u8 = FLAG_COLD | FLAG_KILLED | FLAG_CLEAN;

/// One fleet-campaign run, reduced to a fixed-width summary.
///
/// Layout (all little-endian):
///
/// | bytes  | field             |
/// |--------|-------------------|
/// | 0      | magic (`0xC7`)    |
/// | 1      | version (1 or 2)  |
/// | 2      | chip index        |
/// | 3      | flags (cold, killed, clean) |
/// | 4..6   | fired             |
/// | 6..8   | restarts          |
/// | 8..16  | seed              |
/// | 16..18 | recoveries        |
/// | 18..20 | failures          |
/// | 20..24 | trace_len         |
/// | 24..32 | recovery_cycles   |
/// | 32..40 | schedule (v2 only) |
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CorpusRecord {
    /// Index of the chip in `tt_hw::platform::ALL_CHIPS`.
    pub chip: u8,
    /// Whether the run executed with the commit cache disabled.
    pub cold: bool,
    /// Whether the victim ended permanently killed.
    pub killed: bool,
    /// Whether the run's baseline carried no injection plan at all (a
    /// clean, explorer-style run). When set, [`Self::seed`] is dead
    /// weight: replay the schedule with *no* plan rather than with
    /// `from_seed(0)`, which is a different baseline.
    pub clean: bool,
    /// The injection seed.
    pub seed: u64,
    /// The interrupt-schedule ID the run executed under
    /// ([`tt_hw::sched::InterruptSchedule::id`]); 0 = no schedule.
    pub schedule: u64,
    /// Injections that fired (saturated to `u16::MAX`).
    pub fired: u16,
    /// Victim restarts.
    pub restarts: u16,
    /// Victim fault recoveries.
    pub recoveries: u16,
    /// Oracle failures this run produced (0 = clean).
    pub failures: u16,
    /// Events in the run's trace (saturated to `u32::MAX`).
    pub trace_len: u32,
    /// Cycles spent recovering the victim.
    pub recovery_cycles: u64,
}

impl CorpusRecord {
    /// The wire length [`Self::encode`] produces for this record:
    /// [`RECORD_LEN`] when unscheduled, [`RECORD_LEN_V2`] otherwise.
    pub fn encoded_len(&self) -> usize {
        if self.schedule == 0 {
            RECORD_LEN
        } else {
            RECORD_LEN_V2
        }
    }

    /// Encodes the record. Unscheduled records (`schedule == 0`) emit
    /// the 32-byte v1 layout — byte-identical to pre-explorer corpora —
    /// and scheduled records the 40-byte v2 layout.
    pub fn encode(&self) -> Vec<u8> {
        let v2 = self.schedule != 0;
        let mut buf = vec![0u8; self.encoded_len()];
        buf[0] = MAGIC;
        buf[1] = if v2 { VERSION_V2 } else { VERSION_V1 };
        buf[2] = self.chip;
        buf[3] = (u8::from(self.cold) * FLAG_COLD)
            | (u8::from(self.killed) * FLAG_KILLED)
            | (u8::from(self.clean) * FLAG_CLEAN);
        buf[4..6].copy_from_slice(&self.fired.to_le_bytes());
        buf[6..8].copy_from_slice(&self.restarts.to_le_bytes());
        buf[8..16].copy_from_slice(&self.seed.to_le_bytes());
        buf[16..18].copy_from_slice(&self.recoveries.to_le_bytes());
        buf[18..20].copy_from_slice(&self.failures.to_le_bytes());
        buf[20..24].copy_from_slice(&self.trace_len.to_le_bytes());
        buf[24..32].copy_from_slice(&self.recovery_cycles.to_le_bytes());
        if v2 {
            buf[32..40].copy_from_slice(&self.schedule.to_le_bytes());
        }
        buf
    }

    /// What the record re-drives: chip, cache mode, baseline (`clean`
    /// or seed) and schedule. Two records with one identity are one
    /// input; the rest of a record only triages it.
    pub fn identity(&self) -> (u8, bool, bool, u64, u64) {
        (self.chip, self.cold, self.clean, self.seed, self.schedule)
    }

    /// Decodes the record at the front of `buf`, returning it together
    /// with its encoded length (so a reader can walk a mixed v1/v2
    /// corpus). Validates magic, version, flag bits, and — for v2 —
    /// that the schedule field is not the v1-reserved 0.
    pub fn decode_prefix(buf: &[u8]) -> Result<(Self, usize), CorpusError> {
        if buf.len() < 2 {
            return Err(CorpusError::Truncated {
                need: 2,
                have: buf.len(),
            });
        }
        if buf[0] != MAGIC {
            return Err(CorpusError::BadMagic(buf[0]));
        }
        let len = match buf[1] {
            VERSION_V1 => RECORD_LEN,
            VERSION_V2 => RECORD_LEN_V2,
            v => return Err(CorpusError::BadVersion(v)),
        };
        if buf.len() < len {
            return Err(CorpusError::Truncated {
                need: len,
                have: buf.len(),
            });
        }
        if buf[3] & !KNOWN_FLAGS != 0 {
            return Err(CorpusError::BadFlags(buf[3]));
        }
        let le16 = |i: usize| u16::from_le_bytes([buf[i], buf[i + 1]]);
        let schedule = if buf[1] == VERSION_V2 {
            let s = u64::from_le_bytes(buf[32..40].try_into().expect("8-byte slice"));
            if s == 0 {
                // A v2 record claiming "no schedule" is a writer bug:
                // the encoder always downgrades those to v1.
                return Err(CorpusError::BadSchedule);
            }
            s
        } else {
            0
        };
        Ok((
            Self {
                chip: buf[2],
                cold: buf[3] & FLAG_COLD != 0,
                killed: buf[3] & FLAG_KILLED != 0,
                clean: buf[3] & FLAG_CLEAN != 0,
                seed: u64::from_le_bytes(buf[8..16].try_into().expect("8-byte slice")),
                schedule,
                fired: le16(4),
                restarts: le16(6),
                recoveries: le16(16),
                failures: le16(18),
                trace_len: u32::from_le_bytes(buf[20..24].try_into().expect("4-byte slice")),
                recovery_cycles: u64::from_le_bytes(buf[24..32].try_into().expect("8-byte slice")),
            },
            len,
        ))
    }

    /// Decodes exactly one record from `buf`, rejecting trailing bytes.
    pub fn decode(buf: &[u8]) -> Result<Self, CorpusError> {
        let (record, len) = Self::decode_prefix(buf)?;
        if len != buf.len() {
            return Err(CorpusError::TrailingBytes(buf.len() - len));
        }
        Ok(record)
    }
}

/// A malformed [`CorpusRecord`] encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorpusError {
    /// First byte is not the record magic.
    BadMagic(u8),
    /// Unknown format version.
    BadVersion(u8),
    /// Undefined flag bits set.
    BadFlags(u8),
    /// A v2 record carrying the v1-reserved "no schedule" value.
    BadSchedule,
    /// The buffer ends inside the record.
    Truncated {
        /// Bytes the record's version requires.
        need: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// [`CorpusRecord::decode`] found bytes after the record.
    TrailingBytes(usize),
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::BadMagic(b) => write!(f, "bad corpus magic {b:#04x}"),
            CorpusError::BadVersion(v) => write!(f, "unsupported corpus version {v}"),
            CorpusError::BadFlags(b) => write!(f, "undefined corpus flag bits in {b:#04x}"),
            CorpusError::BadSchedule => write!(f, "v2 corpus record with a zero schedule ID"),
            CorpusError::Truncated { need, have } => {
                write!(f, "truncated corpus record: need {need} bytes, have {have}")
            }
            CorpusError::TrailingBytes(n) => write!(f, "{n} trailing bytes after corpus record"),
        }
    }
}

impl std::error::Error for CorpusError {}

/// Encodes `records` into one contiguous byte buffer — the corpus file
/// image.
pub fn encode_corpus(records: &[CorpusRecord]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(records.iter().map(CorpusRecord::encoded_len).sum());
    for r in records {
        bytes.extend_from_slice(&r.encode());
    }
    bytes
}

/// Writes `records` to `path` (creating parent directories), replacing
/// any existing file.
///
/// The whole corpus is encoded into one buffer and handed to the OS as
/// a single `write_all` — for a 10^6-run campaign that is one ~32 MB
/// write instead of a million small ones, and a crash mid-write can
/// only truncate the single final write rather than interleave records.
pub fn write_corpus(path: &Path, records: &[CorpusRecord]) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    let mut out = fs::File::create(path)?;
    out.write_all(&encode_corpus(records))?;
    out.flush()
}

/// Decodes a corpus file image — the inverse of [`encode_corpus`] —
/// walking mixed v1/v2 records by each record's own version-determined
/// length. A trailing partial record or a malformed entry is the first
/// record's [`CorpusError`].
pub fn decode_corpus(bytes: &[u8]) -> Result<Vec<CorpusRecord>, CorpusError> {
    let mut records = Vec::with_capacity(bytes.len() / RECORD_LEN);
    let mut at = 0;
    while at < bytes.len() {
        let (record, len) = CorpusRecord::decode_prefix(&bytes[at..])?;
        records.push(record);
        at += len;
    }
    Ok(records)
}

/// Reads every record from a corpus file ([`decode_corpus`]). A missing
/// file is an empty corpus (no run has failed yet); trailing partial
/// records or malformed entries surface as `InvalidData` — a corrupt
/// corpus fails the job rather than silently dropping its records.
pub fn read_corpus(path: &Path) -> io::Result<Vec<CorpusRecord>> {
    let bytes = match fs::read(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        bytes => bytes?,
    };
    decode_corpus(&bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// The one writer rule. After a run that replayed `corpus` (its lines
/// in `replayed`, corpus order) and found the failing records `found`,
/// the corpus becomes the replayed records that still fail, then the
/// new ones, each identity ([`CorpusRecord::identity`]) once. `None`
/// when nothing failed: a clean run leaves the file alone.
pub fn next_corpus(
    corpus: &[CorpusRecord],
    replayed: &[Vec<String>],
    found: &[CorpusRecord],
) -> Option<Vec<CorpusRecord>> {
    let still = corpus
        .iter()
        .zip(replayed)
        .filter(|(_, lines)| !lines.is_empty())
        .map(|(r, _)| r);
    let mut seen = std::collections::HashSet::new();
    let next: Vec<CorpusRecord> = still
        .chain(found)
        .filter(|r| seen.insert(r.identity()))
        .copied()
        .collect();
    (!next.is_empty()).then_some(next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> CorpusRecord {
        CorpusRecord {
            chip: 3,
            cold: true,
            killed: false,
            clean: false,
            seed: 0xDEAD_BEEF_0042,
            schedule: 0,
            fired: 2,
            restarts: 1,
            recoveries: 1,
            failures: 0,
            trace_len: 12_345,
            recovery_cycles: 987_654,
        }
    }

    fn scheduled_sample() -> CorpusRecord {
        CorpusRecord {
            schedule: tt_hw::sched::InterruptSchedule::single(
                tt_hw::sched::ArrivalPoint::MpuCommit,
                17,
            )
            .id(),
            failures: 1,
            clean: true,
            ..sample()
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let r = sample();
        let buf = r.encode();
        assert_eq!(buf.len(), RECORD_LEN);
        assert_eq!(buf[1], 1, "unscheduled records stay v1 on the wire");
        assert_eq!(CorpusRecord::decode(&buf).unwrap(), r);
        let r = scheduled_sample();
        let buf = r.encode();
        assert_eq!(buf.len(), RECORD_LEN_V2);
        assert_eq!(buf[1], 2);
        assert_eq!(CorpusRecord::decode(&buf).unwrap(), r);
    }

    #[test]
    fn v1_records_decode_with_an_empty_schedule() {
        // A pre-explorer 32-byte record (exact bytes, not re-encoded)
        // must keep decoding, with schedule = 0.
        let buf = sample().encode();
        assert_eq!(buf.len(), RECORD_LEN);
        let decoded = CorpusRecord::decode(&buf).unwrap();
        assert_eq!(decoded.schedule, 0);
        assert_eq!(decoded, sample());
    }

    #[test]
    fn decode_rejects_malformed_records() {
        let mut buf = sample().encode();
        buf[0] = 0;
        assert_eq!(CorpusRecord::decode(&buf), Err(CorpusError::BadMagic(0)));
        let mut buf = sample().encode();
        buf[1] = 99;
        assert_eq!(CorpusRecord::decode(&buf), Err(CorpusError::BadVersion(99)));
        let mut buf = sample().encode();
        buf[3] |= 0x80;
        assert!(matches!(
            CorpusRecord::decode(&buf),
            Err(CorpusError::BadFlags(_))
        ));
        // A v2 header on a v1-length body is truncated, not misread.
        let mut buf = sample().encode();
        buf[1] = 2;
        assert_eq!(
            CorpusRecord::decode(&buf),
            Err(CorpusError::Truncated {
                need: RECORD_LEN_V2,
                have: RECORD_LEN
            })
        );
        // A v2 record with a zero schedule is a writer bug.
        let mut buf = scheduled_sample().encode();
        buf[32..40].copy_from_slice(&0u64.to_le_bytes());
        assert_eq!(CorpusRecord::decode(&buf), Err(CorpusError::BadSchedule));
        // Trailing bytes after a lone record are rejected.
        let mut buf = sample().encode();
        buf.push(0);
        assert_eq!(
            CorpusRecord::decode(&buf),
            Err(CorpusError::TrailingBytes(1))
        );
    }

    #[test]
    fn file_round_trip_and_truncation_detection() {
        let dir = std::env::temp_dir().join(format!("tt-corpus-test-{}", std::process::id()));
        let path = dir.join("sub").join("runs.bin");
        // A mixed corpus: v1, v2, v1 — the reader walks by per-record
        // version, not a file-level stride.
        let records = vec![
            sample(),
            scheduled_sample(),
            CorpusRecord {
                chip: 0,
                cold: false,
                killed: true,
                clean: false,
                seed: 7,
                schedule: 0,
                fired: 0,
                restarts: 5,
                recoveries: 5,
                failures: 3,
                trace_len: 0,
                recovery_cycles: u64::MAX,
            },
        ];
        write_corpus(&path, &records).unwrap();
        assert_eq!(read_corpus(&path).unwrap(), records);
        // The on-disk image is exactly the single-buffer encoding the
        // batched writer produces.
        assert_eq!(fs::read(&path).unwrap(), encode_corpus(&records));
        assert_eq!(
            fs::read(&path).unwrap().len(),
            2 * RECORD_LEN + RECORD_LEN_V2
        );
        // A truncated file is invalid, not silently short.
        let mut bytes = fs::read(&path).unwrap();
        bytes.pop();
        fs::write(&path, &bytes).unwrap();
        assert_eq!(
            read_corpus(&path).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_final_record_is_rejected_not_dropped() {
        // Regression for the batched writer: a file cut anywhere inside
        // its *final* record (the only truncation a single interrupted
        // write can produce) must fail loudly — a reader that silently
        // dropped the partial tail would under-report the campaign.
        // Exercised for both wire versions in the tail slot.
        let dir = std::env::temp_dir().join(format!("tt-corpus-trunc-{}", std::process::id()));
        let path = dir.join("runs.bin");
        for tail in [sample(), scheduled_sample()] {
            let records = vec![sample(), scheduled_sample(), sample(), sample(), tail];
            let tail_len = tail.encoded_len();
            for cut in 1..tail_len {
                write_corpus(&path, &records).unwrap();
                let mut bytes = fs::read(&path).unwrap();
                bytes.truncate(bytes.len() - cut);
                fs::write(&path, &bytes).unwrap();
                let err = read_corpus(&path).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut {cut}");
            }
            // Truncation at a record boundary is indistinguishable from
            // a shorter campaign — those four intact records still
            // decode.
            write_corpus(&path, &records).unwrap();
            let mut bytes = fs::read(&path).unwrap();
            bytes.truncate(bytes.len() - tail_len);
            fs::write(&path, &bytes).unwrap();
            assert_eq!(read_corpus(&path).unwrap(), records[..4]);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_writer_keeps_still_failing_records_then_new_ones_once_each() {
        let a = sample();
        let b = scheduled_sample();
        let c = CorpusRecord { seed: 9, ..a };
        let fail = || vec!["boom".to_string()];
        // Nothing failed: the file is left alone, however stale.
        assert_eq!(next_corpus(&[a, b], &[vec![], vec![]], &[]), None);
        assert_eq!(next_corpus(&[], &[], &[]), None);
        // Still-failing replays first, in corpus order, then new
        // failures; a passing replay drops out.
        assert_eq!(
            next_corpus(&[a, b, c], &[fail(), vec![], fail()], &[b]),
            Some(vec![a, c, b])
        );
        // An identity is written once, whatever the triage fields say:
        // a new failure that a replay already keeps, and a duplicate
        // within the new failures.
        let again = CorpusRecord {
            failures: 7,
            trace_len: 1,
            ..a
        };
        assert_eq!(again.identity(), a.identity());
        assert_eq!(
            next_corpus(&[a], &[fail()], &[again, b, b]),
            Some(vec![a, b])
        );
        // Every identity field tells records apart.
        for other in [
            CorpusRecord { chip: 4, ..a },
            CorpusRecord { cold: false, ..a },
            CorpusRecord { clean: true, ..a },
            CorpusRecord { seed: 1, ..a },
            CorpusRecord { schedule: 5, ..a },
        ] {
            assert_ne!(other.identity(), a.identity(), "{other:?}");
        }
    }

    #[test]
    fn a_missing_corpus_is_empty() {
        let path = std::env::temp_dir().join(format!("tt-corpus-none-{}", std::process::id()));
        assert_eq!(read_corpus(&path.join("failures.bin")).unwrap(), []);
    }

    proptest! {
        #[test]
        fn round_trip_holds_for_arbitrary_records(
            chip in any::<u8>(),
            cold in any::<bool>(),
            killed in any::<bool>(),
            clean in any::<bool>(),
            seed in any::<u64>(),
            schedule in any::<u64>(),
            fired in any::<u16>(),
            restarts in any::<u16>(),
            recoveries in any::<u16>(),
            failures in any::<u16>(),
            trace_len in any::<u32>(),
            recovery_cycles in any::<u64>(),
        ) {
            let r = CorpusRecord {
                chip, cold, killed, clean, seed, schedule, fired, restarts,
                recoveries, failures, trace_len, recovery_cycles,
            };
            prop_assert_eq!(r.encode().len(), r.encoded_len());
            prop_assert_eq!(CorpusRecord::decode(&r.encode()).unwrap(), r);
        }

        #[test]
        fn decoders_never_panic_on_arbitrary_bytes(
            bytes in proptest::collection::vec(any::<u8>(), 0..200),
            header in any::<u8>(),
        ) {
            // Half the cases get a valid magic and version, so the
            // walk reaches the flag, schedule and length checks.
            let mut bytes = bytes;
            if header & 1 == 1 && bytes.len() >= 2 {
                bytes[0] = MAGIC;
                bytes[1] = if header & 2 == 0 { VERSION_V1 } else { VERSION_V2 };
            }
            check_decoders(&bytes)?;
        }

        #[test]
        fn truncated_or_flipped_corpora_decode_to_themselves_or_a_typed_error(
            kinds in proptest::collection::vec(any::<u64>(), 1..6),
            cut in any::<u64>(),
            flip in any::<u64>(),
        ) {
            // A mixed v1/v2 corpus: each word picks the record's layout
            // and fields.
            let records: Vec<CorpusRecord> = kinds.iter().map(|&k| record_from(k)).collect();
            let bytes = encode_corpus(&records);
            prop_assert_eq!(decode_corpus(&bytes).unwrap(), records);
            let truncated = &bytes[..(cut % bytes.len() as u64) as usize];
            check_decoders(truncated)?;
            let mut flipped = bytes.clone();
            let bit = (flip % (8 * bytes.len() as u64)) as usize;
            flipped[bit / 8] ^= 1 << (bit % 8);
            check_decoders(&flipped)?;
        }
    }

    /// A record whose layout (v1 or v2) and fields all derive from `k`.
    fn record_from(k: u64) -> CorpusRecord {
        CorpusRecord {
            chip: k as u8,
            cold: k & (1 << 8) != 0,
            killed: k & (1 << 9) != 0,
            clean: k & (1 << 10) != 0,
            seed: k.rotate_left(17),
            schedule: if k & (1 << 11) != 0 { k | 1 } else { 0 },
            fired: (k >> 12) as u16,
            restarts: (k >> 20) as u16,
            recoveries: (k >> 28) as u16,
            failures: (k >> 36) as u16,
            trace_len: (k >> 24) as u32,
            recovery_cycles: k.rotate_right(9),
        }
    }

    /// The decoder contract on any input: `decode_prefix`, `decode` and
    /// the `decode_corpus` walk return a record or a typed error (the
    /// shim fails the case on a panic); whatever decodes re-encodes to
    /// exactly its bytes, and every rejection is consistent across the
    /// three.
    fn check_decoders(bytes: &[u8]) -> Result<(), proptest::TestCaseError> {
        match CorpusRecord::decode_prefix(bytes) {
            Ok((r, len)) => {
                prop_assert_eq!(len, r.encoded_len());
                prop_assert_eq!(r.encode(), bytes[..len].to_vec());
            }
            Err(e) => {
                prop_assert_eq!(CorpusRecord::decode(bytes), Err(e));
                prop_assert!(!e.to_string().is_empty());
            }
        }
        if let Ok(r) = CorpusRecord::decode(bytes) {
            prop_assert_eq!(r.encode(), bytes.to_vec());
        }
        match decode_corpus(bytes) {
            Ok(records) => prop_assert_eq!(encode_corpus(&records), bytes.to_vec()),
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
        Ok(())
    }
}
