//! The simulated physical address space: flash, RAM, and a protected bus.
//!
//! This is the substrate standing in for real silicon. The kernel sees a
//! [`PhysicalMemory`] it can always access (the MPU is disabled during
//! kernel execution, §2.1); user-mode accesses instead go through a
//! [`Bus`], which consults a [`ProtectionUnit`] — the Cortex-M MPU or
//! RISC-V PMP model — and faults exactly where hardware would.

use crate::addr::AddrRange;
use std::fmt;

/// The kind of memory access being performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessType {
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// Instruction fetch.
    Execute,
}

/// The privilege level of the access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Privilege {
    /// Kernel / machine mode.
    Privileged,
    /// User / unprivileged mode.
    Unprivileged,
}

/// Why an access was denied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// No protection region matched an unprivileged access.
    NoRegionMatch,
    /// A region matched but its permissions forbid the access type.
    PermissionDenied,
    /// The address is outside the modelled address space entirely.
    Unmapped,
    /// A region matched but the covering subregion is disabled.
    SubregionDisabled,
    /// A locked PMP entry forbids even machine-mode access.
    LockedEntry,
}

/// The outcome of a protection check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessDecision {
    /// Hardware admits the access.
    Allowed,
    /// Hardware raises a memory-management / access fault.
    Fault(FaultKind),
}

impl AccessDecision {
    /// Returns `true` if the access is admitted.
    pub fn allowed(&self) -> bool {
        matches!(self, AccessDecision::Allowed)
    }
}

/// A hardware memory-protection unit: Cortex-M MPU or RISC-V PMP.
///
/// The isolation property the paper verifies is a statement about this
/// trait's `check` method: with the kernel's configuration loaded, an
/// unprivileged access is allowed *iff* it falls in the process's own
/// flash (read/execute) or RAM (read/write) regions.
pub trait ProtectionUnit {
    /// Decides whether hardware admits the access.
    fn check(
        &self,
        addr: usize,
        size: usize,
        access: AccessType,
        priv_: Privilege,
    ) -> AccessDecision;

    /// Returns `true` if protection is currently enabled.
    fn enabled(&self) -> bool;

    /// Human-readable unit name for fault reports.
    fn name(&self) -> &'static str;
}

/// The memory map of a chip: where flash and RAM live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryMap {
    /// Flash (code) range.
    pub flash: AddrRange,
    /// RAM range.
    pub ram: AddrRange,
}

impl MemoryMap {
    /// Classifies an address.
    pub fn classify(&self, addr: usize) -> Option<Segment> {
        if self.flash.contains(addr) {
            Some(Segment::Flash)
        } else if self.ram.contains(addr) {
            Some(Segment::Ram)
        } else {
            None
        }
    }
}

/// Which backing segment an address belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Segment {
    /// Flash segment.
    Flash,
    /// RAM segment.
    Ram,
}

/// Dirty-tracking granule for [`MemSnapshot`] restore: one bit covers
/// this many bytes of RAM. 256 bytes keeps the bitmap tiny (128 bytes
/// per MiB of RAM) while a typical campaign run dirties only a handful
/// of granules, so restore copies kilobytes instead of the whole RAM.
pub const SNAPSHOT_PAGE_SIZE: usize = 256;
const PAGE_SHIFT: u32 = SNAPSHOT_PAGE_SIZE.trailing_zeros();

/// A point-in-time copy of a chip's memory, produced by
/// [`PhysicalMemory::snapshot`]: the base every [`PageDelta`] is taken
/// against and [`PhysicalMemory::restore_to`] copies from.
///
/// This is the memory half of the copy-on-write scheme in
/// `tt_kernel::snapshot`: the snapshot itself is a full copy taken once
/// per boot, and from that moment the live memory tracks which
/// [`SNAPSHOT_PAGE_SIZE`]-byte RAM pages a run dirtied. Restore copies
/// back only those pages, plus the pages of the checkpoints it moves
/// between (and flash, only if it was reprogrammed), so resetting a run
/// costs proportional to what the run touched, not to the chip's RAM
/// size. Flash is copied only up to its programmed extent: everything
/// above it is zero (see [`PhysicalMemory::program_flash`]).
#[derive(Debug, Clone)]
pub struct MemSnapshot {
    /// The map the snapshot was taken on; restore refuses any other.
    map: MemoryMap,
    /// Flash up to the programmed extent at snapshot time.
    flash: Vec<u8>,
    ram: Vec<u8>,
}

impl MemSnapshot {
    /// Total bytes held by the snapshot.
    pub fn bytes(&self) -> usize {
        self.flash.len() + self.ram.len()
    }
}

/// The RAM pages in which a checkpoint may differ from the base
/// [`MemSnapshot`], with their contents: what a checkpoint stores
/// instead of a second full copy ([`PhysicalMemory::capture_delta`],
/// [`PhysicalMemory::restore_to`]). The default delta is empty — the
/// base itself.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PageDelta {
    /// Bitmap over snapshot pages (empty = no page).
    pages: Vec<u64>,
    /// The set pages' contents, in ascending page order.
    data: Vec<u8>,
}

impl PageDelta {
    fn word(&self, w: usize) -> u64 {
        self.pages.get(w).copied().unwrap_or(0)
    }

    /// Number of pages held.
    pub fn pages(&self) -> usize {
        self.pages.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Bytes of page contents held.
    pub fn bytes(&self) -> usize {
        self.data.len()
    }
}

/// The simulated physical memory of a chip.
pub struct PhysicalMemory {
    map: MemoryMap,
    flash: Vec<u8>,
    ram: Vec<u8>,
    /// Dirty bitmap over RAM snapshot pages (one bit per
    /// [`SNAPSHOT_PAGE_SIZE`] bytes); empty until [`Self::snapshot`]
    /// arms tracking.
    ram_dirty: Vec<u64>,
    /// Whether flash was reprogrammed since tracking was armed.
    flash_dirty: bool,
    /// Bytes from the start of flash to the end of the highest
    /// programmed byte. Every flash byte at or above it is zero: flash
    /// starts zeroed and only [`Self::program_flash`] writes it.
    flash_extent: usize,
}

impl fmt::Debug for PhysicalMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PhysicalMemory")
            .field("map", &self.map)
            .finish_non_exhaustive()
    }
}

/// Error raised by raw memory accesses that miss the address map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnmappedAccess {
    /// Offending address.
    pub addr: usize,
    /// Size in bytes.
    pub size: usize,
}

impl fmt::Display for UnmappedAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unmapped access at {:#010x} ({} bytes)",
            self.addr, self.size
        )
    }
}

impl std::error::Error for UnmappedAccess {}

impl PhysicalMemory {
    /// Creates zeroed memory for the given map.
    pub fn new(map: MemoryMap) -> Self {
        Self {
            map,
            flash: vec![0; map.flash.len()],
            ram: vec![0; map.ram.len()],
            ram_dirty: Vec::new(),
            flash_dirty: false,
            flash_extent: 0,
        }
    }

    /// Marks the RAM byte range `[off, off + len)` dirty. A no-op until
    /// [`Self::snapshot`] arms tracking — one branch on the bitmap's
    /// emptiness, so untracked memory pays nothing on the write path.
    #[inline]
    fn mark_ram_dirty(&mut self, off: usize, len: usize) {
        if self.ram_dirty.is_empty() || len == 0 {
            return;
        }
        let first = off >> PAGE_SHIFT;
        let last = (off + len - 1) >> PAGE_SHIFT;
        for page in first..=last {
            self.ram_dirty[page >> 6] |= 1u64 << (page & 63);
        }
    }

    /// Copies RAM and the programmed extent of flash and arms dirty-page
    /// tracking, clearing any previously accumulated dirty state. Subsequent
    /// [`Self::restore_to`] calls copy back only the pages written since
    /// (and those of the checkpoints they move between).
    pub fn snapshot(&mut self) -> MemSnapshot {
        let pages = self.ram.len().div_ceil(SNAPSHOT_PAGE_SIZE);
        self.ram_dirty = vec![0; pages.div_ceil(64)];
        self.flash_dirty = false;
        MemSnapshot {
            map: self.map,
            flash: self.flash[..self.flash_extent].to_vec(),
            ram: self.ram.clone(),
        }
    }

    /// Number of RAM pages currently marked dirty (0 when tracking is
    /// not armed). Exposed for restore-cost accounting and tests.
    pub fn dirty_ram_pages(&self) -> usize {
        self.ram_dirty.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The byte range of RAM snapshot page `page`.
    fn page_range(&self, page: usize) -> std::ops::Range<usize> {
        let start = page << PAGE_SHIFT;
        start..(start + SNAPSHOT_PAGE_SIZE).min(self.ram.len())
    }

    /// Captures the RAM pages in which live memory may differ from the
    /// base snapshot: those dirtied since the last restore, plus `from`,
    /// the delta of the checkpoint that restore targeted. Tracking is
    /// left as it is — the live run goes on from the same restore point.
    ///
    /// Panics if tracking is not armed, or if flash was reprogrammed
    /// since the base snapshot: a delta holds RAM pages only.
    pub fn capture_delta(&self, from: &PageDelta) -> PageDelta {
        assert!(!self.ram_dirty.is_empty(), "capture_delta without tracking");
        assert!(
            !self.flash_dirty,
            "flash reprogrammed since the base snapshot"
        );
        let pages: Vec<u64> = (0..self.ram_dirty.len())
            .map(|w| self.ram_dirty[w] | from.word(w))
            .collect();
        let mut data = Vec::new();
        for (w, &word) in pages.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let page = (w << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                data.extend_from_slice(&self.ram[self.page_range(page)]);
            }
        }
        PageDelta { pages, data }
    }

    /// Rewinds memory to the checkpoint `base + to`, from live memory
    /// last restored to `base + from`. Every page dirtied since, or held
    /// by either delta, is copied back: from `to` where it holds the
    /// page, from `base` otherwise. Flash is copied from `base` only
    /// after a reprogram, and whatever was programmed above the base's
    /// extent is zeroed again. The dirty state is cleared, so tracking
    /// continues for the next run; without tracking, everything is
    /// copied.
    ///
    /// Panics if the snapshot was taken on a different memory map.
    pub fn restore_to(&mut self, base: &MemSnapshot, from: &PageDelta, to: &PageDelta) {
        assert_eq!(base.map, self.map, "snapshot from a different memory map");
        let tracked = !self.ram_dirty.is_empty();
        if !tracked || self.flash_dirty {
            let extent = base.flash.len();
            self.flash[..extent].copy_from_slice(&base.flash);
            self.flash[extent..self.flash_extent.max(extent)].fill(0);
            self.flash_extent = extent;
            self.flash_dirty = false;
        }
        if !tracked {
            self.ram.copy_from_slice(&base.ram);
        }
        // `to.data` holds its pages in ascending order, each a full page
        // but the last: a page's offset is its rank among them.
        let mut rank = 0;
        for w in 0..self.ram_dirty.len().max(to.pages.len()) {
            let target = to.word(w);
            let live = self.ram_dirty.get_mut(w).map_or(0, std::mem::take);
            let mut bits = live | from.word(w) | target;
            while bits != 0 {
                let bit = bits.trailing_zeros();
                bits &= bits - 1;
                let range = self.page_range((w << 6) + bit as usize);
                if target >> bit & 1 == 1 {
                    let below = (target & ((1u64 << bit) - 1)).count_ones() as usize;
                    let at = (rank + below) << PAGE_SHIFT;
                    let len = range.len();
                    self.ram[range].copy_from_slice(&to.data[at..at + len]);
                } else {
                    self.ram[range.clone()].copy_from_slice(&base.ram[range]);
                }
            }
            rank += target.count_ones() as usize;
        }
    }

    /// Whether live memory, last restored to `base + from`, equals the
    /// checkpoint `base + to` — the compare half of
    /// [`Self::restore_to`]. Only the pages restore would copy can
    /// differ: those dirtied since, or held by either delta. Flash
    /// reprogrammed since the base, or untracked memory, never matches.
    pub fn matches(&self, base: &MemSnapshot, from: &PageDelta, to: &PageDelta) -> bool {
        if self.ram_dirty.is_empty() || self.flash_dirty {
            return false;
        }
        let mut rank = 0;
        for w in 0..self.ram_dirty.len().max(to.pages.len()) {
            let target = to.word(w);
            let mut bits = self.ram_dirty.get(w).copied().unwrap_or(0) | from.word(w) | target;
            while bits != 0 {
                let bit = bits.trailing_zeros();
                bits &= bits - 1;
                let range = self.page_range((w << 6) + bit as usize);
                let want = if target >> bit & 1 == 1 {
                    let below = (target & ((1u64 << bit) - 1)).count_ones() as usize;
                    let at = (rank + below) << PAGE_SHIFT;
                    &to.data[at..at + range.len()]
                } else {
                    &base.ram[range.clone()]
                };
                if self.ram[range] != *want {
                    return false;
                }
            }
            rank += target.count_ones() as usize;
        }
        true
    }

    /// Returns the memory map.
    pub fn map(&self) -> MemoryMap {
        self.map
    }

    fn slot(&self, addr: usize, size: usize) -> Result<(Segment, usize), UnmappedAccess> {
        let end = addr
            .checked_add(size)
            .ok_or(UnmappedAccess { addr, size })?;
        if addr >= self.map.flash.start && end <= self.map.flash.end {
            Ok((Segment::Flash, addr - self.map.flash.start))
        } else if addr >= self.map.ram.start && end <= self.map.ram.end {
            Ok((Segment::Ram, addr - self.map.ram.start))
        } else {
            Err(UnmappedAccess { addr, size })
        }
    }

    /// Reads one byte (privileged view: never faults on protection).
    pub fn read_u8(&self, addr: usize) -> Result<u8, UnmappedAccess> {
        let (seg, off) = self.slot(addr, 1)?;
        Ok(match seg {
            Segment::Flash => self.flash[off],
            Segment::Ram => self.ram[off],
        })
    }

    /// Writes one byte. Flash writes are rejected (it is not writable at
    /// run time on the modelled chips).
    pub fn write_u8(&mut self, addr: usize, value: u8) -> Result<(), UnmappedAccess> {
        let (seg, off) = self.slot(addr, 1)?;
        match seg {
            Segment::Flash => Err(UnmappedAccess { addr, size: 1 }),
            Segment::Ram => {
                self.ram[off] = value;
                self.mark_ram_dirty(off, 1);
                Ok(())
            }
        }
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&self, addr: usize) -> Result<u32, UnmappedAccess> {
        let (seg, off) = self.slot(addr, 4)?;
        let bytes = match seg {
            Segment::Flash => &self.flash[off..off + 4],
            Segment::Ram => &self.ram[off..off + 4],
        };
        Ok(u32::from_le_bytes(bytes.try_into().expect("4-byte slice")))
    }

    /// Writes a little-endian `u32` to RAM.
    pub fn write_u32(&mut self, addr: usize, value: u32) -> Result<(), UnmappedAccess> {
        let (seg, off) = self.slot(addr, 4)?;
        match seg {
            Segment::Flash => Err(UnmappedAccess { addr, size: 4 }),
            Segment::Ram => {
                self.ram[off..off + 4].copy_from_slice(&value.to_le_bytes());
                self.mark_ram_dirty(off, 4);
                Ok(())
            }
        }
    }

    /// Programs flash contents (a load-time operation, e.g. flashing an app
    /// image; not reachable from simulated user code). The only flash
    /// writer: it raises the programmed extent snapshots copy up to.
    pub fn program_flash(&mut self, addr: usize, data: &[u8]) -> Result<(), UnmappedAccess> {
        let (seg, off) = self.slot(addr, data.len())?;
        match seg {
            Segment::Flash => {
                self.flash[off..off + data.len()].copy_from_slice(data);
                self.flash_extent = self.flash_extent.max(off + data.len());
                if !self.ram_dirty.is_empty() {
                    self.flash_dirty = true;
                }
                Ok(())
            }
            Segment::Ram => Err(UnmappedAccess {
                addr,
                size: data.len(),
            }),
        }
    }

    /// Copies bytes out of memory (privileged view).
    pub fn read_bytes(&self, addr: usize, buf: &mut [u8]) -> Result<(), UnmappedAccess> {
        let (seg, off) = self.slot(addr, buf.len())?;
        let src = match seg {
            Segment::Flash => &self.flash[off..off + buf.len()],
            Segment::Ram => &self.ram[off..off + buf.len()],
        };
        buf.copy_from_slice(src);
        Ok(())
    }

    /// Writes bytes into RAM (privileged view).
    pub fn write_bytes(&mut self, addr: usize, data: &[u8]) -> Result<(), UnmappedAccess> {
        let (seg, off) = self.slot(addr, data.len())?;
        match seg {
            Segment::Flash => Err(UnmappedAccess {
                addr,
                size: data.len(),
            }),
            Segment::Ram => {
                self.ram[off..off + data.len()].copy_from_slice(data);
                self.mark_ram_dirty(off, data.len());
                Ok(())
            }
        }
    }
}

/// A memory access that went through the protected bus and faulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusFault {
    /// Offending address.
    pub addr: usize,
    /// Access type attempted.
    pub access: AccessType,
    /// Fault cause.
    pub kind: FaultKind,
}

impl BusFault {
    /// The `Display` text, built without the `core::fmt` machinery: the
    /// kernel fault path renders one of these per injected fault, and the
    /// formatter dispatch was a visible slice of the fleet profile.
    pub fn to_reason(&self) -> String {
        let mut out = String::with_capacity(48);
        out.push_str("bus fault: ");
        out.push_str(match self.access {
            AccessType::Read => "Read",
            AccessType::Write => "Write",
            AccessType::Execute => "Execute",
        });
        out.push_str(" at 0x");
        let natural = (usize::BITS - self.addr.leading_zeros()).div_ceil(4).max(1);
        for i in (0..natural.max(8)).rev() {
            let d = (self.addr >> (i * 4)) & 0xF;
            out.push(char::from_digit(d as u32, 16).expect("nibble"));
        }
        out.push_str(" (");
        out.push_str(match self.kind {
            FaultKind::NoRegionMatch => "NoRegionMatch",
            FaultKind::PermissionDenied => "PermissionDenied",
            FaultKind::Unmapped => "Unmapped",
            FaultKind::SubregionDisabled => "SubregionDisabled",
            FaultKind::LockedEntry => "LockedEntry",
        });
        out.push(')');
        out
    }
}

impl fmt::Display for BusFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_reason())
    }
}

impl std::error::Error for BusFault {}

/// The protected bus: every access is checked against a protection unit
/// before touching memory, exactly as the AHB matrix consults the MPU.
pub struct Bus<'a, P: ProtectionUnit> {
    /// Backing memory.
    pub mem: &'a mut PhysicalMemory,
    /// Protection hardware in effect.
    pub protection: &'a P,
    /// Current privilege of the bus master.
    pub privilege: Privilege,
}

impl<'a, P: ProtectionUnit> Bus<'a, P> {
    /// Creates a bus view with the given privilege.
    pub fn new(mem: &'a mut PhysicalMemory, protection: &'a P, privilege: Privilege) -> Self {
        Self {
            mem,
            protection,
            privilege,
        }
    }

    fn check(&self, addr: usize, size: usize, access: AccessType) -> Result<(), BusFault> {
        match self.protection.check(addr, size, access, self.privilege) {
            AccessDecision::Allowed => Ok(()),
            AccessDecision::Fault(kind) => Err(BusFault { addr, access, kind }),
        }
    }

    /// Checked byte read.
    pub fn read_u8(&self, addr: usize) -> Result<u8, BusFault> {
        self.check(addr, 1, AccessType::Read)?;
        self.mem.read_u8(addr).map_err(|_| BusFault {
            addr,
            access: AccessType::Read,
            kind: FaultKind::Unmapped,
        })
    }

    /// Checked byte write.
    pub fn write_u8(&mut self, addr: usize, value: u8) -> Result<(), BusFault> {
        self.check(addr, 1, AccessType::Write)?;
        self.mem.write_u8(addr, value).map_err(|_| BusFault {
            addr,
            access: AccessType::Write,
            kind: FaultKind::Unmapped,
        })
    }

    /// Checked word read.
    pub fn read_u32(&self, addr: usize) -> Result<u32, BusFault> {
        self.check(addr, 4, AccessType::Read)?;
        self.mem.read_u32(addr).map_err(|_| BusFault {
            addr,
            access: AccessType::Read,
            kind: FaultKind::Unmapped,
        })
    }

    /// Checked word write.
    pub fn write_u32(&mut self, addr: usize, value: u32) -> Result<(), BusFault> {
        self.check(addr, 4, AccessType::Write)?;
        self.mem.write_u32(addr, value).map_err(|_| BusFault {
            addr,
            access: AccessType::Write,
            kind: FaultKind::Unmapped,
        })
    }

    /// Checked instruction fetch.
    pub fn fetch(&self, addr: usize) -> Result<u32, BusFault> {
        self.check(addr, 4, AccessType::Execute)?;
        self.mem.read_u32(addr).map_err(|_| BusFault {
            addr,
            access: AccessType::Execute,
            kind: FaultKind::Unmapped,
        })
    }
}

/// A protection unit that admits everything — the state of the world while
/// the MPU is disabled (kernel execution).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoProtection;

impl ProtectionUnit for NoProtection {
    fn check(&self, _: usize, _: usize, _: AccessType, _: Privilege) -> AccessDecision {
        AccessDecision::Allowed
    }
    fn enabled(&self) -> bool {
        false
    }
    fn name(&self) -> &'static str {
        "none"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_map() -> MemoryMap {
        MemoryMap {
            flash: AddrRange::new(0x0000_0000, 0x0010_0000),
            ram: AddrRange::new(0x2000_0000, 0x2004_0000),
        }
    }

    #[test]
    fn ram_read_write_roundtrip() {
        let mut mem = PhysicalMemory::new(test_map());
        mem.write_u32(0x2000_0100, 0xDEAD_BEEF).unwrap();
        assert_eq!(mem.read_u32(0x2000_0100).unwrap(), 0xDEAD_BEEF);
        mem.write_u8(0x2000_0100, 0x42).unwrap();
        assert_eq!(mem.read_u32(0x2000_0100).unwrap(), 0xDEAD_BE42);
    }

    #[test]
    fn flash_is_programmable_but_not_writable() {
        let mut mem = PhysicalMemory::new(test_map());
        mem.program_flash(0x1000, &[1, 2, 3, 4]).unwrap();
        assert_eq!(mem.read_u32(0x1000).unwrap(), 0x0403_0201);
        assert!(mem.write_u8(0x1000, 9).is_err());
        assert!(mem.write_u32(0x1000, 9).is_err());
    }

    #[test]
    fn unmapped_accesses_error() {
        let mem = PhysicalMemory::new(test_map());
        assert!(mem.read_u8(0x1000_0000).is_err());
        assert!(mem.read_u32(0x2004_0000 - 2).is_err()); // Straddles end.
        assert!(mem.read_u32(usize::MAX - 1).is_err()); // Overflow guarded.
    }

    #[test]
    fn byte_range_helpers() {
        let mut mem = PhysicalMemory::new(test_map());
        mem.write_bytes(0x2000_0000, &[9, 8, 7]).unwrap();
        let mut buf = [0u8; 3];
        mem.read_bytes(0x2000_0000, &mut buf).unwrap();
        assert_eq!(buf, [9, 8, 7]);
        assert!(mem.write_bytes(0x0, &[1]).is_err()); // Flash not writable.
        assert!(mem.program_flash(0x2000_0000, &[1]).is_err()); // RAM not flash.
    }

    #[test]
    fn classify_addresses() {
        let map = test_map();
        assert_eq!(map.classify(0x100), Some(Segment::Flash));
        assert_eq!(map.classify(0x2000_0000), Some(Segment::Ram));
        assert_eq!(map.classify(0x5000_0000), None);
    }

    #[test]
    fn bus_with_no_protection_passes_through() {
        let mut mem = PhysicalMemory::new(test_map());
        let prot = NoProtection;
        let mut bus = Bus::new(&mut mem, &prot, Privilege::Unprivileged);
        bus.write_u32(0x2000_0010, 7).unwrap();
        assert_eq!(bus.read_u32(0x2000_0010).unwrap(), 7);
        assert_eq!(bus.fetch(0x0).unwrap(), 0);
    }

    #[test]
    fn bus_surfaces_unmapped_as_fault() {
        let mut mem = PhysicalMemory::new(test_map());
        let prot = NoProtection;
        let bus = Bus::new(&mut mem, &prot, Privilege::Privileged);
        let err = bus.read_u8(0x9000_0000).unwrap_err();
        assert_eq!(err.kind, FaultKind::Unmapped);
    }

    /// A protection unit denying all writes, for bus fault plumbing tests.
    struct DenyWrites;
    impl ProtectionUnit for DenyWrites {
        fn check(&self, _: usize, _: usize, a: AccessType, _: Privilege) -> AccessDecision {
            if a == AccessType::Write {
                AccessDecision::Fault(FaultKind::PermissionDenied)
            } else {
                AccessDecision::Allowed
            }
        }
        fn enabled(&self) -> bool {
            true
        }
        fn name(&self) -> &'static str {
            "deny-writes"
        }
    }

    #[test]
    fn snapshot_restore_undoes_ram_writes() {
        let mut mem = PhysicalMemory::new(test_map());
        mem.write_u32(0x2000_0100, 0x1111_1111).unwrap();
        let snap = mem.snapshot();
        assert_eq!(mem.dirty_ram_pages(), 0);
        mem.write_u32(0x2000_0100, 0x2222_2222).unwrap();
        mem.write_u8(0x2003_FFFF, 9).unwrap(); // Last byte of RAM.
        assert_eq!(mem.dirty_ram_pages(), 2);
        mem.restore_to(&snap, &PageDelta::default(), &PageDelta::default());
        assert_eq!(mem.read_u32(0x2000_0100).unwrap(), 0x1111_1111);
        assert_eq!(mem.read_u8(0x2003_FFFF).unwrap(), 0);
        assert_eq!(mem.dirty_ram_pages(), 0);
    }

    #[test]
    fn snapshot_restore_covers_flash_reprograms_and_page_straddles() {
        let mut mem = PhysicalMemory::new(test_map());
        mem.program_flash(0x100, &[1, 2, 3, 4]).unwrap();
        let snap = mem.snapshot();
        mem.program_flash(0x100, &[9, 9, 9, 9]).unwrap();
        // A write straddling two snapshot pages dirties both.
        mem.write_bytes(0x2000_0000 + SNAPSHOT_PAGE_SIZE - 2, &[7; 4])
            .unwrap();
        assert_eq!(mem.dirty_ram_pages(), 2);
        mem.restore_to(&snap, &PageDelta::default(), &PageDelta::default());
        assert_eq!(mem.read_u32(0x100).unwrap(), 0x0403_0201);
        assert_eq!(
            mem.read_u32(0x2000_0000 + SNAPSHOT_PAGE_SIZE - 2).unwrap(),
            0
        );
        // Tracking stays armed: the next run's writes are tracked too.
        mem.write_u8(0x2000_0000, 1).unwrap();
        assert_eq!(mem.dirty_ram_pages(), 1);
        mem.restore_to(&snap, &PageDelta::default(), &PageDelta::default());
        assert_eq!(mem.read_u8(0x2000_0000).unwrap(), 0);
        // The snapshot holds flash up to its programmed extent only; a
        // program past it is zeroed again, with tracking on and without.
        assert_eq!(snap.bytes(), 0x104 + 0x4_0000);
        let past = 0x8_0000;
        mem.program_flash(past, &[5; 8]).unwrap();
        mem.restore_to(&snap, &PageDelta::default(), &PageDelta::default());
        assert_eq!(mem.read_u32(past).unwrap(), 0);
        assert_eq!(mem.read_u32(0x100).unwrap(), 0x0403_0201);
        let mut untracked = PhysicalMemory::new(test_map());
        untracked.program_flash(past, &[5; 8]).unwrap();
        untracked.program_flash(0x100, &[9; 4]).unwrap();
        untracked.restore_to(&snap, &PageDelta::default(), &PageDelta::default());
        assert_eq!(untracked.read_u32(past).unwrap(), 0);
        assert_eq!(untracked.read_u32(0x100).unwrap(), 0x0403_0201);
        // A snapshot from a different map is refused.
        let mut other_map = test_map();
        other_map.ram = AddrRange::new(0x3000_0000, 0x3004_0000);
        let mut other = PhysicalMemory::new(other_map);
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            other.restore_to(&snap, &PageDelta::default(), &PageDelta::default())
        }));
        assert!(refused.is_err(), "restored a snapshot of another map");
    }

    #[test]
    fn restore_without_tracking_copies_everything() {
        let mut a = PhysicalMemory::new(test_map());
        a.write_u32(0x2000_0400, 0xAA).unwrap();
        let snap = a.snapshot();
        // A second instance never armed tracking; restore still works.
        let mut b = PhysicalMemory::new(test_map());
        b.write_u32(0x2000_0800, 0xBB).unwrap();
        b.restore_to(&snap, &PageDelta::default(), &PageDelta::default());
        assert_eq!(b.read_u32(0x2000_0400).unwrap(), 0xAA);
        assert_eq!(b.read_u32(0x2000_0800).unwrap(), 0);
        assert!(snap.bytes() > 0);
    }

    #[test]
    fn deltas_make_checkpoint_switching_sound() {
        // A base, then two checkpoints along one run: C1 after a prefix
        // write, C2 after a second one. Switching between any two of
        // them (and the base) must land on exactly that point's bytes,
        // whatever the run in between dirtied.
        let (p, q, r) = (0x2000_0100, 0x2000_0800, 0x2000_3000);
        let mut mem = PhysicalMemory::new(test_map());
        let base = mem.snapshot();
        let none = PageDelta::default();
        mem.write_u32(p, 0xAAAA_AAAA).unwrap();
        let c1 = mem.capture_delta(&none);
        assert_eq!((c1.pages(), c1.bytes()), (1, SNAPSHOT_PAGE_SIZE));
        mem.write_u32(q, 0xBBBB_BBBB).unwrap();
        let c2 = mem.capture_delta(&none);
        assert_eq!(c2.pages(), 2);
        let read = |mem: &PhysicalMemory| [p, q, r].map(|a| mem.read_u32(a).unwrap());
        let want_c1 = [0xAAAA_AAAA, 0, 0];
        let want_c2 = [0xAAAA_AAAA, 0xBBBB_BBBB, 0];
        // The live state derives from the base: a run dirtied p, q.
        mem.write_u32(r, 1).unwrap();
        mem.restore_to(&base, &none, &c1);
        assert_eq!(read(&mem), want_c1);
        assert_eq!(mem.dirty_ram_pages(), 0);
        // Resuming C1 again after a run that wrote only r.
        mem.write_u32(r, 2).unwrap();
        mem.restore_to(&base, &c1, &c1);
        assert_eq!(read(&mem), want_c1);
        // C1 -> C2, C2 -> C1, C2 -> base: pages in either delta move.
        mem.write_u32(r, 3).unwrap();
        mem.restore_to(&base, &c1, &c2);
        assert_eq!(read(&mem), want_c2);
        mem.restore_to(&base, &c2, &c1);
        assert_eq!(read(&mem), want_c1);
        mem.restore_to(&base, &c1, &c2);
        mem.restore_to(&base, &c2, &none);
        assert_eq!(read(&mem), [0, 0, 0]);
        // A checkpoint captured after resuming another one carries both
        // deltas: the pages it inherited and the ones dirtied since.
        mem.restore_to(&base, &none, &c1);
        mem.write_u32(r, 4).unwrap();
        let c3 = mem.capture_delta(&c1);
        assert_eq!(c3.pages(), 2);
        mem.restore_to(&base, &c1, &none);
        mem.restore_to(&base, &none, &c3);
        assert_eq!(read(&mem), [0xAAAA_AAAA, 0, 4]);
    }

    #[test]
    fn matches_compares_exactly_the_pages_restore_would_move() {
        let (p, q) = (0x2000_0100, 0x2000_0800);
        let mut mem = PhysicalMemory::new(test_map());
        let base = mem.snapshot();
        let none = PageDelta::default();
        assert!(mem.matches(&base, &none, &none));
        mem.write_u32(p, 7).unwrap();
        let c1 = mem.capture_delta(&none);
        assert!(mem.matches(&base, &none, &c1));
        assert!(!mem.matches(&base, &none, &none), "a dirty page differs");
        // Resumed from C1: writing a page back to C1's value matches C1
        // again; a page only the live run wrote does not.
        mem.restore_to(&base, &none, &c1);
        mem.write_u32(q, 1).unwrap();
        assert!(!mem.matches(&base, &c1, &c1));
        mem.write_u32(q, 0).unwrap();
        assert!(mem.matches(&base, &c1, &c1));
        // Undoing C1's write matches the base through `from` alone.
        mem.write_u32(p, 0).unwrap();
        assert!(mem.matches(&base, &c1, &none));
        assert!(!mem.matches(&base, &c1, &c1));
        // Reprogrammed flash never matches.
        mem.program_flash(0x100, &[1]).unwrap();
        assert!(!mem.matches(&base, &c1, &none));
    }

    #[test]
    fn restore_to_without_tracking_copies_base_then_delta() {
        let mut a = PhysicalMemory::new(test_map());
        let base = a.snapshot();
        a.write_u32(0x2000_0400, 0xAA).unwrap();
        let delta = a.capture_delta(&PageDelta::default());
        // A second instance never armed tracking; the whole base is
        // copied, then the delta's pages.
        let mut b = PhysicalMemory::new(test_map());
        b.write_u32(0x2000_0800, 0xBB).unwrap();
        b.restore_to(&base, &PageDelta::default(), &delta);
        assert_eq!(b.read_u32(0x2000_0400).unwrap(), 0xAA);
        assert_eq!(b.read_u32(0x2000_0800).unwrap(), 0);
    }

    #[test]
    #[should_panic(expected = "flash reprogrammed")]
    fn deltas_refuse_flash_reprograms() {
        let mut mem = PhysicalMemory::new(test_map());
        let _base = mem.snapshot();
        mem.program_flash(0x100, &[1]).unwrap();
        let _ = mem.capture_delta(&PageDelta::default());
    }

    #[test]
    fn bus_consults_protection_before_memory() {
        let mut mem = PhysicalMemory::new(test_map());
        mem.write_u32(0x2000_0000, 5).unwrap();
        let prot = DenyWrites;
        let mut bus = Bus::new(&mut mem, &prot, Privilege::Unprivileged);
        assert_eq!(bus.read_u32(0x2000_0000).unwrap(), 5);
        let err = bus.write_u32(0x2000_0000, 6).unwrap_err();
        assert_eq!(err.kind, FaultKind::PermissionDenied);
        // The memory was not modified by the faulting write.
        assert_eq!(bus.read_u32(0x2000_0000).unwrap(), 5);
    }
}
