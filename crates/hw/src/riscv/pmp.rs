//! PMP entry matching and permission semantics.
//!
//! Each PMP entry is a `pmpcfg` byte (R, W, X, A, L fields) plus a
//! `pmpaddr` CSR holding `address >> 2`. Matching follows the privileged
//! spec: the **lowest-numbered** matching entry decides; machine mode is
//! allowed by default when no entry matches, user mode is denied.
//! Contrast with the Cortex-M MPU, where the *highest*-numbered region wins
//! — one of the architecture asymmetries the granular abstraction hides.

use crate::mem::{AccessDecision, AccessType, FaultKind, Privilege, ProtectionUnit};

/// pmpcfg.R: read permission bit.
pub const PMP_R: u8 = 1 << 0;
/// pmpcfg.W: write permission bit.
pub const PMP_W: u8 = 1 << 1;
/// pmpcfg.X: execute permission bit.
pub const PMP_X: u8 = 1 << 2;
/// pmpcfg.L: lock bit (entry also applies to machine mode).
pub const PMP_L: u8 = 1 << 7;

/// pmpcfg.A address-matching mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddressMode {
    /// Entry disabled.
    Off,
    /// Top-of-range: matches `[pmpaddr[i-1] << 2, pmpaddr[i] << 2)`.
    Tor,
    /// Naturally aligned four-byte region.
    Na4,
    /// Naturally aligned power-of-two region, size >= 8.
    Napot,
}

impl AddressMode {
    /// Encodes into the 2-bit A field.
    pub const fn encode(self) -> u8 {
        match self {
            AddressMode::Off => 0,
            AddressMode::Tor => 1,
            AddressMode::Na4 => 2,
            AddressMode::Napot => 3,
        }
    }

    /// Decodes from the 2-bit A field.
    pub const fn decode(bits: u8) -> Self {
        match bits & 0b11 {
            0 => AddressMode::Off,
            1 => AddressMode::Tor,
            2 => AddressMode::Na4,
            _ => AddressMode::Napot,
        }
    }
}

/// A decoded PMP entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PmpEntry {
    /// Raw pmpcfg byte.
    pub cfg: u8,
    /// Raw pmpaddr CSR value (`address >> 2`).
    pub addr: u32,
}

impl PmpEntry {
    /// Returns the address-matching mode.
    pub fn mode(&self) -> AddressMode {
        AddressMode::decode(self.cfg >> 3)
    }

    /// Returns `true` if the entry is locked.
    pub fn locked(&self) -> bool {
        self.cfg & PMP_L != 0
    }

    /// Returns the matched byte range `[start, end)` for non-TOR modes.
    /// TOR needs the previous entry's address, so it is handled by the unit.
    fn napot_range(&self) -> Option<(usize, usize)> {
        match self.mode() {
            AddressMode::Na4 => {
                let start = (self.addr as usize) << 2;
                Some((start, start + 4))
            }
            AddressMode::Napot => {
                // Trailing ones in pmpaddr encode the size:
                // size = 8 << trailing_ones.
                let ones = self.addr.trailing_ones();
                let size = 8usize << ones;
                let base = ((self.addr as usize) << 2) & !(size - 1);
                Some((base, base + size))
            }
            _ => None,
        }
    }

    /// Returns `true` if the permission bits admit the access type.
    fn permits(&self, access: AccessType) -> bool {
        match access {
            AccessType::Read => self.cfg & PMP_R != 0,
            AccessType::Write => self.cfg & PMP_W != 0,
            AccessType::Execute => self.cfg & PMP_X != 0,
        }
    }
}

/// Chip profile: how many PMP entries the silicon provides and its
/// granularity. These are the three RISC-V chips the paper verifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PmpChip {
    /// SiFive Freedom E310 (HiFive1 rev B): 8 usable entries, G = 4 B.
    SifiveE310,
    /// Espressif ESP32-C3: 16 entries, G = 4 B.
    Esp32C3,
    /// lowRISC Ibex in OpenTitan Earl Grey: 16 entries, NA4 disabled
    /// (granularity 8 B, so NA4 is architecturally unavailable).
    IbexEarlGrey,
}

impl PmpChip {
    /// Number of PMP entries.
    pub const fn entries(self) -> usize {
        match self {
            PmpChip::SifiveE310 => 8,
            PmpChip::Esp32C3 => 16,
            PmpChip::IbexEarlGrey => 16,
        }
    }

    /// PMP granularity in bytes.
    pub const fn granularity(self) -> usize {
        match self {
            PmpChip::SifiveE310 | PmpChip::Esp32C3 => 4,
            PmpChip::IbexEarlGrey => 8,
        }
    }

    /// Whether NA4 mode is supported (it is not when G > 4).
    pub const fn supports_na4(self) -> bool {
        self.granularity() == 4
    }

    /// All profiles, for exhaustive driver tests.
    pub const ALL: [PmpChip; 3] = [PmpChip::SifiveE310, PmpChip::Esp32C3, PmpChip::IbexEarlGrey];
}

/// The PMP unit: an array of entries plus the chip profile.
#[derive(Debug, PartialEq, Eq)]
pub struct RiscvPmp {
    chip: PmpChip,
    entries: Vec<PmpEntry>,
    /// Model of mseccfg.MMWP-style lockdown is not needed for Tock; user
    /// isolation only requires entry matching. Kernel runs in M-mode.
    enabled: bool,
    /// Whether some entry has `L` set. A lock is sticky until reset, so
    /// the flag is exact: [`Self::write_cfg`] raises it when an `L` bit
    /// lands and nothing lowers it.
    any_locked: bool,
}

impl Clone for RiscvPmp {
    fn clone(&self) -> Self {
        Self {
            chip: self.chip,
            entries: self.entries.clone(),
            enabled: self.enabled,
            any_locked: self.any_locked,
        }
    }

    /// Reuses the entry buffer: a checkpoint restore writes a saved
    /// register file back into the live one.
    fn clone_from(&mut self, source: &Self) {
        self.chip = source.chip;
        self.entries.clone_from(&source.entries);
        self.enabled = source.enabled;
        self.any_locked = source.any_locked;
    }
}

impl RiscvPmp {
    /// Creates a reset-state PMP for the given chip (all entries OFF).
    pub fn new(chip: PmpChip) -> Self {
        Self {
            chip,
            entries: vec![PmpEntry::default(); chip.entries()],
            enabled: true,
            any_locked: false,
        }
    }

    /// Returns the chip profile.
    pub fn chip(&self) -> PmpChip {
        self.chip
    }

    /// Writes one pmpcfg byte. Writes to locked entries are ignored, as in
    /// hardware.
    pub fn write_cfg(&mut self, index: usize, cfg: u8) {
        crate::cycles::charge(crate::cycles::Cost::MmioWrite);
        // Fault-injection point: the flip lands before lock/NA4 handling,
        // as a corrupted CSR write would.
        let cfg = crate::injection::mutate_reg_write(
            crate::injection::InjectionPoint::PmpCfg,
            cfg as u32,
        ) as u8;
        if index < self.entries.len() && !self.entries[index].locked() {
            let mut cfg = cfg;
            // G > 4 chips: NA4 is reserved; hardware reads it back as OFF.
            if !self.chip.supports_na4() && AddressMode::decode(cfg >> 3) == AddressMode::Na4 {
                cfg &= !(0b11 << 3);
            }
            self.entries[index].cfg = cfg;
            self.any_locked |= cfg & PMP_L != 0;
            crate::trace::record(crate::trace::TraceEvent::RegWrite {
                reg: crate::trace::RegName::PmpCfg,
                index: index as u8,
                value: cfg as u32,
            });
        }
    }

    /// Writes one pmpaddr CSR. Ignored if the entry (or the next entry in
    /// TOR mode) is locked.
    pub fn write_addr(&mut self, index: usize, addr: u32) {
        crate::cycles::charge(crate::cycles::Cost::MmioWrite);
        if index >= self.entries.len() || self.entries[index].locked() {
            return;
        }
        if index + 1 < self.entries.len() {
            let next = self.entries[index + 1];
            if next.locked() && next.mode() == AddressMode::Tor {
                return;
            }
        }
        self.entries[index].addr = addr;
        crate::trace::record(crate::trace::TraceEvent::RegWrite {
            reg: crate::trace::RegName::PmpAddr,
            index: index as u8,
            value: addr,
        });
    }

    /// Returns `true` if some entry is locked. Without a lock, no entry
    /// needs probing for one.
    pub fn any_locked(&self) -> bool {
        self.any_locked
    }

    /// Reads back one entry (test/inspection interface).
    pub fn entry(&self, index: usize) -> PmpEntry {
        self.entries[index]
    }

    /// Returns `true` if entry `index` already holds the state that
    /// `write_addr(index, addr)` + `write_cfg(index, cfg)` would leave
    /// behind, applying the same NA4-reserved normalisation the write path
    /// does on G > 4 chips. Used by the granular driver's diff-commit and
    /// the commit-cache soundness obligation; charges no cycles.
    pub fn entry_matches(&self, index: usize, addr: u32, cfg: u8) -> bool {
        let Some(entry) = self.entries.get(index) else {
            return false;
        };
        let mut cfg = cfg;
        if !self.chip.supports_na4() && AddressMode::decode(cfg >> 3) == AddressMode::Na4 {
            cfg &= !(0b11 << 3);
        }
        *entry == PmpEntry { cfg, addr }
    }

    /// Clears every (unlocked) entry to OFF.
    pub fn clear(&mut self) {
        for i in 0..self.entries.len() {
            self.write_cfg(i, 0);
            self.write_addr(i, 0);
        }
    }

    /// Returns the byte range matched by entry `index`, resolving TOR
    /// against the previous entry's address.
    pub fn entry_range(&self, index: usize) -> Option<(usize, usize)> {
        let e = self.entries[index];
        match e.mode() {
            AddressMode::Off => None,
            AddressMode::Tor => {
                let lo = if index == 0 {
                    0
                } else {
                    (self.entries[index - 1].addr as usize) << 2
                };
                let hi = (e.addr as usize) << 2;
                if lo < hi {
                    Some((lo, hi))
                } else {
                    // An empty TOR range matches nothing.
                    None
                }
            }
            _ => e.napot_range(),
        }
    }

    // TRUSTED: the PMP matching semantics from the privileged spec.
    fn check_byte(&self, addr: usize, access: AccessType, priv_: Privilege) -> AccessDecision {
        // Lowest-numbered matching entry has priority.
        for (i, e) in self.entries.iter().enumerate() {
            let Some((lo, hi)) = self.entry_range(i) else {
                continue;
            };
            if addr < lo || addr >= hi {
                continue;
            }
            // Matched. M-mode ignores unlocked entries; locked entries and
            // all U-mode accesses use the permission bits.
            return match priv_ {
                Privilege::Privileged if !e.locked() => AccessDecision::Allowed,
                Privilege::Privileged => {
                    if e.permits(access) {
                        AccessDecision::Allowed
                    } else {
                        AccessDecision::Fault(FaultKind::LockedEntry)
                    }
                }
                Privilege::Unprivileged => {
                    if e.permits(access) {
                        AccessDecision::Allowed
                    } else {
                        AccessDecision::Fault(FaultKind::PermissionDenied)
                    }
                }
            };
        }
        // No match: M-mode default-allow, U-mode default-deny.
        match priv_ {
            Privilege::Privileged => AccessDecision::Allowed,
            Privilege::Unprivileged => AccessDecision::Fault(FaultKind::NoRegionMatch),
        }
    }
}

impl ProtectionUnit for RiscvPmp {
    fn check(
        &self,
        addr: usize,
        size: usize,
        access: AccessType,
        priv_: Privilege,
    ) -> AccessDecision {
        let size = size.max(1);
        for offset in 0..size {
            match self.check_byte(addr.wrapping_add(offset), access, priv_) {
                AccessDecision::Allowed => {}
                fault => return fault,
            }
        }
        AccessDecision::Allowed
    }

    fn enabled(&self) -> bool {
        self.enabled
    }

    fn name(&self) -> &'static str {
        match self.chip {
            PmpChip::SifiveE310 => "pmp-e310",
            PmpChip::Esp32C3 => "pmp-esp32c3",
            PmpChip::IbexEarlGrey => "pmp-ibex",
        }
    }
}

/// Encodes a NAPOT region `[base, base + size)` into a pmpaddr value.
///
/// `size` must be a power of two `>= 8` and `base` aligned to `size`.
pub fn napot_addr(base: usize, size: usize) -> u32 {
    debug_assert!(tt_contracts::math::is_pow2(size) && size >= 8);
    debug_assert!(base.is_multiple_of(size));
    ((base >> 2) | ((size >> 3) - 1)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unpriv(pmp: &RiscvPmp, addr: usize, access: AccessType) -> bool {
        pmp.check(addr, 1, access, Privilege::Unprivileged)
            .allowed()
    }

    #[test]
    fn empty_pmp_denies_user_allows_machine() {
        let pmp = RiscvPmp::new(PmpChip::SifiveE310);
        assert!(!unpriv(&pmp, 0x2000_0000, AccessType::Read));
        assert!(pmp
            .check(0x2000_0000, 4, AccessType::Write, Privilege::Privileged)
            .allowed());
    }

    #[test]
    fn tor_pair_grants_user_range() {
        let mut pmp = RiscvPmp::new(PmpChip::SifiveE310);
        // Entry 0: bottom of range marker; entry 1: TOR with RW.
        pmp.write_addr(0, (0x8002_0000u32) >> 2);
        pmp.write_cfg(0, 0); // OFF, used only as the TOR base.
        pmp.write_addr(1, (0x8002_2000u32) >> 2);
        pmp.write_cfg(1, PMP_R | PMP_W | (AddressMode::Tor.encode() << 3));
        assert!(unpriv(&pmp, 0x8002_0000, AccessType::Read));
        assert!(unpriv(&pmp, 0x8002_1FFF, AccessType::Write));
        assert!(!unpriv(&pmp, 0x8002_2000, AccessType::Read));
        assert!(!unpriv(&pmp, 0x8001_FFFF, AccessType::Read));
        assert!(!unpriv(&pmp, 0x8002_0000, AccessType::Execute));
    }

    #[test]
    fn tor_entry0_bases_at_zero() {
        let mut pmp = RiscvPmp::new(PmpChip::Esp32C3);
        pmp.write_addr(0, 0x1000 >> 2);
        pmp.write_cfg(0, PMP_R | PMP_X | (AddressMode::Tor.encode() << 3));
        assert!(unpriv(&pmp, 0x0, AccessType::Execute));
        assert!(unpriv(&pmp, 0xFFF, AccessType::Read));
        assert!(!unpriv(&pmp, 0x1000, AccessType::Read));
    }

    #[test]
    fn napot_region_matching() {
        let mut pmp = RiscvPmp::new(PmpChip::Esp32C3);
        pmp.write_addr(0, napot_addr(0x4000_0000, 4096));
        pmp.write_cfg(0, PMP_R | PMP_W | (AddressMode::Napot.encode() << 3));
        assert!(unpriv(&pmp, 0x4000_0000, AccessType::Read));
        assert!(unpriv(&pmp, 0x4000_0FFF, AccessType::Write));
        assert!(!unpriv(&pmp, 0x4000_1000, AccessType::Read));
        assert!(!unpriv(&pmp, 0x3FFF_FFFF, AccessType::Read));
    }

    #[test]
    fn napot_encoding_roundtrip() {
        for exp in 3..20u32 {
            let size = 1usize << exp;
            let base = 0x8000_0000usize;
            let mut pmp = RiscvPmp::new(PmpChip::Esp32C3);
            pmp.write_addr(0, napot_addr(base, size));
            pmp.write_cfg(0, PMP_R | (AddressMode::Napot.encode() << 3));
            let (lo, hi) = pmp.entry_range(0).unwrap();
            assert_eq!((lo, hi), (base, base + size), "size {size}");
        }
    }

    #[test]
    fn na4_matches_exactly_four_bytes() {
        let mut pmp = RiscvPmp::new(PmpChip::SifiveE310);
        pmp.write_addr(0, 0x8000_0100 >> 2);
        pmp.write_cfg(0, PMP_R | (AddressMode::Na4.encode() << 3));
        assert!(unpriv(&pmp, 0x8000_0100, AccessType::Read));
        assert!(unpriv(&pmp, 0x8000_0103, AccessType::Read));
        assert!(!unpriv(&pmp, 0x8000_0104, AccessType::Read));
    }

    #[test]
    fn ibex_rejects_na4_mode() {
        let mut pmp = RiscvPmp::new(PmpChip::IbexEarlGrey);
        pmp.write_cfg(0, PMP_R | (AddressMode::Na4.encode() << 3));
        assert_eq!(pmp.entry(0).mode(), AddressMode::Off);
    }

    #[test]
    fn lowest_numbered_entry_wins() {
        let mut pmp = RiscvPmp::new(PmpChip::Esp32C3);
        // Entry 0: read-only over a NAPOT block. Entry 1: RW over a
        // superset. PMP semantics: entry 0 decides inside its range.
        pmp.write_addr(0, napot_addr(0x8000_0000, 1024));
        pmp.write_cfg(0, PMP_R | (AddressMode::Napot.encode() << 3));
        pmp.write_addr(1, napot_addr(0x8000_0000, 8192));
        pmp.write_cfg(1, PMP_R | PMP_W | (AddressMode::Napot.encode() << 3));
        assert!(!unpriv(&pmp, 0x8000_0000, AccessType::Write)); // Entry 0 RO.
        assert!(unpriv(&pmp, 0x8000_0400, AccessType::Write)); // Entry 1 RW.
    }

    #[test]
    fn locked_entry_constrains_machine_mode() {
        let mut pmp = RiscvPmp::new(PmpChip::SifiveE310);
        pmp.write_addr(0, napot_addr(0x8000_0000, 1024));
        pmp.write_cfg(0, PMP_R | PMP_L | (AddressMode::Napot.encode() << 3));
        // M-mode read allowed, write denied by the locked RO entry.
        assert!(pmp
            .check(0x8000_0000, 4, AccessType::Read, Privilege::Privileged)
            .allowed());
        assert!(!pmp
            .check(0x8000_0000, 4, AccessType::Write, Privilege::Privileged)
            .allowed());
        // Locked entries ignore further writes.
        pmp.write_cfg(0, PMP_R | PMP_W);
        assert!(pmp.entry(0).locked());
        pmp.write_addr(0, 0);
        assert_eq!(pmp.entry(0).addr, napot_addr(0x8000_0000, 1024));
    }

    #[test]
    fn unlocked_entry_is_transparent_to_machine_mode() {
        let mut pmp = RiscvPmp::new(PmpChip::SifiveE310);
        pmp.write_addr(0, napot_addr(0x8000_0000, 1024));
        pmp.write_cfg(0, PMP_R | (AddressMode::Napot.encode() << 3));
        // M-mode may write despite the entry granting only R to U-mode.
        assert!(pmp
            .check(0x8000_0000, 4, AccessType::Write, Privilege::Privileged)
            .allowed());
    }

    #[test]
    fn empty_tor_range_matches_nothing() {
        let mut pmp = RiscvPmp::new(PmpChip::SifiveE310);
        pmp.write_addr(0, 0x8000_1000 >> 2);
        pmp.write_cfg(0, 0);
        pmp.write_addr(1, 0x8000_1000 >> 2); // hi == lo.
        pmp.write_cfg(1, PMP_R | PMP_W | (AddressMode::Tor.encode() << 3));
        assert!(!unpriv(&pmp, 0x8000_1000, AccessType::Read));
        assert_eq!(pmp.entry_range(1), None);
    }

    #[test]
    fn multi_byte_straddle_faults() {
        let mut pmp = RiscvPmp::new(PmpChip::Esp32C3);
        pmp.write_addr(0, napot_addr(0x8000_0000, 1024));
        pmp.write_cfg(0, PMP_R | (AddressMode::Napot.encode() << 3));
        assert!(pmp
            .check(0x8000_03FC, 4, AccessType::Read, Privilege::Unprivileged)
            .allowed());
        assert!(!pmp
            .check(0x8000_03FE, 4, AccessType::Read, Privilege::Unprivileged)
            .allowed());
    }

    #[test]
    fn chip_profiles_expose_limits() {
        assert_eq!(PmpChip::SifiveE310.entries(), 8);
        assert_eq!(PmpChip::Esp32C3.entries(), 16);
        assert_eq!(PmpChip::IbexEarlGrey.granularity(), 8);
        assert!(PmpChip::Esp32C3.supports_na4());
        assert!(!PmpChip::IbexEarlGrey.supports_na4());
    }

    #[test]
    fn clear_resets_unlocked_entries() {
        let mut pmp = RiscvPmp::new(PmpChip::Esp32C3);
        pmp.write_addr(2, napot_addr(0x8000_0000, 64));
        pmp.write_cfg(2, PMP_R | (AddressMode::Napot.encode() << 3));
        pmp.clear();
        assert_eq!(pmp.entry(2), PmpEntry::default());
    }
}
