//! The Cortex-M MPU register model and access-check semantics.
//!
//! This is the hardware side of the paper's trusted base: "writing to the
//! MPU registers … is part of TickTock's TCB because this behavior is
//! determined by the MPU hardware" (§6.1). Both allocator implementations
//! (legacy monolithic and granular) drive this same model, so a
//! misconfiguration — e.g. an enabled subregion overlapping the grant
//! region — produces a concrete, observable isolation break.

use crate::mem::{AccessDecision, AccessType, FaultKind, Privilege, ProtectionUnit};
use crate::register_bitfields;

/// Number of MPU regions on every ARMv7-M chip Tock supports.
pub const NUM_REGIONS: usize = 8;

/// Minimum region size in bytes (SIZE field value 4 → 2^5 = 32).
pub const MIN_REGION_SIZE: usize = 32;

/// Minimum region size for which subregions exist (2^8 = 256 bytes).
pub const MIN_SUBREGIONS_SIZE: usize = 256;

register_bitfields! { RegionBaseAddress:
    /// Region number to update when VALID is set.
    REGION(0xF, 0),
    /// Write the REGION field through to MPU_RNR.
    VALID(0x1, 4),
    /// Base address bits `[31:5]`.
    ADDR(0x7FF_FFFF, 5)
}

register_bitfields! { RegionAttributes:
    /// Region enable.
    ENABLE(0x1, 0),
    /// Region size exponent minus one: size = 2^(SIZE + 1).
    SIZE(0x1F, 1),
    /// Subregion disable bits (bit i disables subregion i).
    SRD(0xFF, 8),
    /// Access permissions (privileged / unprivileged), ARMv7-M AP encoding.
    AP(0x7, 24),
    /// Execute never.
    XN(0x1, 28)
}

/// Decoded access permission for one privilege level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ap {
    read: bool,
    write: bool,
}

/// Decodes the ARMv7-M AP field for the given privilege (ARM ARM B3.5.2).
fn decode_ap(ap: u32, priv_: Privilege) -> Ap {
    let (priv_ap, unpriv_ap) = match ap {
        0b000 => (
            Ap {
                read: false,
                write: false,
            },
            Ap {
                read: false,
                write: false,
            },
        ),
        0b001 => (
            Ap {
                read: true,
                write: true,
            },
            Ap {
                read: false,
                write: false,
            },
        ),
        0b010 => (
            Ap {
                read: true,
                write: true,
            },
            Ap {
                read: true,
                write: false,
            },
        ),
        0b011 => (
            Ap {
                read: true,
                write: true,
            },
            Ap {
                read: true,
                write: true,
            },
        ),
        0b101 => (
            Ap {
                read: true,
                write: false,
            },
            Ap {
                read: false,
                write: false,
            },
        ),
        0b110 | 0b111 => (
            Ap {
                read: true,
                write: false,
            },
            Ap {
                read: true,
                write: false,
            },
        ),
        // 0b100 is UNPREDICTABLE; the model treats it as no access.
        _ => (
            Ap {
                read: false,
                write: false,
            },
            Ap {
                read: false,
                write: false,
            },
        ),
    };
    match priv_ {
        Privilege::Privileged => priv_ap,
        Privilege::Unprivileged => unpriv_ap,
    }
}

/// One region's RBAR/RASR register pair, as held in hardware.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegionRegs {
    /// Base-address register value.
    pub rbar: u32,
    /// Attributes-and-size register value.
    pub rasr: u32,
}

impl RegionRegs {
    /// Returns `true` if the region enable bit is set.
    pub fn enabled(&self) -> bool {
        RegionAttributes::ENABLE.is_set(self.rasr)
    }

    /// Returns the region size in bytes: `2^(SIZE + 1)`.
    pub fn size(&self) -> usize {
        let exp = RegionAttributes::SIZE.read(self.rasr) + 1;
        1usize << exp
    }

    /// Returns the base address (bits `[31:5]` of RBAR).
    pub fn base(&self) -> usize {
        (self.rbar & 0xFFFF_FFE0) as usize
    }

    /// Returns the SRD subregion-disable byte.
    pub fn srd(&self) -> u32 {
        RegionAttributes::SRD.read(self.rasr)
    }

    /// Returns whether `addr` hits this region, taking subregion disable
    /// bits into account. `None` means no hit; `Some(true)` means hit in an
    /// enabled subregion; `Some(false)` means hit in a disabled subregion.
    pub fn hit(&self, addr: usize) -> Option<bool> {
        if !self.enabled() {
            return None;
        }
        let size = self.size();
        let base = self.base();
        // Hardware behaviour: the region matches addresses where
        // (addr & ~(size-1)) == base; base is size-aligned by construction
        // because low RBAR bits below the size are ignored.
        let effective_base = base & !(size - 1);
        if addr & !(size - 1) != effective_base {
            return None;
        }
        if size >= MIN_SUBREGIONS_SIZE {
            let sub = (addr - effective_base) / (size / 8);
            let disabled = self.srd() & (1 << sub) != 0;
            Some(!disabled)
        } else {
            Some(true)
        }
    }

    /// Decodes whether the access type is permitted at the privilege level.
    pub fn permits(&self, access: AccessType, priv_: Privilege) -> bool {
        let ap = decode_ap(RegionAttributes::AP.read(self.rasr), priv_);
        match access {
            AccessType::Read => ap.read,
            AccessType::Write => ap.write,
            AccessType::Execute => ap.read && !RegionAttributes::XN.is_set(self.rasr),
        }
    }
}

/// The MPU peripheral: control register plus eight region register pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CortexMpu {
    /// MPU_CTRL.ENABLE.
    pub enable: bool,
    /// MPU_CTRL.PRIVDEFENA: privileged accesses fall back to the default
    /// memory map when no region matches.
    pub privdefena: bool,
    /// MPU_RNR: region number selected for RBAR/RASR writes.
    rnr: usize,
    /// The eight region register pairs.
    regions: [RegionRegs; NUM_REGIONS],
}

impl Default for CortexMpu {
    fn default() -> Self {
        Self::new()
    }
}

impl CortexMpu {
    /// Creates a reset-state MPU: disabled, all regions invalid.
    pub fn new() -> Self {
        Self {
            enable: false,
            privdefena: true,
            rnr: 0,
            regions: [RegionRegs::default(); NUM_REGIONS],
        }
    }

    /// MPU_TYPE.DREGION.
    pub fn dregion(&self) -> usize {
        NUM_REGIONS
    }

    /// Writes MPU_CTRL.
    pub fn write_ctrl(&mut self, enable: bool, privdefena: bool) {
        crate::cycles::charge(crate::cycles::Cost::MmioWrite);
        crate::trace::record(crate::trace::TraceEvent::RegWrite {
            reg: crate::trace::RegName::Ctrl,
            index: 0,
            value: (enable as u32) | ((privdefena as u32) << 2),
        });
        self.enable = enable;
        self.privdefena = privdefena;
    }

    /// Writes MPU_RNR.
    pub fn write_rnr(&mut self, region: usize) {
        crate::cycles::charge(crate::cycles::Cost::MmioWrite);
        self.rnr = region % NUM_REGIONS;
        crate::trace::record(crate::trace::TraceEvent::RegWrite {
            reg: crate::trace::RegName::Rnr,
            index: self.rnr as u8,
            value: self.rnr as u32,
        });
    }

    /// Writes MPU_RBAR. If VALID is set, the REGION field also updates
    /// MPU_RNR — the write-through behaviour Tock's driver relies on.
    pub fn write_rbar(&mut self, value: u32) {
        crate::cycles::charge(crate::cycles::Cost::MmioWrite);
        // Fault-injection point: a single-event upset flips the value on
        // the bus, so the stored state, the trace and the VALID/REGION
        // decode below all see the corrupted word.
        let value =
            crate::injection::mutate_reg_write(crate::injection::InjectionPoint::ArmRbar, value);
        if RegionBaseAddress::VALID.is_set(value) {
            self.rnr = RegionBaseAddress::REGION.read(value) as usize % NUM_REGIONS;
        }
        self.regions[self.rnr].rbar = value;
        crate::trace::record(crate::trace::TraceEvent::RegWrite {
            reg: crate::trace::RegName::Rbar,
            index: self.rnr as u8,
            value,
        });
    }

    /// Writes MPU_RASR for the currently selected region.
    pub fn write_rasr(&mut self, value: u32) {
        crate::cycles::charge(crate::cycles::Cost::MmioWrite);
        let value =
            crate::injection::mutate_reg_write(crate::injection::InjectionPoint::ArmRasr, value);
        self.regions[self.rnr].rasr = value;
        crate::trace::record(crate::trace::TraceEvent::RegWrite {
            reg: crate::trace::RegName::Rasr,
            index: self.rnr as u8,
            value,
        });
    }

    /// Composes the RBAR value `write_region` commits for `region`: the
    /// aligned base with VALID set and the REGION field selecting the slot.
    pub fn compose_rbar(region: usize, rbar: u32) -> u32 {
        (rbar & !0x1F)
            | RegionBaseAddress::VALID.val(1).value()
            | RegionBaseAddress::REGION.val(region as u32).value()
    }

    /// Returns `true` if the live register pair for `region` already holds
    /// exactly what `write_region(region, rbar, rasr)` would commit. Used
    /// by the write-elision path and by the commit-cache soundness
    /// obligation; reads no hardware, charges no cycles.
    pub fn region_matches(&self, region: usize, rbar: u32, rasr: u32) -> bool {
        self.regions[region]
            == RegionRegs {
                rbar: Self::compose_rbar(region, rbar),
                rasr,
            }
    }

    /// Convenience: writes a whole region pair via the RBAR VALID path.
    ///
    /// When [`crate::commit_cache`] is enabled and the live register pair
    /// already holds exactly these values, the RNR-select and both data
    /// writes are elided: no `MmioWrite` is charged and no trace events
    /// are recorded — the driver-level dirty-region optimisation the Tock
    /// retrospective describes.
    pub fn write_region(&mut self, region: usize, rbar: u32, rasr: u32) {
        if crate::commit_cache::enabled() && self.region_matches(region, rbar, rasr) {
            crate::commit_cache::note_elided(2);
            return;
        }
        self.write_rbar(Self::compose_rbar(region, rbar));
        self.write_rasr(rasr);
    }

    /// Reads back a region's registers (test/inspection interface).
    pub fn region(&self, region: usize) -> RegionRegs {
        self.regions[region]
    }

    /// Checks a single byte address (ARM ARM B3.5.3 permission check).
    // TRUSTED: this is the hardware semantics itself — the spec isolation
    // is judged against, validated by differential tests, not verified.
    fn check_byte(&self, addr: usize, access: AccessType, priv_: Privilege) -> AccessDecision {
        if !self.enable {
            return AccessDecision::Allowed;
        }
        // Higher-numbered regions take priority on overlap.
        let mut decision: Option<AccessDecision> = None;
        for region in self.regions.iter().rev() {
            match region.hit(addr) {
                Some(true) => {
                    decision = Some(if region.permits(access, priv_) {
                        AccessDecision::Allowed
                    } else {
                        AccessDecision::Fault(FaultKind::PermissionDenied)
                    });
                    break;
                }
                Some(false) => {
                    // A disabled subregion: the region does not match; lower
                    // priority regions may still match this address.
                    continue;
                }
                None => continue,
            }
        }
        match decision {
            Some(d) => d,
            None => {
                if priv_ == Privilege::Privileged && self.privdefena {
                    AccessDecision::Allowed
                } else {
                    AccessDecision::Fault(FaultKind::NoRegionMatch)
                }
            }
        }
    }
}

impl ProtectionUnit for CortexMpu {
    fn check(
        &self,
        addr: usize,
        size: usize,
        access: AccessType,
        priv_: Privilege,
    ) -> AccessDecision {
        // An access faults if any byte of it faults (unaligned accesses that
        // straddle region boundaries are checked per byte, ARM ARM B3.5.3).
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
        self.enable
    }

    fn name(&self) -> &'static str {
        "armv7m-mpu"
    }
}

/// Encodes a region size in bytes into the RASR SIZE field value.
///
/// Size must be a power of two `>= 32`; returns `SIZE` such that
/// `2^(SIZE+1) == size`.
pub fn size_to_rasr_field(size: usize) -> u32 {
    debug_assert!(tt_contracts::math::is_pow2(size) && size >= MIN_REGION_SIZE);
    size.trailing_zeros() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{RegName, TraceEvent};

    fn rasr(size: usize, srd: u32, ap: u32, xn: u32) -> u32 {
        (RegionAttributes::ENABLE.val(1)
            + RegionAttributes::SIZE.val(size_to_rasr_field(size))
            + RegionAttributes::SRD.val(srd)
            + RegionAttributes::AP.val(ap)
            + RegionAttributes::XN.val(xn))
        .value()
    }

    fn unpriv_allowed(mpu: &CortexMpu, addr: usize, access: AccessType) -> bool {
        mpu.check(addr, 1, access, Privilege::Unprivileged)
            .allowed()
    }

    #[test]
    fn disabled_mpu_allows_everything() {
        let mpu = CortexMpu::new();
        assert!(unpriv_allowed(&mpu, 0xDEAD_0000, AccessType::Write));
    }

    #[test]
    fn enabled_mpu_denies_unmatched_unprivileged() {
        let mut mpu = CortexMpu::new();
        mpu.write_ctrl(true, true);
        assert!(!unpriv_allowed(&mpu, 0x2000_0000, AccessType::Read));
        // Privileged access falls back to the default map (PRIVDEFENA).
        assert!(mpu
            .check(0x2000_0000, 4, AccessType::Read, Privilege::Privileged)
            .allowed());
    }

    #[test]
    fn region_grants_unprivileged_rw() {
        let mut mpu = CortexMpu::new();
        mpu.write_ctrl(true, true);
        mpu.write_region(0, 0x2000_0000, rasr(1024, 0, 0b011, 1));
        assert!(unpriv_allowed(&mpu, 0x2000_0000, AccessType::Read));
        assert!(unpriv_allowed(&mpu, 0x2000_03FF, AccessType::Write));
        assert!(!unpriv_allowed(&mpu, 0x2000_0400, AccessType::Read));
        // XN = 1 forbids execution even with read permission.
        assert!(!unpriv_allowed(&mpu, 0x2000_0000, AccessType::Execute));
    }

    #[test]
    fn read_execute_region_for_flash() {
        let mut mpu = CortexMpu::new();
        mpu.write_ctrl(true, true);
        mpu.write_region(2, 0x0004_0000, rasr(4096, 0, 0b110, 0));
        assert!(unpriv_allowed(&mpu, 0x0004_0000, AccessType::Execute));
        assert!(unpriv_allowed(&mpu, 0x0004_0FFC, AccessType::Read));
        assert!(!unpriv_allowed(&mpu, 0x0004_0000, AccessType::Write));
    }

    #[test]
    fn subregion_disable_bits_carve_holes() {
        let mut mpu = CortexMpu::new();
        mpu.write_ctrl(true, true);
        // 2048-byte region, subregions of 256 bytes; disable subregions 6,7
        // (the top 512 bytes — the classic grant-region carve-out).
        mpu.write_region(0, 0x2000_0000, rasr(2048, 0b1100_0000, 0b011, 1));
        assert!(unpriv_allowed(&mpu, 0x2000_0000, AccessType::Write));
        assert!(unpriv_allowed(&mpu, 0x2000_05FF, AccessType::Write)); // Subregion 5.
        assert!(!unpriv_allowed(&mpu, 0x2000_0600, AccessType::Write)); // Subregion 6.
        assert!(!unpriv_allowed(&mpu, 0x2000_07FF, AccessType::Write)); // Subregion 7.
    }

    #[test]
    fn subregion_boundaries_are_exact() {
        let mut mpu = CortexMpu::new();
        mpu.write_ctrl(true, true);
        // 4096-byte region at 0x2000_1000, each subregion 512 bytes; only
        // subregion 3 disabled.
        mpu.write_region(1, 0x2000_1000, rasr(4096, 0b0000_1000, 0b011, 1));
        for sub in 0..8usize {
            let addr = 0x2000_1000 + sub * 512;
            let expect = sub != 3;
            assert_eq!(
                unpriv_allowed(&mpu, addr, AccessType::Read),
                expect,
                "sub {sub} start"
            );
            assert_eq!(
                unpriv_allowed(&mpu, addr + 511, AccessType::Read),
                expect,
                "sub {sub} end"
            );
        }
    }

    #[test]
    fn higher_region_number_takes_priority() {
        let mut mpu = CortexMpu::new();
        mpu.write_ctrl(true, true);
        // Region 0: RW over 4 KiB. Region 7: read-only over the top 1 KiB.
        mpu.write_region(0, 0x2000_0000, rasr(4096, 0, 0b011, 1));
        mpu.write_region(7, 0x2000_0C00, rasr(1024, 0, 0b110, 1));
        assert!(unpriv_allowed(&mpu, 0x2000_0000, AccessType::Write));
        assert!(unpriv_allowed(&mpu, 0x2000_0C00, AccessType::Read));
        assert!(!unpriv_allowed(&mpu, 0x2000_0C00, AccessType::Write));
    }

    #[test]
    fn disabled_subregion_falls_through_to_lower_region() {
        let mut mpu = CortexMpu::new();
        mpu.write_ctrl(true, true);
        // Region 0 covers everything RW; region 1 overlaps with a disabled
        // subregion — ARM semantics: the disabled subregion does not match,
        // so region 0 still applies there.
        mpu.write_region(0, 0x2000_0000, rasr(8192, 0, 0b011, 1));
        mpu.write_region(1, 0x2000_0000, rasr(2048, 0b0000_0001, 0b110, 1));
        // Subregion 0 of region 1 disabled → region 0's RW applies.
        assert!(unpriv_allowed(&mpu, 0x2000_0000, AccessType::Write));
        // Subregion 1 of region 1 enabled → region 1's RO wins.
        assert!(!unpriv_allowed(&mpu, 0x2000_0100, AccessType::Write));
    }

    #[test]
    fn base_address_low_bits_ignored_per_size() {
        let mut mpu = CortexMpu::new();
        mpu.write_ctrl(true, true);
        // A 1 KiB region programmed with a base not 1 KiB-aligned: hardware
        // ignores the low bits of the base below the region size.
        mpu.write_region(0, 0x2000_0123 & !0x1F, rasr(1024, 0, 0b011, 1));
        assert!(unpriv_allowed(&mpu, 0x2000_0000, AccessType::Read));
        assert!(!unpriv_allowed(&mpu, 0x2000_0400, AccessType::Read));
    }

    #[test]
    fn multi_byte_access_checks_every_byte() {
        let mut mpu = CortexMpu::new();
        mpu.write_ctrl(true, true);
        mpu.write_region(0, 0x2000_0000, rasr(1024, 0, 0b011, 1));
        // A 4-byte access straddling the region end faults.
        assert!(!mpu
            .check(0x2000_03FE, 4, AccessType::Read, Privilege::Unprivileged)
            .allowed());
        assert!(mpu
            .check(0x2000_03FC, 4, AccessType::Read, Privilege::Unprivileged)
            .allowed());
    }

    #[test]
    fn rbar_valid_bit_selects_region() {
        let mut mpu = CortexMpu::new();
        let rbar = 0x2000_0000u32
            | RegionBaseAddress::VALID.val(1).value()
            | RegionBaseAddress::REGION.val(5).value();
        mpu.write_rbar(rbar);
        mpu.write_rasr(rasr(1024, 0, 0b011, 1));
        assert!(mpu.region(5).enabled());
        assert_eq!(mpu.region(5).base(), 0x2000_0000);
        assert_eq!(mpu.region(5).size(), 1024);
    }

    #[test]
    fn rnr_path_without_valid_bit() {
        let mut mpu = CortexMpu::new();
        mpu.write_rnr(3);
        mpu.write_rbar(0x2000_0400); // VALID clear: RNR stays 3.
        mpu.write_rasr(rasr(1024, 0, 0b110, 0));
        assert!(mpu.region(3).enabled());
        assert_eq!(mpu.region(3).base(), 0x2000_0400);
    }

    /// The region of every RASR write `f` commits, in commit order, read
    /// from the trace ring's `RegWrite` events.
    fn rasr_order(f: impl FnOnce()) -> Vec<u8> {
        crate::trace::enable(64);
        f();
        let events = crate::trace::take().events;
        crate::trace::disable();
        events
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::RegWrite {
                    reg: RegName::Rasr,
                    index,
                    ..
                } => Some(index),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn trace_records_rasr_commits_in_write_order() {
        let mut mpu = CortexMpu::new();
        let order = rasr_order(|| {
            mpu.write_region(2, 0, rasr(32, 0, 0, 0));
            mpu.write_region(0, 0, rasr(32, 0, 0, 0));
            mpu.write_region(1, 0, rasr(32, 0, 0, 0));
        });
        assert_eq!(order, [2, 0, 1]);
        assert_eq!(rasr_order(|| {}), []);
    }

    #[test]
    fn write_region_elides_unchanged_pairs() {
        let mut mpu = CortexMpu::new();
        crate::commit_cache::set_enabled(true);
        crate::commit_cache::reset_elided();
        let mut after_first = 0;
        let order = rasr_order(|| {
            mpu.write_region(1, 0x2000_0000, rasr(1024, 0, 0b011, 1));
            after_first = crate::cycles::now();
            // Same values again: no cycles, no RASR write, elision noted.
            mpu.write_region(1, 0x2000_0000, rasr(1024, 0, 0b011, 1));
        });
        assert_eq!(crate::cycles::now(), after_first);
        assert_eq!(order, [1]);
        assert_eq!(crate::commit_cache::elided(), 2);
        // A changed RASR still writes (and re-selects via RBAR VALID).
        let order = rasr_order(|| mpu.write_region(1, 0x2000_0000, rasr(2048, 0, 0b011, 1)));
        assert_eq!(mpu.region(1).size(), 2048);
        assert_eq!(order, [1]);
    }

    #[test]
    fn write_region_elision_respects_the_toggle() {
        let mut mpu = CortexMpu::new();
        mpu.write_region(0, 0x2000_0000, rasr(512, 0, 0b011, 1));
        let order = rasr_order(|| {
            crate::commit_cache::with_disabled(|| {
                let before = crate::cycles::now();
                mpu.write_region(0, 0x2000_0000, rasr(512, 0, 0b011, 1));
                // Toggle off: both writes happen and charge 2 × MmioWrite.
                assert_eq!(crate::cycles::now() - before, 8);
            });
        });
        assert_eq!(order, [0]);
    }

    #[test]
    fn ap_decoding_truth_table() {
        use Privilege::*;
        // (ap, priv read, priv write, unpriv read, unpriv write)
        let table = [
            (0b000u32, false, false, false, false),
            (0b001, true, true, false, false),
            (0b010, true, true, true, false),
            (0b011, true, true, true, true),
            (0b101, true, false, false, false),
            (0b110, true, false, true, false),
            (0b111, true, false, true, false),
        ];
        for (ap, pr, pw, ur, uw) in table {
            let p = decode_ap(ap, Privileged);
            let u = decode_ap(ap, Unprivileged);
            assert_eq!(
                (p.read, p.write, u.read, u.write),
                (pr, pw, ur, uw),
                "ap {ap:03b}"
            );
        }
    }

    #[test]
    fn size_field_roundtrip() {
        for exp in 5..=31u32 {
            let size = 1usize << exp;
            let field = size_to_rasr_field(size);
            let r = RegionRegs {
                rbar: 0,
                rasr: (RegionAttributes::ENABLE.val(1) + RegionAttributes::SIZE.val(field)).value(),
            };
            assert_eq!(r.size(), size);
        }
    }

    #[test]
    fn small_regions_ignore_srd() {
        let mut mpu = CortexMpu::new();
        mpu.write_ctrl(true, true);
        // 128-byte region: SRD must be ignored (subregions need >= 256 B).
        mpu.write_region(0, 0x2000_0000, rasr(128, 0xFF, 0b011, 1));
        assert!(unpriv_allowed(&mpu, 0x2000_0000, AccessType::Read));
    }
}
