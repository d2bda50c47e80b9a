//! The Cortex-M granular MPU driver (paper §4.4).
//!
//! `CortexMRegion` implements [`RegionDescriptor`] directly over the
//! RBAR/RASR register encodings: `start`, `size` and `is_set` are decoded
//! from the same bits the hardware consumes, so "the bits of the rbar and
//! rasr registers are flipped to precisely match the logical values that
//! the kernel tracks". Subregion masks are built with verified bitwise
//! arithmetic instead of loops — one of the Fig. 11 speedups.

use crate::mpu::Mpu;
use crate::region::{OptPair, Pair, RegionDescriptor};
use std::cell::RefCell;
use std::rc::Rc;
use tt_contracts::math::{align_up, closest_power_of_two_usize, is_pow2};
use tt_contracts::{ensures, requires};
use tt_hw::cortexm::mpu::{size_to_rasr_field, RegionAttributes};
use tt_hw::cortexm::CortexMpu;
use tt_hw::cycles::{charge, charge_n, Cost};
use tt_hw::registers::FieldValue;
use tt_hw::{Permissions, PtrU8};

/// Minimum region size that supports subregions.
const MIN_SUBREGION_REGION: usize = 256;

/// Encodes logical permissions into the (AP, XN) fields for user access.
pub fn encode_permissions(perms: Permissions) -> (u32, u32) {
    match perms {
        Permissions::ReadWriteExecute => (0b011, 0),
        Permissions::ReadWriteOnly => (0b011, 1),
        Permissions::ReadExecuteOnly => (0b110, 0),
        Permissions::ReadOnly => (0b110, 1),
        Permissions::ExecuteOnly => (0b110, 0),
    }
}

/// A single Cortex-M region: a register pair plus its slot number
/// (the paper's `CortexMRegion { rbar, rasr }`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CortexMRegion {
    region_id: usize,
    rbar: FieldValue<tt_hw::cortexm::mpu::RegionBaseAddress::Register>,
    rasr: FieldValue<tt_hw::cortexm::mpu::RegionAttributes::Register>,
}

impl CortexMRegion {
    /// Builds a region of power-of-two `region_size` at `base` (aligned),
    /// with the first `enabled_subregions` of its eight subregions enabled.
    ///
    /// The SRD mask is pure bitwise arithmetic: `0xFF << k` truncated —
    /// no loop (contrast `tt_legacy::LegacyCortexM::srd_masks_loop`).
    pub fn new(
        region_id: usize,
        base: usize,
        region_size: usize,
        enabled_subregions: usize,
        perms: Permissions,
    ) -> Self {
        requires!(
            "CortexMRegion::new",
            is_pow2(region_size) && region_size >= MIN_SUBREGION_REGION
        );
        requires!("CortexMRegion::new", base.is_multiple_of(region_size));
        requires!("CortexMRegion::new", (1..=8).contains(&enabled_subregions));
        let (ap, xn) = encode_permissions(perms);
        charge_n(Cost::Alu, 6);
        // Bitwise SRD: disable everything at or above `enabled_subregions`.
        let srd = (0xFFu32 << enabled_subregions) & 0xFF;
        let rbar = tt_hw::cortexm::mpu::RegionBaseAddress::ADDR.val((base as u32) >> 5);
        let rasr = RegionAttributes::ENABLE.val(1)
            + RegionAttributes::SIZE.val(size_to_rasr_field(region_size))
            + RegionAttributes::SRD.val(srd)
            + RegionAttributes::AP.val(ap)
            + RegionAttributes::XN.val(xn);
        let region = Self {
            region_id,
            rbar,
            rasr,
        };
        ensures!(
            "CortexMRegion::new",
            region.size() == Some(enabled_subregions * (region_size / 8))
        );
        ensures!(
            "CortexMRegion::new",
            region.start() == Some(PtrU8::new(base))
        );
        region
    }

    /// Builds a region covering exactly `[start, start + size)` with no
    /// subregion games (used for flash).
    pub fn exact(region_id: usize, start: usize, size: usize, perms: Permissions) -> Option<Self> {
        charge_n(Cost::Alu, 3);
        if !is_pow2(size) || size < 32 || !start.is_multiple_of(size) {
            return None;
        }
        let (ap, xn) = encode_permissions(perms);
        charge_n(Cost::Alu, 4);
        Some(Self {
            region_id,
            rbar: tt_hw::cortexm::mpu::RegionBaseAddress::ADDR.val((start as u32) >> 5),
            rasr: RegionAttributes::ENABLE.val(1)
                + RegionAttributes::SIZE.val(size_to_rasr_field(size))
                + RegionAttributes::AP.val(ap)
                + RegionAttributes::XN.val(xn),
        })
    }

    /// Raw RBAR value (without VALID/REGION selection fields).
    pub fn rbar_value(&self) -> u32 {
        self.rbar.value()
    }

    /// Raw RASR value.
    pub fn rasr_value(&self) -> u32 {
        self.rasr.value()
    }

    fn rasr_raw(&self) -> u32 {
        self.rasr.value()
    }

    fn region_size(&self) -> usize {
        1usize << (RegionAttributes::SIZE.read(self.rasr_raw()) + 1)
    }

    fn base(&self) -> usize {
        (self.rbar.value() & 0xFFFF_FFE0) as usize
    }

    fn srd(&self) -> u32 {
        RegionAttributes::SRD.read(self.rasr_raw())
    }

    /// Decodes the enabled-subregion prefix length from the SRD byte.
    ///
    /// All regions this driver builds enable a prefix `[0, k)`; decoding
    /// verifies that shape (an arbitrary SRD with holes has no contiguous
    /// accessible range and would be a driver bug).
    fn enabled_prefix(&self) -> usize {
        let enabled = (!self.srd()) & 0xFF;
        let k = enabled.trailing_ones() as usize;
        debug_assert_eq!(enabled, (0xFFu32 >> (8 - k)) & 0xFF, "non-prefix SRD");
        k
    }
}

impl RegionDescriptor for CortexMRegion {
    fn unset(region_id: usize) -> Self {
        Self {
            region_id,
            rbar: FieldValue::empty(),
            rasr: FieldValue::empty(),
        }
    }

    fn start(&self) -> Option<PtrU8> {
        if !self.is_set() {
            return None;
        }
        charge_n(Cost::Alu, 2);
        Some(PtrU8::new(self.base()))
    }

    fn size(&self) -> Option<usize> {
        if !self.is_set() {
            return None;
        }
        charge_n(Cost::Alu, 3);
        let region_size = self.region_size();
        if region_size >= MIN_SUBREGION_REGION {
            Some(self.enabled_prefix() * (region_size / 8))
        } else {
            Some(region_size)
        }
    }

    fn is_set(&self) -> bool {
        RegionAttributes::ENABLE.read(self.rasr_raw()) != 0
    }

    fn matches_permissions(&self, perms: Permissions) -> bool {
        if !self.is_set() {
            return false;
        }
        let (ap, xn) = encode_permissions(perms);
        RegionAttributes::AP.read(self.rasr_raw()) == ap
            && RegionAttributes::XN.read(self.rasr_raw()) == xn
    }

    fn overlaps(&self, lo: usize, hi: usize) -> bool {
        match self.accessible_range() {
            Some((s, e)) => lo < hi && s < hi && lo < e,
            None => false,
        }
    }

    fn region_id(&self) -> usize {
        self.region_id
    }
}

/// Geometry chosen by the granular driver for a RAM request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RamGeometry {
    base: usize,
    region_size: usize,
    enabled_subregions: usize, // 1..=16 across the pair.
}

impl RamGeometry {
    fn accessible(&self) -> usize {
        self.enabled_subregions * (self.region_size / 8)
    }
}

/// Picks (region_size, subregion count) so the pair's accessible span
/// strictly exceeds `total_size` (the `+1` subregion keeps `app_break <
/// kernel_break` strict by construction). A request larger than the
/// unallocated window never fits, and is refused before the power-of-two
/// rounding, which works in 32 bits and wraps above 2 GiB.
fn choose_geometry(
    unalloc_start: usize,
    unalloc_size: usize,
    total_size: usize,
) -> Option<RamGeometry> {
    if total_size == 0 || total_size > unalloc_size {
        return None;
    }
    charge_n(Cost::Alu, 8);
    let mut region_size = (closest_power_of_two_usize(total_size) / 2).max(MIN_SUBREGION_REGION);
    let mut base = align_up(unalloc_start, region_size);
    charge_n(Cost::Div, 1);
    let mut enabled = total_size * 8 / region_size + 1;
    if enabled > 16 {
        // total_size == 2 * region_size exactly: double once; 16 subregions
        // of the doubled size always suffice.
        charge_n(Cost::Alu, 2);
        charge_n(Cost::Div, 1);
        region_size *= 2;
        base = align_up(unalloc_start, region_size);
        enabled = total_size * 8 / region_size + 1;
    }
    let geometry = RamGeometry {
        base,
        region_size,
        enabled_subregions: enabled,
    };
    ensures!("choose_geometry", geometry.accessible() > total_size);
    ensures!("choose_geometry", geometry.enabled_subregions <= 16);
    charge_n(Cost::Alu, 2);
    if base + geometry.accessible() > unalloc_start + unalloc_size {
        return None;
    }
    Some(geometry)
}

fn geometry_to_pair(
    max_region_id: usize,
    g: RamGeometry,
    perms: Permissions,
) -> Pair<CortexMRegion> {
    requires!("geometry_to_pair", (1..8).contains(&max_region_id));
    let first_id = max_region_id - 1;
    let k0 = g.enabled_subregions.min(8);
    let k1 = g.enabled_subregions.saturating_sub(8);
    let fst = CortexMRegion::new(first_id, g.base, g.region_size, k0, perms);
    let snd = if k1 > 0 {
        CortexMRegion::new(
            max_region_id,
            g.base + g.region_size,
            g.region_size,
            k1,
            perms,
        )
    } else {
        CortexMRegion::unset(max_region_id)
    };
    Pair { fst, snd }
}

/// The granular Cortex-M MPU driver.
#[derive(Debug, Clone)]
pub struct GranularCortexM {
    hardware: Rc<RefCell<CortexMpu>>,
}

impl GranularCortexM {
    /// Creates a driver over the given hardware.
    pub fn new(hardware: Rc<RefCell<CortexMpu>>) -> Self {
        Self { hardware }
    }

    /// Creates a driver with fresh hardware (testing convenience).
    pub fn with_fresh_hardware() -> Self {
        Self::new(Rc::new(RefCell::new(CortexMpu::new())))
    }

    /// Returns the hardware handle.
    pub fn hardware(&self) -> Rc<RefCell<CortexMpu>> {
        Rc::clone(&self.hardware)
    }
}

impl Mpu for GranularCortexM {
    type Region = CortexMRegion;

    fn new_regions(
        max_region_id: usize,
        unalloc_start: PtrU8,
        unalloc_size: usize,
        total_size: usize,
        permissions: Permissions,
    ) -> OptPair<CortexMRegion> {
        let g = choose_geometry(unalloc_start.as_usize(), unalloc_size, total_size)?;
        Some(geometry_to_pair(max_region_id, g, permissions))
    }

    fn update_regions(
        max_region_id: usize,
        region_start: PtrU8,
        available_size: usize,
        total_size: usize,
        permissions: Permissions,
    ) -> OptPair<CortexMRegion> {
        charge_n(Cost::Alu, 6);
        if total_size == 0 || total_size > available_size {
            return None;
        }
        // Re-derive a region size compatible with the existing block: the
        // largest power of two that `region_start` is aligned to, bounded
        // by half the available window (the pair spans two regions).
        let mut region_size =
            (closest_power_of_two_usize(available_size) / 2).max(MIN_SUBREGION_REGION);
        while region_size > MIN_SUBREGION_REGION
            && !region_start.as_usize().is_multiple_of(region_size)
        {
            charge(Cost::Div);
            region_size /= 2;
        }
        if !region_start.as_usize().is_multiple_of(region_size) {
            return None;
        }
        charge_n(Cost::Div, 2);
        let max_enabled = (available_size / (region_size / 8)).min(16);
        let enabled = (total_size * 8 / region_size + 1).min(max_enabled);
        if enabled == 0 || enabled * (region_size / 8) < total_size {
            return None;
        }
        let g = RamGeometry {
            base: region_start.as_usize(),
            region_size,
            enabled_subregions: enabled,
        };
        ensures!("update_regions", g.accessible() >= total_size);
        ensures!("update_regions", g.accessible() <= available_size);
        Some(geometry_to_pair(max_region_id, g, permissions))
    }

    fn create_exact_region(
        region_id: usize,
        start: PtrU8,
        size: usize,
        permissions: Permissions,
    ) -> Option<CortexMRegion> {
        CortexMRegion::exact(region_id, start.as_usize(), size, permissions)
    }

    // TRUSTED: register write-out is part of TickTock's TCB (§6.1) —
    // the write-order bug was caught by testing, not verification.
    fn configure_mpu(&self, regions: &[CortexMRegion]) {
        let mut hw = self.hardware.borrow_mut();
        // Defensive disable while reprogramming, then write each slot in
        // slot order — the ordering discipline the §6.1 differential test
        // demanded — and re-enable for unprivileged execution.
        hw.write_ctrl(false, true);
        for region in regions {
            hw.write_region(region.region_id(), region.rbar_value(), region.rasr_value());
        }
        hw.write_ctrl(true, true);
    }

    fn disable_mpu(&self) {
        self.hardware.borrow_mut().write_ctrl(false, true);
    }

    fn reenable_mpu(&self) {
        // The scheduler disables MPU_CTRL on every switch-out, so even a
        // cache hit must pay this one write to restore enforcement.
        self.hardware.borrow_mut().write_ctrl(true, true);
    }

    fn hardware_matches(&self, regions: &[CortexMRegion]) -> bool {
        let hw = self.hardware.borrow();
        regions.iter().all(|region| {
            hw.region_matches(region.region_id(), region.rbar_value(), region.rasr_value())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_hw::mem::{AccessType, Privilege, ProtectionUnit};
    use tt_hw::trace::{RegName, TraceEvent};

    #[test]
    fn region_new_encodes_prefix_srd_bitwise() {
        let r = CortexMRegion::new(0, 0x2000_0000, 2048, 5, Permissions::ReadWriteOnly);
        assert!(r.is_set());
        assert_eq!(r.start().unwrap().as_usize(), 0x2000_0000);
        assert_eq!(r.size().unwrap(), 5 * 256);
        assert!(r.matches_permissions(Permissions::ReadWriteOnly));
        assert!(!r.matches_permissions(Permissions::ReadOnly));
    }

    #[test]
    fn region_roundtrip_all_subregion_counts() {
        for k in 1..=8usize {
            for exp in 8..=14u32 {
                let size = 1usize << exp;
                let r = CortexMRegion::new(
                    1,
                    0x2000_0000 & !(size - 1),
                    size,
                    k,
                    Permissions::ReadWriteOnly,
                );
                assert_eq!(r.size().unwrap(), k * (size / 8), "k={k} size={size}");
            }
        }
    }

    #[test]
    fn unset_region_exposes_nothing() {
        let r = CortexMRegion::unset(4);
        assert!(!r.is_set());
        assert_eq!(r.start(), None);
        assert_eq!(r.size(), None);
        assert!(!r.overlaps(0, usize::MAX));
        assert!(!r.matches_permissions(Permissions::ReadWriteOnly));
    }

    #[test]
    fn overlaps_uses_accessible_not_region_extent() {
        // 2048-byte region with 4 of 8 subregions: accessible is 1024.
        let r = CortexMRegion::new(0, 0x2000_0000, 2048, 4, Permissions::ReadWriteOnly);
        assert!(r.overlaps(0x2000_0000, 0x2000_0001));
        assert!(r.overlaps(0x2000_03FF, 0x2000_0500));
        assert!(!r.overlaps(0x2000_0400, 0x2000_0800)); // Disabled half.
        assert!(!r.overlaps(0x2000_0800, 0x2000_1000));
    }

    #[test]
    fn exact_region_requires_pow2_aligned() {
        assert!(
            CortexMRegion::exact(7, 0x0004_0000, 0x8000, Permissions::ReadExecuteOnly).is_some()
        );
        assert!(
            CortexMRegion::exact(7, 0x0004_0100, 0x8000, Permissions::ReadExecuteOnly).is_none()
        );
        assert!(
            CortexMRegion::exact(7, 0x0004_0000, 0x7000, Permissions::ReadExecuteOnly).is_none()
        );
        assert!(CortexMRegion::exact(7, 0x0004_0000, 16, Permissions::ReadExecuteOnly).is_none());
    }

    #[test]
    fn new_regions_accessible_strictly_exceeds_request() {
        for total in [100usize, 512, 1000, 2048, 3000, 4096, 6000, 8192] {
            let pair = GranularCortexM::new_regions(
                1,
                PtrU8::new(0x2000_0100),
                0x2_0000,
                total,
                Permissions::ReadWriteOnly,
            )
            .unwrap_or_else(|| panic!("alloc failed for {total}"));
            let (start, end) = crate::mpu::pair_span(&pair.fst, &pair.snd).unwrap();
            assert!(end - start > total, "total={total} got {}", end - start);
            // Within a subregion of the request (no gross waste).
            assert!(end - start <= total + total.next_power_of_two() / 8 + 256);
        }
    }

    #[test]
    fn new_regions_pair_is_contiguous_when_spilling() {
        let pair = GranularCortexM::new_regions(
            1,
            PtrU8::new(0x2000_0000),
            0x2_0000,
            3000,
            Permissions::ReadWriteOnly,
        )
        .unwrap();
        assert!(pair.fst.is_set());
        assert!(pair.snd.is_set(), "3000 B needs > 8 subregions of 256");
        let (_, fst_end) = pair.fst.accessible_range().unwrap();
        let (snd_start, _) = pair.snd.accessible_range().unwrap();
        assert_eq!(fst_end, snd_start);
        assert_eq!(pair.fst.region_id(), 0);
        assert_eq!(pair.snd.region_id(), 1);
    }

    #[test]
    fn new_regions_respects_pool_bounds() {
        assert!(GranularCortexM::new_regions(
            1,
            PtrU8::new(0x2000_0000),
            1024, // Pool too small for 2048 + slack.
            2048,
            Permissions::ReadWriteOnly,
        )
        .is_none());
    }

    #[test]
    fn update_regions_grows_within_available() {
        // Create 2000 B, then grow to 3000 B within 4096 available.
        let pair = GranularCortexM::new_regions(
            1,
            PtrU8::new(0x2000_0000),
            0x2_0000,
            2000,
            Permissions::ReadWriteOnly,
        )
        .unwrap();
        let (start, end) = crate::mpu::pair_span(&pair.fst, &pair.snd).unwrap();
        let available = end - start;
        let updated = GranularCortexM::update_regions(
            1,
            PtrU8::new(start),
            available,
            available - 8,
            Permissions::ReadWriteOnly,
        )
        .unwrap();
        let (_, new_end) = crate::mpu::pair_span(&updated.fst, &updated.snd).unwrap();
        assert!(new_end - start >= available - 8);
        assert!(new_end - start <= available, "must not exceed grant bound");
    }

    #[test]
    fn update_regions_rejects_overgrowth() {
        assert!(GranularCortexM::update_regions(
            1,
            PtrU8::new(0x2000_0000),
            2048,
            4096, // More than available.
            Permissions::ReadWriteOnly,
        )
        .is_none());
    }

    #[test]
    fn configured_hardware_enforces_exactly_the_accessible_span() {
        let mpu = GranularCortexM::with_fresh_hardware();
        let pair = GranularCortexM::new_regions(
            1,
            PtrU8::new(0x2000_0040),
            0x2_0000,
            3000,
            Permissions::ReadWriteOnly,
        )
        .unwrap();
        let (start, end) = crate::mpu::pair_span(&pair.fst, &pair.snd).unwrap();
        let regions = [pair.fst, pair.snd];
        mpu.configure_mpu(&regions);
        let hw = mpu.hardware();
        let hw = hw.borrow();
        // Every 64-byte step inside the span is user-writable; the bytes
        // just outside are not.
        let mut addr = start;
        while addr < end {
            assert!(
                hw.check(addr, 1, AccessType::Write, Privilege::Unprivileged)
                    .allowed(),
                "{addr:#x} inside span denied"
            );
            addr += 64;
        }
        assert!(!hw
            .check(end, 1, AccessType::Write, Privilege::Unprivileged)
            .allowed());
        assert!(!hw
            .check(start - 1, 1, AccessType::Read, Privilege::Unprivileged)
            .allowed());
    }

    #[test]
    fn geometry_postconditions_hold_across_grid() {
        for start in (0x2000_0000..0x2000_0800).step_by(0x60) {
            for total in (64..8192).step_by(389) {
                if let Some(g) = choose_geometry(start, 0x4_0000, total) {
                    assert!(g.accessible() > total);
                    assert!(g.enabled_subregions >= 1 && g.enabled_subregions <= 16);
                    assert!(g.base % g.region_size == 0);
                    assert!(g.base >= start);
                }
            }
        }
        assert_eq!(tt_contracts::violation_count(), 0);
    }

    #[test]
    fn configure_writes_regions_in_slot_order() {
        // The §6.1 testing-caught bug: "the order in which regions were
        // written did not match the order of the region ids". The granular
        // driver must commit RASR writes in ascending slot order.
        // The RASR writes are read back from the trace ring.
        let mpu = GranularCortexM::with_fresh_hardware();
        let regions: Vec<CortexMRegion> = (0..8).map(CortexMRegion::unset).collect();
        tt_hw::trace::enable(64);
        mpu.configure_mpu(&regions);
        let events = tt_hw::trace::take().events;
        tt_hw::trace::disable();
        let order: Vec<u8> = events
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::RegWrite {
                    reg: RegName::Rasr,
                    index,
                    ..
                } => Some(index),
                _ => None,
            })
            .collect();
        assert_eq!(order, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn zero_total_size_is_rejected() {
        assert!(choose_geometry(0x2000_0000, 0x1000, 0).is_none());
    }
}
