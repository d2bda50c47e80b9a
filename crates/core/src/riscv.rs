//! The RISC-V granular PMP driver (paper §4.4).
//!
//! A `PmpRegion` is a TOR entry pair: entry `2i` supplies the bottom
//! address, entry `2i + 1` the top plus the permission bits. The PMP "is
//! far more flexible in terms of region start addresses and sizes" (§3.5),
//! so `start`/`size` are the full region bounds with no subregion games —
//! only the chip's granularity `G` constrains them.

use crate::mpu::Mpu;
use crate::region::{OptPair, Pair, RegionDescriptor};
use std::cell::RefCell;
use std::rc::Rc;
use tt_contracts::math::align_up;
use tt_contracts::{ensures, requires};
use tt_hw::cycles::{charge_n, Cost};
use tt_hw::riscv::pmp::{AddressMode, PMP_R, PMP_W, PMP_X};
use tt_hw::riscv::RiscvPmp;
use tt_hw::{Permissions, PtrU8};

/// Encodes logical permissions into pmpcfg R/W/X bits.
pub fn encode_permissions(perms: Permissions) -> u8 {
    match perms {
        Permissions::ReadWriteExecute => PMP_R | PMP_W | PMP_X,
        Permissions::ReadWriteOnly => PMP_R | PMP_W,
        Permissions::ReadExecuteOnly => PMP_R | PMP_X,
        Permissions::ReadOnly => PMP_R,
        Permissions::ExecuteOnly => PMP_X,
    }
}

/// One granular PMP region: a staged TOR entry pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PmpRegion {
    region_id: usize,
    /// pmpcfg byte of the top entry (permissions + TOR mode), 0 when unset.
    cfg: u8,
    /// pmpaddr of the bottom entry (`start >> 2`).
    addr_lo: u32,
    /// pmpaddr of the top entry (`end >> 2`).
    addr_hi: u32,
}

impl PmpRegion {
    /// Builds a region covering `[start, end)` with the given permissions.
    pub fn new(region_id: usize, start: usize, end: usize, perms: Permissions) -> Self {
        requires!("PmpRegion::new", start < end);
        requires!(
            "PmpRegion::new",
            start.is_multiple_of(4) && end.is_multiple_of(4)
        );
        charge_n(Cost::Alu, 4);
        Self {
            region_id,
            cfg: encode_permissions(perms) | (AddressMode::Tor.encode() << 3),
            addr_lo: (start >> 2) as u32,
            addr_hi: (end >> 2) as u32,
        }
    }

    /// The staged pmpcfg byte for the top entry.
    pub fn cfg_value(&self) -> u8 {
        self.cfg
    }

    /// The staged pmpaddr values (bottom, top).
    pub fn addr_values(&self) -> (u32, u32) {
        (self.addr_lo, self.addr_hi)
    }
}

impl RegionDescriptor for PmpRegion {
    fn unset(region_id: usize) -> Self {
        Self {
            region_id,
            cfg: 0,
            addr_lo: 0,
            addr_hi: 0,
        }
    }

    fn start(&self) -> Option<PtrU8> {
        self.is_set()
            .then(|| PtrU8::new((self.addr_lo as usize) << 2))
    }

    fn size(&self) -> Option<usize> {
        self.is_set()
            .then(|| ((self.addr_hi - self.addr_lo) as usize) << 2)
    }

    fn is_set(&self) -> bool {
        AddressMode::decode(self.cfg >> 3) == AddressMode::Tor && self.addr_hi > self.addr_lo
    }

    fn matches_permissions(&self, perms: Permissions) -> bool {
        self.is_set() && (self.cfg & 0b111) == encode_permissions(perms)
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

/// The granular PMP driver, parameterized by the chip granularity `G`.
#[derive(Debug, Clone)]
pub struct GranularPmp<const G: usize> {
    hardware: Rc<RefCell<RiscvPmp>>,
}

/// SiFive E310 instantiation (G = 4).
pub type GranularPmpE310 = GranularPmp<4>;
/// ESP32-C3 instantiation (G = 4).
pub type GranularPmpEsp32C3 = GranularPmp<4>;
/// Ibex / Earl Grey instantiation (G = 8).
pub type GranularPmpIbex = GranularPmp<8>;

impl<const G: usize> GranularPmp<G> {
    /// Creates a driver over the given hardware.
    pub fn new(hardware: Rc<RefCell<RiscvPmp>>) -> Self {
        Self { hardware }
    }

    /// Creates a driver with fresh hardware for the given chip.
    pub fn with_fresh_hardware(chip: tt_hw::riscv::PmpChip) -> Self {
        assert_eq!(chip.granularity(), G, "chip granularity mismatch");
        Self::new(Rc::new(RefCell::new(RiscvPmp::new(chip))))
    }

    /// Returns the hardware handle.
    pub fn hardware(&self) -> Rc<RefCell<RiscvPmp>> {
        Rc::clone(&self.hardware)
    }
}

impl<const G: usize> Mpu for GranularPmp<G> {
    type Region = PmpRegion;

    fn new_regions(
        max_region_id: usize,
        unalloc_start: PtrU8,
        unalloc_size: usize,
        total_size: usize,
        permissions: Permissions,
    ) -> OptPair<PmpRegion> {
        requires!("GranularPmp::new_regions", (1..8).contains(&max_region_id));
        if total_size == 0 {
            return None;
        }
        charge_n(Cost::Alu, 5);
        let start = align_up(unalloc_start.as_usize(), G);
        // `+1` before rounding keeps the accessible span strictly larger
        // than the request, preserving `app_break < kernel_break`.
        let accessible = align_up(total_size + 1, G);
        let end = start + accessible;
        ensures!("GranularPmp::new_regions", accessible > total_size);
        if end > unalloc_start.as_usize() + unalloc_size {
            return None;
        }
        Some(Pair {
            fst: PmpRegion::new(max_region_id - 1, start, end, permissions),
            snd: PmpRegion::unset(max_region_id),
        })
    }

    fn update_regions(
        max_region_id: usize,
        region_start: PtrU8,
        available_size: usize,
        total_size: usize,
        permissions: Permissions,
    ) -> OptPair<PmpRegion> {
        requires!(
            "GranularPmp::update_regions",
            (1..8).contains(&max_region_id)
        );
        charge_n(Cost::Alu, 4);
        if total_size == 0 || total_size > available_size {
            return None;
        }
        let start = region_start.as_usize();
        if !start.is_multiple_of(G) {
            return None;
        }
        let accessible = align_up(total_size, G).min(available_size);
        if accessible < total_size {
            return None;
        }
        ensures!("GranularPmp::update_regions", accessible <= available_size);
        Some(Pair {
            fst: PmpRegion::new(max_region_id - 1, start, start + accessible, permissions),
            snd: PmpRegion::unset(max_region_id),
        })
    }

    fn create_exact_region(
        region_id: usize,
        start: PtrU8,
        size: usize,
        permissions: Permissions,
    ) -> Option<PmpRegion> {
        charge_n(Cost::Alu, 3);
        if size == 0 || !start.as_usize().is_multiple_of(G) || !size.is_multiple_of(G) {
            return None;
        }
        Some(PmpRegion::new(
            region_id,
            start.as_usize(),
            start.as_usize() + size,
            permissions,
        ))
    }

    // TRUSTED: CSR write-out is part of the TCB (§6.1).
    fn configure_mpu(&self, regions: &[PmpRegion]) {
        let mut hw = self.hardware.borrow_mut();
        let slots = Self::placement(&hw, regions);
        for (region, slot) in regions.iter().zip(slots) {
            let Some(base) = slot else {
                continue;
            };
            let (lo, hi) = region.addr_values();
            let cfg = region.cfg_value();
            // Diff-commit: skip all four CSR writes when the live entry
            // pair already holds this region's staged values.
            if tt_hw::commit_cache::enabled()
                && hw.entry_matches(base, lo, 0)
                && hw.entry_matches(base + 1, hi, cfg)
            {
                tt_hw::commit_cache::note_elided(4);
                continue;
            }
            hw.write_addr(base, lo);
            hw.write_cfg(base, 0);
            hw.write_addr(base + 1, hi);
            hw.write_cfg(base + 1, cfg);
        }
    }

    fn disable_mpu(&self) {
        // Kernel execution is M-mode: unlocked PMP entries do not constrain
        // it, so "disabling" is a no-op, as on real hardware.
    }

    // `reenable_mpu` keeps the default no-op: nothing was disabled.

    fn hardware_matches(&self, regions: &[PmpRegion]) -> bool {
        let hw = self.hardware.borrow();
        let slots = Self::placement(&hw, regions);
        regions.iter().zip(slots).all(|(region, slot)| {
            let Some(base) = slot else {
                // No pair: fine for an unset region (a bricked pair's
                // locked garbage is confined to the faulted process's own
                // extents), a config failure for a set one.
                return !region.is_set();
            };
            let (lo, hi) = region.addr_values();
            hw.entry_matches(base, lo, 0) && hw.entry_matches(base + 1, hi, region.cfg_value())
        })
    }
}

/// Upper bound on PMP entry pairs across every supported chip (largest
/// chip: 16 entries = 8 pairs; headroom for doubling).
const MAX_PAIRS: usize = 16;
/// Upper bound on staged regions per process.
const MAX_REGIONS: usize = 16;

impl<const G: usize> GranularPmp<G> {
    /// Returns `true` when either entry of the pair at `base` is locked.
    /// pmpcfg.L is sticky until hart reset, so a locked pair can never be
    /// rewritten: it must not host a region (and a locked bottom entry
    /// would silently corrupt the pair's TOR range). The entries are
    /// probed only when the register file holds a lock at all.
    fn pair_bricked(hw: &RiscvPmp, base: usize) -> bool {
        hw.any_locked() && (hw.entry(base).locked() || hw.entry(base + 1).locked())
    }

    /// Deterministic slot placement: each region keeps its default entry
    /// pair (`region_id * 2`) unless that pair is bricked by a locked
    /// entry — a fault-injected (or silicon-failed) lock bit — in which
    /// case a *set* region relocates to the lowest unbricked pair no
    /// other region claims. `None` means nothing can (or need) be
    /// written: an unset region on a bricked pair, or a set region with
    /// no usable pair left (caught by `hardware_matches` and handled by
    /// the kernel's fault path).
    ///
    /// A pure function of the staged regions and the hardware lock
    /// pattern, so the commit and consistency-check paths always agree.
    ///
    /// Returned as a fixed-size array (entries beyond `regions.len()`
    /// stay `None`): this runs on the per-commit and per-scrub hot
    /// paths, where two heap allocations per call dominated the
    /// RISC-V fleet profile.
    fn placement(hw: &RiscvPmp, regions: &[PmpRegion]) -> [Option<usize>; MAX_REGIONS] {
        let pairs = hw.chip().entries() / 2;
        assert!(
            pairs <= MAX_PAIRS && regions.len() <= MAX_REGIONS,
            "PMP geometry exceeds placement bounds"
        );
        let mut used = [false; MAX_PAIRS];
        let mut slots = [None; MAX_REGIONS];
        // Set regions first: default pair when unbricked …
        for (slot, region) in slots.iter_mut().zip(regions) {
            let pair = region.region_id();
            if region.is_set() && pair < pairs && !Self::pair_bricked(hw, pair * 2) {
                *slot = Some(pair * 2);
                used[pair] = true;
            }
        }
        // … else the lowest unbricked pair left (its four writes overwrite
        // whatever junk the pair held, so no separate clear is needed).
        for (slot, region) in slots.iter_mut().zip(regions) {
            if slot.is_some() || !region.is_set() {
                continue;
            }
            if let Some(pair) = (0..pairs).find(|p| !used[*p] && !Self::pair_bricked(hw, p * 2)) {
                *slot = Some(pair * 2);
                used[pair] = true;
            }
        }
        // Unset regions last: they only clear stale state at their default
        // pair, and only when no live region claimed it.
        for (slot, region) in slots.iter_mut().zip(regions) {
            let pair = region.region_id();
            if !region.is_set() && pair < pairs && !used[pair] && !Self::pair_bricked(hw, pair * 2)
            {
                *slot = Some(pair * 2);
                used[pair] = true;
            }
        }
        slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tt_hw::mem::{AccessType, Privilege, ProtectionUnit};
    use tt_hw::riscv::pmp::PMP_L;
    use tt_hw::riscv::PmpChip;

    const RAM: usize = 0x8000_0000;

    /// Slot placement as it was before the register file tracked its
    /// locks: every pair probed for a lock bit on every pass.
    fn probe_every_pair(hw: &RiscvPmp, regions: &[PmpRegion]) -> [Option<usize>; MAX_REGIONS] {
        let pairs = hw.chip().entries() / 2;
        let bricked = |pair: usize| hw.entry(pair * 2).locked() || hw.entry(pair * 2 + 1).locked();
        let mut used = [false; MAX_PAIRS];
        let mut slots = [None; MAX_REGIONS];
        for (slot, region) in slots.iter_mut().zip(regions) {
            let pair = region.region_id();
            if region.is_set() && pair < pairs && !bricked(pair) {
                *slot = Some(pair * 2);
                used[pair] = true;
            }
        }
        for (slot, region) in slots.iter_mut().zip(regions) {
            if slot.is_some() || !region.is_set() {
                continue;
            }
            if let Some(pair) = (0..pairs).find(|p| !used[*p] && !bricked(*p)) {
                *slot = Some(pair * 2);
                used[pair] = true;
            }
        }
        for (slot, region) in slots.iter_mut().zip(regions) {
            let pair = region.region_id();
            if !region.is_set() && pair < pairs && !used[pair] && !bricked(pair) {
                *slot = Some(pair * 2);
                used[pair] = true;
            }
        }
        slots
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Placement equals the probe-every-pair algorithm for random
        /// lock patterns (none in a third of the cases) and region sets
        /// on all three PMP chips.
        #[test]
        fn placement_matches_probing_every_pair(
            chip in 0usize..3,
            locks in any::<u32>(),
            unlocked in 0u32..3,
            words in prop::collection::vec(any::<u32>(), 0..MAX_REGIONS),
        ) {
            let chip = PmpChip::ALL[chip];
            let mut hw = RiscvPmp::new(chip);
            let mask = (1u32 << chip.entries()) - 1;
            let locks = if unlocked == 0 { 0 } else { locks & locks >> 8 & mask };
            for i in (0..chip.entries()).filter(|i| locks >> i & 1 == 1) {
                hw.write_cfg(i, PMP_L);
            }
            let regions: Vec<PmpRegion> = words
                .iter()
                .map(|&w| {
                    let id = (w >> 1) as usize % (chip.entries() / 2 + 2);
                    match w & 1 {
                        0 => PmpRegion::unset(id),
                        _ => PmpRegion::new(id, RAM, RAM + 0x400, Permissions::ReadWriteOnly),
                    }
                })
                .collect();
            prop_assert_eq!(hw.any_locked(), locks != 0);
            prop_assert_eq!(
                GranularPmp::<4>::placement(&hw, &regions),
                probe_every_pair(&hw, &regions)
            );
        }
    }

    #[test]
    fn region_encodes_tor_bounds() {
        let r = PmpRegion::new(0, RAM, RAM + 0x1000, Permissions::ReadWriteOnly);
        assert!(r.is_set());
        assert_eq!(r.start().unwrap().as_usize(), RAM);
        assert_eq!(r.size().unwrap(), 0x1000);
        assert!(r.matches_permissions(Permissions::ReadWriteOnly));
        assert!(!r.matches_permissions(Permissions::ReadExecuteOnly));
        assert!(r.overlaps(RAM + 0xFFF, RAM + 0x2000));
        assert!(!r.overlaps(RAM + 0x1000, RAM + 0x2000));
    }

    #[test]
    fn unset_region_is_inert() {
        let r = PmpRegion::unset(3);
        assert!(!r.is_set());
        assert_eq!(r.start(), None);
        assert!(!r.overlaps(0, usize::MAX));
    }

    #[test]
    fn regions_relocate_off_a_locked_pair() {
        // A fault-injected lock bit bricks entry 1 (pair 0). The commit
        // must relocate the region to a free pair — locked entries ignore
        // writes until hart reset, so rewriting in place is impossible.
        let drv = GranularPmpEsp32C3::with_fresh_hardware(PmpChip::Esp32C3);
        let ram = PmpRegion::new(0, RAM, RAM + 0xC00, Permissions::ReadWriteOnly);
        let flash = PmpRegion::new(2, 0x4204_0000, 0x4204_1000, Permissions::ReadExecuteOnly);
        let regions = [ram, flash];
        drv.configure_mpu(&regions);
        assert!(drv.hardware_matches(&regions));
        {
            let hw = drv.hardware();
            let mut hw = hw.borrow_mut();
            let cfg = hw.entry(1).cfg;
            hw.write_cfg(1, cfg | 0x80);
            assert!(hw.entry(1).locked());
        }
        assert!(!drv.hardware_matches(&regions), "brick detected");
        drv.configure_mpu(&regions);
        assert!(drv.hardware_matches(&regions), "region relocated");
        let hw = drv.hardware();
        let hw = hw.borrow();
        // Pair 1 (entries 2, 3) now hosts the RAM region.
        assert_eq!(hw.entry(3).cfg, ram.cfg_value());
        assert!(hw
            .check(RAM + 0x400, 4, AccessType::Write, Privilege::Unprivileged)
            .allowed());
    }

    #[test]
    fn unset_slots_do_not_starve_relocation() {
        // The allocator's region slice carries unset placeholder slots;
        // a relocated *set* region must win a pair ahead of them (the
        // kernel-run regression behind the campaign's bystander faults).
        let drv = GranularPmpE310::with_fresh_hardware(PmpChip::SifiveE310);
        let regions = [
            PmpRegion::new(0, RAM, RAM + 0xC00, Permissions::ReadWriteOnly),
            PmpRegion::unset(1),
            PmpRegion::new(2, 0x2040_0000, 0x2040_1000, Permissions::ReadExecuteOnly),
            PmpRegion::unset(3),
        ];
        drv.configure_mpu(&regions);
        {
            let hw = drv.hardware();
            let mut hw = hw.borrow_mut();
            let cfg = hw.entry(1).cfg;
            hw.write_cfg(1, cfg | 0x80);
        }
        drv.configure_mpu(&regions);
        assert!(drv.hardware_matches(&regions));
        let hw = drv.hardware();
        let hw = hw.borrow();
        assert!(hw
            .check(RAM, 4, AccessType::Read, Privilege::Unprivileged)
            .allowed());
    }

    #[test]
    fn new_regions_single_region_with_slack() {
        let pair = GranularPmpE310::new_regions(
            1,
            PtrU8::new(RAM + 2),
            0x4000,
            1000,
            Permissions::ReadWriteOnly,
        )
        .unwrap();
        assert!(pair.fst.is_set());
        assert!(!pair.snd.is_set());
        let (start, end) = pair.fst.accessible_range().unwrap();
        assert_eq!(start % 4, 0);
        assert!(end - start > 1000);
        assert!(end - start <= 1008, "PMP slack is at most one granule + 1");
    }

    #[test]
    fn ibex_granularity_is_respected() {
        let pair = GranularPmpIbex::new_regions(
            1,
            PtrU8::new(0x1000_0001),
            0x4000,
            100,
            Permissions::ReadWriteOnly,
        )
        .unwrap();
        let (start, end) = pair.fst.accessible_range().unwrap();
        assert_eq!(start % 8, 0);
        assert_eq!((end - start) % 8, 0);
    }

    #[test]
    fn pool_bounds_enforced() {
        assert!(GranularPmpE310::new_regions(
            1,
            PtrU8::new(RAM),
            512,
            1000,
            Permissions::ReadWriteOnly
        )
        .is_none());
    }

    #[test]
    fn update_stays_within_available() {
        let updated = GranularPmpE310::update_regions(
            1,
            PtrU8::new(RAM),
            2048,
            2000,
            Permissions::ReadWriteOnly,
        )
        .unwrap();
        let (start, end) = updated.fst.accessible_range().unwrap();
        assert_eq!(start, RAM);
        assert!(end - start >= 2000);
        assert!(end - start <= 2048);
        assert!(GranularPmpE310::update_regions(
            1,
            PtrU8::new(RAM),
            2048,
            4096,
            Permissions::ReadWriteOnly
        )
        .is_none());
    }

    #[test]
    fn configured_pmp_enforces_span_on_all_chips() {
        for chip in PmpChip::ALL {
            let ram = match chip {
                PmpChip::SifiveE310 => 0x8000_0000usize,
                PmpChip::Esp32C3 => 0x3FC8_0000,
                PmpChip::IbexEarlGrey => 0x1000_0000,
            };
            let (pair, mpu_regions): (Pair<PmpRegion>, [PmpRegion; 2]) = match chip.granularity() {
                4 => {
                    let p = GranularPmp::<4>::new_regions(
                        1,
                        PtrU8::new(ram),
                        0x4000,
                        1000,
                        Permissions::ReadWriteOnly,
                    )
                    .unwrap();
                    (p, [p.fst, p.snd])
                }
                _ => {
                    let p = GranularPmp::<8>::new_regions(
                        1,
                        PtrU8::new(ram),
                        0x4000,
                        1000,
                        Permissions::ReadWriteOnly,
                    )
                    .unwrap();
                    (p, [p.fst, p.snd])
                }
            };
            let hw = Rc::new(RefCell::new(RiscvPmp::new(chip)));
            match chip.granularity() {
                4 => GranularPmp::<4>::new(Rc::clone(&hw)).configure_mpu(&mpu_regions),
                _ => GranularPmp::<8>::new(Rc::clone(&hw)).configure_mpu(&mpu_regions),
            }
            let (start, end) = pair.fst.accessible_range().unwrap();
            let hw = hw.borrow();
            assert!(hw
                .check(start, 4, AccessType::Write, Privilege::Unprivileged)
                .allowed());
            assert!(hw
                .check(end - 4, 4, AccessType::Read, Privilege::Unprivileged)
                .allowed());
            assert!(!hw
                .check(end, 4, AccessType::Write, Privilege::Unprivileged)
                .allowed());
            assert!(!hw
                .check(start - 4, 4, AccessType::Read, Privilege::Unprivileged)
                .allowed());
        }
    }

    #[test]
    fn exact_region_for_flash() {
        let r = GranularPmpE310::create_exact_region(
            2,
            PtrU8::new(0x2000_0000),
            0x1000,
            Permissions::ReadExecuteOnly,
        )
        .unwrap();
        assert!(r.can_access(0x2000_0000, 0x2000_1000, Permissions::ReadExecuteOnly));
        assert!(GranularPmpE310::create_exact_region(
            2,
            PtrU8::new(0x2000_0001),
            0x1000,
            Permissions::ReadExecuteOnly
        )
        .is_none());
    }
}
