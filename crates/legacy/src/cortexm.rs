//! Faithful port of Tock's original Cortex-M memory allocation (Fig. 4a).
//!
//! This is the code the paper verified and found broken. The `Buggy`
//! variant reproduces the upstream implementation including:
//!
//! * **BUG1** (tock#4366, §3.4): when the enabled subregions overlap the
//!   kernel grant region, the readjustment doubles `region_size` but *not*
//!   `mem_size_po2`, so "in most scenarios, the MPU enforced memory still
//!   overlaps the grant region owned by the kernel".
//! * **BUG3** (§2.2): `update_app_mem_region` computes
//!   `num_enabled_subregions0 - 1`, which underflows when a malicious
//!   `brk` argument makes the requested break precede the region start.
//!
//! The `Fixed` variant applies the upstreamed fixes. Both run against the
//! same [`tt_hw::cortexm::CortexMpu`] model, so the bugs are observable as
//! real isolation breaks, not just failed contracts.

use crate::mpu_trait::{BugVariant, LegacyMpu, LegacyMpuError};
use std::cell::RefCell;
use std::cmp;
use std::rc::Rc;
use tt_contracts::math::closest_power_of_two_usize;
use tt_contracts::{checked_add, checked_mul, checked_sub};
use tt_hw::cortexm::mpu::{size_to_rasr_field, RegionAttributes, RegionBaseAddress};
use tt_hw::cortexm::CortexMpu;
use tt_hw::cycles::{charge, charge_n, Cost};
use tt_hw::{Permissions, PtrU8};

/// Region index used for process flash.
pub const FLASH_REGION: usize = 2;
/// Region indices used for process RAM (two regions spanning 16 subregions).
pub const RAM_REGION_0: usize = 0;
/// Second RAM region.
pub const RAM_REGION_1: usize = 1;

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

/// One stored region of the legacy per-process configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LegacyRegion {
    /// RBAR value (without VALID/REGION fields).
    pub rbar: u32,
    /// RASR value.
    pub rasr: u32,
    /// Whether this slot is in use.
    pub set: bool,
}

/// The legacy `MpuConfig`: eight raw register pairs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CortexMConfig {
    /// The eight region slots.
    pub regions: [LegacyRegion; 8],
}

impl CortexMConfig {
    /// Recovers (start, region_size) of the process RAM block from the raw
    /// registers of RAM region 0 — the legacy code path that *re-derives*
    /// state from hardware encodings instead of keeping it.
    pub fn ram_region_geometry(&self) -> Option<(usize, usize)> {
        let r = self.regions[RAM_REGION_0];
        if !r.set {
            return None;
        }
        charge_n(Cost::Load, 2);
        charge_n(Cost::Alu, 4);
        let start = (r.rbar & 0xFFFF_FFE0) as usize;
        let exp = RegionAttributes::SIZE.read(r.rasr) + 1;
        Some((start, 1usize << exp))
    }
}

/// Intermediate values of the Fig. 4a computation, surfaced for
/// specification (the paper's "Step 1: Explication", §3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocLayout {
    /// Start of the (aligned) process memory block.
    pub region_start: usize,
    /// Size of each of the two MPU regions.
    pub region_size: usize,
    /// Total block size the kernel is told about.
    pub mem_size_po2: usize,
    /// Number of enabled subregions (of 16).
    pub num_enabled_subregs: usize,
    /// End address of MPU-enabled (process-accessible) memory.
    pub subregs_enabled_end: usize,
    /// Start (lowest address) of the kernel-owned grant region.
    pub kernel_mem_break: usize,
}

impl AllocLayout {
    /// The isolation postcondition the paper added in §3.4: the last
    /// enabled subregion must never exceed the start of the grant region.
    pub fn isolation_holds(&self) -> bool {
        self.subregs_enabled_end <= self.kernel_mem_break
    }
}

/// The legacy Cortex-M MPU driver.
#[derive(Debug, Clone)]
pub struct LegacyCortexM {
    variant: BugVariant,
    hardware: Rc<RefCell<CortexMpu>>,
}

impl LegacyCortexM {
    /// Creates a driver over the given hardware instance.
    pub fn new(variant: BugVariant, hardware: Rc<RefCell<CortexMpu>>) -> Self {
        Self { variant, hardware }
    }

    /// Creates a driver with fresh, private hardware (testing convenience).
    pub fn with_fresh_hardware(variant: BugVariant) -> Self {
        Self::new(variant, Rc::new(RefCell::new(CortexMpu::new())))
    }

    /// Returns the hardware handle.
    pub fn hardware(&self) -> Rc<RefCell<CortexMpu>> {
        Rc::clone(&self.hardware)
    }

    /// Returns the configured bug variant.
    pub fn variant(&self) -> BugVariant {
        self.variant
    }

    /// The Fig. 4a computation, line for line, surfacing the intermediates.
    ///
    /// Cycle charges model the Cortex-M4 cost of the original code: the
    /// divides and modulos are real hardware divides, and the subregion
    /// masks are later built with loops.
    pub fn compute_alloc_layout(
        &self,
        unalloc_start: usize,
        min_size: usize,
        app_size: usize,
        kernel_size: usize,
    ) -> AllocLayout {
        // Make sure there is enough memory for app memory and kernel memory.
        charge_n(Cost::Alu, 2);
        let mem_size = cmp::max(
            min_size,
            checked_add("legacy::alloc", app_size, kernel_size),
        );
        charge_n(Cost::Alu, 6); // closest_power_of_two bit smear.
        let mut mem_size_po2 = closest_power_of_two_usize(mem_size);

        // The region should start as close as possible to unallocated memory.
        let mut region_start = unalloc_start;
        charge(Cost::Div);
        let mut region_size = mem_size_po2 / 2;

        // If the start and length don't align, move the region up.
        charge(Cost::Div);
        charge(Cost::Branch);
        if !region_start.is_multiple_of(region_size) {
            charge_n(Cost::Alu, 2);
            charge(Cost::Div);
            region_start = checked_add(
                "legacy::alloc",
                region_start,
                region_size - (region_start % region_size),
            );
        }

        charge_n(Cost::Div, 2);
        charge_n(Cost::Alu, 2);
        let mut num_enabled_subregs = checked_mul("legacy::alloc", app_size, 8) / region_size + 1;
        let subreg_size = region_size / 8;

        // End address of enabled subregions and initial kernel memory break.
        charge_n(Cost::Alu, 3);
        let mut subregs_enabled_end = checked_add(
            "legacy::alloc",
            region_start,
            checked_mul("legacy::alloc", num_enabled_subregs, subreg_size),
        );
        let kernel_mem_break = checked_sub(
            "legacy::alloc",
            checked_add("legacy::alloc", region_start, mem_size_po2),
            kernel_size,
        );

        charge(Cost::Branch);
        if subregs_enabled_end > kernel_mem_break {
            charge(Cost::Alu);
            region_size *= 2;
            charge(Cost::Div);
            charge(Cost::Branch);
            if !region_start.is_multiple_of(region_size) {
                charge_n(Cost::Alu, 2);
                charge(Cost::Div);
                region_start = checked_add(
                    "legacy::alloc",
                    region_start,
                    region_size - (region_start % region_size),
                );
            }
            charge_n(Cost::Div, 2);
            charge_n(Cost::Alu, 2);
            num_enabled_subregs = checked_mul("legacy::alloc", app_size, 8) / region_size + 1;
            subregs_enabled_end = checked_add(
                "legacy::alloc",
                region_start,
                checked_mul("legacy::alloc", num_enabled_subregs, region_size / 8),
            );
            match self.variant {
                BugVariant::Buggy => {
                    // BUG1: the comment in upstream Tock says the total size
                    // must double too, but the code never did — so the two
                    // MPU regions extend past `mem_size_po2` and the enabled
                    // subregions can still cover the grant region.
                }
                BugVariant::Fixed => {
                    // The verified fix (tock#4366): double the block size so
                    // the layout and the hardware agree again.
                    charge(Cost::Alu);
                    mem_size_po2 *= 2;
                }
            }
        }

        let kernel_mem_break = checked_sub(
            "legacy::alloc",
            checked_add("legacy::alloc", region_start, mem_size_po2),
            kernel_size,
        );

        AllocLayout {
            region_start,
            region_size,
            mem_size_po2,
            num_enabled_subregs,
            subregs_enabled_end,
            kernel_mem_break,
        }
    }

    /// Builds the SRD disable masks for the two RAM regions, with the
    /// original loop-based implementation (cycle-charged per iteration; the
    /// paper notes TickTock replaces these loops with "verified bitwise
    /// arithmetic", one source of the Fig. 11 `brk` speedup).
    pub fn srd_masks_loop(num_enabled_subregs: usize) -> (u32, u32) {
        let mut srd0 = 0u32;
        let mut srd1 = 0u32;
        for i in 0..8 {
            charge(Cost::Branch);
            if i >= num_enabled_subregs {
                charge(Cost::Alu);
                srd0 |= 1 << i;
            }
        }
        for i in 0..8 {
            charge(Cost::Branch);
            if i + 8 >= num_enabled_subregs {
                charge(Cost::Alu);
                srd1 |= 1 << i;
            }
        }
        (srd0, srd1)
    }

    fn write_ram_regions(
        &self,
        config: &mut CortexMConfig,
        layout: &AllocLayout,
        permissions: Permissions,
    ) {
        let (ap, xn) = encode_permissions(permissions);
        let (srd0, srd1) = Self::srd_masks_loop(layout.num_enabled_subregs);
        let size_field = size_to_rasr_field(layout.region_size.max(32));
        let mk_rasr = |srd: u32, enable: u32| {
            charge_n(Cost::Alu, 4);
            (RegionAttributes::ENABLE.val(enable)
                + RegionAttributes::SIZE.val(size_field)
                + RegionAttributes::SRD.val(srd)
                + RegionAttributes::AP.val(ap)
                + RegionAttributes::XN.val(xn))
            .value()
        };
        charge_n(Cost::Store, 4);
        config.regions[RAM_REGION_0] = LegacyRegion {
            rbar: (layout.region_start as u32) & 0xFFFF_FFE0,
            rasr: mk_rasr(srd0, 1),
            set: true,
        };
        // The second region is only enabled when subregions spill into it.
        let second_enabled = layout.num_enabled_subregs > 8;
        config.regions[RAM_REGION_1] = LegacyRegion {
            rbar: ((layout.region_start + layout.region_size) as u32) & 0xFFFF_FFE0,
            rasr: mk_rasr(srd1, u32::from(second_enabled)),
            set: second_enabled,
        };
    }
}

impl LegacyMpu for LegacyCortexM {
    type MpuConfig = CortexMConfig;

    fn allocate_app_mem_region(
        &self,
        unalloc_start: PtrU8,
        unalloc_size: usize,
        min_size: usize,
        app_size: usize,
        kernel_size: usize,
        permissions: Permissions,
        config: &mut CortexMConfig,
    ) -> Option<(PtrU8, usize)> {
        if app_size == 0 || kernel_size == 0 {
            return None;
        }
        // A request larger than the free window never fits. Refuse it
        // before the power-of-two rounding, which works in 32 bits and
        // saturates above 2 GiB.
        if cmp::max(min_size, app_size.saturating_add(kernel_size)) > unalloc_size {
            return None;
        }
        let layout =
            self.compute_alloc_layout(unalloc_start.as_usize(), min_size, app_size, kernel_size);

        // Bounds check against the available pool.
        charge_n(Cost::Alu, 2);
        charge(Cost::Branch);
        if layout.region_start + layout.mem_size_po2 > unalloc_start.as_usize() + unalloc_size {
            return None;
        }

        self.write_ram_regions(config, &layout, permissions);
        Some((PtrU8::new(layout.region_start), layout.mem_size_po2))
    }

    fn update_app_mem_region(
        &self,
        new_app_break: PtrU8,
        kernel_break: PtrU8,
        permissions: Permissions,
        config: &mut CortexMConfig,
    ) -> Result<(), LegacyMpuError> {
        // Re-derive the block geometry from the raw registers — the
        // *disagreement* pattern: the kernel no longer has these values.
        let (region_start, region_size) = config
            .ram_region_geometry()
            .ok_or(LegacyMpuError::InvalidParameters)?;

        if self.variant == BugVariant::Fixed {
            // The §2.2 fix: validate the syscall-controlled break before any
            // arithmetic. The buggy variant omits this, so a malicious
            // `brk(addr < memory_start)` reaches the subtraction below.
            charge_n(Cost::Branch, 2);
            if new_app_break.as_usize() <= region_start
                || new_app_break.as_usize() > kernel_break.as_usize()
            {
                return Err(LegacyMpuError::InvalidParameters);
            }
        }

        // app_size = new_app_break - region_start: underflows for a
        // malicious break below the region start (BUG3; Flux flagged the
        // same expression as `num_enabled_subregions0 - 1`).
        charge(Cost::Alu);
        let app_size = checked_sub("legacy::update", new_app_break.as_usize(), region_start);

        charge_n(Cost::Div, 2);
        charge_n(Cost::Alu, 2);
        let num_enabled_subregs = checked_mul("legacy::update", app_size, 8) / region_size + 1;
        let subreg_size = region_size / 8;
        charge_n(Cost::Alu, 2);
        let subregs_enabled_end = checked_add(
            "legacy::update",
            region_start,
            checked_mul("legacy::update", num_enabled_subregs, subreg_size),
        );

        charge(Cost::Branch);
        if subregs_enabled_end > kernel_break.as_usize() {
            return Err(LegacyMpuError::OutOfMemory);
        }

        // num_enabled_subregions0 - 1: the exact expression Flux flagged as
        // potentially underflowing to usize::MAX (§2.2). With num == 0
        // (possible in the buggy variant when app_size wrapped to 0), the
        // subtraction underflows.
        charge_n(Cost::Alu, 2);
        let num0 = cmp::min(num_enabled_subregs, 8);
        let _last_enabled_subregion0 = checked_sub("legacy::update", num0, 1);

        let layout = AllocLayout {
            region_start,
            region_size,
            mem_size_po2: region_size * 2,
            num_enabled_subregs,
            subregs_enabled_end,
            kernel_mem_break: kernel_break.as_usize(),
        };
        self.write_ram_regions(config, &layout, permissions);
        Ok(())
    }

    fn allocate_flash_region(
        &self,
        flash_start: PtrU8,
        flash_size: usize,
        permissions: Permissions,
        config: &mut CortexMConfig,
    ) -> Option<()> {
        // Flash placement in Tock guarantees power-of-two size and aligned
        // start; reject anything else like the hardware would.
        charge_n(Cost::Alu, 3);
        if !tt_contracts::math::is_pow2(flash_size)
            || flash_size < 32
            || !flash_start.as_usize().is_multiple_of(flash_size)
        {
            return None;
        }
        let (ap, xn) = encode_permissions(permissions);
        charge_n(Cost::Alu, 4);
        charge(Cost::Store);
        config.regions[FLASH_REGION] = LegacyRegion {
            rbar: (flash_start.as_usize() as u32) & 0xFFFF_FFE0,
            rasr: (RegionAttributes::ENABLE.val(1)
                + RegionAttributes::SIZE.val(size_to_rasr_field(flash_size))
                + RegionAttributes::AP.val(ap)
                + RegionAttributes::XN.val(xn))
            .value(),
            set: true,
        };
        Some(())
    }

    // TRUSTED: register write-out (TCB, §6.1).
    fn configure_mpu(&self, config: &CortexMConfig) {
        let mut hw = self.hardware.borrow_mut();
        for (i, region) in config.regions.iter().enumerate() {
            if region.set {
                hw.write_region(i, region.rbar, region.rasr);
            } else {
                // Disable the slot so stale regions never linger.
                let rbar = RegionBaseAddress::VALID.val(1).value()
                    | RegionBaseAddress::REGION.val(i as u32).value();
                hw.write_rbar(rbar);
                hw.write_rasr(0);
            }
        }
        hw.write_ctrl(true, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_hw::mem::{AccessType, Privilege, ProtectionUnit};

    /// The concrete BUG1 trigger from the paper's Fig. 2 discussion: a
    /// misaligned start forces the region up, pushing the enabled
    /// subregions past the grant start.
    /// Traced: mem_size_po2 = 4096, region_size = 2048, the misaligned
    /// start realigns to 0x2000_0800; 15 enabled subregions of 256 B end at
    /// +3840 > kernel_mem_break (+3596), triggering the doubling branch.
    /// After doubling, the 8 enabled 512 B subregions end at +4096, still
    /// past the (not-recomputed) break at +3596 — BUG1.
    fn bug1_params() -> (usize, usize, usize, usize) {
        // (unalloc_start, min_size, app_size, kernel_size)
        (0x2000_0100, 0, 3590, 500)
    }

    #[test]
    fn buggy_alloc_violates_isolation_postcondition() {
        let mpu = LegacyCortexM::with_fresh_hardware(BugVariant::Buggy);
        let (start, min, app, kernel) = bug1_params();
        let layout = mpu.compute_alloc_layout(start, min, app, kernel);
        assert!(
            !layout.isolation_holds(),
            "expected subregion overlap: {layout:?}"
        );
    }

    #[test]
    fn fixed_alloc_satisfies_isolation_postcondition() {
        let mpu = LegacyCortexM::with_fresh_hardware(BugVariant::Fixed);
        let (start, min, app, kernel) = bug1_params();
        let layout = mpu.compute_alloc_layout(start, min, app, kernel);
        assert!(layout.isolation_holds(), "fix failed: {layout:?}");
    }

    #[test]
    fn buggy_alloc_lets_process_touch_grant_memory() {
        // End-to-end: configure real (modelled) hardware from the buggy
        // layout and show an unprivileged access inside the grant region is
        // admitted — the isolation break, observable.
        let mpu = LegacyCortexM::with_fresh_hardware(BugVariant::Buggy);
        let (start, min, app, kernel) = bug1_params();
        let layout = mpu.compute_alloc_layout(start, min, app, kernel);
        let mut config = CortexMConfig::default();
        let got = mpu.allocate_app_mem_region(
            PtrU8::new(start),
            0x4_0000,
            min,
            app,
            kernel,
            Permissions::ReadWriteOnly,
            &mut config,
        );
        assert!(got.is_some());
        mpu.configure_mpu(&config);
        let hw = mpu.hardware();
        let hw = hw.borrow();
        // The grant region starts at kernel_mem_break; the first grant byte
        // must NOT be user-accessible, but with BUG1 it is.
        let grant_byte = layout.kernel_mem_break;
        assert!(
            hw.check(grant_byte, 1, AccessType::Write, Privilege::Unprivileged)
                .allowed(),
            "expected the bug to expose grant memory at {grant_byte:#x}"
        );
    }

    #[test]
    fn fixed_alloc_protects_grant_memory() {
        let mpu = LegacyCortexM::with_fresh_hardware(BugVariant::Fixed);
        let (start, min, app, kernel) = bug1_params();
        let layout = mpu.compute_alloc_layout(start, min, app, kernel);
        let mut config = CortexMConfig::default();
        mpu.allocate_app_mem_region(
            PtrU8::new(start),
            0x4_0000,
            min,
            app,
            kernel,
            Permissions::ReadWriteOnly,
            &mut config,
        )
        .unwrap();
        mpu.configure_mpu(&config);
        let hw = mpu.hardware();
        let hw = hw.borrow();
        for probe in [layout.kernel_mem_break, layout.kernel_mem_break + 512] {
            assert!(
                !hw.check(probe, 1, AccessType::Write, Privilege::Unprivileged)
                    .allowed(),
                "grant byte {probe:#x} reachable in fixed variant"
            );
        }
        // The app-accessible range still works.
        assert!(hw
            .check(
                layout.region_start,
                4,
                AccessType::Read,
                Privilege::Unprivileged
            )
            .allowed());
    }

    #[test]
    fn aligned_start_avoids_bug1() {
        // When no realignment happens, even the buggy code is correct —
        // the bug needs the region_start shift (§3.4).
        let mpu = LegacyCortexM::with_fresh_hardware(BugVariant::Buggy);
        let layout = mpu.compute_alloc_layout(0x2000_0000, 0, 2048 + 512, 1024);
        assert!(layout.isolation_holds(), "{layout:?}");
    }

    #[test]
    fn update_underflows_on_malicious_break_in_buggy_variant() {
        let mpu = LegacyCortexM::with_fresh_hardware(BugVariant::Buggy);
        let mut config = CortexMConfig::default();
        mpu.allocate_app_mem_region(
            PtrU8::new(0x2000_0000),
            0x4_0000,
            4096,
            2048,
            1024,
            Permissions::ReadWriteOnly,
            &mut config,
        )
        .unwrap();
        let violations = tt_contracts::with_mode(tt_contracts::Mode::Observe, || {
            // Malicious brk: a break below the region start.
            let _ = mpu.update_app_mem_region(
                PtrU8::new(0x1000_0000),
                PtrU8::new(0x2000_0F00),
                Permissions::ReadWriteOnly,
                &mut config,
            );
            tt_contracts::take_violations()
        });
        assert!(
            violations.iter().any(|v| v.site == "legacy::update"),
            "expected underflow obligation, got {violations:?}"
        );
    }

    #[test]
    fn fixed_update_rejects_malicious_break() {
        let mpu = LegacyCortexM::with_fresh_hardware(BugVariant::Fixed);
        let mut config = CortexMConfig::default();
        mpu.allocate_app_mem_region(
            PtrU8::new(0x2000_0000),
            0x4_0000,
            4096,
            2048,
            1024,
            Permissions::ReadWriteOnly,
            &mut config,
        )
        .unwrap();
        let err = mpu.update_app_mem_region(
            PtrU8::new(0x1000_0000),
            PtrU8::new(0x2000_0F00),
            Permissions::ReadWriteOnly,
            &mut config,
        );
        assert_eq!(err, Err(LegacyMpuError::InvalidParameters));
        assert_eq!(tt_contracts::violation_count(), 0);
    }

    #[test]
    fn update_grows_accessible_range() {
        let mpu = LegacyCortexM::with_fresh_hardware(BugVariant::Fixed);
        let mut config = CortexMConfig::default();
        let (start, size) = mpu
            .allocate_app_mem_region(
                PtrU8::new(0x2000_0000),
                0x4_0000,
                4096,
                1024,
                1024,
                Permissions::ReadWriteOnly,
                &mut config,
            )
            .unwrap();
        let kernel_break = PtrU8::new(start.as_usize() + size - 1024);
        mpu.update_app_mem_region(
            start.offset(2048),
            kernel_break,
            Permissions::ReadWriteOnly,
            &mut config,
        )
        .unwrap();
        mpu.configure_mpu(&config);
        let hw = mpu.hardware();
        let hw = hw.borrow();
        assert!(hw
            .check(
                start.as_usize() + 2040,
                4,
                AccessType::Write,
                Privilege::Unprivileged
            )
            .allowed());
        assert!(!hw
            .check(
                kernel_break.as_usize(),
                4,
                AccessType::Write,
                Privilege::Unprivileged
            )
            .allowed());
    }

    #[test]
    fn flash_region_requires_pow2_aligned() {
        let mpu = LegacyCortexM::with_fresh_hardware(BugVariant::Fixed);
        let mut config = CortexMConfig::default();
        assert!(mpu
            .allocate_flash_region(
                PtrU8::new(0x0004_0000),
                0x8000,
                Permissions::ReadExecuteOnly,
                &mut config
            )
            .is_some());
        assert!(mpu
            .allocate_flash_region(
                PtrU8::new(0x0004_0100), // Misaligned for 32 KiB.
                0x8000,
                Permissions::ReadExecuteOnly,
                &mut config
            )
            .is_none());
        assert!(mpu
            .allocate_flash_region(
                PtrU8::new(0x0004_0000),
                0x7000, // Not a power of two.
                Permissions::ReadExecuteOnly,
                &mut config
            )
            .is_none());
    }

    #[test]
    fn srd_loop_masks_match_bitwise_reference() {
        for num in 0..=16usize {
            let (srd0, srd1) = LegacyCortexM::srd_masks_loop(num);
            let num0 = num.min(8) as u32;
            let num1 = num.saturating_sub(8) as u32;
            let expect0 = if num0 >= 8 { 0 } else { (!0u32 << num0) & 0xFF };
            let expect1 = if num1 >= 8 { 0 } else { (!0u32 << num1) & 0xFF };
            assert_eq!((srd0, srd1), (expect0, expect1), "num = {num}");
        }
    }

    #[test]
    fn geometry_roundtrip_through_registers() {
        let mpu = LegacyCortexM::with_fresh_hardware(BugVariant::Fixed);
        let mut config = CortexMConfig::default();
        let (start, _size) = mpu
            .allocate_app_mem_region(
                PtrU8::new(0x2000_0000),
                0x4_0000,
                8192,
                4096,
                1024,
                Permissions::ReadWriteOnly,
                &mut config,
            )
            .unwrap();
        let (g_start, g_size) = config.ram_region_geometry().unwrap();
        assert_eq!(g_start, start.as_usize());
        assert!(g_size.is_power_of_two());
    }

    #[test]
    fn zero_sizes_rejected() {
        let mpu = LegacyCortexM::with_fresh_hardware(BugVariant::Fixed);
        let mut config = CortexMConfig::default();
        assert!(mpu
            .allocate_app_mem_region(
                PtrU8::new(0x2000_0000),
                0x4_0000,
                0,
                0,
                1024,
                Permissions::ReadWriteOnly,
                &mut config
            )
            .is_none());
    }

    #[test]
    fn out_of_pool_allocation_rejected() {
        let mpu = LegacyCortexM::with_fresh_hardware(BugVariant::Fixed);
        let mut config = CortexMConfig::default();
        assert!(mpu
            .allocate_app_mem_region(
                PtrU8::new(0x2000_0000),
                2048, // Pool smaller than the needed block.
                0,
                4096,
                1024,
                Permissions::ReadWriteOnly,
                &mut config
            )
            .is_none());
    }
}
