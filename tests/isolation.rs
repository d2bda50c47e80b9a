//! Cross-crate isolation properties (the INV row of DESIGN.md §3).
//!
//! Property-based suites: for arbitrary allocation parameters and syscall
//! sequences, with the granular kernel's configuration loaded into the
//! modelled hardware, an unprivileged access is admitted **iff** it falls
//! in the process's own flash (read/execute) or accessible RAM
//! (read/write) — the paper's isolation theorem, checked end to end.

use proptest::prelude::*;
use ticktock_repro::hw::mem::{AccessType, Privilege, ProtectionUnit};
use ticktock_repro::hw::PtrU8;
use ticktock_repro::ticktock::allocator::AppMemoryAllocator;
use ticktock_repro::ticktock::cortexm::GranularCortexM;
use ticktock_repro::ticktock::riscv::GranularPmpE310;

const RAM: usize = 0x2000_0000;
const FLASH: usize = 0x0004_0000;

/// One mutating operation applied to a live allocator.
#[derive(Debug, Clone)]
enum Op {
    Brk(usize),
    Grant(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..0x3000).prop_map(Op::Brk),
        (1usize..512).prop_map(Op::Grant),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After any allocation and op sequence, hardware agrees with the
    /// logical view everywhere that matters.
    #[test]
    fn cortexm_hardware_never_exposes_grant_or_other_memory(
        start_off in 0usize..256,
        app_size in 256usize..5000,
        kernel_size in 64usize..1500,
        ops in prop::collection::vec(op_strategy(), 0..12),
    ) {
        let Ok(mut alloc) = AppMemoryAllocator::<GranularCortexM>::allocate_app_memory(
            PtrU8::new(RAM + start_off * 4),
            0x2_0000,
            0,
            app_size,
            kernel_size,
            PtrU8::new(FLASH),
            0x1000,
        ) else {
            return Ok(()); // Refusal is always safe.
        };

        for op in &ops {
            match op {
                Op::Brk(target_off) => {
                    let target = alloc.breaks.memory_start.as_usize() + target_off;
                    let _ = alloc.update_app_memory(PtrU8::new(target));
                }
                Op::Grant(size) => {
                    let _ = alloc.allocate_grant(*size);
                }
            }
            // The struct invariant holds after every operation.
            prop_assert!(alloc.can_access_flash());
            prop_assert!(alloc.can_access_ram());
            prop_assert!(alloc.cannot_access_other());
        }

        // Load the configuration into real (modelled) hardware and probe.
        let mpu = GranularCortexM::with_fresh_hardware();
        alloc.configure_mpu(&mpu);
        let hw_rc = mpu.hardware();
        let hw = hw_rc.borrow();
        let user =
            |addr: usize, acc| hw.check(addr, 1, acc, Privilege::Unprivileged).allowed();

        let (span_start, span_end) = alloc.accessible_span().unwrap();
        let kb = alloc.breaks.kernel_break.as_usize();
        let mem_end = alloc.breaks.memory_end();

        // Accessible RAM: read-write, never execute (W^X for data).
        for addr in [span_start, (span_start + span_end) / 2, span_end - 1] {
            prop_assert!(user(addr, AccessType::Read), "read {addr:#x}");
            prop_assert!(user(addr, AccessType::Write), "write {addr:#x}");
            prop_assert!(!user(addr, AccessType::Execute), "exec {addr:#x}");
        }
        // The span never reaches the grant region.
        prop_assert!(span_end <= kb);
        // Grant region: fully denied.
        let mut addr = kb;
        while addr < mem_end {
            prop_assert!(!user(addr, AccessType::Read), "grant read {addr:#x}");
            prop_assert!(!user(addr, AccessType::Write), "grant write {addr:#x}");
            addr += 64;
        }
        // Below the block and far above: denied.
        prop_assert!(!user(span_start - 1, AccessType::Read));
        prop_assert!(!user(mem_end + 1024, AccessType::Read));
        // Flash: read/execute only.
        prop_assert!(user(FLASH, AccessType::Read));
        prop_assert!(user(FLASH, AccessType::Execute));
        prop_assert!(!user(FLASH, AccessType::Write));
        prop_assert!(!user(FLASH + 0x1000, AccessType::Read));
    }

    /// Same theorem on the RISC-V PMP driver.
    #[test]
    fn pmp_hardware_never_exposes_grant_or_other_memory(
        app_size in 64usize..3000,
        kernel_size in 32usize..512,
        grant_ops in prop::collection::vec(1usize..256, 0..6),
    ) {
        let Ok(mut alloc) = AppMemoryAllocator::<GranularPmpE310>::allocate_app_memory(
            PtrU8::new(0x8000_0000),
            0x4000,
            0,
            app_size,
            kernel_size,
            PtrU8::new(0x2000_0000),
            0x1000,
        ) else {
            return Ok(());
        };
        for size in &grant_ops {
            let _ = alloc.allocate_grant(*size);
            prop_assert!(alloc.cannot_access_other());
        }
        let mpu = GranularPmpE310::with_fresh_hardware(
            ticktock_repro::hw::riscv::PmpChip::SifiveE310,
        );
        alloc.configure_mpu(&mpu);
        let hw_rc = mpu.hardware();
        let hw = hw_rc.borrow();
        let (span_start, span_end) = alloc.accessible_span().unwrap();
        prop_assert!(hw
            .check(span_start, 4, AccessType::Write, Privilege::Unprivileged)
            .allowed());
        prop_assert!(!hw
            .check(span_end, 4, AccessType::Write, Privilege::Unprivileged)
            .allowed());
        prop_assert!(!hw
            .check(
                alloc.breaks.kernel_break.as_usize(),
                4,
                AccessType::Read,
                Privilege::Unprivileged
            )
            .allowed());
    }

    /// Malicious brk arguments (the BUG3 surface) can never corrupt state:
    /// either the call is rejected or the invariants still hold — and no
    /// arithmetic obligation fires.
    #[test]
    fn malicious_brk_arguments_are_harmless(
        app_size in 256usize..4000,
        brk_addr in prop::num::usize::ANY,
    ) {
        let Ok(mut alloc) = AppMemoryAllocator::<GranularCortexM>::allocate_app_memory(
            PtrU8::new(RAM),
            0x2_0000,
            0,
            app_size,
            1024,
            PtrU8::new(FLASH),
            0x1000,
        ) else {
            return Ok(());
        };
        let violations = ticktock_repro::contracts::with_mode(
            ticktock_repro::contracts::Mode::Observe,
            || {
                let _ = alloc.update_app_memory(PtrU8::new(brk_addr));
                ticktock_repro::contracts::take_violations()
            },
        );
        prop_assert!(violations.is_empty(), "obligations fired: {violations:?}");
        prop_assert!(alloc.can_access_ram());
        prop_assert!(alloc.cannot_access_other());
    }
}

#[test]
fn kernel_level_cross_process_isolation_on_both_flavors() {
    use ticktock_repro::kernel::loader::flash_many;
    use ticktock_repro::kernel::process::Flavor;
    use ticktock_repro::kernel::Kernel;
    use ticktock_repro::legacy::BugVariant;

    for flavor in [Flavor::Legacy(BugVariant::Fixed), Flavor::Granular] {
        let mut kernel = Kernel::boot(flavor, &ticktock_repro::hw::platform::NRF52840DK);
        let images = flash_many(
            &mut kernel.mem,
            0x0004_0000,
            &[
                ("a", 0x1000, 2048, 512),
                ("b", 0x1000, 3000, 768),
                ("c", 0x1000, 1024, 256),
            ],
        )
        .unwrap();
        for img in &images {
            kernel.load_process(img).unwrap();
        }
        for i in 0..3 {
            kernel.processes[i].setup_mpu();
            for j in 0..3 {
                let probe = kernel.processes[j].memory_start() + 16;
                assert_eq!(
                    kernel.user_probe(probe, AccessType::Read),
                    i == j,
                    "{flavor:?}: pid {i} probing pid {j}"
                );
            }
            // Kernel (privileged) access is never blocked while the MPU
            // serves process i.
            assert!(kernel
                .machine
                .check(
                    kernel.processes[(i + 1) % 3].memory_start(),
                    4,
                    AccessType::Write,
                    Privilege::Privileged
                )
                .allowed());
        }
    }
}

/// `allow_ro` with a length that wraps the end address past `usize::MAX`
/// must be refused, never stored: the flash-range fallback once computed
/// `addr + len` unchecked, so the sum wrapped back into the process's
/// own flash (a debug build panicked; a release build stored the
/// wrapped buffer). Checked on every chip, for both kernels, with the
/// buffer starting at the process's flash and at its RAM.
#[test]
fn wrapping_allow_ro_length_is_refused_on_every_chip() {
    use ticktock_repro::hw::platform::ALL_CHIPS;
    use ticktock_repro::kernel::loader::flash_app;
    use ticktock_repro::kernel::process::Flavor;
    use ticktock_repro::kernel::{ErrorCode, Kernel};
    use ticktock_repro::legacy::BugVariant;

    for chip in &ALL_CHIPS {
        for flavor in [Flavor::Legacy(BugVariant::Fixed), Flavor::Granular] {
            let mut kernel = Kernel::boot(flavor, chip);
            let base = chip.map.flash.start + 0x4_0000;
            let img = flash_app(&mut kernel.mem, base, "evil", 0x1000, 3000, 1024).unwrap();
            let pid = kernel.load_process(&img).unwrap();
            let flash = kernel.processes[pid].image.flash_start.as_usize();
            let ram = kernel.processes[pid].memory_start();
            for addr in [flash, ram] {
                let len = usize::MAX - addr + 0x11;
                assert_eq!(
                    kernel.sys_allow_ro(pid, addr, len),
                    Err(ErrorCode::Invalid),
                    "{} {flavor:?}: allow_ro({addr:#x}, {len:#x}) accepted",
                    chip.name
                );
                assert_eq!(kernel.processes[pid].allow_ro, None);
            }
            // The same buffer inside the process's flash is still fine.
            assert_eq!(kernel.sys_allow_ro(pid, flash, 0x10), Ok(()));
        }
    }
}
