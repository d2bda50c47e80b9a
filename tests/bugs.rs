//! End-to-end reproductions of the paper's §2.2 isolation bugs (the BUG1,
//! BUG2, BUG3 rows of DESIGN.md §3), each demonstrated both as a concrete
//! hardware-observable break and as a verifier refutation.

use ticktock_repro::contracts::domain::{alloc_param_grid, AllocParams};
use ticktock_repro::contracts::obligation::Registry;
use ticktock_repro::contracts::verifier::Verifier;
use ticktock_repro::contracts::{take_violations, with_mode, Mode};
use ticktock_repro::hw::mem::{AccessType, Privilege, ProtectionUnit};
use ticktock_repro::hw::{Permissions, PtrU8};
use ticktock_repro::legacy::{BugVariant, CortexMConfig, LegacyCortexM, LegacyMpu};

/// BUG1 (tock#4366): the Cortex-M allocator's subregion adjustment fails
/// to double `mem_size_po2`, leaving grant memory inside an enabled
/// subregion.
mod bug1 {
    use super::*;

    fn trigger() -> (LegacyCortexM, CortexMConfig, usize) {
        let mpu = LegacyCortexM::with_fresh_hardware(BugVariant::Buggy);
        let mut config = CortexMConfig::default();
        let layout = mpu.compute_alloc_layout(0x2000_0100, 0, 3590, 500);
        mpu.allocate_app_mem_region(
            PtrU8::new(0x2000_0100),
            0x4_0000,
            0,
            3590,
            500,
            Permissions::ReadWriteOnly,
            &mut config,
        )
        .unwrap();
        mpu.configure_mpu(&config);
        (mpu, config, layout.kernel_mem_break)
    }

    #[test]
    fn malicious_process_reads_and_writes_grant_memory() {
        let (mpu, _config, grant_start) = trigger();
        let hw_rc = mpu.hardware();
        let hw = hw_rc.borrow();
        // A process could read grant state (e.g. kernel bookkeeping /
        // pointers to kernel objects) and corrupt it.
        assert!(hw
            .check(grant_start, 4, AccessType::Read, Privilege::Unprivileged)
            .allowed());
        assert!(hw
            .check(grant_start, 4, AccessType::Write, Privilege::Unprivileged)
            .allowed());
    }

    #[test]
    fn verifier_refutes_the_buggy_allocator() {
        let mut registry = Registry::new();
        ticktock_repro::legacy::obligations::register_obligations(
            &mut registry,
            BugVariant::Buggy,
            1,
        );
        let report = Verifier::new().verify(&registry);
        let refuted = report.refuted();
        assert!(refuted
            .iter()
            .any(|f| f.function == "CortexM::allocate_app_mem_region"));
    }

    #[test]
    fn fix_restores_isolation_without_shrinking_the_app() {
        let buggy = LegacyCortexM::with_fresh_hardware(BugVariant::Buggy);
        let fixed = LegacyCortexM::with_fresh_hardware(BugVariant::Fixed);
        let lb = buggy.compute_alloc_layout(0x2000_0100, 0, 3590, 500);
        let lf = fixed.compute_alloc_layout(0x2000_0100, 0, 3590, 500);
        assert!(!lb.isolation_holds());
        assert!(lf.isolation_holds());
        // The fix doubles the block; the app-visible region is unchanged.
        assert_eq!(lf.mem_size_po2, lb.mem_size_po2 * 2);
        assert_eq!(lf.subregs_enabled_end, lb.subregs_enabled_end);
        // Over the verifier's density-2 grid, refused allocations too:
        // Buggy breaks isolation somewhere, Fixed nowhere.
        let holds = |mpu: &LegacyCortexM, p: &AllocParams| {
            mpu.compute_alloc_layout(p.unalloc_start, p.min_size, p.app_size, p.kernel_size)
                .isolation_holds()
        };
        let grid = alloc_param_grid(0x2000_0000, 0x4_0000, 2);
        assert!(grid.iter().any(|p| !holds(&buggy, p)));
        assert!(grid.iter().all(|p| holds(&fixed, p)));
    }
}

/// BUG2 (tock#4246): interrupt assembly missed the CPU-mode switch.
mod bug2 {
    use super::*;
    use ticktock_repro::fluxarm::cpu::{Arm7, Gpr};
    use ticktock_repro::fluxarm::exceptions::ExceptionNumber;
    use ticktock_repro::fluxarm::handlers;
    use ticktock_repro::fluxarm::switch::{cpu_state_correct, StoredState};
    use ticktock_repro::hw::AddrRange;

    fn cpu_and_state() -> (Arm7, StoredState) {
        let mut cpu = Arm7::new(
            AddrRange::new(0x2000_0000, 0x2000_1000),
            AddrRange::new(0x2000_1000, 0x2000_3000),
        );
        for (i, r) in Gpr::CALLEE_SAVED.iter().enumerate() {
            cpu.set_gpr(*r, 7 + i as u32);
        }
        let state = StoredState::new_for_process(&mut cpu, 0x4000, 0x2000_3000);
        (cpu, state)
    }

    #[test]
    fn buggy_systick_returns_kernel_unprivileged() {
        let (mut cpu, mut state) = cpu_and_state();
        let old = cpu.clone();
        with_mode(Mode::Observe, || {
            cpu.control_flow_kernel_to_kernel(
                &mut state,
                ExceptionNumber::SysTick,
                handlers::svc_handler_to_process,
                handlers::sys_tick_isr_buggy,
                1,
            );
        });
        let violations = take_violations();
        assert!(!cpu_state_correct(&cpu, &old));
        assert!(!cpu.is_privileged(), "kernel thread resumed unprivileged");
        assert!(violations
            .iter()
            .any(|v| v.site == "control_flow_kernel_to_kernel"));
    }

    #[test]
    fn buggy_svc_runs_process_privileged_bypassing_mpu() {
        let (mut cpu, state) = cpu_and_state();
        with_mode(Mode::Observe, || {
            cpu.switch_to_user_part1(&state, handlers::svc_handler_to_process_buggy);
        });
        let _ = take_violations();
        // The CPU is in thread mode at the process entry point, but still
        // privileged: with PRIVDEFENA set, the MPU no longer constrains it.
        assert_eq!(cpu.pc, 0x4000);
        assert!(cpu.is_privileged());
        let mpu = ticktock_repro::hw::cortexm::CortexMpu::new();
        let mut configured = mpu;
        configured.write_ctrl(true, true);
        assert!(
            configured
                .check(0x2000_0000, 4, AccessType::Write, Privilege::Privileged)
                .allowed(),
            "privileged code bypasses the MPU default-deny"
        );
        assert!(!configured
            .check(0x2000_0000, 4, AccessType::Write, Privilege::Unprivileged)
            .allowed());
    }

    #[test]
    fn verified_handlers_preserve_kernel_state_across_many_seeds() {
        for seed in 0..64u32 {
            let (mut cpu, mut state) = cpu_and_state();
            let old = cpu.clone();
            cpu.control_flow_kernel_to_kernel(
                &mut state,
                ExceptionNumber::SysTick,
                handlers::svc_handler_to_process,
                handlers::sys_tick_isr,
                seed,
            );
            assert!(cpu_state_correct(&cpu, &old), "seed {seed}");
        }
    }
}

/// BUG3 (§2.2): integer underflow in `update_app_mem_region` reachable
/// from an unvalidated `brk` syscall.
mod bug3 {
    use super::*;
    use ticktock_repro::kernel::loader::flash_app;
    use ticktock_repro::kernel::process::Flavor;
    use ticktock_repro::kernel::Kernel;

    #[test]
    fn malicious_brk_underflows_in_buggy_kernel() {
        let mut kernel = Kernel::boot(
            Flavor::Legacy(BugVariant::Buggy),
            &ticktock_repro::hw::platform::NRF52840DK,
        );
        let img = flash_app(&mut kernel.mem, 0x0004_0000, "evil", 0x1000, 2048, 512).unwrap();
        let pid = kernel.load_process(&img).unwrap();
        let violations = with_mode(Mode::Observe, || {
            // brk(0x1000): far below the process block — the missing
            // validation lets this reach `new_app_break - region_start`.
            let _ = kernel.sys_brk(pid, 0x1000);
            take_violations()
        });
        assert!(
            violations
                .iter()
                .any(|v| v.site == "legacy::update" && v.predicate.contains("underflows")),
            "expected the underflow obligation: {violations:?}"
        );
    }

    #[test]
    fn fixed_kernel_rejects_the_same_syscall() {
        let mut kernel = Kernel::boot(
            Flavor::Legacy(BugVariant::Fixed),
            &ticktock_repro::hw::platform::NRF52840DK,
        );
        let img = flash_app(&mut kernel.mem, 0x0004_0000, "evil", 0x1000, 2048, 512).unwrap();
        let pid = kernel.load_process(&img).unwrap();
        assert!(kernel.sys_brk(pid, 0x1000).is_err());
        assert_eq!(ticktock_repro::contracts::violation_count(), 0);
    }

    #[test]
    fn granular_kernel_rejects_by_construction() {
        let mut kernel = Kernel::boot(Flavor::Granular, &ticktock_repro::hw::platform::NRF52840DK);
        let img = flash_app(&mut kernel.mem, 0x0004_0000, "evil", 0x1000, 2048, 512).unwrap();
        let pid = kernel.load_process(&img).unwrap();
        for bad in [0usize, 0x1000, usize::MAX, usize::MAX / 2] {
            assert!(kernel.sys_brk(pid, bad).is_err(), "brk({bad:#x}) accepted");
        }
        assert_eq!(ticktock_repro::contracts::violation_count(), 0);
    }
}

/// The RISC-V comparison-bug class (tock#2173).
mod pmp_bug {
    use super::*;
    use ticktock_repro::hw::riscv::PmpChip;
    use ticktock_repro::legacy::{LegacyRiscv, PmpConfig};

    #[test]
    fn buggy_pmp_update_exposes_grant_after_brk() {
        let mpu = LegacyRiscv::with_fresh_hardware(BugVariant::Buggy, PmpChip::SifiveE310);
        let mut config = PmpConfig::default();
        let (start, total) = mpu
            .allocate_app_mem_region(
                PtrU8::new(0x8000_0000),
                0x4000,
                0,
                2048,
                512,
                Permissions::ReadWriteOnly,
                &mut config,
            )
            .unwrap();
        let kernel_break = PtrU8::new(start.as_usize() + total - 512);
        mpu.update_app_mem_region(
            kernel_break.offset(4),
            kernel_break,
            Permissions::ReadWriteOnly,
            &mut config,
        )
        .unwrap();
        mpu.configure_mpu(&config);
        let hw_rc = mpu.hardware();
        let hw = hw_rc.borrow();
        // The buggy comparison admits the break past the kernel break, so
        // the bytes at the top of the (supposed) grant boundary are user-
        // writable.
        assert!(hw
            .check(
                kernel_break.as_usize(),
                4,
                AccessType::Write,
                Privilege::Unprivileged
            )
            .allowed());
    }
}
