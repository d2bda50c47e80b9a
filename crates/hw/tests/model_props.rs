//! Property tests pinning the protection-hardware models against
//! independent reference semantics.
//!
//! The hardware models are this reproduction's trusted base (the analogue
//! of silicon), so they get the heaviest scrutiny: for random
//! configurations, the optimized `check` path must agree with a naive
//! reference evaluator derived directly from the manuals' prose.

use proptest::prelude::*;
use tt_hw::cortexm::mpu::{size_to_rasr_field, RegionAttributes};
use tt_hw::cortexm::CortexMpu;
use tt_hw::mem::{AccessType, Privilege, ProtectionUnit};
use tt_hw::riscv::pmp::{napot_addr, AddressMode, PMP_L, PMP_R, PMP_W, PMP_X};
use tt_hw::riscv::{PmpChip, RiscvPmp};

/// Naive reference for one Cortex-M region: byte-level match + permission,
/// written straight from the ARMv7-M manual's description.
fn arm_region_allows(
    base: usize,
    size: usize,
    srd: u32,
    ap: u32,
    xn: u32,
    addr: usize,
    access: AccessType,
) -> Option<bool> {
    let effective_base = base & !(size - 1);
    if addr < effective_base || addr >= effective_base + size {
        return None;
    }
    if size >= 256 {
        let sub = (addr - effective_base) / (size / 8);
        if srd & (1 << sub) != 0 {
            return None; // Disabled subregion: no match.
        }
    }
    let (read, write) = match ap {
        0b011 => (true, true),
        0b010 | 0b110 | 0b111 => (true, false),
        _ => (false, false),
    };
    Some(match access {
        AccessType::Read => read,
        AccessType::Write => write,
        AccessType::Execute => read && xn == 0,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A single enabled region: the model's unprivileged byte decisions
    /// equal the reference at every probed offset.
    #[test]
    fn cortexm_single_region_matches_reference(
        size_exp in 5u32..16,
        base_mult in 0usize..64,
        srd in 0u32..256,
        ap in prop::sample::select(vec![0b000u32, 0b001, 0b010, 0b011, 0b101, 0b110, 0b111]),
        xn in 0u32..2,
        probe_off in 0usize..0x2_0000,
        access in prop::sample::select(vec![AccessType::Read, AccessType::Write, AccessType::Execute]),
    ) {
        let size = 1usize << size_exp;
        let base = 0x2000_0000 + base_mult * size;
        let mut mpu = CortexMpu::new();
        mpu.write_ctrl(true, true);
        let rasr = (RegionAttributes::ENABLE.val(1)
            + RegionAttributes::SIZE.val(size_to_rasr_field(size))
            + RegionAttributes::SRD.val(srd)
            + RegionAttributes::AP.val(ap)
            + RegionAttributes::XN.val(xn))
        .value();
        mpu.write_region(0, base as u32, rasr);

        let addr = 0x2000_0000 + probe_off;
        // No match → unprivileged default-deny.
        let expected = arm_region_allows(base, size, if size >= 256 { srd } else { 0 }, ap, xn, addr, access)
            .unwrap_or_default();
        let got = mpu
            .check(addr, 1, access, Privilege::Unprivileged)
            .allowed();
        prop_assert_eq!(got, expected, "addr {:#x} size {} srd {:#x} ap {:03b}", addr, size, srd, ap);
    }

    /// Privileged accesses with PRIVDEFENA fall back to the default map
    /// whenever no region matches.
    #[test]
    fn cortexm_privdefena_default_map(
        probe in 0usize..0xFFFF_FFFF,
        access in prop::sample::select(vec![AccessType::Read, AccessType::Write, AccessType::Execute]),
    ) {
        let mut mpu = CortexMpu::new();
        mpu.write_ctrl(true, true);
        prop_assert!(mpu.check(probe, 1, access, Privilege::Privileged).allowed());
        prop_assert!(!mpu.check(probe, 1, access, Privilege::Unprivileged).allowed());
    }

    /// PMP: a NAPOT entry admits exactly its power-of-two block.
    #[test]
    fn pmp_napot_matches_block_exactly(
        size_exp in 3u32..16,
        base_mult in 0usize..64,
        bits in 0u8..8,
        probe_off in 0usize..0x2_0000,
    ) {
        let size = 1usize << size_exp;
        let base = 0x8000_0000 + base_mult * size;
        let cfg = (bits & (PMP_R | PMP_W | PMP_X)) | (AddressMode::Napot.encode() << 3);
        let mut pmp = RiscvPmp::new(PmpChip::Esp32C3);
        pmp.write_addr(0, napot_addr(base, size));
        pmp.write_cfg(0, cfg);

        let addr = 0x8000_0000 + probe_off;
        let inside = addr >= base && addr < base + size;
        for (access, bit) in [
            (AccessType::Read, PMP_R),
            (AccessType::Write, PMP_W),
            (AccessType::Execute, PMP_X),
        ] {
            let expected = inside && (cfg & bit != 0);
            let got = pmp.check(addr, 1, access, Privilege::Unprivileged).allowed();
            prop_assert_eq!(got, expected, "addr {:#x} base {:#x} size {} cfg {:#x}", addr, base, size, cfg);
        }
    }

    /// PMP: TOR pairs admit exactly `[lo, hi)`.
    #[test]
    fn pmp_tor_matches_range_exactly(
        lo_q in 0usize..0x4000,
        len_q in 1usize..0x4000,
        probe_q in 0usize..0x10000,
    ) {
        let lo = 0x8000_0000 + lo_q * 4;
        let hi = lo + len_q * 4;
        let mut pmp = RiscvPmp::new(PmpChip::SifiveE310);
        pmp.write_addr(0, (lo >> 2) as u32);
        pmp.write_cfg(0, 0);
        pmp.write_addr(1, (hi >> 2) as u32);
        pmp.write_cfg(1, PMP_R | PMP_W | (AddressMode::Tor.encode() << 3));

        let addr = 0x8000_0000 + probe_q * 4;
        let expected = addr >= lo && addr < hi;
        prop_assert_eq!(
            pmp.check(addr, 1, AccessType::Read, Privilege::Unprivileged).allowed(),
            expected
        );
        // Machine mode is unconstrained by unlocked entries.
        prop_assert!(pmp.check(addr, 1, AccessType::Write, Privilege::Privileged).allowed());
    }

    /// Multi-byte accesses are allowed iff every byte is allowed.
    #[test]
    fn multibyte_equals_conjunction_of_bytes(
        start_off in 0usize..2048,
        len in 1usize..16,
    ) {
        let mut mpu = CortexMpu::new();
        mpu.write_ctrl(true, true);
        let rasr = (RegionAttributes::ENABLE.val(1)
            + RegionAttributes::SIZE.val(size_to_rasr_field(1024))
            + RegionAttributes::AP.val(0b011)
            + RegionAttributes::XN.val(1))
        .value();
        mpu.write_region(0, 0x2000_0000, rasr);
        let addr = 0x2000_0000 + start_off;
        let whole = mpu.check(addr, len, AccessType::Write, Privilege::Unprivileged).allowed();
        let bytes = (0..len).all(|i| {
            mpu.check(addr + i, 1, AccessType::Write, Privilege::Unprivileged).allowed()
        });
        prop_assert_eq!(whole, bytes);
    }

    /// The register file's lock flag equals "some entry has `L`" after
    /// any sequence of cfg writes, addr writes and clears, and is
    /// carried by `clone` and `clone_from`.
    #[test]
    fn any_locked_is_exact(
        chip in 0usize..3,
        ops in prop::collection::vec(any::<u32>(), 0..40),
        other in prop::collection::vec(any::<u32>(), 0..40),
    ) {
        let chip = PmpChip::ALL[chip];
        let run = |ops: &[u32]| {
            let mut pmp = RiscvPmp::new(chip);
            let n = chip.entries();
            for &w in ops {
                let index = (w >> 2) as usize % (n + 1);
                match w % 4 {
                    0 => pmp.clear(),
                    1 => pmp.write_addr(index, w >> 8),
                    // One cfg write in four may carry `L`.
                    2 if (w >> 30) == 0 => pmp.write_cfg(index, (w >> 8) as u8 | PMP_L),
                    _ => pmp.write_cfg(index, (w >> 8) as u8 & !PMP_L),
                }
            }
            pmp
        };
        let locked = |pmp: &RiscvPmp| (0..chip.entries()).any(|i| pmp.entry(i).locked());
        let src = run(&ops);
        prop_assert_eq!(src.any_locked(), locked(&src));
        prop_assert_eq!(src.clone().any_locked(), locked(&src));
        let mut dst = run(&other);
        prop_assert_eq!(dst.any_locked(), locked(&dst));
        dst.clone_from(&src);
        prop_assert_eq!(dst.any_locked(), locked(&src));
        prop_assert_eq!(dst, src);
    }
}
