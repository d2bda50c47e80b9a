//! Cross-chip integration: the same kernel code on all four chip profiles
//! (NRF52840dk, HiFive1, ESP32-C3, Earl Grey) in both flavours — the
//! paper's "across all ARMv7-M architectures Tock supports, along with
//! three RISC-V 32 bit chips".

use ticktock_repro::hw::mem::AccessType;
use ticktock_repro::hw::platform::{ALL_CHIPS, EARLGREY, ESP32_C3, HIFIVE1};
use ticktock_repro::kernel::differential::{app_flash_base, run_release_suite};
use ticktock_repro::kernel::loader::flash_many;
use ticktock_repro::kernel::pool::default_threads;
use ticktock_repro::kernel::process::Flavor;
use ticktock_repro::kernel::{Kernel, ProcessState};
use ticktock_repro::legacy::BugVariant;

fn flavors() -> [Flavor; 2] {
    [Flavor::Legacy(BugVariant::Fixed), Flavor::Granular]
}

#[test]
fn multi_process_isolation_on_every_chip() {
    for chip in &ALL_CHIPS {
        for flavor in flavors() {
            let mut kernel = Kernel::boot(flavor, chip);
            let images = flash_many(
                &mut kernel.mem,
                app_flash_base(chip),
                &[
                    ("a", 0x1000, 2048, 512),
                    ("b", 0x1000, 1536, 384),
                    ("c", 0x1000, 1024, 256),
                ],
            )
            .unwrap();
            for img in &images {
                let pid = kernel.load_process(img).unwrap();
                // Materialize a grant so each process's grant region is
                // non-empty before probing it.
                kernel.processes[pid].allocate_grant(0, 64).unwrap();
            }
            for i in 0..3 {
                kernel.processes[i].setup_mpu();
                for j in 0..3 {
                    let probe = kernel.processes[j].memory_start() + 16;
                    assert_eq!(
                        kernel.user_probe(probe, AccessType::Read),
                        i == j,
                        "{} {flavor:?}: pid {i} probing pid {j}",
                        chip.name
                    );
                }
                // Grant regions of every process are unreachable.
                for j in 0..3 {
                    let grant = kernel.processes[j].kernel_break();
                    assert!(
                        !kernel.user_probe(grant, AccessType::Write),
                        "{} {flavor:?}: grant of pid {j} writable under pid {i}",
                        chip.name
                    );
                }
            }
        }
    }
}

#[test]
fn hifive1_fits_one_process_in_16k_ram() {
    // The smallest chip: one app per kernel instance, as Tock deployments
    // on the HiFive1 actually run.
    for flavor in flavors() {
        let mut kernel = Kernel::boot(flavor, &HIFIVE1);
        let images = flash_many(
            &mut kernel.mem,
            app_flash_base(&HIFIVE1),
            &[("solo", 0x1000, 4096, 1024)],
        )
        .unwrap();
        let pid = kernel.load_process(&images[0]).unwrap();
        kernel.processes[pid].setup_mpu();
        let ms = kernel.processes[pid].memory_start();
        kernel.user_write_u32(pid, ms + 64, 0x5AFE).unwrap();
        assert_eq!(kernel.user_read_u32(pid, ms + 64).unwrap(), 0x5AFE);
        assert!(kernel.processes[pid].memory_size() <= HIFIVE1.map.ram.len());
    }
}

#[test]
fn release_suite_shape_on_riscv_chips() {
    // §6.1's QEMU leg: 21 tests, the same 5 expected differences.
    for chip in [ESP32_C3, EARLGREY] {
        let (_, results) = run_release_suite(&[chip], default_threads()).remove(0);
        let differing = results.iter().filter(|r| !r.matches()).count();
        assert_eq!(differing, 5, "{}: wrong diff count", chip.name);
        for r in &results {
            assert_eq!(
                !r.matches(),
                r.expect_differs,
                "{} on {}",
                r.name,
                chip.name
            );
        }
    }
}

#[test]
fn faulting_behaviour_is_architecture_independent() {
    for chip in &ALL_CHIPS {
        for flavor in flavors() {
            let mut kernel = Kernel::boot(flavor, chip);
            let images = flash_many(
                &mut kernel.mem,
                app_flash_base(chip),
                &[("f", 0x1000, 2048, 512)],
            )
            .unwrap();
            let pid = kernel.load_process(&images[0]).unwrap();
            kernel.processes[pid].setup_mpu();
            // A wild read faults the process on every chip and flavour.
            assert!(kernel.user_read_u32(pid, 0xE000_0000).is_err());
            assert!(
                matches!(kernel.processes[pid].state, ProcessState::Faulted(_)),
                "{} {flavor:?}",
                chip.name
            );
        }
    }
}

#[test]
fn ram_accounting_never_exceeds_the_chip() {
    // Load processes until the pool refuses; the cursor must never pass
    // the chip's RAM end and every block stays inside RAM.
    for chip in &ALL_CHIPS {
        for flavor in flavors() {
            let mut kernel = Kernel::boot(flavor, chip);
            let mut specs = Vec::new();
            for i in 0..16 {
                specs.push((
                    match i % 4 {
                        0 => "p0",
                        1 => "p1",
                        2 => "p2",
                        _ => "p3",
                    },
                    0x1000usize,
                    1024usize,
                    256usize,
                ));
            }
            let images = flash_many(&mut kernel.mem, app_flash_base(chip), &specs).unwrap();
            let mut loaded = 0;
            for img in &images {
                if kernel.load_process(img).is_err() {
                    break;
                }
                loaded += 1;
            }
            assert!(loaded >= 2, "{}: too few processes fit", chip.name);
            for p in &kernel.processes {
                assert!(p.memory_start() >= chip.map.ram.start);
                assert!(
                    p.memory_start() + p.memory_size() <= chip.map.ram.end,
                    "{} {flavor:?}: block of pid {} leaves RAM",
                    chip.name,
                    p.pid
                );
            }
        }
    }
}
