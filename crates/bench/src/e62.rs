//! §6.2 memory usage: the grow-until-failure microbenchmark.
//!
//! "We wrote an application which incrementally grows its memory by 1 byte
//! until failure." The table reports total block size, application memory
//! (stack+data+heap), grant memory, and unused bytes for Tock, TickTock,
//! and a padded TickTock whose total matches Tock's power-of-two block.

use tt_analysis::metrics::{Report, WALL};
use tt_kernel::loader::flash_app;
use tt_kernel::process::Flavor;
use tt_kernel::Kernel;
use tt_legacy::BugVariant;

/// The app's requested RAM (stack + data + heap), as in the paper's setup.
pub const APP_RAM_REQUEST: usize = 6000;
/// The kernel's grant reservation; the paper's runs used ~1.2 KiB of grant
/// memory.
pub const GRANT_BYTES: usize = 1200;

/// Memory-footprint measurements for one kernel configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemUsage {
    /// Total bytes allocated for the process block.
    pub total: usize,
    /// Application-usable bytes at the point of failure.
    pub app: usize,
    /// Grant bytes actually allocated.
    pub grant: usize,
    /// Bytes in the block serving neither purpose.
    pub unused: usize,
}

impl MemUsage {
    /// Percentage of the block that is unused.
    pub fn unused_pct(&self) -> f64 {
        self.unused as f64 / self.total as f64 * 100.0
    }
}

/// Runs the grow-by-1-byte-until-failure app on the given kernel flavour.
///
/// `extra_reservation` implements the paper's padding configuration: extra
/// grant-side reservation that rounds TickTock's block up to Tock's
/// power-of-two total.
pub fn measure(flavor: Flavor, extra_reservation: usize) -> MemUsage {
    tt_hw::cycles::reset();
    let mut kernel = Kernel::boot(flavor, &tt_hw::platform::NRF52840DK);
    let image = flash_app(
        &mut kernel.mem,
        0x0004_0000,
        "grow",
        0x1000,
        APP_RAM_REQUEST,
        GRANT_BYTES + extra_reservation,
    )
    .unwrap();
    let pid = kernel.load_process(&image).unwrap();
    kernel.processes[pid].setup_mpu();

    // The kernel's drivers consume the grant budget as the app uses them;
    // model the paper's ~1.2 KiB of grant usage directly.
    // 8-byte-aligned chunks so alignment never eats into the budget.
    let mut granted = 0usize;
    let mut grant_id = 0usize;
    while granted + 144 <= GRANT_BYTES {
        kernel.processes[pid]
            .allocate_grant(grant_id, 144)
            .expect("grant within reservation");
        granted += 144;
        grant_id += 1;
    }

    // Grow by one byte until failure.
    while kernel.sys_sbrk(pid, 1).is_ok() {}

    let p = &kernel.processes[pid];
    let total = p.memory_size();
    let app = p.app_break() - p.memory_start();
    let memory_end = p.memory_start() + total;
    let grant = memory_end - p.kernel_break();
    MemUsage {
        total,
        app,
        grant,
        unused: total - app - grant,
    }
}

/// Runs the three configurations of the §6.2 table.
pub fn run() -> (MemUsage, MemUsage, MemUsage) {
    let tock = measure(Flavor::Legacy(BugVariant::Fixed), 0);
    let ticktock = measure(Flavor::Granular, 0);
    // Padded TickTock: round the block up to Tock's power-of-two total.
    let pad = tock.total.saturating_sub(ticktock.total);
    let padded = measure(Flavor::Granular, pad);
    (tock, ticktock, padded)
}

/// Renders the §6.2 comparison.
pub fn render(tock: &MemUsage, ticktock: &MemUsage, padded: &MemUsage) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<20} {:>8} {:>8} {:>8} {:>8} {:>9}\n",
        "Config", "Total", "App", "Grant", "Unused", "Unused%"
    ));
    for (name, m) in [
        ("Tock", tock),
        ("TickTock", ticktock),
        ("TickTock (padded)", padded),
    ] {
        out.push_str(&format!(
            "{:<20} {:>8} {:>8} {:>8} {:>8} {:>8.2}%\n",
            name,
            m.total,
            m.app,
            m.grant,
            m.unused,
            m.unused_pct()
        ));
    }
    out
}

/// The `e62` report: the three configurations' block accounting.
pub fn metrics(tock: &MemUsage, ticktock: &MemUsage, padded: &MemUsage, wall_ms: f64) -> Report {
    let mut r = Report::new("e62");
    r.info("wall_ms", WALL, "ms", wall_ms);
    let configs = [
        ("tock", tock),
        ("ticktock", ticktock),
        ("ticktock_padded", padded),
    ];
    for (config, m) in configs {
        let bytes = [
            ("total", m.total as f64),
            ("app", m.app as f64),
            ("grant", m.grant as f64),
            ("unused", m.unused as f64),
        ];
        r.infos(config, "memory", "bytes", &bytes);
        r.infos(config, "memory", "%", &[("unused_pct", m.unused_pct())]);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_adds_up() {
        let (tock, ticktock, padded) = run();
        for m in [tock, ticktock, padded] {
            assert_eq!(m.app + m.grant + m.unused, m.total, "{m:?}");
            assert!(m.grant >= GRANT_BYTES - 150 && m.grant <= GRANT_BYTES + 64);
        }
    }

    #[test]
    fn section_6_2_shape_holds() {
        let (tock, ticktock, padded) = run();
        // TickTock allocates less total memory than Tock (7,780 vs 8,192
        // in the paper) because its block is not forced to a power of two.
        assert!(
            ticktock.total < tock.total,
            "ticktock {ticktock:?} vs tock {tock:?}"
        );
        // Tock's block IS a power of two.
        assert!(tock.total.is_power_of_two(), "{tock:?}");
        // Grant usage is nearly equal (1,200 vs 1,284 in the paper).
        assert!((ticktock.grant as i64 - tock.grant as i64).unsigned_abs() < 128);
        // Padded TickTock matches Tock's total, and its unused memory is
        // within ~100 bytes of Tock's (84 in the paper).
        assert_eq!(padded.total, tock.total);
        assert!(
            (padded.unused as i64 - tock.unused as i64).unsigned_abs() <= 100,
            "padded {padded:?} vs tock {tock:?}"
        );
    }

    #[test]
    fn app_memory_is_substantial_in_both() {
        let (tock, ticktock, _) = run();
        assert!(tock.app >= APP_RAM_REQUEST);
        assert!(ticktock.app >= APP_RAM_REQUEST - 64);
    }

    #[test]
    fn render_lists_three_configs() {
        let (t, tt, p) = run();
        let table = render(&t, &tt, &p);
        assert!(table.contains("Tock"));
        assert!(table.contains("TickTock (padded)"));
    }
}
