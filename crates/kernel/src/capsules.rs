//! Capsules: the cooperative drivers layered over the core kernel.
//!
//! In Tock, capsules are untrusted-but-safe Rust components (Fig. 1). The
//! simulator provides the capsules the release tests exercise: console,
//! LEDs, alarm (with grant-backed per-process state), sensors, ADC, and a
//! DMA-backed transfer driver built on [`ticktock::dma::DmaCell`].

use ticktock::dma::{DmaBuffer, DmaCell, SimDmaEngine};
use tt_hw::mem::PhysicalMemory;

/// Driver numbers, as apps address them in `command` syscalls.
pub mod driver {
    /// Console driver.
    pub const CONSOLE: usize = 0;
    /// LED driver.
    pub const LED: usize = 1;
    /// Alarm driver.
    pub const ALARM: usize = 2;
    /// Ambient sensor driver (cycle-derived readings).
    pub const SENSOR: usize = 3;
    /// ADC driver (cycle-derived readings).
    pub const ADC: usize = 4;
    /// Temperature driver (fixed calibrated reading).
    pub const TEMPERATURE: usize = 5;
    /// DMA transfer driver.
    pub const DMA: usize = 6;
    /// Inter-process communication driver.
    pub const IPC: usize = 7;
}

/// A pending alarm: fires for `pid` at `tick` with `value`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingAlarm {
    /// Target process.
    pub pid: usize,
    /// Kernel tick at which to fire.
    pub tick: u64,
    /// Upcall payload.
    pub value: u32,
}

/// The LED bank state.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Leds {
    states: [bool; 4],
    /// Toggle count, reported back to apps.
    pub toggles: u32,
}

impl Leds {
    /// Toggles LED `n`, returning its new state.
    pub fn toggle(&mut self, n: usize) -> bool {
        let n = n % 4;
        self.states[n] = !self.states[n];
        self.toggles += 1;
        self.states[n]
    }

    /// Reads LED `n`.
    pub fn get(&self, n: usize) -> bool {
        self.states[n % 4]
    }
}

/// The capsule set owned by a kernel instance.
pub struct Capsules {
    /// LED bank.
    pub leds: Leds,
    /// Pending alarms.
    pub alarms: Vec<PendingAlarm>,
    /// Console input queue per process (pid, bytes).
    pub console_input: Vec<(usize, Vec<u8>)>,
    /// The DMA cell guarding the transfer buffer.
    pub dma_cell: DmaCell,
    /// The simulated DMA engine.
    pub dma_engine: SimDmaEngine,
}

impl std::fmt::Debug for Capsules {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Capsules")
            .field("alarms", &self.alarms)
            .finish_non_exhaustive()
    }
}

impl Default for Capsules {
    fn default() -> Self {
        Self::new()
    }
}

impl Capsules {
    /// Creates the capsule set.
    pub fn new() -> Self {
        Self {
            leds: Leds::default(),
            alarms: Vec::new(),
            console_input: Vec::new(),
            dma_cell: DmaCell::new(),
            dma_engine: SimDmaEngine::new(),
        }
    }

    /// Rewinds the capsules to a checkpoint's state, written into the
    /// live buffers: the LEDs, the pending alarms and the console input
    /// as captured, the DMA cell and engine at boot state (a checkpoint
    /// holds no transfer in flight).
    pub(crate) fn restore(
        &mut self,
        leds: &Leds,
        alarms: &[PendingAlarm],
        console_input: &[(usize, Vec<u8>)],
    ) {
        self.leds.clone_from(leds);
        self.alarms.clear();
        self.alarms.extend_from_slice(alarms);
        self.console_input.clear();
        self.console_input.extend_from_slice(console_input);
        self.dma_cell = DmaCell::new();
        self.dma_engine = SimDmaEngine::new();
    }

    /// Sets an alarm for `pid`, `delta` ticks from `now`.
    pub fn set_alarm(&mut self, pid: usize, now: u64, delta: u32, value: u32) {
        self.alarms.push(PendingAlarm {
            pid,
            tick: now + delta as u64,
            value,
        });
    }

    /// Pops every alarm due at `now`, returning (pid, value) pairs.
    pub fn fire_due_alarms(&mut self, now: u64) -> Vec<(usize, u32)> {
        let mut fired = Vec::new();
        self.alarms.retain(|a| {
            if a.tick <= now {
                fired.push((a.pid, a.value));
                false
            } else {
                true
            }
        });
        fired
    }

    /// A sensor reading: depends on the current cycle count, so readings
    /// differ between kernel flavours (the §6.1 "reading and printing data
    /// from sensors" category of expected differences).
    pub fn sensor_read(&self) -> u32 {
        (tt_hw::cycles::sample() % 997) as u32
    }

    /// An ADC sample: also cycle-derived.
    pub fn adc_sample(&self, channel: u32) -> u32 {
        ((tt_hw::cycles::sample() >> 2) as u32)
            .wrapping_mul(31)
            .wrapping_add(channel)
            % 4096
    }

    /// The temperature sensor returns a calibrated constant (deterministic
    /// across kernel flavours).
    pub fn temperature_read(&self) -> u32 {
        2250 // Centi-degrees: 22.50 °C.
    }

    /// Queues console input for a process.
    pub fn queue_console_input(&mut self, pid: usize, bytes: &[u8]) {
        self.console_input.push((pid, bytes.to_vec()));
    }

    /// Takes queued console input for a process, if any.
    pub fn take_console_input(&mut self, pid: usize) -> Option<Vec<u8>> {
        let idx = self.console_input.iter().position(|(p, _)| *p == pid)?;
        Some(self.console_input.remove(idx).1)
    }

    /// Starts a DMA transfer of `data` into the buffer at `[addr, addr+len)`
    /// through the safe `DmaCell` path; completes it synchronously against
    /// `mem` (the simulated engine is instantaneous).
    pub fn dma_transfer(
        &mut self,
        mem: &mut PhysicalMemory,
        addr: usize,
        data: &[u8],
    ) -> Result<usize, &'static str> {
        let wrapper = self
            .dma_cell
            .place(DmaBuffer::new(addr, data.len()))
            .ok_or("dma busy")?;
        self.dma_engine
            .start(wrapper, data.to_vec())
            .map_err(|_| "dma start failed")?;
        let written = self.dma_engine.complete(mem).map_err(|_| "dma fault")?;
        self.dma_cell.operation_finished();
        let _buf = self.dma_cell.completed();
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_hw::platform::NRF52840DK;

    #[test]
    fn leds_toggle_and_count() {
        let mut leds = Leds::default();
        assert!(leds.toggle(0));
        assert!(!leds.toggle(0));
        assert!(leds.toggle(1));
        assert_eq!(leds.toggles, 3);
        assert!(leds.get(1));
        assert!(!leds.get(0));
    }

    #[test]
    fn alarms_fire_in_order_and_only_when_due() {
        let mut c = Capsules::new();
        c.set_alarm(1, 10, 5, 0xA);
        c.set_alarm(2, 10, 2, 0xB);
        assert!(c.fire_due_alarms(11).is_empty());
        let fired = c.fire_due_alarms(12);
        assert_eq!(fired, vec![(2, 0xB)]);
        let fired = c.fire_due_alarms(20);
        assert_eq!(fired, vec![(1, 0xA)]);
        assert!(c.alarms.is_empty());
    }

    #[test]
    fn sensor_reading_tracks_cycle_counter() {
        let c = Capsules::new();
        tt_hw::cycles::reset();
        let samples = tt_hw::cycles::samples();
        let r1 = c.sensor_read();
        tt_hw::cycles::charge_n(tt_hw::cycles::Cost::Alu, 123);
        let r2 = c.sensor_read();
        assert_ne!(r1, r2);
        assert_eq!(c.temperature_read(), 2250);
        let _ = c.adc_sample(1);
        // The two sensor reads and the ADC sample are cycle reads; the
        // calibrated temperature is not.
        assert_eq!(tt_hw::cycles::samples() - samples, 3);
    }

    #[test]
    fn console_input_queue_per_pid() {
        let mut c = Capsules::new();
        c.queue_console_input(3, b"hi");
        assert_eq!(c.take_console_input(2), None);
        assert_eq!(c.take_console_input(3), Some(b"hi".to_vec()));
        assert_eq!(c.take_console_input(3), None);
    }

    #[test]
    fn dma_transfer_writes_through_safe_path() {
        let mut c = Capsules::new();
        let mut mem = NRF52840DK.memory();
        let n = c
            .dma_transfer(&mut mem, 0x2000_0100, &[5, 6, 7, 8])
            .unwrap();
        assert_eq!(n, 4);
        assert_eq!(mem.read_u32(0x2000_0100).unwrap(), 0x0807_0605);
        // The cell is free again afterwards.
        assert!(!c.dma_cell.busy());
        let n2 = c.dma_transfer(&mut mem, 0x2000_0200, &[1]).unwrap();
        assert_eq!(n2, 1);
    }
}
