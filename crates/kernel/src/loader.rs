//! Process loading from flash: a TBF-like application image format.
//!
//! Tock loads processes from flash images carrying a Tock Binary Format
//! header (total size, entry point, minimum RAM). The simulator keeps the
//! same structure: images are programmed into the chip's flash and parsed
//! back at boot, and the flash region handed to the MPU is derived from
//! the image placement.

use tt_hw::mem::PhysicalMemory;
use tt_hw::PtrU8;

/// Magic number marking a valid app header (Tock uses TBF version tags).
pub const TBF_MAGIC: u32 = 0x5449_434B; // "TICK"

/// Parsed application header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppImage {
    /// App name (up to 16 bytes in the header).
    pub name: String,
    /// Flash address of the header.
    pub flash_start: PtrU8,
    /// Total flash footprint (header + code), a power of two for the
    /// Cortex-M flash region.
    pub flash_size: usize,
    /// Entry point offset from `flash_start`.
    pub entry_offset: usize,
    /// Minimum RAM the app requests for stack + data + heap.
    pub min_ram_size: usize,
    /// Grant-region reservation the kernel makes for this app.
    pub kernel_reserved: usize,
}

impl AppImage {
    /// The entry point address.
    pub fn entry_point(&self) -> PtrU8 {
        self.flash_start.offset(self.entry_offset)
    }
}

/// Header layout: magic(4) name_len(4) name(16) flash_size(4)
/// entry_offset(4) min_ram(4) kernel_reserved(4) = 40 bytes.
pub const HEADER_BYTES: usize = 40;

/// Errors from image handling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadError {
    /// The header magic is wrong or the header is truncated.
    BadHeader,
    /// The image does not fit at the requested flash address.
    DoesNotFit,
    /// The declared size is not a power of two, is misaligned (the
    /// Cortex-M flash region constraint) or cannot hold the header.
    BadGeometry,
    /// The entry point lies outside the image.
    BadEntry,
}

/// Serializes and programs an app image into flash; returns the parsed
/// [`AppImage`] as the loader would see it at boot.
pub fn flash_app(
    mem: &mut PhysicalMemory,
    flash_start: usize,
    name: &str,
    flash_size: usize,
    min_ram_size: usize,
    kernel_reserved: usize,
) -> Result<AppImage, LoadError> {
    if !tt_contracts::math::is_pow2(flash_size)
        || flash_size < HEADER_BYTES.next_power_of_two()
        || !flash_start.is_multiple_of(flash_size)
    {
        return Err(LoadError::BadGeometry);
    }
    let mut header = Vec::with_capacity(HEADER_BYTES);
    header.extend_from_slice(&TBF_MAGIC.to_le_bytes());
    let name_bytes = name.as_bytes();
    let name_len = name_bytes.len().min(16);
    header.extend_from_slice(&(name_len as u32).to_le_bytes());
    let mut name_field = [0u8; 16];
    name_field[..name_len].copy_from_slice(&name_bytes[..name_len]);
    header.extend_from_slice(&name_field);
    header.extend_from_slice(&(flash_size as u32).to_le_bytes());
    header.extend_from_slice(&(HEADER_BYTES as u32).to_le_bytes()); // Entry after header.
    header.extend_from_slice(&(min_ram_size as u32).to_le_bytes());
    header.extend_from_slice(&(kernel_reserved as u32).to_le_bytes());
    debug_assert_eq!(header.len(), HEADER_BYTES);
    mem.program_flash(flash_start, &header)
        .map_err(|_| LoadError::DoesNotFit)?;
    parse_app(mem, flash_start)
}

/// Parses an app header out of flash. Total over whatever bytes sit at
/// `flash_start`: every rejection is a [`LoadError`] — a wrong magic or
/// unreadable header, a size that is not a power of two, misaligned or
/// smaller than the header, an image running past the end of flash, or
/// an entry point outside the image.
pub fn parse_app(mem: &PhysicalMemory, flash_start: usize) -> Result<AppImage, LoadError> {
    let magic = mem
        .read_u32(flash_start)
        .map_err(|_| LoadError::BadHeader)?;
    if magic != TBF_MAGIC {
        return Err(LoadError::BadHeader);
    }
    let read = |off: usize| {
        mem.read_u32(flash_start + off)
            .map_err(|_| LoadError::BadHeader)
    };
    let name_len = read(4)? as usize;
    let mut name_bytes = [0u8; 16];
    mem.read_bytes(flash_start + 8, &mut name_bytes)
        .map_err(|_| LoadError::BadHeader)?;
    let name = String::from_utf8_lossy(&name_bytes[..name_len.min(16)]).into_owned();
    let flash_size = read(24)? as usize;
    let entry_offset = read(28)? as usize;
    let min_ram_size = read(32)? as usize;
    let kernel_reserved = read(36)? as usize;
    if !tt_contracts::math::is_pow2(flash_size)
        || flash_size < HEADER_BYTES
        || !flash_start.is_multiple_of(flash_size)
    {
        return Err(LoadError::BadGeometry);
    }
    let flash_end = mem.map().flash.end;
    if flash_start
        .checked_add(flash_size)
        .is_none_or(|end| end > flash_end)
    {
        return Err(LoadError::DoesNotFit);
    }
    if entry_offset >= flash_size {
        return Err(LoadError::BadEntry);
    }
    Ok(AppImage {
        name,
        flash_start: PtrU8::new(flash_start),
        flash_size,
        entry_offset,
        min_ram_size,
        kernel_reserved,
    })
}

/// Lays out several images back to back in flash, each aligned to its own
/// (power-of-two) size, starting at `base`.
pub fn flash_many(
    mem: &mut PhysicalMemory,
    base: usize,
    specs: &[(&str, usize, usize, usize)], // (name, flash_size, min_ram, kernel_reserved)
) -> Result<Vec<AppImage>, LoadError> {
    let mut at = base;
    let mut out = Vec::with_capacity(specs.len());
    for (name, flash_size, min_ram, kernel_reserved) in specs {
        at = tt_contracts::math::align_up(at, *flash_size);
        out.push(flash_app(
            mem,
            at,
            name,
            *flash_size,
            *min_ram,
            *kernel_reserved,
        )?);
        at += flash_size;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::ProcessError;
    use crate::{Flavor, Kernel};
    use proptest::prelude::*;
    use tt_hw::platform::{ALL_CHIPS, NRF52840DK};
    use tt_legacy::BugVariant;

    /// Both kernels an app header can be loaded by.
    const FLAVORS: [Flavor; 2] = [Flavor::Granular, Flavor::Legacy(BugVariant::Fixed)];

    #[test]
    fn flash_and_parse_roundtrip() {
        let mut mem = NRF52840DK.memory();
        let img = flash_app(&mut mem, 0x0004_0000, "c_hello", 0x1000, 2048, 512).unwrap();
        assert_eq!(img.name, "c_hello");
        assert_eq!(img.flash_size, 0x1000);
        assert_eq!(img.min_ram_size, 2048);
        assert_eq!(img.kernel_reserved, 512);
        assert_eq!(img.entry_point().as_usize(), 0x0004_0000 + HEADER_BYTES);
        let reparsed = parse_app(&mem, 0x0004_0000).unwrap();
        assert_eq!(reparsed, img);
    }

    #[test]
    fn bad_magic_rejected() {
        let mem = NRF52840DK.memory();
        assert_eq!(parse_app(&mem, 0x0004_0000), Err(LoadError::BadHeader));
    }

    #[test]
    fn headers_the_image_cannot_hold_are_rejected() {
        let mut mem = NRF52840DK.memory();
        let slot = 0x0004_0000;
        flash_app(&mut mem, slot, "x", 0x1000, 1024, 256).unwrap();
        let field = |mem: &mut tt_hw::mem::PhysicalMemory, off: usize, v: u32| {
            mem.program_flash(slot + off, &v.to_le_bytes()).unwrap();
        };
        // An entry point at or past the image's end.
        field(&mut mem, 28, 0x1000);
        assert_eq!(parse_app(&mem, slot), Err(LoadError::BadEntry));
        field(&mut mem, 28, 0xFFF);
        assert!(parse_app(&mem, slot).is_ok());
        // A size too small for the header itself.
        field(&mut mem, 24, 32);
        assert_eq!(parse_app(&mem, slot), Err(LoadError::BadGeometry));
        // An image running past the end of flash: at the flash base, any
        // power-of-two size is aligned.
        let (base, end) = (NRF52840DK.map.flash.start, NRF52840DK.map.flash.end);
        flash_app(&mut mem, base, "x", 0x1000, 1024, 256).unwrap();
        let past = (end - base).next_power_of_two() * 2;
        mem.program_flash(base + 24, &(past as u32).to_le_bytes())
            .unwrap();
        assert_eq!(parse_app(&mem, base), Err(LoadError::DoesNotFit));
    }

    #[test]
    fn geometry_validation() {
        let mut mem = NRF52840DK.memory();
        assert_eq!(
            flash_app(&mut mem, 0x0004_0000, "x", 0x1100, 1024, 256),
            Err(LoadError::BadGeometry)
        );
        assert_eq!(
            flash_app(&mut mem, 0x0004_0100, "x", 0x1000, 1024, 256),
            Err(LoadError::BadGeometry)
        );
    }

    #[test]
    fn long_names_truncate_to_16_bytes() {
        let mut mem = NRF52840DK.memory();
        let img = flash_app(
            &mut mem,
            0x0004_0000,
            "a_very_long_application_name",
            0x1000,
            1024,
            256,
        )
        .unwrap();
        assert_eq!(img.name.len(), 16);
    }

    #[test]
    fn flash_many_aligns_each_image() {
        let mut mem = NRF52840DK.memory();
        let imgs = flash_many(
            &mut mem,
            0x0004_0000,
            &[
                ("one", 0x1000, 1024, 256),
                ("two", 0x2000, 2048, 256),
                ("three", 0x1000, 1024, 256),
            ],
        )
        .unwrap();
        assert_eq!(imgs[0].flash_start.as_usize(), 0x0004_0000);
        assert_eq!(imgs[1].flash_start.as_usize(), 0x0004_2000); // 0x2000-aligned.
        assert_eq!(imgs[2].flash_start.as_usize(), 0x0004_4000);
        for img in &imgs {
            assert_eq!(img.flash_start.as_usize() % img.flash_size, 0);
        }
    }

    #[test]
    fn image_overflowing_flash_rejected() {
        let mut mem = NRF52840DK.memory();
        let end = NRF52840DK.map.flash.end;
        let aligned = end - 0x1000 + 0x1000; // One past the last aligned slot.
        assert_eq!(
            flash_app(&mut mem, aligned, "x", 0x1000, 1024, 256),
            Err(LoadError::DoesNotFit)
        );
    }

    #[test]
    fn a_ram_request_above_2_gib_is_refused_by_both_kernels() {
        // min_ram 0x40 with 0xca3bcbaf reserved bytes: the sum is above
        // 2^31, where rounding up to a power of two in 32 bits has no
        // answer, so both kernels must refuse it before rounding.
        for chip in &ALL_CHIPS {
            for flavor in FLAVORS {
                let mut k = Kernel::boot(flavor, chip);
                let slot = chip.map.flash.start + 0x4_0000;
                let image = flash_app(&mut k.mem, slot, "big", 0x1000, 0x40, 0xca3b_cbaf).unwrap();
                assert_eq!(parse_app(&k.mem, slot), Ok(image.clone()));
                assert_eq!(
                    k.load_process(&image).err(),
                    Some(ProcessError::NoMemory),
                    "{} {flavor:?}",
                    chip.name
                );
            }
        }
    }

    /// A header word: a quarter of the time an arbitrary `u32`, otherwise
    /// a power of two or a small value, so most cases reach past the
    /// geometry checks into the loader.
    fn word(k: u64) -> u32 {
        match k % 4 {
            0 => (k >> 8) as u32,
            1 => 1 << ((k >> 8) % 32),
            2 => 1 << (6 + (k >> 8) % 13),
            _ => ((k >> 8) % 0x4000) as u32,
        }
    }

    proptest! {
        #[test]
        fn arbitrary_headers_at_an_app_slot_never_panic_the_loader(
            magic in 0u8..4,
            words in proptest::collection::vec(any::<u64>(), 6..7),
            name in proptest::collection::vec(any::<u8>(), 16..17),
        ) {
            let mut header = Vec::with_capacity(HEADER_BYTES);
            let first = if magic > 0 { TBF_MAGIC } else { word(words[0]) };
            header.extend_from_slice(&first.to_le_bytes());
            header.extend_from_slice(&word(words[1]).to_le_bytes());
            header.extend_from_slice(&name);
            for &w in &words[2..] {
                header.extend_from_slice(&word(w).to_le_bytes());
            }
            for (chip, flavor) in ALL_CHIPS.iter().flat_map(|c| FLAVORS.map(|f| (c, f))) {
                let mut k = Kernel::boot(flavor, chip);
                let slot = chip.map.flash.start + 0x4_0000;
                k.mem.program_flash(slot, &header).unwrap();
                let Ok(image) = parse_app(&k.mem, slot) else {
                    continue;
                };
                prop_assert!(image.entry_offset < image.flash_size, "{image:?}");
                prop_assert!(slot + image.flash_size <= chip.map.flash.end);
                // A process the kernel accepts lies inside the chip's RAM.
                if let Ok(pid) = k.load_process(&image) {
                    let p = &k.processes[pid];
                    let ram = chip.map.ram;
                    prop_assert!(p.memory_start() >= ram.start, "{image:?}");
                    prop_assert!(p.memory_start() + p.memory_size() <= ram.end, "{image:?}");
                }
            }
        }

        #[test]
        fn flashed_images_parse_back_to_themselves(
            name in proptest::collection::vec(0x20u8..0x7f, 0..20),
            size_log in 6usize..16,
            min_ram in any::<u32>(),
            reserved in any::<u32>(),
        ) {
            let name = String::from_utf8(name).unwrap();
            for chip in &ALL_CHIPS {
                let mut mem = chip.memory();
                let slot = chip.map.flash.start + 0x4_0000;
                let (size, ram, kr) = (1 << size_log, min_ram as usize, reserved as usize);
                let image = flash_app(&mut mem, slot, &name, size, ram, kr).unwrap();
                prop_assert_eq!(&image.name, &name[..name.len().min(16)]);
                prop_assert_eq!(image.entry_offset, HEADER_BYTES);
                prop_assert_eq!(parse_app(&mem, slot).unwrap(), image);
            }
        }
    }
}
