//! Bit-math helpers shared by the allocators and MPU drivers.
//!
//! These mirror Tock's `kernel/src/utilities/math.rs`, plus the predicates
//! the paper writes as Flux refinements (`is_pow2`, alignment facts).

/// Returns `true` if `n` is a power of two, via the classic bithack the paper
/// shows in §5: `v > 0 && v & (v - 1) == 0`.
///
/// # Examples
///
/// ```
/// assert!(tt_contracts::math::is_pow2(32));
/// assert!(!tt_contracts::math::is_pow2(48));
/// assert!(!tt_contracts::math::is_pow2(0));
/// ```
pub const fn is_pow2(n: usize) -> bool {
    n > 0 && n & (n - 1) == 0
}

/// Returns the smallest power of two greater than or equal to `n`.
///
/// Mirrors Tock's `math::closest_power_of_two`, except that it saturates:
/// an input above 2^31, whose next power of two does not fit in 32 bits,
/// yields 2^31 (Tock's bit smear wraps it to 0).
pub const fn closest_power_of_two(n: u32) -> u32 {
    if n == 0 {
        return 1;
    }
    if n > 1 << 31 {
        return 1 << 31;
    }
    let mut v = n.wrapping_sub(1);
    v |= v >> 1;
    v |= v >> 2;
    v |= v >> 4;
    v |= v >> 8;
    v |= v >> 16;
    v.wrapping_add(1)
}

/// Returns the smallest power of two `>= n`, as a `usize` (32-bit semantics,
/// matching the microcontroller targets the paper verifies). Saturates at
/// 2^31 like [`closest_power_of_two`], also for inputs beyond `u32::MAX`.
pub const fn closest_power_of_two_usize(n: usize) -> usize {
    let n = if n > u32::MAX as usize {
        u32::MAX
    } else {
        n as u32
    };
    closest_power_of_two(n) as usize
}

/// Returns `floor(log2(n))` for `n > 0`.
pub const fn log_base_two(n: u32) -> u32 {
    if n == 0 {
        0
    } else {
        31 - n.leading_zeros()
    }
}

/// Rounds `addr` up to the next multiple of `align`.
///
/// `align` must be a power of two; this is the alignment idiom used by both
/// MPU drivers. Returns `usize::MAX`-saturated value on overflow.
pub const fn align_up(addr: usize, align: usize) -> usize {
    debug_assert!(is_pow2(align));
    let mask = align - 1;
    match addr.checked_add(mask) {
        Some(v) => v & !mask,
        None => usize::MAX & !mask,
    }
}

/// Rounds `addr` down to the previous multiple of `align` (a power of two).
pub const fn align_down(addr: usize, align: usize) -> usize {
    debug_assert!(is_pow2(align));
    addr & !(align - 1)
}

/// Returns `true` if `addr` is a multiple of `align` (a power of two).
pub const fn is_aligned(addr: usize, align: usize) -> bool {
    debug_assert!(is_pow2(align));
    addr & (align - 1) == 0
}

/// A `usize` statically known to be a power of two.
///
/// This is the reproduction of the paper's Flux-refined sizes: the Cortex-M
/// driver only ever manipulates region sizes through this type, so the
/// "size is a power of two" fact never has to be re-established.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PowerOfTwo(usize);

impl PowerOfTwo {
    /// Creates a `PowerOfTwo` if `n` is indeed a power of two.
    pub const fn new(n: usize) -> Option<Self> {
        if is_pow2(n) {
            Some(Self(n))
        } else {
            None
        }
    }

    /// Creates the smallest power of two `>= n`.
    pub const fn ceil(n: usize) -> Self {
        Self(closest_power_of_two_usize(if n == 0 { 1 } else { n }))
    }

    /// Creates `2^exp`.
    ///
    /// # Panics
    ///
    /// Panics if `exp >= usize::BITS`.
    pub const fn from_exponent(exp: u32) -> Self {
        assert!(exp < usize::BITS);
        Self(1 << exp)
    }

    /// Returns the raw value.
    pub const fn get(self) -> usize {
        self.0
    }

    /// Returns `log2(self)`.
    pub const fn exponent(self) -> u32 {
        self.0.trailing_zeros()
    }

    /// Doubles the value; the adjustment step in Tock's allocator (§3.4).
    ///
    /// # Panics
    ///
    /// Panics on overflow past the top bit.
    pub const fn double(self) -> Self {
        assert!(self.0 <= usize::MAX / 2);
        Self(self.0 * 2)
    }

    /// Halves the value, saturating at 1.
    pub const fn halve(self) -> Self {
        if self.0 == 1 {
            self
        } else {
            Self(self.0 / 2)
        }
    }
}

impl std::fmt::Display for PowerOfTwo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow2_predicate_matches_exhaustively() {
        // Exhaustive check against the reference definition over 20 bits.
        for n in 0usize..(1 << 20) {
            let reference = n.is_power_of_two();
            assert_eq!(is_pow2(n), reference, "n = {n}");
        }
    }

    #[test]
    fn closest_power_of_two_is_minimal() {
        for n in 1u32..(1 << 16) {
            let p = closest_power_of_two(n);
            assert!(p.is_power_of_two());
            assert!(p >= n);
            assert!(p / 2 < n, "p = {p} not minimal for n = {n}");
        }
    }

    #[test]
    fn closest_power_of_two_of_zero_is_one() {
        assert_eq!(closest_power_of_two(0), 1);
    }

    #[test]
    fn closest_power_of_two_saturates_at_2_pow_31() {
        assert_eq!(closest_power_of_two(1 << 31), 1 << 31);
        for n in [(1 << 31) + 1, 0xca3b_cbef, u32::MAX] {
            assert_eq!(closest_power_of_two(n), 1 << 31, "n = {n:#x}");
        }
        assert_eq!(closest_power_of_two_usize((1 << 31) - 1), 1 << 31);
        for n in [u32::MAX as usize, 1 << 32, (1 << 32) + 5, usize::MAX] {
            assert_eq!(closest_power_of_two_usize(n), 1 << 31, "n = {n:#x}");
        }
    }

    #[test]
    fn log_base_two_matches_reference() {
        for n in 1u32..(1 << 16) {
            assert_eq!(log_base_two(n), n.ilog2());
        }
        assert_eq!(log_base_two(0), 0);
    }

    #[test]
    fn align_up_properties() {
        for addr in 0usize..4096 {
            for exp in 0..8u32 {
                let align = 1usize << exp;
                let up = align_up(addr, align);
                assert!(up >= addr);
                assert!(is_aligned(up, align));
                assert!(up - addr < align);
            }
        }
    }

    #[test]
    fn align_down_properties() {
        for addr in 0usize..4096 {
            for exp in 0..8u32 {
                let align = 1usize << exp;
                let down = align_down(addr, align);
                assert!(down <= addr);
                assert!(is_aligned(down, align));
                assert!(addr - down < align);
            }
        }
    }

    #[test]
    fn align_up_saturates_instead_of_overflowing() {
        let v = align_up(usize::MAX - 3, 32);
        assert!(is_aligned(v, 32));
    }

    #[test]
    fn power_of_two_constructors() {
        assert_eq!(PowerOfTwo::new(32).unwrap().get(), 32);
        assert!(PowerOfTwo::new(33).is_none());
        assert!(PowerOfTwo::new(0).is_none());
        assert_eq!(PowerOfTwo::ceil(33).get(), 64);
        assert_eq!(PowerOfTwo::ceil(0).get(), 1);
        assert_eq!(PowerOfTwo::from_exponent(5).get(), 32);
    }

    #[test]
    fn power_of_two_double_halve() {
        let p = PowerOfTwo::new(64).unwrap();
        assert_eq!(p.double().get(), 128);
        assert_eq!(p.halve().get(), 32);
        assert_eq!(PowerOfTwo::new(1).unwrap().halve().get(), 1);
        assert_eq!(p.exponent(), 6);
    }
}
