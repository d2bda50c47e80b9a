//! The `RegionDescriptor` abstraction (paper Fig. 5 and §4.1).
//!
//! A `RegionDescriptor` "abstractly characterizes the properties of a
//! single MPU-enforced hardware region while hiding the hardware details
//! entirely". The paper attaches *associated refinements* (`start`, `size`,
//! `is_set`, `matches`, `overlaps`) that each driver must define against
//! its register encoding; here those refinements are trait methods whose
//! driver implementations decode the same hardware bits, and the `final`
//! refinement [`RegionDescriptor::can_access`] is a provided method defined
//! in terms of the others, exactly as in the paper.

use tt_hw::{Permissions, PtrU8};

/// An abstract hardware-enforced memory region.
pub trait RegionDescriptor: Clone {
    /// Creates the "unset" region for slot `region_id` (no memory matched).
    fn unset(region_id: usize) -> Self;

    /// The accessible start address, if the region is set.
    ///
    /// For Cortex-M this is the subregion-aware accessible start; for PMP
    /// it is the region start (the PMP is "far more flexible", §3.5).
    fn start(&self) -> Option<PtrU8>;

    /// The accessible size in bytes, if the region is set.
    fn size(&self) -> Option<usize>;

    /// Whether the region is enabled in hardware.
    fn is_set(&self) -> bool;

    /// Whether the region grants exactly the given logical permissions.
    fn matches_permissions(&self, perms: Permissions) -> bool;

    /// Whether the region's accessible bytes intersect `[lo, hi)`.
    fn overlaps(&self, lo: usize, hi: usize) -> bool;

    /// The region's hardware slot number.
    fn region_id(&self) -> usize;

    /// The paper's `#[final]` associated refinement: the region is set,
    /// covers exactly `[start, end)`, and carries `perms`.
    fn can_access(&self, start: usize, end: usize, perms: Permissions) -> bool {
        self.is_set()
            && self.start().map(PtrU8::as_usize) == Some(start)
            && self
                .size()
                .is_some_and(|sz| start.checked_add(sz) == Some(end))
            && self.matches_permissions(perms)
    }

    /// The accessible range `[start, start + size)`, if set.
    fn accessible_range(&self) -> Option<(usize, usize)> {
        match (self.start(), self.size()) {
            (Some(s), Some(sz)) => Some((s.as_usize(), s.as_usize() + sz)),
            _ => None,
        }
    }
}

/// A pair of regions returned by the granular MPU's allocation methods
/// (the paper's `OptPair<Region, Region>` content).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pair<T> {
    /// First (lower) region.
    pub fst: T,
    /// Second (higher) region; may be unset when one region suffices.
    pub snd: T,
}

/// `OptPair` from Fig. 3b: either both regions or nothing.
pub type OptPair<T> = Option<Pair<T>>;

/// A fixed array of eight region descriptors: the kernel's staged MPU
/// configuration (the paper's `RArray<R>`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RArray<R: RegionDescriptor> {
    regions: [R; 8],
}

impl<R: RegionDescriptor> RArray<R> {
    /// Creates an array of unset regions, one per hardware slot.
    pub fn new_unset() -> Self {
        Self {
            regions: std::array::from_fn(R::unset),
        }
    }

    /// Returns the region in slot `i`.
    pub fn get(&self, i: usize) -> &R {
        &self.regions[i]
    }

    /// Replaces the region in slot `i`.
    ///
    /// # Panics
    ///
    /// Panics if the descriptor's own `region_id` disagrees with `i`: a
    /// region written to the wrong slot is exactly the write-order/identity
    /// confusion the §6.1 differential testing caught.
    pub fn set(&mut self, i: usize, region: R) {
        assert_eq!(
            region.region_id(),
            i,
            "region id/slot mismatch: descriptor {} into slot {i}",
            region.region_id()
        );
        self.regions[i] = region;
        self.check_invariants();
    }

    /// The `RArray` well-formedness invariant: every slot holds the
    /// descriptor whose `region_id` names that slot. `set` rejects a
    /// mismatched write up front; this re-checks the whole array after
    /// every mutation (and is what the `tt-audit` coverage lint requires
    /// of all public mutators here).
    pub fn check_invariants(&self) {
        for (i, r) in self.regions.iter().enumerate() {
            tt_contracts::invariant!("RArray", r.region_id() == i);
        }
    }

    /// Iterates over all eight slots in slot order.
    pub fn iter(&self) -> impl Iterator<Item = &R> {
        self.regions.iter()
    }

    /// The raw slice, slot-ordered (what `configure_mpu` consumes).
    pub fn as_slice(&self) -> &[R] {
        &self.regions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal in-memory RegionDescriptor for exercising the provided
    /// methods independent of any hardware encoding.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct FakeRegion {
        pub id: usize,
        pub range: Option<(usize, usize)>,
        pub perms: Permissions,
    }

    impl RegionDescriptor for FakeRegion {
        fn unset(region_id: usize) -> Self {
            Self {
                id: region_id,
                range: None,
                perms: Permissions::ReadOnly,
            }
        }
        fn start(&self) -> Option<PtrU8> {
            self.range.map(|(s, _)| PtrU8::new(s))
        }
        fn size(&self) -> Option<usize> {
            self.range.map(|(s, e)| e - s)
        }
        fn is_set(&self) -> bool {
            self.range.is_some()
        }
        fn matches_permissions(&self, perms: Permissions) -> bool {
            self.is_set() && self.perms == perms
        }
        fn overlaps(&self, lo: usize, hi: usize) -> bool {
            self.range.is_some_and(|(s, e)| lo < hi && s < hi && lo < e)
        }
        fn region_id(&self) -> usize {
            self.id
        }
    }

    #[test]
    fn can_access_requires_exact_range_and_perms() {
        let r = FakeRegion {
            id: 0,
            range: Some((0x1000, 0x2000)),
            perms: Permissions::ReadWriteOnly,
        };
        assert!(r.can_access(0x1000, 0x2000, Permissions::ReadWriteOnly));
        assert!(!r.can_access(0x1000, 0x1800, Permissions::ReadWriteOnly));
        assert!(!r.can_access(0x0800, 0x2000, Permissions::ReadWriteOnly));
        assert!(!r.can_access(0x1000, 0x2000, Permissions::ReadOnly));
    }

    #[test]
    fn unset_region_can_access_nothing() {
        let r = FakeRegion::unset(3);
        assert!(!r.can_access(0, 0x1000, Permissions::ReadOnly));
        assert!(!r.is_set());
        assert_eq!(r.accessible_range(), None);
        assert_eq!(r.region_id(), 3);
    }

    #[test]
    fn rarray_slots_get_distinct_ids() {
        let arr: RArray<FakeRegion> = RArray::new_unset();
        for (i, r) in arr.iter().enumerate() {
            assert_eq!(r.region_id(), i);
        }
        assert_eq!(arr.as_slice().len(), 8);
    }

    #[test]
    fn rarray_set_accepts_matching_slot() {
        let mut arr: RArray<FakeRegion> = RArray::new_unset();
        let r = FakeRegion {
            id: 2,
            range: Some((0, 32)),
            perms: Permissions::ReadOnly,
        };
        arr.set(2, r.clone());
        assert_eq!(arr.get(2), &r);
    }

    #[test]
    #[should_panic(expected = "region id/slot mismatch")]
    fn rarray_set_rejects_wrong_slot() {
        let mut arr: RArray<FakeRegion> = RArray::new_unset();
        let r = FakeRegion {
            id: 5,
            range: Some((0, 32)),
            perms: Permissions::ReadOnly,
        };
        arr.set(1, r);
    }

    #[test]
    fn accessible_range_composes_start_and_size() {
        let r = FakeRegion {
            id: 0,
            range: Some((0x400, 0x480)),
            perms: Permissions::ReadOnly,
        };
        assert_eq!(r.accessible_range(), Some((0x400, 0x480)));
        assert_eq!(r.size(), Some(0x80));
    }
}
