//! Figure 12: verification time per component.
//!
//! Builds the three obligation registries — `TickTock (Monolithic)`,
//! `TickTock (Granular)`, `Interrupts` — and runs the verifier over each,
//! reporting `Fns / Total / Max / Mean / StdDev` exactly as Fig. 12 does.
//!
//! The densities below set how hard each domain is explored. They are
//! chosen so a laptop run finishes in tens of seconds while preserving the
//! paper's structure: at *equal* effort per point, the monolithic kernel's
//! entangled allocation spec dominates everything (the paper's 5m19s vs
//! 36s), and the interrupt semantics have the highest per-function cost.

use tt_contracts::obligation::Registry;
use tt_contracts::verifier::{VerificationReport, Verifier};
use tt_legacy::BugVariant;

/// Verification effort configuration.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    /// Parameter-grid density for the monolithic allocator spec.
    pub monolithic_density: usize,
    /// Domain density for the granular obligations.
    pub granular_density: usize,
    /// Bit-pattern depth for the interrupt obligations.
    pub interrupt_depth: usize,
}

impl Effort {
    /// The quick configuration used by tests and CI.
    pub const QUICK: Effort = Effort {
        monolithic_density: 2,
        granular_density: 2,
        interrupt_depth: 4,
    };

    /// The full configuration `verify_all` runs without `--quick`:
    /// every component explores its domains at the same per-point
    /// density (20), and the interrupt bit-vector domains at depth 100.
    pub const FULL: Effort = Effort {
        monolithic_density: 20,
        granular_density: 20,
        interrupt_depth: 100,
    };
}

/// Builds the full Fig. 12 registry: the paper's three components plus
/// the reproduction's own additions (the PR 2 commit-cache soundness
/// obligation and the refined-pointer obligations of the hardware model).
pub fn build_registry(effort: Effort) -> Registry {
    let mut registry = Registry::new();
    tt_legacy::obligations::register_obligations(
        &mut registry,
        BugVariant::Fixed,
        effort.monolithic_density,
    );
    ticktock::obligations::register_obligations(&mut registry, effort.granular_density);
    tt_fluxarm::contracts::register_obligations(&mut registry, effort.interrupt_depth);
    tt_kernel::obligations::register_obligations(&mut registry, effort.granular_density);
    tt_kernel::recovery::register_obligations(&mut registry, effort.granular_density);
    tt_kernel::explore::register_obligations(&mut registry, effort.granular_density);
    tt_hw::obligations::register_obligations(&mut registry, effort.granular_density);
    registry
}

/// Runs the verifier over the registry.
pub fn run(effort: Effort) -> VerificationReport {
    Verifier::new().verify(&build_registry(effort))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ticktock::obligations::COMPONENT as GRANULAR;
    use tt_fluxarm::contracts::COMPONENT as INTERRUPTS;
    use tt_legacy::obligations::COMPONENT as MONOLITHIC;

    #[test]
    fn everything_verifies_at_quick_effort() {
        let report = run(Effort::QUICK);
        assert!(
            report.all_verified(),
            "refuted: {:?}",
            report
                .refuted()
                .iter()
                .map(|f| (&f.function, &f.refutations))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn fig12_shape_holds() {
        let report = run(Effort::QUICK);
        let mono = report.component_stats(MONOLITHIC);
        let gran = report.component_stats(GRANULAR);
        let intr = report.component_stats(INTERRUPTS);

        // Headline: the monolithic kernel takes several times longer than
        // the granular one (5m19s vs 36s in the paper).
        assert!(
            mono.total.as_secs_f64() > gran.total.as_secs_f64() * 3.0,
            "monolithic {:?} vs granular {:?}",
            mono.total,
            gran.total
        );
        // >90% of monolithic time goes to allocate_app_mem_region.
        let alloc = report
            .functions
            .iter()
            .find(|f| f.function == "CortexM::allocate_app_mem_region")
            .unwrap();
        assert!(
            alloc.duration.as_secs_f64() > mono.total.as_secs_f64() * 0.5,
            "alloc {:?} of mono total {:?}",
            alloc.duration,
            mono.total
        );
        // Interrupts: fewer functions, but the highest mean per function
        // (1.63s vs 0.05s in the paper).
        assert!(intr.fns < gran.fns);
        assert!(
            intr.mean.as_secs_f64() > gran.mean.as_secs_f64() * 3.0,
            "interrupt mean {:?} vs granular mean {:?}",
            intr.mean,
            gran.mean
        );
    }

    #[test]
    fn rendered_table_has_all_components() {
        let report = run(Effort::QUICK);
        let table = report.render_fig12();
        for c in [
            MONOLITHIC,
            GRANULAR,
            INTERRUPTS,
            tt_kernel::obligations::COMPONENT,
            tt_kernel::recovery::COMPONENT,
            tt_hw::obligations::COMPONENT,
        ] {
            assert!(table.contains(c), "missing {c}");
        }
    }
}
