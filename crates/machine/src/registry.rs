//! The named machine-model registry.
//!
//! The paper's central claim is that should-we-schedule filters are
//! cheap to *re-derive* when the target machine changes. Testing that
//! claim needs more than one target, so every machine model this
//! reproduction knows about is registered here by name — the
//! cross-machine sweep [`Experiment::run_on`] in `wts-core` and the
//! `repro` binary enumerate the registry rather than hard-coding a
//! config.
//!
//! Adding a machine is two steps:
//!
//! 1. Write a constructor on [`MachineConfig`] (usually a handful of
//!    [`MachineConfig::builder`] overrides plus a [`LatencyTable`]
//!    profile — see `MachineConfig::wide4` for the pattern).
//! 2. Add a `(name, constructor)` row to [`REGISTRY`].
//!
//! [`LatencyTable`]: crate::LatencyTable
//! [`Experiment::run_on`]: https://docs.rs/wts-core
//!
//! # Examples
//!
//! ```
//! use wts_machine::registry;
//!
//! assert!(registry().len() >= 6);
//! ```

use crate::MachineConfig;

/// One registry row: a machine's name and its constructor.
pub type MachineEntry = (&'static str, fn() -> MachineConfig);

/// Every registered machine, as `(name, constructor)` rows. The name in
/// each row equals `constructor().name()`; [`registry_names`] keys off
/// it without building configs.
pub const REGISTRY: [MachineEntry; 6] = [
    ("ppc7410", MachineConfig::ppc7410),
    ("simple-scalar", MachineConfig::simple_scalar),
    ("deep-fp", MachineConfig::deep_fp),
    ("wide4", MachineConfig::wide4),
    ("embedded", MachineConfig::embedded),
    ("deep-pipe", MachineConfig::deep_pipe),
];

/// Builds every registered machine, in registry order (the paper's
/// ppc7410 first).
pub fn registry() -> Vec<MachineConfig> {
    REGISTRY.iter().map(|(_, build)| build()).collect()
}

/// The registered machine names, in registry order.
pub fn registry_names() -> Vec<&'static str> {
    REGISTRY.iter().map(|(name, _)| *name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_match_machine_names() {
        for (name, build) in REGISTRY {
            assert_eq!(build().name(), name, "registry key must equal the machine's own name");
        }
        assert_eq!(registry().len(), REGISTRY.len());
        assert_eq!(registry_names().len(), REGISTRY.len());
    }

    #[test]
    fn names_are_unique() {
        let mut names = registry_names();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), REGISTRY.len());
    }

    #[test]
    fn registry_spans_the_dynamism_spectrum() {
        let machines = registry();
        let widths: Vec<u32> = machines.iter().map(|m| m.issue_width()).collect();
        assert!(widths.contains(&1) && widths.contains(&4), "narrow and wide targets: {widths:?}");
        let windows: Vec<usize> = machines.iter().map(|m| m.window()).collect();
        assert!(windows.contains(&1) && windows.iter().any(|&w| w >= 32), "in-order and deep-OoO: {windows:?}");
    }
}
