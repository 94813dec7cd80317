//! Modules: named sets of actions, specified at a particular granularity.
//!
//! A module is the unit of decomposition (Definition 1 in Appendix B).  For ZooKeeper the
//! modules are the four Zab phases (Figure 6) plus a fault module; the framework itself
//! is agnostic and identifies modules with string tags.

use std::collections::BTreeSet;
use std::fmt;

use crate::action::{ActionDef, Granularity};

/// Identifier of a module (a set of actions, Definition 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ModuleId(pub &'static str);

impl ModuleId {
    /// The module name.
    pub fn name(&self) -> &'static str {
        self.0
    }
}

impl fmt::Display for ModuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

/// A specification of one module at one granularity.
///
/// Multiple `ModuleSpec`s may exist for the same [`ModuleId`] (one per granularity);
/// composition picks exactly one per module (§3.3).
#[derive(Clone)]
pub struct ModuleSpec<S> {
    /// The module this specification describes.
    pub module: ModuleId,
    /// The granularity of this specification.
    pub granularity: Granularity,
    /// The actions of this module at this granularity.
    pub actions: Vec<ActionDef<S>>,
}

impl<S> ModuleSpec<S> {
    /// Creates a module specification, asserting that each action is tagged with the
    /// module and granularity it is registered under.
    pub fn new(module: ModuleId, granularity: Granularity, actions: Vec<ActionDef<S>>) -> Self {
        debug_assert!(
            actions
                .iter()
                .all(|a| a.module == module && a.granularity == granularity),
            "actions must be tagged with the module/granularity they are registered under"
        );
        ModuleSpec {
            module,
            granularity,
            actions,
        }
    }

    /// Number of actions in this module specification (reported in Table 3).
    pub fn action_count(&self) -> usize {
        self.actions.len()
    }

    /// The union of the variables read by this module's actions.
    pub fn read_set(&self) -> BTreeSet<&'static str> {
        self.actions
            .iter()
            .flat_map(|a| a.reads.iter().copied())
            .collect()
    }

    /// The union of the variables written by this module's actions.
    pub fn write_set(&self) -> BTreeSet<&'static str> {
        self.actions
            .iter()
            .flat_map(|a| a.writes.iter().copied())
            .collect()
    }

    /// The union of all variables mentioned (read or written) by this module.
    pub fn variable_set(&self) -> BTreeSet<&'static str> {
        let mut v = self.read_set();
        v.extend(self.write_set());
        v
    }
}

impl<S> fmt::Debug for ModuleSpec<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ModuleSpec")
            .field("module", &self.module)
            .field("granularity", &self.granularity)
            .field(
                "actions",
                &self.actions.iter().map(|a| a.name).collect::<Vec<_>>(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn action(
        name: &'static str,
        reads: Vec<&'static str>,
        writes: Vec<&'static str>,
    ) -> ActionDef<u32> {
        ActionDef::new(
            name,
            ModuleId("M"),
            Granularity::Baseline,
            reads,
            writes,
            move |_s: &u32, sink| sink.offer(name, None, |next| *next = 0),
        )
    }

    #[test]
    fn footprints_are_unions() {
        let m = ModuleSpec::new(
            ModuleId("M"),
            Granularity::Baseline,
            vec![
                action("A", vec!["x", "y"], vec!["x"]),
                action("B", vec!["y", "z"], vec!["w"]),
            ],
        );
        assert_eq!(m.action_count(), 2);
        assert_eq!(m.read_set(), ["x", "y", "z"].into_iter().collect());
        assert_eq!(m.write_set(), ["w", "x"].into_iter().collect());
        assert_eq!(m.variable_set(), ["w", "x", "y", "z"].into_iter().collect());
    }

    #[test]
    fn module_id_display() {
        assert_eq!(ModuleId("Election").to_string(), "Election");
        assert_eq!(ModuleId("Election").name(), "Election");
    }
}
