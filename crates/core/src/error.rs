//! Error types for restart-tree construction and transformation.

use std::fmt;

use crate::tree::NodeId;

/// An error manipulating a [`RestartTree`](crate::tree::RestartTree).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// The node id does not name a live node of this tree.
    UnknownNode(NodeId),
    /// The component name is not attached anywhere in the tree.
    UnknownComponent(String),
    /// The component name is already attached to a cell.
    DuplicateComponent(String),
    /// A transformation's preconditions were not met.
    InvalidTransform {
        /// Which transformation failed.
        transform: &'static str,
        /// Why its preconditions were not met.
        reason: String,
    },
    /// The operation would orphan or delete the root cell.
    CannotModifyRoot,
}

impl TreeError {
    pub(crate) fn invalid(transform: &'static str, reason: impl Into<String>) -> TreeError {
        TreeError::InvalidTransform {
            transform,
            reason: reason.into(),
        }
    }
}

/// An error constructing or querying a [`FailureModel`](crate::model::FailureModel).
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// A mode's occurrence rate was not positive and finite.
    InvalidRate {
        /// The mode's name.
        mode: String,
        /// The offending rate (per hour).
        rate: f64,
    },
    /// A correlated mode's cure set does not contain its trigger component.
    TriggerOutsideCureSet {
        /// The mode's name.
        mode: String,
        /// The trigger component missing from the cure set.
        trigger: String,
    },
    /// A rate-derived quantity was asked of a model with no modes.
    EmptyModel {
        /// Which query hit the empty model.
        query: &'static str,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::InvalidRate { mode, rate } => {
                write!(f, "failure mode {mode:?} has invalid rate {rate}/h")
            }
            ModelError::TriggerOutsideCureSet { mode, trigger } => write!(
                f,
                "failure mode {mode:?}: cure set must contain the trigger component {trigger:?}"
            ),
            ModelError::EmptyModel { query } => {
                write!(f, "{query} on an empty failure model")
            }
        }
    }
}

impl std::error::Error for ModelError {}

/// An error from the MTTF/MTTR analysis algebra
/// ([`analysis`](crate::analysis)).
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisError {
    /// A tree lookup failed.
    Tree(TreeError),
    /// A failure-model query failed.
    Model(ModelError),
    /// A parameter that must be positive and finite was not.
    NonPositive {
        /// Which parameter.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A group aggregate was asked of an empty member list.
    EmptyGroup {
        /// Which aggregate hit the empty group.
        what: &'static str,
    },
}

impl From<TreeError> for AnalysisError {
    fn from(e: TreeError) -> AnalysisError {
        AnalysisError::Tree(e)
    }
}

impl From<ModelError> for AnalysisError {
    fn from(e: ModelError) -> AnalysisError {
        AnalysisError::Model(e)
    }
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Tree(e) => e.fmt(f),
            AnalysisError::Model(e) => e.fmt(f),
            AnalysisError::NonPositive { what, value } => {
                write!(f, "{what} must be positive and finite, got {value}")
            }
            AnalysisError::EmptyGroup { what } => write!(f, "{what} on an empty group"),
        }
    }
}

impl std::error::Error for AnalysisError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AnalysisError::Tree(e) => Some(e),
            AnalysisError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::UnknownNode(id) => write!(f, "unknown restart cell {id}"),
            TreeError::UnknownComponent(name) => write!(f, "unknown component {name:?}"),
            TreeError::DuplicateComponent(name) => {
                write!(f, "component {name:?} is already attached to a cell")
            }
            TreeError::InvalidTransform { transform, reason } => {
                write!(f, "invalid {transform}: {reason}")
            }
            TreeError::CannotModifyRoot => {
                write!(f, "the root cell cannot be removed or re-parented")
            }
        }
    }
}

impl std::error::Error for TreeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_and_analysis_errors_display() {
        let e = ModelError::InvalidRate {
            mode: "fedr-crash".into(),
            rate: f64::NAN,
        };
        assert!(e.to_string().contains("fedr-crash"));
        let e = AnalysisError::NonPositive {
            what: "MTTF",
            value: -1.0,
        };
        assert!(e.to_string().contains("MTTF"));
        let e: AnalysisError = TreeError::CannotModifyRoot.into();
        assert!(matches!(e, AnalysisError::Tree(_)));
        let e: AnalysisError = ModelError::EmptyModel {
            query: "system_mttf_s",
        }
        .into();
        assert!(e.to_string().contains("system_mttf_s"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn display_messages_are_informative() {
        let e = TreeError::UnknownComponent("warp".into());
        assert!(e.to_string().contains("warp"));
        let e = TreeError::invalid("consolidation", "cells are not siblings");
        assert!(e.to_string().contains("consolidation"));
        assert!(e.to_string().contains("siblings"));
        assert!(TreeError::CannotModifyRoot.to_string().contains("root"));
    }
}
