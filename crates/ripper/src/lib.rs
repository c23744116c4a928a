//! RIPPER rule induction (Cohen 1995), from scratch.
//!
//! The paper induces its scheduling filters with Ripper, a fast rule-set
//! learner chosen because it is quick to tune and its output — ordered
//! if-then rules — is compact and human readable (paper §2.3). This crate
//! implements the algorithm for binary classification over numeric
//! attributes:
//!
//! * **IREP\***: rules are grown on a 2/3 split (greedily adding the
//!   condition with the best FOIL information gain) and immediately pruned
//!   on the remaining 1/3 (deleting final condition suffixes to maximize
//!   the IREP* pruning metric `(p - n) / (p + n)`);
//! * **MDL stopping**: rule-set growth stops when the total description
//!   length exceeds the best seen so far by more than a fixed budget, or
//!   when a new rule's error on the pruning split exceeds 50%;
//! * **Optimization**: each rule is reconsidered against a *replacement*
//!   (re-grown from scratch) and a *revision* (greedily extended), keeping
//!   whichever gives the smallest description length, then residual
//!   positives are covered by another IREP* round. The pass runs twice
//!   (`k = 2`, like the original).
//!
//! Baseline learners (majority class, 1R, decision stump, a small
//! depth-limited decision tree) and evaluation utilities (confusion
//! matrices, leave-one-group-out cross-validation, geometric means) live
//! here too.
//!
//! # Examples
//!
//! ```
//! use wts_ripper::{Dataset, RuleSet};
//!
//! // y = x0 > 0.5, with a redundant second attribute.
//! let mut d = Dataset::new(vec!["x0".into(), "x1".into()], "pos", "neg");
//! for i in 0..200 {
//!     let x0 = (i % 100) as f64 / 100.0;
//!     d.push(vec![x0, 0.3], x0 > 0.5, 0);
//! }
//! let model = RuleSet::fit(&d);
//! assert!(model.predict(&[0.9, 0.3]));
//! assert!(!model.predict(&[0.1, 0.3]));
//! ```

mod baseline;
mod cv;
mod data;
mod grow;
mod mdl;
mod metrics;
mod parse;
mod ripper;
mod rule;

pub use baseline::{Classifier, DecisionStump, MajorityLearner, OneR, ShallowTree, StumpCounts};
pub use cv::{leave_one_group_out, GroupFold};
pub use data::{Dataset, Instance};
pub use metrics::{geometric_mean, ConfusionMatrix};
pub use parse::{parse_rule_set, ParseRuleSetError};
pub use rule::{attribute_stats, Condition, Op, Rule, RuleSet, RuleStats};
