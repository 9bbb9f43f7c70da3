//! `adamel-oracle`: a deliberately naive, obviously-correct `f64` reference
//! implementation of the AdaMEL math stack, plus the differential-testing
//! harness built on top of it.
//!
//! The oracle answers one question for every later optimization PR: *does the
//! fast path still compute the right numbers?* It does so in three layers:
//!
//! 1. [`RefMatrix`] — textbook `f64` kernels (no parallelism, no fusion, no
//!    zero-skipping) mirroring every production tensor op.
//! 2. [`Program`] — seeded random tape programs whose production forward and
//!    backward passes are diffed per-op against the oracle within the ULP
//!    budgets of [`ulp`], with gradients checked against oracle finite
//!    differences. Failing programs shrink to minimal paste-able reproducers.
//! 3. [`modelref`] / [`golden`] — the paper equations (Eq. 3–10) re-derived
//!    end-to-end in `f64`, and byte-exact golden fixtures under
//!    `tests/golden/` that pin the model outputs across PRs.
//!
//! See DESIGN.md §10 for the budget table and the bless workflow.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod golden;
pub mod modelref;
pub mod prauc;
pub mod program;
pub mod refmat;
pub mod ulp;

pub use golden::{Fixture, FixtureError};
pub use modelref::{
    bce_ref, encode_pair_uncached, encode_pairs_ref, kl_ref, support_weights_ref, weighted_bce_ref,
    zero_loss_ref, ModelOracle, RefForward,
};
pub use prauc::{pr_auc_ref, pr_curve_ref, RefPrPoint};
pub use program::{
    check_program, check_with_fault, eval_oracle_root, gen_program, gen_program_with,
    render_reproducer, shrink, Discrepancy, Fault, GenOptions, Inst, Program,
};
pub use refmat::RefMatrix;
pub use ulp::{grouped_gradient_budget, op_ulps, reduction_budget, ulp_distance, Budget, EPS32};
