//! # rsj-workload — workload generation and verification
//!
//! Reproduces the paper's workloads (§6.1.1):
//!
//! * narrow 16-byte `<key, rid>` tuples plus 32/64-byte variants (§6.7);
//! * highly distinct-value joins: the inner relation holds each key of a
//!   dense domain exactly once; outer/inner ratios 1:1 … 1:16;
//! * uniform or Zipf(1.05 / 1.20) foreign-key skew (§6.5);
//! * even distribution across machines with range-partitioned rids.
//!
//! Every generator also emits an [`ExpectedResult`] oracle so the joins'
//! outputs are *verified*, not assumed.

#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_types,
        clippy::unwrap_used,
        clippy::iter_over_hash_type,
        clippy::let_underscore_must_use,
        clippy::unused_result_ok,
        unused_must_use
    )
)]

mod oracle;
mod relation;
mod tuple;
mod zipf;

pub use oracle::{naive_hash_join, ExpectedResult, JoinResult};
pub use relation::{generate_inner, generate_outer, Relation, Skew};
pub use tuple::{decode_all, decode_into, Tuple, Tuple16, Tuple32, Tuple64};
pub use zipf::Zipf;
