//! # rsj — rack-scale in-memory join processing using (simulated) RDMA
//!
//! A from-scratch Rust reproduction of *Barthels, Loesing, Alonso,
//! Kossmann: "Rack-Scale In-Memory Join Processing using RDMA"*
//! (SIGMOD 2015). This facade crate re-exports the whole workspace:
//!
//! | module | contents |
//! |---|---|
//! | [`sim`] | deterministic discrete-event kernel (virtual clock) |
//! | [`rdma`] | simulated verbs: memory regions, buffer pools, one/two-sided ops, the QDR/FDR fabric model |
//! | [`cluster`] | Table 2 hardware presets, calibrated cost model, phase accounting |
//! | [`workload`] | tuple layouts, relation generators, Zipf skew, result oracles |
//! | [`joins`] | radix kernels, chained hash tables, the single-machine baseline |
//! | [`core`] | **the paper's contribution**: the distributed RDMA radix hash join |
//! | [`model`] | the analytical model of Section 5 |
//! | [`operators`] | §7 generalizations: sort-merge join, aggregation, cyclo-join |
//!
//! ## Quickstart
//!
//! ```
//! use rsj::cluster::ClusterSpec;
//! use rsj::core::{try_run_distributed_join, DistJoinConfig};
//! use rsj::workload::{generate_inner, generate_outer, Skew, Tuple16};
//!
//! // A 4-machine FDR cluster, 8 cores each — the paper's Figure 5a setup.
//! let mut cfg = DistJoinConfig::new(ClusterSpec::fdr_cluster(4));
//! cfg.radix_bits = (6, 6);
//!
//! // 64K ⋈ 256K tuples (scaled down from the paper's billions; see
//! // examples/quickstart.rs for a larger run).
//! let r = generate_inner::<Tuple16>(1 << 16, 4, 1);
//! let (s, oracle) = generate_outer::<Tuple16>(1 << 18, 1 << 16, 4, Skew::None, 2);
//!
//! let out = try_run_distributed_join(cfg, r, s).expect("no fault plan, no abort");
//! oracle.verify(&out.result);
//! println!("total {} | phases {:?}", out.phases.total(), out.phases.rows());
//! ```

pub use rsj_cluster as cluster;
pub use rsj_core as core;
pub use rsj_joins as joins;
pub use rsj_model as model;
pub use rsj_operators as operators;
pub use rsj_rdma as rdma;
pub use rsj_sim as sim;
pub use rsj_workload as workload;
