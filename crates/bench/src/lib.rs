//! # netfence-bench
//!
//! Criterion benchmark harness for the NetFence reproduction: one bench
//! target, `benches/experiments.rs`, with a benchmark group per table/figure
//! of the paper's evaluation (Figure 7 micro-benchmarks, Figures 8–14
//! experiment harnesses at reduced scale), per sweep (deployment,
//! topo_scale, reaction, tournament, chaos) and per ablation of the design
//! choices called out in `DESIGN.md`. Run with
//! `cargo bench -p netfence-bench`; see `EXPERIMENTS.md` for how the bench
//! output maps to the paper's numbers.

#![forbid(unsafe_code)]
