//! Disjoint-set (union-find) substrates for the ECL-MST reproduction.
//!
//! The paper's unified Kruskal/Borůvka parallelization leans entirely on a
//! disjoint-set structure: cycle detection (`find` on both endpoints),
//! component merging (`union` via `atomicCAS`), and the studied
//! path-compression schemes. This crate provides:
//!
//! * [`SeqDsu`] — sequential union-find with selectable compression
//!   ([`Compression`]) and union policies ([`UnionPolicy`]), used by the
//!   serial baselines (Kruskal, Filter-Kruskal) and the verification path.
//! * [`AtomicDsu`] — a lock-free concurrent union-find built on
//!   `AtomicU32` compare-and-swap, mirroring the CUDA code's `atomicCAS`
//!   union and the find variants the paper evaluates: no compression (for
//!   the *implicit* path-compression scheme), path halving, and
//!   "intermediate pointer jumping" (Jaiganesh & Burtscher's GPU-optimized
//!   scheme used by the "No Implicit Path Compression" de-optimization).

#![forbid(unsafe_code)]
// Belt under the forbid above: if an audited `unsafe` block is ever
// admitted here, its unsafe operations must still be spelled out inside
// nested `unsafe {}` with their own SAFETY justification (the ecl-lint
// unsafe-audit rule checks both).
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod atomic;
#[cfg(ecl_model)]
pub mod model;
pub mod seq;
pub mod verify;

pub use atomic::{AtomicDsu, DsuTally, FindPolicy};
pub use seq::{Compression, SeqDsu, UnionPolicy};
