//! `pheig-verify` — the workspace's unsafe audit.
//!
//! [`audit`] (`cargo run -p pheig-verify --bin audit`, and the
//! `audit_repo` test) is a static pass over the workspace sources
//! enforcing that every `unsafe` site carries a `// SAFETY:` comment and
//! matches the committed allowlist (`unsafe_allowlist.toml`), and that
//! hot-path crates pin `#![deny(unsafe_op_in_unsafe_fn)]`. No external
//! dependencies.

// Unsafe code in this crate must discharge obligations explicitly:
// every unsafe operation inside an `unsafe fn` needs its own block (and
// `// SAFETY:` comment — enforced by `pheig-verify`'s audit binary).
#![deny(unsafe_op_in_unsafe_fn)]

pub mod audit;
