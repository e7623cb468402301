//! SPICE-deck frontend for the four-terminal-switch toolkit.
//!
//! This crate turns untrusted deck text into [`fts_spice::Netlist`]s and
//! [`fts_engine::SimJob`]s, and back:
//!
//! ```text
//! text ──lex──► cards ──parse──► Deck AST ──elaborate──► Netlist + SimJobs
//!                                   ▲                          │
//!                                   └────────── export_job ────┘
//! ```
//!
//! * [`lex`] — comment/continuation handling, tokenization, `.include`
//!   splicing. Every resource a hostile deck controls (bytes, depth,
//!   token and card counts) is capped here.
//! * [`parse`] / [`ast`] — the grammar subset: `R C V I M X` element
//!   cards, `.model` (n-MOS level 1/3), `.subckt`/`.ends`, `.param`,
//!   `.nodeorder`, `.probe`, and the `.op .dc .tran .ac` analyses.
//! * [`mod@elaborate`] — flattening, parameter substitution, and lowering
//!   into labelled [`SimJob`](fts_engine::SimJob)s, again fully capped.
//! * [`mod@print`] / [`export`] — the inverse direction; exported decks
//!   re-elaborate to byte-identical results.
//! * [`number`] — the one shared, overflow-rejecting number parser (also
//!   used by `fts-server`'s JSON reader).
//!
//! Every failure path returns a structured [`DeckError`] with a stable
//! code and a 1-based line/column — nothing in this crate panics on
//! malformed input (the `netlist_fuzz` harness holds it to that).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// `!(x > 0.0)` is used deliberately throughout: unlike `x <= 0.0` it also
// rejects NaN inputs, which must never reach the solvers.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod ast;
pub mod elaborate;
mod error;
pub mod export;
pub mod lex;
pub mod number;
pub mod parse;
pub mod print;

pub use ast::Deck;
pub use elaborate::{elaborate, ElabOptions, Elaborated};
pub use error::DeckError;
pub use export::export_job;
pub use lex::{DenyIncludes, FsIncludes, IncludeLoader};
pub use print::render;

/// Parses deck text with `.include` disabled (the right default for
/// network-supplied decks).
///
/// # Errors
///
/// A structured [`DeckError`] with a 1-based line/column.
pub fn parse_str(text: &str) -> Result<Deck, DeckError> {
    parse_with_includes(text, &mut DenyIncludes)
}

/// Parses deck text, resolving `.include` through `loader`.
///
/// # Errors
///
/// A structured [`DeckError`] with a 1-based line/column.
pub fn parse_with_includes(text: &str, loader: &mut dyn IncludeLoader) -> Result<Deck, DeckError> {
    parse::parse_cards(lex::read_deck(text, loader)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_str_denies_includes() {
        let e = parse_str(".include \"other.cir\"\n").unwrap_err();
        assert_eq!(e.code, "include_failed");
    }

    #[test]
    fn end_to_end_smoke() {
        let e = elaborate(
            &parse_str("v1 in 0 dc 1\nr1 in out 1k\nr2 out 0 1k\n.op\n").unwrap(),
            &ElabOptions::default(),
        )
        .unwrap();
        assert_eq!(e.jobs.len(), 1);
        assert_eq!(e.netlist.node_name(e.out), "out");
    }
}
