//! The shared C parse artifacts, loaded from tables baked at build time.
//!
//! The grammar itself is defined in `grammar_def.rs`; `build.rs` runs
//! LALR construction over it when the crate compiles and stores the
//! encoded tables in `$OUT_DIR`. At run time the process only decodes
//! them, like the paper's parser loading Bison's output.

use std::sync::{Arc, OnceLock};

use superc_grammar::Grammar;

use crate::context::CtxTables;
use crate::grammar_def;
use crate::seed::CSeed;

/// The C grammar's tables as encoded by the build script.
static BAKED_TABLES: &[u8] = include_bytes!(concat!(env!("OUT_DIR"), "/c_tables.bin"));

/// The process-wide immutable parse artifacts for C: the grammar (LALR
/// action/goto tables behind an `Arc`), the classification seed tables,
/// and the context plug-in's production tables.
///
/// Everything here is a pure function of the grammar text, so it is
/// loaded exactly once per process and shared by reference across every
/// worker thread; only the mutable layer (BDD manager, interner, macro
/// and symbol tables) is per-worker.
pub struct CArtifacts {
    /// The C grammar; clone (or [`Grammar::share`]) for a new handle to
    /// the same tables.
    pub grammar: Grammar,
    /// Keyword/punctuator → terminal classification tables.
    pub seed: CSeed,
    /// The typedef context plug-in's production-kind tables.
    pub ctx_tables: Arc<CtxTables>,
}

impl CArtifacts {
    /// Derives the classification seed and context tables from `grammar`.
    pub fn new(grammar: Grammar) -> CArtifacts {
        let seed = CSeed::build(&grammar);
        let ctx_tables = Arc::new(CtxTables::build(&grammar));
        CArtifacts {
            grammar,
            seed,
            ctx_tables,
        }
    }
}

/// The shared C parse artifacts (decoded once per process).
pub fn c_artifacts() -> &'static CArtifacts {
    static A: OnceLock<CArtifacts> = OnceLock::new();
    A.get_or_init(|| CArtifacts::new(baked_c_grammar()))
}

/// Decodes a fresh copy of the baked C tables; [`c_artifacts`] does
/// this once per process. Each call counts in
/// [`superc_grammar::tables_built`].
pub fn baked_c_grammar() -> Grammar {
    Grammar::decode(BAKED_TABLES).expect("the baked C tables decode")
}

/// Builds the C grammar's tables at run time with LALR construction,
/// exactly as the build script does. Parsing never takes this path; it
/// exists so tests can check the baked tables against a fresh build and
/// benchmarks can time the two.
pub fn build_c_grammar() -> Grammar {
    grammar_def::build().expect("the C grammar builds")
}

/// The shared C grammar (decoded once per process).
///
/// See the crate docs for an end-to-end example.
pub fn c_grammar() -> &'static Grammar {
    &c_artifacts().grammar
}

#[cfg(test)]
mod build_tests {
    use super::*;
    use superc_grammar::SymbolId;

    #[test]
    fn grammar_builds_with_only_the_known_conflicts() {
        let g = c_grammar();
        for c in g.conflicts() {
            // Dangling else (terminal `else`) and statement-head labels
            // (terminal `:`) are the accepted shift-resolutions.
            assert!(
                c.terminal == "else" || c.terminal == ":",
                "unexpected conflict: state {} on {:?}: {}",
                c.state,
                c.terminal,
                c.resolution
            );
        }
    }

    #[test]
    fn baked_tables_equal_a_fresh_build() {
        let baked = c_grammar();
        let built = build_c_grammar();
        // Field by field first, for a readable failure.
        assert_eq!(baked.num_terminals(), built.num_terminals());
        assert_eq!(baked.num_states(), built.num_states());
        assert_eq!(baked.num_productions(), built.num_productions());
        assert_eq!(baked.eof(), built.eof());
        // `$start`, the augmented start symbol, is the last nonterminal.
        let num_syms = built.production(0).lhs.0 + 1;
        for s in (0..num_syms).map(SymbolId) {
            assert_eq!(baked.symbol_name(s), built.symbol_name(s));
            assert_eq!(baked.is_complete(s), built.is_complete(s), "{s:?}");
            assert_eq!(baked.symbol(built.symbol_name(s)), Some(s));
        }
        for p in 0..built.num_productions() {
            assert_eq!(baked.production(p), built.production(p), "production {p}");
            assert_eq!(baked.rhs_len(p), built.rhs_len(p), "production {p}");
        }
        let (terms, nonterms) = (0..num_syms)
            .map(SymbolId)
            .partition::<Vec<_>, _>(|&s| built.is_terminal(s));
        for st in 0..built.num_states() {
            for &t in &terms {
                assert_eq!(
                    baked.action(st, t),
                    built.action(st, t),
                    "action({st}, {t:?})"
                );
            }
            for &n in &nonterms {
                assert_eq!(baked.goto(st, n), built.goto(st, n), "goto({st}, {n:?})");
            }
        }
        assert_eq!(baked.conflicts(), built.conflicts());
        assert!(*baked == built);
    }
}
