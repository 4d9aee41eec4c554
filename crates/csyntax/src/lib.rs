//! C syntax for SuperC: the C grammar, keyword classification, and the
//! configuration-aware typedef context (§5).
//!
//! SuperC reuses Roskind's C grammar and tokenization rules with common
//! gcc extensions, feeding an off-the-shelf LALR table generator (§5).
//! This crate plays that role:
//!
//! * [`c_grammar`] — a C99-flavored LALR grammar with the gcc extensions
//!   real-world code (and the Linux kernel in particular) relies on:
//!   `typeof`, `__attribute__`, inline `asm`, statement expressions,
//!   case ranges, computed goto, conditional omission (`a ?: b`),
//!   compound literals, and designated initializers. Productions carry
//!   SuperC's AST annotations and `complete` markings.
//! * [`classify`] — maps preprocessed tokens to grammar terminals:
//!   keywords (including gcc spelling variants like `__const`) are
//!   recognized *after* macro expansion, everything else becomes
//!   `IDENTIFIER`, `CONSTANT`, or `STRING_LITERAL`.
//! * [`CContext`] — the context-management plug-in (§5.2): a
//!   configuration-aware symbol table tracks which names denote types
//!   under which presence conditions and in which scopes; `reclassify`
//!   rewrites identifiers to `TYPEDEF_NAME`, *splitting* the presence
//!   condition (forking an extra subparser) when a name is ambiguously
//!   defined.
//! * [`parse_unit`] — glue: preprocessor output → token forest → FMLR
//!   parse with the C context.
//!
//! # Examples
//!
//! ```
//! use superc_cond::{CondBackend, CondCtx};
//! use superc_cpp::{MemFs, Preprocessor, PpOptions, Profile};
//! use superc_csyntax::{c_grammar, parse_unit};
//! use superc_fmlr::ParserConfig;
//!
//! let fs = MemFs::new().file("m.c", "#ifdef FAST\ntypedef int num;\n#else\ntypedef long num;\n#endif\nnum square(num x) { return x * x; }\n");
//! let ctx = CondCtx::new(CondBackend::Bdd);
//! let opts = PpOptions { profile: Profile::bare(), ..Default::default() };
//! let mut pp = Preprocessor::new(ctx.clone(), opts, fs);
//! let unit = pp.preprocess("m.c").unwrap();
//! let result = parse_unit(&unit, &ctx, ParserConfig::full());
//! assert!(result.errors.is_empty());
//! assert!(result.accepted.unwrap().is_true());
//! ```

mod context;
mod grammar;
mod grammar_def;
mod keywords;
mod query;
mod seed;
mod symtab;

pub use context::{CContext, CtxTables};
pub use grammar::{baked_c_grammar, build_c_grammar, c_artifacts, c_grammar, CArtifacts};
pub use keywords::classify;
pub use query::{
    declared_names, first_declarator_ident, first_declarator_tok, function_definitions,
    unparse_config, DeclaredName,
};
pub use seed::CSeed;
pub use symtab::{NameKind, SymTab};

use superc_cond::CondCtx;
use superc_cpp::CompilationUnit;
use superc_fmlr::{Forest, ParseResult, Parser, ParserConfig};

/// A reusable C parser over the process-wide shared artifacts.
///
/// Construction resolves the shared [`CArtifacts`] once and seeds the
/// engine from them; [`CParser::parse`] can then be called for unit
/// after unit without rebuilding classification tables, context tables,
/// or the engine's kind-name cache. One `CParser` per worker thread is
/// the intended shape — the engine state it reuses is cheap but not
/// `Sync`.
pub struct CParser {
    artifacts: &'static CArtifacts,
    parser: Parser<'static, CContext>,
}

impl CParser {
    /// Creates a parser backed by the shared C artifacts.
    pub fn new(config: ParserConfig) -> Self {
        let artifacts = c_artifacts();
        let plugin = CContext::seeded(artifacts.ctx_tables.clone());
        CParser {
            artifacts,
            parser: Parser::new(&artifacts.grammar, config, plugin),
        }
    }

    /// Parses a preprocessed compilation unit. Equivalent to
    /// [`parse_unit`] with this parser's config, minus the per-call
    /// setup cost.
    pub fn parse(&mut self, unit: &CompilationUnit, ctx: &CondCtx) -> ParseResult {
        let forest = self.build_forest(unit);
        self.parser.parse(&forest, ctx)
    }

    /// Like [`CParser::parse`], but also returns the forest (for token
    /// counts).
    pub fn parse_with_forest(
        &mut self,
        unit: &CompilationUnit,
        ctx: &CondCtx,
    ) -> (ParseResult, Forest) {
        let forest = self.build_forest(unit);
        let r = self.parser.parse(&forest, ctx);
        (r, forest)
    }

    fn build_forest(&self, unit: &CompilationUnit) -> Forest {
        let seed = &self.artifacts.seed;
        Forest::build(&unit.elements, &|t| seed.classify(t))
    }
}

/// Parses a preprocessed compilation unit with the C grammar and the
/// typedef-aware context plug-in.
///
/// One-shot convenience over [`CParser`]; callers parsing many units
/// should hold a `CParser` to amortize per-parse setup.
///
/// See the crate docs for an example.
pub fn parse_unit(unit: &CompilationUnit, ctx: &CondCtx, config: ParserConfig) -> ParseResult {
    CParser::new(config).parse(unit, ctx)
}

/// Like [`parse_unit`], but also returns the forest (for token counts).
pub fn parse_unit_with_forest(
    unit: &CompilationUnit,
    ctx: &CondCtx,
    config: ParserConfig,
) -> (ParseResult, Forest) {
    CParser::new(config).parse_with_forest(unit, ctx)
}

#[cfg(test)]
mod tests;
