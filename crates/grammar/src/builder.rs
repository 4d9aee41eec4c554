//! The grammar definition API: symbols, productions, annotations,
//! precedence.

use std::collections::HashMap;
use std::fmt;

use crate::table::{Grammar, SymbolId};

/// Operator associativity for precedence-based conflict resolution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Assoc {
    /// Shift/reduce ties at equal precedence reduce (left-associative).
    Left,
    /// Ties shift (right-associative).
    Right,
    /// Ties are errors (e.g. chained comparisons).
    NonAssoc,
}

/// How the parser engine builds a semantic value when reducing a
/// production — SuperC's annotation facility (§5.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum AstBuild {
    /// Create a node named after the production's nonterminal with all
    /// right-hand-side values as children (the default).
    #[default]
    Node,
    /// Omit this production's value (punctuation-only helpers).
    Layout,
    /// Reuse the single child's value; productions exist only for
    /// precedence layering.
    Passthrough,
    /// Linearize a left-recursive repetition into one list node.
    List,
    /// Like `Node`, but flags the production as a semantic *action* hook
    /// for the context plug-in (e.g. scope enter/exit helpers).
    Action,
}

/// One production after building: `lhs -> rhs`, with its annotations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Production {
    /// Left-hand-side nonterminal.
    pub lhs: SymbolId,
    /// Right-hand-side symbols.
    pub rhs: Vec<SymbolId>,
    /// AST-building annotation.
    pub ast: AstBuild,
    /// Explicit precedence terminal (like Bison's `%prec`).
    pub prec: Option<SymbolId>,
}

/// A grammar construction error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GrammarError {
    /// Lowercase description.
    pub message: String,
}

impl fmt::Display for GrammarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for GrammarError {}

pub(crate) struct RawProd {
    pub lhs: String,
    pub rhs: Vec<String>,
    pub ast: AstBuild,
    pub prec: Option<String>,
}

/// The builder's raw pieces, borrowed together for table construction:
/// start symbol, terminals, terminal index, productions, precedence map,
/// and `complete`-marked nonterminal names.
pub(crate) type BuilderParts<'a> = (
    &'a str,
    &'a [String],
    &'a HashMap<String, usize>,
    &'a [RawProd],
    &'a HashMap<String, (u32, Assoc)>,
    &'a [String],
);

/// Builds a [`Grammar`]: declare terminals, add productions (names not
/// declared as terminals become nonterminals), annotate, and `build()`.
///
/// See the crate docs for an example.
pub struct GrammarBuilder {
    start: String,
    terminals: Vec<String>,
    term_set: HashMap<String, usize>,
    prods: Vec<RawProd>,
    prec: HashMap<String, (u32, Assoc)>,
    complete: Vec<String>,
}

/// Mutable handle to the production just added, for chaining annotations.
pub struct ProdBuilder<'g> {
    prod: &'g mut RawProd,
}

impl<'g> ProdBuilder<'g> {
    /// Marks the production `layout`: its value is omitted from the AST.
    pub fn layout(self) -> Self {
        self.prod.ast = AstBuild::Layout;
        self
    }

    /// Marks the production `passthrough`: reuse the single child's value.
    pub fn passthrough(self) -> Self {
        self.prod.ast = AstBuild::Passthrough;
        self
    }

    /// Marks the production `list`: left-recursive repetitions linearize.
    pub fn list(self) -> Self {
        self.prod.ast = AstBuild::List;
        self
    }

    /// Marks the production as a context-plug-in action hook.
    pub fn action(self) -> Self {
        self.prod.ast = AstBuild::Action;
        self
    }

    /// Sets an explicit precedence terminal (Bison `%prec`).
    pub fn prec(self, terminal: &str) -> Self {
        self.prod.prec = Some(terminal.to_string());
        self
    }
}

impl GrammarBuilder {
    /// Starts a grammar whose start symbol is `start`.
    pub fn new(start: &str) -> Self {
        GrammarBuilder {
            start: start.to_string(),
            terminals: Vec::new(),
            term_set: HashMap::new(),
            prods: Vec::new(),
            prec: HashMap::new(),
            complete: Vec::new(),
        }
    }

    /// Declares terminals (idempotent).
    pub fn terminals(&mut self, names: &[&str]) -> &mut Self {
        for &n in names {
            if !self.term_set.contains_key(n) {
                self.term_set.insert(n.to_string(), self.terminals.len());
                self.terminals.push(n.to_string());
            }
        }
        self
    }

    /// Assigns precedence `level` (higher binds tighter) and
    /// associativity to terminals.
    pub fn prec(&mut self, assoc: Assoc, level: u32, terminals: &[&str]) -> &mut Self {
        for &t in terminals {
            self.prec.insert(t.to_string(), (level, assoc));
        }
        self
    }

    /// Marks nonterminals as *complete syntactic units* (§5.1): the FMLR
    /// parser may merge subparsers whose differing stack tops are complete,
    /// wrapping their values in a static choice node.
    pub fn complete(&mut self, nonterminals: &[&str]) -> &mut Self {
        for &n in nonterminals {
            self.complete.push(n.to_string());
        }
        self
    }

    /// Adds a production `lhs -> rhs`. Undeclared names in `rhs` are
    /// nonterminals. Returns a handle for annotations.
    pub fn prod(&mut self, lhs: &str, rhs: &[&str]) -> ProdBuilder<'_> {
        self.prods.push(RawProd {
            lhs: lhs.to_string(),
            rhs: rhs.iter().map(|s| s.to_string()).collect(),
            ast: AstBuild::Node,
            prec: None,
        });
        ProdBuilder {
            prod: self.prods.last_mut().expect("just pushed"),
        }
    }

    /// Builds the LALR(1) tables.
    ///
    /// # Errors
    ///
    /// Fails when the start symbol has no productions, a nonterminal is
    /// used but never defined, or a precedence/`%prec` name is not a
    /// declared terminal. Shift/reduce and reduce/reduce conflicts are
    /// *not* errors: unresolved ones are resolved Bison-style (prefer
    /// shift; prefer the earlier production) and reported via
    /// [`Grammar::conflicts`].
    pub fn build(&mut self) -> Result<Grammar, GrammarError> {
        crate::table::build_grammar(self)
    }

    pub(crate) fn parts(&self) -> BuilderParts<'_> {
        (
            &self.start,
            &self.terminals,
            &self.term_set,
            &self.prods,
            &self.prec,
            &self.complete,
        )
    }
}
