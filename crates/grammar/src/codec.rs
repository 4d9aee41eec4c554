//! A flat binary form of [`ParseTables`], so tables can be generated
//! ahead of time (like Bison's output) and loaded without running LALR
//! construction.
//!
//! The blob is a stream of little-endian `u32` words:
//!
//! ```text
//! magic "SCPT", version
//! terminals:     count, strings
//! nonterminals:  count, strings
//! productions:   count, then per production: lhs, ast tag, %prec
//!                (u32::MAX = none), rhs length, rhs symbols
//! num_states, eof
//! complete:      one 0/1 word per nonterminal
//! action:        the (state, terminal) cells, row-major; tag in the low
//!                2 bits: 0 = a run of (value) error cells, 1 = accept,
//!                2 = shift (value), 3 = reduce (value)
//! goto:          the (state, nonterminal) cells, row-major: a target
//!                state, or RUN_BIT | n for a run of n empty cells
//! conflicts:     count, then per conflict: state, terminal, resolution
//! ```
//!
//! Most cells of both tables are blank (error / no goto), so a blank run
//! takes one word; that keeps the C grammar's blob about five times
//! smaller than one word per cell, and every process maps the blob. A
//! string is its byte length followed by its UTF-8 bytes, zero-padded to
//! a whole word. The derived indexes (`by_name`, `prod_rhs_len`) are not
//! stored; decoding rebuilds them.

use std::collections::HashMap;

use crate::builder::{AstBuild, GrammarError, Production};
use crate::table::{Action, Conflict, Grammar, ParseTables, SymbolId};

const MAGIC: u32 = u32::from_le_bytes(*b"SCPT");
const VERSION: u32 = 1;
const NONE: u32 = u32::MAX;
/// Marks a goto word as a run of empty cells.
const RUN_BIT: u32 = 1 << 31;

const AST_TAGS: [AstBuild; 5] = [
    AstBuild::Node,
    AstBuild::Layout,
    AstBuild::Passthrough,
    AstBuild::List,
    AstBuild::Action,
];

/// An action word; `Error` stands for a run of `run` error cells.
fn action_word(a: Action, run: u32) -> u32 {
    let (tag, value) = match a {
        Action::Error => (0, run),
        Action::Accept => (1, 0),
        Action::Shift(s) => (2, s),
        Action::Reduce(p) => (3, p),
    };
    assert!(value < 1 << 30, "action operand {value} does not fit");
    value << 2 | tag
}

/// A goto word; `NONE` stands for a run of `run` empty cells.
fn goto_word(g: u32, run: u32) -> u32 {
    let (bit, value) = if g == NONE { (RUN_BIT, run) } else { (0, g) };
    assert!(value < RUN_BIT, "goto operand {value} does not fit");
    bit | value
}

#[derive(Default)]
struct Writer(Vec<u8>);

impl Writer {
    fn word(&mut self, w: u32) {
        self.0.extend_from_slice(&w.to_le_bytes());
    }

    fn len(&mut self, n: usize) {
        self.word(u32::try_from(n).expect("table length fits in u32"));
    }

    fn string(&mut self, s: &str) {
        self.len(s.len());
        self.0.extend_from_slice(s.as_bytes());
        self.0.resize(self.0.len().next_multiple_of(4), 0);
    }

    /// Table cells: each maximal run of `blank` as one `word(blank, len)`,
    /// every other cell as `word(cell, 1)`.
    fn cells<T: Copy + PartialEq>(&mut self, cells: &[T], blank: T, word: fn(T, u32) -> u32) {
        let mut rest = cells;
        while let Some(&c) = rest.first() {
            let n = if c == blank {
                rest.iter().take_while(|&&x| x == blank).count()
            } else {
                1
            };
            self.word(word(c, u32::try_from(n).expect("table length fits in u32")));
            rest = &rest[n..];
        }
    }
}

impl ParseTables {
    /// The tables as a self-contained byte blob for [`Grammar::decode`].
    ///
    /// # Examples
    ///
    /// ```
    /// use superc_grammar::{Grammar, GrammarBuilder};
    ///
    /// let mut b = GrammarBuilder::new("S");
    /// b.terminals(&["x"]);
    /// b.prod("S", &["x"]);
    /// let g = b.build().unwrap();
    /// assert!(Grammar::decode(&g.encode()).unwrap() == g);
    /// ```
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::default();
        w.word(MAGIC);
        w.word(VERSION);
        for names in [&self.terminals, &self.nonterminals] {
            w.len(names.len());
            for n in names {
                w.string(n);
            }
        }
        w.len(self.prods.len());
        for p in &self.prods {
            let tag = AST_TAGS.iter().position(|&t| t == p.ast);
            w.word(p.lhs.0);
            w.len(tag.expect("every annotation has a tag"));
            w.word(p.prec.map_or(NONE, |s| s.0));
            w.len(p.rhs.len());
            for s in &p.rhs {
                w.word(s.0);
            }
        }
        w.word(self.num_states);
        w.word(self.eof.0);
        for &c in &self.complete {
            w.word(c.into());
        }
        w.cells(&self.action, Action::Error, action_word);
        w.cells(&self.goto_, NONE, goto_word);
        w.len(self.conflicts.len());
        for c in &self.conflicts {
            w.word(c.state);
            w.string(&c.terminal);
            w.string(&c.resolution);
        }
        w.0
    }
}

/// One decoded table word: a run of blank cells or a single cell.
enum Cell<T> {
    Blanks(usize),
    One(T),
}

/// Bounds-checked reader over the word stream: malformed input ends in
/// an error, never a panic.
struct Reader<'a> {
    bytes: &'a [u8],
}

fn malformed(what: &str) -> GrammarError {
    GrammarError {
        message: format!("malformed parse tables: {what}"),
    }
}

impl Reader<'_> {
    fn words_left(&self) -> usize {
        self.bytes.len() / 4
    }

    fn word(&mut self) -> Result<u32, GrammarError> {
        let (head, rest) = self
            .bytes
            .split_first_chunk::<4>()
            .ok_or_else(|| malformed("truncated"))?;
        self.bytes = rest;
        Ok(u32::from_le_bytes(*head))
    }

    /// A count of items at least `min_words` long each, checked against
    /// what is left so a corrupt count cannot drive a huge allocation.
    fn count(&mut self, min_words: usize) -> Result<usize, GrammarError> {
        let n = self.word()? as usize;
        if n.saturating_mul(min_words) > self.words_left() {
            return Err(malformed("truncated"));
        }
        Ok(n)
    }

    /// `n` words, each checked by `ok`.
    fn words(
        &mut self,
        n: usize,
        ok: impl Fn(u32) -> bool,
        what: &str,
    ) -> Result<Vec<u32>, GrammarError> {
        if n > self.words_left() {
            return Err(malformed("truncated"));
        }
        (0..n)
            .map(|_| match self.word()? {
                w if ok(w) => Ok(w),
                _ => Err(malformed(what)),
            })
            .collect()
    }

    fn string(&mut self) -> Result<String, GrammarError> {
        let len = self.word()? as usize;
        let padded = len.next_multiple_of(4);
        if padded > self.bytes.len() {
            return Err(malformed("truncated"));
        }
        let (s, rest) = self.bytes.split_at(padded);
        self.bytes = rest;
        String::from_utf8(s[..len].to_vec()).map_err(|_| malformed("a name is not UTF-8"))
    }

    fn strings(&mut self) -> Result<Vec<String>, GrammarError> {
        let n = self.count(1)?;
        (0..n).map(|_| self.string()).collect()
    }

    /// Exactly `n` table cells written by [`Writer::cells`]; `cell`
    /// decodes one word, `None` meaning out of range.
    fn cells<T: Copy>(
        &mut self,
        n: usize,
        blank: T,
        cell: impl Fn(u32) -> Option<Cell<T>>,
        what: &str,
    ) -> Result<Vec<T>, GrammarError> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            match cell(self.word()?) {
                Some(Cell::Blanks(run)) if run > 0 && run <= n - out.len() => {
                    out.resize(out.len() + run, blank)
                }
                Some(Cell::One(c)) => out.push(c),
                _ => return Err(malformed(what)),
            }
        }
        Ok(out)
    }
}

impl Grammar {
    /// Loads tables produced by [`ParseTables::encode`], validating every
    /// symbol, state, and production reference so the accessors cannot
    /// index out of bounds. Counts in [`crate::tables_built`] like a
    /// construction.
    ///
    /// # Errors
    ///
    /// Fails on a truncated, corrupt, or foreign-version blob.
    pub fn decode(bytes: &[u8]) -> Result<Grammar, GrammarError> {
        let mut r = Reader { bytes };
        if r.word()? != MAGIC {
            return Err(malformed("bad magic"));
        }
        if r.word()? != VERSION {
            return Err(malformed("unsupported version"));
        }
        let terminals = r.strings()?;
        let nonterminals = r.strings()?;
        let nt = terminals.len() as u32;
        let num_syms = nt + nonterminals.len() as u32;

        let num_prods = r.count(4)?;
        let mut prods = Vec::with_capacity(num_prods);
        for _ in 0..num_prods {
            let lhs = r.word()?;
            if !(nt..num_syms).contains(&lhs) {
                return Err(malformed("production lhs is not a nonterminal"));
            }
            let ast = *AST_TAGS
                .get(r.word()? as usize)
                .ok_or_else(|| malformed("unknown AST annotation"))?;
            let prec = match r.word()? {
                NONE => None,
                t if t < nt => Some(SymbolId(t)),
                _ => return Err(malformed("%prec is not a terminal")),
            };
            let rhs_len = r.count(1)?;
            let rhs = r.words(rhs_len, |s| s < num_syms, "production symbol out of range")?;
            prods.push(Production {
                lhs: SymbolId(lhs),
                rhs: rhs.into_iter().map(SymbolId).collect(),
                ast,
                prec,
            });
        }

        let num_states = r.word()?;
        let eof = r.word()?;
        if num_states == 0 || prods.is_empty() || eof >= nt {
            return Err(malformed("empty tables or eof out of range"));
        }
        // Every state but the start is the target of some shift or goto
        // cell, and each such cell takes a word: a bound that keeps a
        // corrupt state count from sizing the tables.
        if num_states as usize > r.words_left() + 1 {
            return Err(malformed("more states than the tables can reach"));
        }
        let complete = r
            .words(nonterminals.len(), |c| c <= 1, "complete flag is not 0/1")?
            .into_iter()
            .map(|c| c == 1)
            .collect();
        let action = r.cells(
            num_states as usize * terminals.len(),
            Action::Error,
            |w| {
                let value = w >> 2;
                match w & 3 {
                    0 => Some(Cell::Blanks(value as usize)),
                    1 => (value == 0).then_some(Cell::One(Action::Accept)),
                    2 => (value < num_states).then_some(Cell::One(Action::Shift(value))),
                    _ => {
                        ((value as usize) < prods.len()).then_some(Cell::One(Action::Reduce(value)))
                    }
                }
            },
            "action out of range",
        )?;
        let goto_ = r.cells(
            num_states as usize * nonterminals.len(),
            NONE,
            |w| match w {
                _ if w & RUN_BIT != 0 => Some(Cell::Blanks((w & !RUN_BIT) as usize)),
                _ => (w < num_states).then_some(Cell::One(w)),
            },
            "goto target out of range",
        )?;
        let num_conflicts = r.count(3)?;
        let mut conflicts = Vec::with_capacity(num_conflicts);
        for _ in 0..num_conflicts {
            let state = r.word()?;
            if state >= num_states {
                return Err(malformed("conflict state out of range"));
            }
            conflicts.push(Conflict {
                state,
                terminal: r.string()?,
                resolution: r.string()?,
            });
        }
        if !r.bytes.is_empty() {
            return Err(malformed("trailing bytes"));
        }

        Ok(ParseTables {
            terminals,
            nonterminals,
            prods,
            prod_rhs_len: Vec::new(),
            action,
            goto_,
            num_states,
            eof: SymbolId(eof),
            complete,
            conflicts,
            by_name: HashMap::new(),
        }
        .into_grammar())
    }
}
