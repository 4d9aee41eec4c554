use super::*;

/// A tiny LR driver sufficient to test tables: parses a terminal-name
/// sequence, returning `Ok(reduction trace)` or `Err(position)`.
fn drive(g: &Grammar, input: &[&str]) -> Result<Vec<String>, usize> {
    let mut stack: Vec<u32> = vec![g.start_state()];
    let mut trace = Vec::new();
    let mut toks: Vec<SymbolId> = input
        .iter()
        .map(|t| {
            g.terminal(t)
                .unwrap_or_else(|| panic!("unknown terminal {t}"))
        })
        .collect();
    toks.push(g.eof());
    let mut i = 0;
    loop {
        let state = *stack.last().expect("nonempty");
        match g.action(state, toks[i]) {
            Action::Shift(s) => {
                stack.push(s);
                i += 1;
            }
            Action::Reduce(p) => {
                for _ in 0..g.rhs_len(p) {
                    stack.pop();
                }
                let lhs = g.production(p).lhs;
                trace.push(g.lhs_name(p).to_string());
                let state = *stack.last().expect("nonempty");
                let next = g.goto(state, lhs).expect("goto");
                stack.push(next);
            }
            Action::Accept => return Ok(trace),
            Action::Error => return Err(i),
        }
    }
}

fn expr_grammar() -> Grammar {
    let mut b = GrammarBuilder::new("E");
    b.terminals(&["n", "+", "*", "(", ")"]);
    b.prod("E", &["E", "+", "T"]);
    b.prod("E", &["T"]).passthrough();
    b.prod("T", &["T", "*", "F"]);
    b.prod("T", &["F"]).passthrough();
    b.prod("F", &["(", "E", ")"]);
    b.prod("F", &["n"]).passthrough();
    b.build().unwrap()
}

/// Ambiguous `E + E | E * E`, disambiguated by precedence levels.
fn prec_grammar() -> Grammar {
    let mut b = GrammarBuilder::new("E");
    b.terminals(&["n", "+", "*"]);
    b.prec(Assoc::Left, 1, &["+"]);
    b.prec(Assoc::Left, 2, &["*"]);
    b.prod("E", &["E", "+", "E"]);
    b.prod("E", &["E", "*", "E"]);
    b.prod("E", &["n"]).passthrough();
    b.build().unwrap()
}

/// Right-associative assignment chains.
fn right_assoc_grammar() -> Grammar {
    let mut b = GrammarBuilder::new("E");
    b.terminals(&["n", "="]);
    b.prec(Assoc::Right, 1, &["="]);
    b.prod("E", &["E", "=", "E"]);
    b.prod("E", &["n"]).passthrough();
    b.build().unwrap()
}

/// A non-associative comparison: chains are errors.
fn nonassoc_grammar() -> Grammar {
    let mut b = GrammarBuilder::new("E");
    b.terminals(&["n", "<"]);
    b.prec(Assoc::NonAssoc, 1, &["<"]);
    b.prod("E", &["E", "<", "E"]);
    b.prod("E", &["n"]).passthrough();
    b.build().unwrap()
}

/// The dangling `else`: one shift/reduce conflict.
fn dangling_else_grammar() -> Grammar {
    let mut b = GrammarBuilder::new("S");
    b.terminals(&["if", "else", "expr", "stmt"]);
    b.prod("S", &["if", "expr", "S"]);
    b.prod("S", &["if", "expr", "S", "else", "S"]);
    b.prod("S", &["stmt"]).passthrough();
    b.build().unwrap()
}

/// The standard example: S -> L = R | R ; L -> * R | id ; R -> L.
/// SLR has a shift/reduce conflict on '='; LALR does not.
fn lalr_not_slr_grammar() -> Grammar {
    let mut b = GrammarBuilder::new("S");
    b.terminals(&["=", "*", "id"]);
    b.prod("S", &["L", "=", "R"]);
    b.prod("S", &["R"]).passthrough();
    b.prod("L", &["*", "R"]);
    b.prod("L", &["id"]).passthrough();
    b.prod("R", &["L"]).passthrough();
    b.build().unwrap()
}

/// Nullable nonterminals exercise lookahead propagation through
/// epsilon (a classic source of LALR bugs).
fn nullable_grammar() -> Grammar {
    let mut b = GrammarBuilder::new("S");
    b.terminals(&["a", "b"]);
    b.prod("S", &["A", "B", "a"]);
    b.prod("A", &[]);
    b.prod("A", &["b"]);
    b.prod("B", &[]);
    b.build().unwrap()
}

/// Two nonterminals deriving the same terminal: a reduce/reduce conflict.
fn reduce_reduce_grammar() -> Grammar {
    let mut b = GrammarBuilder::new("S");
    b.terminals(&["x"]);
    b.prod("S", &["A"]);
    b.prod("S", &["B"]);
    b.prod("A", &["x"]);
    b.prod("B", &["x"]);
    b.build().unwrap()
}

/// A grammar with a `complete`-marked nonterminal.
fn complete_grammar() -> Grammar {
    let mut b = GrammarBuilder::new("S");
    b.terminals(&["x"]);
    b.prod("S", &["A"]);
    b.prod("A", &["x"]);
    b.complete(&["A"]);
    b.build().unwrap()
}

/// One production per AST annotation.
fn annotated_grammar() -> Grammar {
    let mut b = GrammarBuilder::new("S");
    b.terminals(&["x", ","]);
    b.prod("S", &["S", ",", "x"]).list();
    b.prod("S", &["x"]).passthrough();
    b.prod("Sep", &[","]).layout();
    b.prod("S", &["Sep", "x", "Sep"]).action();
    b.build().unwrap()
}

/// Unary minus: %prec gives the production a higher precedence than
/// the binary minus terminal would.
fn uminus_grammar() -> Grammar {
    let mut b = GrammarBuilder::new("E");
    b.terminals(&["n", "-", "UMINUS"]);
    b.prec(Assoc::Left, 1, &["-"]);
    b.prec(Assoc::Right, 2, &["UMINUS"]);
    b.prod("E", &["E", "-", "E"]);
    b.prod("E", &["-", "E"]).prec("UMINUS");
    b.prod("E", &["n"]).passthrough();
    b.build().unwrap()
}

#[test]
fn classic_expression_grammar_is_conflict_free() {
    let g = expr_grammar();
    assert!(g.conflicts().is_empty(), "{:?}", g.conflicts());
    // The canonical LALR automaton for this grammar has 12 states.
    assert_eq!(g.num_states(), 12);
}

#[test]
fn expression_grammar_parses() {
    let g = expr_grammar();
    assert!(drive(&g, &["n", "+", "n", "*", "n"]).is_ok());
    assert!(drive(&g, &["(", "n", "+", "n", ")", "*", "n"]).is_ok());
    assert_eq!(drive(&g, &["n", "+"]), Err(2));
    assert_eq!(drive(&g, &["+", "n"]), Err(0));
    assert_eq!(drive(&g, &[")"]), Err(0));
}

#[test]
fn precedence_resolves_ambiguous_expression_grammar() {
    let g = prec_grammar();
    assert!(g.conflicts().is_empty(), "{:?}", g.conflicts());
    // n + n * n: the * must bind tighter — reduce for + happens after
    // the whole * expression. Check it simply parses.
    let trace = drive(&g, &["n", "+", "n", "*", "n"]).unwrap();
    assert_eq!(trace.iter().filter(|s| *s == "E").count(), 5);
}

#[test]
fn right_associativity_shifts() {
    let g = right_assoc_grammar();
    assert!(g.conflicts().is_empty());
    assert!(drive(&g, &["n", "=", "n", "=", "n"]).is_ok());
}

#[test]
fn nonassoc_rejects_chains() {
    let g = nonassoc_grammar();
    assert!(drive(&g, &["n", "<", "n"]).is_ok());
    assert!(drive(&g, &["n", "<", "n", "<", "n"]).is_err());
}

#[test]
fn dangling_else_prefers_shift_and_reports_conflict() {
    let g = dangling_else_grammar();
    // Classic shift/reduce: resolved as shift (else binds to inner if).
    assert_eq!(g.conflicts().len(), 1);
    assert!(g.conflicts()[0].resolution.contains("shift"));
    assert!(drive(&g, &["if", "expr", "if", "expr", "stmt", "else", "stmt"]).is_ok());
}

#[test]
fn lalr_but_not_slr_grammar_builds_cleanly() {
    let g = lalr_not_slr_grammar();
    assert!(g.conflicts().is_empty(), "{:?}", g.conflicts());
    assert!(drive(&g, &["*", "id", "=", "id"]).is_ok());
    assert!(drive(&g, &["id", "=", "*", "id"]).is_ok());
}

#[test]
fn empty_productions_reduce_correctly() {
    let g = nullable_grammar();
    assert!(g.conflicts().is_empty());
    assert!(drive(&g, &["a"]).is_ok());
    assert!(drive(&g, &["b", "a"]).is_ok());
    assert!(drive(&g, &["b", "b", "a"]).is_err());
}

#[test]
fn reduce_reduce_conflicts_are_reported_and_resolved() {
    let g = reduce_reduce_grammar();
    assert!(!g.conflicts().is_empty());
    assert!(g.conflicts()[0].resolution.contains("reduce/reduce"));
    // Still parses, using the earlier production.
    assert_eq!(drive(&g, &["x"]).unwrap()[0], "A");
}

#[test]
fn complete_marking_is_queryable() {
    let g = complete_grammar();
    let a = g.symbol("A").unwrap();
    let s = g.symbol("S").unwrap();
    assert!(g.is_complete(a));
    assert!(!g.is_complete(s));
    assert!(!g.is_complete(g.terminal("x").unwrap()));
}

#[test]
fn errors_are_reported() {
    // Undefined nonterminal.
    let mut b = GrammarBuilder::new("S");
    b.terminals(&["x"]);
    b.prod("S", &["Nope"]);
    assert!(b.build().is_err());
    // Missing start.
    let mut b = GrammarBuilder::new("S");
    b.terminals(&["x"]);
    b.prod("T", &["x"]);
    assert!(b.build().is_err());
    // Terminal as lhs.
    let mut b = GrammarBuilder::new("x");
    b.terminals(&["x"]);
    b.prod("x", &["x"]);
    assert!(b.build().is_err());
    // complete() on unknown nonterminal.
    let mut b = GrammarBuilder::new("S");
    b.terminals(&["x"]);
    b.prod("S", &["x"]);
    b.complete(&["Ghost"]);
    assert!(b.build().is_err());
}

#[test]
fn symbol_metadata_round_trips() {
    let g = expr_grammar();
    let e = g.symbol("E").unwrap();
    assert_eq!(g.symbol_name(e), "E");
    assert!(!g.is_terminal(e));
    let plus = g.terminal("+").unwrap();
    assert!(g.is_terminal(plus));
    assert_eq!(g.symbol_name(g.eof()), "$eof");
    assert_eq!(g.terminal("E"), None);
    assert!(format!("{g:?}").contains("states"));
    // Production 0 is the augmented start.
    assert_eq!(g.lhs_name(0), "$start");
    assert_eq!(g.rhs_len(0), 1);
}

#[test]
fn annotations_are_stored() {
    let g = annotated_grammar();
    assert_eq!(g.production(1).ast, AstBuild::List);
    assert_eq!(g.production(2).ast, AstBuild::Passthrough);
    assert_eq!(g.production(3).ast, AstBuild::Layout);
    assert_eq!(g.production(4).ast, AstBuild::Action);
}

#[test]
fn explicit_prec_overrides_last_terminal() {
    let g = uminus_grammar();
    assert!(g.conflicts().is_empty(), "{:?}", g.conflicts());
    assert!(drive(&g, &["-", "n", "-", "n"]).is_ok());
}

/// Every grammar above, for whole-suite properties.
fn test_grammars() -> Vec<Grammar> {
    vec![
        expr_grammar(),
        prec_grammar(),
        right_assoc_grammar(),
        nonassoc_grammar(),
        dangling_else_grammar(),
        lalr_not_slr_grammar(),
        nullable_grammar(),
        reduce_reduce_grammar(),
        complete_grammar(),
        annotated_grammar(),
        uminus_grammar(),
    ]
}

#[test]
fn table_construction_is_deterministic() {
    // State numbering must not depend on hash-map iteration order, or
    // tables generated ahead of time would disagree with a fresh build.
    for _ in 0..4 {
        assert!(test_grammars() == test_grammars());
    }
}

#[test]
fn encoded_tables_decode_to_equal_tables() {
    for g in test_grammars() {
        let decoded = Grammar::decode(&g.encode()).expect("round trip decodes");
        assert!(decoded == g, "round trip changed {g:?}");
        // The derived indexes are rebuilt, not carried.
        for p in 0..g.num_productions() {
            assert_eq!(decoded.rhs_len(p), g.rhs_len(p));
        }
        assert_eq!(decoded.symbol("$start"), g.symbol("$start"));
    }
}

#[test]
fn decoding_counts_as_a_table_materialization() {
    let blob = expr_grammar().encode();
    let before = tables_built();
    Grammar::decode(&blob).expect("decodes");
    // Other tests build concurrently, so only a lower bound is exact.
    assert!(tables_built() > before);
}

#[test]
fn truncated_or_corrupt_tables_are_errors() {
    for g in test_grammars() {
        let blob = g.encode();
        for cut in 0..blob.len() {
            assert!(
                Grammar::decode(&blob[..cut]).is_err(),
                "prefix of {cut}/{} bytes decoded",
                blob.len()
            );
        }
        let mut long = blob.clone();
        long.extend_from_slice(&[0; 4]);
        assert!(Grammar::decode(&long).is_err(), "trailing bytes accepted");
    }
    let mut blob = expr_grammar().encode();
    blob[0] ^= 1;
    assert!(Grammar::decode(&blob).is_err(), "bad magic accepted");
    // Every single-word corruption either errors or decodes to tables
    // whose accessors stay in bounds — never a panic.
    let blob = uminus_grammar().encode();
    for at in (8..blob.len()).step_by(4) {
        let mut bad = blob.clone();
        bad[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        if let Ok(g) = Grammar::decode(&bad) {
            for st in 0..g.num_states() {
                for t in 0..g.num_terminals() {
                    g.action(st, SymbolId(t));
                }
            }
        }
    }
}
