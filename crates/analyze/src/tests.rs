use superc_cond::{Cond, CondBackend, CondCtx};
use superc_cpp::{MemFs, PpOptions, Preprocessor, Profile};
use superc_csyntax::parse_unit;
use superc_fmlr::ParserConfig;

use crate::render::canonical;
use crate::{analyze, AnalysisInput, Diagnostic, LintCode, LintLevel, LintOptions};

fn run_with(files: &[(&str, &str)], opts: &LintOptions) -> (Vec<Diagnostic>, CondCtx) {
    let mut fs = MemFs::new();
    for (p, c) in files {
        fs.add(p, c);
    }
    let ctx = CondCtx::new(CondBackend::Bdd);
    let popts = PpOptions {
        profile: Profile::bare(),
        ..PpOptions::default()
    };
    let mut pp = Preprocessor::new(ctx.clone(), popts, fs);
    let unit = pp.preprocess("main.c").expect("preprocess");
    let result = parse_unit(&unit, &ctx, ParserConfig::full());
    let input = AnalysisInput {
        unit: &unit,
        result: Some(&result),
        table: pp.table(),
        ctx: &ctx,
    };
    let diags = analyze(&input, opts, &|id| pp.file_name(id).map(str::to_string));
    (diags, ctx)
}

fn run(src: &str) -> (Vec<Diagnostic>, CondCtx) {
    run_with(&[("main.c", src)], &LintOptions::default())
}

fn only(diags: &[Diagnostic], code: LintCode) -> Vec<Diagnostic> {
    diags.iter().filter(|d| d.code == code).cloned().collect()
}

fn assert_pc(d: &Diagnostic, expected: &Cond) {
    assert!(
        d.cond.semantically_equal(expected),
        "expected PC {expected} for {}, got {} ({})",
        d.code,
        d.cond,
        d.cond_text
    );
}

// ---------------------------------------------------------------------
// dead-branch
// ---------------------------------------------------------------------

#[test]
fn dead_branch_under_contradictory_nesting() {
    let (diags, ctx) = run("#ifdef CONFIG_A\n#ifndef CONFIG_A\nint dead;\n#endif\n#endif\n");
    let dead = only(&diags, LintCode::DeadBranch);
    assert_eq!(dead.len(), 1, "{diags:?}");
    assert_pc(&dead[0], &ctx.var("defined(CONFIG_A)"));
    assert_eq!(dead[0].pos.line, 2);
    assert_eq!(dead[0].file, "main.c");
}

#[test]
fn dead_branch_when_earlier_branches_cover_everything() {
    let src = "#ifdef CONFIG_A\nint a;\n#elif !defined(CONFIG_A)\nint b;\n#else\nint c;\n#endif\n";
    let (diags, ctx) = run(src);
    let dead = only(&diags, LintCode::DeadBranch);
    assert_eq!(dead.len(), 1, "{diags:?}");
    assert_eq!(dead[0].pos.line, 5);
    assert_pc(&dead[0], &ctx.tru());
}

#[test]
fn constant_toggles_are_exempt() {
    let (diags, _) = run("#if 0\nint disabled;\n#endif\n#if 1\nint on;\n#else\nint off;\n#endif\n");
    assert!(only(&diags, LintCode::DeadBranch).is_empty(), "{diags:?}");
}

// ---------------------------------------------------------------------
// macro-conflict
// ---------------------------------------------------------------------

#[test]
fn macro_conflict_reports_overlap() {
    let src = "\
#ifdef CONFIG_A
#define NBYTES 1
#endif
#ifdef CONFIG_B
#define NBYTES 2
#endif
int x;
";
    let (diags, ctx) = run(src);
    let conflicts = only(&diags, LintCode::MacroConflict);
    assert_eq!(conflicts.len(), 1, "{diags:?}");
    let both = ctx
        .var("defined(CONFIG_A)")
        .and(&ctx.var("defined(CONFIG_B)"));
    assert_pc(&conflicts[0], &both);
    assert_eq!(conflicts[0].pos.line, 5);
    assert!(conflicts[0].message.contains("NBYTES"));
    assert!(conflicts[0].message.contains("main.c:2:1"));
}

#[test]
fn benign_redefinitions_do_not_conflict() {
    // Identical body, disjoint conditions, and define-after-undef are all
    // legal patterns.
    let src = "\
#define SAME 1
#define SAME 1
#ifdef CONFIG_A
#define DISJOINT 1
#else
#define DISJOINT 2
#endif
#define GONE 1
#undef GONE
#define GONE 2
int x;
";
    let (diags, _) = run(src);
    assert!(
        only(&diags, LintCode::MacroConflict).is_empty(),
        "{diags:?}"
    );
}

// ---------------------------------------------------------------------
// undef-macro-test
// ---------------------------------------------------------------------

#[test]
fn undefined_macro_tests_are_flagged_once() {
    let src = "\
#ifdef TYPO_MACRO
int a;
#endif
#ifdef TYPO_MACRO
int b;
#endif
int x;
";
    let (diags, ctx) = run(src);
    let undef = only(&diags, LintCode::UndefMacroTest);
    assert_eq!(undef.len(), 1, "{diags:?}");
    assert_pc(&undef[0], &ctx.tru());
    assert!(undef[0].message.contains("TYPO_MACRO"));
    assert_eq!(undef[0].pos.line, 1);
}

#[test]
fn guards_config_vars_and_defined_names_are_not_flagged() {
    let main = "\
#include \"guarded.h\"
#ifdef CONFIG_WHATEVER
int a;
#endif
#if defined(KNOWN) && KNOWN > 1
int b;
#endif
int x;
";
    let hdr = "#ifndef GUARDED_H\n#define GUARDED_H\n#define KNOWN 2\n#endif\n";
    let (diags, _) = run_with(
        &[("main.c", main), ("guarded.h", hdr)],
        &LintOptions::default(),
    );
    assert!(
        only(&diags, LintCode::UndefMacroTest).is_empty(),
        "{diags:?}"
    );
}

#[test]
fn expression_test_identifiers_are_checked() {
    let (diags, ctx) = run("#ifdef CONFIG_A\n#if MISPELED\nint a;\n#endif\n#endif\nint x;\n");
    let undef = only(&diags, LintCode::UndefMacroTest);
    assert_eq!(undef.len(), 1, "{diags:?}");
    assert!(undef[0].message.contains("MISPELED"));
    // The test only runs where the outer conditional admits it.
    assert_pc(&undef[0], &ctx.var("defined(CONFIG_A)"));
}

// ---------------------------------------------------------------------
// config-redecl
// ---------------------------------------------------------------------

#[test]
fn conflicting_types_in_overlapping_configs() {
    let src = "\
#ifdef CONFIG_A
int v;
#endif
#ifdef CONFIG_B
long v;
#endif
";
    let (diags, ctx) = run(src);
    let redecl = only(&diags, LintCode::ConfigRedecl);
    assert_eq!(redecl.len(), 1, "{diags:?}");
    let both = ctx
        .var("defined(CONFIG_A)")
        .and(&ctx.var("defined(CONFIG_B)"));
    assert_pc(&redecl[0], &both);
    assert!(redecl[0].message.contains('v'));
}

#[test]
fn disjoint_or_identical_redeclarations_are_fine() {
    let src = "\
#ifdef CONFIG_A
int v;
#else
long v;
#endif
int w;
int w;
";
    let (diags, _) = run(src);
    assert!(only(&diags, LintCode::ConfigRedecl).is_empty(), "{diags:?}");
}

// ---------------------------------------------------------------------
// partial-parse
// ---------------------------------------------------------------------

#[test]
fn parse_failures_carry_their_condition() {
    let src = "\
#ifdef CONFIG_BROKEN
int x = ;
#else
int x = 1;
#endif
";
    let (diags, ctx) = run(src);
    let partial = only(&diags, LintCode::PartialParse);
    assert_eq!(partial.len(), 1, "{diags:?}");
    assert_pc(&partial[0], &ctx.var("defined(CONFIG_BROKEN)"));
}

// ---------------------------------------------------------------------
// options, cleanliness, rendering
// ---------------------------------------------------------------------

#[test]
fn clean_code_produces_no_diagnostics() {
    let src = "\
#ifdef CONFIG_A
int a;
#else
long b;
#endif
int run(void) { return 0; }
";
    let (diags, _) = run(src);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn allow_suppresses_and_deny_escalates() {
    let src = "#ifdef TYPO_ONE\nint a;\n#endif\nint x;\n";
    let mut opts = LintOptions::default();
    opts.set_all(LintLevel::Allow);
    let (diags, _) = run_with(&[("main.c", src)], &opts);
    assert!(diags.is_empty(), "{diags:?}");

    let mut opts = LintOptions::default();
    opts.set_level(LintCode::UndefMacroTest, LintLevel::Deny);
    let (diags, _) = run_with(&[("main.c", src)], &opts);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].level, LintLevel::Deny);
    assert_eq!(diags[0].record().level, "deny");
}

#[test]
fn canonical_rendering_is_function_determined() {
    let ctx = CondCtx::new(CondBackend::Bdd);
    let a = ctx.var("defined(A)");
    let b = ctx.var("defined(B)");
    assert_eq!(canonical(&ctx.tru()), "true");
    assert_eq!(canonical(&ctx.fls()), "false");
    assert_eq!(canonical(&a.and(&b.not())), "defined(A) && !defined(B)");
    assert_eq!(
        canonical(&a.or(&b)),
        "defined(A) || !defined(A) && defined(B)"
    );
    // Creation order of the variables must not matter: rebuild with the
    // opposite order and compare.
    let ctx2 = CondCtx::new(CondBackend::Bdd);
    let b2 = ctx2.var("defined(B)");
    let a2 = ctx2.var("defined(A)");
    assert_eq!(canonical(&a2.or(&b2)), canonical(&a.or(&b)));
    assert_eq!(canonical(&a2.and(&b2.not())), canonical(&a.and(&b.not())));
}

#[test]
fn lint_codes_round_trip() {
    for code in LintCode::ALL {
        assert_eq!(LintCode::parse(code.as_str()), Some(code));
    }
    assert_eq!(LintCode::parse("nope"), None);
}

// ---------------------------------------------------------------------
// cross-profile diff
// ---------------------------------------------------------------------

/// `diff_profiles` over borrowed slices: all-equal slices emit nothing,
/// and one changed row still yields the record the full key-by-key
/// diff builds — including `<absent>` for a key one profile lacks.
#[test]
fn diff_profiles_over_borrowed_slices() {
    use crate::portability::{diff_profiles, PortEntry, PortKind};
    use crate::Record;

    let entry = |kind, key: &str, line, state: &str| PortEntry {
        kind,
        key: key.to_string(),
        file: "a.c".to_string(),
        line,
        col: 1,
        state: state.to_string(),
        cond: "defined(A)".to_string(),
    };
    let slice = vec![
        entry(
            PortKind::CondSite,
            "conditional at a.c:3:1",
            3,
            "defined(A)",
        ),
        entry(
            PortKind::Decl,
            "declaration of x",
            4,
            "`int x` when defined(A)",
        ),
    ];
    let names = ["p1", "p2", "p3"].map(str::to_string);
    let ctx = CondCtx::new(CondBackend::Bdd);
    let diff = |c: &[PortEntry]| {
        diff_profiles(&names, &[&slice, &slice, c], &LintOptions::default(), &ctx)
    };

    assert_eq!(diff(&slice), []);

    let mut changed = slice.clone();
    changed[0].state = "defined(B)".to_string();
    changed[0].cond = "defined(B)".to_string();
    assert_eq!(
        diff(&changed),
        [Record {
            code: "portability-divergent-condition",
            level: "warn",
            file: "a.c".to_string(),
            line: 3,
            col: 1,
            cond: "defined(A) || !defined(A) && defined(B)".to_string(),
            message: "conditional at a.c:3:1 differs across profiles: \
                      defined(A) under {p1, p2}; defined(B) under {p3}"
                .to_string(),
            profiles: "p1,p2,p3".to_string(),
        }]
    );

    let records = diff(&slice[..1]);
    assert_eq!(records.len(), 1, "{records:#?}");
    assert_eq!(records[0].code, "portability-divergent-decl");
    assert_eq!(
        records[0].message,
        "declaration of x differs across profiles: \
         `int x` when defined(A) under {p1, p2}; <absent> under {p3}"
    );
}
