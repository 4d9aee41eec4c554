//! The Arc-shared artifact layer: grammar tables, seeded token
//! classification, and context-plugin lookup tables are built **once
//! per process** and shared by every worker, while each worker keeps
//! its own mutable layer (BDD manager, interner, macro table, parser
//! engine). These tests pin down the split:
//!
//! * the LALR tables are constructed exactly once no matter how many
//!   pools, workers, or batches run (`tables_built` counter hook);
//! * the pooled [`CorpusRunner`] obeys the same byte-identity contract
//!   as the one-shot driver across the jobs × shared-cache matrix,
//!   including warm reruns on the same pool;
//! * a poisoned worker rebuilds only its mutable layer — the shared
//!   tables are not rebuilt, and the pool's subsequent output is
//!   unchanged;
//! * plain and cross-profile batches interleave on one pool (sharing
//!   each worker's tool for the pool's base profile) without either
//!   leaking state into the other, cold and warm, across an edit, and a
//!   same-named profile with other built-ins gets a tool of its own.

use std::sync::Arc;

use superc::analyze::LintOptions;
use superc::corpus::{
    process_corpus, process_corpus_profiles, Capture, CorpusOptions, CorpusReport, CorpusRunner,
};
use superc::{Builtins, FileSystem, MemFs, Options, PpOptions, Profile, SharedMemFs};
use superc_kernelgen::{generate, Corpus, CorpusSpec};

fn options() -> Options {
    Options {
        pp: PpOptions {
            profile: Profile::default(),
            ..PpOptions::default()
        },
        ..Options::default()
    }
}

fn copts() -> CorpusOptions {
    CorpusOptions {
        capture: Capture {
            preprocessed: false,
            ast: false,
            unparse_configs: vec![vec![], vec!["CONFIG_SMP".into(), "CONFIG_64BIT".into()]],
        },
        lint: Some(LintOptions::default()),
        ..CorpusOptions::default()
    }
}

/// Schedule-independent view of the per-unit preprocessor counters (the
/// cache/memo hit counters depend on which worker got somewhere first;
/// see `tests/parallel.rs`).
fn countable(pp: &superc::PpStats) -> superc::PpStats {
    superc::PpStats {
        lex_nanos: 0,
        lex_nanos_saved: 0,
        shared_cache_hits: 0,
        shared_cache_misses: 0,
        condexpr_memo_hits: 0,
        condexpr_memo_misses: 0,
        expansion_memo_hits: 0,
        ..*pp
    }
}

fn assert_reports_identical(base: &CorpusReport, other: &CorpusReport, label: &str) {
    assert_eq!(base.units.len(), other.units.len(), "{label}: unit count");
    for (b, o) in base.units.iter().zip(&other.units) {
        assert_eq!(b.path, o.path, "{label}: input order not preserved");
        assert_eq!(
            countable(&b.pp),
            countable(&o.pp),
            "{}: {label}: preprocessor counters",
            b.path
        );
        assert_eq!(b.parse, o.parse, "{}: {label}: parser counters", b.path);
        assert_eq!(b.parsed, o.parsed, "{}: {label}: parsed flag", b.path);
        assert_eq!(b.fatal, o.fatal, "{}: {label}: fatal", b.path);
        assert_eq!(b.lints, o.lints, "{}: {label}: lint records", b.path);
        assert_eq!(b.unparses, o.unparses, "{}: {label}: unparses", b.path);
    }
    assert_eq!(
        base.behavior_counters(),
        other.behavior_counters(),
        "{label}: behavior fingerprint"
    );
}

fn corpus() -> Corpus {
    generate(&CorpusSpec::small())
}

#[test]
fn parse_tables_are_built_exactly_once_per_process() {
    let corpus = corpus();
    let fs = Arc::new(corpus.fs.clone());
    // Several pools at several sizes, several batches per pool: every
    // worker's parser must share the process-wide tables rather than
    // building its own copy.
    for jobs in [1, 2, 8] {
        let mut pool = CorpusRunner::new(&options(), Arc::clone(&fs), jobs, false);
        for _ in 0..2 {
            let report = pool.run(&corpus.units, &copts());
            assert!(report.parsed_units() > 0, "jobs={jobs}: nothing parsed");
        }
    }
    assert_eq!(
        superc::grammar::tables_built(),
        1,
        "LALR tables must be constructed once per process, not per worker"
    );
}

#[test]
fn pooled_runs_match_across_jobs_and_cache_settings() {
    let corpus = corpus();
    let fs = Arc::new(corpus.fs.clone());
    let mut base_pool = CorpusRunner::new(&options(), Arc::clone(&fs), 1, false);
    let base = base_pool.run(&corpus.units, &copts());
    assert!(base.parsed_units() > 0, "corpus produced no ASTs");
    assert!(base.lint_count() > 0, "corpus produced no lint findings");
    for jobs in [1, 2, 8] {
        for no_cache in [false, true] {
            let mut pool = CorpusRunner::new(&options(), Arc::clone(&fs), jobs, no_cache);
            // Two batches per pool: the second run reuses warm workers
            // (hot L1 caches, grown interners) and must still be
            // byte-identical to the cold one-shot base.
            for pass in 0..2 {
                let report = pool.run(&corpus.units, &copts());
                let label = format!(
                    "jobs={jobs} cache={} pass={pass}",
                    if no_cache { "off" } else { "on" }
                );
                assert_reports_identical(&base, &report, &label);
            }
        }
    }
}

#[test]
fn poisoned_worker_rebuilds_only_the_mutable_layer() {
    let fs = Arc::new(
        MemFs::new()
            .file("a.c", "int a;\n")
            .file("poison.c", "int p;\n")
            .file("b.c", "int b;\n"),
    );
    let units = vec!["a.c".to_string(), "poison.c".to_string(), "b.c".to_string()];
    let mut pool = CorpusRunner::new(&Options::default(), Arc::clone(&fs), 2, false);

    let clean = pool.run(&units, &CorpusOptions::default());
    assert_eq!(clean.fatal_units(), 0);
    let built_before = superc::grammar::tables_built();

    // Poison one unit: the firewall converts the worker's panic into a
    // per-unit failure and rebuilds that worker's mutable layer.
    let poisoned = pool.run(
        &units,
        &CorpusOptions {
            inject_panic: vec!["poison.c".to_string()],
            ..CorpusOptions::default()
        },
    );
    assert_eq!(poisoned.fatal_units(), 1);
    assert!(poisoned.units[1].fatal.is_some(), "poisoned unit slot");
    assert_eq!(poisoned.parsed_units(), 2, "healthy units still parse");

    // The rebuild touched only the mutable layer: no new table build...
    assert_eq!(
        superc::grammar::tables_built(),
        built_before,
        "worker recovery must not rebuild the shared tables"
    );
    // ...and the recovered pool's next batch is byte-identical to the
    // pre-poisoning run.
    let after = pool.run(&units, &CorpusOptions::default());
    assert_reports_identical(&clean, &after, "post-recovery batch");
}

/// One pool alternates plain and cross-profile batches, cold and then
/// warm after a header edit. A plain batch runs on the same per-worker
/// tool as the grid's same-named profile, so each batch must still be
/// byte-identical to a fresh one-shot reference over the current tree.
#[test]
fn plain_and_grid_batches_interleave_on_one_pool() {
    let corpus = corpus();
    let header = corpus
        .fs
        .iter()
        .map(|(path, _)| path)
        .filter(|path| path.starts_with("include/"))
        .min()
        .expect("corpus has headers")
        .to_string();
    let profiles: Vec<Profile> = ["gcc-linux", "clang-macos", "msvc-windows"]
        .iter()
        .map(|n| Profile::named(n).expect("shipped profile"))
        .collect();
    assert_eq!(
        profiles[0],
        options().pp.profile,
        "the grid includes the pool's base profile"
    );
    let lopts = LintOptions::default();
    for jobs in [1, 2] {
        let fs = Arc::new(SharedMemFs::from_mem(&corpus.fs));
        let mut pool = CorpusRunner::new(&options(), Arc::clone(&fs), jobs, false);
        let mut cold_tokens = None;
        for warm in [false, true] {
            if warm {
                let old = fs.read(&header).expect("header exists");
                fs.set(
                    &header,
                    &format!(
                        "{old}\n#ifdef _WIN32\nint edited_win;\n#else\nint edited_posix;\n#endif\n"
                    ),
                );
            }
            let copts = CorpusOptions { warm, ..copts() };
            let plain_ref = process_corpus(&*fs, &corpus.units, &options(), &copts);
            let grid_ref =
                process_corpus_profiles(&*fs, &corpus.units, &options(), &profiles, &copts);
            match cold_tokens {
                None => cold_tokens = Some(plain_ref.pp.output_tokens),
                Some(cold) => assert_ne!(
                    cold, plain_ref.pp.output_tokens,
                    "jobs={jobs}: the header edit must change the output"
                ),
            }
            for pass in 0..2 {
                let label = format!("jobs={jobs} warm={warm} pass={pass}");
                let plain = pool.run(&corpus.units, &copts);
                assert_reports_identical(&plain_ref, &plain, &format!("{label} plain"));
                for (ru, pu) in plain_ref.units.iter().zip(&plain.units) {
                    assert_eq!(
                        ru.portability, pu.portability,
                        "{}: {label} plain: portability slice",
                        ru.path
                    );
                }

                let grid = pool.run_profiles(&corpus.units, &profiles, &copts);
                assert_eq!(
                    grid_ref.behavior_counters(),
                    grid.behavior_counters(),
                    "{label}: grid behavior fingerprints"
                );
                for (p, (r, g)) in grid_ref.runs.iter().zip(&grid.runs).enumerate() {
                    let label = format!("{label} grid profile {p}");
                    assert_reports_identical(r, g, &label);
                    for (ru, gu) in r.units.iter().zip(&g.units) {
                        assert_eq!(
                            ru.portability, gu.portability,
                            "{}: {label}: portability slice",
                            ru.path
                        );
                    }
                }
                assert_eq!(
                    grid_ref.lint_records(&lopts),
                    grid.lint_records(&lopts),
                    "{label}: merged lint records"
                );

                // The second warm pass replays from the memo: nothing
                // changed since the first warm pass of the same shape.
                if warm && pass == 1 {
                    assert!(plain.unit_memo_hits > 0, "{label}: plain replays");
                    assert!(grid.runs[0].unit_memo_hits > 0, "{label}: grid replays");
                }
            }
        }
    }
}

/// Workers key their tools by the whole profile: a pool whose base
/// profile shares its name with a grid profile but not its built-ins
/// must not run plain batches on the grid profile's tool.
#[test]
fn same_named_profiles_with_different_builtins_get_their_own_tools() {
    let fs = Arc::new(MemFs::new().file(
        "g.c",
        "#ifdef __GNUC__\nint gnu;\n#else\nint plain;\n#endif\n",
    ));
    let units = vec!["g.c".to_string()];
    let mut options = Options::default();
    options.pp.profile = Profile::gcc_linux().with_builtins(Builtins::none());
    let copts = CorpusOptions::default();
    let reference = process_corpus(&*fs, &units, &options, &copts);
    let mut pool = CorpusRunner::new(&options, fs, 1, false);
    pool.run_profiles(&units, &[Profile::gcc_linux()], &copts);
    let plain = pool.run(&units, &copts);
    assert_reports_identical(&reference, &plain, "plain batch after a same-named grid");
}
