//! Parallel corpus driver: parse many compilation units across worker
//! threads, deterministically.
//!
//! # One engine, two launchers
//!
//! Every run is a **task grid**: unit `u` under profile `p` is task
//! `t = p * units.len() + u`. A plain run is the grid with one profile,
//! `options.pp.profile`; a cross-profile run
//! ([`process_corpus_profiles`]) only adds rows. The engine has three
//! parts:
//!
//! - a `Batch`: the units, the profiles, the per-batch
//!   [`CorpusOptions`], one shared [`AtomicUsize`] cursor with its claim
//!   granularity (see `chunk_size`), and, in warm mode, the unit result
//!   memo with one options signature per profile;
//! - a per-thread `Worker`: one lazily built tool per profile and
//!   the one claim loop (memo lookup → panic firewall → memo store);
//! - `assemble`: task-indexed worker outputs back into one
//!   [`CorpusReport`] per profile, each in unit input order.
//!
//! Two thin launchers drive it. The **scoped** launcher behind
//! [`process_corpus`] and [`process_corpus_profiles`] spins workers up
//! and down per call over a borrowed `&F` — simple, and fine for
//! one-shot runs; a lone worker runs on the caller's thread. The
//! **pooled** launcher, [`CorpusRunner`], keeps its workers alive
//! across batches over an `Arc<F>`: each worker's tools (L1 header
//! cache, BDD manager, interner, parser engine) stay warm from batch to
//! batch, so repeated runs over the same tree — benchmark reps, a watch
//! loop, a daemon — skip the spin-up. A plain batch and a grid batch's
//! equal profile share one tool.
//!
//! # Threading model
//!
//! Workers claim chunks of consecutive task indices off the cursor
//! until the grid is exhausted. Chunking amortizes the cursor traffic
//! over several tasks; the chunks are small relative to the grid, so
//! slow units never stall the queue behind a fixed pre-partition,
//! profiles interleave instead of running one after another, and no
//! task is processed twice.
//!
//! What is *shared* read-only across workers — the immutable artifact
//! layer, built once per process:
//!
//! - the file tree (`F: FileSystem + Sync`, borrowed as `&F` by the
//!   scoped launcher or held as `Arc<F>` by a pool — file contents are
//!   `Arc<str>` handed out by reference-count bump);
//! - the parse artifacts (`superc_csyntax::c_artifacts` is a `OnceLock`
//!   static): the grammar's LALR action/goto tables behind
//!   `Arc<ParseTables>`, the keyword/punctuator classification seed,
//!   and the context plug-in's production tables;
//! - the [`Options`] (plain data, cloned once per tool);
//! - the **shared preprocessing cache** (`superc_cpp::SharedCache`,
//!   unless [`CorpusOptions::no_shared_cache`]): a map from a file's
//!   **content hash** to its frozen token stream, directive tree, and
//!   detected include guard, so each distinct file content is lexed
//!   once per *process* instead of once per *worker* or per profile
//!   (these are pre-expansion artifacts, identical under every
//!   profile). Content keying is also the invalidation story: an edited
//!   file hashes to a new key and misses naturally, which is what lets
//!   a pooled runner serve **warm re-runs** over an edited tree (see
//!   [`CorpusOptions::warm`] and the unit result memo below).
//!
//! What is *per-worker*, created inside each thread and never shared
//! (tools are `Rc`-based) — the mutable layer: the [`CondCtx`] (BDD
//! manager or SAT state), the symbol interner, the preprocessor's macro
//! table and L1 header cache, the conditional-expression memo, the
//! reusable `CParser` engine state, and all statistics. Workers
//! communicate only through the cursor, the shared cache's sharded
//! `RwLock`s (off the hot path: one probe per `#include`), and their
//! return values.
//!
//! # Incremental warm re-runs
//!
//! A pooled runner may legitimately see the file tree **edited between
//! batches** (never during one). Coherence is generation-based: every
//! batch starts a new shared-cache generation, so each worker's L1
//! entries and the shared path→hash memo revalidate against current
//! file bytes on first touch, and unchanged files keep their artifacts
//! while edited ones miss into a fresh lex.
//!
//! On top of that, [`CorpusOptions::warm`] enables the pool's **unit
//! result memo**: each completed unit is stored under its path, an
//! options/profile signature, and its include-closure dependency
//! fingerprint (the sorted `(path, content hash)` set the preprocessor
//! observed). A later warm batch revalidates the fingerprint — pure
//! hash-memo lookups, no lexing — and on a match replays the cached
//! [`UnitReport`] without scheduling any preprocessing, parsing, or
//! linting. Replayed reports are byte-identical to what a cold run
//! over the same tree would produce (that is gated in `tests/warm.rs`,
//! `bench_snapshot`, and verify.sh); only the schedule-dependent cache
//! gauges differ, and those are excluded from every determinism
//! surface. Units are **not** memoized when they tripped a resource
//! budget, failed, or panicked, and the memo is disabled entirely
//! without the shared cache (`no_shared_cache` pools instead drop
//! worker L1 caches at each batch boundary to stay edit-correct).
//!
//! # Determinism
//!
//! Each unit's result depends only on that unit's input: the FMLR engine
//! orders work by `(position, rank, seq)` — never by allocation order or
//! condition-handle identity — and semantic condition queries are
//! pure. Per-unit reports are keyed by input index and reassembled in
//! input order after the join, and every merged counter is a sum or max
//! (commutative + associative), so [`CorpusReport::units`] and the merged
//! preprocessor/parser counters are **byte-identical for any worker
//! count or schedule**. The documented exceptions are wall-clock fields
//! (`PpStats::lex_nanos`, phase timings), condition *display strings*,
//! and BDD/interner gauge totals — the latter two depend on the order a
//! worker's manager first met each variable; determinism tests therefore
//! compare configuration-restricted unparses and behavior counters, not
//! rendered conditions. `tests/parallel.rs` proves this for
//! `--jobs 1/2/8`.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Once};
use std::time::{Duration, Instant};

use superc_analyze::portability::{diff_profiles, sort_records, PortEntry, PortKind};
use superc_bdd::BddStats;
use superc_cond::{CondBackend, CondCtx, CondStats};
use superc_cpp::{FileSystem, PpStats, Profile, Severity, SharedCache};
use superc_csyntax::unparse_config;
use superc_fmlr::{BudgetTrip, ParseOutcome, ParseStats};

use crate::{Options, SuperC};

/// How many worker threads to use and what to capture per unit.
#[derive(Clone, Debug, Default)]
pub struct CorpusOptions {
    /// Worker threads; `0` means [`default_jobs`] (available parallelism).
    pub jobs: usize,
    /// Optional per-unit text captures (off by default — they cost
    /// allocation proportional to the corpus).
    pub capture: Capture,
    /// Run the variability lints over every unit (`None` = off). Lint
    /// records render conditions canonically, so they *are* part of the
    /// determinism contract, unlike raw condition display strings.
    pub lint: Option<superc_analyze::LintOptions>,
    /// Disable the process-wide shared preprocessing cache (the L2 of the
    /// two-level header cache; see `superc_cpp::SharedCache`). The cache
    /// only changes *which worker pays* the lexing cost for a shared
    /// header, never the output, so this exists as an escape hatch and a
    /// baseline for benchmarking, not a correctness knob.
    pub no_shared_cache: bool,
    /// Test hook for the per-unit panic firewall: units whose path is
    /// listed here panic inside the worker instead of being processed,
    /// exercising the `catch_unwind` + tool-rebuild recovery path that
    /// real poisoned units would take.
    pub inject_panic: Vec<String>,
    /// Capture each unit's **portability slice** — the plain-data
    /// [`PortEntry`] rows the cross-profile differ aligns (see
    /// `superc_analyze::portability`). [`process_corpus_profiles`]
    /// forces this on; it is available standalone for tests.
    pub portability: bool,
    /// Warm re-run mode (pooled runners only): consult the unit result
    /// memo before scheduling a worker, so units whose include-closure
    /// fingerprint and options signature match a previous batch replay
    /// their cached [`UnitReport`] without any preprocessing, parsing,
    /// or linting. Output is byte-identical to a cold run over the same
    /// tree. Ignored by [`process_corpus`] (its memo would never carry
    /// across calls) and a no-op when the shared cache is disabled.
    pub warm: bool,
}

/// Per-unit text captures for testing and inspection.
#[derive(Clone, Debug, Default)]
pub struct Capture {
    /// Capture the preprocessed unit rendered as `#if`-annotated text.
    ///
    /// Note: conditional rendering depends on per-worker variable order,
    /// so this text is *not* part of the determinism contract.
    pub preprocessed: bool,
    /// Capture the AST (with static choice nodes) rendered as text.
    /// Schedule-dependent for the same reason as `preprocessed`.
    pub ast: bool,
    /// For each listed configuration (a set of enabled `defined(...)`
    /// variables), capture the choice-node AST restricted to it via
    /// [`unparse_config`]. These strings *are* deterministic.
    pub unparse_configs: Vec<Vec<String>>,
}

/// The worker count used when [`CorpusOptions::jobs`] is `0`.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A structured record of a unit the pipeline could not process: either
/// a fatal preprocessor error or a panic caught by the per-unit firewall.
/// One poisoned unit becomes one of these rows instead of taking down a
/// worker (and with it the whole corpus run).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnitFailure {
    /// Pipeline stage that failed: `"preprocess"` for fatal preprocessor
    /// errors, `"panic"` for the firewall.
    pub stage: String,
    /// The error or panic message (deterministic for a given input).
    pub message: String,
}

/// Renders a budget trip for a [`UnitReport`], with the presence
/// condition in *canonical* form so the string is byte-identical across
/// worker counts and schedules (raw condition display is not).
pub fn render_trip(trip: &BudgetTrip) -> String {
    format!(
        "{} under {}",
        trip.describe(),
        superc_analyze::render::canonical(&trip.cond)
    )
}

/// The outcome of one compilation unit, reduced to thread-portable data
/// (the `Rc`-based AST and conditions stay inside the worker).
#[derive(Clone, Debug)]
pub struct UnitReport {
    /// The unit's path, as given.
    pub path: String,
    /// Source bytes lexed (main file plus headers, with repeats).
    pub bytes: u64,
    /// Preprocessor counters.
    pub pp: PpStats,
    /// Parser counters.
    pub parse: ParseStats,
    /// Per-phase wall-clock nanoseconds: lexing, preprocessing, parsing.
    pub phase_nanos: [u64; 3],
    /// Did some configuration accept?
    pub parsed: bool,
    /// Did a resource budget trip ([`ParseOutcome::Partial`])? The
    /// degraded configurations are in `degradations`.
    pub partial: bool,
    /// Rendered budget trips (canonical presence conditions; see
    /// [`render_trip`]), deterministic across schedules for the
    /// deterministic budgets.
    pub degradations: Vec<String>,
    /// Static choice nodes in the AST.
    pub choice_nodes: usize,
    /// Rendered per-configuration parse errors.
    pub errors: Vec<String>,
    /// Rendered preprocessor diagnostics of `Error` severity.
    pub diagnostics: Vec<String>,
    /// Lint findings, when [`CorpusOptions::lint`] is set (sorted and
    /// deterministic; see `superc_analyze`).
    pub lints: Vec<superc_analyze::Record>,
    /// The unit's portability slice, when [`CorpusOptions::portability`]
    /// is set (plain data, canonical condition strings — deterministic).
    /// Shared, not owned: a memo replay and the cross-profile merge
    /// bump a refcount instead of copying the rows.
    pub portability: Arc<[PortEntry]>,
    /// Fatal preprocessor failure, if the unit never reached the parser.
    pub fatal: Option<String>,
    /// Structured failure row (fatal preprocessor error or caught
    /// panic); `Some` exactly when the unit produced no parse at all.
    pub failure: Option<UnitFailure>,
    /// `#if`-annotated preprocessed text, when captured.
    pub preprocessed: Option<String>,
    /// Rendered AST, when captured (and the unit parsed).
    pub ast_text: Option<String>,
    /// AST restricted to each requested configuration, when captured
    /// (aligned with [`Capture::unparse_configs`]; empty string when the
    /// unit has no AST).
    pub unparses: Vec<String>,
    /// This report was replayed from the unit result memo (warm re-run)
    /// rather than recomputed. Outside the determinism contract — a
    /// warm run and a cold run differ only here and in the cache
    /// gauges.
    pub memo_hit: bool,
}

/// Corpus-level rollup: per-unit reports in **input order** plus merged
/// counters.
#[derive(Clone, Debug)]
pub struct CorpusReport {
    /// One report per input unit, in input order.
    pub units: Vec<UnitReport>,
    /// Preprocessor counters summed over units.
    pub pp: PpStats,
    /// Parser counters summed over units.
    pub parse: ParseStats,
    /// Condition-context counters summed over workers.
    pub cond: CondStats,
    /// BDD counters summed over workers (`None` under the SAT backend).
    pub bdd: Option<BddStats>,
    /// Worker threads actually used.
    pub workers: usize,
    /// End-to-end wall clock for the whole corpus.
    pub wall: Duration,
    /// Units replayed from the unit result memo (warm re-runs only).
    /// Like the shared-cache gauges, this measures work *saved* and is
    /// excluded from the determinism surfaces.
    pub unit_memo_hits: u64,
    /// Units that consulted the memo and had to be recomputed (edited
    /// closure, options change, or first sight).
    pub unit_memo_misses: u64,
    /// Files whose bytes were read and content-hashed during this run
    /// (hash-memo misses; at most once per file per batch).
    pub files_rehashed: u64,
}

impl CorpusReport {
    /// Units that produced an AST.
    pub fn parsed_units(&self) -> usize {
        self.units.iter().filter(|u| u.parsed).count()
    }

    /// Units that failed fatally in the preprocessor.
    pub fn fatal_units(&self) -> usize {
        self.units.iter().filter(|u| u.fatal.is_some()).count()
    }

    /// Units degraded by a resource budget ([`ParseOutcome::Partial`]).
    pub fn partial_units(&self) -> usize {
        self.units.iter().filter(|u| u.partial).count()
    }

    /// Units with a structured [`UnitFailure`] row (fatal error or
    /// firewalled panic).
    pub fn failed_units(&self) -> usize {
        self.units.iter().filter(|u| u.failure.is_some()).count()
    }

    /// Total lint findings across units (0 when linting was off).
    pub fn lint_count(&self) -> usize {
        self.units.iter().map(|u| u.lints.len()).sum()
    }

    /// Lint findings at `deny` level across units.
    pub fn lint_deny_count(&self) -> usize {
        self.units
            .iter()
            .flat_map(|u| &u.lints)
            .filter(|r| r.level == "deny")
            .count()
    }

    /// Corpus throughput in output tokens per wall-clock second.
    pub fn tokens_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.pp.output_tokens as f64 / secs
        }
    }

    /// Canonical rendering of the schedule-independent behavior counters.
    ///
    /// Two runs of the same corpus — any `jobs`, any interleaving — must
    /// produce byte-identical strings; `bench_snapshot` and
    /// `tests/parallel.rs` assert exactly that. Schedule-*dependent*
    /// gauges (BDD nodes, interner sizes, wall clock) are deliberately
    /// absent.
    pub fn behavior_counters(&self) -> String {
        format!(
            "units={} parsed={} fatal={} partial={} failed={} \
             output_tokens={} \
             output_conditionals={} conditionals_hoisted={} shifts={} \
             reduces={} forks={} merges={} choice_nodes={} \
             reclassify_forks={} budget_trips={} budget_killed={} \
             lints={}",
            self.units.len(),
            self.parsed_units(),
            self.fatal_units(),
            self.partial_units(),
            self.failed_units(),
            self.pp.output_tokens,
            self.pp.output_conditionals,
            self.pp.conditionals_hoisted,
            self.parse.shifts,
            self.parse.reduces,
            self.parse.forks,
            self.parse.merges,
            self.parse.choice_nodes,
            self.parse.reclassify_forks,
            self.parse.budget_trips,
            self.parse.budget_killed,
            self.lint_count(),
        )
    }
}

/// Parses every unit of a corpus, fanning out over worker threads.
///
/// `units` are paths into `fs`. The report's `units` come back in input
/// order regardless of scheduling; see the module docs for the
/// determinism contract. `jobs = 0` uses [`default_jobs`], and the
/// worker count is additionally capped at the unit count.
///
/// # Examples
///
/// ```
/// use superc::corpus::{process_corpus, CorpusOptions};
/// use superc::{MemFs, Options};
///
/// let fs = MemFs::new()
///     .file("a.c", "int a;\n")
///     .file("b.c", "#ifdef CONFIG_B\nint b;\n#endif\n");
/// let units = ["a.c".to_string(), "b.c".to_string()];
/// let report = process_corpus(&fs, &units, &Options::default(), &CorpusOptions::default());
/// assert_eq!(report.parsed_units(), 2);
/// assert_eq!(report.units[1].path, "b.c"); // input order, not finish order
/// ```
pub fn process_corpus<F: FileSystem + Sync>(
    fs: &F,
    units: &[String],
    options: &Options,
    copts: &CorpusOptions,
) -> CorpusReport {
    let profiles = [options.pp.profile.clone()];
    run_scoped(fs, units, options, &profiles, copts.clone())
        .pop()
        .expect("one profile, one report")
}

/// The cross-profile corpus rollup: one [`CorpusReport`] per profile,
/// parallel to `profiles` and each in unit input order, sharing one
/// wall clock (the runs are interleaved over one worker pool, not
/// sequential).
#[derive(Clone, Debug)]
pub struct ProfilesReport {
    /// Profile names, in run order (the order given to
    /// [`process_corpus_profiles`]).
    pub profiles: Vec<String>,
    /// One full corpus report per profile, parallel to `profiles`.
    pub runs: Vec<CorpusReport>,
    /// Worker threads actually used (shared across all profiles).
    pub workers: usize,
    /// End-to-end wall clock for the whole cross-profile run.
    pub wall: Duration,
}

impl ProfilesReport {
    fn new(profiles: &[Profile], runs: Vec<CorpusReport>) -> ProfilesReport {
        ProfilesReport {
            profiles: profiles.iter().map(|p| p.name.clone()).collect(),
            workers: runs[0].workers,
            wall: runs[0].wall,
            runs,
        }
    }

    /// Units with a fatal failure under *any* profile.
    pub fn fatal_units(&self) -> usize {
        let n_units = self.runs.first().map_or(0, |r| r.units.len());
        (0..n_units)
            .filter(|&u| self.runs.iter().any(|r| r.units[u].fatal.is_some()))
            .count()
    }

    /// Per-profile behavior counters, one line each (`name: counters`).
    /// Byte-identical for any worker count or schedule, like
    /// [`CorpusReport::behavior_counters`].
    pub fn behavior_counters(&self) -> String {
        self.profiles
            .iter()
            .zip(&self.runs)
            .map(|(name, run)| format!("{name}: {}", run.behavior_counters()))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Merges the per-profile runs into one deterministic lint report:
    ///
    /// * ordinary lint records that are byte-identical across profiles
    ///   collapse into one row stamped with the profile set they fired
    ///   under (in run order);
    /// * each unit's per-profile portability slices are diffed by
    ///   [`diff_profiles`] into the `portability-*` records, with a
    ///   synthetic row per fatal unit so a unit that dies under only
    ///   some profiles surfaces as a divergence;
    /// * everything is sorted by [`sort_records`]'s total order.
    ///
    /// Conditions cross profiles as canonical strings and are re-ORed in
    /// a scratch BDD context, so the result is byte-identical for any
    /// `jobs`, cache, or fast-path setting.
    pub fn lint_records(&self, opts: &superc_analyze::LintOptions) -> Vec<superc_analyze::Record> {
        type Key = (&'static str, &'static str, String, u32, u32, String, String);
        let mut merged: BTreeMap<Key, Vec<usize>> = BTreeMap::new();
        for (p, run) in self.runs.iter().enumerate() {
            for unit in &run.units {
                for r in &unit.lints {
                    let key = (
                        r.code,
                        r.level,
                        r.file.clone(),
                        r.line,
                        r.col,
                        r.cond.clone(),
                        r.message.clone(),
                    );
                    let ps = merged.entry(key).or_default();
                    if ps.last() != Some(&p) {
                        ps.push(p);
                    }
                }
            }
        }
        let mut out: Vec<superc_analyze::Record> = merged
            .into_iter()
            .map(|((code, level, file, line, col, cond, message), ps)| {
                let profiles = ps
                    .iter()
                    .map(|&p| self.profiles[p].as_str())
                    .collect::<Vec<_>>()
                    .join(",");
                superc_analyze::Record {
                    code,
                    level,
                    file,
                    line,
                    col,
                    cond,
                    message,
                    profiles,
                }
            })
            .collect();

        // Portability diffs, one unit at a time. Conditions are lifted
        // from canonical strings into a scratch context to OR them.
        let ctx = CondCtx::new(CondBackend::Bdd);
        let n_units = self.runs.first().map_or(0, |r| r.units.len());
        for u in 0..n_units {
            // Slices are borrowed; only a failed unit builds an owned
            // copy, to carry its synthetic fatal row.
            let fatal: Vec<Option<Vec<PortEntry>>> = self
                .runs
                .iter()
                .map(|run| {
                    let unit = &run.units[u];
                    unit.failure.as_ref().map(|f| {
                        // A unit fatal under this profile only is the
                        // bluntest divergence; give it a row to diff.
                        let mut slice = unit.portability.to_vec();
                        slice.push(PortEntry {
                            kind: PortKind::Diag,
                            key: format!("unit {}: fatal {}", unit.path, f.stage),
                            file: unit.path.clone(),
                            line: 0,
                            col: 0,
                            state: f.message.clone(),
                            cond: "true".to_string(),
                        });
                        slice
                    })
                })
                .collect();
            let slices: Vec<&[PortEntry]> = self
                .runs
                .iter()
                .zip(&fatal)
                .map(|(run, f)| f.as_deref().unwrap_or(&run.units[u].portability))
                .collect();
            out.extend(diff_profiles(&self.profiles, &slices, opts, &ctx));
        }
        sort_records(&mut out);
        out
    }
}

/// Parses every unit of a corpus under every [`Profile`], fanning the
/// `units × profiles` task grid out over one set of workers.
///
/// Profile runs are scheduled like extra units (see the module docs):
/// workers interleave profiles instead of running them sequentially,
/// and a slow unit under one profile never stalls the others. Each
/// worker builds a tool only for the profiles it actually claims tasks
/// of, and all tools share one L2 preprocessing cache: frozen token
/// streams, directive trees, and guards are pre-expansion artifacts,
/// identical under every profile.
///
/// [`CorpusOptions::portability`] is forced on — the per-unit slices
/// are what [`ProfilesReport::lint_records`] diffs. The determinism
/// contract of [`process_corpus`] carries over per profile run.
pub fn process_corpus_profiles<F: FileSystem + Sync>(
    fs: &F,
    units: &[String],
    options: &Options,
    profiles: &[Profile],
    copts: &CorpusOptions,
) -> ProfilesReport {
    assert!(!profiles.is_empty(), "at least one profile");
    let copts = CorpusOptions {
        portability: true,
        ..copts.clone()
    };
    ProfilesReport::new(profiles, run_scoped(fs, units, options, profiles, copts))
}

/// Cursor claim granularity: a worker claims this many consecutive
/// tasks per atomic increment. One claim per task is wasted traffic on
/// big corpora; claims that are too coarse re-create the pre-partition
/// stall this queue exists to avoid. A target of ~8 claims per worker
/// keeps the tail balanced, and a single worker just takes the whole
/// grid in one claim.
fn chunk_size(n_tasks: usize, workers: usize) -> usize {
    if workers <= 1 {
        n_tasks.max(1)
    } else {
        (n_tasks / (workers * 8)).clamp(1, 32)
    }
}

/// The process-wide unit result memo behind warm re-runs: completed
/// [`UnitReport`]s keyed by `(unit path, options signature)`, each
/// guarded by the include-closure dependency fingerprint recorded when
/// it was produced. A lookup revalidates every dependency's current
/// content hash (cheap: per-generation hash-memo probes) and replays
/// the stored report only on a full match, so any edit inside the
/// unit's closure — or a change to anything the signature covers —
/// falls through to a real run. Entries overwrite on re-store, so an
/// edited unit's fresh result replaces its stale one.
///
/// Fingerprints carry both halves of include resolution: the files
/// that **were** read (path, content hash) and the probe paths that
/// **failed** (`Preprocessor::unit_neg_deps`). A lookup misses when
/// any positive dependency's hash changed *or* any formerly-absent
/// probe path now exists — creating a file that shadows a header
/// earlier on the include path invalidates exactly the units whose
/// resolution walked past that path.
struct UnitMemo {
    entries: std::sync::RwLock<superc_util::FastMap<(String, u64), Arc<MemoEntry>>>,
}

struct MemoEntry {
    /// Sorted `(path, content hash)` include closure at store time.
    deps: Vec<(String, u64)>,
    /// Sorted failed include-resolution probe paths at store time: the
    /// entry is only valid while every one of them stays absent.
    neg_deps: Vec<String>,
    report: UnitReport,
}

impl UnitMemo {
    fn new() -> UnitMemo {
        UnitMemo {
            entries: std::sync::RwLock::new(superc_util::FastMap::default()),
        }
    }

    /// Replays the stored report for `(path, sig)` if every recorded
    /// dependency still has its recorded content hash and every
    /// recorded failed probe path is still absent.
    fn lookup(
        &self,
        path: &str,
        sig: u64,
        dep_hash: &dyn Fn(&str) -> Option<u64>,
    ) -> Option<UnitReport> {
        let entry = self
            .entries
            .read()
            .expect("unit memo poisoned")
            .get(&(path.to_string(), sig))
            .cloned()?;
        for (p, h) in &entry.deps {
            if dep_hash(p) != Some(*h) {
                return None;
            }
        }
        for p in &entry.neg_deps {
            // A formerly-failed probe that now resolves means include
            // resolution would take a different path (a shadowing
            // header appeared): the stored report is stale.
            if dep_hash(p).is_some() {
                return None;
            }
        }
        let mut report = entry.report.clone();
        report.memo_hit = true;
        Some(report)
    }

    /// Stores a completed unit. Bypassed for units with no recorded
    /// fingerprint (no shared cache), budget-degraded units (wall-clock
    /// budgets make their outcome schedule-dependent), and failed or
    /// panicked units — those recompute every time.
    fn store(
        &self,
        path: &str,
        sig: u64,
        deps: Vec<(String, u64)>,
        neg_deps: Vec<String>,
        report: &UnitReport,
    ) {
        if deps.is_empty()
            || report.partial
            || report.parse.budget_trips > 0
            || report.failure.is_some()
        {
            return;
        }
        self.entries.write().expect("unit memo poisoned").insert(
            (path.to_string(), sig),
            Arc::new(MemoEntry {
                deps,
                neg_deps,
                report: report.clone(),
            }),
        );
    }
}

/// The options/profile signature a memo entry is stored under: an
/// FxHash over the debug rendering of everything that can change a
/// unit's output — backend, parser config (fast path, budgets), all
/// preprocessor options (profile, defines, include paths, fused
/// lexing, single-config mode), resource budgets, and the per-batch
/// capture/lint/portability/panic-injection options. Two batches whose
/// signatures match would produce byte-identical reports for an
/// unchanged unit.
fn options_sig(options: &Options, copts: &CorpusOptions) -> u64 {
    use std::hash::BuildHasher;
    let desc = format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        options.backend,
        options.parser,
        options.pp,
        options.budgets,
        copts.capture,
        copts.lint,
        copts.portability,
        copts.inject_panic,
    );
    superc_util::FxBuildHasher::default().hash_one(desc.as_bytes())
}

/// One batch of the task grid: task `t` is unit `t % units.len()` under
/// profile `t / units.len()`. Shared by every worker of the batch —
/// borrowed by the scoped launcher, behind an `Arc` in a pool.
struct Batch {
    units: Vec<String>,
    profiles: Vec<Profile>,
    copts: CorpusOptions,
    workers: usize,
    cursor: AtomicUsize,
    chunk: usize,
    /// Warm mode: the pool's unit result memo and one options signature
    /// per profile (the profile is part of the signature).
    memo: Option<(Arc<UnitMemo>, Vec<u64>)>,
}

impl Batch {
    /// A batch over `jobs` requested workers (`0` = [`default_jobs`]),
    /// capped at the task count.
    fn new(
        units: &[String],
        profiles: &[Profile],
        copts: CorpusOptions,
        jobs: usize,
        memo: Option<(Arc<UnitMemo>, Vec<u64>)>,
    ) -> Batch {
        let n_tasks = units.len() * profiles.len();
        let jobs = if jobs == 0 { default_jobs() } else { jobs };
        let workers = jobs.min(n_tasks).max(1);
        Batch {
            units: units.to_vec(),
            profiles: profiles.to_vec(),
            copts,
            workers,
            cursor: AtomicUsize::new(0),
            chunk: chunk_size(n_tasks, workers),
            memo,
        }
    }
}

/// One worker's share of a batch: its task-indexed reports plus gauges.
struct WorkerOutput {
    units: Vec<(usize, UnitReport)>,
    cond: CondStats,
    bdd: Option<BddStats>,
    memo_hits: u64,
    memo_misses: u64,
}

/// One worker's mutable layer: a tool per profile, built lazily on the
/// first task of that profile (a worker that never claims an
/// `msvc-windows` task never pays for its tool) over the shared tree
/// and attached to the shared L2 cache. Tools are `Rc`-based, so a
/// `Worker` is built inside its own thread. A pooled worker keeps its
/// tools warm across batches; a plain batch and a grid batch's equal
/// profile share one tool.
struct Worker<G: FileSystem> {
    options: Options,
    fs: G,
    shared: Option<Arc<SharedCache>>,
    /// Keyed by the whole profile, not its name: a caller may build a
    /// same-named profile with different built-ins.
    tools: Vec<(Profile, SuperC<G>)>,
}

impl<G: FileSystem + Clone> Worker<G> {
    fn new(options: Options, fs: G, shared: Option<Arc<SharedCache>>) -> Self {
        Worker {
            options,
            fs,
            shared,
            tools: Vec::new(),
        }
    }

    /// A fresh tool for `profile`: only the mutable layer (BDD manager,
    /// interner, macro table, L1 cache, engine state) is new; the shared
    /// artifacts and the L2 cache are reused.
    fn build(&self, profile: &Profile) -> SuperC<G> {
        let mut options = self.options.clone();
        options.pp.profile = profile.clone();
        let mut tool = SuperC::new(options, self.fs.clone());
        if let Some(cache) = &self.shared {
            tool.set_shared_cache(cache.clone());
        }
        tool
    }

    /// The claim loop: pull chunks of tasks off the batch cursor until
    /// the grid is exhausted. In warm mode each task first consults the
    /// result memo — a hit replays the cached report and skips the
    /// pipeline — and each recomputed unit is stored back with the
    /// include-closure fingerprint the preprocessor just observed.
    ///
    /// A panic inside the pipeline becomes a structured failure row
    /// instead of unwinding through the thread join, and since the tool
    /// may hold arbitrary mid-unit state, that profile's tool is rebuilt.
    fn run(&mut self, batch: &Batch) -> WorkerOutput {
        let n_units = batch.units.len();
        let n_tasks = n_units * batch.profiles.len();
        let mut out = WorkerOutput {
            units: Vec::new(),
            cond: CondStats::default(),
            bdd: None,
            memo_hits: 0,
            memo_misses: 0,
        };
        loop {
            let base = batch.cursor.fetch_add(batch.chunk, Ordering::Relaxed);
            if base >= n_tasks {
                break;
            }
            for t in base..(base + batch.chunk).min(n_tasks) {
                let (p, path) = (t / n_units, &batch.units[t % n_units]);
                let profile = &batch.profiles[p];
                let memo = batch.memo.as_ref().map(|(memo, sigs)| (memo, sigs[p]));
                let slot = match self.tools.iter().position(|(q, _)| q == profile) {
                    Some(slot) => slot,
                    None => {
                        self.tools.push((profile.clone(), self.build(profile)));
                        self.tools.len() - 1
                    }
                };
                let tool = &mut self.tools[slot].1;
                if let Some((memo, sig)) = memo {
                    if let Some(hit) = memo.lookup(path, sig, &|q| tool.preprocessor().dep_hash(q))
                    {
                        out.memo_hits += 1;
                        out.units.push((t, hit));
                        continue;
                    }
                    out.memo_misses += 1;
                }
                let report = match firewalled(|| process_one(tool, path, &batch.copts)) {
                    Ok(report) => {
                        if let Some((memo, sig)) = memo {
                            let pp = tool.preprocessor();
                            memo.store(path, sig, pp.unit_deps(), pp.unit_neg_deps(), &report);
                        }
                        report
                    }
                    Err(message) => {
                        self.tools[slot].1 = self.build(profile);
                        UnitReport::failed(path, "panic", &format!("panic: {message}"))
                    }
                };
                out.units.push((t, report));
            }
        }
        // Cond/BDD gauges span every tool this worker holds and, in a
        // pool, its whole lifetime (the managers persist across
        // batches); they are outside the determinism contract either way.
        for (_, tool) in &self.tools {
            out.cond.merge(&tool.ctx().stats());
            if let Some(b) = tool.ctx().bdd_stats() {
                out.bdd.get_or_insert_with(BddStats::default).merge(&b);
            }
        }
        out
    }
}

/// Splits task-indexed worker outputs back into one report per profile,
/// each in unit input order: every task was claimed exactly once, and
/// every merged counter is a sum or max, so the result is
/// schedule-independent. Context gauges, memo counters, and
/// `files_rehashed` are per-worker or per-batch and span all profiles,
/// so they land on profile 0's run (they are outside the determinism
/// contract either way); the per-profile preprocessor/parser counters
/// are exact sums over that profile's units.
fn assemble(
    batch: &Batch,
    outputs: Vec<WorkerOutput>,
    wall: Duration,
    files_rehashed: u64,
) -> Vec<CorpusReport> {
    let n_units = batch.units.len();
    let mut slots: Vec<Option<UnitReport>> =
        (0..n_units * batch.profiles.len()).map(|_| None).collect();
    let mut cond = CondStats::default();
    let mut bdd: Option<BddStats> = None;
    let (mut memo_hits, mut memo_misses) = (0, 0);
    for out in outputs {
        for (t, report) in out.units {
            debug_assert!(slots[t].is_none(), "task {t} claimed twice");
            slots[t] = Some(report);
        }
        cond.merge(&out.cond);
        if let Some(b) = out.bdd {
            bdd.get_or_insert_with(BddStats::default).merge(&b);
        }
        memo_hits += out.memo_hits;
        memo_misses += out.memo_misses;
    }
    let mut slots = slots.into_iter();
    (0..batch.profiles.len())
        .map(|p| {
            let units: Vec<UnitReport> = (&mut slots)
                .take(n_units)
                .map(|s| s.expect("every task claimed"))
                .collect();
            let mut pp = PpStats::default();
            let mut parse = ParseStats::default();
            for u in &units {
                pp.merge(&u.pp);
                parse.merge(&u.parse);
            }
            let first = p == 0;
            CorpusReport {
                units,
                pp,
                parse,
                cond: if first { cond } else { CondStats::default() },
                bdd: if first { bdd } else { None },
                workers: batch.workers,
                wall,
                unit_memo_hits: if first { memo_hits } else { 0 },
                unit_memo_misses: if first { memo_misses } else { 0 },
                files_rehashed: if first { files_rehashed } else { 0 },
            }
        })
        .collect()
}

/// The scoped launcher behind [`process_corpus`] and
/// [`process_corpus_profiles`]: one batch over a borrowed tree, with
/// workers spun up and torn down inside the call and no memo (it would
/// never carry across calls).
fn run_scoped<F: FileSystem + Sync>(
    fs: &F,
    units: &[String],
    options: &Options,
    profiles: &[Profile],
    copts: CorpusOptions,
) -> Vec<CorpusReport> {
    // One shared artifact cache for the whole call; every worker gets a
    // clone of the same `Arc`. The cache is content-hash keyed (see
    // `superc_cpp::sharedcache` for the invalidation protocol), but a
    // one-shot run never leaves its first generation: files only change
    // at batch boundaries, and this launcher runs exactly one batch.
    let shared: Option<Arc<SharedCache>> =
        (!copts.no_shared_cache).then(|| Arc::new(SharedCache::new()));
    let start = Instant::now();
    let jobs = copts.jobs;
    let batch = Batch::new(units, profiles, copts, jobs, None);
    let work = || Worker::new(options.clone(), fs, shared.clone()).run(&batch);
    let outputs: Vec<WorkerOutput> = if batch.workers == 1 {
        // A lone worker stays on the caller's thread (and its stack).
        vec![work()]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..batch.workers).map(|_| s.spawn(work)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("corpus worker panicked"))
                .collect()
        })
    };
    let wall = start.elapsed();
    let files_rehashed = shared.as_ref().map_or(0, |s| s.rehashes());
    assemble(&batch, outputs, wall, files_rehashed)
}

/// A persistent pool of corpus workers, reused across batches.
///
/// [`process_corpus`] builds its mutable layer (per-worker BDD manager,
/// interner, caches, parser engine) from scratch on every call and
/// tears it down at the end. For callers that run the same tree many
/// times — benchmark repetitions, jobs ladders, watch loops — a
/// `CorpusRunner` keeps the workers (and their warm caches) alive:
/// spawn once, [`CorpusRunner::run`] per batch.
///
/// The worker count and the shared-cache policy are **pool-level**
/// choices fixed at construction; [`CorpusOptions::jobs`] and
/// [`CorpusOptions::no_shared_cache`] on a batch's options are ignored
/// by [`CorpusRunner::run`]. Per-batch capture/lint/panic-injection
/// options apply normally. The determinism contract is identical to
/// [`process_corpus`]: per-unit reports and merged behavior counters
/// are byte-identical for any pool size, batch split, or schedule.
///
/// # Examples
///
/// ```
/// use superc::corpus::{CorpusOptions, CorpusRunner};
/// use superc::{MemFs, Options};
/// use std::sync::Arc;
///
/// let fs = Arc::new(MemFs::new().file("a.c", "int a;\n"));
/// let units = vec!["a.c".to_string()];
/// let mut pool = CorpusRunner::new(&Options::default(), fs, 2, false);
/// let first = pool.run(&units, &CorpusOptions::default());
/// let again = pool.run(&units, &CorpusOptions::default()); // warm workers
/// assert_eq!(first.behavior_counters(), again.behavior_counters());
/// ```
pub struct CorpusRunner<F: FileSystem + Send + Sync + 'static> {
    jobs: usize,
    txs: Vec<mpsc::Sender<(Arc<Batch>, mpsc::Sender<WorkerOutput>)>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    /// The pool-wide L2 cache (`None` for `no_shared_cache` pools); the
    /// runner bumps its generation at every batch boundary so workers
    /// revalidate against possibly-edited file bytes.
    shared: Option<Arc<SharedCache>>,
    /// The pool's unit result memo, filled and consulted by warm
    /// batches ([`CorpusOptions::warm`]).
    memo: Arc<UnitMemo>,
    /// The pool's base options: the profile of plain batches, and the
    /// rest of every batch's memo signatures.
    options: Options,
    _fs: std::marker::PhantomData<F>,
}

impl<F: FileSystem + Send + Sync + 'static> CorpusRunner<F> {
    /// Spawns a pool of `jobs` workers (`0` means [`default_jobs`]) over
    /// `fs`, all attached to one pool-wide shared L2 cache unless
    /// `no_shared_cache`. Each worker builds a tool the first time it
    /// claims a task of that profile, and keeps it across batches.
    pub fn new(options: &Options, fs: Arc<F>, jobs: usize, no_shared_cache: bool) -> Self {
        let jobs = if jobs == 0 { default_jobs() } else { jobs };
        let shared: Option<Arc<SharedCache>> =
            (!no_shared_cache).then(|| Arc::new(SharedCache::new()));
        let mut txs = Vec::with_capacity(jobs);
        let mut handles = Vec::with_capacity(jobs);
        for _ in 0..jobs {
            let (tx, rx) = mpsc::channel::<(Arc<Batch>, mpsc::Sender<WorkerOutput>)>();
            let options = options.clone();
            let fs = fs.clone();
            let shared = shared.clone();
            handles.push(std::thread::spawn(move || {
                let mut worker = Worker::new(options, fs, shared);
                while let Ok((batch, done)) = rx.recv() {
                    // Without a shared cache there is no generation
                    // protocol, so the only edit-correct stance for a
                    // pool that may see the tree change between batches
                    // is to drop every worker's L1 header cache at the
                    // boundary. Output-neutral: an L1 hit and a fresh
                    // lex credit files/bytes identically.
                    if worker.shared.is_none() {
                        for (_, tool) in &mut worker.tools {
                            tool.invalidate_file_cache();
                        }
                    }
                    let _ = done.send(worker.run(&batch));
                }
            }));
            txs.push(tx);
        }
        CorpusRunner {
            jobs,
            txs,
            handles,
            shared,
            memo: Arc::new(UnitMemo::new()),
            options: options.clone(),
            _fs: std::marker::PhantomData,
        }
    }

    /// The pool's worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The pool-wide shared L2 cache, when the pool has one. Exposed so
    /// tests and benchmarks can read its gauges (`rehashes`,
    /// `duplicate_freezes`, entry count).
    pub fn shared_cache(&self) -> Option<&Arc<SharedCache>> {
        self.shared.as_ref()
    }

    /// Runs one batch over the pool and reassembles the report in input
    /// order. Batches beyond the first reuse warm workers; a batch
    /// smaller than the pool leaves the excess workers idle.
    pub fn run(&mut self, units: &[String], copts: &CorpusOptions) -> CorpusReport {
        let profiles = [self.options.pp.profile.clone()];
        self.launch(units, &profiles, copts.clone())
            .pop()
            .expect("one profile, one report")
    }

    /// Runs one cross-profile batch over the pool: the task grid and
    /// determinism contract of [`process_corpus_profiles`], the warm
    /// workers of a pool. Each worker keeps one tool per profile it has
    /// touched alive across batches, so a profiles ladder (benchmark
    /// reps, a test matrix) pays the per-profile spin-up once.
    pub fn run_profiles(
        &mut self,
        units: &[String],
        profiles: &[Profile],
        copts: &CorpusOptions,
    ) -> ProfilesReport {
        assert!(!profiles.is_empty(), "at least one profile");
        let copts = CorpusOptions {
            portability: true,
            ..copts.clone()
        };
        ProfilesReport::new(profiles, self.launch(units, profiles, copts))
    }

    /// The pooled launcher: one batch over the pool's workers.
    ///
    /// The batch starts a new shared-cache generation, so every worker
    /// revalidates its cached view of the (possibly edited) file tree,
    /// and records the rehash baseline for the batch's `files_rehashed`
    /// gauge. Warm batches sweep dead artifacts out of the L2 at the end
    /// (cold pools churn no hashes, so the sweep would be pure overhead).
    fn launch(
        &mut self,
        units: &[String],
        profiles: &[Profile],
        copts: CorpusOptions,
    ) -> Vec<CorpusReport> {
        let start = Instant::now();
        let rehash_base = self.shared.as_ref().map_or(0, |s| {
            s.next_generation();
            s.rehashes()
        });
        let warm = copts.warm && self.shared.is_some();
        let memo = warm.then(|| {
            let sigs = profiles
                .iter()
                .map(|p| {
                    let mut options = self.options.clone();
                    options.pp.profile = p.clone();
                    options_sig(&options, &copts)
                })
                .collect();
            (self.memo.clone(), sigs)
        });
        let batch = Arc::new(Batch::new(units, profiles, copts, self.jobs, memo));
        let (done_tx, done_rx) = mpsc::channel();
        for tx in self.txs.iter().take(batch.workers) {
            tx.send((batch.clone(), done_tx.clone()))
                .expect("pool worker alive");
        }
        drop(done_tx);
        let outputs: Vec<WorkerOutput> = done_rx.iter().collect();
        assert_eq!(outputs.len(), batch.workers, "pool worker died mid-batch");
        let wall = start.elapsed();
        let files_rehashed = self.shared.as_ref().map_or(0, |s| {
            let rehashed = s.rehashes() - rehash_base;
            if warm {
                s.sweep();
            }
            rehashed
        });
        assemble(&batch, outputs, wall, files_rehashed)
    }
}

impl<F: FileSystem + Send + Sync + 'static> Drop for CorpusRunner<F> {
    fn drop(&mut self) {
        // Closing the channels ends each worker's `recv` loop.
        self.txs.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

thread_local! {
    /// True while this thread is inside the firewall — the panic hook
    /// stays quiet so an expected, recovered panic does not spray a
    /// backtrace over the corpus output.
    static FIREWALLED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Runs `f` under `catch_unwind`, suppressing the default panic hook for
/// the duration and reducing any panic payload to its message.
fn firewalled<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !FIREWALLED.with(|b| b.get()) {
                previous(info);
            }
        }));
    });
    FIREWALLED.with(|b| b.set(true));
    let result = catch_unwind(AssertUnwindSafe(f));
    FIREWALLED.with(|b| b.set(false));
    result.map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

impl UnitReport {
    /// A report for a unit that produced nothing: fatal preprocessor
    /// error or firewalled panic. Counters stay zero; the failure is
    /// carried both in `fatal` (legacy surface) and as a structured
    /// [`UnitFailure`] row.
    fn failed(path: &str, stage: &str, message: &str) -> UnitReport {
        UnitReport {
            path: path.to_string(),
            bytes: 0,
            pp: PpStats::default(),
            parse: ParseStats::default(),
            phase_nanos: [0; 3],
            parsed: false,
            partial: false,
            degradations: Vec::new(),
            choice_nodes: 0,
            errors: Vec::new(),
            diagnostics: Vec::new(),
            lints: Vec::new(),
            portability: Arc::default(),
            fatal: Some(message.to_string()),
            failure: Some(UnitFailure {
                stage: stage.to_string(),
                message: message.to_string(),
            }),
            preprocessed: None,
            ast_text: None,
            unparses: Vec::new(),
            memo_hit: false,
        }
    }
}

fn process_one<F: FileSystem>(
    tool: &mut SuperC<F>,
    path: &str,
    copts: &CorpusOptions,
) -> UnitReport {
    if copts.inject_panic.iter().any(|p| p == path) {
        panic!("injected panic for firewall testing: {path}");
    }
    let processed = match tool.process(path) {
        Ok(p) => p,
        Err(e) => return UnitReport::failed(path, "preprocess", &e.to_string()),
    };

    // Lint immediately: the macro table is per-unit preprocessor state
    // and would be reset by this worker's next unit.
    let lints = match &copts.lint {
        Some(lopts) => tool
            .lint(&processed, lopts)
            .iter()
            .map(|d| d.record())
            .collect(),
        None => Vec::new(),
    };
    // Same per-unit constraint applies to the portability slice (it
    // reads the macro table's definedness conditions).
    let portability = if copts.portability {
        tool.portability_slice(&processed).into()
    } else {
        Arc::default()
    };

    let preprocessed = copts
        .capture
        .preprocessed
        .then(|| processed.unit.display_text());
    let ast_text = if copts.capture.ast {
        processed.result.ast.as_ref().map(|a| a.to_string())
    } else {
        None
    };
    let unparses = copts
        .capture
        .unparse_configs
        .iter()
        .map(|enabled| match &processed.result.ast {
            Some(ast) => {
                let env = |name: &str| {
                    let bare = name
                        .strip_prefix("defined(")
                        .and_then(|s| s.strip_suffix(')'))
                        .unwrap_or(name);
                    Some(enabled.iter().any(|e| e == bare))
                };
                unparse_config(ast, tool.ctx(), &env)
            }
            None => String::new(),
        })
        .collect();

    UnitReport {
        path: path.to_string(),
        bytes: processed.bytes,
        parsed: processed.result.ast.is_some(),
        partial: processed.result.outcome == ParseOutcome::Partial,
        degradations: processed.result.trips.iter().map(render_trip).collect(),
        choice_nodes: processed
            .result
            .ast
            .as_ref()
            .map_or(0, |a| a.choice_count()),
        // Render positions with the file *name*, not the raw `FileId`:
        // id numbering depends on which files this worker lexed before
        // (ids persist across units within a pooled worker), so it is
        // not schedule-invariant; names are. Conditions are rendered
        // canonically for the same reason (see [`render_trip`]).
        errors: processed
            .result
            .errors
            .iter()
            .map(|e| {
                let cond = superc_analyze::render::canonical(&e.cond);
                match e.pos {
                    Some(p) => {
                        let file = tool.preprocessor().file_name(p.file).unwrap_or("<unknown>");
                        format!(
                            "{file}:{}:{}: {} (at '{}', config {cond})",
                            p.line, p.col, e.message, e.got
                        )
                    }
                    None => {
                        format!("{} (at end of input, config {cond})", e.message)
                    }
                }
            })
            .collect(),
        diagnostics: processed
            .unit
            .diagnostics
            .iter()
            .filter(|d| matches!(d.severity, Severity::Error))
            .map(|d| {
                let file = tool
                    .preprocessor()
                    .file_name(d.pos.file)
                    .unwrap_or("<unknown>");
                format!("{file}:{}:{}: {}", d.pos.line, d.pos.col, d.message)
            })
            .collect(),
        lints,
        portability,
        phase_nanos: [
            processed.timings.lexing.as_nanos() as u64,
            processed.timings.preprocessing.as_nanos() as u64,
            processed.timings.parsing.as_nanos() as u64,
        ],
        pp: processed.unit.stats,
        parse: processed.result.stats,
        fatal: None,
        failure: None,
        preprocessed,
        ast_text,
        unparses,
        memo_hit: false,
    }
}
