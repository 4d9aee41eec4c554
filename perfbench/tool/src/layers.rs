//! The traced run: times the public entry point of each layer from
//! outside the program, one span per call, and derives the per-layer
//! metrics from the spans and the counters the layers return.
//!
//! Phases, in order (each on the workload's units: the whole tree for
//! `tree_lint` and `daemon_edit`, the seeded sample for `oneshot`):
//!
//! 1. process layer: `superc` exiting on a usage error, and the first
//!    `c_artifacts()` call in a fresh process;
//! 2. lexer over every distinct file of the tree;
//! 3. per-unit pipeline: preprocess, forest, parse, lint, portability
//!    slice — fresh tools per pass, one pass per `jobs` worker shape;
//! 4. corpus runner: cold batches at `jobs` and at 1, a warm replay and
//!    a cross-profile replay where every unit hits the memo, and the
//!    two renderers;
//! 5. service: a `Driver` taking seeded edit cycles through
//!    `daemon::handle_line`, then a real `superc daemon` for transport.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

use superc::analyze::{self, LintOptions};
use superc::cli::{self, LintFormat};
use superc::corpus::{Capture, CorpusOptions, CorpusRunner};
use superc::cpp::PpStats;
use superc::lexer::{self, FileId};
use superc::service::{daemon, Driver};
use superc::{
    c_artifacts, CContext, CondCtx, DiskFs, Forest, ParseStats, Parser, Preprocessor, Profile,
    SharedCache,
};

use crate::spans::{median, tail, Tracer};
use crate::{bench_options, json_str, Flags, Rng};

const GRID: [&str; 3] = ["gcc-linux", "clang-macos", "msvc-windows"];

struct Run {
    tracer: Tracer,
    metrics: Vec<(String, f64)>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Run {
    fn put(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn lines(path: &str) -> Result<Vec<String>, String> {
    Ok(std::fs::read_to_string(path)
        .map_err(|e| format!("{path}: {e}"))?
        .lines()
        .map(str::to_string)
        .collect())
}

pub fn trace(flags: &Flags) -> Result<(), String> {
    let workload = flags.str("workload")?.to_string();
    let seconds: f64 = flags.num("seconds")?;
    let jobs: usize = flags.num("jobs")?;
    let mut rng = Rng::new(flags.num("seed")?);
    let superc_bin =
        std::fs::canonicalize(flags.str("superc")?).map_err(|e| format!("--superc: {e}"))?;
    let self_bin = std::env::current_exe().map_err(|e| e.to_string())?;
    let units = lines(flags.str("units")?)?;
    let reference = std::fs::read_to_string(flags.str("reference")?)
        .map_err(|e| format!("--reference: {e}"))?;
    let spans_out = std::path::absolute(flags.str("spans")?).map_err(|e| e.to_string())?;
    std::env::set_current_dir(flags.str("tree")?).map_err(|e| format!("--tree: {e}"))?;
    // The CLI reference covers the whole tree; the sample of `oneshot`
    // is checked against its own cold run instead.
    let whole_tree = workload != "oneshot";

    let mut run = Run {
        tracer: Tracer::new(),
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        notes: Vec::new(),
    };
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);

    process_layer(&mut run, &superc_bin, &self_bin)?;
    lexer_layer(&mut run)?;
    let passes = pipeline_layers(&mut run, &units, jobs, workload == "oneshot", seconds * 0.2);
    corpus_layer(
        &mut run,
        &units,
        jobs,
        passes,
        whole_tree.then_some(&reference),
    );
    service_layer(&mut run, &units, jobs, &mut rng, deadline);
    transport(&mut run, &superc_bin, &units, jobs)?;

    std::fs::write(&spans_out, run.tracer.to_ndjson())
        .map_err(|e| format!("{}: {e}", spans_out.display()))?;
    let metrics: Vec<String> = run
        .metrics
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), if v.is_finite() { *v } else { 0.0 }))
        .collect();
    let totals: Vec<String> = run
        .tracer
        .totals()
        .iter()
        .map(|(k, t)| {
            format!(
                "{}:{{\"count\":{},\"total_s\":{},\"self_s\":{}}}",
                json_str(k),
                t.count,
                t.total_s,
                t.self_s
            )
        })
        .collect();
    let notes: Vec<String> = run.notes.iter().map(|n| json_str(n)).collect();
    println!(
        "{{\"attempted\":{},\"failed\":{},\"metrics\":{{{}}},\"spans\":{{{}}},\"notes\":[{}]}}",
        run.attempted,
        run.failed,
        metrics.join(","),
        totals.join(","),
        notes.join(",")
    );
    Ok(())
}

/// `bin.noop_ms` and `csyntax.artifacts_ms`: both need a fresh process.
fn process_layer(
    run: &mut Run,
    superc_bin: &std::path::Path,
    self_bin: &std::path::Path,
) -> Result<(), String> {
    let mut noop = Vec::new();
    for i in 0..15 {
        let start = Instant::now();
        let out = run.tracer.time("bin.noop", i, || {
            Command::new(superc_bin)
                .arg("--perfbench-usage-error")
                .stdin(Stdio::null())
                .output()
        });
        noop.push(ms(start));
        let out = out.map_err(|e| format!("spawning superc: {e}"))?;
        // A usage error exits 1 with a message and no work done.
        run.check(out.status.code() == Some(1), || {
            "superc did not reject an unknown option".to_string()
        });
    }
    run.put("bin.noop_ms", median(&noop));
    let mut artifacts = Vec::new();
    for _ in 0..7 {
        let out = Command::new(self_bin)
            .arg("artifacts")
            .output()
            .map_err(|e| format!("spawning artifacts probe: {e}"))?;
        let value: Option<f64> = String::from_utf8_lossy(&out.stdout).trim().parse().ok();
        run.check(value.is_some(), || {
            "artifacts probe printed no time".to_string()
        });
        artifacts.extend(value);
    }
    run.put("csyntax.artifacts_ms", median(&artifacts));
    Ok(())
}

fn tree_files(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            tree_files(&path, out)?;
        } else {
            out.push(path);
        }
    }
    Ok(())
}

/// `lexer.mb_per_s`: `lexer::lex` over every distinct file, three passes,
/// median pass.
fn lexer_layer(run: &mut Run) -> Result<(), String> {
    let mut files = Vec::new();
    for dir in ["include", "src"] {
        tree_files(std::path::Path::new(dir), &mut files).map_err(|e| e.to_string())?;
    }
    files.sort();
    let texts: Vec<String> = files
        .iter()
        .map(|p| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display())))
        .collect::<Result<_, _>>()?;
    let bytes: usize = texts.iter().map(String::len).sum();
    let mut pass_s = Vec::new();
    for pass in 0..3 {
        let start = Instant::now();
        for (i, text) in texts.iter().enumerate() {
            let lexed = run
                .tracer
                .time("lexer.lex", i as u64, || lexer::lex(text, FileId(i as u32)));
            if pass == 0 {
                run.check(lexed.is_ok(), || {
                    format!("{}: lex error", files[i].display())
                });
            }
        }
        pass_s.push(start.elapsed().as_secs_f64());
    }
    run.put("lexer.mb_per_s", bytes as f64 / 1e6 / median(&pass_s));
    Ok(())
}

/// One worker's tool, built from the public pieces `SuperC` is made of
/// so each layer's entry point can be timed on its own.
struct Tool {
    ctx: CondCtx,
    pp: Preprocessor<Arc<DiskFs>>,
    parser: Parser<'static, CContext>,
}

impl Tool {
    fn new(fs: &Arc<DiskFs>, cache: Option<&Arc<SharedCache>>) -> Tool {
        let options = bench_options();
        let ctx = CondCtx::new(options.backend);
        let mut pp = Preprocessor::new(ctx.clone(), options.pp, fs.clone());
        if let Some(cache) = cache {
            pp.set_shared_cache(cache.clone());
        }
        let artifacts = c_artifacts();
        let plugin = CContext::seeded(artifacts.ctx_tables.clone());
        Tool {
            ctx,
            pp,
            parser: Parser::new(&artifacts.grammar, options.parser, plugin),
        }
    }
}

/// Per-unit layers: `cpp`, `bdd`, `fmlr` and `analyze`. Passes repeat
/// until `budget_s` is spent (at least one); counts come from the first.
/// Returns the number of passes.
fn pipeline_layers(
    run: &mut Run,
    units: &[String],
    jobs: usize,
    fresh_per_unit: bool,
    budget_s: f64,
) -> f64 {
    let fs = Arc::new(DiskFs::new("."));
    let artifacts = c_artifacts();
    let lint_opts = LintOptions::default();
    let start = Instant::now();
    let mut passes = 0u32;
    let mut pp_total = PpStats::default();
    let mut parse_total = ParseStats::default();
    let mut forest_tokens = 0u64;
    let mut lex_ns = 0u64;
    let mut bdd = Vec::new();
    while passes == 0 || start.elapsed().as_secs_f64() < budget_s {
        let first = passes == 0;
        passes += 1;
        // A cold process per pass: fresh tools and a fresh L2, `jobs`
        // workers taking units round-robin (the oneshot sample gets a
        // fresh tool per unit, as each is its own process).
        let cache = Arc::new(SharedCache::new());
        let mut tools: Vec<Tool> = if fresh_per_unit {
            Vec::new()
        } else {
            (0..jobs.max(1))
                .map(|_| Tool::new(&fs, Some(&cache)))
                .collect()
        };
        for (i, path) in units.iter().enumerate() {
            let id = i as u64;
            let mut fresh = None;
            let tool = if fresh_per_unit {
                fresh.insert(run.tracer.time("tool.new", id, || Tool::new(&fs, None)))
            } else {
                let n = tools.len();
                &mut tools[i % n]
            };
            let unit_span = run.tracer.begin("pipeline.unit", id);
            let unit = run
                .tracer
                .time("cpp.preprocess", id, || tool.pp.preprocess(path));
            let unit = match unit {
                Ok(u) => u,
                Err(e) => {
                    run.tracer.end(unit_span);
                    run.check(false, || format!("{path}: fatal: {e}"));
                    continue;
                }
            };
            let forest = run.tracer.time("fmlr.forest", id, || {
                Forest::build(&unit.elements, &|t| artifacts.seed.classify(t))
            });
            let result = run
                .tracer
                .time("fmlr.parse", id, || tool.parser.parse(&forest, &tool.ctx));
            let names = |fid| tool.pp.file_name(fid).map(str::to_string);
            let input = analyze::AnalysisInput {
                unit: &unit,
                result: Some(&result),
                table: tool.pp.table(),
                ctx: &tool.ctx,
            };
            let lints = run.tracer.time("analyze.lint", id, || {
                analyze::analyze(&input, &lint_opts, &names)
            });
            let slice = run.tracer.time("analyze.portability", id, || {
                analyze::portability::portability_slice(&input, &names)
            });
            run.tracer.end(unit_span);
            lex_ns += unit.stats.lex_nanos;
            if first {
                run.check(result.errors.is_empty() && result.trips.is_empty(), || {
                    format!("{path}: parse error or budget trip")
                });
                pp_total.merge(&unit.stats);
                parse_total.merge(&result.stats);
                forest_tokens += forest.token_count() as u64;
            }
            drop((lints, slice));
            if first && fresh_per_unit {
                bdd.extend(tool.ctx.bdd_stats());
            }
        }
        if first {
            bdd.extend(tools.iter().filter_map(|t| t.ctx.bdd_stats()));
        }
    }
    let bdd_nodes: usize = bdd.iter().map(|b| b.nodes).sum();
    let bdd_apply: u64 = bdd.iter().map(|b| b.apply_calls).sum();
    let bdd_hits: u64 = bdd.iter().map(|b| b.cache_hits).sum();
    let bdd_misses: u64 = bdd.iter().map(|b| b.cache_misses).sum();
    let t = run.tracer.totals();
    let per_pass = |name: &str| t.get(name).map_or(0.0, |x| x.self_s) / passes as f64;
    let (cpp_p95, _, _) = tail(&run.tracer.millis("cpp.preprocess"), 0.95);
    let (parse_p95, _, _) = tail(&run.tracer.millis("fmlr.parse"), 0.95);
    run.put(
        "cpp.unit_ms_p50",
        median(&run.tracer.millis("cpp.preprocess")),
    );
    run.put("cpp.unit_ms_p95", cpp_p95);
    run.put("cpp.self_s", per_pass("cpp.preprocess"));
    run.put("cpp.output_tokens", pp_total.output_tokens as f64);
    run.put(
        "cpp.invocations_hoisted",
        pp_total.invocations_hoisted as f64,
    );
    let cpp_ns = t.get("cpp.preprocess").map_or(0.0, |x| x.total_s) * 1e9;
    run.put("cpp.lex_share", lex_ns as f64 / cpp_ns.max(1.0));
    let l2 = pp_total.shared_cache_hits + pp_total.shared_cache_misses;
    run.put(
        "cpp.l2_hit_rate",
        pp_total.shared_cache_hits as f64 / l2.max(1) as f64,
    );
    run.put("cpp.condexpr_memo_hits", pp_total.condexpr_memo_hits as f64);
    run.put(
        "cpp.expansion_memo_hits",
        pp_total.expansion_memo_hits as f64,
    );
    run.put("bdd.apply_calls", bdd_apply as f64);
    run.put(
        "bdd.cache_hit_rate",
        bdd_hits as f64 / (bdd_hits + bdd_misses).max(1) as f64,
    );
    run.put("bdd.nodes", bdd_nodes as f64);
    run.put("fmlr.forest_s", per_pass("fmlr.forest"));
    run.put(
        "fmlr.parse_ms_p50",
        median(&run.tracer.millis("fmlr.parse")),
    );
    run.put("fmlr.parse_ms_p95", parse_p95);
    run.put("fmlr.parse_s", per_pass("fmlr.parse"));
    run.put("fmlr.max_subparsers", parse_total.max_subparsers as f64);
    run.put("fmlr.forks", parse_total.forks as f64);
    run.put("fmlr.merges", parse_total.merges as f64);
    run.put("fmlr.choice_nodes", parse_total.choice_nodes as f64);
    let tokens = forest_tokens.max(1) as f64;
    run.put(
        "fmlr.merge_probes_per_token",
        parse_total.merge_probes as f64 / tokens,
    );
    run.put(
        "fmlr.fastpath_token_share",
        parse_total.fastpath_tokens as f64 / tokens,
    );
    run.put("analyze.lint_s", per_pass("analyze.lint"));
    run.put("analyze.portability_s", per_pass("analyze.portability"));
    run.put("pipeline.unit_self_s", per_pass("pipeline.unit"));
    run.put("pipeline.passes", passes as f64);
    passes as f64
}

fn lint_copts(jobs: usize, warm: bool) -> CorpusOptions {
    CorpusOptions {
        jobs,
        capture: Capture::default(),
        lint: Some(LintOptions::default()),
        no_shared_cache: false,
        inject_panic: Vec::new(),
        portability: false,
        warm,
    }
}

/// `corpus.*` and `cli.*`: the pooled runner cold and warm, and the
/// renderers over its reports.
fn corpus_layer(
    run: &mut Run,
    units: &[String],
    jobs: usize,
    passes: f64,
    reference: Option<&String>,
) {
    let fs = Arc::new(DiskFs::new("."));
    let options = bench_options();
    let n = units.len();
    let mut cold = None;
    for rep in 0..3 {
        let mut pool = CorpusRunner::new(&options, fs.clone(), jobs, false);
        let report = run.tracer.time("corpus.cold_batch", rep, || {
            pool.run(units, &lint_copts(jobs, false))
        });
        cold = Some(report);
    }
    let cold = cold.expect("three cold batches");
    for rep in 0..2 {
        let mut pool = CorpusRunner::new(&options, fs.clone(), 1, false);
        let report = run.tracer.time("corpus.cold_batch_j1", rep, || {
            pool.run(units, &lint_copts(1, false))
        });
        let same = cli::render_lint_report(&report, LintFormat::Json, false)
            == cli::render_lint_report(&cold, LintFormat::Json, false);
        run.check(same, || "jobs 1 and jobs N lint output differ".to_string());
    }
    let t = run.tracer.totals();
    let span_s = |name: &str| t.get(name).map_or(0.0, |x| x.self_s);
    let layers_s = [
        "cpp.preprocess",
        "fmlr.forest",
        "fmlr.parse",
        "analyze.lint",
    ]
    .iter()
    .map(|name| span_s(name))
    .sum::<f64>()
        / passes;
    let j1 = median(&run.tracer.millis("corpus.cold_batch_j1")) / 1e3;
    run.put(
        "corpus.cold_batch_s",
        median(&run.tracer.millis("corpus.cold_batch")) / 1e3,
    );
    run.put("corpus.sched_overhead_s", j1 - layers_s);

    let mut rendered = None;
    for rep in 0..5 {
        let r = run.tracer.time("cli.render_lint", rep, || {
            cli::render_lint_report(&cold, LintFormat::Json, false)
        });
        rendered = Some(r);
    }
    let rendered = rendered.expect("five renders");
    run.put(
        "cli.render_lint_ms",
        median(&run.tracer.millis("cli.render_lint")),
    );
    run.check(!rendered.failed && rendered.stderr.is_empty(), || {
        format!(
            "cold lint failed: {}",
            rendered.stderr.lines().next().unwrap_or("")
        )
    });
    run.check(!rendered.stdout.contains("\"partial-parse\""), || {
        "cold lint reports a partial parse".to_string()
    });
    if let Some(reference) = reference {
        run.check(rendered.stdout == *reference, || {
            "in-process lint differs from the CLI reference".to_string()
        });
    }

    let mut pool = CorpusRunner::new(&options, fs.clone(), jobs, false);
    let warm = lint_copts(jobs, true);
    pool.run(units, &warm);
    for rep in 0..5 {
        let report = run
            .tracer
            .time("corpus.warm_replay", rep, || pool.run(units, &warm));
        run.check(report.unit_memo_hits == n as u64, || {
            format!("warm replay hit {} of {n} units", report.unit_memo_hits)
        });
    }
    run.put(
        "corpus.warm_replay_ms",
        median(&run.tracer.millis("corpus.warm_replay")),
    );

    let profiles: Vec<Profile> = GRID.iter().filter_map(|p| Profile::named(p)).collect();
    pool.run_profiles(units, &profiles, &warm);
    let mut grid = None;
    for rep in 0..3 {
        let report = run.tracer.time("corpus.grid_replay", rep, || {
            pool.run_profiles(units, &profiles, &warm)
        });
        grid = Some(report);
    }
    let grid = grid.expect("three grid replays");
    run.put(
        "corpus.grid_replay_ms",
        median(&run.tracer.millis("corpus.grid_replay")),
    );
    let opts = LintOptions::default();
    for rep in 0..3 {
        let r = run.tracer.time("cli.render_profiles", rep, || {
            cli::render_lint_profiles(&grid, LintFormat::Json, &opts, false)
        });
        run.check(!r.failed, || "grid lint failed".to_string());
    }
    run.put(
        "cli.render_profiles_ms",
        median(&run.tracer.millis("cli.render_profiles")),
    );
}

fn lint_request(units: &[String], grid: bool) -> String {
    let units: Vec<String> = units.iter().map(|u| json_str(u)).collect();
    let profiles = if grid {
        let p: Vec<String> = GRID.iter().map(|p| json_str(p)).collect();
        format!(",\"profiles\":[{}]", p.join(","))
    } else {
        String::new()
    };
    format!(
        "{{\"cmd\":\"lint\",\"units\":[{}],\"format\":\"json\"{profiles}}}",
        units.join(",")
    )
}

fn response_ok(line: &str) -> bool {
    line.starts_with("{\"ok\":true") && line.ends_with("\"failed\":false}")
}

/// The edit the benchmark makes: a valid declaration, guarded by a macro
/// nobody defines so the lint output changes with every edit; inside the
/// include guard for headers.
pub fn edited(contents: &str, n: u64, header: bool) -> String {
    let decl = format!("#ifdef BENCH_EDIT_{n}\nint bench_edit_{n};\n#endif\n");
    match contents.rfind("#endif").filter(|_| header) {
        Some(at) => format!("{}{decl}{}", &contents[..at], &contents[at..]),
        None => format!("{contents}\n{decl}"),
    }
}

/// `service.edit_ms`, `daemon.protocol_ms`, and the memo counts, from a
/// `Driver` taking the same seeded edit cycles the daemon workload sends.
fn service_layer(run: &mut Run, units: &[String], jobs: usize, rng: &mut Rng, deadline: Instant) {
    let mut driver = Driver::with_disk_root(bench_options(), jobs, ".");
    if driver.end_generation().is_err() {
        run.check(false, || "driver did not open".to_string());
        return;
    }
    let single = lint_request(units, false);
    let grid = lint_request(units, true);
    for line in [&single, &grid] {
        let (resp, _) = daemon::handle_line(&mut driver, line);
        run.check(response_ok(&resp), || {
            "first daemon lint failed".to_string()
        });
    }
    let headers: Vec<String> = (0..64)
        .map(|i| format!("include/sub/sub{i}.h"))
        .filter(|p| std::path::Path::new(p).exists())
        .collect();
    let mut contents: std::collections::HashMap<String, String> = Default::default();
    let (mut hits, mut misses, mut rehashed) = (0u64, 0u64, 0u64);
    let mut cycle = 0u64;
    while cycle < 5 || (Instant::now() < deadline && cycle < 40) {
        let header = rng.below(10) == 0 && !headers.is_empty();
        let path = if header {
            headers[rng.below(headers.len())].clone()
        } else {
            units[rng.below(units.len())].clone()
        };
        let old = match contents.get(&path) {
            Some(c) => c.clone(),
            None => std::fs::read_to_string(&path).unwrap_or_default(),
        };
        let new = edited(&old, cycle, header);
        let span = run.tracer.begin("cycle", cycle);
        let edit = run.tracer.time("service.edit", cycle, || {
            driver
                .begin_generation()
                .and_then(|_| driver.set_file(&path, &new))
                .and_then(|_| driver.end_generation())
        });
        let (resp, _) = run.tracer.time("daemon.handle_line", cycle, || {
            daemon::handle_line(&mut driver, &single)
        });
        let s = driver.stats();
        let (gresp, _) = run.tracer.time("daemon.handle_line_grid", cycle, || {
            daemon::handle_line(&mut driver, &grid)
        });
        run.tracer.end(span);
        run.check(
            edit.is_ok() && response_ok(&resp) && response_ok(&gresp),
            || format!("edit cycle {cycle} on {path} failed"),
        );
        hits += s.unit_memo_hits;
        misses += s.unit_memo_misses;
        rehashed += s.files_rehashed;
        contents.insert(path, new);
        cycle += 1;
    }
    run.put(
        "service.edit_ms",
        median(&run.tracer.millis("service.edit")),
    );
    run.put(
        "corpus.unit_memo_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    run.put("corpus.files_rehashed", rehashed as f64 / cycle as f64);
    run.put(
        "daemon.handle_line_ms",
        median(&run.tracer.millis("daemon.handle_line")),
    );
    run.put(
        "daemon.handle_line_grid_ms",
        median(&run.tracer.millis("daemon.handle_line_grid")),
    );

    // Protocol cost: the same all-hit request through `handle_line` and
    // straight into the `Driver`, interleaved; the median difference is
    // what the protocol adds (parse the request, escape the response).
    let opts = LintOptions::default();
    let mut diffs = Vec::new();
    for rep in 0..9 {
        let start = Instant::now();
        let (resp, _) = run.tracer.time("daemon.handle_line_warm", rep, || {
            daemon::handle_line(&mut driver, &single)
        });
        let wrapped = ms(start);
        let start = Instant::now();
        let direct = run.tracer.time("service.lint_rendered_warm", rep, || {
            driver.lint_rendered(units, LintFormat::Json, &[], &opts, false)
        });
        diffs.push(wrapped - ms(start));
        run.check(response_ok(&resp) && direct.is_ok(), || {
            "warm lint failed".to_string()
        });
    }
    run.put("daemon.protocol_ms", median(&diffs));
}

/// `daemon.transport_ms`: a real `superc daemon` answering the same
/// all-hit lint over pipes, minus the in-process `handle_line` time.
fn transport(
    run: &mut Run,
    superc_bin: &std::path::Path,
    units: &[String],
    jobs: usize,
) -> Result<(), String> {
    let mut child = Command::new(superc_bin)
        .args(["daemon", "--jobs", &jobs.to_string(), "-I", "include"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning daemon: {e}"))?;
    let mut stdin = child.stdin.take().expect("piped stdin");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let single = lint_request(units, false);
    let mut rtt = Vec::new();
    let mut ok = true;
    for rep in 0..10 {
        let start = Instant::now();
        let mut line = String::new();
        let sent = writeln!(stdin, "{single}").and_then(|_| stdin.flush());
        let read = stdout.read_line(&mut line);
        if rep > 0 {
            rtt.push(ms(start));
        }
        ok &= sent.is_ok() && read.is_ok() && response_ok(line.trim_end());
    }
    let _ = writeln!(stdin, "{{\"cmd\":\"shutdown\"}}");
    drop(stdin);
    let status = child.wait().map_err(|e| e.to_string())?;
    run.check(ok && status.success(), || {
        "daemon transport probe failed".to_string()
    });
    let inproc = median(&run.tracer.millis("daemon.handle_line_warm"));
    run.put("daemon.transport_ms", median(&rtt) - inproc);
    Ok(())
}
