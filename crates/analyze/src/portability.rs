//! Cross-profile portability analysis.
//!
//! The cross-profile corpus mode runs every unit under N compiler/OS
//! [`superc_cpp::Profile`]s. Each run produces a **portability slice**
//! ([`portability_slice`]): plain-data [`PortEntry`] rows describing the
//! profile-observable facts of the unit — which tested macros are
//! defined, what presence condition each surviving conditional got, what
//! each declaration looks like, and which error diagnostics exist. Rows
//! carry only strings (canonical condition text, not `Cond` handles), so
//! they cross worker threads like lint [`Record`]s do.
//!
//! [`diff_profiles`] then aligns the slices row-by-row on stable keys and
//! emits one lint record per site whose state is not identical across
//! every profile:
//!
//! * `portability-definedness` — a tested macro defined under some
//!   profiles but not others (`__GNUC__` vs `_MSC_VER`);
//! * `portability-divergent-condition` — a conditional whose BDD
//!   presence condition differs across profiles (a built-in decided the
//!   test differently);
//! * `portability-divergent-decl` — a declaration or error diagnostic
//!   present (or shaped) differently under some profiles.
//!
//! Determinism: slices are built in source order, keys are
//! position-derived, conditions are canonical strings, and the diff
//! walks a sorted key map — nothing depends on worker scheduling, so the
//! rendered output is byte-identical across `--jobs`/cache/fastpath.

use std::collections::BTreeMap;

use superc_cond::CondCtx;
use superc_cpp::Severity;
use superc_lexer::FileId;

use crate::render::{canonical, parse_canonical};
use crate::{AnalysisInput, LintCode, LintLevel, LintOptions, Record};

/// Which portability lint a row feeds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PortKind {
    /// A tested macro's definedness state.
    Definedness,
    /// A surviving conditional group's presence condition.
    CondSite,
    /// A declaration's rendered type and condition.
    Decl,
    /// An error diagnostic (preprocessor or parse).
    Diag,
}

impl PortKind {
    fn code(self) -> LintCode {
        match self {
            PortKind::Definedness => LintCode::PortabilityDefinedness,
            PortKind::CondSite => LintCode::PortabilityDivergentCondition,
            PortKind::Decl | PortKind::Diag => LintCode::PortabilityDivergentDecl,
        }
    }
}

/// One profile-observable fact about a unit: a state string attached to
/// a stable, position-derived key. Plain data (canonical condition text,
/// no `Cond` handles), so rows cross worker threads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PortEntry {
    /// Which portability lint this row feeds.
    pub kind: PortKind,
    /// Stable alignment key, unique within one profile's slice.
    pub key: String,
    /// Resolved file name of the anchoring position.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// The profile-observable state, compared verbatim across profiles.
    pub state: String,
    /// Canonical presence condition of the fact under this profile.
    pub cond: String,
}

/// Disambiguates repeated base keys (the same header processed twice
/// yields the same positions twice): the first occurrence keeps the base
/// key, later ones get `#1`, `#2`, ... so slices align occurrence by
/// occurrence.
struct KeyMint {
    seen: BTreeMap<String, usize>,
}

impl KeyMint {
    fn new() -> Self {
        KeyMint {
            seen: BTreeMap::new(),
        }
    }

    fn mint(&mut self, base: String) -> String {
        let n = self.seen.entry(base.clone()).or_insert(0);
        let key = if *n == 0 {
            base.clone()
        } else {
            format!("{base}#{n}")
        };
        *n += 1;
        key
    }
}

/// Builds one profile run's portability slice for a unit, in source
/// order. `resolve` maps worker-local [`FileId`]s to file names, exactly
/// as in [`crate::analyze`].
pub fn portability_slice(
    input: &AnalysisInput<'_>,
    resolve: &dyn Fn(FileId) -> Option<String>,
) -> Vec<PortEntry> {
    let name_of = |id: FileId| resolve(id).unwrap_or_else(|| format!("<file {}>", id.0));
    let tru = input.ctx.tru();
    let mut out = Vec::new();

    // Definedness: one row per distinct tested macro name, anchored at
    // its first test site, under the union of all test-site conditions.
    let mut tested: Vec<(&str, superc_lexer::SourcePos, superc_cond::Cond)> = Vec::new();
    for tm in &input.unit.tested_macros {
        match tested.iter_mut().find(|(n, _, _)| *n == &*tm.name) {
            Some((_, _, c)) => *c = c.or(&tm.cond),
            None => tested.push((&tm.name, tm.pos, tm.cond.clone())),
        }
    }
    for (name, pos, sites) in tested {
        let (defined, free) = input.table.defined_cond(name, &tru);
        let state = if free.is_false() && defined.is_true() {
            "always defined".to_string()
        } else if defined.is_false() && free.is_false() {
            "never defined (explicitly undefined or guard)".to_string()
        } else if defined.is_false() {
            "never defined".to_string()
        } else {
            format!(
                "defined when {}; free when {}",
                canonical(&defined),
                canonical(&free)
            )
        };
        out.push(PortEntry {
            kind: PortKind::Definedness,
            key: format!("macro {name}"),
            file: name_of(pos.file),
            line: pos.line,
            col: pos.col,
            state,
            cond: canonical(&sites),
        });
    }

    // Conditional sites: the final branch condition of every surviving
    // group (dead groups carry `false`), keyed by position.
    let mut mint = KeyMint::new();
    for site in &input.unit.cond_sites {
        let file = name_of(site.pos.file);
        let cond = canonical(&site.cond);
        out.push(PortEntry {
            kind: PortKind::CondSite,
            key: mint.mint(format!(
                "conditional at {file}:{}:{}",
                site.pos.line, site.pos.col
            )),
            file,
            line: site.pos.line,
            col: site.pos.col,
            state: cond.clone(),
            cond,
        });
    }

    // Declarations: name, rendered type, and presence condition.
    let mut mint = KeyMint::new();
    if let Some(ast) = input.result.and_then(|r| r.ast.as_ref()) {
        for d in superc_csyntax::declared_names(ast) {
            let pos = d.pos.unwrap_or_default();
            let file = name_of(pos.file);
            let rendered = if d.specifiers.is_empty() {
                format!("{} ({})", d.shape, d.kind)
            } else {
                format!("{} {}", d.specifiers, d.shape)
            };
            let cond = canonical(d.cond.as_ref().unwrap_or(&tru));
            out.push(PortEntry {
                kind: PortKind::Decl,
                key: mint.mint(format!("declaration of {}", d.name)),
                file,
                line: pos.line,
                col: pos.col,
                state: format!("`{rendered}` when {cond}"),
                cond,
            });
        }
    }

    // Error diagnostics: preprocessor errors and parse errors. A unit
    // that errors under one profile but not another is the bluntest
    // portability divergence of all.
    let mut mint = KeyMint::new();
    for d in &input.unit.diagnostics {
        if d.severity != Severity::Error {
            continue;
        }
        let file = name_of(d.pos.file);
        let cond = canonical(&d.cond);
        out.push(PortEntry {
            kind: PortKind::Diag,
            key: mint.mint(format!(
                "diagnostic at {file}:{}:{}: {}",
                d.pos.line, d.pos.col, d.message
            )),
            file,
            line: d.pos.line,
            col: d.pos.col,
            state: cond.clone(),
            cond,
        });
    }
    if let Some(result) = input.result {
        for err in &result.errors {
            let pos = err.pos.unwrap_or_default();
            let file = name_of(pos.file);
            let cond = canonical(&err.cond);
            out.push(PortEntry {
                kind: PortKind::Diag,
                key: mint.mint(format!(
                    "parse error at {file}:{}:{} (got `{}`)",
                    pos.line, pos.col, err.got
                )),
                file,
                line: pos.line,
                col: pos.col,
                state: cond.clone(),
                cond,
            });
        }
    }
    out
}

/// Diffs one unit's per-profile slices into portability lint records.
///
/// `profile_names` and `slices` are parallel, in profile run order. A
/// key absent from some profile's slice compares as `<absent>`. Rows
/// whose state is identical everywhere are portable and emit nothing.
/// Conditions are lifted back into `ctx` via [`parse_canonical`] and
/// ORed across profiles; if any per-profile condition is the
/// non-invertible overflow form, the first present condition string is
/// carried verbatim instead.
///
/// Slices that are all equal return no records without building the
/// key map: equal slices align key by key with equal states, so no row
/// could differ. This is the common case: most units see every profile
/// alike.
pub fn diff_profiles(
    profile_names: &[String],
    slices: &[&[PortEntry]],
    opts: &LintOptions,
    ctx: &CondCtx,
) -> Vec<Record> {
    assert_eq!(profile_names.len(), slices.len());
    if slices.windows(2).all(|w| w[0] == w[1]) {
        return Vec::new();
    }
    let n = slices.len();
    let all_profiles = profile_names.join(",");
    let mut by_key: BTreeMap<&str, Vec<Option<&PortEntry>>> = BTreeMap::new();
    for (i, slice) in slices.iter().enumerate() {
        for e in slice.iter() {
            by_key.entry(&e.key).or_insert_with(|| vec![None; n])[i] = Some(e);
        }
    }
    let mut out = Vec::new();
    for (key, rows) in by_key {
        let states: Vec<&str> = rows
            .iter()
            .map(|r| r.map(|e| e.state.as_str()).unwrap_or("<absent>"))
            .collect();
        if states.iter().all(|s| *s == states[0]) {
            continue;
        }
        let first = rows
            .iter()
            .flatten()
            .next()
            .expect("some profile has the key");
        let code = first.kind.code();
        let level = opts.level_of(code);
        if level == LintLevel::Allow {
            continue;
        }
        // Partition profiles by state, in run order of first appearance.
        let mut groups: Vec<(&str, Vec<&str>)> = Vec::new();
        for (i, state) in states.iter().enumerate() {
            match groups.iter_mut().find(|(s, _)| s == state) {
                Some((_, ps)) => ps.push(&profile_names[i]),
                None => groups.push((state, vec![&profile_names[i]])),
            }
        }
        let detail = groups
            .iter()
            .map(|(s, ps)| format!("{s} under {{{}}}", ps.join(", ")))
            .collect::<Vec<_>>()
            .join("; ");
        // Union of the per-profile conditions, back in one context.
        let mut union = Some(ctx.fls());
        for e in rows.iter().flatten() {
            union = match (union, parse_canonical(&e.cond, ctx)) {
                (Some(u), Some(c)) => Some(u.or(&c)),
                _ => None,
            };
        }
        let cond = match union {
            Some(u) => canonical(&u),
            None => first.cond.clone(),
        };
        out.push(Record {
            code: code.as_str(),
            level: level.as_str(),
            file: first.file.clone(),
            line: first.line,
            col: first.col,
            cond,
            message: format!("{key} differs across profiles: {detail}"),
            profiles: all_profiles.clone(),
        });
    }
    out
}

/// The final deterministic order for merged cross-profile reports:
/// `(file, line, col, code, message, cond, profiles)`.
pub fn sort_records(records: &mut [Record]) {
    records.sort_by(|a, b| {
        (
            &a.file,
            a.line,
            a.col,
            a.code,
            &a.message,
            &a.cond,
            &a.profiles,
        )
            .cmp(&(
                &b.file,
                b.line,
                b.col,
                b.code,
                &b.message,
                &b.cond,
                &b.profiles,
            ))
    });
}
