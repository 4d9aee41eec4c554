//! Helper binary for `perfbench/run.py`.
//!
//! ```text
//! perfbench-tool gen --seed S --units N --out DIR
//!     write a kernelgen `kernel`-preset tree; print its size as JSON
//! perfbench-tool artifacts
//!     print the milliseconds of the first c_artifacts() call
//! perfbench-tool gccref --tree DIR --seed S --pairs N
//!     compare gcc -E with the configuration-preserving output restricted
//!     to seeded (unit, configuration) pairs; print counts as JSON
//! perfbench-tool trace --workload W --tree DIR --seed S --seconds N
//!     --superc PATH --jobs J --units FILE --reference FILE --spans FILE
//!     time each layer's public entry points in-process; print JSON
//! ```
//!
//! Every command prints one JSON object on its last stdout line.

mod layers;
mod spans;

use std::collections::{BTreeSet, HashMap};
use std::process::{Command, ExitCode};

use superc::cpp::{Element, Severity};
use superc::{DiskFs, Options, SuperC};
use superc_kernelgen::{generate, CorpusSpec};

/// splitmix64: a small seeded generator, identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Quotes a string as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `--name value` options after the subcommand.
struct Flags(HashMap<String, String>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut map = HashMap::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let name = a
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {a}"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            map.insert(name.to_string(), value.clone());
        }
        Ok(Flags(map))
    }

    fn str(&self, name: &str) -> Result<&str, String> {
        self.0
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{name}"))
    }

    fn num<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.str(name)?
            .parse()
            .map_err(|_| format!("--{name} needs a number"))
    }
}

/// The options every `superc` invocation of the benchmark uses
/// (`-I include`, everything else default).
pub fn bench_options() -> Options {
    let mut options = Options::default();
    options.pp.include_paths = vec!["include".to_string()];
    options
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => Flags::parse(&args[1..]).and_then(|f| gen(&f)),
        Some("artifacts") => {
            let start = std::time::Instant::now();
            let _ = superc::c_artifacts();
            println!("{}", start.elapsed().as_secs_f64() * 1e3);
            Ok(())
        }
        Some("gccref") => Flags::parse(&args[1..]).and_then(|f| gccref(&f)),
        Some("trace") => Flags::parse(&args[1..]).and_then(|f| layers::trace(&f)),
        _ => Err("usage: perfbench-tool gen|artifacts|gccref|trace [--flag value]...".to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-tool: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Writes the tree and reports its units, bytes and preprocessed tokens
/// (per unit, under the default profile).
fn gen(flags: &Flags) -> Result<(), String> {
    let out = flags.str("out")?;
    let mut spec = CorpusSpec::kernel().units(flags.num("units")?);
    spec.seed = flags.num("seed")?;
    let corpus = generate(&spec);
    corpus
        .write_to(std::path::Path::new(out))
        .map_err(|e| format!("writing {out}: {e}"))?;
    let mut sc = SuperC::new(bench_options(), DiskFs::new(out));
    let mut tokens = Vec::new();
    for u in &corpus.units {
        let processed = sc.process(u).map_err(|e| format!("{u}: {e}"))?;
        tokens.push(processed.unit.stats.output_tokens.to_string());
    }
    let units: Vec<String> = corpus.units.iter().map(|u| json_str(u)).collect();
    println!(
        "{{\"files\":{},\"bytes\":{},\"units\":[{}],\"unit_tokens\":[{}]}}",
        corpus.fs.len(),
        corpus.total_bytes(),
        units.join(","),
        tokens.join(",")
    );
    Ok(())
}

/// Flattens a configuration-preserving element tree under `env`.
fn select(elements: &[Element], env: &dyn Fn(&str) -> Option<bool>, out: &mut String) {
    for e in elements {
        match e {
            Element::Token(t) => out.push_str(t.text()),
            Element::Conditional(k) => {
                if let Some(b) = k.branches.iter().find(|b| b.cond.eval(|n| env(n))) {
                    select(&b.elements, env, out);
                }
            }
        }
    }
}

fn support(elements: &[Element], names: &mut BTreeSet<String>) {
    for e in elements {
        if let Element::Conditional(k) = e {
            for b in &k.branches {
                names.extend(b.cond.support_names());
                support(&b.elements, names);
            }
        }
    }
}

fn excerpt(s: &str, at: usize) -> String {
    s.get(at..).unwrap_or("").chars().take(40).collect()
}

fn bare(name: &str) -> &str {
    name.strip_prefix("defined(")
        .and_then(|n| n.strip_suffix(')'))
        .unwrap_or(name)
}

/// The paper's §6.3 check with real gcc: for seeded (unit, configuration)
/// pairs, gcc's single-configuration output must equal the
/// configuration-preserving output restricted to that configuration,
/// compared with all whitespace removed.
fn gccref(flags: &Flags) -> Result<(), String> {
    let tree = flags.str("tree")?;
    let pairs: usize = flags.num("pairs")?;
    let mut rng = Rng::new(flags.num("seed")?);
    let units: Vec<String> = std::fs::read_to_string(flags.str("units")?)
        .map_err(|e| e.to_string())?
        .lines()
        .map(str::to_string)
        .collect();
    let mut sc = SuperC::new(bench_options(), DiskFs::new(tree));
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut notes: Vec<String> = Vec::new();
    let mut tries = 0;
    while attempted < pairs as u64 && tries < pairs * 4 {
        tries += 1;
        let unit = &units[rng.below(units.len())];
        let processed = match sc.process(unit) {
            Ok(p) => p,
            Err(e) => {
                attempted += 1;
                failed += 1;
                notes.push(format!("{unit}: fatal: {e}"));
                continue;
            }
        };
        let mut names = BTreeSet::new();
        support(&processed.unit.elements, &mut names);
        // `NR_CPUS < 256` is the generator's one non-boolean test; with
        // NR_CPUS undefined gcc reads it as 0 < 256.
        if let Some(odd) = names.iter().map(|n| bare(n)).find(|n| {
            *n != "NR_CPUS < 256" && !n.chars().all(|c| c == '_' || c.is_ascii_alphanumeric())
        }) {
            notes.push(format!("{unit}: skipped, opaque condition {odd}"));
            continue;
        }
        let toggles: Vec<&str> = names
            .iter()
            .map(|n| bare(n))
            .filter(|n| n.starts_with("CONFIG_"))
            .collect();
        let set: BTreeSet<&str> = toggles
            .iter()
            .copied()
            .filter(|_| rng.next_u64() & 1 == 1)
            .collect();
        let env = |name: &str| -> Option<bool> {
            let n = bare(name);
            Some(n == "NR_CPUS < 256" || set.contains(n))
        };
        // A configuration the unit rejects with #error has no gcc output.
        let poisoned = processed.unit.diagnostics.iter().any(|d| {
            d.severity == Severity::Error && d.message.starts_with("#error") && d.cond.eval(env)
        });
        if poisoned {
            continue;
        }
        attempted += 1;
        let mut ours = String::new();
        select(&processed.unit.elements, &env, &mut ours);
        let mut cmd = Command::new("gcc");
        cmd.current_dir(tree)
            .args(["-E", "-P", "-nostdinc", "-I", "include"]);
        for name in &set {
            cmd.arg(format!("-D{name}=1"));
        }
        cmd.arg(unit);
        let theirs = match cmd.output() {
            Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).into_owned(),
            Ok(o) => {
                failed += 1;
                notes.push(format!(
                    "{unit}: gcc failed: {}",
                    String::from_utf8_lossy(&o.stderr)
                        .lines()
                        .next()
                        .unwrap_or("")
                ));
                continue;
            }
            Err(e) => {
                failed += 1;
                notes.push(format!("{unit}: cannot run gcc: {e}"));
                continue;
            }
        };
        let ours: String = ours.chars().filter(|c| !c.is_whitespace()).collect();
        let theirs: String = theirs.chars().filter(|c| !c.is_whitespace()).collect();
        if ours != theirs {
            failed += 1;
            let at = ours
                .bytes()
                .zip(theirs.bytes())
                .position(|(a, b)| a != b)
                .unwrap_or(ours.len().min(theirs.len()));
            notes.push(format!(
                "{unit} under {:?}: differs from gcc at byte {at}: ours {:?} gcc {:?}",
                set,
                excerpt(&ours, at),
                excerpt(&theirs, at)
            ));
        }
    }
    let notes: Vec<String> = notes.iter().map(|n| json_str(n)).collect();
    println!(
        "{{\"attempted\":{attempted},\"failed\":{failed},\"notes\":[{}]}}",
        notes.join(",")
    );
    Ok(())
}
