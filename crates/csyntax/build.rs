//! Bakes the C grammar's parse tables at build time.
//!
//! Runs LALR construction over `src/grammar_def.rs` (the same file the
//! library compiles) and writes the encoded tables to
//! `$OUT_DIR/c_tables.bin`, which `src/grammar.rs` embeds with
//! `include_bytes!` and decodes at run time.

use std::path::PathBuf;

#[path = "src/grammar_def.rs"]
mod grammar_def;

fn main() {
    println!("cargo:rerun-if-changed=src/grammar_def.rs");
    println!("cargo:rerun-if-changed=../grammar/src");
    let grammar = grammar_def::build().expect("the C grammar builds");
    let out = PathBuf::from(std::env::var_os("OUT_DIR").expect("cargo sets OUT_DIR"));
    std::fs::write(out.join("c_tables.bin"), grammar.encode()).expect("write the baked C tables");
}
