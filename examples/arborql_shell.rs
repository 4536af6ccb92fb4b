//! An interactive ArborQL shell over a generated Twitter-shaped graph —
//! the closest thing to the `cypher-shell` sessions behind the paper's §4
//! introspection. Type queries; `:explain Q` shows the plan, `:describe Q`
//! shows it with the cost-based planner's estimated cardinalities
//! (DESIGN.md §4g), `:profile Q` runs the profiler (per-operator rows +
//! db hits), `:stats` dumps engine counters.
//!
//! ```sh
//! cargo run --release --example arborql_shell            # interactive
//! echo 'MATCH (u:user) RETURN count(*)' | cargo run --release --example arborql_shell
//! ```

use std::io::{BufRead, Write};

use micrograph_core::ingest::build_engines;
use micrograph_datagen::{generate, GenConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let users: u64 = std::env::var("SHELL_USERS").ok().and_then(|s| s.parse().ok()).unwrap_or(1_000);
    let mut config = GenConfig::small();
    config.users = users;
    eprintln!("# generating {users}-user dataset and importing...");
    let dataset = generate(&config);
    let dir = std::env::temp_dir().join("micrograph-shell");
    let _ = std::fs::remove_dir_all(&dir);
    let files = dataset.write_csv(&dir)?;
    let (arbor, _bit, _) = build_engines(&files)?;
    let ql = arbor.ql();
    eprintln!("# ready: {}", dataset.stats().render_table().replace('\n', "\n# "));
    eprintln!("# schema: (:user {{uid, name, followers, verified}}), (:tweet {{tid, text}}), (:hashtag {{tag}})");
    eprintln!("# edges:  follows, posts, mentions, tags");
    eprintln!("# commands: :explain <q>   :describe <q>   :profile <q>   :stats   :quit");
    eprintln!("# example: MATCH (a:user {{uid: 1}})-[:follows]->(f) RETURN f.uid LIMIT 5");

    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    loop {
        eprint!("arborql> ");
        let _ = std::io::stderr().flush();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line)? == 0 {
            break;
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == ":quit" || line == ":q" {
            break;
        }
        if line == ":stats" {
            let s = arbor.db().stats();
            writeln!(
                out,
                "db hits {}  (cache hits {}, misses {}); index seeks {}; label scans {}",
                s.pages.accesses, s.pages.hits, s.pages.misses, s.index_seeks, s.label_scans
            )?;
            let (ch, cm) = ql.cache_stats();
            writeln!(out, "plan cache: {ch} hits / {cm} misses")?;
            continue;
        }
        if let Some(q) = line.strip_prefix(":explain ") {
            match ql.explain(q) {
                Ok(plan) => write!(out, "{plan}")?,
                Err(e) => writeln!(out, "error: {e}")?,
            }
            continue;
        }
        if let Some(q) = line.strip_prefix(":describe ") {
            match ql.describe(q) {
                Ok(plan) => write!(out, "{plan}")?,
                Err(e) => writeln!(out, "error: {e}")?,
            }
            continue;
        }
        if let Some(q) = line.strip_prefix(":profile ") {
            match ql.profile(q, &[]) {
                Ok(p) => {
                    write!(out, "{}", p.render())?;
                    for row in &p.result.rows {
                        writeln!(out, "{}", render_row(row))?;
                    }
                }
                Err(e) => writeln!(out, "error: {e}")?,
            }
            continue;
        }
        match ql.query(line, &[]) {
            Ok(r) => {
                writeln!(out, "{}", r.columns.join(" | "))?;
                for row in r.rows.iter().take(50) {
                    writeln!(out, "{}", render_row(row))?;
                }
                if r.rows.len() > 50 {
                    writeln!(out, "... {} more rows", r.rows.len() - 50)?;
                }
                writeln!(
                    out,
                    "({} rows, {:.2} ms, {} db hits{})",
                    r.stats.rows,
                    r.stats.exec_ms,
                    r.stats.db_hits,
                    if r.stats.plan_cached { ", cached plan" } else { "" }
                )?;
            }
            Err(e) => writeln!(out, "error: {e}")?,
        }
    }
    Ok(())
}

fn render_row(row: &[micrograph_core::Value]) -> String {
    row.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(" | ")
}
