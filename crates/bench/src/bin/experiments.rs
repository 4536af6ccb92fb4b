//! `experiments` — regenerates every table and figure of the paper.
//!
//! ```text
//! experiments [--scale unit|small|medium] [--out results/] <command>
//!
//! commands:
//!   table1        Table 1  dataset characteristics
//!   table2        Table 2  query workload
//!   fig2          Figure 2 arbordb import curves
//!   fig3          Figure 3 bitgraph load curves
//!   fig4 [a-h]    Figure 4 query latency panels (all panels by default)
//!   ablations     §4 discussion items D1–D6
//!   updates       §5 future-work update workload (FW1)
//!   serving       §5 concurrent multi-reader serving throughput (FW2)
//!                 plus the tail-latency axis (hedging off/on) and the
//!                 ArborQL executor axis (tuple vs vectorized)
//!                 (--json also writes BENCH_serving.json: seq-vs-par
//!                 scatter throughput per shard count plus tuple-vs-
//!                 vectorized executor rows, and BENCH_tail.json:
//!                 p99/p50 per engine × shards × hedging)
//!   chaos         §5 fault-injection robustness (retries/deadlines/degradation)
//!   summary       §3.2 import/size headline comparison
//!   all           everything above, in paper order
//! ```
//!
//! Series are printed as aligned tables with a sparkline and written as CSV
//! under the output directory.

use std::path::{Path, PathBuf};

use micrograph_bench::figures::{self, Panel};
use micrograph_bench::report::Series;
use micrograph_bench::{fixture, Scale};

struct Args {
    scale: Scale,
    out: PathBuf,
    command: String,
    rest: Vec<String>,
}

fn parse_args() -> Args {
    let mut scale = Scale::from_env(Scale::Small);
    let mut out = PathBuf::from("results");
    let mut command = String::new();
    let mut rest = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                scale = match args.next().as_deref() {
                    Some("unit") => Scale::Unit,
                    Some("small") => Scale::Small,
                    Some("medium") => Scale::Medium,
                    other => {
                        eprintln!("unknown scale {other:?}");
                        std::process::exit(2);
                    }
                }
            }
            "--out" => out = PathBuf::from(args.next().unwrap_or_else(|| "results".into())),
            c if command.is_empty() => command = c.to_owned(),
            c => rest.push(c.to_owned()),
        }
    }
    if command.is_empty() {
        command = "all".into();
    }
    Args { scale, out, command, rest }
}

fn emit(series: &Series, out: &Path) {
    print!("{}", series.render());
    println!();
    let name = series
        .title
        .to_ascii_lowercase()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect::<String>();
    match series.write_csv(out, &name) {
        Ok(p) => println!("  csv: {}", p.display()),
        Err(e) => eprintln!("  csv write failed: {e}"),
    }
    match series.write_svg(out, &name) {
        Ok(p) => println!("  svg: {}\n", p.display()),
        Err(e) => eprintln!("  svg write failed: {e}"),
    }
}

fn main() {
    let args = parse_args();
    eprintln!(
        "# building fixture at scale {:?} (set --scale / MICROGRAPH_SCALE to change)...",
        args.scale
    );
    let f = fixture(args.scale);
    eprintln!(
        "# fixture ready: {} nodes, {} edges\n",
        f.dataset.stats().total_nodes(),
        f.dataset.stats().total_edges()
    );

    let run_fig4 = |panels: &[Panel]| {
        for &p in panels {
            emit(&figures::fig4(f, p), &args.out);
        }
    };

    match args.command.as_str() {
        "table1" => print!("{}", figures::table1(f)),
        "table2" => print!("{}", figures::table2()),
        "fig2" => {
            for s in figures::fig2(f) {
                emit(&s, &args.out);
            }
        }
        "fig3" => {
            for s in figures::fig3(f) {
                emit(&s, &args.out);
            }
        }
        "fig4" => {
            let panels: Vec<Panel> = if args.rest.is_empty() {
                Panel::ALL.to_vec()
            } else {
                args.rest
                    .iter()
                    .filter_map(|s| Panel::parse(s))
                    .collect()
            };
            run_fig4(&panels);
        }
        "ablations" => print!("{}", figures::ablations(f)),
        "updates" => print!("{}", figures::update_throughput(f)),
        "serving" => {
            print!("{}", figures::serving(f));
            let tail_rows = figures::tail_axis(f);
            print!("{}", figures::tail_report(&tail_rows));
            if args.rest.iter().any(|a| a == "--json") {
                let scale = format!("{:?}", args.scale).to_ascii_lowercase();
                for (path, json) in [
                    (PathBuf::from("BENCH_serving.json"), figures::serving_json(f, &scale)),
                    (PathBuf::from("BENCH_tail.json"), figures::tail_json(f, &scale, &tail_rows)),
                ] {
                    match std::fs::write(&path, &json) {
                        Ok(()) => eprintln!("# wrote {}", path.display()),
                        Err(e) => eprintln!("# {} write failed: {e}", path.display()),
                    }
                }
            }
        }
        "chaos" => print!("{}", figures::chaos(f)),
        "summary" => print!("{}", figures::import_summary(f)),
        "all" => {
            println!("{}", figures::table1(f));
            println!("{}", figures::table2());
            print!("{}", figures::import_summary(f));
            println!();
            for s in figures::fig2(f) {
                emit(&s, &args.out);
            }
            for s in figures::fig3(f) {
                emit(&s, &args.out);
            }
            run_fig4(&Panel::ALL);
            print!("{}", figures::ablations(f));
            print!("{}", figures::update_throughput(f));
            print!("{}", figures::serving(f));
            print!("{}", figures::tail_report(&figures::tail_axis(f)));
            print!("{}", figures::chaos(f));
        }
        other => {
            eprintln!("unknown command {other:?}; see the module docs");
            std::process::exit(2);
        }
    }
}
