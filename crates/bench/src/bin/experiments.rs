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
//!   chaos         §5 fault-injection robustness (retries/deadlines/degradation)
//!   summary       §3.2 import/size headline comparison
//!   all           everything above, in paper order
//! ```
//!
//! Serving throughput and latency are measured by `perfbench`, not here.
//! Series are printed as aligned tables with a sparkline and written as CSV
//! under the output directory. An unknown command, scale or `fig4` panel,
//! or an argument to a command that takes none, exits with status 2 before
//! the fixture is built. The fixture's temp directory is removed once the
//! command finishes.

use std::path::{Path, PathBuf};

use micrograph_bench::figures::{self, Panel};
use micrograph_bench::report::Series;
use micrograph_bench::{fixture, Scale};

/// A validated command: everything the fixture-building run needs.
#[derive(Debug, PartialEq)]
enum Command {
    Table1,
    Table2,
    Fig2,
    Fig3,
    Fig4(Vec<Panel>),
    Ablations,
    Updates,
    Chaos,
    Summary,
    All,
}

impl Command {
    /// Parses a command name and its trailing arguments. Only `fig4` takes
    /// arguments (panel ids); every other command rejects them.
    fn parse(name: &str, rest: &[String]) -> Result<Command, String> {
        if name == "fig4" {
            if rest.is_empty() {
                return Ok(Command::Fig4(Panel::ALL.to_vec()));
            }
            return rest
                .iter()
                .map(|p| {
                    Panel::parse(p).ok_or_else(|| format!("unknown fig4 panel {p:?}; expected a-h"))
                })
                .collect::<Result<_, _>>()
                .map(Command::Fig4);
        }
        let command = match name {
            "table1" => Command::Table1,
            "table2" => Command::Table2,
            "fig2" => Command::Fig2,
            "fig3" => Command::Fig3,
            "ablations" => Command::Ablations,
            "updates" => Command::Updates,
            "chaos" => Command::Chaos,
            "summary" => Command::Summary,
            "all" => Command::All,
            other => return Err(format!("unknown command {other:?}; see the module docs")),
        };
        match rest.first() {
            Some(extra) => Err(format!("command {name:?} takes no arguments, got {extra:?}")),
            None => Ok(command),
        }
    }
}

struct Args {
    scale: Scale,
    out: PathBuf,
    command: Command,
}

/// Parses the command line (without the program name).
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut scale = Scale::Small;
    let mut out = PathBuf::from("results");
    let mut command = String::new();
    let mut rest = Vec::new();
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                scale = match args.next().as_deref() {
                    Some("unit") => Scale::Unit,
                    Some("small") => Scale::Small,
                    Some("medium") => Scale::Medium,
                    other => return Err(format!("unknown scale {other:?}")),
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
    let command = Command::parse(&command, &rest)?;
    Ok(Args { scale, out, command })
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
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    eprintln!("# building fixture at scale {:?} (set --scale to change)...", args.scale);
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

    match &args.command {
        Command::Table1 => print!("{}", figures::table1(f)),
        Command::Table2 => print!("{}", figures::table2()),
        Command::Fig2 => {
            for s in figures::fig2(f) {
                emit(&s, &args.out);
            }
        }
        Command::Fig3 => {
            for s in figures::fig3(f) {
                emit(&s, &args.out);
            }
        }
        Command::Fig4(panels) => run_fig4(panels),
        Command::Ablations => print!("{}", figures::ablations(f)),
        Command::Updates => print!("{}", figures::update_throughput(f)),
        Command::Chaos => print!("{}", figures::chaos(f)),
        Command::Summary => print!("{}", figures::import_summary(f)),
        Command::All => {
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
            print!("{}", figures::chaos(f));
        }
    }
    // The fixture lives in a `OnceLock` and is never dropped.
    if let Err(e) = std::fs::remove_dir_all(&f.dir) {
        eprintln!("# could not remove {}: {e}", f.dir.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Command, String> {
        parse_args(line.split_whitespace().map(String::from)).map(|a| a.command)
    }

    #[test]
    fn known_commands_parse() {
        assert_eq!(parse(""), Ok(Command::All));
        assert_eq!(parse("--scale unit chaos"), Ok(Command::Chaos));
        assert_eq!(parse("fig4"), Ok(Command::Fig4(Panel::ALL.to_vec())));
        assert_eq!(parse("fig4 a H"), Ok(Command::Fig4(vec![Panel::A, Panel::H])));
    }

    #[test]
    fn bad_input_is_rejected_before_any_work() {
        for line in [
            "--scale unit fig4 z",
            "fig4 a z",
            "--scale unit serving",
            "serving --json",
            "nonsense",
            "table1 extra",
            "--scale huge table1",
        ] {
            assert!(parse(line).is_err(), "{line:?} must be rejected");
        }
    }
}
