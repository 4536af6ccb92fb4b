//! Script-driven bulk loading.
//!
//! "Sparksee scripts ... define the schema of the database. A script also
//! specifies the IDs to be indexed and source files for loading data"
//! (§3.2.2). The loader here consumes a small line-based script:
//!
//! ```text
//! # twitter load script
//! options extent_kb 64 cache_kb 512 materialize off recovery off
//! node user (uid integer, name string) from 'users.csv' index uid
//! node tweet (tid integer, text string) from 'tweets.csv' index tid
//! edge follows (user.uid, user.uid) from 'follows.csv'
//! edge posts (user.uid, tweet.tid) from 'posts.csv'
//! ```
//!
//! Behaviours reproduced from the paper:
//!
//! * recovery off by default ("to allow faster insertions");
//! * the write cache fills and **stalls to flush** (Figure 3's jumps; the
//!   loader records a marker per source file — the Figure 3(b) vertical
//!   line is the "end of follows" marker);
//! * `materialize on` turns on neighbor materialization, whose write
//!   amplification makes the load time superlinear — pass
//!   [`LoadOptions::abort_after`] to reproduce the paper's aborted import;
//! * **no incremental load**: the loader refuses a non-empty graph.
//!
//! An empty CSV field leaves its attribute absent, as in the arbordb
//! importer; an empty field in a key column (indexed, or an edge
//! endpoint's id) is `Malformed`.

use std::collections::HashMap;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::time::Duration;

use micrograph_common::csvio::CsvReader;
use micrograph_common::stats::{ProgressCurve, ProgressSampler, Timer};
use micrograph_common::Value;

use crate::extent::ExtentConfig;
use crate::graph::{DataType, Graph, GraphConfig, Oid};
use crate::{BitError, Result};

/// A node-file directive.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Node type name.
    pub type_name: String,
    /// `(attribute, datatype)` columns in CSV order.
    pub columns: Vec<(String, DataType)>,
    /// CSV file (relative to the script's base directory).
    pub file: PathBuf,
    /// Attributes to index.
    pub indexed: Vec<String>,
}

/// An edge-file directive.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeSpec {
    /// Edge type name.
    pub type_name: String,
    /// Source endpoint: `(node type, id attribute)`.
    pub src: (String, String),
    /// Target endpoint: `(node type, id attribute)`.
    pub dst: (String, String),
    /// CSV file with two id columns.
    pub file: PathBuf,
}

/// A parsed load script.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadScript {
    /// Node directives, in order.
    pub nodes: Vec<NodeSpec>,
    /// Edge directives, in order.
    pub edges: Vec<EdgeSpec>,
    /// Engine configuration from the `options` directive.
    pub config: LoadConfig,
}

/// Options parsed from the script's `options` line.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadConfig {
    /// Extent size in KiB (paper: 64).
    pub extent_kb: usize,
    /// Write-cache size in KiB (paper: 5 GB; scaled presets here).
    pub cache_kb: usize,
    /// Neighbor materialization.
    pub materialize: bool,
    /// Recovery (fsync per flush).
    pub recovery: bool,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            extent_kb: 64,
            cache_kb: 8 * 1024,
            materialize: false,
            recovery: false,
        }
    }
}

impl LoadConfig {
    /// Converts to a [`GraphConfig`].
    pub fn graph_config(&self) -> GraphConfig {
        GraphConfig {
            materialize_neighbors: self.materialize,
            extents: ExtentConfig {
                extent_size: self.extent_kb * 1024,
                cache_bytes: self.cache_kb * 1024,
                recovery: self.recovery,
            },
        }
    }
}

/// Parses a load script.
pub fn parse_script(text: &str) -> Result<LoadScript> {
    let mut script = LoadScript::default();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let toks = tokenize(line, lineno + 1)?;
        let mut t = toks.iter().map(String::as_str);
        match t.next() {
            Some("options") => parse_options(&toks[1..], &mut script.config, lineno + 1)?,
            Some("node") => script.nodes.push(parse_node(&toks[1..], lineno + 1)?),
            Some("edge") => script.edges.push(parse_edge(&toks[1..], lineno + 1)?),
            other => {
                return Err(BitError::Malformed(format!(
                    "script line {}: unknown directive {other:?}",
                    lineno + 1
                )))
            }
        }
    }
    Ok(script)
}

/// Splits a directive line into words; quoted spans (`'...'`) are one token;
/// punctuation `( ) , .` separates.
fn tokenize(line: &str, lineno: usize) -> Result<Vec<String>> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '\'' => {
                let mut s = String::new();
                loop {
                    match chars.next() {
                        Some('\'') => break,
                        Some(ch) => s.push(ch),
                        None => {
                            return Err(BitError::Malformed(format!(
                                "script line {lineno}: unterminated quote"
                            )))
                        }
                    }
                }
                out.push(s);
            }
            '(' | ')' | ',' | '.' => {
                if !cur.is_empty() {
                    out.push(std::mem::take(&mut cur));
                }
                out.push(c.to_string());
            }
            c if c.is_whitespace() => {
                if !cur.is_empty() {
                    out.push(std::mem::take(&mut cur));
                }
            }
            c => cur.push(c),
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    Ok(out)
}

fn parse_options(toks: &[String], config: &mut LoadConfig, lineno: usize) -> Result<()> {
    let mut i = 0;
    while i + 1 < toks.len() + 1 {
        if i >= toks.len() {
            break;
        }
        let key = &toks[i];
        let val = toks.get(i + 1).ok_or_else(|| {
            BitError::Malformed(format!("script line {lineno}: option {key} missing value"))
        })?;
        match key.as_str() {
            "extent_kb" => {
                config.extent_kb = val.parse().map_err(|_| {
                    BitError::Malformed(format!("script line {lineno}: bad extent_kb {val}"))
                })?
            }
            "cache_kb" => {
                config.cache_kb = val.parse().map_err(|_| {
                    BitError::Malformed(format!("script line {lineno}: bad cache_kb {val}"))
                })?
            }
            "materialize" => config.materialize = val == "on",
            "recovery" => config.recovery = val == "on",
            k => {
                return Err(BitError::Malformed(format!(
                    "script line {lineno}: unknown option {k}"
                )))
            }
        }
        i += 2;
    }
    Ok(())
}

fn parse_dtype(s: &str, lineno: usize) -> Result<DataType> {
    Ok(match s {
        "integer" | "int" => DataType::Integer,
        "string" => DataType::String,
        "double" => DataType::Double,
        "boolean" | "bool" => DataType::Boolean,
        other => {
            return Err(BitError::Malformed(format!(
                "script line {lineno}: unknown datatype {other}"
            )))
        }
    })
}

/// `node <name> ( a integer , b string ) from '<file>' [index a [b ...]]`
fn parse_node(toks: &[String], lineno: usize) -> Result<NodeSpec> {
    let mut i = 0;
    let err = |m: &str| BitError::Malformed(format!("script line {lineno}: {m}"));
    let type_name = toks.get(i).ok_or_else(|| err("missing node type"))?.clone();
    i += 1;
    if toks.get(i).map(String::as_str) != Some("(") {
        return Err(err("expected ("));
    }
    i += 1;
    let mut columns = Vec::new();
    loop {
        let name = toks
            .get(i)
            .ok_or_else(|| err("missing column name"))?
            .clone();
        let dt = parse_dtype(
            toks.get(i + 1).ok_or_else(|| err("missing datatype"))?,
            lineno,
        )?;
        columns.push((name, dt));
        i += 2;
        match toks.get(i).map(String::as_str) {
            Some(",") => i += 1,
            Some(")") => {
                i += 1;
                break;
            }
            _ => return Err(err("expected , or )")),
        }
    }
    if toks.get(i).map(String::as_str) != Some("from") {
        return Err(err("expected from"));
    }
    i += 1;
    let file = PathBuf::from(toks.get(i).ok_or_else(|| err("missing file"))?);
    i += 1;
    let mut indexed = Vec::new();
    if toks.get(i).map(String::as_str) == Some("index") {
        i += 1;
        while let Some(name) = toks.get(i) {
            indexed.push(name.clone());
            i += 1;
        }
    }
    Ok(NodeSpec {
        type_name,
        columns,
        file,
        indexed,
    })
}

/// `edge <name> ( srctype . attr , dsttype . attr ) from '<file>'`
fn parse_edge(toks: &[String], lineno: usize) -> Result<EdgeSpec> {
    let err = |m: &str| BitError::Malformed(format!("script line {lineno}: {m}"));
    let get = |i: usize| {
        toks.get(i)
            .map(String::as_str)
            .ok_or_else(|| err("truncated edge"))
    };
    let type_name = get(0)?.to_owned();
    if get(1)? != "(" {
        return Err(err("expected ("));
    }
    let src_type = get(2)?.to_owned();
    if get(3)? != "." {
        return Err(err("expected ."));
    }
    let src_attr = get(4)?.to_owned();
    if get(5)? != "," {
        return Err(err("expected ,"));
    }
    let dst_type = get(6)?.to_owned();
    if get(7)? != "." {
        return Err(err("expected ."));
    }
    let dst_attr = get(8)?.to_owned();
    if get(9)? != ")" {
        return Err(err("expected )"));
    }
    if get(10)? != "from" {
        return Err(err("expected from"));
    }
    let file = PathBuf::from(get(11)?);
    Ok(EdgeSpec {
        type_name,
        src: (src_type, src_attr),
        dst: (dst_type, dst_attr),
        file,
    })
}

/// Loader tuning.
#[derive(Debug, Clone, Copy)]
pub struct LoadOptions {
    /// Progress sample interval (records).
    pub sample_interval: u64,
    /// Give up when the load exceeds this duration (the paper aborted the
    /// materialized import after 8 hours).
    pub abort_after: Option<Duration>,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions {
            sample_interval: 10_000,
            abort_after: None,
        }
    }
}

/// What a bulk load produced — the raw material of Figure 3.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Node-phase curve (Figure 3a; one marker per node type payload region).
    pub node_curve: ProgressCurve,
    /// Edge-phase curve (Figure 3b; markers at each file end — the paper's
    /// "end of follows" vertical line).
    pub edge_curve: ProgressCurve,
    /// Total wall milliseconds.
    pub total_ms: f64,
    /// Bytes in the persistence log.
    pub disk_bytes: u64,
    /// Nodes loaded.
    pub nodes: u64,
    /// Edges loaded.
    pub edges: u64,
    /// Cache-full flush stalls.
    pub flush_stalls: u64,
    /// True when the load hit `abort_after` and was abandoned.
    pub aborted: bool,
}

/// Runs a bulk load. `graph_path = None` keeps the log in a temp file
/// within `base_dir`.
pub fn load(
    graph_path: Option<&Path>,
    script: &LoadScript,
    base_dir: &Path,
    opts: &LoadOptions,
) -> Result<(Graph, LoadReport)> {
    let config = script.config.graph_config();
    let default_path = base_dir.join("bitgraph.gdb");
    let path = graph_path.unwrap_or(&default_path);
    let mut g = Graph::create(path, config)?;
    let timer = Timer::start();
    let mut report = LoadReport::default();

    // Declare schema.
    let mut type_ids: HashMap<String, u32> = HashMap::new();
    let mut attr_ids: HashMap<(String, String), u32> = HashMap::new();
    for ns in &script.nodes {
        let t = g.new_node_type(&ns.type_name)?;
        type_ids.insert(ns.type_name.clone(), t);
        for (name, dt) in &ns.columns {
            let indexed = ns.indexed.contains(name);
            let a = g.new_attribute(t, name, *dt, indexed)?;
            attr_ids.insert((ns.type_name.clone(), name.clone()), a);
        }
    }
    for es in &script.edges {
        let t = g.new_edge_type(&es.type_name)?;
        type_ids.insert(es.type_name.clone(), t);
    }

    // Which (type, attr) pairs resolve edge endpoints → id maps.
    let mut id_maps: HashMap<(String, String), HashMap<Value, Oid>> = HashMap::new();
    for es in &script.edges {
        id_maps.entry(es.src.clone()).or_default();
        id_maps.entry(es.dst.clone()).or_default();
    }

    let deadline_hit = |t: &Timer| opts.abort_after.is_some_and(|limit| t.elapsed() >= limit);

    // ---- Nodes ----------------------------------------------------------
    let mut sampler = ProgressSampler::new(opts.sample_interval);
    for ns in &script.nodes {
        let t = type_ids[&ns.type_name];
        let cols: Vec<u32> = ns
            .columns
            .iter()
            .map(|(n, _)| attr_ids[&(ns.type_name.clone(), n.clone())])
            .collect();
        // Key columns — indexed, or resolving edge endpoints — must never
        // be empty: a node without its key could not be found or linked.
        let keys: Vec<bool> = ns
            .columns
            .iter()
            .map(|(n, _)| {
                ns.indexed.contains(n) || id_maps.contains_key(&(ns.type_name.clone(), n.clone()))
            })
            .collect();
        let file = std::fs::File::open(base_dir.join(&ns.file))?;
        let mut reader = CsvReader::new(BufReader::new(file));
        let mut fields = Vec::new();
        while reader.read_row(&mut fields)? {
            if fields.len() != ns.columns.len() {
                return Err(BitError::Malformed(format!(
                    "{:?} line {}: {} fields, expected {}",
                    ns.file,
                    reader.line_no(),
                    fields.len(),
                    ns.columns.len()
                )));
            }
            if let Some(i) = (0..fields.len()).find(|&i| keys[i] && fields[i].is_empty()) {
                return Err(BitError::Malformed(format!(
                    "{:?} line {}: empty key column {:?}",
                    ns.file,
                    reader.line_no(),
                    ns.columns[i].0
                )));
            }
            let oid = g.add_node(t)?;
            for (i, (name, dt)) in ns.columns.iter().enumerate() {
                // Any other empty field leaves the attribute absent.
                if fields[i].is_empty() {
                    continue;
                }
                let v = parse_value(*dt, &fields[i], &ns.file, reader.line_no())?;
                if let Some(map) = id_maps.get_mut(&(ns.type_name.clone(), name.clone())) {
                    map.insert(v.clone(), oid);
                }
                g.set_attr(oid, cols[i], v)?;
            }
            sampler.add(1);
            if deadline_hit(&timer) {
                report.aborted = true;
                break;
            }
        }
        sampler.mark(format!("end of {} nodes", ns.type_name));
        if report.aborted {
            break;
        }
    }
    report.nodes = sampler.total();
    report.node_curve = sampler.finish();

    // ---- Edges ----------------------------------------------------------
    let mut sampler = ProgressSampler::new(opts.sample_interval);
    if !report.aborted {
        'files: for es in &script.edges {
            let t = type_ids[&es.type_name];
            let src_map = &id_maps[&es.src];
            let dst_map = &id_maps[&es.dst];
            let src_dt = attr_dtype(script, &es.src)?;
            let dst_dt = attr_dtype(script, &es.dst)?;
            let file = std::fs::File::open(base_dir.join(&es.file))?;
            let mut reader = CsvReader::new(BufReader::new(file));
            let mut fields = Vec::new();
            while reader.read_row(&mut fields)? {
                if fields.len() != 2 {
                    return Err(BitError::Malformed(format!(
                        "{:?} line {}: expected 2 fields",
                        es.file,
                        reader.line_no()
                    )));
                }
                let sv = parse_value(src_dt, &fields[0], &es.file, reader.line_no())?;
                let dv = parse_value(dst_dt, &fields[1], &es.file, reader.line_no())?;
                let src = *src_map.get(&sv).ok_or_else(|| {
                    BitError::Malformed(format!(
                        "{:?} line {}: unknown source id {}",
                        es.file,
                        reader.line_no(),
                        fields[0]
                    ))
                })?;
                let dst = *dst_map.get(&dv).ok_or_else(|| {
                    BitError::Malformed(format!(
                        "{:?} line {}: unknown target id {}",
                        es.file,
                        reader.line_no(),
                        fields[1]
                    ))
                })?;
                g.add_edge(t, src, dst)?;
                sampler.add(1);
                if deadline_hit(&timer) {
                    report.aborted = true;
                    break 'files;
                }
            }
            sampler.mark(format!("end of {} edges", es.type_name));
        }
    }
    report.edges = sampler.total();
    report.edge_curve = sampler.finish();

    g.finish()?;
    report.flush_stalls = g.flush_count();
    report.disk_bytes = g.disk_bytes();
    report.total_ms = timer.elapsed_ms();
    Ok((g, report))
}

fn attr_dtype(script: &LoadScript, key: &(String, String)) -> Result<DataType> {
    script
        .nodes
        .iter()
        .find(|n| n.type_name == key.0)
        .and_then(|n| n.columns.iter().find(|(c, _)| *c == key.1))
        .map(|(_, dt)| *dt)
        .ok_or_else(|| BitError::Malformed(format!("edge references unknown {key:?}")))
}

fn parse_value(dt: DataType, raw: &str, file: &Path, line: u64) -> Result<Value> {
    let bad = || BitError::Malformed(format!("{file:?} line {line}: bad {dt:?} value {raw:?}"));
    Ok(match dt {
        DataType::Integer => Value::Int(raw.parse().map_err(|_| bad())?),
        DataType::Double => Value::Double(raw.parse().map_err(|_| bad())?),
        DataType::Boolean => Value::Bool(raw == "true" || raw == "1"),
        DataType::String => Value::Str(raw.to_owned()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::EdgesDirection;
    use std::io::Write;

    const SCRIPT: &str = "\
# tiny twitter
options extent_kb 1 cache_kb 4 materialize off recovery off
node user (uid integer, name string) from 'users.csv' index uid
node tweet (tid integer, text string) from 'tweets.csv' index tid
edge follows (user.uid, user.uid) from 'follows.csv'
edge posts (user.uid, tweet.tid) from 'posts.csv'
";

    fn setup(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bitload-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, content: &str| {
            let mut f = std::fs::File::create(dir.join(name)).unwrap();
            f.write_all(content.as_bytes()).unwrap();
        };
        write("users.csv", "1,alice\n2,bob\n3,carol\n");
        write("tweets.csv", "100,hello\n101,graphs\n");
        write("follows.csv", "1,2\n2,3\n3,1\n1,3\n");
        write("posts.csv", "1,100\n2,101\n");
        dir
    }

    #[test]
    fn parse_script_directives() {
        let s = parse_script(SCRIPT).unwrap();
        assert_eq!(s.nodes.len(), 2);
        assert_eq!(s.edges.len(), 2);
        assert_eq!(s.config.extent_kb, 1);
        assert_eq!(s.config.cache_kb, 4);
        assert!(!s.config.materialize);
        assert_eq!(s.nodes[0].indexed, vec!["uid"]);
        assert_eq!(s.edges[0].src, ("user".to_string(), "uid".to_string()));
        assert_eq!(s.nodes[1].file, PathBuf::from("tweets.csv"));
    }

    #[test]
    fn parse_errors() {
        assert!(parse_script("node user uid integer from 'x'").is_err());
        assert!(parse_script("bogus directive").is_err());
        assert!(parse_script("options nonsense 12").is_err());
        assert!(
            parse_script(
                "node user (uid integer) from 'f.csv'\nedge e (user.nope, user.uid) from 'g.csv'"
            )
            .is_ok(),
            "dangling attr detected at load, not parse"
        );
    }

    #[test]
    fn load_roundtrip() {
        let dir = setup("rt");
        let script = parse_script(SCRIPT).unwrap();
        let (g, report) = load(None, &script, &dir, &LoadOptions::default()).unwrap();
        assert_eq!(report.nodes, 5);
        assert_eq!(report.edges, 6);
        assert!(!report.aborted);
        assert!(report.disk_bytes > 0);

        let user = g.find_type("user").unwrap();
        let follows = g.find_type("follows").unwrap();
        let uid = g.find_attribute(user, "uid").unwrap();
        let alice = g.find_object(uid, &Value::Int(1)).unwrap().unwrap();
        let nb = g
            .neighbors(alice, follows, EdgesDirection::Outgoing)
            .unwrap();
        assert_eq!(nb.count(), 2);
        let name = g.find_attribute(user, "name").unwrap();
        assert_eq!(g.get_attr(alice, name).unwrap(), Some(Value::from("alice")));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tiny_cache_stalls() {
        let dir = setup("stall");
        // 1 KiB extents, 4 KiB cache → several flush stalls even tiny data.
        let script = parse_script(SCRIPT).unwrap();
        let (_g, report) = load(None, &script, &dir, &LoadOptions::default()).unwrap();
        assert!(
            report.flush_stalls >= 1,
            "flush stalls: {}",
            report.flush_stalls
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn materialized_load_writes_more() {
        let dir = setup("mat");
        let script_off = parse_script(SCRIPT).unwrap();
        let (_g1, off) = load(
            Some(&dir.join("off.gdb")),
            &script_off,
            &dir,
            &LoadOptions::default(),
        )
        .unwrap();
        let script_on = parse_script(&SCRIPT.replace("materialize off", "materialize on")).unwrap();
        let (_g2, on) = load(
            Some(&dir.join("on.gdb")),
            &script_on,
            &dir,
            &LoadOptions::default(),
        )
        .unwrap();
        assert!(
            on.disk_bytes > off.disk_bytes,
            "materialization write amplification: {} vs {}",
            on.disk_bytes,
            off.disk_bytes
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn abort_after_deadline() {
        let dir = setup("abort");
        let script = parse_script(SCRIPT).unwrap();
        let (_g, report) = load(
            None,
            &script,
            &dir,
            &LoadOptions {
                sample_interval: 1,
                abort_after: Some(Duration::ZERO),
            },
        )
        .unwrap();
        assert!(report.aborted);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_endpoint_fails() {
        let dir = setup("badend");
        std::fs::write(dir.join("follows.csv"), "1,99\n").unwrap();
        let script = parse_script(SCRIPT).unwrap();
        assert!(load(None, &script, &dir, &LoadOptions::default()).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_fields_leave_attributes_absent_and_empty_keys_are_malformed() {
        let dir = setup("empty");
        let script = parse_script(&SCRIPT.replace(
            "(uid integer, name string)",
            "(uid integer, name string, followers integer)",
        ))
        .unwrap();
        std::fs::write(dir.join("users.csv"), "1,alice,3\n2,,\n3,carol,\n").unwrap();
        let (g, _) = load(None, &script, &dir, &LoadOptions::default()).unwrap();
        let user = g.find_type("user").unwrap();
        let attr = |name| g.find_attribute(user, name).unwrap();
        let node = |uid| {
            g.find_object(attr("uid"), &Value::Int(uid))
                .unwrap()
                .unwrap()
        };
        assert_eq!(
            g.get_attr(node(1), attr("followers")).unwrap(),
            Some(Value::Int(3))
        );
        assert_eq!(g.get_attr(node(2), attr("name")).unwrap(), None);
        assert_eq!(g.get_attr(node(2), attr("followers")).unwrap(), None);
        assert_eq!(g.get_attr(node(3), attr("followers")).unwrap(), None);
        let follows = g.find_type("follows").unwrap();
        assert_eq!(
            g.neighbors(node(2), follows, EdgesDirection::Ingoing)
                .unwrap()
                .count(),
            1
        );

        // An empty key — an indexed column, or one an edge resolves on — is
        // an error and never a node.
        let unindexed = SCRIPT.replace("'tweets.csv' index tid", "'tweets.csv'");
        for (k, (script, users, tweets)) in [
            (SCRIPT, ",alice\n", "100,hello\n"),
            (SCRIPT, "1,alice\n", ",hello\n"),
            (unindexed.as_str(), "1,alice\n", ",hello\n"),
        ]
        .into_iter()
        .enumerate()
        {
            std::fs::write(dir.join("users.csv"), users).unwrap();
            std::fs::write(dir.join("tweets.csv"), tweets).unwrap();
            let script = parse_script(script).unwrap();
            let path = dir.join(format!("bad-{k}.gdb"));
            let err = load(Some(&path), &script, &dir, &LoadOptions::default())
                .err()
                .expect("an empty key fails the load");
            assert!(matches!(err, BitError::Malformed(_)), "{err:?}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn markers_recorded_per_file() {
        let dir = setup("markers");
        let script = parse_script(SCRIPT).unwrap();
        let (_g, report) = load(
            None,
            &script,
            &dir,
            &LoadOptions {
                sample_interval: 1,
                abort_after: None,
            },
        )
        .unwrap();
        let labels: Vec<&str> = report
            .edge_curve
            .markers
            .iter()
            .map(|(l, _)| l.as_str())
            .collect();
        assert_eq!(labels, vec!["end of follows edges", "end of posts edges"]);
        assert_eq!(
            report
                .node_curve
                .markers
                .iter()
                .map(|(l, _)| l.as_str())
                .collect::<Vec<_>>(),
            vec!["end of user nodes", "end of tweet nodes"]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
