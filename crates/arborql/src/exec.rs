//! Push-based, row-at-a-time plan execution: the reference interpreter.
//!
//! [`crate::vexec::execute_vec`] is the executor the engine runs; this
//! module's [`execute`] is the semantic oracle tests compare it against,
//! plan for plan. It also holds the expression evaluator and comparators
//! both executors share.
//!
//! Every operator pushes rows into its parent through a sink callback that
//! can signal early termination — which is what makes `LIMIT` (and the TopN
//! pushdown) actually cheap, per the paper's Section 4 observation that
//! "removing ordering, deduplication and limiting the number of results
//! returned are all factors that contribute to performance gains".

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};

use arbordb::db::GraphDb;
use arbordb::traversal::shortest_path;
use micrograph_common::ids::Direction;
use micrograph_common::{EdgeId, NodeId, Value};

use crate::ast::CmpOp;
use crate::plan::{AggItem, CExpr, Op, Plan};
use crate::{QlError, Result};

/// A runtime slot value.
#[derive(Debug, Clone, PartialEq)]
pub enum Slot {
    /// Not yet bound.
    Empty,
    /// A bound node.
    Node(NodeId),
    /// A bound relationship.
    Edge(EdgeId),
    /// A computed value.
    Val(Value),
    /// A bound path (node sequence).
    Path(Vec<NodeId>),
}

/// A row of slots.
pub type Row = Vec<Slot>;

/// Execution context: database handle plus bound parameters.
pub struct ExecContext<'a> {
    /// The database.
    pub db: &'a GraphDb,
    /// Query parameters.
    pub params: &'a HashMap<String, Value>,
    /// Per-execution memo of neighbor sets used by pattern predicates —
    /// the hash side of an anti-semi-join. Keyed by
    /// `(node, rel type or MAX, direction)`.
    memo: RefCell<HashMap<(NodeId, u32, u8), HashSet<NodeId>>>,
    /// `PROFILE` row counters, indexed by `Op::Counter` id.
    pub(crate) counters: RefCell<Vec<u64>>,
}

impl<'a> ExecContext<'a> {
    /// Creates a context with `counters` `PROFILE` counter slots (one per
    /// `Op::Counter` of an instrumented plan; 0 for a plain plan).
    pub fn new(db: &'a GraphDb, params: &'a HashMap<String, Value>, counters: usize) -> Self {
        let (memo, counters) = (RefCell::new(HashMap::new()), RefCell::new(vec![0; counters]));
        ExecContext { db, params, memo, counters }
    }

    /// Takes the counter values after execution.
    pub fn take_counters(&self) -> Vec<u64> {
        self.counters.take()
    }
}

/// Executes `plan` one row at a time, returning result rows as plain
/// values. The reference that tests compare
/// [`crate::vexec::execute_vec`] against on the same plan; nothing serves
/// through it.
pub fn execute(plan: &Plan, ctx: &ExecContext<'_>) -> Result<Vec<Vec<Value>>> {
    let mut out = Vec::new();
    let row: Row = vec![Slot::Empty; plan.slots.max(plan.columns.len())];
    run(&plan.root, ctx, row, &mut |r: &Row| {
        out.push(r.iter().map(slot_to_value).collect::<Vec<Value>>());
        Ok(true)
    })?;
    Ok(out)
}

pub(crate) fn slot_to_value(s: &Slot) -> Value {
    match s {
        Slot::Empty => Value::Null,
        Slot::Node(n) => Value::Int(n.raw() as i64),
        Slot::Edge(e) => Value::Int(e.raw() as i64),
        Slot::Val(v) => v.clone(),
        Slot::Path(p) => Value::Str(
            p.iter().map(|n| n.raw().to_string()).collect::<Vec<_>>().join("->"),
        ),
    }
}

type Sink<'s> = dyn FnMut(&Row) -> Result<bool> + 's;

/// Nodes of `(:label {key})` whose stored value satisfies `key <op> bound`,
/// read from the ordered property index. Byte-exact with the equivalent
/// `Filter`: the index BTreeMap and the filter's `Value::cmp` share one
/// total order, stored nulls are excluded (a filter comparison against null
/// never holds), and a null bound matches nothing.
pub(crate) fn range_seek_nodes(
    db: &GraphDb,
    label: &str,
    key: &str,
    op: CmpOp,
    bound: &Value,
) -> Result<Vec<NodeId>> {
    use std::ops::Bound as B;
    if bound.is_null() {
        return Ok(Vec::new());
    }
    let null = Value::Null;
    let (lo, hi) = match op {
        CmpOp::Gt => (B::Excluded(bound), B::Unbounded),
        CmpOp::Ge => (B::Included(bound), B::Unbounded),
        CmpOp::Lt => (B::Excluded(&null), B::Excluded(bound)),
        CmpOp::Le => (B::Excluded(&null), B::Included(bound)),
        _ => return Err(QlError::Plan(format!("non-range comparison {op:?} in range seek"))),
    };
    db.index_range(label, key, lo, hi).ok_or_else(|| {
        QlError::Plan(format!("no index on (:{label} {{{key}}}) at execution time"))
    })
}

/// The deterministic seek schedule of a multi-anchor `IN` seek: the list's
/// non-null elements, sorted ascending in [`Value`]'s total order and
/// deduplicated. Both executors walk this schedule so anchors appear in the
/// same order; duplicates collapse because membership (like the equivalent
/// `Filter`) holds at most once per node, and null elements are dropped
/// because equality against null never holds.
pub(crate) fn in_seek_keys(list: Value) -> Result<Vec<Value>> {
    let mut keys = match list {
        Value::List(items) => items,
        Value::Null => Vec::new(),
        other => {
            return Err(QlError::Plan(format!("IN requires a list, got {other}")));
        }
    };
    keys.retain(|v| !v.is_null());
    keys.sort();
    keys.dedup();
    Ok(keys)
}

/// Runs `op`, pushing rows into `sink`. Returns `false` when the sink asked
/// to stop.
fn run(op: &Op, ctx: &ExecContext<'_>, row: Row, sink: &mut Sink<'_>) -> Result<bool> {
    match op {
        Op::IndexSeek { input, label, key, value, slot } => {
            with_input(input, ctx, row, sink, &mut |row, sink| {
                let v = eval(value, row, ctx)?;
                let nodes = ctx.db.index_seek(label, key, &v).ok_or_else(|| {
                    QlError::Plan(format!("no index on (:{label} {{{key}}}) at execution time"))
                })?;
                let mut row = row.clone();
                for n in nodes {
                    row[*slot] = Slot::Node(n);
                    if !sink(&row)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            })
        }
        Op::NodeIdInSeek { input, label, key, list, slot } => {
            with_input(input, ctx, row, sink, &mut |row, sink| {
                let keys = in_seek_keys(eval(list, row, ctx)?)?;
                let mut row = row.clone();
                for v in &keys {
                    let nodes = ctx.db.index_seek(label, key, v).ok_or_else(|| {
                        QlError::Plan(format!(
                            "no index on (:{label} {{{key}}}) at execution time"
                        ))
                    })?;
                    for n in nodes {
                        row[*slot] = Slot::Node(n);
                        if !sink(&row)? {
                            return Ok(false);
                        }
                    }
                }
                Ok(true)
            })
        }
        Op::IndexRangeSeek { input, label, key, op, bound, slot } => {
            with_input(input, ctx, row, sink, &mut |row, sink| {
                let v = eval(bound, row, ctx)?;
                let nodes = range_seek_nodes(ctx.db, label, key, *op, &v)?;
                let mut row = row.clone();
                for n in nodes {
                    row[*slot] = Slot::Node(n);
                    if !sink(&row)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            })
        }
        Op::LabelScan { input, label, slot } => {
            with_input(input, ctx, row, sink, &mut |row, sink| {
                let Some(l) = ctx.db.label_id(label) else { return Ok(true) };
                let mut row = row.clone();
                for n in ctx.db.nodes_with_label(l) {
                    row[*slot] = Slot::Node(n);
                    if !sink(&row)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            })
        }
        Op::AllNodes { input, slot } => {
            with_input(input, ctx, row, sink, &mut |row, sink| {
                let mut row = row.clone();
                for id in 0..ctx.db.node_count() {
                    let n = NodeId(id);
                    if !ctx.db.node_exists(n) {
                        continue;
                    }
                    row[*slot] = Slot::Node(n);
                    if !sink(&row)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            })
        }
        Op::Expand { input, from, to, rel_slot, rel_type, dir, min, max } => {
            let t = resolve_type(ctx.db, rel_type);
            run(input, ctx, row, &mut |row: &Row| {
                let Slot::Node(start) = row[*from] else {
                    return Err(QlError::Plan("expand source slot is not a node".into()));
                };
                if rel_type.is_some() && t.is_none() {
                    return Ok(true); // type never created: no matches
                }
                if (*min, *max) == (1, 1) {
                    let mut out_row = row.clone();
                    for r in ctx.db.rels(start, t, *dir) {
                        let (eid, rec) = r.map_err(QlError::Db)?;
                        out_row[*to] = Slot::Node(rec.other(start));
                        if let Some(rs) = rel_slot {
                            out_row[*rs] = Slot::Edge(eid);
                        }
                        if !sink(&out_row)? {
                            return Ok(false);
                        }
                    }
                    Ok(true)
                } else {
                    var_expand(ctx.db, start, t, *dir, *min, *max, &mut |end| {
                        let mut out_row = row.clone();
                        out_row[*to] = Slot::Node(end);
                        sink(&out_row)
                    })
                }
            })
        }
        Op::Filter { input, pred } => run(input, ctx, row, &mut |row: &Row| {
            if eval(pred, row, ctx)?.is_truthy() {
                sink(row)
            } else {
                Ok(true)
            }
        }),
        Op::ShortestPath { input, from, to, rel_type, dir, max, path_slot } => {
            let t = resolve_type(ctx.db, rel_type);
            run(input, ctx, row, &mut |row: &Row| {
                let (Slot::Node(a), Slot::Node(b)) = (&row[*from], &row[*to]) else {
                    return Err(QlError::Plan("shortestPath endpoints not bound".into()));
                };
                if rel_type.is_some() && t.is_none() {
                    return Ok(true);
                }
                match shortest_path(ctx.db, *a, *b, t, *dir, *max).map_err(QlError::Db)? {
                    Some(p) => {
                        let mut out_row = row.clone();
                        out_row[*path_slot] = Slot::Path(p);
                        sink(&out_row)
                    }
                    None => Ok(true),
                }
            })
        }
        Op::Project { input, exprs } => run(input, ctx, row, &mut |row: &Row| {
            let mut out_row: Row = Vec::with_capacity(exprs.len());
            for e in exprs {
                out_row.push(Slot::Val(eval(e, row, ctx)?));
            }
            sink(&out_row)
        }),
        Op::Aggregate { input, items } => {
            let mut groups: HashMap<Vec<Value>, u64> = HashMap::new();
            run(input, ctx, row, &mut |row: &Row| {
                let mut key = Vec::new();
                for item in items {
                    if let AggItem::Group(e) = item {
                        key.push(eval(e, row, ctx)?);
                    }
                }
                *groups.entry(key).or_insert(0) += 1;
                Ok(true)
            })?;
            // A global aggregation (no grouping keys) over an empty input
            // still yields one row: count(*) = 0.
            let global = !items.iter().any(|i| matches!(i, AggItem::Group(_)));
            if global && groups.is_empty() {
                groups.insert(Vec::new(), 0);
            }
            for (key, count) in groups {
                let mut out_row: Row = Vec::with_capacity(items.len());
                let mut gi = 0usize;
                for item in items {
                    match item {
                        AggItem::Group(_) => {
                            out_row.push(Slot::Val(key[gi].clone()));
                            gi += 1;
                        }
                        AggItem::Count => out_row.push(Slot::Val(Value::Int(count as i64))),
                    }
                }
                if !sink(&out_row)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        Op::Distinct { input } => {
            let mut seen: std::collections::HashSet<Vec<Value>> = std::collections::HashSet::new();
            run(input, ctx, row, &mut |row: &Row| {
                let key: Vec<Value> = row.iter().map(slot_to_value).collect();
                if seen.insert(key) {
                    sink(row)
                } else {
                    Ok(true)
                }
            })
        }
        Op::Sort { input, keys } => {
            let mut rows: Vec<Row> = Vec::new();
            run(input, ctx, row, &mut |r: &Row| {
                rows.push(r.clone());
                Ok(true)
            })?;
            rows.sort_by(|a, b| cmp_rows(keys, a, b));
            for r in &rows {
                if !sink(r)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        Op::TopN { input, keys, limit } => {
            let n = eval_limit(limit, ctx)?;
            // Sorted insertion into a bounded vector: O(rows · log n) compares
            // plus O(n) shifts — n is a result LIMIT, i.e. small.
            let mut best: Vec<Row> = Vec::with_capacity(n.saturating_add(1).min(1024));
            run(input, ctx, row, &mut |r: &Row| {
                if n == 0 {
                    return Ok(false);
                }
                let pos = best
                    .binary_search_by(|probe| cmp_rows(keys, probe, r))
                    .unwrap_or_else(|p| p);
                if pos < n {
                    best.insert(pos, r.clone());
                    best.truncate(n);
                }
                Ok(true)
            })?;
            for r in &best {
                if !sink(r)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        Op::Limit { input, limit } => {
            let n = eval_limit(limit, ctx)?;
            let mut count = 0usize;
            let mut downstream_stopped = false;
            run(input, ctx, row, &mut |r: &Row| {
                if count >= n {
                    return Ok(false); // our own early termination
                }
                count += 1;
                let cont = sink(r)?;
                if !cont {
                    downstream_stopped = true;
                    return Ok(false);
                }
                Ok(count < n)
            })?;
            Ok(!downstream_stopped)
        }
        Op::Let { input, bindings } => run(input, ctx, row, &mut |r: &Row| {
            let mut out_row = r.clone();
            for (slot, expr) in bindings {
                out_row[*slot] = Slot::Val(eval(expr, r, ctx)?);
            }
            sink(&out_row)
        }),
        Op::DistinctBy { input, exprs } => {
            let mut seen: std::collections::HashSet<Vec<Value>> = std::collections::HashSet::new();
            run(input, ctx, row, &mut |r: &Row| {
                let key = exprs.iter().map(|e| eval(e, r, ctx)).collect::<Result<Vec<_>>>()?;
                if seen.insert(key) {
                    sink(r)
                } else {
                    Ok(true)
                }
            })
        }
        Op::SortBy { input, keys } => {
            let mut rows: Vec<(Vec<Value>, Row)> = Vec::new();
            run(input, ctx, row, &mut |r: &Row| {
                let key = keys
                    .iter()
                    .map(|(e, _)| eval(e, r, ctx))
                    .collect::<Result<Vec<_>>>()?;
                rows.push((key, r.clone()));
                Ok(true)
            })?;
            rows.sort_by(|(ka, ra), (kb, rb)| {
                for (i, (_, desc)) in keys.iter().enumerate() {
                    let ord = ka[i].cmp(&kb[i]);
                    let ord = if *desc { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                // Deterministic tie-break on the full row.
                cmp_full_rows(ra, rb)
            });
            for (_, r) in &rows {
                if !sink(r)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        Op::AggregateBy { input, groups, count_slot } => {
            // Group key → (representative row with group slots set, count).
            let mut acc: HashMap<Vec<Value>, (Row, u64)> = HashMap::new();
            let mut order: Vec<Vec<Value>> = Vec::new();
            run(input, ctx, row, &mut |r: &Row| {
                let key = groups
                    .iter()
                    .map(|(_, e)| eval(e, r, ctx))
                    .collect::<Result<Vec<_>>>()?;
                match acc.get_mut(&key) {
                    Some((_, n)) => *n += 1,
                    None => {
                        let mut rep = r.clone();
                        for (slot, expr) in groups {
                            // Bare-slot groups copy the slot as-is so node
                            // variables stay expandable downstream.
                            rep[*slot] = match expr {
                                CExpr::Slot(s) => r[*s].clone(),
                                e => Slot::Val(eval(e, r, ctx)?),
                            };
                        }
                        order.push(key.clone());
                        acc.insert(key, (rep, 1));
                    }
                }
                Ok(true)
            })?;
            for key in &order {
                let (rep, n) = acc.get(key).expect("inserted above");
                let mut out_row = rep.clone();
                if let Some(cs) = count_slot {
                    out_row[*cs] = Slot::Val(Value::Int(*n as i64));
                }
                if !sink(&out_row)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        Op::Counter { input, id } => run(input, ctx, row, &mut |r: &Row| {
            ctx.counters.borrow_mut()[*id] += 1;
            sink(r)
        }),
    }
}

/// Runs `body` once per input row (or once with the seed row for leaves).
fn with_input(
    input: &Option<Box<Op>>,
    ctx: &ExecContext<'_>,
    row: Row,
    sink: &mut Sink<'_>,
    body: &mut dyn FnMut(&Row, &mut Sink<'_>) -> Result<bool>,
) -> Result<bool> {
    match input {
        None => body(&row, sink),
        Some(child) => run(child, ctx, row, &mut |r: &Row| body(r, sink)),
    }
}

pub(crate) fn resolve_type(db: &GraphDb, rel_type: &Option<String>) -> Option<u32> {
    rel_type.as_ref().and_then(|t| db.rel_type_id(t))
}

/// Variable-length expansion: enumerate every path of `min..=max` hops with
/// relationship uniqueness, emitting the end node once per path (Cypher
/// semantics — duplicates across paths are intentional; Q4's phrasing (a)
/// counts them).
pub(crate) fn var_expand(
    db: &GraphDb,
    start: NodeId,
    rel_type: Option<u32>,
    dir: Direction,
    min: u32,
    max: u32,
    emit: &mut dyn FnMut(NodeId) -> Result<bool>,
) -> Result<bool> {
    #[allow(clippy::too_many_arguments)]
    fn dfs(
        db: &GraphDb,
        node: NodeId,
        depth: u32,
        rel_type: Option<u32>,
        dir: Direction,
        min: u32,
        max: u32,
        used: &mut Vec<EdgeId>,
        emit: &mut dyn FnMut(NodeId) -> Result<bool>,
    ) -> Result<bool> {
        if depth >= min && depth > 0 && !emit(node)? {
            return Ok(false);
        }
        if depth == max {
            return Ok(true);
        }
        for r in db.rels(node, rel_type, dir) {
            let (eid, rec) = r.map_err(QlError::Db)?;
            if used.contains(&eid) {
                continue;
            }
            used.push(eid);
            let cont = dfs(db, rec.other(node), depth + 1, rel_type, dir, min, max, used, emit)?;
            used.pop();
            if !cont {
                return Ok(false);
            }
        }
        Ok(true)
    }
    let mut used = Vec::with_capacity(max as usize);
    dfs(db, start, 0, rel_type, dir, min, max, &mut used, emit)
}

pub(crate) fn eval_limit(e: &CExpr, ctx: &ExecContext<'_>) -> Result<usize> {
    let row: Row = Vec::new();
    match eval(e, &row, ctx)? {
        Value::Int(n) if n >= 0 => Ok(n as usize),
        other => Err(QlError::Plan(format!("LIMIT must be a non-negative integer, got {other}"))),
    }
}

/// Total-order comparison of two rows by sort keys (descending flags).
/// Compares two slots exactly as `slot_to_value(a).cmp(&slot_to_value(b))`
/// would, without cloning the values on the homogeneous (hot) arms —
/// sort/top-n comparators run this per comparison, and tied count columns
/// make tie groups large.
pub(crate) fn cmp_slot(a: &Slot, b: &Slot) -> std::cmp::Ordering {
    match (a, b) {
        (Slot::Val(x), Slot::Val(y)) => x.cmp(y),
        (Slot::Empty, Slot::Empty) => std::cmp::Ordering::Equal,
        (Slot::Node(x), Slot::Node(y)) => (x.raw() as i64).cmp(&(y.raw() as i64)),
        (Slot::Edge(x), Slot::Edge(y)) => (x.raw() as i64).cmp(&(y.raw() as i64)),
        (a, b) => slot_to_value(a).cmp(&slot_to_value(b)),
    }
}

/// Compares full rows slot-by-slot (the deterministic sort tie-break),
/// equal to comparing the materialized `Vec<Value>` projections.
pub(crate) fn cmp_full_rows(a: &[Slot], b: &[Slot]) -> std::cmp::Ordering {
    for (x, y) in a.iter().zip(b.iter()) {
        let ord = cmp_slot(x, y);
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    a.len().cmp(&b.len())
}

pub(crate) fn cmp_rows(keys: &[(usize, bool)], a: &[Slot], b: &[Slot]) -> std::cmp::Ordering {
    for &(col, desc) in keys {
        let ord = cmp_slot(&a[col], &b[col]);
        let ord = if desc { ord.reverse() } else { ord };
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    // Deterministic tie-break on the full row.
    cmp_full_rows(a, b)
}

/// Evaluates an expression against a row.
pub fn eval(e: &CExpr, row: &[Slot], ctx: &ExecContext<'_>) -> Result<Value> {
    Ok(match e {
        CExpr::Lit(v) => v.clone(),
        CExpr::Param(p) => ctx
            .params
            .get(p)
            .cloned()
            .ok_or_else(|| QlError::Unknown(format!("parameter ${p} not supplied")))?,
        CExpr::Slot(s) => slot_to_value(&row[*s]),
        CExpr::Prop(s, key) => match &row[*s] {
            Slot::Node(n) => {
                if key == "  label" {
                    let l = ctx.db.label_of(*n).map_err(QlError::Db)?;
                    ctx.db.label_name(l).map(Value::Str).unwrap_or(Value::Null)
                } else {
                    ctx.db.node_prop(*n, key).map_err(QlError::Db)?.unwrap_or(Value::Null)
                }
            }
            Slot::Edge(e) => {
                ctx.db.rel_prop(*e, key).map_err(QlError::Db)?.unwrap_or(Value::Null)
            }
            other => {
                return Err(QlError::Plan(format!(
                    "property access on non-node slot {other:?}"
                )))
            }
        },
        CExpr::PropId(s, kid) => match &row[*s] {
            Slot::Node(n) => {
                ctx.db.node_prop_by_id(*n, *kid).map_err(QlError::Db)?.unwrap_or(Value::Null)
            }
            Slot::Edge(e) => {
                ctx.db.rel_prop_by_id(*e, *kid).map_err(QlError::Db)?.unwrap_or(Value::Null)
            }
            other => {
                return Err(QlError::Plan(format!(
                    "property access on non-node slot {other:?}"
                )))
            }
        },
        CExpr::CountStar => {
            return Err(QlError::Plan("count(*) outside an aggregation".into()))
        }
        CExpr::Length(s) => match &row[*s] {
            Slot::Path(p) => Value::Int(p.len() as i64 - 1),
            other => return Err(QlError::Plan(format!("length() on non-path slot {other:?}"))),
        },
        CExpr::RelType(s) => match &row[*s] {
            Slot::Edge(e) => {
                let rec = ctx.db.rel_record(*e).map_err(QlError::Db)?;
                ctx.db.rel_type_name(rec.rel_type).map(Value::Str).unwrap_or(Value::Null)
            }
            other => {
                return Err(QlError::Plan(format!("type() on non-relationship slot {other:?}")))
            }
        },
        CExpr::Id(s) => match &row[*s] {
            Slot::Node(n) => Value::Int(n.raw() as i64),
            Slot::Edge(e) => Value::Int(e.raw() as i64),
            other => return Err(QlError::Plan(format!("id() on non-node slot {other:?}"))),
        },
        CExpr::Cmp(op, a, b) => {
            let va = eval(a, row, ctx)?;
            let vb = eval(b, row, ctx)?;
            if va.is_null() || vb.is_null() {
                // Comparisons against null never hold.
                return Ok(Value::Bool(false));
            }
            let ord = va.cmp(&vb);
            Value::Bool(match op {
                CmpOp::Eq => ord == std::cmp::Ordering::Equal,
                CmpOp::Neq => ord != std::cmp::Ordering::Equal,
                CmpOp::Lt => ord == std::cmp::Ordering::Less,
                CmpOp::Le => ord != std::cmp::Ordering::Greater,
                CmpOp::Gt => ord == std::cmp::Ordering::Greater,
                CmpOp::Ge => ord != std::cmp::Ordering::Less,
            })
        }
        CExpr::In(a, b) => {
            let va = eval(a, row, ctx)?;
            let vb = eval(b, row, ctx)?;
            if va.is_null() || vb.is_null() {
                // Membership against null never holds, like Cmp.
                return Ok(Value::Bool(false));
            }
            match vb {
                Value::List(items) => {
                    Value::Bool(items.iter().any(|x| !x.is_null() && *x == va))
                }
                other => {
                    return Err(QlError::Plan(format!("IN requires a list, got {other}")));
                }
            }
        }
        CExpr::And(a, b) => {
            Value::Bool(eval(a, row, ctx)?.is_truthy() && eval(b, row, ctx)?.is_truthy())
        }
        CExpr::Or(a, b) => {
            Value::Bool(eval(a, row, ctx)?.is_truthy() || eval(b, row, ctx)?.is_truthy())
        }
        CExpr::Not(a) => Value::Bool(!eval(a, row, ctx)?.is_truthy()),
        CExpr::PatternExists { from, to, rel_type, dir } => {
            let (Slot::Node(a), Slot::Node(b)) = (&row[*from], &row[*to]) else {
                return Err(QlError::Plan("pattern predicate endpoints not bound".into()));
            };
            let t = resolve_type(ctx.db, rel_type);
            if rel_type.is_some() && t.is_none() {
                return Ok(Value::Bool(false));
            }
            // Expand from the lower-degree side (the "bound side" rule).
            let da = ctx.db.degree(*a, t, *dir).map_err(QlError::Db)?;
            let db_ = ctx.db.degree(*b, t, dir.reverse()).map_err(QlError::Db)?;
            let (probe_from, probe_dir, target, deg) = if da <= db_ {
                (*a, *dir, *b, da)
            } else {
                (*b, dir.reverse(), *a, db_)
            };
            // High-degree sides get their neighbor set memoized for the
            // rest of this execution (a hash anti-semi-join): the same
            // bound node is typically probed once per result row.
            const MEMO_DEGREE: u64 = 16;
            let found = if deg >= MEMO_DEGREE {
                let key = (probe_from, t.unwrap_or(u32::MAX), dir_code(probe_dir));
                if !ctx.memo.borrow().contains_key(&key) {
                    let mut set = HashSet::with_capacity(deg as usize);
                    for nb in ctx.db.neighbors(probe_from, t, probe_dir) {
                        set.insert(nb.map_err(QlError::Db)?);
                    }
                    ctx.memo.borrow_mut().insert(key, set);
                }
                ctx.memo.borrow()[&key].contains(&target)
            } else {
                neighbors_contain(ctx.db, probe_from, t, probe_dir, target)?
            };
            Value::Bool(found)
        }
    })
}

fn dir_code(d: Direction) -> u8 {
    match d {
        Direction::Outgoing => 0,
        Direction::Incoming => 1,
        Direction::Both => 2,
    }
}

fn neighbors_contain(
    db: &GraphDb,
    from: NodeId,
    t: Option<u32>,
    dir: Direction,
    target: NodeId,
) -> Result<bool> {
    for nb in db.neighbors(from, t, dir) {
        if nb.map_err(QlError::Db)? == target {
            return Ok(true);
        }
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::QueryEngine;
    use arbordb::db::DbConfig;
    use std::sync::Arc;

    fn tiny_db() -> Arc<GraphDb> {
        let db = GraphDb::open_memory(DbConfig::default()).unwrap();
        let mut tx = db.begin_write().unwrap();
        let a = tx.create_node("user", &[("uid", Value::Int(1))]).unwrap();
        let b = tx.create_node("user", &[("uid", Value::Int(2))]).unwrap();
        let c = tx.create_node("user", &[("uid", Value::Int(3))]).unwrap();
        tx.create_rel(a, b, "follows", &[]).unwrap();
        tx.create_rel(b, c, "follows", &[]).unwrap();
        tx.create_rel(a, c, "knows", &[]).unwrap();
        tx.commit().unwrap();
        db.create_index("user", "uid").unwrap();
        Arc::new(db)
    }

    #[test]
    fn slot_to_value_variants() {
        assert_eq!(slot_to_value(&Slot::Empty), Value::Null);
        assert_eq!(slot_to_value(&Slot::Node(NodeId(4))), Value::Int(4));
        assert_eq!(slot_to_value(&Slot::Val(Value::from("x"))), Value::from("x"));
        assert_eq!(
            slot_to_value(&Slot::Path(vec![NodeId(1), NodeId(2)])),
            Value::from("1->2")
        );
    }

    #[test]
    fn cmp_rows_respects_desc_and_tiebreak() {
        let keys = [(0usize, true)];
        let a: Row = vec![Slot::Val(Value::Int(5)), Slot::Val(Value::Int(1))];
        let b: Row = vec![Slot::Val(Value::Int(3)), Slot::Val(Value::Int(2))];
        assert_eq!(cmp_rows(&keys, &a, &b), std::cmp::Ordering::Less, "desc: 5 before 3");
        let c: Row = vec![Slot::Val(Value::Int(5)), Slot::Val(Value::Int(0))];
        assert_eq!(cmp_rows(&keys, &c, &a), std::cmp::Ordering::Less, "full-row tiebreak");
    }

    #[test]
    fn unknown_rel_type_matches_nothing() {
        let db = tiny_db();
        let ql = QueryEngine::new(db);
        let r = ql
            .query("MATCH (a:user {uid: 1})-[:never_created]->(x) RETURN x", &[])
            .unwrap();
        assert!(r.rows.is_empty());
    }

    #[test]
    fn untyped_expand_crosses_types() {
        let db = tiny_db();
        let ql = QueryEngine::new(db);
        let r = ql
            .query("MATCH (a:user {uid: 1})-[]->(x) RETURN x.uid ORDER BY x.uid", &[])
            .unwrap();
        let got: Vec<i64> = r.rows.iter().map(|row| row[0].as_int().unwrap()).collect();
        assert_eq!(got, vec![2, 3], "follows + knows edges both matched");
    }

    #[test]
    fn global_count_of_empty_input_is_zero() {
        let db = tiny_db();
        let ql = QueryEngine::new(db);
        let r = ql
            .query("MATCH (a:user {uid: 99})-[:follows]->(x) RETURN count(*)", &[])
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0], Value::Int(0));
    }

    #[test]
    fn grouped_count_of_empty_input_is_empty() {
        let db = tiny_db();
        let ql = QueryEngine::new(db);
        let r = ql
            .query(
                "MATCH (a:user {uid: 99})-[:follows]->(x) RETURN x.uid, count(*)",
                &[],
            )
            .unwrap();
        assert!(r.rows.is_empty(), "grouped aggregate over nothing has no groups");
    }

    #[test]
    fn limit_stops_expansion_early() {
        let db = tiny_db();
        let ql = QueryEngine::new(db.clone());
        db.reset_stats();
        let r = ql.query("MATCH (u:user) RETURN u.uid LIMIT 1", &[]).unwrap();
        assert_eq!(r.rows.len(), 1);
        // Early termination means far fewer property reads than 3 users
        // would need — just sanity-check it returned quickly and correctly.
    }

    #[test]
    fn var_expand_edge_uniqueness() {
        // a->b->c and a->c(knows): *1..3 over follows from a yields b (1 hop),
        // c (2 hops); edge-uniqueness prevents infinite revisits.
        let db = tiny_db();
        let ql = QueryEngine::new(db);
        let r = ql
            .query(
                "MATCH (a:user {uid: 1})-[:follows*1..3]->(x) RETURN x.uid ORDER BY x.uid",
                &[],
            )
            .unwrap();
        let got: Vec<i64> = r.rows.iter().map(|row| row[0].as_int().unwrap()).collect();
        assert_eq!(got, vec![2, 3]);
    }

    #[test]
    fn pattern_exists_memo_consistency() {
        // The memoized anti-join path (degree >= 16) must agree with the
        // scan path (degree < 16): build a hub with 20 followees.
        let db = GraphDb::open_memory(DbConfig::default()).unwrap();
        let mut tx = db.begin_write().unwrap();
        let hub = tx.create_node("user", &[("uid", Value::Int(0))]).unwrap();
        let spokes: Vec<_> = (1..=20i64)
            .map(|i| tx.create_node("user", &[("uid", Value::Int(i))]).unwrap())
            .collect();
        for (i, &s) in spokes.iter().enumerate() {
            if i % 2 == 0 {
                tx.create_rel(hub, s, "follows", &[]).unwrap();
            }
            tx.create_rel(s, hub, "follows", &[]).unwrap();
        }
        tx.commit().unwrap();
        db.create_index("user", "uid").unwrap();
        let ql = QueryEngine::new(Arc::new(db));
        // Followers of the hub that the hub does NOT follow back: odd uids.
        let r = ql
            .query(
                "MATCH (h:user {uid: 0})<-[:follows]-(f) \
                 WHERE NOT (h)-[:follows]->(f) RETURN f.uid ORDER BY f.uid",
                &[],
            )
            .unwrap();
        let got: Vec<i64> = r.rows.iter().map(|row| row[0].as_int().unwrap()).collect();
        let expect: Vec<i64> = (1..=20).filter(|i| i % 2 == 0).collect();
        assert_eq!(got, expect);
    }
}
