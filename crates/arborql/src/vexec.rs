//! Vectorized (batched) plan execution.
//!
//! The same operator tree as [`crate::exec`], pushed through the pipeline in
//! ID batches of up to [`BATCH_SIZE`] rows instead of one row at a time.
//! Every operator either mutates its input batch in place (filters, limits,
//! `WITH` bindings) or refills a reused scratch batch (scans, expansions,
//! projections), so the per-row costs of the tuple interpreter — row clones,
//! closure dispatch, and per-row dictionary lookups — are paid once per
//! batch or once per query instead.
//!
//! This is the executor the engine runs. The tuple interpreter
//! ([`crate::exec::execute`]) stays as its semantic oracle: for every plan
//! and parameter binding, this module must produce byte-identical rows in
//! the same order (grouped [`Op::Aggregate`] iterates a `HashMap`, whose
//! order both executors may only expose through a downstream sort) and
//! equal per-operator `PROFILE` counts. The generative differential in
//! `tests/prop_ql.rs` and the workload-text test in `micrograph-core`'s
//! arbordb adapter run both executors on one plan and pin that.

use std::collections::{HashMap, HashSet};

use arbordb::db::GraphDb;
use arbordb::traversal::shortest_path;
use micrograph_common::{EdgeId, LabelId, NodeId, Value};

use crate::ast::CmpOp;
use crate::exec::{
    cmp_rows, eval, eval_limit, resolve_type, slot_to_value, var_expand, ExecContext, Slot,
};
use crate::plan::{AggItem, CExpr, Op, Plan};
use crate::{QlError, Result};

/// Target rows per batch. Large enough to amortize per-batch dispatch,
/// small enough that a batch of slots stays cache-resident.
pub const BATCH_SIZE: usize = 1024;

/// A fixed-width batch of rows stored as one flat slot vector
/// (row `i` occupies `data[i*width .. (i+1)*width]`).
#[derive(Debug)]
pub struct Batch {
    width: usize,
    data: Vec<Slot>,
}

impl Batch {
    fn new(width: usize) -> Self {
        Batch { width, data: Vec::with_capacity(width * BATCH_SIZE.min(64)) }
    }

    /// A single all-`Empty` seed row (the leaf-scan input).
    fn unit(width: usize) -> Self {
        Batch { width, data: vec![Slot::Empty; width] }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.width).unwrap_or(0)
    }

    /// True when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Row `i` as a slot slice.
    pub fn row(&self, i: usize) -> &[Slot] {
        &self.data[i * self.width..(i + 1) * self.width]
    }

    /// Row `i` as a mutable slot slice.
    pub fn row_mut(&mut self, i: usize) -> &mut [Slot] {
        &mut self.data[i * self.width..(i + 1) * self.width]
    }

    fn push_row(&mut self, src: &[Slot]) {
        debug_assert_eq!(src.len(), self.width);
        self.data.extend_from_slice(src);
    }

    fn push_slot(&mut self, s: Slot) {
        self.data.push(s);
    }

    fn truncate_rows(&mut self, n: usize) {
        self.data.truncate(n * self.width);
    }

    /// Swaps rows `a` and `b` (the order-preserving compaction step: the
    /// kept row moves down, a dropped row moves up into the scanned zone).
    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for k in 0..self.width {
            self.data.swap(a * self.width + k, b * self.width + k);
        }
    }

    fn clear(&mut self) {
        self.data.clear();
    }
}

/// Batch sink: returns `false` to request early termination. The callee may
/// mutate the batch in place (it is cleared/refilled by the producer).
type BSink<'s> = dyn FnMut(&mut Batch) -> Result<bool> + 's;

/// Executes `plan` in vectorized mode, returning result rows as plain
/// values — byte-identical to [`crate::exec::execute`] on the same plan.
pub fn execute_vec(plan: &Plan, ctx: &ExecContext<'_>) -> Result<Vec<Vec<Value>>> {
    let width = plan.slots.max(plan.columns.len());
    // Hoist property-key dictionary lookups out of the per-row loops: one
    // rewritten operator tree per execution, `Prop` → `PropId`.
    let root = resolve_op(&plan.root, ctx.db);
    let mut out = Vec::new();
    run_vec(&root, ctx, width, &mut |b: &mut Batch| {
        for i in 0..b.len() {
            out.push(b.row(i).iter().map(slot_to_value).collect::<Vec<Value>>());
        }
        Ok(true)
    })?;
    Ok(out)
}

/// Flushes `out` into `sink` when it reached the batch target; clears it
/// after a successful flush. Returns `false` on a stop request.
fn flush_if_full(out: &mut Batch, sink: &mut BSink<'_>) -> Result<bool> {
    if out.len() >= BATCH_SIZE {
        let cont = sink(out)?;
        out.clear();
        return Ok(cont);
    }
    Ok(true)
}

/// Flushes whatever rows remain in `out`. Returns `false` on a stop request.
fn flush_rest(out: &mut Batch, sink: &mut BSink<'_>) -> Result<bool> {
    if !out.is_empty() {
        let cont = sink(out)?;
        out.clear();
        return Ok(cont);
    }
    Ok(true)
}

/// Runs `body` once per input batch (or once with a unit seed batch for
/// leaves without an upstream).
fn with_input_vec(
    input: &Option<Box<Op>>,
    ctx: &ExecContext<'_>,
    width: usize,
    sink: &mut BSink<'_>,
    body: &mut dyn FnMut(&mut Batch, &mut BSink<'_>) -> Result<bool>,
) -> Result<bool> {
    match input {
        None => {
            let mut seed = Batch::unit(width);
            body(&mut seed, sink)
        }
        Some(child) => run_vec(child, ctx, width, &mut |b: &mut Batch| body(b, sink)),
    }
}

/// Emits accumulated rows (sort/top-n/aggregate outputs) in batches.
fn emit_rows(rows: &[Vec<Slot>], sink: &mut BSink<'_>) -> Result<bool> {
    let Some(first) = rows.first() else { return Ok(true) };
    let mut out = Batch::new(first.len());
    for r in rows {
        out.push_row(r);
        if !flush_if_full(&mut out, sink)? {
            return Ok(false);
        }
    }
    flush_rest(&mut out, sink)
}

/// Runs `op`, pushing batches into `sink`. `width` is the seed-row width
/// (`slots.max(columns)`); projection/aggregation narrow it downstream.
fn run_vec(op: &Op, ctx: &ExecContext<'_>, width: usize, sink: &mut BSink<'_>) -> Result<bool> {
    match op {
        Op::IndexSeek { input, label, key, value, slot } => {
            let mut ids: Vec<NodeId> = Vec::new();
            let mut out = Batch::new(width);
            let cont = with_input_vec(input, ctx, width, sink, &mut |b, sink| {
                for i in 0..b.len() {
                    let v = eval(value, b.row(i), ctx)?;
                    ids.clear();
                    if !ctx.db.index_seek_into(label, key, &v, &mut ids) {
                        return Err(QlError::Plan(format!(
                            "no index on (:{label} {{{key}}}) at execution time"
                        )));
                    }
                    for &n in &ids {
                        out.push_row(b.row(i));
                        let last = out.len() - 1;
                        out.row_mut(last)[*slot] = Slot::Node(n);
                        if !flush_if_full(&mut out, sink)? {
                            return Ok(false);
                        }
                    }
                }
                Ok(true)
            })?;
            if !cont {
                return Ok(false);
            }
            flush_rest(&mut out, sink)
        }
        Op::NodeIdInSeek { input, label, key, list, slot } => {
            // Seeds the batch from the whole anchor list in one pass: one
            // `index_seek_into` per sorted/deduped key, keeping the seek
            // schedule identical to the tuple interpreter's.
            let mut ids: Vec<NodeId> = Vec::new();
            let mut out = Batch::new(width);
            let cont = with_input_vec(input, ctx, width, sink, &mut |b, sink| {
                for i in 0..b.len() {
                    let keys = crate::exec::in_seek_keys(eval(list, b.row(i), ctx)?)?;
                    for v in &keys {
                        ids.clear();
                        if !ctx.db.index_seek_into(label, key, v, &mut ids) {
                            return Err(QlError::Plan(format!(
                                "no index on (:{label} {{{key}}}) at execution time"
                            )));
                        }
                        for &n in &ids {
                            out.push_row(b.row(i));
                            let last = out.len() - 1;
                            out.row_mut(last)[*slot] = Slot::Node(n);
                            if !flush_if_full(&mut out, sink)? {
                                return Ok(false);
                            }
                        }
                    }
                }
                Ok(true)
            })?;
            if !cont {
                return Ok(false);
            }
            flush_rest(&mut out, sink)
        }
        Op::IndexRangeSeek { input, label, key, op, bound, slot } => {
            let mut out = Batch::new(width);
            let cont = with_input_vec(input, ctx, width, sink, &mut |b, sink| {
                for i in 0..b.len() {
                    let v = eval(bound, b.row(i), ctx)?;
                    let nodes = crate::exec::range_seek_nodes(ctx.db, label, key, *op, &v)?;
                    for &n in &nodes {
                        out.push_row(b.row(i));
                        let last = out.len() - 1;
                        out.row_mut(last)[*slot] = Slot::Node(n);
                        if !flush_if_full(&mut out, sink)? {
                            return Ok(false);
                        }
                    }
                }
                Ok(true)
            })?;
            if !cont {
                return Ok(false);
            }
            flush_rest(&mut out, sink)
        }
        Op::LabelScan { input, label, slot } => {
            let l = ctx.db.label_id(label);
            let mut ids: Vec<NodeId> = Vec::new();
            let mut out = Batch::new(width);
            let cont = with_input_vec(input, ctx, width, sink, &mut |b, sink| {
                let Some(l) = l else { return Ok(true) };
                for i in 0..b.len() {
                    ids.clear();
                    ctx.db.nodes_with_label_into(l, &mut ids);
                    for &n in &ids {
                        out.push_row(b.row(i));
                        let last = out.len() - 1;
                        out.row_mut(last)[*slot] = Slot::Node(n);
                        if !flush_if_full(&mut out, sink)? {
                            return Ok(false);
                        }
                    }
                }
                Ok(true)
            })?;
            if !cont {
                return Ok(false);
            }
            flush_rest(&mut out, sink)
        }
        Op::AllNodes { input, slot } => {
            let mut out = Batch::new(width);
            let cont = with_input_vec(input, ctx, width, sink, &mut |b, sink| {
                for i in 0..b.len() {
                    for id in 0..ctx.db.node_count() {
                        let n = NodeId(id);
                        if !ctx.db.node_exists(n) {
                            continue;
                        }
                        out.push_row(b.row(i));
                        let last = out.len() - 1;
                        out.row_mut(last)[*slot] = Slot::Node(n);
                        if !flush_if_full(&mut out, sink)? {
                            return Ok(false);
                        }
                    }
                }
                Ok(true)
            })?;
            if !cont {
                return Ok(false);
            }
            flush_rest(&mut out, sink)
        }
        Op::Expand { input, from, to, rel_slot, rel_type, dir, min, max } => {
            let t = resolve_type(ctx.db, rel_type);
            let type_missing = rel_type.is_some() && t.is_none();
            let single = (*min, *max) == (1, 1);
            let mut nbrs: Vec<(EdgeId, NodeId)> = Vec::new();
            let mut out = Batch::new(width);
            let cont = run_vec(input, ctx, width, &mut |b: &mut Batch| {
                if type_missing {
                    return Ok(true); // type never created: no matches
                }
                for i in 0..b.len() {
                    let Slot::Node(start) = b.row(i)[*from] else {
                        return Err(QlError::Plan("expand source slot is not a node".into()));
                    };
                    if single {
                        nbrs.clear();
                        ctx.db.rels_into(start, t, *dir, &mut nbrs).map_err(QlError::Db)?;
                        for &(eid, other) in &nbrs {
                            out.push_row(b.row(i));
                            let last = out.len() - 1;
                            let r = out.row_mut(last);
                            r[*to] = Slot::Node(other);
                            if let Some(rs) = rel_slot {
                                r[*rs] = Slot::Edge(eid);
                            }
                            if !flush_if_full(&mut out, sink)? {
                                return Ok(false);
                            }
                        }
                    } else {
                        let cont = var_expand(ctx.db, start, t, *dir, *min, *max, &mut |end| {
                            out.push_row(b.row(i));
                            let last = out.len() - 1;
                            out.row_mut(last)[*to] = Slot::Node(end);
                            flush_if_full(&mut out, sink)
                        })?;
                        if !cont {
                            return Ok(false);
                        }
                    }
                }
                Ok(true)
            })?;
            if !cont {
                return Ok(false);
            }
            flush_rest(&mut out, sink)
        }
        Op::Filter { input, pred } => {
            // Fast path for the planner's label re-check: resolve the label
            // name to an id once and compare ids, skipping the per-row
            // dictionary round-trip through the label *name*.
            let fast: Option<(usize, Option<LabelId>)> = match pred {
                CExpr::Cmp(CmpOp::Eq, a, b) => match (a.as_ref(), b.as_ref()) {
                    (CExpr::Prop(slot, key), CExpr::Lit(Value::Str(name)))
                        if key == "  label" =>
                    {
                        Some((*slot, ctx.db.label_id(name)))
                    }
                    _ => None,
                },
                _ => None,
            };
            run_vec(input, ctx, width, &mut |b: &mut Batch| {
                let mut kept = 0usize;
                for i in 0..b.len() {
                    let pass = match (&fast, &b.row(i)) {
                        (Some((slot, want)), row) => match (&row[*slot], want) {
                            (Slot::Node(n), Some(l)) => {
                                ctx.db.label_of(*n).map_err(QlError::Db)? == *l
                            }
                            (Slot::Node(_), None) => false, // label name unknown
                            _ => eval(pred, b.row(i), ctx)?.is_truthy(),
                        },
                        (None, _) => eval(pred, b.row(i), ctx)?.is_truthy(),
                    };
                    if pass {
                        b.swap_rows(kept, i);
                        kept += 1;
                    }
                }
                b.truncate_rows(kept);
                if b.is_empty() {
                    return Ok(true);
                }
                sink(b)
            })
        }
        Op::ShortestPath { input, from, to, rel_type, dir, max, path_slot } => {
            let t = resolve_type(ctx.db, rel_type);
            let type_missing = rel_type.is_some() && t.is_none();
            run_vec(input, ctx, width, &mut |b: &mut Batch| {
                if type_missing {
                    return Ok(true);
                }
                let mut kept = 0usize;
                for i in 0..b.len() {
                    let (Slot::Node(a), Slot::Node(z)) = (&b.row(i)[*from], &b.row(i)[*to])
                    else {
                        return Err(QlError::Plan("shortestPath endpoints not bound".into()));
                    };
                    let (a, z) = (*a, *z);
                    if let Some(p) =
                        shortest_path(ctx.db, a, z, t, *dir, *max).map_err(QlError::Db)?
                    {
                        b.row_mut(i)[*path_slot] = Slot::Path(p);
                        b.swap_rows(kept, i);
                        kept += 1;
                    }
                }
                b.truncate_rows(kept);
                if b.is_empty() {
                    return Ok(true);
                }
                sink(b)
            })
        }
        Op::Project { input, exprs } => {
            let mut out = Batch::new(exprs.len());
            let erefs: Vec<&CExpr> = exprs.iter().collect();
            let cont = run_vec(input, ctx, width, &mut |b: &mut Batch| {
                let mut cols = eval_columns(&erefs, b, ctx)?;
                for i in 0..b.len() {
                    for col in cols.iter_mut() {
                        out.push_slot(Slot::Val(std::mem::replace(&mut col[i], Value::Null)));
                    }
                    if !flush_if_full(&mut out, sink)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            })?;
            if !cont {
                return Ok(false);
            }
            flush_rest(&mut out, sink)
        }
        Op::Aggregate { input, items } => {
            let mut groups: HashMap<Vec<Value>, u64> = HashMap::new();
            let mut order: Vec<Vec<Value>> = Vec::new();
            let grefs: Vec<&CExpr> = items
                .iter()
                .filter_map(|it| match it {
                    AggItem::Group(e) => Some(e),
                    AggItem::Count => None,
                })
                .collect();
            run_vec(input, ctx, width, &mut |b: &mut Batch| {
                let mut cols = eval_columns(&grefs, b, ctx)?;
                for i in 0..b.len() {
                    let key: Vec<Value> = cols
                        .iter_mut()
                        .map(|c| std::mem::replace(&mut c[i], Value::Null))
                        .collect();
                    match groups.get_mut(&key) {
                        Some(n) => *n += 1,
                        None => {
                            order.push(key.clone());
                            groups.insert(key, 1);
                        }
                    }
                }
                Ok(true)
            })?;
            let global = !items.iter().any(|i| matches!(i, AggItem::Group(_)));
            if global && groups.is_empty() {
                order.push(Vec::new());
                groups.insert(Vec::new(), 0);
            }
            let mut out = Batch::new(items.len());
            for key in &order {
                let count = groups[key];
                let mut gi = 0usize;
                for item in items {
                    match item {
                        AggItem::Group(_) => {
                            out.push_slot(Slot::Val(key[gi].clone()));
                            gi += 1;
                        }
                        AggItem::Count => out.push_slot(Slot::Val(Value::Int(count as i64))),
                    }
                }
                if !flush_if_full(&mut out, sink)? {
                    return Ok(false);
                }
            }
            flush_rest(&mut out, sink)
        }
        Op::Distinct { input } => {
            let mut seen: HashSet<Vec<Value>> = HashSet::new();
            run_vec(input, ctx, width, &mut |b: &mut Batch| {
                let mut kept = 0usize;
                for i in 0..b.len() {
                    let key: Vec<Value> = b.row(i).iter().map(slot_to_value).collect();
                    if seen.insert(key) {
                        b.swap_rows(kept, i);
                        kept += 1;
                    }
                }
                b.truncate_rows(kept);
                if b.is_empty() {
                    return Ok(true);
                }
                sink(b)
            })
        }
        Op::Sort { input, keys } => {
            // One flat, stride-indexed buffer: row `i` lives at
            // `flat[i*w .. (i+1)*w]` — no per-row allocation on collect.
            let mut flat: Vec<Slot> = Vec::new();
            let mut w = 0usize;
            run_vec(input, ctx, width, &mut |b: &mut Batch| {
                if !b.is_empty() {
                    w = b.row(0).len();
                }
                for i in 0..b.len() {
                    flat.extend_from_slice(b.row(i));
                }
                Ok(true)
            })?;
            if flat.is_empty() {
                return Ok(true);
            }
            let n = flat.len() / w;
            // Sorted row order as an index permutation. Single integer key
            // (the Q1.1 shape) sorts packed (key, index) pairs — contiguous,
            // no per-comparison Value dispatch. Either way the sort is
            // stable with the same full-row tie-break, so the output order
            // is exactly the tuple oracle's `sort_by(cmp_rows)`.
            let mut idx: Vec<u32>;
            let int_pairs: Option<Vec<(i64, u32)>> = match keys[..] {
                [(c, _)] => (0..n)
                    .map(|i| match slot_to_value(&flat[i * w + c]) {
                        Value::Int(v) => Some((v, i as u32)),
                        _ => None,
                    })
                    .collect(),
                _ => None,
            };
            if let (Some(mut pairs), [(_, desc)]) = (int_pairs, &keys[..]) {
                pairs.sort_by(|&(ka, ia), &(kb, ib)| {
                    let ord = if *desc { kb.cmp(&ka) } else { ka.cmp(&kb) };
                    ord.then_with(|| {
                        let (ia, ib) = (ia as usize, ib as usize);
                        crate::exec::cmp_full_rows(
                            &flat[ia * w..(ia + 1) * w],
                            &flat[ib * w..(ib + 1) * w],
                        )
                    })
                });
                idx = pairs.into_iter().map(|(_, i)| i).collect();
            } else {
                // Columnar sort keys: the hot comparisons run over
                // contiguous per-key value vectors (`slot_to_value` induces
                // the same order as `cmp_slot`).
                let keycols: Vec<Vec<Value>> = keys
                    .iter()
                    .map(|&(c, _)| (0..n).map(|i| slot_to_value(&flat[i * w + c])).collect())
                    .collect();
                idx = (0..n as u32).collect();
                idx.sort_by(|&a, &b| {
                    let (a, b) = (a as usize, b as usize);
                    for (k, &(_, desc)) in keys.iter().enumerate() {
                        let ord = keycols[k][a].cmp(&keycols[k][b]);
                        let ord = if desc { ord.reverse() } else { ord };
                        if ord != std::cmp::Ordering::Equal {
                            return ord;
                        }
                    }
                    crate::exec::cmp_full_rows(&flat[a * w..(a + 1) * w], &flat[b * w..(b + 1) * w])
                });
            }
            let mut out = Batch::new(w);
            for &i in &idx {
                let base = i as usize * w;
                for k in 0..w {
                    out.push_slot(std::mem::replace(&mut flat[base + k], Slot::Empty));
                }
                if !flush_if_full(&mut out, sink)? {
                    return Ok(false);
                }
            }
            flush_rest(&mut out, sink)
        }
        Op::TopN { input, keys, limit } => {
            let n = eval_limit(limit, ctx)?;
            let mut best: Vec<Vec<Slot>> = Vec::with_capacity(n.saturating_add(1).min(1024));
            run_vec(input, ctx, width, &mut |b: &mut Batch| {
                if n == 0 {
                    return Ok(false);
                }
                for i in 0..b.len() {
                    let r = b.row(i);
                    let pos = best
                        .binary_search_by(|probe| cmp_rows(keys, probe, r))
                        .unwrap_or_else(|p| p);
                    if pos < n {
                        best.insert(pos, r.to_vec());
                        best.truncate(n);
                    }
                }
                Ok(true)
            })?;
            emit_rows(&best, sink)
        }
        Op::Limit { input, limit } => {
            let n = eval_limit(limit, ctx)?;
            let mut remaining = n;
            let mut downstream_stopped = false;
            run_vec(input, ctx, width, &mut |b: &mut Batch| {
                if remaining == 0 {
                    return Ok(false); // our own early termination
                }
                if b.len() > remaining {
                    b.truncate_rows(remaining);
                }
                remaining -= b.len();
                if !b.is_empty() && !sink(b)? {
                    downstream_stopped = true;
                    return Ok(false);
                }
                Ok(remaining > 0)
            })?;
            Ok(!downstream_stopped)
        }
        Op::Let { input, bindings } => run_vec(input, ctx, width, &mut |b: &mut Batch| {
            // Binding targets are fresh slots no binding expression reads,
            // so in-place sequential writes match the tuple snapshot.
            for i in 0..b.len() {
                for (slot, expr) in bindings {
                    let v = eval(expr, b.row(i), ctx)?;
                    b.row_mut(i)[*slot] = Slot::Val(v);
                }
            }
            sink(b)
        }),
        Op::DistinctBy { input, exprs } => {
            let mut seen: HashSet<Vec<Value>> = HashSet::new();
            run_vec(input, ctx, width, &mut |b: &mut Batch| {
                let mut kept = 0usize;
                for i in 0..b.len() {
                    let key =
                        exprs.iter().map(|e| eval(e, b.row(i), ctx)).collect::<Result<Vec<_>>>()?;
                    if seen.insert(key) {
                        b.swap_rows(kept, i);
                        kept += 1;
                    }
                }
                b.truncate_rows(kept);
                if b.is_empty() {
                    return Ok(true);
                }
                sink(b)
            })
        }
        Op::SortBy { input, keys } => {
            let mut flat: Vec<Slot> = Vec::new();
            let mut w = 0usize;
            let mut keycols: Vec<Vec<Value>> = vec![Vec::new(); keys.len()];
            let krefs: Vec<&CExpr> = keys.iter().map(|(e, _)| e).collect();
            run_vec(input, ctx, width, &mut |b: &mut Batch| {
                if !b.is_empty() {
                    w = b.row(0).len();
                }
                let mut cols = eval_columns(&krefs, b, ctx)?;
                for (k, col) in cols.iter_mut().enumerate() {
                    keycols[k].append(col);
                }
                for i in 0..b.len() {
                    flat.extend_from_slice(b.row(i));
                }
                Ok(true)
            })?;
            if flat.is_empty() {
                return Ok(true);
            }
            let n = flat.len() / w;
            let mut idx: Vec<u32> = (0..n as u32).collect();
            idx.sort_by(|&a, &b| {
                let (a, b) = (a as usize, b as usize);
                for (k, (_, desc)) in keys.iter().enumerate() {
                    let ord = keycols[k][a].cmp(&keycols[k][b]);
                    let ord = if *desc { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                // Deterministic tie-break on the full row (as in exec.rs).
                crate::exec::cmp_full_rows(&flat[a * w..(a + 1) * w], &flat[b * w..(b + 1) * w])
            });
            let mut out = Batch::new(w);
            for &i in &idx {
                let base = i as usize * w;
                for k in 0..w {
                    out.push_slot(std::mem::replace(&mut flat[base + k], Slot::Empty));
                }
                if !flush_if_full(&mut out, sink)? {
                    return Ok(false);
                }
            }
            flush_rest(&mut out, sink)
        }
        Op::AggregateBy { input, groups, count_slot } => {
            let mut acc: HashMap<Vec<Value>, (Vec<Slot>, u64)> = HashMap::new();
            let mut order: Vec<Vec<Value>> = Vec::new();
            let grefs: Vec<&CExpr> = groups.iter().map(|(_, e)| e).collect();
            run_vec(input, ctx, width, &mut |b: &mut Batch| {
                let cols = eval_columns(&grefs, b, ctx)?;
                for i in 0..b.len() {
                    let key: Vec<Value> = cols.iter().map(|c| c[i].clone()).collect();
                    match acc.get_mut(&key) {
                        Some((_, n)) => *n += 1,
                        None => {
                            let mut rep = b.row(i).to_vec();
                            for (gi, (slot, expr)) in groups.iter().enumerate() {
                                // Bare-slot groups copy the slot as-is so
                                // node variables stay expandable downstream.
                                rep[*slot] = match expr {
                                    CExpr::Slot(s) => b.row(i)[*s].clone(),
                                    _ => Slot::Val(cols[gi][i].clone()),
                                };
                            }
                            order.push(key.clone());
                            acc.insert(key, (rep, 1));
                        }
                    }
                }
                Ok(true)
            })?;
            let mut outs: Vec<Vec<Slot>> = Vec::with_capacity(order.len());
            for key in &order {
                let (rep, n) = acc.get(key).expect("inserted above");
                let mut r = rep.clone();
                if let Some(cs) = count_slot {
                    r[*cs] = Slot::Val(Value::Int(*n as i64));
                }
                outs.push(r);
            }
            emit_rows(&outs, sink)
        }
        Op::Counter { input, id } => run_vec(input, ctx, width, &mut |b: &mut Batch| {
            ctx.counters.borrow_mut()[*id] += b.len() as u64;
            sink(b)
        }),
    }
}

// ---------------------------------------------------------------------------
// Column-at-a-time expression evaluation
// ---------------------------------------------------------------------------

/// Evaluates `exprs` over every row of `b`, one column at a time. A `PropId`
/// column whose slot holds a node in every row goes through the batched
/// property reader ([`GraphDb::node_prop_by_id_batch`] — one buffer-pool
/// access per page instead of one per record); every other column falls back
/// to scalar [`eval`]. Values are identical to row-major evaluation. When
/// any column errors, the batch is re-evaluated row-major so the error that
/// surfaces (and its text) is the one the tuple oracle would raise first.
fn eval_columns(exprs: &[&CExpr], b: &Batch, ctx: &ExecContext<'_>) -> Result<Vec<Vec<Value>>> {
    match try_eval_columns(exprs, b, ctx) {
        Ok(cols) => Ok(cols),
        Err(err) => {
            for i in 0..b.len() {
                for e in exprs {
                    eval(e, b.row(i), ctx)?;
                }
            }
            Err(err)
        }
    }
}

fn try_eval_columns(
    exprs: &[&CExpr],
    b: &Batch,
    ctx: &ExecContext<'_>,
) -> Result<Vec<Vec<Value>>> {
    let mut cols = Vec::with_capacity(exprs.len());
    let mut nodes: Vec<NodeId> = Vec::new();
    for e in exprs {
        let col = match e {
            CExpr::PropId(s, kid) if column_nodes(b, *s, &mut nodes) => {
                ctx.db.node_prop_by_id_batch(&nodes, *kid).map_err(QlError::Db)?
            }
            _ => {
                let mut c = Vec::with_capacity(b.len());
                for i in 0..b.len() {
                    c.push(eval(e, b.row(i), ctx)?);
                }
                c
            }
        };
        cols.push(col);
    }
    Ok(cols)
}

/// Collects slot `s` of every row into `nodes`; false (fall back to scalar
/// evaluation) as soon as any row holds a non-node there.
fn column_nodes(b: &Batch, s: usize, nodes: &mut Vec<NodeId>) -> bool {
    nodes.clear();
    nodes.reserve(b.len());
    for i in 0..b.len() {
        match &b.row(i)[s] {
            Slot::Node(n) => nodes.push(*n),
            _ => return false,
        }
    }
    true
}

// ---------------------------------------------------------------------------
// Per-execution plan rewrite: hoist property-key dictionary lookups
// ---------------------------------------------------------------------------

/// Rewrites `Prop(slot, key)` to `PropId(slot, id)` against the current
/// dictionary (the magic `"  label"` key keeps its name — it is not a stored
/// property). A key never created resolves to `u64::MAX`, which no stored
/// property carries, i.e. evaluates to null exactly like the name would.
fn resolve_expr(e: &CExpr, db: &GraphDb) -> CExpr {
    match e {
        CExpr::Prop(s, key) if key != "  label" => {
            CExpr::PropId(*s, db.prop_key_id(key).unwrap_or(u64::MAX))
        }
        CExpr::Cmp(op, a, b) => CExpr::Cmp(
            *op,
            Box::new(resolve_expr(a, db)),
            Box::new(resolve_expr(b, db)),
        ),
        CExpr::In(a, b) => {
            CExpr::In(Box::new(resolve_expr(a, db)), Box::new(resolve_expr(b, db)))
        }
        CExpr::And(a, b) => {
            CExpr::And(Box::new(resolve_expr(a, db)), Box::new(resolve_expr(b, db)))
        }
        CExpr::Or(a, b) => {
            CExpr::Or(Box::new(resolve_expr(a, db)), Box::new(resolve_expr(b, db)))
        }
        CExpr::Not(a) => CExpr::Not(Box::new(resolve_expr(a, db))),
        other => other.clone(),
    }
}

fn resolve_items(items: &[AggItem], db: &GraphDb) -> Vec<AggItem> {
    items
        .iter()
        .map(|i| match i {
            AggItem::Group(e) => AggItem::Group(resolve_expr(e, db)),
            AggItem::Count => AggItem::Count,
        })
        .collect()
}

/// Clones the operator tree with every embedded expression resolved through
/// [`resolve_expr`] — a one-off, per-execution cost that removes the
/// dictionary hash from every per-row property access.
fn resolve_op(op: &Op, db: &GraphDb) -> Op {
    match op {
        Op::IndexSeek { input, label, key, value, slot } => Op::IndexSeek {
            input: input.as_ref().map(|i| Box::new(resolve_op(i, db))),
            label: label.clone(),
            key: key.clone(),
            value: resolve_expr(value, db),
            slot: *slot,
        },
        Op::NodeIdInSeek { input, label, key, list, slot } => Op::NodeIdInSeek {
            input: input.as_ref().map(|i| Box::new(resolve_op(i, db))),
            label: label.clone(),
            key: key.clone(),
            list: Box::new(resolve_expr(list, db)),
            slot: *slot,
        },
        Op::IndexRangeSeek { input, label, key, op, bound, slot } => Op::IndexRangeSeek {
            input: input.as_ref().map(|i| Box::new(resolve_op(i, db))),
            label: label.clone(),
            key: key.clone(),
            op: *op,
            bound: Box::new(resolve_expr(bound, db)),
            slot: *slot,
        },
        Op::LabelScan { input, label, slot } => Op::LabelScan {
            input: input.as_ref().map(|i| Box::new(resolve_op(i, db))),
            label: label.clone(),
            slot: *slot,
        },
        Op::AllNodes { input, slot } => Op::AllNodes {
            input: input.as_ref().map(|i| Box::new(resolve_op(i, db))),
            slot: *slot,
        },
        Op::Expand { input, from, to, rel_slot, rel_type, dir, min, max } => Op::Expand {
            input: Box::new(resolve_op(input, db)),
            from: *from,
            to: *to,
            rel_slot: *rel_slot,
            rel_type: rel_type.clone(),
            dir: *dir,
            min: *min,
            max: *max,
        },
        Op::Filter { input, pred } => Op::Filter {
            input: Box::new(resolve_op(input, db)),
            pred: resolve_expr(pred, db),
        },
        Op::ShortestPath { input, from, to, rel_type, dir, max, path_slot } => Op::ShortestPath {
            input: Box::new(resolve_op(input, db)),
            from: *from,
            to: *to,
            rel_type: rel_type.clone(),
            dir: *dir,
            max: *max,
            path_slot: *path_slot,
        },
        Op::Project { input, exprs } => Op::Project {
            input: Box::new(resolve_op(input, db)),
            exprs: exprs.iter().map(|e| resolve_expr(e, db)).collect(),
        },
        Op::Aggregate { input, items } => Op::Aggregate {
            input: Box::new(resolve_op(input, db)),
            items: resolve_items(items, db),
        },
        Op::Distinct { input } => Op::Distinct { input: Box::new(resolve_op(input, db)) },
        Op::Sort { input, keys } => {
            Op::Sort { input: Box::new(resolve_op(input, db)), keys: keys.clone() }
        }
        Op::TopN { input, keys, limit } => Op::TopN {
            input: Box::new(resolve_op(input, db)),
            keys: keys.clone(),
            limit: resolve_expr(limit, db),
        },
        Op::Limit { input, limit } => Op::Limit {
            input: Box::new(resolve_op(input, db)),
            limit: resolve_expr(limit, db),
        },
        Op::Let { input, bindings } => Op::Let {
            input: Box::new(resolve_op(input, db)),
            bindings: bindings.iter().map(|(s, e)| (*s, resolve_expr(e, db))).collect(),
        },
        Op::DistinctBy { input, exprs } => Op::DistinctBy {
            input: Box::new(resolve_op(input, db)),
            exprs: exprs.iter().map(|e| resolve_expr(e, db)).collect(),
        },
        Op::SortBy { input, keys } => Op::SortBy {
            input: Box::new(resolve_op(input, db)),
            keys: keys.iter().map(|(e, d)| (resolve_expr(e, db), *d)).collect(),
        },
        Op::AggregateBy { input, groups, count_slot } => Op::AggregateBy {
            input: Box::new(resolve_op(input, db)),
            groups: groups.iter().map(|(s, e)| (*s, resolve_expr(e, db))).collect(),
            count_slot: *count_slot,
        },
        Op::Counter { input, id } => {
            Op::Counter { input: Box::new(resolve_op(input, db)), id: *id }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::QueryEngine;
    use crate::exec::execute;
    use crate::plan::instrument;
    use arbordb::db::DbConfig;
    use std::sync::Arc;

    fn sample_db(indexed: bool) -> Arc<GraphDb> {
        let db = GraphDb::open_memory(DbConfig::default()).unwrap();
        let mut tx = db.begin_write().unwrap();
        let users: Vec<_> = (0..40i64)
            .map(|i| tx.create_node("user", &[("uid", Value::Int(i))]).unwrap())
            .collect();
        for i in 0..40usize {
            for d in 1..=(i % 5) {
                tx.create_rel(users[i], users[(i + d) % 40], "follows", &[]).unwrap();
            }
        }
        tx.commit().unwrap();
        if indexed {
            db.create_index("user", "uid").unwrap();
        }
        Arc::new(db)
    }

    type Outcome = std::result::Result<Vec<Vec<Value>>, String>;

    /// Runs `plan` through the reference interpreter and the vectorized
    /// executor against `db`, each outcome as rows or error text.
    fn both(plan: &Plan, db: &GraphDb) -> (Outcome, Outcome) {
        let params = HashMap::new();
        let tuple = execute(plan, &ExecContext::new(db, &params, 0)).map_err(|e| e.to_string());
        let vec = execute_vec(plan, &ExecContext::new(db, &params, 0)).map_err(|e| e.to_string());
        (tuple, vec)
    }

    const QUERIES: &[&str] = &[
        "MATCH (a:user {uid: 3})-[:follows]->(f) RETURN f.uid ORDER BY f.uid",
        "MATCH (a:user)-[:follows]->(f) RETURN f.uid, count(*) AS c \
         ORDER BY c DESC, f.uid ASC LIMIT 7",
        "MATCH (a:user {uid: 4})-[:follows*1..3]->(x) RETURN DISTINCT x.uid ORDER BY x.uid",
        "MATCH (a:user {uid: 4})-[:follows]->(f) WHERE f.uid <> 5 \
         WITH f, count(*) AS c MATCH (f)-[:follows]->(g:user) \
         RETURN g.uid, c ORDER BY g.uid LIMIT 9",
        "MATCH (a:user) RETURN a.uid LIMIT 4",
        "MATCH p = shortestPath((a:user {uid: 0})-[:follows*..6]-(b:user {uid: 20})) \
         RETURN length(p)",
        "MATCH (a:user {uid: 99})-[:follows]->(x) RETURN count(*)",
    ];

    #[test]
    fn vectorized_matches_tuple_on_query_mix() {
        let db = sample_db(true);
        let ql = QueryEngine::new(db.clone());
        for q in QUERIES {
            let (tuple, vec) = both(ql.prepare(q).unwrap().plan(), &db);
            assert_eq!(tuple, vec, "executors disagree on {q}");
            assert!(tuple.is_ok(), "{q}: {tuple:?}");
        }
    }

    #[test]
    fn vectorized_profile_counts_match_tuple() {
        let db = sample_db(true);
        let ql = QueryEngine::new(db.clone());
        let q = "MATCH (a:user {uid: 3})-[:follows]->(f) RETURN f.uid ORDER BY f.uid";
        let (plan, descs) = instrument(ql.prepare(q).unwrap().plan());
        let params = HashMap::new();
        let ctx = ExecContext::new(&db, &params, descs.len());
        let tuple = execute(&plan, &ctx).unwrap();
        let tuple_counts = ctx.take_counters();
        let ctx = ExecContext::new(&db, &params, descs.len());
        let vec = execute_vec(&plan, &ctx).unwrap();
        assert_eq!(tuple_counts, ctx.take_counters(), "per-operator row counts must agree");
        assert_eq!(tuple, vec);
    }

    #[test]
    fn missing_index_errors_like_tuple() {
        // Plans are prepared where the uid index exists (so the planner
        // emits each seek) and executed against an identical store without
        // it: both executors must refuse with the same error text.
        let indexed = QueryEngine::new(sample_db(true));
        let bare = sample_db(false);
        for (q, seek) in [
            ("MATCH (a:user {uid: 3}) RETURN a.uid", "NodeIndexSeek"),
            ("MATCH (a:user) WHERE a.uid IN [3, 1, 3] RETURN a.uid", "NodeIdInSeek"),
            ("MATCH (a:user) WHERE a.uid > 30 RETURN a.uid", "NodeIndexRangeSeek"),
        ] {
            let plan = indexed.prepare(q).unwrap();
            assert!(plan.plan().explain().contains(seek), "{q} planned no {seek}");
            let (tuple, vec) = both(plan.plan(), &bare);
            assert_eq!(tuple, vec, "{q}");
            assert_eq!(
                tuple,
                Err("planning error: no index on (:user {uid}) at execution time".to_owned()),
                "{q}"
            );
        }
    }
}
