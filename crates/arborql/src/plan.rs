//! Logical plans and the rule-based planner.
//!
//! The planner reproduces the behaviours Section 4 of the paper attributes
//! to the declarative engine:
//!
//! * **Index-seek anchor selection** — a pattern node with an inline
//!   property on an indexed `(label, key)` becomes the scan anchor; the
//!   pattern is expanded outward from the bound side.
//! * **Predicate pushdown** — each `WHERE` conjunct is attached at the
//!   earliest operator where all its variables are bound.
//! * **TopN pushdown** — `ORDER BY … LIMIT n` fuses into a bounded-heap
//!   operator instead of a full sort; [`PlannerOptions::topn_pushdown`]
//!   switches the ablation of the "overhead for aggregate operations"
//!   discussion.

use arbordb::db::GraphDb;
use micrograph_common::ids::Direction;
use micrograph_common::Value;

use crate::ast::{CmpOp, Expr, MatchClause, PatDir, Query};
use crate::{QlError, Result};

/// Cap for unbounded variable-length patterns (`[:t*]`).
pub const MAX_VAR_HOPS: u32 = 15;

/// Planner switches (ablations).
#[derive(Debug, Clone, Copy)]
pub struct PlannerOptions {
    /// Fuse `ORDER BY`+`LIMIT` into a TopN operator.
    pub topn_pushdown: bool,
    /// Push WHERE conjuncts to the earliest possible operator.
    pub predicate_pushdown: bool,
    /// Pick the scan anchor (and hence the expansion direction) by the
    /// cardinality-statistics cost model instead of the fixed rule order.
    /// Falls back to the rules automatically while statistics are empty.
    pub cost_based: bool,
}

impl Default for PlannerOptions {
    fn default() -> Self {
        PlannerOptions {
            topn_pushdown: true,
            predicate_pushdown: true,
            cost_based: true,
        }
    }
}

/// A compiled expression over row slots.
#[derive(Debug, Clone, PartialEq)]
pub enum CExpr {
    /// Literal.
    Lit(Value),
    /// Named parameter, bound at execution.
    Param(String),
    /// Contents of a slot (node id or value).
    Slot(usize),
    /// Property `slot.key` (key resolved by name at execution).
    Prop(usize, String),
    /// Property by pre-resolved key id — produced only by the vectorized
    /// executor's per-execution rewrite so the dictionary lookup is hoisted
    /// out of the per-row loop (`u64::MAX` = key never created, i.e. null).
    PropId(usize, u64),
    /// `count(*)` marker (only inside Aggregate items).
    CountStar,
    /// Length in hops of the path in a slot.
    Length(usize),
    /// Type name of the relationship in a slot.
    RelType(usize),
    /// Internal id of the node in a slot.
    Id(usize),
    /// Comparison.
    Cmp(CmpOp, Box<CExpr>, Box<CExpr>),
    /// List membership `lhs IN rhs` (null lhs or rhs never holds, matching
    /// comparison semantics; rhs must evaluate to a list).
    In(Box<CExpr>, Box<CExpr>),
    /// Conjunction.
    And(Box<CExpr>, Box<CExpr>),
    /// Disjunction.
    Or(Box<CExpr>, Box<CExpr>),
    /// Negation.
    Not(Box<CExpr>),
    /// Edge-existence test between two bound nodes.
    PatternExists {
        /// Slot of the source node.
        from: usize,
        /// Slot of the target node.
        to: usize,
        /// Relationship type name (`None` = any).
        rel_type: Option<String>,
        /// Direction from the source's point of view.
        dir: Direction,
    },
}

/// One output item of an aggregation.
#[derive(Debug, Clone, PartialEq)]
pub enum AggItem {
    /// Grouping expression (its value is part of the group key).
    Group(CExpr),
    /// `count(*)` of the group.
    Count,
}

/// A logical plan operator. Leaf scans carry an optional `input` so a seek
/// can be applied per input row (nested loop), which is how shortest-path
/// endpoint pairs are produced.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Index seek: bind `slot` to nodes with `label` where `key = value`.
    IndexSeek {
        /// Upstream rows (None = single empty row).
        input: Option<Box<Op>>,
        /// Node label.
        label: String,
        /// Indexed property key.
        key: String,
        /// Seek value.
        value: CExpr,
        /// Output slot.
        slot: usize,
    },
    /// Index range seek: bind `slot` to nodes with `label` where
    /// `key <op> bound` (op ∈ {<, <=, >, >=}), read straight from the
    /// ordered property index. Produced when a `WHERE` range conjunct on an
    /// indexed `(label, key)` can replace a label scan + filter; byte-exact
    /// with the filter because index and filter share [`Value`]'s total
    /// order and null entries are excluded on both paths.
    IndexRangeSeek {
        /// Upstream rows (None = single empty row).
        input: Option<Box<Op>>,
        /// Node label.
        label: String,
        /// Indexed property key.
        key: String,
        /// Comparison the stored value must satisfy against `bound`.
        op: CmpOp,
        /// Bound expression (evaluated per input row).
        bound: Box<CExpr>,
        /// Output slot.
        slot: usize,
    },
    /// Multi-anchor index seek: bind `slot` to nodes with `label` where
    /// `key` equals any element of `list` (a `WHERE key IN $uids` conjunct
    /// on an indexed `(label, key)`). Executes as one batched seek per
    /// distinct list element over the *sorted* element list, so both
    /// executors emit anchors in the same deterministic order and the
    /// originating anchor is carried in `slot` through every downstream
    /// operator.
    NodeIdInSeek {
        /// Upstream rows (None = single empty row).
        input: Option<Box<Op>>,
        /// Node label.
        label: String,
        /// Indexed property key.
        key: String,
        /// List expression (evaluated per input row; usually a parameter).
        list: Box<CExpr>,
        /// Output slot.
        slot: usize,
    },
    /// Label scan: bind `slot` to every node with `label`.
    LabelScan {
        /// Upstream rows.
        input: Option<Box<Op>>,
        /// Node label.
        label: String,
        /// Output slot.
        slot: usize,
    },
    /// Every node in the store.
    AllNodes {
        /// Upstream rows.
        input: Option<Box<Op>>,
        /// Output slot.
        slot: usize,
    },
    /// Relationship expansion `from → to` over `(rel_type, dir)`, with hop
    /// bounds; `(1,1)` is a plain expand, otherwise variable-length path
    /// enumeration with relationship uniqueness.
    Expand {
        /// Child operator.
        input: Box<Op>,
        /// Slot of the already-bound node.
        from: usize,
        /// Slot the reached node is bound to.
        to: usize,
        /// Slot the traversed relationship is bound to (single-hop only).
        rel_slot: Option<usize>,
        /// Relationship type name.
        rel_type: Option<String>,
        /// Expansion direction.
        dir: Direction,
        /// Minimum hops.
        min: u32,
        /// Maximum hops.
        max: u32,
    },
    /// Filter by a boolean expression.
    Filter {
        /// Child operator.
        input: Box<Op>,
        /// Predicate.
        pred: CExpr,
    },
    /// Bind `path_slot` to the shortest path between two bound nodes
    /// (bidirectional BFS); rows with no path are dropped.
    ShortestPath {
        /// Child operator (binds both endpoints).
        input: Box<Op>,
        /// Slot of the start node.
        from: usize,
        /// Slot of the end node.
        to: usize,
        /// Relationship type name.
        rel_type: Option<String>,
        /// Traversal direction.
        dir: Direction,
        /// Maximum hops.
        max: u32,
        /// Slot receiving the path.
        path_slot: usize,
    },
    /// Project to output columns.
    Project {
        /// Child operator.
        input: Box<Op>,
        /// Column expressions.
        exprs: Vec<CExpr>,
    },
    /// Group-and-count aggregation producing columns in `items` order.
    Aggregate {
        /// Child operator.
        input: Box<Op>,
        /// Output items.
        items: Vec<AggItem>,
    },
    /// Remove duplicate output rows.
    Distinct {
        /// Child operator.
        input: Box<Op>,
    },
    /// Full sort of output rows by column indexes.
    Sort {
        /// Child operator.
        input: Box<Op>,
        /// `(column, descending)` keys.
        keys: Vec<(usize, bool)>,
    },
    /// Bounded-heap sort+limit (the pushdown).
    TopN {
        /// Child operator.
        input: Box<Op>,
        /// `(column, descending)` keys.
        keys: Vec<(usize, bool)>,
        /// Row limit.
        limit: CExpr,
    },
    /// Plain row limit with early termination.
    Limit {
        /// Child operator.
        input: Box<Op>,
        /// Row limit.
        limit: CExpr,
    },
    /// Evaluates expressions into fresh slots (the projection step of a
    /// non-aggregating `WITH`).
    Let {
        /// Child operator.
        input: Box<Op>,
        /// `(target slot, expression)` bindings.
        bindings: Vec<(usize, CExpr)>,
    },
    /// Deduplicates rows by the values of expressions (`WITH DISTINCT`).
    DistinctBy {
        /// Child operator.
        input: Box<Op>,
        /// Key expressions.
        exprs: Vec<CExpr>,
    },
    /// Full sort by expression keys (`WITH … ORDER BY`).
    SortBy {
        /// Child operator.
        input: Box<Op>,
        /// `(key, descending)` pairs.
        keys: Vec<(CExpr, bool)>,
    },
    /// Grouping aggregation that writes group representatives and the count
    /// into row slots (an aggregating `WITH`): node-variable groups stay
    /// nodes, so later stages can keep expanding them.
    AggregateBy {
        /// Child operator.
        input: Box<Op>,
        /// `(target slot, group expression)` pairs.
        groups: Vec<(usize, CExpr)>,
        /// Slot receiving `count(*)`, when requested.
        count_slot: Option<usize>,
    },
    /// Row counter inserted by [`instrument`] for `PROFILE` — forwards rows
    /// unchanged, bumping `counters[id]`.
    Counter {
        /// Child operator.
        input: Box<Op>,
        /// Counter slot.
        id: usize,
    },
}

/// A complete plan: the operator tree plus output metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Root operator (its rows are the result rows).
    pub root: Op,
    /// Output column names.
    pub columns: Vec<String>,
    /// Number of row slots needed during execution.
    pub slots: usize,
    /// Estimated output rows per operator, in the pre-order of
    /// [`Plan::explain`] (empty when the plan was built without statistics).
    pub est_rows: Vec<f64>,
}

impl Plan {
    /// Renders the plan as an indented tree (the `EXPLAIN` output).
    pub fn explain(&self) -> String {
        let mut out = String::new();
        explain_op(&self.root, 0, &mut out);
        out
    }

    /// Renders the plan like [`Plan::explain`] with each operator annotated
    /// with its estimated output cardinality from the statistics the plan
    /// was built against (`?` when no estimate is available).
    pub fn describe(&self) -> String {
        let mut out = String::new();
        let mut idx = 0usize;
        describe_op(&self.root, 0, &self.est_rows, &mut idx, &mut out);
        out
    }
}

fn fmt_est(v: f64) -> String {
    format!("{}", v.round().clamp(0.0, 1e18) as u64)
}

fn describe_op(op: &Op, depth: usize, ests: &[f64], idx: &mut usize, out: &mut String) {
    use std::fmt::Write;
    let Some((desc, children)) = op_parts(op) else {
        if let Op::Counter { input, .. } = op {
            describe_op(input, depth, ests, idx, out);
        }
        return;
    };
    let est = ests
        .get(*idx)
        .map(|&v| fmt_est(v))
        .unwrap_or_else(|| "?".into());
    *idx += 1;
    let pad = "  ".repeat(depth);
    let _ = writeln!(out, "{pad}{desc} (est ~{est} rows)");
    for c in children {
        describe_op(c, depth + 1, ests, idx, out);
    }
}

/// One line of the rendered tree plus the children to recurse into;
/// `None` for the transparent [`Op::Counter`].
fn op_parts(op: &Op) -> Option<(String, Vec<&Op>)> {
    Some(match op {
        Op::IndexSeek {
            input, label, key, ..
        } => (
            format!("NodeIndexSeek(:{label} {{{key}}})"),
            input.iter().map(|b| b.as_ref()).collect(),
        ),
        Op::IndexRangeSeek {
            input,
            label,
            key,
            op,
            ..
        } => (
            format!(
                "NodeIndexRangeSeek(:{label} {{{key} {} …}})",
                cmp_symbol(*op)
            ),
            input.iter().map(|b| b.as_ref()).collect(),
        ),
        Op::NodeIdInSeek {
            input, label, key, ..
        } => (
            format!("NodeIdInSeek(:{label} {{{key} IN …}})"),
            input.iter().map(|b| b.as_ref()).collect(),
        ),
        Op::LabelScan { input, label, .. } => (
            format!("NodeByLabelScan(:{label})"),
            input.iter().map(|b| b.as_ref()).collect(),
        ),
        Op::AllNodes { input, .. } => (
            "AllNodesScan".to_string(),
            input.iter().map(|b| b.as_ref()).collect(),
        ),
        Op::Expand {
            input,
            rel_type,
            dir,
            min,
            max,
            ..
        } => (
            format!(
                "Expand({}:{}*{min}..{max})",
                match dir {
                    Direction::Outgoing => "out",
                    Direction::Incoming => "in",
                    Direction::Both => "both",
                },
                rel_type.as_deref().unwrap_or("*")
            ),
            vec![input.as_ref()],
        ),
        Op::Filter { input, .. } => ("Filter".to_string(), vec![input.as_ref()]),
        Op::ShortestPath { input, max, .. } => {
            (format!("ShortestPath(max {max})"), vec![input.as_ref()])
        }
        Op::Project { input, exprs } => (
            format!("Project({} cols)", exprs.len()),
            vec![input.as_ref()],
        ),
        Op::Aggregate { input, items } => (
            format!("Aggregate({} items)", items.len()),
            vec![input.as_ref()],
        ),
        Op::Distinct { input } => ("Distinct".to_string(), vec![input.as_ref()]),
        Op::Sort { input, .. } => ("Sort".to_string(), vec![input.as_ref()]),
        Op::TopN { input, .. } => ("TopN".to_string(), vec![input.as_ref()]),
        Op::Limit { input, .. } => ("Limit".to_string(), vec![input.as_ref()]),
        Op::Let { input, bindings } => (
            format!("Let({} bindings)", bindings.len()),
            vec![input.as_ref()],
        ),
        Op::DistinctBy { input, exprs } => (
            format!("DistinctBy({} keys)", exprs.len()),
            vec![input.as_ref()],
        ),
        Op::SortBy { input, keys } => {
            (format!("SortBy({} keys)", keys.len()), vec![input.as_ref()])
        }
        Op::AggregateBy {
            input,
            groups,
            count_slot,
        } => (
            format!(
                "AggregateBy({} groups{})",
                groups.len(),
                if count_slot.is_some() { " + count" } else { "" }
            ),
            vec![input.as_ref()],
        ),
        Op::Counter { .. } => return None,
    })
}

/// Comparison operator as its query-text symbol (plan rendering).
fn cmp_symbol(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "=",
        CmpOp::Neq => "<>",
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
    }
}

fn explain_op(op: &Op, depth: usize, out: &mut String) {
    use std::fmt::Write;
    let Some((desc, children)) = op_parts(op) else {
        if let Op::Counter { input, .. } = op {
            explain_op(input, depth, out);
        }
        return;
    };
    let pad = "  ".repeat(depth);
    let _ = writeln!(out, "{pad}{desc}");
    for c in children {
        explain_op(c, depth + 1, out);
    }
}

// ---------------------------------------------------------------------------
// PROFILE instrumentation
// ---------------------------------------------------------------------------

/// Wraps every operator of `plan` in a row counter, returning the
/// instrumented plan and the operator descriptions (one per counter slot,
/// in pre-order). Execute the result with counters to get per-operator row
/// counts — the engine's `PROFILE` facility.
pub fn instrument(plan: &Plan) -> (Plan, Vec<String>) {
    let mut descs = Vec::new();
    let root = instrument_op(&plan.root, 0, &mut descs);
    (
        Plan {
            root,
            columns: plan.columns.clone(),
            slots: plan.slots,
            est_rows: plan.est_rows.clone(),
        },
        descs,
    )
}

fn op_desc(op: &Op, depth: usize) -> String {
    let mut text = String::new();
    explain_op(op, 0, &mut text);
    let first = text.lines().next().unwrap_or("?").to_owned();
    format!("{}{first}", "  ".repeat(depth))
}

fn instrument_op(op: &Op, depth: usize, descs: &mut Vec<String>) -> Op {
    let id = descs.len();
    descs.push(op_desc(op, depth));
    let rebuilt = match op {
        Op::IndexSeek {
            input,
            label,
            key,
            value,
            slot,
        } => Op::IndexSeek {
            input: input
                .as_ref()
                .map(|i| Box::new(instrument_op(i, depth + 1, descs))),
            label: label.clone(),
            key: key.clone(),
            value: value.clone(),
            slot: *slot,
        },
        Op::IndexRangeSeek {
            input,
            label,
            key,
            op,
            bound,
            slot,
        } => Op::IndexRangeSeek {
            input: input
                .as_ref()
                .map(|i| Box::new(instrument_op(i, depth + 1, descs))),
            label: label.clone(),
            key: key.clone(),
            op: *op,
            bound: bound.clone(),
            slot: *slot,
        },
        Op::NodeIdInSeek {
            input,
            label,
            key,
            list,
            slot,
        } => Op::NodeIdInSeek {
            input: input
                .as_ref()
                .map(|i| Box::new(instrument_op(i, depth + 1, descs))),
            label: label.clone(),
            key: key.clone(),
            list: list.clone(),
            slot: *slot,
        },
        Op::LabelScan { input, label, slot } => Op::LabelScan {
            input: input
                .as_ref()
                .map(|i| Box::new(instrument_op(i, depth + 1, descs))),
            label: label.clone(),
            slot: *slot,
        },
        Op::AllNodes { input, slot } => Op::AllNodes {
            input: input
                .as_ref()
                .map(|i| Box::new(instrument_op(i, depth + 1, descs))),
            slot: *slot,
        },
        Op::Expand {
            input,
            from,
            to,
            rel_slot,
            rel_type,
            dir,
            min,
            max,
        } => Op::Expand {
            input: Box::new(instrument_op(input, depth + 1, descs)),
            from: *from,
            to: *to,
            rel_slot: *rel_slot,
            rel_type: rel_type.clone(),
            dir: *dir,
            min: *min,
            max: *max,
        },
        Op::Filter { input, pred } => Op::Filter {
            input: Box::new(instrument_op(input, depth + 1, descs)),
            pred: pred.clone(),
        },
        Op::ShortestPath {
            input,
            from,
            to,
            rel_type,
            dir,
            max,
            path_slot,
        } => Op::ShortestPath {
            input: Box::new(instrument_op(input, depth + 1, descs)),
            from: *from,
            to: *to,
            rel_type: rel_type.clone(),
            dir: *dir,
            max: *max,
            path_slot: *path_slot,
        },
        Op::Project { input, exprs } => Op::Project {
            input: Box::new(instrument_op(input, depth + 1, descs)),
            exprs: exprs.clone(),
        },
        Op::Aggregate { input, items } => Op::Aggregate {
            input: Box::new(instrument_op(input, depth + 1, descs)),
            items: items.clone(),
        },
        Op::Distinct { input } => Op::Distinct {
            input: Box::new(instrument_op(input, depth + 1, descs)),
        },
        Op::Sort { input, keys } => Op::Sort {
            input: Box::new(instrument_op(input, depth + 1, descs)),
            keys: keys.clone(),
        },
        Op::TopN { input, keys, limit } => Op::TopN {
            input: Box::new(instrument_op(input, depth + 1, descs)),
            keys: keys.clone(),
            limit: limit.clone(),
        },
        Op::Limit { input, limit } => Op::Limit {
            input: Box::new(instrument_op(input, depth + 1, descs)),
            limit: limit.clone(),
        },
        Op::Let { input, bindings } => Op::Let {
            input: Box::new(instrument_op(input, depth + 1, descs)),
            bindings: bindings.clone(),
        },
        Op::DistinctBy { input, exprs } => Op::DistinctBy {
            input: Box::new(instrument_op(input, depth + 1, descs)),
            exprs: exprs.clone(),
        },
        Op::SortBy { input, keys } => Op::SortBy {
            input: Box::new(instrument_op(input, depth + 1, descs)),
            keys: keys.clone(),
        },
        Op::AggregateBy {
            input,
            groups,
            count_slot,
        } => Op::AggregateBy {
            input: Box::new(instrument_op(input, depth + 1, descs)),
            groups: groups.clone(),
            count_slot: *count_slot,
        },
        Op::Counter { input, id } => {
            // Already instrumented: pass through (desc slot reserved above
            // stays unused for nested counters, which do not occur in
            // planner output).
            Op::Counter {
                input: input.clone(),
                id: *id,
            }
        }
    };
    Op::Counter {
        input: Box::new(rebuilt),
        id,
    }
}

// ---------------------------------------------------------------------------
// Planner
// ---------------------------------------------------------------------------

struct SymbolTable {
    /// Name → slot. Slots are never reused; `WITH` re-scopes by replacing
    /// the map while keeping the slot counter.
    map: std::collections::HashMap<String, usize>,
    slots: usize,
}

impl SymbolTable {
    fn new() -> Self {
        SymbolTable {
            map: std::collections::HashMap::new(),
            slots: 0,
        }
    }

    fn lookup(&self, name: &str) -> Option<usize> {
        self.map.get(name).copied()
    }

    fn bind(&mut self, name: &str) -> usize {
        debug_assert!(self.lookup(name).is_none(), "rebinding {name}");
        let slot = self.slots;
        self.slots += 1;
        self.map.insert(name.to_owned(), slot);
        slot
    }

    fn fresh_slot(&mut self) -> usize {
        let slot = self.slots;
        self.slots += 1;
        slot
    }

    fn bind_or_get(&mut self, name: &str) -> (usize, bool) {
        match self.lookup(name) {
            Some(i) => (i, false),
            None => (self.bind(name), true),
        }
    }

    /// Re-scopes to exactly the given `(name, slot)` pairs (a `WITH`
    /// boundary): earlier variables become invisible, slots stay allocated.
    fn retain(&mut self, kept: &[(String, usize)]) {
        self.map = kept.iter().cloned().collect();
    }
}

/// Plans `query` against `db` (index metadata is consulted for anchor
/// selection) with the given options.
pub fn plan(db: &GraphDb, query: &Query, options: &PlannerOptions) -> Result<Plan> {
    let mut syms = SymbolTable::new();
    let mut carried: Option<Op> = None;

    // Leading WITH stages.
    for stage in &query.stages {
        let matched = plan_part(
            db,
            &stage.match_clause,
            stage.where_clause.clone(),
            carried.take(),
            &mut syms,
            options,
        )?;
        carried = Some(plan_with(stage, matched, &mut syms)?);
    }

    // Final MATCH … RETURN part.
    let mut root = plan_part(
        db,
        &query.match_clause,
        query.where_clause.clone(),
        carried,
        &mut syms,
        options,
    )?;

    // RETURN: aggregation or plain projection.
    let has_count = query
        .items
        .iter()
        .any(|i| matches!(i.expr, Expr::CountStar));
    let columns: Vec<String> = query.items.iter().map(|i| i.alias.clone()).collect();
    if has_count {
        let items = query
            .items
            .iter()
            .map(|i| {
                Ok(match &i.expr {
                    Expr::CountStar => AggItem::Count,
                    e => AggItem::Group(compile_expr(e, &syms)?),
                })
            })
            .collect::<Result<Vec<_>>>()?;
        root = Op::Aggregate {
            input: Box::new(root),
            items,
        };
    } else {
        let exprs = query
            .items
            .iter()
            .map(|i| compile_expr(&i.expr, &syms))
            .collect::<Result<Vec<_>>>()?;
        root = Op::Project {
            input: Box::new(root),
            exprs,
        };
    }
    if query.distinct {
        root = Op::Distinct {
            input: Box::new(root),
        };
    }

    // ORDER BY keys refer to output columns (by alias or identical expr).
    let keys = query
        .order_by
        .iter()
        .map(|k| {
            let col = match &k.expr {
                Expr::Var(name) => columns.iter().position(|c| c == name),
                other => query.items.iter().position(|i| &i.expr == other),
            }
            .ok_or_else(|| QlError::Plan("ORDER BY must reference a returned column".into()))?;
            Ok((col, k.desc))
        })
        .collect::<Result<Vec<_>>>()?;

    let limit = query
        .limit
        .as_ref()
        .map(|l| compile_expr(l, &syms))
        .transpose()?;
    root = match (keys.is_empty(), limit) {
        (true, None) => root,
        (true, Some(l)) => Op::Limit {
            input: Box::new(root),
            limit: l,
        },
        (false, None) => Op::Sort {
            input: Box::new(root),
            keys,
        },
        (false, Some(l)) => {
            if options.topn_pushdown {
                Op::TopN {
                    input: Box::new(root),
                    keys,
                    limit: l,
                }
            } else {
                Op::Limit {
                    input: Box::new(Op::Sort {
                        input: Box::new(root),
                        keys,
                    }),
                    limit: l,
                }
            }
        }
    };

    let mut est_rows = Vec::new();
    annotate(&root, db, &mut est_rows);
    Ok(Plan {
        root,
        columns,
        slots: syms.slots,
        est_rows,
    })
}

// ---------------------------------------------------------------------------
// Cardinality estimation (DESIGN.md §4g)
// ---------------------------------------------------------------------------
//
// Statistics feed the planner only: they pick anchors, expansion directions
// and the `est_rows` annotations of `Plan::describe`. They may never shape
// answer bytes — a stale or empty snapshot only ever costs performance.

/// Frontier cap keeping cost arithmetic finite (no `inf`, hence no `NaN`).
const EST_CAP: f64 = 1e18;

/// Heuristic selectivity of a filter (or an unindexed property constraint).
const FILTER_SELECTIVITY: f64 = 0.1;

/// Heuristic selectivity of a one-sided range predicate served by an index
/// range seek (wider than an equality seek, tighter than no constraint).
const RANGE_SELECTIVITY: f64 = 0.3;

/// Assumed element count of an `IN` list whose length is unknown at plan
/// time (a parameter binding). Literal lists use their actual length.
const DEFAULT_IN_LIST_LEN: f64 = 8.0;

/// Estimated element count of an `IN` list expression: Σ per-key estimates
/// with one row per indexed key, i.e. the (deduplicated) list length when it
/// is known.
fn in_list_len_est(list: &CExpr) -> f64 {
    match list {
        CExpr::Lit(Value::List(items)) => (items.len() as f64).max(1.0),
        _ => DEFAULT_IN_LIST_LEN,
    }
}

/// Estimated element count when `pending` holds an `IN` conjunct over an
/// indexed `(label, key)` of `node` — the multi-anchor seek candidate
/// [`take_in_conjunct`] will extract if this node anchors the pattern.
fn indexed_in_len(db: &GraphDb, node: &crate::ast::NodePat, pending: &[Expr]) -> Option<f64> {
    let label = node.label.as_deref()?;
    for e in pending {
        let Expr::In(a, b) = e else { continue };
        let Expr::Prop(v, key) = a.as_ref() else {
            continue;
        };
        if v != &node.var {
            continue;
        }
        let indexed = match (db.label_id(label), db.prop_key_id(key)) {
            (Some(l), Some(k)) => db.prop_index_has(l.raw(), k),
            _ => false,
        };
        if !indexed {
            continue;
        }
        let mut vars = Vec::new();
        b.vars(&mut vars);
        if vars.iter().any(|x| x == &node.var) {
            continue;
        }
        return Some(match b.as_ref() {
            Expr::Lit(Value::List(items)) => (items.len() as f64).max(1.0),
            _ => DEFAULT_IN_LIST_LEN,
        });
    }
    None
}

/// Estimated rows bound by scanning `node` as a source (before expansion).
fn source_card(db: &GraphDb, node: &crate::ast::NodePat, pending: &[Expr]) -> f64 {
    let stats = db.statistics();
    let base = match (&node.label, node.props.is_empty()) {
        (Some(label), false) => {
            let indexed =
                node.props
                    .iter()
                    .any(|(key, _)| match (db.label_id(label), db.prop_key_id(key)) {
                        (Some(l), Some(k)) => db.prop_index_has(l.raw(), k),
                        _ => false,
                    });
            let count = db
                .label_id(label)
                .map_or(0.0, |l| stats.node_count(l) as f64);
            if indexed {
                return 1.0;
            }
            (count * FILTER_SELECTIVITY).max(1.0)
        }
        (Some(label), true) => db
            .label_id(label)
            .map_or(0.0, |l| stats.node_count(l) as f64),
        (None, false) => (stats.total_nodes() as f64 * FILTER_SELECTIVITY).max(1.0),
        (None, true) => stats.total_nodes() as f64,
    };
    match indexed_in_len(db, node, pending) {
        Some(len) => base.min(len),
        None => base,
    }
}

/// Mean per-row fan-out of one expansion step over `(rel_type, dir)` with
/// the given hop bounds: the `min..=max` geometric sum of the single-hop
/// average degree from the statistics (0 for a type never created).
fn step_fanout(db: &GraphDb, rel_type: &Option<String>, dir: Direction, min: u32, max: u32) -> f64 {
    let stats = db.statistics();
    let d = match rel_type {
        Some(name) => match db.rel_type_id(name) {
            Some(t) => stats.avg_degree(t, dir),
            None => 0.0,
        },
        None => stats.avg_degree_untyped(dir),
    };
    if (min, max) == (1, 1) {
        return d;
    }
    let mut total = 0.0f64;
    let mut hop = 1.0f64;
    for h in 0..=max.min(MAX_VAR_HOPS) {
        if h > 0 {
            hop = (hop * d).min(EST_CAP);
        }
        if h >= min {
            total = (total + hop).min(EST_CAP);
        }
    }
    total
}

/// Total cost of anchoring `path` at node `anchor`: the summed estimated
/// cardinality after the source scan and after every expansion step, walking
/// right from the anchor and then left (the executor's order).
fn anchor_cost(db: &GraphDb, path: &crate::ast::PathPat, anchor: usize, pending: &[Expr]) -> f64 {
    let mut frontier = source_card(db, &path.nodes[anchor], pending);
    let mut cost = frontier;
    for rel in &path.rels[anchor..] {
        frontier = (frontier
            * step_fanout(
                db,
                &rel.rel_type,
                dir_of(rel.dir, false),
                rel.hops.0,
                rel.hops.1,
            ))
        .min(EST_CAP);
        cost = (cost + frontier).min(EST_CAP);
    }
    for rel in path.rels[..anchor].iter().rev() {
        frontier = (frontier
            * step_fanout(
                db,
                &rel.rel_type,
                dir_of(rel.dir, true),
                rel.hops.0,
                rel.hops.1,
            ))
        .min(EST_CAP);
        cost = (cost + frontier).min(EST_CAP);
    }
    cost
}

/// Fills `out` with estimated output rows per operator in explain pre-order
/// ([`Op::Counter`] is transparent), returning the root's estimate.
fn annotate(op: &Op, db: &GraphDb, out: &mut Vec<f64>) -> f64 {
    if let Op::Counter { input, .. } = op {
        return annotate(input, db, out);
    }
    let idx = out.len();
    out.push(0.0);
    let child_or_one = |input: &Option<Box<Op>>, out: &mut Vec<f64>| match input {
        Some(i) => annotate(i, db, out),
        None => 1.0,
    };
    let stats = db.statistics();
    let est = match op {
        Op::IndexSeek { input, .. } => child_or_one(input, out),
        Op::NodeIdInSeek { input, list, .. } => {
            (child_or_one(input, out) * in_list_len_est(list)).min(EST_CAP)
        }
        Op::IndexRangeSeek { input, label, .. } => {
            let n = db
                .label_id(label)
                .map_or(0.0, |l| stats.node_count(l) as f64);
            (child_or_one(input, out) * (n * RANGE_SELECTIVITY).max(1.0)).min(EST_CAP)
        }
        Op::LabelScan { input, label, .. } => {
            let n = db
                .label_id(label)
                .map_or(0.0, |l| stats.node_count(l) as f64);
            (child_or_one(input, out) * n).min(EST_CAP)
        }
        Op::AllNodes { input, .. } => {
            (child_or_one(input, out) * stats.total_nodes() as f64).min(EST_CAP)
        }
        Op::Expand {
            input,
            rel_type,
            dir,
            min,
            max,
            ..
        } => {
            let f = step_fanout(db, rel_type, *dir, *min, *max);
            (annotate(input, db, out) * f).min(EST_CAP)
        }
        Op::Filter { input, .. } => {
            (annotate(input, db, out) * FILTER_SELECTIVITY).clamp(1.0, EST_CAP)
        }
        Op::ShortestPath { input, .. } => annotate(input, db, out),
        Op::Project { input, .. }
        | Op::Let { input, .. }
        | Op::Sort { input, .. }
        | Op::SortBy { input, .. } => annotate(input, db, out),
        Op::Aggregate { input, items } => {
            let child = annotate(input, db, out);
            if items.iter().any(|i| matches!(i, AggItem::Group(_))) {
                child.sqrt().max(1.0)
            } else {
                1.0
            }
        }
        Op::AggregateBy { input, .. } => annotate(input, db, out).sqrt().max(1.0),
        Op::Distinct { input } | Op::DistinctBy { input, .. } => {
            (annotate(input, db, out) * 0.5).max(1.0)
        }
        Op::TopN { input, limit, .. } | Op::Limit { input, limit } => {
            let child = annotate(input, db, out);
            match limit {
                CExpr::Lit(Value::Int(n)) if *n >= 0 => child.min(*n as f64),
                _ => child,
            }
        }
        Op::Counter { .. } => unreachable!("handled above"),
    };
    out[idx] = est;
    est
}

/// Plans one `MATCH … [WHERE …]` part, optionally consuming the rows of a
/// previous stage (`input`). Pattern variables already bound by earlier
/// stages anchor the expansion instead of fresh scans.
fn plan_part(
    db: &GraphDb,
    match_clause: &MatchClause,
    where_clause: Option<Expr>,
    input: Option<Op>,
    syms: &mut SymbolTable,
    options: &PlannerOptions,
) -> Result<Op> {
    let mut pending: Vec<Expr> = where_clause
        .clone()
        .map(|w| w.conjuncts())
        .unwrap_or_default();
    if !options.predicate_pushdown {
        pending = where_clause.into_iter().collect();
    }

    let op = match match_clause {
        MatchClause::Path(path) => {
            // Anchor preference: an already-bound variable beats any scan.
            let anchor = path
                .nodes
                .iter()
                .position(|n| syms.lookup(&n.var).is_some())
                .unwrap_or_else(|| choose_anchor(db, path, options, &pending));
            let mut op = if let Some(slot) = syms.lookup(&path.nodes[anchor].var) {
                let base = input.ok_or_else(|| {
                    QlError::Plan("bound pattern variable without an input stage".into())
                })?;
                // Re-check any label/props the pattern repeats on the bound var.
                rebound_filters(&path.nodes[anchor], slot, base, syms)?
            } else {
                source_for(
                    db,
                    &path.nodes[anchor],
                    syms,
                    input.map(Box::new),
                    &mut pending,
                    options,
                )?
            };
            op = attach_ready(op, &mut pending, syms)?;
            for i in anchor..path.rels.len() {
                let rel = &path.rels[i];
                op = expand_step(op, rel, &path.nodes[i], &path.nodes[i + 1], false, syms)?;
                op = attach_ready(op, &mut pending, syms)?;
            }
            for i in (0..anchor).rev() {
                let rel = &path.rels[i];
                op = expand_step(op, rel, &path.nodes[i + 1], &path.nodes[i], true, syms)?;
                op = attach_ready(op, &mut pending, syms)?;
            }
            op
        }
        MatchClause::ShortestPath { path_var, pattern } => {
            let a = &pattern.nodes[0];
            let b = &pattern.nodes[1];
            let rel = &pattern.rels[0];
            let mut acc: Option<Box<Op>> = input.map(Box::new);
            for node in [a, b] {
                if syms.lookup(&node.var).is_none() {
                    acc = Some(Box::new(source_for(
                        db,
                        node,
                        syms,
                        acc,
                        &mut pending,
                        options,
                    )?));
                }
            }
            let input_op = *acc.ok_or_else(|| {
                QlError::Plan("shortestPath with both endpoints bound needs an input stage".into())
            })?;
            let path_slot = syms.bind(path_var);
            let from = syms.lookup(&a.var).expect("bound above");
            let to = syms.lookup(&b.var).expect("bound above");
            let op = Op::ShortestPath {
                input: Box::new(input_op),
                from,
                to,
                rel_type: rel.rel_type.clone(),
                dir: dir_of(rel.dir, false),
                max: rel.hops.1,
                path_slot,
            };
            attach_ready(op, &mut pending, syms)?
        }
    };

    // Any pending conjunct left has unbound variables.
    if let Some(expr) = pending.first() {
        let mut vars = Vec::new();
        expr.vars(&mut vars);
        let missing: Vec<String> = vars
            .into_iter()
            .filter(|v| syms.lookup(v).is_none())
            .collect();
        return Err(QlError::Unknown(format!(
            "WHERE references unbound variables: {missing:?}"
        )));
    }
    Ok(op)
}

/// Filters re-asserting a bound variable's repeated label/props.
fn rebound_filters(
    node: &crate::ast::NodePat,
    slot: usize,
    mut op: Op,
    syms: &SymbolTable,
) -> Result<Op> {
    if let Some(label) = &node.label {
        op = Op::Filter {
            input: Box::new(op),
            pred: CExpr::Cmp(
                CmpOp::Eq,
                Box::new(CExpr::Prop(slot, "  label".into())),
                Box::new(CExpr::Lit(Value::Str(label.clone()))),
            ),
        };
    }
    for (key, value) in &node.props {
        op = Op::Filter {
            input: Box::new(op),
            pred: CExpr::Cmp(
                CmpOp::Eq,
                Box::new(CExpr::Prop(slot, key.clone())),
                Box::new(compile_expr(value, syms)?),
            ),
        };
    }
    Ok(op)
}

/// Plans the WITH boundary of a stage: projection/aggregation into slots,
/// re-scoping, then the optional WHERE/DISTINCT/ORDER BY/LIMIT.
fn plan_with(stage: &crate::ast::WithStage, mut op: Op, syms: &mut SymbolTable) -> Result<Op> {
    let has_count = stage
        .items
        .iter()
        .any(|i| matches!(i.expr, Expr::CountStar));
    let mut kept: Vec<(String, usize)> = Vec::new();

    if has_count {
        let mut groups: Vec<(usize, CExpr)> = Vec::new();
        let mut count_slot = None;
        for item in &stage.items {
            match &item.expr {
                Expr::CountStar => {
                    let slot = syms.fresh_slot();
                    count_slot = Some(slot);
                    kept.push((item.alias.clone(), slot));
                }
                Expr::Var(v) => {
                    // Bare variable group: keep its slot (and its nodeness).
                    let slot = syms
                        .lookup(v)
                        .ok_or_else(|| QlError::Unknown(format!("variable {v} is not bound")))?;
                    groups.push((slot, CExpr::Slot(slot)));
                    kept.push((item.alias.clone(), slot));
                }
                e => {
                    let cexpr = compile_expr(e, syms)?;
                    let slot = syms.fresh_slot();
                    groups.push((slot, cexpr));
                    kept.push((item.alias.clone(), slot));
                }
            }
        }
        op = Op::AggregateBy {
            input: Box::new(op),
            groups,
            count_slot,
        };
    } else {
        let mut bindings: Vec<(usize, CExpr)> = Vec::new();
        for item in &stage.items {
            match &item.expr {
                Expr::Var(v) => {
                    let slot = syms
                        .lookup(v)
                        .ok_or_else(|| QlError::Unknown(format!("variable {v} is not bound")))?;
                    kept.push((item.alias.clone(), slot));
                }
                e => {
                    let cexpr = compile_expr(e, syms)?;
                    let slot = syms.fresh_slot();
                    bindings.push((slot, cexpr));
                    kept.push((item.alias.clone(), slot));
                }
            }
        }
        if !bindings.is_empty() {
            op = Op::Let {
                input: Box::new(op),
                bindings,
            };
        }
    }

    syms.retain(&kept);

    if let Some(w) = &stage.where_after {
        op = Op::Filter {
            input: Box::new(op),
            pred: compile_expr(w, syms)?,
        };
    }
    if stage.distinct {
        let exprs = kept.iter().map(|&(_, slot)| CExpr::Slot(slot)).collect();
        op = Op::DistinctBy {
            input: Box::new(op),
            exprs,
        };
    }
    if !stage.order_by.is_empty() {
        let keys = stage
            .order_by
            .iter()
            .map(|k| Ok((compile_expr(&k.expr, syms)?, k.desc)))
            .collect::<Result<Vec<_>>>()?;
        op = Op::SortBy {
            input: Box::new(op),
            keys,
        };
    }
    if let Some(l) = &stage.limit {
        op = Op::Limit {
            input: Box::new(op),
            limit: compile_expr(l, syms)?,
        };
    }
    Ok(op)
}

/// Scores a pattern node for anchor selection: lower is better. A node with
/// an indexed `IN` conjunct in the pending WHERE ranks just below an inline
/// equality seek — a multi-anchor seek binds ~list-length rows.
fn anchor_score(db: &GraphDb, node: &crate::ast::NodePat, pending: &[Expr]) -> u32 {
    let base = match (&node.label, node.props.is_empty()) {
        (Some(label), false) => {
            let indexed =
                node.props
                    .iter()
                    .any(|(key, _)| match (db.label_id(label), db.prop_key_id(key)) {
                        (Some(l), Some(k)) => db.prop_index_has(l.raw(), k),
                        _ => false,
                    });
            if indexed {
                0
            } else {
                2
            }
        }
        (Some(_), true) => 3,
        (None, false) => 4,
        (None, true) => 5,
    };
    if base > 1 && indexed_in_len(db, node, pending).is_some() {
        1
    } else {
        base
    }
}

/// Picks the pattern node to scan first. With `cost_based` on and non-empty
/// statistics, the anchor minimising [`anchor_cost`] wins — which is what
/// chooses the cheaper *expansion direction* between otherwise equal
/// candidates; exact cost ties fall back to the rule order
/// ([`anchor_score`], then pattern position) so plans stay stable.
fn choose_anchor(
    db: &GraphDb,
    path: &crate::ast::PathPat,
    options: &PlannerOptions,
    pending: &[Expr],
) -> usize {
    if !options.cost_based || db.statistics().total_nodes() == 0 {
        let mut best = 0usize;
        let mut best_score = u32::MAX;
        for (i, n) in path.nodes.iter().enumerate() {
            let s = anchor_score(db, n, pending);
            if s < best_score {
                best_score = s;
                best = i;
            }
        }
        return best;
    }
    let mut best = 0usize;
    let mut best_cost = f64::INFINITY;
    let mut best_score = u32::MAX;
    for (i, n) in path.nodes.iter().enumerate() {
        let cost = anchor_cost(db, path, i, pending);
        let score = anchor_score(db, n, pending);
        let tie = (cost - best_cost).abs() <= 1e-9 * best_cost.abs().max(1.0);
        if (!tie && cost < best_cost) || (tie && score < best_score) {
            best = i;
            best_cost = cost;
            best_score = score;
        }
    }
    best
}

/// Builds the source operator binding a pattern node, including its inline
/// property constraints (index seek when possible, filters otherwise) and
/// label check.
fn source_for(
    db: &GraphDb,
    node: &crate::ast::NodePat,
    syms: &mut SymbolTable,
    input: Option<Box<Op>>,
    pending: &mut Vec<Expr>,
    options: &PlannerOptions,
) -> Result<Op> {
    let slot = syms.bind(&node.var);
    let mut remaining_props = node.props.clone();
    let mut op = match &node.label {
        Some(label) => {
            // Prefer an index seek on the first indexed inline property.
            let seek_at = remaining_props.iter().position(|(key, _)| {
                match (db.label_id(label), db.prop_key_id(key)) {
                    (Some(l), Some(k)) => db.prop_index_has(l.raw(), k),
                    _ => false,
                }
            });
            match seek_at {
                Some(i) => {
                    let (key, value) = remaining_props.remove(i);
                    Op::IndexSeek {
                        input,
                        label: label.clone(),
                        key,
                        value: compile_expr(&value, syms)?,
                        slot,
                    }
                }
                None => {
                    // No equality seek: a WHERE membership or range conjunct
                    // on an indexed key can still replace the scan with a
                    // (multi-anchor or range) seek.
                    let in_seek = if options.predicate_pushdown {
                        take_in_conjunct(db, label, &node.var, pending, syms)
                    } else {
                        None
                    };
                    if let Some((key, list)) = in_seek {
                        Op::NodeIdInSeek {
                            input,
                            label: label.clone(),
                            key,
                            list: Box::new(compile_expr(&list, syms)?),
                            slot,
                        }
                    } else {
                        let range = if options.predicate_pushdown {
                            take_range_conjunct(db, label, &node.var, pending, syms)
                        } else {
                            None
                        };
                        match range {
                            Some((key, op, bound)) => Op::IndexRangeSeek {
                                input,
                                label: label.clone(),
                                key,
                                op,
                                bound: Box::new(compile_expr(&bound, syms)?),
                                slot,
                            },
                            None => Op::LabelScan {
                                input,
                                label: label.clone(),
                                slot,
                            },
                        }
                    }
                }
            }
        }
        None => Op::AllNodes { input, slot },
    };
    for (key, value) in remaining_props {
        op = Op::Filter {
            input: Box::new(op),
            pred: CExpr::Cmp(
                CmpOp::Eq,
                Box::new(CExpr::Prop(slot, key)),
                Box::new(compile_expr(&value, syms)?),
            ),
        };
    }
    Ok(op)
}

/// Finds (and removes) a pending WHERE conjunct `var.key <op> expr` (either
/// orientation) that an index range seek on `label` can serve: the op is a
/// range comparison, `(label, key)` is indexed, and the bound side neither
/// references `var` nor any variable not yet bound in `syms`. Returns the
/// key, the comparison as seen from the property side, and the bound.
/// Finds (and removes) a pending WHERE conjunct `var.key IN list` that a
/// multi-anchor index seek on `label` can serve: `(label, key)` is indexed
/// and the list side neither references `var` nor any variable not yet
/// bound in `syms`. Returns the key and the list expression.
fn take_in_conjunct(
    db: &GraphDb,
    label: &str,
    var: &str,
    pending: &mut Vec<Expr>,
    syms: &SymbolTable,
) -> Option<(String, Expr)> {
    let indexed = |key: &str| match (db.label_id(label), db.prop_key_id(key)) {
        (Some(l), Some(k)) => db.prop_index_has(l.raw(), k),
        _ => false,
    };
    let usable_list = |e: &Expr| {
        let mut vars = Vec::new();
        e.vars(&mut vars);
        vars.iter().all(|v| v != var && syms.lookup(v).is_some())
    };
    let mut found: Option<(usize, String, Expr)> = None;
    for (i, e) in pending.iter().enumerate() {
        let Expr::In(a, b) = e else { continue };
        let Expr::Prop(v, key) = a.as_ref() else {
            continue;
        };
        if v == var && indexed(key) && usable_list(b) {
            found = Some((i, key.clone(), (**b).clone()));
            break;
        }
    }
    let (i, key, list) = found?;
    pending.remove(i);
    Some((key, list))
}

fn take_range_conjunct(
    db: &GraphDb,
    label: &str,
    var: &str,
    pending: &mut Vec<Expr>,
    syms: &SymbolTable,
) -> Option<(String, CmpOp, Expr)> {
    let flip = |op: CmpOp| match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        other => other,
    };
    let indexed = |key: &str| match (db.label_id(label), db.prop_key_id(key)) {
        (Some(l), Some(k)) => db.prop_index_has(l.raw(), k),
        _ => false,
    };
    let usable_bound = |e: &Expr| {
        let mut vars = Vec::new();
        e.vars(&mut vars);
        vars.iter().all(|v| v != var && syms.lookup(v).is_some())
    };
    let mut found: Option<(usize, String, CmpOp, Expr)> = None;
    for (i, e) in pending.iter().enumerate() {
        let Expr::Cmp(op, a, b) = e else { continue };
        if !matches!(op, CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge) {
            continue;
        }
        if let Expr::Prop(v, key) = a.as_ref() {
            if v == var && indexed(key) && usable_bound(b) {
                found = Some((i, key.clone(), *op, (**b).clone()));
                break;
            }
        }
        if let Expr::Prop(v, key) = b.as_ref() {
            if v == var && indexed(key) && usable_bound(a) {
                found = Some((i, key.clone(), flip(*op), (**a).clone()));
                break;
            }
        }
    }
    let (i, key, op, bound) = found?;
    pending.remove(i);
    Some((key, op, bound))
}

fn dir_of(d: PatDir, reversed: bool) -> Direction {
    let d = if reversed {
        match d {
            PatDir::Right => PatDir::Left,
            PatDir::Left => PatDir::Right,
            PatDir::Undirected => PatDir::Undirected,
        }
    } else {
        d
    };
    match d {
        PatDir::Right => Direction::Outgoing,
        PatDir::Left => Direction::Incoming,
        PatDir::Undirected => Direction::Both,
    }
}

/// Adds one expansion step `from_node → to_node`, handling label/property
/// checks of the target and repeated variables (cycle joins).
fn expand_step(
    op: Op,
    rel: &crate::ast::RelPat,
    from_node: &crate::ast::NodePat,
    to_node: &crate::ast::NodePat,
    reversed: bool,
    syms: &mut SymbolTable,
) -> Result<Op> {
    let from = syms
        .lookup(&from_node.var)
        .ok_or_else(|| QlError::Plan(format!("variable {} not bound", from_node.var)))?;
    let (to, fresh) = syms.bind_or_get(&to_node.var);
    let (to_slot, join_filter) = if fresh {
        (to, None)
    } else {
        // Repeated variable: expand into a temp slot, then require equality.
        let tmp = syms.bind(&format!("  join{}", syms.slots));
        (tmp, Some((tmp, to)))
    };
    let rel_slot = rel.var.as_deref().map(|v| syms.bind(v));
    let mut out = Op::Expand {
        input: Box::new(op),
        from,
        to: to_slot,
        rel_slot,
        rel_type: rel.rel_type.clone(),
        dir: dir_of(rel.dir, reversed),
        min: rel.hops.0,
        max: rel.hops.1,
    };
    if let Some((a, b)) = join_filter {
        out = Op::Filter {
            input: Box::new(out),
            pred: CExpr::Cmp(CmpOp::Eq, Box::new(CExpr::Id(a)), Box::new(CExpr::Id(b))),
        };
    }
    if fresh {
        if let Some(label) = &to_node.label {
            out = Op::Filter {
                input: Box::new(out),
                pred: CExpr::Cmp(
                    CmpOp::Eq,
                    Box::new(CExpr::Prop(to_slot, "  label".into())),
                    Box::new(CExpr::Lit(Value::Str(label.clone()))),
                ),
            };
        }
        for (key, value) in &to_node.props {
            out = Op::Filter {
                input: Box::new(out),
                pred: CExpr::Cmp(
                    CmpOp::Eq,
                    Box::new(CExpr::Prop(to_slot, key.clone())),
                    Box::new(compile_expr(value, syms)?),
                ),
            };
        }
    }
    Ok(out)
}

/// Attaches every pending WHERE conjunct whose variables are all bound.
fn attach_ready(mut op: Op, pending: &mut Vec<Expr>, syms: &SymbolTable) -> Result<Op> {
    let mut i = 0;
    while i < pending.len() {
        let mut vars = Vec::new();
        pending[i].vars(&mut vars);
        if vars.iter().all(|v| syms.lookup(v).is_some()) {
            let expr = pending.remove(i);
            op = Op::Filter {
                input: Box::new(op),
                pred: compile_expr(&expr, syms)?,
            };
        } else {
            i += 1;
        }
    }
    Ok(op)
}

/// Compiles an AST expression against the symbol table.
fn compile_expr(e: &Expr, syms: &SymbolTable) -> Result<CExpr> {
    Ok(match e {
        Expr::Lit(v) => CExpr::Lit(v.clone()),
        Expr::Param(p) => CExpr::Param(p.clone()),
        Expr::Var(v) => CExpr::Slot(slot_of(v, syms)?),
        Expr::Prop(v, k) => CExpr::Prop(slot_of(v, syms)?, k.clone()),
        Expr::CountStar => CExpr::CountStar,
        Expr::Length(v) => CExpr::Length(slot_of(v, syms)?),
        Expr::TypeFn(v) => CExpr::RelType(slot_of(v, syms)?),
        Expr::Id(v) => CExpr::Id(slot_of(v, syms)?),
        Expr::Cmp(op, a, b) => CExpr::Cmp(
            *op,
            Box::new(compile_expr(a, syms)?),
            Box::new(compile_expr(b, syms)?),
        ),
        Expr::In(a, b) => CExpr::In(
            Box::new(compile_expr(a, syms)?),
            Box::new(compile_expr(b, syms)?),
        ),
        Expr::And(a, b) => CExpr::And(
            Box::new(compile_expr(a, syms)?),
            Box::new(compile_expr(b, syms)?),
        ),
        Expr::Or(a, b) => CExpr::Or(
            Box::new(compile_expr(a, syms)?),
            Box::new(compile_expr(b, syms)?),
        ),
        Expr::Not(a) => CExpr::Not(Box::new(compile_expr(a, syms)?)),
        Expr::PatternExists {
            from,
            to,
            rel_type,
            dir,
        } => CExpr::PatternExists {
            from: slot_of(from, syms)?,
            to: slot_of(to, syms)?,
            rel_type: rel_type.clone(),
            dir: dir_of(*dir, false),
        },
    })
}

fn slot_of(v: &str, syms: &SymbolTable) -> Result<usize> {
    syms.lookup(v)
        .ok_or_else(|| QlError::Unknown(format!("variable {v} is not bound")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use arbordb::db::DbConfig;

    fn db_with_schema() -> GraphDb {
        let db = GraphDb::open_memory(DbConfig::default()).unwrap();
        let mut tx = db.begin_write().unwrap();
        let u = tx.create_node("user", &[("uid", Value::Int(1))]).unwrap();
        let t = tx.create_node("tweet", &[("tid", Value::Int(9))]).unwrap();
        tx.create_rel(u, t, "posts", &[]).unwrap();
        tx.commit().unwrap();
        db.create_index("user", "uid").unwrap();
        db
    }

    #[test]
    fn pattern_predicates_have_the_anchor_in_the_lower_slot() {
        // `exec::pattern_exists` probes from the endpoint in the lower
        // slot. Slots go out in binding order and are never reused, so on
        // the served Q4.1/Q4.2/Q5.1/Q5.2 texts (and across a WITH) that is
        // the `{uid: $uid}` anchor, whichever side of the pattern it is on.
        let db = db_with_schema();
        let texts = [
            "MATCH (a:user {uid: $uid})-[:follows]->(f)-[:follows]->(r) \
             WHERE NOT (a)-[:follows]->(r) AND r.uid <> $uid \
             RETURN r.uid, count(*) AS c ORDER BY c DESC, r.uid ASC LIMIT $n",
            "MATCH (a:user {uid: $uid})-[:follows]->(f)<-[:follows]-(r) \
             WHERE NOT (a)-[:follows]->(r) AND r.uid <> $uid \
             RETURN r.uid, count(*) AS c ORDER BY c DESC, r.uid ASC LIMIT $n",
            "MATCH (p:user)-[:posts]->(t:tweet)-[:mentions]->(a:user {uid: $uid}) \
             WHERE (p)-[:follows]->(a) AND p.uid <> $uid \
             RETURN p.uid, count(*) AS c ORDER BY c DESC, p.uid ASC LIMIT $n",
            "MATCH (p:user)-[:posts]->(t:tweet)-[:mentions]->(a:user {uid: $uid}) \
             WHERE NOT (p)-[:follows]->(a) AND p.uid <> $uid \
             RETURN p.uid, count(*) AS c ORDER BY c DESC, p.uid ASC LIMIT $n",
            "MATCH (a:user {uid: $uid})-[:follows]->(f) WITH a, f \
             MATCH (f)-[:follows]->(r) WHERE NOT (r)-[:follows]->(a) RETURN r.uid",
        ];
        // The number after `needle` in a plan's debug text.
        let slot_after = |text: &str, needle: &str| -> usize {
            let at = text
                .find(needle)
                .unwrap_or_else(|| panic!("no {needle} in {text}"));
            let digits = text[at + needle.len()..].split(|c: char| !c.is_ascii_digit());
            digits.into_iter().next().unwrap().parse().unwrap()
        };
        for text in texts {
            let p = plan(&db, &parse(text).unwrap(), &PlannerOptions::default()).unwrap();
            let dbg = format!("{:?}", p.root);
            let anchor = slot_after(&dbg, "key: \"uid\", value: Param(\"uid\"), slot: ");
            let pattern = &dbg[dbg.find("PatternExists").expect("a pattern predicate")..];
            let (from, to) = (slot_after(pattern, "from: "), slot_after(pattern, "to: "));
            assert_eq!((anchor, from.min(to)), (0, 0), "{text}\n{}", p.explain());
        }
    }

    #[test]
    fn anchor_prefers_index_seek() {
        let db = db_with_schema();
        let q = parse("MATCH (a:user {uid: $uid})-[:posts]->(t:tweet) RETURN t.tid").unwrap();
        let p = plan(&db, &q, &PlannerOptions::default()).unwrap();
        let text = p.explain();
        assert!(text.contains("NodeIndexSeek(:user {uid})"), "{text}");
        assert!(text.contains("Expand(out:posts"), "{text}");
    }

    #[test]
    fn where_range_becomes_index_range_seek() {
        let db = db_with_schema();
        db.create_index("user", "followers").unwrap();
        let q =
            parse("MATCH (u:user) WHERE u.followers > $th RETURN u.uid ORDER BY u.uid").unwrap();
        let p = plan(&db, &q, &PlannerOptions::default()).unwrap();
        let text = p.explain();
        assert!(
            text.contains("NodeIndexRangeSeek(:user {followers > …})"),
            "{text}"
        );
        assert!(!text.contains("NodeByLabelScan"), "{text}");
        assert!(
            !text.contains("Filter"),
            "consumed conjunct must not refilter: {text}"
        );

        // Flipped orientation reverses the comparison.
        let q = parse("MATCH (u:user) WHERE $th >= u.followers RETURN u.uid").unwrap();
        let p = plan(&db, &q, &PlannerOptions::default()).unwrap();
        assert!(
            p.explain()
                .contains("NodeIndexRangeSeek(:user {followers <= …})"),
            "{}",
            p.explain()
        );
    }

    #[test]
    fn range_seek_needs_index_and_pushdown() {
        let db = db_with_schema();
        // No followers index → plain scan + filter.
        let q = parse("MATCH (u:user) WHERE u.followers > $th RETURN u.uid").unwrap();
        let p = plan(&db, &q, &PlannerOptions::default()).unwrap();
        assert!(
            p.explain().contains("NodeByLabelScan(:user)"),
            "{}",
            p.explain()
        );
        // Indexed but pushdown disabled → also a scan (the ablation keeps
        // the WHERE as one late filter).
        db.create_index("user", "followers").unwrap();
        let p = plan(
            &db,
            &q,
            &PlannerOptions {
                predicate_pushdown: false,
                ..PlannerOptions::default()
            },
        )
        .unwrap();
        assert!(
            p.explain().contains("NodeByLabelScan(:user)"),
            "{}",
            p.explain()
        );
    }

    #[test]
    fn anchor_falls_back_to_label_scan() {
        let db = db_with_schema();
        // tweet.tid is not indexed → the user side (indexed) is the anchor,
        // expanding left with a reversed arrow.
        let q = parse("MATCH (t:tweet {tid: $t})<-[:posts]-(a:user {uid: $uid}) RETURN a").unwrap();
        let p = plan(&db, &q, &PlannerOptions::default()).unwrap();
        let text = p.explain();
        assert!(text.contains("NodeIndexSeek(:user {uid})"), "{text}");
    }

    #[test]
    fn topn_pushdown_toggle() {
        let db = db_with_schema();
        let q = parse(
            "MATCH (a:user {uid: $uid})-[:follows]->(f) \
             RETURN f.uid, count(*) AS c ORDER BY c DESC LIMIT 5",
        )
        .unwrap();
        let with = plan(&db, &q, &PlannerOptions::default()).unwrap();
        assert!(with.explain().contains("TopN"), "{}", with.explain());
        let without = plan(
            &db,
            &q,
            &PlannerOptions {
                topn_pushdown: false,
                ..PlannerOptions::default()
            },
        )
        .unwrap();
        let text = without.explain();
        assert!(text.contains("Sort") && text.contains("Limit"), "{text}");
        assert!(!text.contains("TopN"), "{text}");
    }

    #[test]
    fn where_pushdown_places_filter_early() {
        let db = db_with_schema();
        let q = parse(
            "MATCH (a:user {uid: $uid})-[:follows]->(f)-[:follows]->(r) \
             WHERE f.uid <> 3 RETURN r",
        )
        .unwrap();
        let p = plan(&db, &q, &PlannerOptions::default()).unwrap();
        // The filter on f must appear before the second expand in the tree
        // (i.e. deeper than it).
        let text = p.explain();
        let first_expand = text.find("Expand").unwrap();
        let filter = text.rfind("Filter").unwrap();
        assert!(
            filter > first_expand,
            "filter should be below the last expand:\n{text}"
        );
    }

    #[test]
    fn unbound_variable_is_error() {
        let db = db_with_schema();
        let q = parse("MATCH (a:user) WHERE z.uid = 1 RETURN a").unwrap();
        assert!(plan(&db, &q, &PlannerOptions::default()).is_err());
    }

    #[test]
    fn order_by_must_reference_output() {
        let db = db_with_schema();
        let q = parse("MATCH (a:user) RETURN a.uid ORDER BY a.name").unwrap();
        assert!(plan(&db, &q, &PlannerOptions::default()).is_err());
        let q = parse("MATCH (a:user) RETURN a.uid AS x ORDER BY x").unwrap();
        assert!(plan(&db, &q, &PlannerOptions::default()).is_ok());
    }

    #[test]
    fn cost_model_picks_cheaper_expansion_direction() {
        // One hub following ten users: expanding follows *out* from a random
        // user averages 10 edges per participant, expanding *in* averages 1.
        // The cost-based anchor therefore starts at the right-hand node and
        // expands incoming; the rule-based fallback keeps the left anchor.
        let db = GraphDb::open_memory(DbConfig::default()).unwrap();
        let mut tx = db.begin_write().unwrap();
        let hub = tx.create_node("user", &[("uid", Value::Int(0))]).unwrap();
        for i in 1..=10i64 {
            let u = tx.create_node("user", &[("uid", Value::Int(i))]).unwrap();
            tx.create_rel(hub, u, "follows", &[]).unwrap();
        }
        tx.commit().unwrap();
        let q = parse("MATCH (a:user)-[:follows]->(b:user) RETURN id(a), id(b)").unwrap();
        let costed = plan(&db, &q, &PlannerOptions::default()).unwrap();
        assert!(
            costed.explain().contains("Expand(in:follows"),
            "{}",
            costed.explain()
        );
        let ruled = plan(
            &db,
            &q,
            &PlannerOptions {
                cost_based: false,
                ..PlannerOptions::default()
            },
        )
        .unwrap();
        assert!(
            ruled.explain().contains("Expand(out:follows"),
            "{}",
            ruled.explain()
        );
    }

    #[test]
    fn describe_annotates_estimated_rows() {
        let db = db_with_schema();
        let q = parse("MATCH (a:user)-[:posts]->(t:tweet) RETURN t.tid").unwrap();
        let p = plan(&db, &q, &PlannerOptions::default()).unwrap();
        let text = p.describe();
        assert!(text.contains("(est ~"), "{text}");
        assert!(
            text.contains("NodeByLabelScan(:user) (est ~1 rows)"),
            "{text}"
        );
        assert_eq!(
            p.est_rows.len(),
            p.explain().lines().count(),
            "one estimate per line"
        );
    }

    #[test]
    fn shortest_path_plan_shape() {
        let db = db_with_schema();
        let q = parse(
            "MATCH p = shortestPath((a:user {uid:$a})-[:follows*..4]-(b:user {uid:$b})) \
             RETURN length(p)",
        )
        .unwrap();
        let p = plan(&db, &q, &PlannerOptions::default()).unwrap();
        let text = p.explain();
        assert!(text.contains("ShortestPath(max 4)"), "{text}");
        // Two index seeks nested.
        assert_eq!(text.matches("NodeIndexSeek").count(), 2, "{text}");
    }
}
