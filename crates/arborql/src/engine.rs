//! The query-session facade: parse → (cached) plan → execute, with stats.
//!
//! The plan cache is keyed by the *query text*, so `uid: $uid` with varying
//! parameters reuses one plan while `uid: 531` literals each get their own
//! entry — exactly the behaviour behind the paper's advice that "a good
//! speedup can be achieved by specifying parameters, because it allows
//! Cypher to cache the execution plans".

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use arbordb::db::GraphDb;
use micrograph_common::stats::Timer;
use micrograph_common::Value;
use parking_lot::Mutex;

use crate::exec::ExecContext;
use crate::parser::parse;
use crate::plan::{plan, Plan, PlannerOptions};
use crate::vexec::execute_vec;
use crate::Result;

/// Engine configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineOptions {
    /// Planner switches.
    pub planner: PlannerOptions,
    /// Enable the plan cache.
    pub plan_cache: bool,
}

impl EngineOptions {
    /// The default production configuration: cache on, pushdowns on.
    pub fn standard() -> Self {
        EngineOptions {
            planner: PlannerOptions::default(),
            plan_cache: true,
        }
    }
}

/// A parsed-and-planned query, reusable across executions without taking
/// the plan-cache lock or re-hashing the query text — shard fan-outs run
/// the same kernel text against many engines, so the adapter prepares once.
#[derive(Debug, Clone)]
pub struct Prepared {
    plan: Arc<Plan>,
}

impl Prepared {
    /// The underlying plan (EXPLAIN/describe surfaces).
    pub fn plan(&self) -> &Plan {
        &self.plan
    }
}

/// Per-query statistics (the `PROFILE` surface).
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryStats {
    /// Buffer-pool page accesses during execution (the "db hits").
    pub db_hits: u64,
    /// Result rows produced.
    pub rows: u64,
    /// Whether the plan came from the cache.
    pub plan_cached: bool,
    /// Milliseconds spent parsing + planning (0 on a cache hit).
    pub plan_ms: f64,
    /// Milliseconds spent executing.
    pub exec_ms: f64,
}

/// A query result: named columns and value rows.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<Value>>,
    /// Execution statistics.
    pub stats: QueryStats,
}

/// A profiled execution: the result plus per-operator row counts.
#[derive(Debug, Clone)]
pub struct ProfiledResult {
    /// The ordinary query result (with total db hits in `stats`).
    pub result: QueryResult,
    /// `(operator description, rows emitted)` in plan pre-order.
    pub operators: Vec<(String, u64)>,
}

impl ProfiledResult {
    /// Renders the annotated plan (the `PROFILE` output).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (desc, rows) in &self.operators {
            out.push_str(&format!("{desc:<46} rows={rows}\n"));
        }
        out.push_str(&format!(
            "total db hits: {}  result rows: {}\n",
            self.result.stats.db_hits, self.result.stats.rows
        ));
        out
    }
}

/// A query session over an [`arbordb::db::GraphDb`].
pub struct QueryEngine {
    db: Arc<GraphDb>,
    options: EngineOptions,
    cache: Mutex<HashMap<String, Arc<Plan>>>,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
}

impl QueryEngine {
    /// Creates an engine with the standard configuration.
    pub fn new(db: Arc<GraphDb>) -> Self {
        Self::with_options(db, EngineOptions::standard())
    }

    /// Creates an engine with explicit options (ablation switches).
    pub fn with_options(db: Arc<GraphDb>, options: EngineOptions) -> Self {
        QueryEngine {
            db,
            options,
            cache: Mutex::new(HashMap::new()),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
        }
    }

    /// The underlying database.
    pub fn db(&self) -> &GraphDb {
        &self.db
    }

    fn plan_for(&self, text: &str) -> Result<(Arc<Plan>, bool, f64)> {
        if self.options.plan_cache {
            if let Some(p) = self.cache.lock().get(text) {
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
                return Ok((p.clone(), true, 0.0));
            }
        }
        let timer = Timer::start();
        let ast = parse(text)?;
        let planned = Arc::new(plan(&self.db, &ast, &self.options.planner)?);
        let plan_ms = timer.elapsed_ms();
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
        if self.options.plan_cache {
            self.cache.lock().insert(text.to_owned(), planned.clone());
        }
        Ok((planned, false, plan_ms))
    }

    /// Runs `text` with `params`, returning rows and statistics.
    pub fn query(&self, text: &str, params: &[(&str, Value)]) -> Result<QueryResult> {
        let (plan, plan_cached, plan_ms) = self.plan_for(text)?;
        Ok(self.run_plan(&plan, plan_cached, plan_ms, params, 0)?.0)
    }

    /// Parses and plans `text` once for repeated execution via
    /// [`QueryEngine::query_prepared`] (no cache lock or text hash per run).
    pub fn prepare(&self, text: &str) -> Result<Prepared> {
        let (plan, _, _) = self.plan_for(text)?;
        Ok(Prepared { plan })
    }

    /// Runs a prepared query; identical results to [`QueryEngine::query`]
    /// on the same text.
    pub fn query_prepared(
        &self,
        prepared: &Prepared,
        params: &[(&str, Value)],
    ) -> Result<QueryResult> {
        Ok(self.run_plan(&prepared.plan, true, 0.0, params, 0)?.0)
    }

    /// Executes `plan` with `counters` `PROFILE` counter slots, returning
    /// the result and the counter values.
    fn run_plan(
        &self,
        plan: &Plan,
        plan_cached: bool,
        plan_ms: f64,
        params: &[(&str, Value)],
        counters: usize,
    ) -> Result<(QueryResult, Vec<u64>)> {
        let params: HashMap<String, Value> = params
            .iter()
            .map(|(k, v)| ((*k).to_owned(), v.clone()))
            .collect();
        // Hold the serving read latch for the whole execution (DESIGN.md
        // §4j): a live write transaction holds the exclusive side, so a
        // query never observes a half-applied multi-page mutation. Query
        // execution is strictly read-only — the latch cannot self-deadlock.
        let _latch = self.db.read_latch();
        let ctx = ExecContext::new(&self.db, &params, counters);
        let hits_before = self.db.stats().db_hits();
        let timer = Timer::start();
        let rows = execute_vec(plan, &ctx)?;
        let exec_ms = timer.elapsed_ms();
        let db_hits = self.db.stats().db_hits().saturating_sub(hits_before);
        let result = QueryResult {
            columns: plan.columns.clone(),
            stats: QueryStats {
                db_hits,
                rows: rows.len() as u64,
                plan_cached,
                plan_ms,
                exec_ms,
            },
            rows,
        };
        Ok((result, ctx.take_counters()))
    }

    /// Runs `text` under the profiler: per-operator row counts plus the
    /// usual result — the facility the paper used "to observe the execution
    /// plan and determine which query plan results in the least number of
    /// database hits (db hits)".
    ///
    /// The vectorized executor stops only after the batch that holds the
    /// limit-th row, so operator counts below a `Limit` (or a `LIMIT 0`
    /// `TopN`) count whole produced batches: up to
    /// [`crate::vexec::BATCH_SIZE`] − 1 rows per operator more than the
    /// tuple interpreter's counts.
    pub fn profile(&self, text: &str, params: &[(&str, Value)]) -> Result<ProfiledResult> {
        let (plan, plan_cached, plan_ms) = self.plan_for(text)?;
        let (instrumented, descs) = crate::plan::instrument(&plan);
        let (result, counts) =
            self.run_plan(&instrumented, plan_cached, plan_ms, params, descs.len())?;
        Ok(ProfiledResult {
            result,
            operators: descs.into_iter().zip(counts).collect(),
        })
    }

    /// Returns the plan tree for `text` without executing (EXPLAIN).
    pub fn explain(&self, text: &str) -> Result<String> {
        let (plan, _, _) = self.plan_for(text)?;
        Ok(plan.explain())
    }

    /// Returns the plan tree annotated with estimated cardinalities from
    /// the planner's statistics snapshot (EXPLAIN with estimates).
    pub fn describe(&self, text: &str) -> Result<String> {
        let (plan, _, _) = self.plan_for(text)?;
        Ok(plan.describe())
    }

    /// `(hits, misses)` of the plan cache.
    pub fn cache_stats(&self) -> (u64, u64) {
        (
            self.cache_hits.load(Ordering::Relaxed),
            self.cache_misses.load(Ordering::Relaxed),
        )
    }

    /// Clears the plan cache (cold-plan experiments).
    pub fn clear_cache(&self) {
        self.cache.lock().clear();
        self.cache_hits.store(0, Ordering::Relaxed);
        self.cache_misses.store(0, Ordering::Relaxed);
    }
}
