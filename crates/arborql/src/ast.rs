//! Abstract syntax of ArborQL.

use micrograph_common::Value;

/// Edge direction in a pattern, read left-to-right.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatDir {
    /// `-[..]->`
    Right,
    /// `<-[..]-`
    Left,
    /// `-[..]-`
    Undirected,
}

/// A node pattern `(name:label {key: value, ...})`.
#[derive(Debug, Clone, PartialEq)]
pub struct NodePat {
    /// Variable name (auto-generated when anonymous).
    pub var: String,
    /// Optional label.
    pub label: Option<String>,
    /// Inline property constraints.
    pub props: Vec<(String, Expr)>,
}

/// A relationship pattern `-[r:type*min..max]->`.
#[derive(Debug, Clone, PartialEq)]
pub struct RelPat {
    /// Relationship variable (single-hop patterns only).
    pub var: Option<String>,
    /// Relationship type (None = any type).
    pub rel_type: Option<String>,
    /// Direction.
    pub dir: PatDir,
    /// Hop bounds: `(1, 1)` for a plain edge, `(m, n)` for `*m..n`.
    pub hops: (u32, u32),
}

/// A linear path pattern: nodes joined by relationships.
#[derive(Debug, Clone, PartialEq)]
pub struct PathPat {
    /// The nodes, length `rels.len() + 1`.
    pub nodes: Vec<NodePat>,
    /// The relationships between consecutive nodes.
    pub rels: Vec<RelPat>,
}

/// The MATCH part: either a plain path or a shortest-path assignment.
#[derive(Debug, Clone, PartialEq)]
pub enum MatchClause {
    /// `MATCH <path>`
    Path(PathPat),
    /// `MATCH p = shortestPath((a)-[:t*..k]-(b))`
    ShortestPath {
        /// The path variable (`p`).
        path_var: String,
        /// Endpoint and edge spec; `nodes` has exactly two entries.
        pattern: PathPat,
    },
}

/// Binary comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal value.
    Lit(Value),
    /// Parameter `$name`.
    Param(String),
    /// Variable reference (a bound node or projected value).
    Var(String),
    /// Property access `var.key`.
    Prop(String, String),
    /// `count(*)` — only valid in RETURN items.
    CountStar,
    /// `length(p)` — length (in hops) of a bound path.
    Length(String),
    /// `type(r)` — the type name of a bound relationship.
    TypeFn(String),
    /// `id(x)` — internal id of a bound node.
    Id(String),
    /// Comparison.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// List membership `lhs IN rhs` (rhs evaluates to a list).
    In(Box<Expr>, Box<Expr>),
    /// Conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Negation.
    Not(Box<Expr>),
    /// Pattern predicate `(a)-[:t]->(b)`; both endpoints must be bound.
    PatternExists {
        /// Bound source variable.
        from: String,
        /// Bound target variable.
        to: String,
        /// Edge type (None = any).
        rel_type: Option<String>,
        /// Direction from `from`'s point of view.
        dir: PatDir,
    },
}

/// One RETURN item.
#[derive(Debug, Clone, PartialEq)]
pub struct ReturnItem {
    /// The expression.
    pub expr: Expr,
    /// Output column name (`AS alias`, or a derived name).
    pub alias: String,
}

/// One ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    /// Expression or alias reference.
    pub expr: Expr,
    /// True for descending.
    pub desc: bool,
}

/// One `MATCH … [WHERE …] WITH … [WHERE …] [ORDER BY …] [LIMIT …]` stage of
/// a multi-part query. Variables named in the WITH items are the only ones
/// visible to the following stage.
#[derive(Debug, Clone, PartialEq)]
pub struct WithStage {
    /// The stage's MATCH clause.
    pub match_clause: MatchClause,
    /// WHERE between MATCH and WITH.
    pub where_clause: Option<Expr>,
    /// True when `WITH DISTINCT`.
    pub distinct: bool,
    /// The WITH items (aliases become the next stage's variables).
    pub items: Vec<ReturnItem>,
    /// WHERE after the WITH items (filters on the projected values).
    pub where_after: Option<Expr>,
    /// ORDER BY over the items.
    pub order_by: Vec<OrderKey>,
    /// LIMIT over the stage's rows.
    pub limit: Option<Expr>,
}

/// A full query: zero or more WITH stages, then the final
/// `MATCH … RETURN …` part.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Leading `… WITH …` stages, in order.
    pub stages: Vec<WithStage>,
    /// The final MATCH clause.
    pub match_clause: MatchClause,
    /// Optional WHERE predicate.
    pub where_clause: Option<Expr>,
    /// True when `RETURN DISTINCT`.
    pub distinct: bool,
    /// Projection items.
    pub items: Vec<ReturnItem>,
    /// ORDER BY keys.
    pub order_by: Vec<OrderKey>,
    /// LIMIT (literal or parameter).
    pub limit: Option<Expr>,
}

impl Expr {
    /// Variables referenced by this expression.
    pub fn vars(&self, out: &mut Vec<String>) {
        match self {
            Expr::Lit(_) | Expr::Param(_) | Expr::CountStar => {}
            Expr::Var(v) | Expr::Prop(v, _) | Expr::Length(v) | Expr::Id(v) | Expr::TypeFn(v) => {
                out.push(v.clone())
            }
            Expr::Cmp(_, a, b) | Expr::In(a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                a.vars(out);
                b.vars(out);
            }
            Expr::Not(a) => a.vars(out),
            Expr::PatternExists { from, to, .. } => {
                out.push(from.clone());
                out.push(to.clone());
            }
        }
    }

    /// Splits a conjunction into its conjuncts (for pushdown).
    pub fn conjuncts(self) -> Vec<Expr> {
        match self {
            Expr::And(a, b) => {
                let mut out = a.conjuncts();
                out.extend(b.conjuncts());
                out
            }
            other => vec![other],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjunct_splitting() {
        let e = Expr::And(
            Box::new(Expr::And(
                Box::new(Expr::Var("a".into())),
                Box::new(Expr::Var("b".into())),
            )),
            Box::new(Expr::Var("c".into())),
        );
        let cs = e.conjuncts();
        assert_eq!(cs.len(), 3);
    }

    #[test]
    fn vars_collection() {
        let e = Expr::Cmp(
            CmpOp::Lt,
            Box::new(Expr::Prop("u".into(), "followers".into())),
            Box::new(Expr::Param("th".into())),
        );
        let mut vs = Vec::new();
        e.vars(&mut vs);
        assert_eq!(vs, vec!["u"]);
    }

    #[test]
    fn or_does_not_split() {
        let e = Expr::Or(
            Box::new(Expr::Var("a".into())),
            Box::new(Expr::Var("b".into())),
        );
        assert_eq!(e.clone().conjuncts(), vec![e]);
    }
}
