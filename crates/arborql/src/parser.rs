//! Recursive-descent parser for ArborQL.

use micrograph_common::Value;

use crate::ast::*;
use crate::token::{lex, Token};
use crate::{QlError, Result};

/// Parses a full query.
pub fn parse(input: &str) -> Result<Query> {
    let tokens = lex(input)?;
    let mut p = Parser {
        tokens,
        at: 0,
        anon_counter: 0,
    };
    let q = p.query()?;
    p.expect_eof()?;
    Ok(q)
}

struct Parser {
    tokens: Vec<Token>,
    at: usize,
    anon_counter: u32,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.at]
    }

    fn peek_n(&self, n: usize) -> &Token {
        self.tokens.get(self.at + n).unwrap_or(&Token::Eof)
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.at].clone();
        if self.at + 1 < self.tokens.len() {
            self.at += 1;
        }
        t
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(QlError::Syntax(format!(
                "expected {kw}, found {:?}",
                self.peek()
            )))
        }
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Token) -> Result<()> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(QlError::Syntax(format!(
                "expected {t:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        if matches!(self.peek(), Token::Eof) {
            Ok(())
        } else {
            Err(QlError::Syntax(format!(
                "trailing input: {:?}",
                self.peek()
            )))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.bump() {
            Token::Ident(s) => Ok(s),
            other => Err(QlError::Syntax(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    fn fresh_var(&mut self) -> String {
        self.anon_counter += 1;
        format!("  anon{}", self.anon_counter)
    }

    // -- clauses -------------------------------------------------------------

    fn query(&mut self) -> Result<Query> {
        let mut stages = Vec::new();
        loop {
            self.expect_kw("MATCH")?;
            let match_clause = self.match_clause()?;
            let where_clause = if self.eat_kw("WHERE") {
                Some(self.expr()?)
            } else {
                None
            };
            if self.eat_kw("WITH") {
                let distinct = self.eat_kw("DISTINCT");
                let mut items = vec![self.return_item()?];
                while self.eat(&Token::Comma) {
                    items.push(self.return_item()?);
                }
                let where_after = if self.eat_kw("WHERE") {
                    Some(self.expr()?)
                } else {
                    None
                };
                let order_by = self.order_by_keys()?;
                let limit = if self.eat_kw("LIMIT") {
                    Some(self.primary()?)
                } else {
                    None
                };
                stages.push(WithStage {
                    match_clause,
                    where_clause,
                    distinct,
                    items,
                    where_after,
                    order_by,
                    limit,
                });
                continue;
            }
            self.expect_kw("RETURN")?;
            let distinct = self.eat_kw("DISTINCT");
            let mut items = vec![self.return_item()?];
            while self.eat(&Token::Comma) {
                items.push(self.return_item()?);
            }
            let order_by = self.order_by_keys()?;
            let limit = if self.eat_kw("LIMIT") {
                Some(self.primary()?)
            } else {
                None
            };
            return Ok(Query {
                stages,
                match_clause,
                where_clause,
                distinct,
                items,
                order_by,
                limit,
            });
        }
    }

    fn order_by_keys(&mut self) -> Result<Vec<OrderKey>> {
        let mut order_by = Vec::new();
        if self.peek().is_kw("ORDER") {
            self.bump();
            self.expect_kw("BY")?;
            loop {
                let expr = self.expr()?;
                let desc = if self.eat_kw("DESC") {
                    true
                } else {
                    self.eat_kw("ASC");
                    false
                };
                order_by.push(OrderKey { expr, desc });
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        Ok(order_by)
    }

    fn match_clause(&mut self) -> Result<MatchClause> {
        // `p = shortestPath( ... )` ?
        if matches!(self.peek(), Token::Ident(_)) && *self.peek_n(1) == Token::Eq {
            let path_var = self.ident()?;
            self.expect(&Token::Eq)?;
            self.expect_kw("shortestPath")?;
            self.expect(&Token::LParen)?;
            let pattern = self.path_pattern()?;
            self.expect(&Token::RParen)?;
            if pattern.nodes.len() != 2 {
                return Err(QlError::Syntax(
                    "shortestPath takes a single-relationship pattern".into(),
                ));
            }
            return Ok(MatchClause::ShortestPath { path_var, pattern });
        }
        Ok(MatchClause::Path(self.path_pattern()?))
    }

    fn path_pattern(&mut self) -> Result<PathPat> {
        let mut nodes = vec![self.node_pattern()?];
        let mut rels = Vec::new();
        while matches!(self.peek(), Token::Dash | Token::ArrowLeft) {
            rels.push(self.rel_pattern()?);
            nodes.push(self.node_pattern()?);
        }
        Ok(PathPat { nodes, rels })
    }

    fn node_pattern(&mut self) -> Result<NodePat> {
        self.expect(&Token::LParen)?;
        let var = if matches!(self.peek(), Token::Ident(_)) {
            self.ident()?
        } else {
            self.fresh_var()
        };
        let label = if self.eat(&Token::Colon) {
            Some(self.ident()?)
        } else {
            None
        };
        let mut props = Vec::new();
        if self.eat(&Token::LBrace) {
            loop {
                let key = self.ident()?;
                self.expect(&Token::Colon)?;
                let value = self.primary()?;
                props.push((key, value));
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RBrace)?;
        }
        self.expect(&Token::RParen)?;
        Ok(NodePat { var, label, props })
    }

    fn rel_pattern(&mut self) -> Result<RelPat> {
        // `<-[..]-` or `-[..]->` or `-[..]-`
        let leading_left = self.eat(&Token::ArrowLeft);
        if !leading_left {
            self.expect(&Token::Dash)?;
        }
        let mut rel_type = None;
        let mut var = None;
        let mut hops = (1u32, 1u32);
        if self.eat(&Token::LBracket) {
            // Optional variable name, optional :type, optional *m..n
            if matches!(self.peek(), Token::Ident(_)) {
                var = Some(self.ident()?);
            }
            if self.eat(&Token::Colon) {
                rel_type = Some(self.ident()?);
            }
            if self.eat(&Token::Star) {
                let min = if let Token::Int(n) = self.peek() {
                    let n = *n;
                    self.bump();
                    Some(n as u32)
                } else {
                    None
                };
                if self.eat(&Token::DotDot) {
                    let max = if let Token::Int(n) = self.peek() {
                        let n = *n;
                        self.bump();
                        n as u32
                    } else {
                        // `*..` with no upper bound: cap generously.
                        crate::plan::MAX_VAR_HOPS
                    };
                    hops = (min.unwrap_or(1), max);
                } else {
                    match min {
                        Some(n) => hops = (n, n),                      // `*k` = exactly k
                        None => hops = (1, crate::plan::MAX_VAR_HOPS), // bare `*`
                    }
                }
            }
            self.expect(&Token::RBracket)?;
        }
        let dir = if leading_left {
            self.expect(&Token::Dash)?;
            PatDir::Left
        } else if self.eat(&Token::ArrowRight) {
            PatDir::Right
        } else {
            self.expect(&Token::Dash)?;
            PatDir::Undirected
        };
        if hops.0 > hops.1 {
            return Err(QlError::Syntax(format!(
                "variable-length bounds inverted: *{}..{}",
                hops.0, hops.1
            )));
        }
        if var.is_some() && hops != (1, 1) {
            return Err(QlError::Syntax(
                "relationship variables on variable-length patterns are not supported".into(),
            ));
        }
        Ok(RelPat {
            var,
            rel_type,
            dir,
            hops,
        })
    }

    fn return_item(&mut self) -> Result<ReturnItem> {
        let expr = self.expr()?;
        let alias = if self.eat_kw("AS") {
            self.ident()?
        } else {
            derived_name(&expr)
        };
        Ok(ReturnItem { expr, alias })
    }

    // -- expressions (precedence: OR < AND < NOT < cmp < primary) ------------

    fn expr(&mut self) -> Result<Expr> {
        let mut lhs = self.and_expr()?;
        while self.eat_kw("OR") {
            let rhs = self.and_expr()?;
            lhs = Expr::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.not_expr()?;
        while self.eat_kw("AND") {
            let rhs = self.not_expr()?;
            lhs = Expr::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_kw("NOT") {
            Ok(Expr::Not(Box::new(self.not_expr()?)))
        } else {
            self.cmp_expr()
        }
    }

    fn cmp_expr(&mut self) -> Result<Expr> {
        // Pattern predicate: `(ident)` followed by a dash/arrow.
        if *self.peek() == Token::LParen
            && matches!(self.peek_n(1), Token::Ident(_))
            && *self.peek_n(2) == Token::RParen
            && matches!(self.peek_n(3), Token::Dash | Token::ArrowLeft)
        {
            return self.pattern_predicate();
        }
        let lhs = self.primary()?;
        if self.peek().is_kw("IN") {
            self.bump();
            let rhs = self.primary()?;
            return Ok(Expr::In(Box::new(lhs), Box::new(rhs)));
        }
        let op = match self.peek() {
            Token::Eq => Some(CmpOp::Eq),
            Token::Neq => Some(CmpOp::Neq),
            Token::Lt => Some(CmpOp::Lt),
            Token::Le => Some(CmpOp::Le),
            Token::Gt => Some(CmpOp::Gt),
            Token::Ge => Some(CmpOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.primary()?;
            Ok(Expr::Cmp(op, Box::new(lhs), Box::new(rhs)))
        } else {
            Ok(lhs)
        }
    }

    fn pattern_predicate(&mut self) -> Result<Expr> {
        self.expect(&Token::LParen)?;
        let from = self.ident()?;
        self.expect(&Token::RParen)?;
        let rel = self.rel_pattern()?;
        if rel.hops != (1, 1) {
            return Err(QlError::Syntax(
                "variable-length pattern predicates are not supported".into(),
            ));
        }
        self.expect(&Token::LParen)?;
        let to = self.ident()?;
        self.expect(&Token::RParen)?;
        Ok(Expr::PatternExists {
            from,
            to,
            rel_type: rel.rel_type,
            dir: rel.dir,
        })
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.bump() {
            Token::Int(i) => Ok(Expr::Lit(Value::Int(i))),
            Token::Float(f) => Ok(Expr::Lit(Value::Double(f))),
            Token::Str(s) => Ok(Expr::Lit(Value::Str(s))),
            Token::Param(p) => Ok(Expr::Param(p)),
            Token::LBracket => {
                // List literal `[v, ...]` — elements must themselves be
                // literals (parameters supply dynamic lists).
                let mut items = Vec::new();
                if !self.eat(&Token::RBracket) {
                    loop {
                        match self.primary()? {
                            Expr::Lit(v) => items.push(v),
                            other => {
                                return Err(QlError::Syntax(format!(
                                    "list literals may only contain literals, found {other:?}"
                                )))
                            }
                        }
                        if !self.eat(&Token::Comma) {
                            break;
                        }
                    }
                    self.expect(&Token::RBracket)?;
                }
                Ok(Expr::Lit(Value::List(items)))
            }
            Token::LParen => {
                let inner = self.expr()?;
                self.expect(&Token::RParen)?;
                Ok(inner)
            }
            Token::Ident(name) => {
                if name.eq_ignore_ascii_case("true") {
                    return Ok(Expr::Lit(Value::Bool(true)));
                }
                if name.eq_ignore_ascii_case("false") {
                    return Ok(Expr::Lit(Value::Bool(false)));
                }
                if name.eq_ignore_ascii_case("null") {
                    return Ok(Expr::Lit(Value::Null));
                }
                let is_call = *self.peek() == Token::LParen;
                if is_call && name.eq_ignore_ascii_case("count") {
                    self.expect(&Token::LParen)?;
                    self.expect(&Token::Star)?;
                    self.expect(&Token::RParen)?;
                    return Ok(Expr::CountStar);
                }
                if is_call && name.eq_ignore_ascii_case("length") {
                    self.expect(&Token::LParen)?;
                    let v = self.ident()?;
                    self.expect(&Token::RParen)?;
                    return Ok(Expr::Length(v));
                }
                if is_call && name.eq_ignore_ascii_case("id") {
                    self.expect(&Token::LParen)?;
                    let v = self.ident()?;
                    self.expect(&Token::RParen)?;
                    return Ok(Expr::Id(v));
                }
                if is_call && name.eq_ignore_ascii_case("type") {
                    self.expect(&Token::LParen)?;
                    let v = self.ident()?;
                    self.expect(&Token::RParen)?;
                    return Ok(Expr::TypeFn(v));
                }
                if self.eat(&Token::Dot) {
                    let key = self.ident()?;
                    Ok(Expr::Prop(name, key))
                } else {
                    Ok(Expr::Var(name))
                }
            }
            other => Err(QlError::Syntax(format!(
                "expected expression, found {other:?}"
            ))),
        }
    }
}

/// Output column name for an un-aliased item.
fn derived_name(e: &Expr) -> String {
    match e {
        Expr::Prop(v, k) => format!("{v}.{k}"),
        Expr::Var(v) => v.clone(),
        Expr::CountStar => "count(*)".into(),
        Expr::Length(v) => format!("length({v})"),
        Expr::TypeFn(v) => format!("type({v})"),
        Expr::Id(v) => format!("id({v})"),
        _ => "expr".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_adjacency_query() {
        let q = parse("MATCH (a:user {uid: $uid})-[:follows]->(f:user) RETURN f.uid").unwrap();
        let MatchClause::Path(p) = &q.match_clause else {
            panic!("expected path")
        };
        assert_eq!(p.nodes.len(), 2);
        assert_eq!(p.nodes[0].label.as_deref(), Some("user"));
        assert_eq!(p.nodes[0].props.len(), 1);
        assert_eq!(p.rels[0].rel_type.as_deref(), Some("follows"));
        assert_eq!(p.rels[0].dir, PatDir::Right);
        assert_eq!(q.items[0].alias, "f.uid");
    }

    #[test]
    fn parse_mixed_directions() {
        let q = parse(
            "MATCH (a:user {uid: $uid})<-[:mentions]-(t:tweet)-[:mentions]->(b:user) \
             WHERE b.uid <> $uid \
             RETURN b.uid, count(*) AS c ORDER BY c DESC LIMIT $n",
        )
        .unwrap();
        let MatchClause::Path(p) = &q.match_clause else {
            panic!()
        };
        assert_eq!(p.rels[0].dir, PatDir::Left);
        assert_eq!(p.rels[1].dir, PatDir::Right);
        assert!(q.where_clause.is_some());
        assert_eq!(q.items.len(), 2);
        assert_eq!(q.items[1].expr, Expr::CountStar);
        assert_eq!(q.order_by.len(), 1);
        assert!(q.order_by[0].desc);
        assert_eq!(q.limit, Some(Expr::Param("n".into())));
    }

    #[test]
    fn parse_varlength() {
        let q = parse("MATCH (a {uid: 1})-[:follows*2..2]->(r) RETURN r.uid").unwrap();
        let MatchClause::Path(p) = &q.match_clause else {
            panic!()
        };
        assert_eq!(p.rels[0].hops, (2, 2));
        let q = parse("MATCH (a)-[:follows*..3]-(b) RETURN b").unwrap();
        let MatchClause::Path(p) = &q.match_clause else {
            panic!()
        };
        assert_eq!(p.rels[0].hops, (1, 3));
        assert_eq!(p.rels[0].dir, PatDir::Undirected);
    }

    #[test]
    fn parse_pattern_predicate() {
        let q = parse(
            "MATCH (a:user {uid: $uid})-[:follows]->(f)-[:follows]->(r) \
             WHERE NOT (a)-[:follows]->(r) AND r.uid <> $uid \
             RETURN r.uid, count(*) AS c ORDER BY c DESC LIMIT 10",
        )
        .unwrap();
        let w = q.where_clause.unwrap();
        let cs = w.conjuncts();
        assert_eq!(cs.len(), 2);
        assert!(
            matches!(&cs[0], Expr::Not(inner) if matches!(**inner, Expr::PatternExists { .. }))
        );
    }

    #[test]
    fn parse_shortest_path() {
        let q = parse(
            "MATCH p = shortestPath((a:user {uid: $a})-[:follows*..4]-(b:user {uid: $b})) \
             RETURN length(p)",
        )
        .unwrap();
        let MatchClause::ShortestPath { path_var, pattern } = &q.match_clause else {
            panic!("expected shortestPath")
        };
        assert_eq!(path_var, "p");
        assert_eq!(pattern.rels[0].hops, (1, 4));
        assert_eq!(q.items[0].expr, Expr::Length("p".into()));
    }

    #[test]
    fn parse_distinct_and_select() {
        let q = parse(
            "MATCH (u:user) WHERE u.followers > 1000 AND u.verified = true \
             RETURN DISTINCT u.uid",
        )
        .unwrap();
        assert!(q.distinct);
        assert!(matches!(q.match_clause, MatchClause::Path(ref p) if p.nodes.len() == 1));
    }

    #[test]
    fn parse_errors() {
        assert!(parse("MATCH (a RETURN a").is_err());
        assert!(parse("MATCH (a) RETURN").is_err());
        assert!(parse("RETURN 1").is_err());
        assert!(parse("MATCH (a)-[:f*3..2]->(b) RETURN a").is_err());
        assert!(parse("MATCH (a) RETURN a extra").is_err());
    }

    #[test]
    fn anonymous_nodes_get_fresh_vars() {
        let q = parse("MATCH (:user)-[:follows]->() RETURN count(*)").unwrap();
        let MatchClause::Path(p) = &q.match_clause else {
            panic!()
        };
        assert_ne!(p.nodes[0].var, p.nodes[1].var);
    }

    #[test]
    fn keywords_case_insensitive() {
        assert!(parse("match (a) return a").is_ok());
        assert!(parse("MATCH (a) WHERE a.x = 1 RETURN a order by a.x desc limit 5").is_ok());
    }
}
