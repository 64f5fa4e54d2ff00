//! Compiled expressions evaluated against rows.
//!
//! Expressions are produced by the planner with all names resolved:
//! columns are positional indexes into the operator's input row, and
//! function calls hold an `Arc` to their [`FunctionDef`].

use std::fmt;
use std::sync::Arc;

use crate::error::{DbError, Result};
use crate::functions::FunctionDef;
use crate::types::Value;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>` / `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Apply to an ordering.
    pub fn matches(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        matches!(
            (self, ord),
            (CmpOp::Eq, Equal)
                | (CmpOp::Ne, Less)
                | (CmpOp::Ne, Greater)
                | (CmpOp::Lt, Less)
                | (CmpOp::Le, Less)
                | (CmpOp::Le, Equal)
                | (CmpOp::Gt, Greater)
                | (CmpOp::Ge, Greater)
                | (CmpOp::Ge, Equal)
        )
    }

    /// Mirror the operator (for `lit op col` → `col op' lit`).
    pub fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// Arithmetic operators over integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (errors on division by zero)
    Div,
    /// `%` (errors on modulo by zero)
    Mod,
}

/// A compiled expression.
#[derive(Clone)]
pub enum Expr {
    /// Input column by position.
    Column(usize),
    /// A constant.
    Literal(Value),
    /// Binary comparison; SQL three-valued logic (NULL compares unknown).
    Cmp {
        /// The operator.
        op: CmpOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Logical AND (NULL-safe: false dominates).
    And(Box<Expr>, Box<Expr>),
    /// Logical OR (true dominates).
    Or(Box<Expr>, Box<Expr>),
    /// Logical NOT.
    Not(Box<Expr>),
    /// `expr LIKE 'pattern'` with `%` and `_` wildcards.
    Like {
        /// String operand.
        expr: Box<Expr>,
        /// The pattern.
        pattern: String,
        /// `NOT LIKE`.
        negated: bool,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Operand.
        expr: Box<Expr>,
        /// `IS NOT NULL`.
        negated: bool,
    },
    /// Scalar function call.
    Func {
        /// The resolved function.
        def: Arc<FunctionDef>,
        /// Argument expressions.
        args: Vec<Expr>,
    },
    /// Integer arithmetic (NULL-propagating).
    Arith {
        /// The operator.
        op: ArithOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
}

impl Expr {
    /// Convenience: column reference.
    pub fn col(i: usize) -> Expr {
        Expr::Column(i)
    }

    /// Convenience: literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// Convenience: comparison.
    pub fn cmp(op: CmpOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Cmp { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }
    }

    /// Evaluate against `row`.
    pub fn eval(&self, row: &[Value]) -> Result<Value> {
        match self {
            Expr::Column(i) => row
                .get(*i)
                .cloned()
                .ok_or_else(|| DbError::Exec(format!("column index {i} out of range"))),
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Cmp { op, lhs, rhs } => {
                let l = lhs.eval(row)?;
                let r = rhs.eval(row)?;
                Ok(match l.sql_cmp(&r) {
                    None => Value::Null,
                    Some(ord) => Value::Int(i64::from(op.matches(ord))),
                })
            }
            Expr::And(a, b) => {
                let va = a.eval(row)?;
                if !va.is_null() && !va.is_true() {
                    return Ok(Value::Int(0));
                }
                let vb = b.eval(row)?;
                if !vb.is_null() && !vb.is_true() {
                    return Ok(Value::Int(0));
                }
                if va.is_null() || vb.is_null() {
                    return Ok(Value::Null);
                }
                Ok(Value::Int(1))
            }
            Expr::Or(a, b) => {
                let va = a.eval(row)?;
                if va.is_true() {
                    return Ok(Value::Int(1));
                }
                let vb = b.eval(row)?;
                if vb.is_true() {
                    return Ok(Value::Int(1));
                }
                if va.is_null() || vb.is_null() {
                    return Ok(Value::Null);
                }
                Ok(Value::Int(0))
            }
            Expr::Not(e) => {
                let v = e.eval(row)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                Ok(Value::Int(i64::from(!v.is_true())))
            }
            Expr::Like { expr, pattern, negated } => {
                let v = expr.eval(row)?;
                match v {
                    Value::Null => Ok(Value::Null),
                    Value::Str(s) => {
                        let m = like_match(pattern.as_bytes(), s.as_bytes());
                        Ok(Value::Int(i64::from(m != *negated)))
                    }
                    other => Err(DbError::Exec(format!("LIKE on non-string {other:?}"))),
                }
            }
            Expr::IsNull { expr, negated } => {
                let v = expr.eval(row)?;
                Ok(Value::Int(i64::from(v.is_null() != *negated)))
            }
            Expr::Func { def, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(a.eval(row)?);
                }
                def.call(&vals)
            }
            Expr::Arith { op, lhs, rhs } => {
                let l = lhs.eval(row)?;
                let r = rhs.eval(row)?;
                match (l, r) {
                    (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                    (Value::Int(a), Value::Int(b)) => {
                        let v = match op {
                            ArithOp::Add => a.checked_add(b),
                            ArithOp::Sub => a.checked_sub(b),
                            ArithOp::Mul => a.checked_mul(b),
                            ArithOp::Div => {
                                if b == 0 {
                                    return Err(DbError::Exec("division by zero".into()));
                                }
                                a.checked_div(b)
                            }
                            ArithOp::Mod => {
                                if b == 0 {
                                    return Err(DbError::Exec("modulo by zero".into()));
                                }
                                a.checked_rem(b)
                            }
                        };
                        v.map(Value::Int)
                            .ok_or_else(|| DbError::Exec("integer arithmetic overflow".into()))
                    }
                    (a, b) => Err(DbError::Exec(format!(
                        "arithmetic on non-integers: {a:?} {op:?} {b:?}"
                    ))),
                }
            }
        }
    }

    /// Collect all column indexes referenced by this expression.
    pub fn columns(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Column(i) => out.push(*i),
            Expr::Literal(_) => {}
            Expr::Cmp { lhs, rhs, .. } => {
                lhs.columns(out);
                rhs.columns(out);
            }
            Expr::And(a, b) | Expr::Or(a, b) => {
                a.columns(out);
                b.columns(out);
            }
            Expr::Not(e) => e.columns(out),
            Expr::Like { expr, .. } | Expr::IsNull { expr, .. } => expr.columns(out),
            Expr::Func { args, .. } => {
                for a in args {
                    a.columns(out);
                }
            }
            Expr::Arith { lhs, rhs, .. } => {
                lhs.columns(out);
                rhs.columns(out);
            }
        }
    }

    /// Rewrite column indexes through `map` (old index → new index).
    /// Used when pushing predicates below projections/joins.
    pub fn remap_columns(&mut self, map: &dyn Fn(usize) -> usize) {
        match self {
            Expr::Column(i) => *i = map(*i),
            Expr::Literal(_) => {}
            Expr::Cmp { lhs, rhs, .. } => {
                lhs.remap_columns(map);
                rhs.remap_columns(map);
            }
            Expr::And(a, b) | Expr::Or(a, b) => {
                a.remap_columns(map);
                b.remap_columns(map);
            }
            Expr::Not(e) => e.remap_columns(map),
            Expr::Like { expr, .. } | Expr::IsNull { expr, .. } => expr.remap_columns(map),
            Expr::Func { args, .. } => {
                for a in args {
                    a.remap_columns(map);
                }
            }
            Expr::Arith { lhs, rhs, .. } => {
                lhs.remap_columns(map);
                rhs.remap_columns(map);
            }
        }
    }
}

impl fmt::Debug for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(i) => write!(f, "#{i}"),
            Expr::Literal(v) => write!(f, "{v:?}"),
            Expr::Cmp { op, lhs, rhs } => write!(f, "({lhs:?} {op} {rhs:?})"),
            Expr::And(a, b) => write!(f, "({a:?} AND {b:?})"),
            Expr::Or(a, b) => write!(f, "({a:?} OR {b:?})"),
            Expr::Not(e) => write!(f, "(NOT {e:?})"),
            Expr::Like { expr, pattern, negated } => {
                write!(f, "({expr:?} {}LIKE {pattern:?})", if *negated { "NOT " } else { "" })
            }
            Expr::IsNull { expr, negated } => {
                write!(f, "({expr:?} IS {}NULL)", if *negated { "NOT " } else { "" })
            }
            Expr::Arith { op, lhs, rhs } => write!(f, "({lhs:?} {op:?} {rhs:?})"),
            Expr::Func { def, args } => {
                write!(f, "{}(", def.name)?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a:?}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// SQL LIKE matching over bytes: `%` matches any run, `_` one byte.
/// Iterative two-pointer algorithm with backtracking to the last `%`.
pub fn like_match(pattern: &[u8], text: &[u8]) -> bool {
    let (mut p, mut t) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None;
    while t < text.len() {
        if p < pattern.len() && (pattern[p] == b'_' || pattern[p] == text[t]) && pattern[p] != b'%'
        {
            p += 1;
            t += 1;
        } else if p < pattern.len() && pattern[p] == b'%' {
            star = Some((p, t));
            p += 1;
        } else if let Some((sp, st)) = star {
            p = sp + 1;
            t = st + 1;
            star = Some((sp, st + 1));
        } else {
            return false;
        }
    }
    while p < pattern.len() && pattern[p] == b'%' {
        p += 1;
    }
    p == pattern.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn like_basics() {
        assert!(like_match(b"%friend%", b"my friend here"));
        assert!(like_match(b"friend", b"friend"));
        assert!(!like_match(b"friend", b"friends"));
        assert!(like_match(b"fr_end%", b"friends forever"));
        assert!(like_match(b"%", b""));
        assert!(like_match(b"%%x%", b"zzx"));
        assert!(!like_match(b"_", b""));
        assert!(like_match(b"a%b%c", b"aXXbYYc"));
        assert!(!like_match(b"a%b%c", b"aXXbYY"));
    }

    #[test]
    fn cmp_three_valued_logic() {
        let e = Expr::cmp(CmpOp::Eq, Expr::col(0), Expr::lit(5i64));
        assert_eq!(e.eval(&[Value::Int(5)]).unwrap(), Value::Int(1));
        assert_eq!(e.eval(&[Value::Int(4)]).unwrap(), Value::Int(0));
        assert_eq!(e.eval(&[Value::Null]).unwrap(), Value::Null);
    }

    #[test]
    fn and_or_null_handling() {
        let null = Expr::lit_null();
        let t = Expr::lit(1i64);
        let f = Expr::lit(0i64);
        // false AND null = false; true AND null = null
        assert_eq!(
            Expr::And(Box::new(f.clone()), Box::new(null.clone())).eval(&[]).unwrap(),
            Value::Int(0)
        );
        assert_eq!(
            Expr::And(Box::new(t.clone()), Box::new(null.clone())).eval(&[]).unwrap(),
            Value::Null
        );
        // true OR null = true; false OR null = null
        assert_eq!(Expr::Or(Box::new(t), Box::new(null.clone())).eval(&[]).unwrap(), Value::Int(1));
        assert_eq!(Expr::Or(Box::new(f), Box::new(null)).eval(&[]).unwrap(), Value::Null);
    }

    #[test]
    fn is_null() {
        let e = Expr::IsNull { expr: Box::new(Expr::col(0)), negated: false };
        assert_eq!(e.eval(&[Value::Null]).unwrap(), Value::Int(1));
        assert_eq!(e.eval(&[Value::Int(3)]).unwrap(), Value::Int(0));
    }

    #[test]
    fn columns_and_remap() {
        let mut e = Expr::And(
            Box::new(Expr::cmp(CmpOp::Eq, Expr::col(2), Expr::lit(1i64))),
            Box::new(Expr::cmp(CmpOp::Gt, Expr::col(5), Expr::col(2))),
        );
        let mut cols = Vec::new();
        e.columns(&mut cols);
        cols.sort_unstable();
        cols.dedup();
        assert_eq!(cols, [2, 5]);
        e.remap_columns(&|i| i - 2);
        let mut cols2 = Vec::new();
        e.columns(&mut cols2);
        cols2.sort_unstable();
        cols2.dedup();
        assert_eq!(cols2, [0, 3]);
    }

    impl Expr {
        fn lit_null() -> Expr {
            Expr::Literal(Value::Null)
        }
    }
}
