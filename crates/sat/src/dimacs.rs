//! Minimal DIMACS CNF reading/writing: the clause store of CNF dumps,
//! used by tests and debugging tools.

use crate::lit::{Lit, Var};
use crate::sink::CnfSink;

/// A DIMACS CNF instance, and a [`CnfSink`] that collects one.
///
/// Clauses are stored back to back in one literal vector, with the end
/// offset of each clause in a second one, so adding a clause allocates
/// nothing once the vectors have grown.
///
/// ```
/// use emm_sat::dimacs::Cnf;
/// use emm_sat::CnfSink;
///
/// let mut cnf = Cnf::new();
/// let a = cnf.new_var().positive();
/// let b = cnf.new_var().positive();
/// cnf.add_clause(&[a, !b]);
/// cnf.add_clause(&[b]);
/// assert_eq!(cnf.to_dimacs(), "p cnf 2 2\n1 -2 0\n2 0\n");
/// assert_eq!(Cnf::parse(&cnf.to_dimacs()), Ok(cnf));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cnf {
    /// Declared (or inferred, or created) variable count.
    num_vars: usize,
    /// Every clause's literals, in clause order.
    lits: Vec<Lit>,
    /// End offset in `lits` of each clause.
    ends: Vec<usize>,
}

/// Error parsing a DIMACS file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDimacsError {
    /// 1-based line of the offending token.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseDimacsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "dimacs parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseDimacsError {}

impl Cnf {
    /// Creates an empty instance with no variables.
    pub fn new() -> Cnf {
        Cnf::default()
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.ends.len()
    }

    /// The clauses, in insertion order.
    pub fn clauses(&self) -> impl ExactSizeIterator<Item = &[Lit]> + '_ {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let clause = &self.lits[start..end];
            start = end;
            clause
        })
    }

    /// Ends the clause made of the literals pushed since the last one.
    fn close_clause(&mut self) {
        self.ends.push(self.lits.len());
    }

    /// Parses DIMACS CNF text.
    ///
    /// # Errors
    ///
    /// Returns [`ParseDimacsError`] on malformed input (bad tokens, literal
    /// indices exceeding the header, unterminated clauses are tolerated).
    pub fn parse(text: &str) -> Result<Cnf, ParseDimacsError> {
        let mut cnf = Cnf::default();
        let mut declared_vars: Option<usize> = None;
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('c') {
                continue;
            }
            if let Some(rest) = line.strip_prefix('p') {
                let mut it = rest.split_whitespace();
                if it.next() != Some("cnf") {
                    return Err(ParseDimacsError {
                        line: lineno + 1,
                        message: "expected 'p cnf <vars> <clauses>'".into(),
                    });
                }
                let vars: usize =
                    it.next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| ParseDimacsError {
                            line: lineno + 1,
                            message: "bad variable count".into(),
                        })?;
                if vars > Var::LIMIT {
                    return Err(ParseDimacsError {
                        line: lineno + 1,
                        message: format!("{vars} variables exceed the limit of {}", Var::LIMIT),
                    });
                }
                declared_vars = Some(vars);
                cnf.num_vars = vars;
                continue;
            }
            for tok in line.split_whitespace() {
                let v: i64 = tok.parse().map_err(|_| ParseDimacsError {
                    line: lineno + 1,
                    message: format!("bad literal token {tok:?}"),
                })?;
                if v == 0 {
                    cnf.close_clause();
                } else {
                    let idx = v.unsigned_abs() as usize - 1;
                    if idx >= Var::LIMIT {
                        return Err(ParseDimacsError {
                            line: lineno + 1,
                            message: format!(
                                "literal {v} exceeds the limit of {} vars",
                                Var::LIMIT
                            ),
                        });
                    }
                    if let Some(dv) = declared_vars {
                        if idx >= dv {
                            return Err(ParseDimacsError {
                                line: lineno + 1,
                                message: format!("literal {v} exceeds declared {dv} vars"),
                            });
                        }
                    }
                    cnf.num_vars = cnf.num_vars.max(idx + 1);
                    cnf.lits.push(Lit::new(Var::from_index(idx), v > 0));
                }
            }
        }
        if cnf.lits.len() > cnf.ends.last().copied().unwrap_or(0) {
            cnf.close_clause();
        }
        Ok(cnf)
    }

    /// Renders the instance as DIMACS CNF text.
    pub fn to_dimacs(&self) -> String {
        self.to_dimacs_with_comments(&[])
    }

    /// Renders the instance as DIMACS CNF text after one `c` comment line
    /// per entry of `comments` (each a single line, without the `c `).
    ///
    /// Each variable's text (its number and the space after it) is counted
    /// up once into a table of fixed 8-byte slots. A first pass over the
    /// literals sizes the text exactly; each literal is then an optional
    /// `-` and one slot copy into a single buffer of that size (plus one
    /// slot of slack, cut off at the end). The table is built only when it
    /// has no more entries than there are literals, so its cost follows
    /// the literals, not the declared variable count. Past it, and for
    /// numbers of more than 7 digits, a literal's slot is computed
    /// directly, in a wider slot.
    pub fn to_dimacs_with_comments(&self, comments: &[&str]) -> String {
        let mut head = String::new();
        for comment in comments {
            head.push_str("c ");
            head.push_str(comment);
            head.push('\n');
        }
        head.push_str(&format!("p cnf {} {}\n", self.num_vars, self.num_clauses()));
        let table = if self.num_vars <= self.lits.len() {
            slot_table(self.num_vars.min(SLOT_VARS))
        } else {
            Vec::new()
        };
        let text_len = |var: Var| match table.get(var.index()) {
            Some(&(_, len)) => usize::from(len),
            None => wide_slot(var).1,
        };
        let body = self
            .lits
            .iter()
            .map(|&l| usize::from(l.is_negative()) + text_len(l.var()))
            .sum::<usize>()
            + 2 * self.ends.len();
        let end = head.len() + body;
        // Every slot is copied whole and the cursor advanced by its text's
        // length, so the buffer carries one wide slot of slack past the end.
        let mut out = vec![0; end + WIDE];
        out[..head.len()].copy_from_slice(head.as_bytes());
        let mut pos = head.len();
        for clause in self.clauses() {
            for &l in clause {
                // The `-` is written at every literal but kept, by moving
                // past it, only at a negative one.
                out[pos] = b'-';
                pos += usize::from(l.is_negative());
                match table.get(l.var().index()) {
                    Some(&(text, len)) => {
                        out[pos..pos + SLOT].copy_from_slice(&text);
                        pos += usize::from(len);
                    }
                    None => {
                        let (text, len) = wide_slot(l.var());
                        out[pos..pos + WIDE].copy_from_slice(&text);
                        pos += len;
                    }
                }
            }
            out[pos..pos + 2].copy_from_slice(b"0\n");
            pos += 2;
        }
        debug_assert_eq!(pos, end);
        out.truncate(pos);
        String::from_utf8(out).expect("comments are UTF-8 and the rest is ASCII")
    }

    /// Loads the instance into a fresh solver.
    pub fn to_solver(&self) -> crate::Solver {
        let mut s = crate::Solver::new();
        for _ in 0..self.num_vars {
            s.new_var();
        }
        for clause in self.clauses() {
            s.add_clause(clause);
        }
        s
    }
}

impl CnfSink for Cnf {
    fn new_var(&mut self) -> Var {
        let v = Var::from_index(self.num_vars);
        self.num_vars += 1;
        v
    }

    fn add_clause(&mut self, lits: &[Lit]) {
        self.lits.extend_from_slice(lits);
        self.close_clause();
    }
}

/// Bytes in one table slot: up to 7 digits and the space.
const SLOT: usize = 8;

/// Variables the slot table can hold: every number of at most 7 digits.
const SLOT_VARS: usize = 9_999_999;

/// Bytes in one directly computed slot: up to 10 digits (a [`Var`] is
/// below 2^31) and the space, rounded up.
const WIDE: usize = 16;

/// The text of variables `1..=n` (`n` at most [`SLOT_VARS`]), each its
/// decimal number and a space, left-aligned in one slot with its length.
/// The number is counted up digit by digit, without a division.
fn slot_table(n: usize) -> Vec<([u8; SLOT], u8)> {
    let mut table = Vec::with_capacity(n);
    // One byte wider than a slot, so the count may carry past 7 digits
    // after the last entry.
    let mut count = *b"1 \0\0\0\0\0\0\0";
    let mut len = 2;
    for _ in 0..n {
        let [a, b, c, d, e, f, g, h, _] = count;
        table.push(([a, b, c, d, e, f, g, h], len as u8));
        // Add one to the digits `count[..len - 1]`.
        let mut digit = len - 1;
        loop {
            if digit == 0 {
                // Every digit was a 9 and is now a 0: one digit more.
                count[0] = b'1';
                count[len - 1] = b'0';
                count[len] = b' ';
                len += 1;
                break;
            }
            digit -= 1;
            if count[digit] == b'9' {
                count[digit] = b'0';
            } else {
                count[digit] += 1;
                break;
            }
        }
    }
    table
}

/// The text of `var`, its decimal number and a space, left-aligned in a
/// wide slot, with its length.
fn wide_slot(var: Var) -> ([u8; WIDE], usize) {
    let mut n = var.index() + 1;
    let len = n.ilog10() as usize + 2;
    let mut text = [0; WIDE];
    text[len - 1] = b' ';
    for digit in text[..len - 1].iter_mut().rev() {
        *digit = b'0' + (n % 10) as u8;
        n /= 10;
    }
    (text, len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SolveResult;

    #[test]
    fn parse_roundtrip() {
        // Negative literals, a 10-digit variable, units and an empty
        // clause, in an order the writer must keep.
        let text = "p cnf 1000000000 5\n-1000000000 7 0\n3 0\n-2 -1 1000000000 0\n0\n-5 0\n";
        let cnf = Cnf::parse(&format!("c comment\n{text}")).expect("parse");
        assert_eq!(cnf.num_vars(), 1_000_000_000);
        let high = Var::from_index(999_999_999);
        let v = |i: usize| Var::from_index(i - 1);
        let clauses: Vec<&[Lit]> = cnf.clauses().collect();
        assert_eq!(
            clauses,
            [
                &[high.negative(), v(7).positive()][..],
                &[v(3).positive()][..],
                &[v(2).negative(), v(1).negative(), high.positive()][..],
                &[][..],
                &[v(5).negative()][..],
            ]
        );
        assert_eq!(cnf.to_dimacs(), text);
        assert_eq!(Cnf::parse(&cnf.to_dimacs()), Ok(cnf));
    }

    #[test]
    fn parse_rejects_overflow_literal() {
        assert!(Cnf::parse("p cnf 1 1\n2 0\n").is_err());
        // Indices and declared counts past what a `Var` can name are
        // errors, not silently truncated variables.
        assert!(Cnf::parse("p cnf 5000000000 1\n4294967297 0\n").is_err());
        assert!(Cnf::parse("p cnf 5000000000 0\n").is_err());
        assert!(Cnf::parse("4294967297 0\n").is_err());
        assert!(Cnf::parse("-2147483648 0\n").is_err());
        // The last index a `Var` can name still parses.
        let cnf = Cnf::parse("2147483647 0\n").expect("in range");
        assert_eq!(cnf.num_vars(), Var::LIMIT);
        assert!(Cnf::parse("p cnf 2147483647 0\n").is_ok());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Cnf::parse("p cnf 1 1\nxyz 0\n").is_err());
    }

    #[test]
    fn to_solver_solves() {
        let cnf = Cnf::parse("p cnf 2 2\n1 2 0\n-1 0\n").expect("parse");
        let mut s = cnf.to_solver();
        assert_eq!(s.solve(), SolveResult::Sat);
        let cnf2 = Cnf::parse("p cnf 1 2\n1 0\n-1 0\n").expect("parse");
        assert_eq!(cnf2.to_solver().solve(), SolveResult::Unsat);
    }

    #[test]
    fn unterminated_last_clause_is_kept() {
        let cnf = Cnf::parse("p cnf 3 2\n1 0\n-2 3").expect("parse");
        assert_eq!(cnf.num_clauses(), 2);
        assert_eq!(cnf.to_dimacs(), "p cnf 3 2\n1 0\n-2 3 0\n");
    }

    #[test]
    fn cnf_sink_counts_vars_and_keeps_insertion_order() {
        let mut cnf = Cnf::new();
        let a = cnf.new_var().positive();
        let b = cnf.new_var().positive();
        cnf.add_clause(&[a, !b]);
        let g = cnf.add_and_gate(a, b);
        cnf.assert_true(g);
        assert_eq!(cnf.num_vars(), 3);
        assert_eq!(g, Var::from_index(2).positive());
        let clauses: Vec<&[Lit]> = cnf.clauses().collect();
        assert_eq!(
            clauses,
            [
                &[a, !b][..],
                &[!g, a][..],
                &[!g, b][..],
                &[g, !a, !b][..],
                &[g][..],
            ]
        );
        assert_eq!(
            cnf.to_dimacs(),
            "p cnf 3 5\n1 -2 0\n-3 1 0\n-3 2 0\n3 -1 -2 0\n3 0\n"
        );
        assert_eq!(cnf.to_solver().solve(), SolveResult::Sat);
    }

    /// The per-literal rule the renderer must reproduce: comment lines,
    /// the header, then each literal as its signed number and a space and
    /// each clause closed by `0`.
    fn per_literal_dimacs(cnf: &Cnf, comments: &[&str]) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for comment in comments {
            let _ = writeln!(out, "c {comment}");
        }
        let _ = writeln!(out, "p cnf {} {}", cnf.num_vars(), cnf.num_clauses());
        for clause in cnf.clauses() {
            for &l in clause {
                let v = l.var().index() as i64 + 1;
                let _ = write!(out, "{} ", if l.is_negative() { -v } else { v });
            }
            let _ = writeln!(out, "0");
        }
        out
    }

    /// An instance declaring `num_vars` variables with the given clauses
    /// (1-based signed numbers, as in DIMACS).
    fn declared(num_vars: usize, clauses: &[&[i64]]) -> Cnf {
        let mut cnf = Cnf {
            num_vars,
            ..Cnf::default()
        };
        for clause in clauses {
            for &v in *clause {
                let var = Var::from_index(v.unsigned_abs() as usize - 1);
                cnf.lits.push(Lit::new(var, v > 0));
            }
            cnf.close_clause();
        }
        cnf
    }

    #[test]
    fn dimacs_text_of_small_shapes() {
        let cases = [
            (declared(0, &[]), "p cnf 0 0\n"),
            (declared(0, &[&[]]), "p cnf 0 1\n0\n"),
            (declared(3, &[&[], &[-3], &[]]), "p cnf 3 3\n0\n-3 0\n0\n"),
            (
                declared(2, &[&[1], &[-2], &[-1, 2]]),
                "p cnf 2 3\n1 0\n-2 0\n-1 2 0\n",
            ),
        ];
        for (cnf, text) in cases {
            assert_eq!(cnf.to_dimacs(), text);
            assert_eq!(cnf.to_dimacs(), per_literal_dimacs(&cnf, &[]));
        }
    }

    #[test]
    fn dimacs_text_across_digit_widths() {
        let mut high = 9;
        while high < SLOT_VARS + 1 {
            for n in [high, high + 1] {
                let v = n as i64;
                let clauses: [&[i64]; 4] = [&[v, -(v - 1)], &[-v], &[1, -1, v - 1, 2], &[]];
                // Declared exactly: more variables than literals, so every
                // slot is computed directly.
                let sparse = declared(n, &clauses);
                assert!(sparse.num_vars() > sparse.lits.len());
                assert_eq!(
                    sparse.to_dimacs(),
                    per_literal_dimacs(&sparse, &[]),
                    "{n} vars"
                );
                // Padded with as many units as variables: the table path.
                let mut dense = sparse.clone();
                dense
                    .lits
                    .extend(std::iter::repeat_n(Var::from_index(0).positive(), n));
                dense.close_clause();
                assert!(dense.num_vars() <= dense.lits.len());
                assert_eq!(
                    dense.to_dimacs(),
                    per_literal_dimacs(&dense, &[]),
                    "{n} vars"
                );
            }
            high = high * 10 + 9;
        }
    }

    /// Every table slot holds its number's text, up to the last number
    /// the table holds.
    #[test]
    fn dimacs_slot_table_counts_every_number() {
        let table = slot_table(SLOT_VARS);
        assert_eq!(table.len(), SLOT_VARS);
        for (index, &(text, len)) in table.iter().enumerate() {
            let (wide, wide_len) = wide_slot(Var::from_index(index));
            assert_eq!(usize::from(len), wide_len, "var {}", index + 1);
            assert_eq!(text[..], wide[..SLOT], "var {}", index + 1);
        }
        assert_eq!(&table[SLOT_VARS - 1].0, b"9999999 ");
    }

    /// The highest variable a `Var` can name renders as 10 digits, and an
    /// instance declaring every one of them renders without a table of
    /// them.
    #[test]
    fn dimacs_text_at_var_limit() {
        let top = Var::LIMIT as i64;
        let cnf = declared(Var::LIMIT, &[&[-top, 1, top]]);
        let text = cnf.to_dimacs_with_comments(&["top"]);
        assert_eq!(
            text,
            "c top\np cnf 2147483647 1\n-2147483647 1 2147483647 0\n"
        );
        assert_eq!(Cnf::parse(&text), Ok(cnf));
    }

    #[test]
    fn dimacs_text_keeps_comments() {
        let comments = [
            "",
            "emm-bmc dump: property 0",
            "ünïcödé, 10 digits: 1234567890",
        ];
        for cnf in [
            declared(4, &[&[1, -4], &[2]]),
            declared(1, &[&[1], &[-1], &[1]]),
        ] {
            assert_eq!(
                cnf.to_dimacs_with_comments(&comments),
                per_literal_dimacs(&cnf, &comments)
            );
        }
    }
}
