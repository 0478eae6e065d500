//! Minimal DIMACS CNF reading/writing: the clause store of CNF dumps,
//! used by tests and debugging tools.

use crate::lit::{Lit, Var};
use crate::sink::CnfSink;

/// A DIMACS CNF instance, and a [`CnfSink`] that collects one.
///
/// Clauses are stored as one literal stream shaped like DIMACS text: each
/// clause's literals, then a terminator that is no literal's code. The
/// stream is cut into blocks that never grow past their first allocation.
/// A clause that does not fit in the last block starts a new block of
/// 2^16 literals, or of its own length if it is longer, so adding a clause
/// never copies the clauses before it.
///
/// Two instances are equal when they declare the same variable count and
/// hold the same clauses in the same order, however their blocks are cut.
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
#[derive(Debug, Clone, Default)]
pub struct Cnf {
    /// Declared (or inferred, or created) variable count.
    num_vars: usize,
    /// Number of clauses: of terminators in the stream.
    num_clauses: usize,
    /// The literal stream, in blocks of whole clauses.
    blocks: Vec<Vec<Lit>>,
}

/// Ends each clause in the stream: `u32::MAX`, above every literal's code
/// (at most `u32::MAX - 2`, the negative literal of the last variable a
/// [`Var`] can name).
const END: Lit = Lit::from_code(u32::MAX as usize);

/// Literals in one block of the stream, unless a longer clause needs more.
const BLOCK: usize = 1 << 16;

impl PartialEq for Cnf {
    fn eq(&self, other: &Cnf) -> bool {
        self.num_vars == other.num_vars
            && self
                .blocks
                .iter()
                .flatten()
                .eq(other.blocks.iter().flatten())
    }
}

impl Eq for Cnf {}

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
        self.num_clauses
    }

    /// The clauses, in insertion order.
    pub fn clauses(&self) -> impl ExactSizeIterator<Item = &[Lit]> + '_ {
        // Each block ends with a terminator, so the rest of it splits
        // into exactly its clauses.
        let mut clauses = self
            .blocks
            .iter()
            .flat_map(|block| block[..block.len() - 1].split(|&l| l == END));
        (0..self.num_clauses).map(move |_| clauses.next().expect("a clause per terminator"))
    }

    /// Number of literals, over all clauses.
    fn num_lits(&self) -> usize {
        self.blocks.iter().map(Vec::len).sum::<usize>() - self.num_clauses
    }

    /// Parses DIMACS CNF text.
    ///
    /// # Errors
    ///
    /// Returns [`ParseDimacsError`] on malformed input (bad tokens, literal
    /// indices exceeding the header, unterminated clauses are tolerated).
    pub fn parse(text: &str) -> Result<Cnf, ParseDimacsError> {
        let mut cnf = Cnf::default();
        // The literals read since the last `0`.
        let mut clause = Vec::new();
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
                    cnf.add_clause(&clause);
                    clause.clear();
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
                    clause.push(Lit::new(Var::from_index(idx), v > 0));
                }
            }
        }
        if !clause.is_empty() {
            cnf.add_clause(&clause);
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
    /// stream sizes the text exactly. The second writes each literal as an
    /// optional `-` and one slot copy, and each terminator as `0` and a
    /// newline, into a single buffer of that size (plus one slot of slack,
    /// cut off at the end). The table is built only when it has no more
    /// entries than there are literals, so its cost follows the literals,
    /// not the declared variable count. Past it, and for numbers of more
    /// than 7 digits, a literal's slot is computed directly, in a wider
    /// slot.
    pub fn to_dimacs_with_comments(&self, comments: &[&str]) -> String {
        let mut head = String::new();
        for comment in comments {
            head.push_str("c ");
            head.push_str(comment);
            head.push('\n');
        }
        head.push_str(&format!("p cnf {} {}\n", self.num_vars, self.num_clauses()));
        let table = if self.num_vars <= self.num_lits() {
            slot_table(self.num_vars.min(SLOT_VARS))
        } else {
            Vec::new()
        };
        // The terminator is in no table slot, so only a literal without a
        // slot is checked for being one.
        let text_len = |l: Lit| match table.get(l.var().index()) {
            Some(&(_, len)) => usize::from(l.is_negative()) + usize::from(len),
            None if l == END => 2,
            None => usize::from(l.is_negative()) + wide_slot(l.var()).1,
        };
        let body = self
            .blocks
            .iter()
            .map(|block| block.iter().map(|&l| text_len(l)).sum::<usize>())
            .sum::<usize>();
        let end = head.len() + body;
        // Every slot is copied whole and the cursor advanced by its text's
        // length, so the buffer carries one wide slot of slack past the end.
        let mut out = vec![0; end + WIDE];
        out[..head.len()].copy_from_slice(head.as_bytes());
        let mut pos = head.len();
        for block in &self.blocks {
            for &l in block {
                // The `-` is written at every literal but kept, by moving
                // past it, only at a negative one.
                out[pos] = b'-';
                match table.get(l.var().index()) {
                    Some(&(text, len)) => {
                        pos += usize::from(l.is_negative());
                        out[pos..pos + SLOT].copy_from_slice(&text);
                        pos += usize::from(len);
                    }
                    None if l == END => {
                        out[pos..pos + 2].copy_from_slice(b"0\n");
                        pos += 2;
                    }
                    None => {
                        pos += usize::from(l.is_negative());
                        let (text, len) = wide_slot(l.var());
                        out[pos..pos + WIDE].copy_from_slice(&text);
                        pos += len;
                    }
                }
            }
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
        debug_assert!(!lits.contains(&END), "a literal of variable Var::LIMIT");
        let len = lits.len() + 1;
        if self
            .blocks
            .last()
            .is_none_or(|block| block.capacity() - block.len() < len)
        {
            self.blocks.push(Vec::with_capacity(len.max(BLOCK)));
        }
        let block = self.blocks.last_mut().expect("a block with room");
        block.extend_from_slice(lits);
        block.push(END);
        self.num_clauses += 1;
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
        let clauses: Vec<Vec<Lit>> = clauses
            .iter()
            .map(|clause| {
                clause
                    .iter()
                    .map(|&v| Lit::new(Var::from_index(v.unsigned_abs() as usize - 1), v > 0))
                    .collect()
            })
            .collect();
        built(num_vars, &clauses)
    }

    /// An instance declaring `num_vars` variables built clause by clause
    /// through the sink.
    fn built(num_vars: usize, clauses: &[Vec<Lit>]) -> Cnf {
        let mut cnf = Cnf {
            num_vars,
            ..Cnf::default()
        };
        for clause in clauses {
            cnf.add_clause(clause);
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
                assert!(sparse.num_vars() > sparse.num_lits());
                assert_eq!(
                    sparse.to_dimacs(),
                    per_literal_dimacs(&sparse, &[]),
                    "{n} vars"
                );
                // Padded with as many units as variables: the table path.
                let mut dense = sparse.clone();
                dense.add_clause(&vec![Var::from_index(0).positive(); n]);
                assert!(dense.num_vars() <= dense.num_lits());
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

    /// Checks `cnf` against the clauses it must hold: its clause iterator,
    /// its text against the per-literal rule, and a parse of its text.
    fn assert_holds(cnf: &Cnf, reference: &[Vec<Lit>]) {
        let clauses = cnf.clauses();
        assert_eq!(clauses.len(), reference.len());
        assert!(clauses.eq(reference.iter().map(Vec::as_slice)));
        let comments = ["stream"];
        let text = cnf.to_dimacs_with_comments(&comments);
        assert_eq!(text, per_literal_dimacs(cnf, &comments));
        assert_eq!(Cnf::parse(&cnf.to_dimacs()).as_ref(), Ok(cnf));
    }

    /// `count` clauses of 0 to 9 literals over variables `1..=50`, drawn
    /// from a fixed linear congruential sequence.
    fn varied_clauses(count: usize) -> Vec<Vec<Lit>> {
        let mut state = 0x2545_f491_u64;
        let mut next = |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % bound
        };
        (0..count)
            .map(|_| {
                let len = next(10);
                (0..len)
                    .map(|_| Lit::new(Var::from_index(next(50) as usize), next(2) == 0))
                    .collect()
            })
            .collect()
    }

    /// The terminator's code is the negative literal of variable
    /// `Var::LIMIT`, which only an unchecked build can make; a debug build
    /// refuses to store it as a literal.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "Var::LIMIT")]
    fn dimacs_terminator_is_refused_as_a_literal() {
        Cnf::new().add_clause(&[END]);
    }

    /// The literals of the last variable a `Var` can name sit next to the
    /// terminator without being taken for it: the negative one has the
    /// largest code, two below it.
    #[test]
    fn dimacs_terminator_is_no_literal() {
        let top = Var::from_index(Var::LIMIT - 1);
        assert_eq!(top.negative().code(), u32::MAX as usize - 2);
        assert_eq!(END.code(), u32::MAX as usize);
        let reference = vec![
            vec![top.negative(), top.positive()],
            vec![top.positive(), top.negative()],
            vec![top.negative()],
            vec![Var::from_index(0).positive(), top.negative()],
        ];
        let cnf = built(Var::LIMIT, &reference);
        assert_holds(&cnf, &reference);
        assert_eq!(
            cnf.to_dimacs(),
            "p cnf 2147483647 4\n-2147483647 2147483647 0\n\
             2147483647 -2147483647 0\n-2147483647 0\n1 -2147483647 0\n"
        );
    }

    /// An empty clause is a bare terminator, whether added through the
    /// sink or read from a bare `0`.
    #[test]
    fn dimacs_empty_clauses_are_bare_terminators() {
        let a = Var::from_index(0).positive();
        let reference = vec![vec![], vec![a], vec![], vec![]];
        let cnf = built(1, &reference);
        assert_holds(&cnf, &reference);
        assert_eq!(cnf.to_dimacs(), "p cnf 1 4\n0\n1 0\n0\n0\n");
        let parsed = Cnf::parse("p cnf 1 4\n0\n1 0 0\n0\n").expect("parse");
        assert_eq!(parsed, cnf);
        assert_holds(&parsed, &reference);
        let only_empty = Cnf::parse("0\n").expect("parse");
        assert_holds(&only_empty, &[vec![]]);
        assert_eq!(only_empty.num_vars(), 0);
    }

    /// A clause longer than a block gets a block of its own, between
    /// blocks of short clauses.
    #[test]
    fn dimacs_clause_longer_than_a_block() {
        let long: Vec<Lit> = (0..BLOCK + 3)
            .map(|i| Lit::new(Var::from_index(i % 1000), i % 3 == 0))
            .collect();
        let mut reference = varied_clauses(5);
        reference.push(long);
        reference.extend(varied_clauses(5));
        let cnf = built(1000, &reference);
        assert_eq!(cnf.blocks.len(), 3);
        assert_eq!(cnf.blocks[1].len(), BLOCK + 4);
        assert_eq!(cnf.blocks[1].capacity(), BLOCK + 4);
        assert_holds(&cnf, &reference);
    }

    /// A run of clauses several blocks long is cut only between clauses,
    /// and no block grows past its first allocation.
    #[test]
    fn dimacs_clauses_cross_block_boundaries() {
        let reference = varied_clauses(4 * BLOCK / 5);
        let cnf = built(50, &reference);
        assert!(cnf.blocks.len() >= 3, "{} blocks", cnf.blocks.len());
        for block in &cnf.blocks {
            assert_eq!(block.capacity(), BLOCK);
            assert_eq!(block.last(), Some(&END));
        }
        assert_holds(&cnf, &reference);
    }

    /// Equality compares the variable count and the clause sequence, not
    /// how the stream is cut into blocks.
    #[test]
    fn dimacs_equality_ignores_block_layout() {
        let reference = varied_clauses(BLOCK / 3);
        let more = varied_clauses(7);
        let mut sunk = built(50, &reference);
        let mut parsed = Cnf::parse(&sunk.to_dimacs()).expect("parse");
        assert_eq!(parsed, sunk);
        // A clone's blocks are only as large as their literals, so the
        // clauses added after the clone start a new block.
        let mut cloned = sunk.clone();
        for clause in &more {
            sunk.add_clause(clause);
            parsed.add_clause(clause);
            cloned.add_clause(clause);
        }
        assert_eq!(cloned.blocks.len(), sunk.blocks.len() + 1);
        assert_eq!(cloned, sunk);
        assert_eq!(cloned, parsed);
        let all: Vec<Vec<Lit>> = reference.into_iter().chain(more).collect();
        assert_holds(&cloned, &all);
        // A different variable count or clause boundary is a different
        // instance.
        assert_ne!(built(51, &all), cloned);
        let [a, b] = [0, 1].map(|i| Var::from_index(i).positive());
        assert_ne!(built(2, &[vec![a, b]]), built(2, &[vec![a], vec![b]]));
        assert_ne!(built(2, &[vec![]]), built(2, &[]));
    }
}
