//! Line-level parsing: source text to statements.
//!
//! The grammar is deliberately simple — one statement per line, with
//! optional leading `label:` definitions, `;`/`#` comments, and
//! multiscalar tag suffixes written `mnemonic!f!s`.

use crate::error::{AsmError, AsmErrorKind};
use ms_isa::{Reg, StopCond, TagBits};

/// An assembler section.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Section {
    /// Code.
    Text,
    /// Initialized data.
    Data,
}

/// Width of a data directive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DataKind {
    /// `.byte`
    Byte,
    /// `.half`
    Half,
    /// `.word`
    Word,
    /// `.dword`
    Dword,
    /// `.double` (IEEE-754 f64)
    Double,
}

impl DataKind {
    /// Size of one item in bytes.
    pub fn size(self) -> u32 {
        match self {
            DataKind::Byte => 1,
            DataKind::Half => 2,
            DataKind::Word => 4,
            DataKind::Dword | DataKind::Double => 8,
        }
    }
}

/// A literal or symbolic data item.
#[derive(Clone, Debug, PartialEq)]
pub enum DataItem {
    /// Integer literal.
    Imm(i64),
    /// Label address plus offset.
    Sym(String, i64),
    /// Floating-point literal (only for `.double`).
    Fp(f64),
}

/// An instruction operand as written.
#[derive(Clone, Debug, PartialEq)]
pub enum Operand {
    /// A register.
    Reg(Reg),
    /// An integer immediate.
    Imm(i64),
    /// A label reference plus constant offset.
    Sym(String, i64),
    /// A memory operand `disp(base)`.
    Mem {
        /// Displacement (immediate or symbolic).
        disp: Box<Operand>,
        /// Base register.
        base: Reg,
    },
}

/// A `.task` successor-target specification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TargetSpec {
    /// A label in the program.
    Label(String),
    /// Pop the sequencer return-address stack.
    Ret,
    /// End of program.
    Halt,
}

/// One parsed statement.
#[derive(Clone, Debug, PartialEq)]
pub enum Stmt {
    /// `label:` definition.
    Label(String),
    /// `.text` / `.data`.
    Section(Section),
    /// `.align n` (align to `2^n` bytes).
    Align(u32),
    /// Data emission directive.
    Data(DataKind, Vec<DataItem>),
    /// `.space n` zero bytes.
    Space(u32),
    /// `.asciiz "…"` NUL-terminated string.
    Asciiz(Vec<u8>),
    /// `.entry label` — program entry point.
    Entry(String),
    /// `.task targets=… create=…` — applies to the next text address.
    Task {
        /// Possible successor tasks.
        targets: Vec<TargetSpec>,
        /// Registers the task may create.
        create: Vec<Reg>,
    },
    /// `.ms_begin` — following lines are multiscalar-only.
    MsBegin,
    /// `.ms_end`.
    MsEnd,
    /// `.scalar_begin` — following lines are scalar-only.
    ScalarBegin,
    /// `.scalar_end`.
    ScalarEnd,
    /// An instruction (real or pseudo).
    Ins {
        /// Mnemonic with tag suffixes stripped.
        mnem: String,
        /// Parsed tag suffixes.
        tags: TagBits,
        /// Operands in source order.
        ops: Vec<Operand>,
    },
}

fn err(line: usize, kind: AsmErrorKind) -> AsmError {
    AsmError::new(line, kind)
}

/// Strips a comment (`;`, `#`, or `//`) outside of string literals.
fn strip_comment(s: &str) -> &str {
    let mut in_str = false;
    let mut prev_slash = false;
    for (i, c) in s.char_indices() {
        match c {
            '"' => in_str = !in_str,
            ';' | '#' if !in_str => return &s[..i],
            '/' if !in_str => {
                if prev_slash {
                    return &s[..i - 1];
                }
                prev_slash = true;
                continue;
            }
            _ => {}
        }
        prev_slash = false;
    }
    s
}

/// Splits at top-level commas (outside string literals and parentheses).
fn split_operands(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    let mut depth = 0i32;
    for c in s.chars() {
        match c {
            '"' => {
                in_str = !in_str;
                cur.push(c);
            }
            '(' if !in_str => {
                depth += 1;
                cur.push(c);
            }
            ')' if !in_str => {
                depth -= 1;
                cur.push(c);
            }
            ',' if !in_str && depth == 0 => {
                out.push(cur.trim().to_owned());
                cur = String::new();
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur.trim().to_owned());
    }
    out
}

/// Parses an integer literal: decimal, `0x` hex, or a char literal.
pub fn parse_int(s: &str, line: usize) -> Result<i64, AsmError> {
    let s = s.trim();
    let bad = || err(line, AsmErrorKind::Syntax(format!("invalid integer `{s}`")));
    if let Some(body) = s.strip_prefix("'") {
        let body = body.strip_suffix('\'').ok_or_else(bad)?;
        let c = match body {
            "\\n" => b'\n',
            "\\t" => b'\t',
            "\\0" => 0,
            "\\\\" => b'\\',
            "\\'" => b'\'',
            " " => b' ',
            _ => {
                let mut it = body.chars();
                let c = it.next().ok_or_else(bad)?;
                if it.next().is_some() || !c.is_ascii() {
                    return Err(bad());
                }
                c as u8
            }
        };
        return Ok(c as i64);
    }
    let (neg, body) = match s.strip_prefix('-') {
        Some(b) => (true, b),
        None => (false, s),
    };
    let v = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16).map_err(|_| bad())?
    } else {
        body.parse::<i64>().map_err(|_| bad())?
    };
    Ok(if neg { -v } else { v })
}

fn is_symbol_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_' || c == '.'
}

fn is_symbol_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == '.'
}

/// Parses a symbol with optional `+off`/`-off`.
fn parse_sym(s: &str, line: usize) -> Result<(String, i64), AsmError> {
    let s = s.trim();
    if let Some(plus) = s.find(['+', '-'].as_slice()) {
        if plus > 0 {
            let (name, rest) = s.split_at(plus);
            let off = parse_int(rest, line)?;
            return Ok((name.trim().to_owned(), off));
        }
    }
    if !s.starts_with(is_symbol_start) || !s.chars().all(is_symbol_char) {
        return Err(err(line, AsmErrorKind::Syntax(format!("invalid symbol `{s}`"))));
    }
    Ok((s.to_owned(), 0))
}

/// Parses a single operand.
pub fn parse_operand(s: &str, line: usize) -> Result<Operand, AsmError> {
    let s = s.trim();
    if s.is_empty() {
        return Err(err(line, AsmErrorKind::Syntax("empty operand".into())));
    }
    // Memory operand: disp(base)
    if s.ends_with(')') {
        if let Some(open) = s.rfind('(') {
            let disp_txt = s[..open].trim();
            let base_txt = &s[open + 1..s.len() - 1];
            let base: Reg = base_txt.trim().parse().map_err(|_| {
                err(line, AsmErrorKind::Syntax(format!("invalid base register `{base_txt}`")))
            })?;
            let disp =
                if disp_txt.is_empty() { Operand::Imm(0) } else { parse_operand(disp_txt, line)? };
            match disp {
                Operand::Imm(_) | Operand::Sym(..) => {
                    return Ok(Operand::Mem { disp: Box::new(disp), base })
                }
                _ => {
                    return Err(err(
                        line,
                        AsmErrorKind::Syntax(format!("invalid displacement in `{s}`")),
                    ))
                }
            }
        }
    }
    if s.starts_with('$') {
        let r: Reg = s
            .parse()
            .map_err(|_| err(line, AsmErrorKind::Syntax(format!("invalid register `{s}`"))))?;
        return Ok(Operand::Reg(r));
    }
    if s.starts_with(|c: char| c.is_ascii_digit()) || s.starts_with('-') || s.starts_with('\'') {
        return Ok(Operand::Imm(parse_int(s, line)?));
    }
    let (name, off) = parse_sym(s, line)?;
    Ok(Operand::Sym(name, off))
}

/// Parses tag suffixes from a raw mnemonic like `bne!f!st`.
fn parse_mnemonic(raw: &str, line: usize) -> Result<(String, TagBits), AsmError> {
    let mut parts = raw.split('!');
    let mnem = parts.next().unwrap_or("").to_ascii_lowercase();
    let mut tags = TagBits::NONE;
    for p in parts {
        match p {
            "f" => {
                if tags.forward {
                    return Err(err(line, AsmErrorKind::Syntax("duplicate !f tag".into())));
                }
                tags.forward = true;
            }
            "s" | "st" | "sn" => {
                if tags.stop != StopCond::None {
                    return Err(err(line, AsmErrorKind::Syntax("duplicate stop tag".into())));
                }
                tags.stop = match p {
                    "s" => StopCond::Always,
                    "st" => StopCond::IfTaken,
                    _ => StopCond::IfNotTaken,
                };
            }
            other => {
                return Err(err(
                    line,
                    AsmErrorKind::Syntax(format!("unknown tag suffix `!{other}`")),
                ))
            }
        }
    }
    if mnem.is_empty() {
        return Err(err(line, AsmErrorKind::Syntax("missing mnemonic".into())));
    }
    Ok((mnem, tags))
}

fn parse_string_lit(s: &str, line: usize) -> Result<Vec<u8>, AsmError> {
    let s = s.trim();
    let bad = || err(line, AsmErrorKind::Syntax(format!("invalid string literal {s}")));
    let body = s.strip_prefix('"').and_then(|b| b.strip_suffix('"')).ok_or_else(bad)?;
    let mut out = Vec::new();
    let mut chars = body.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next().ok_or_else(bad)? {
                'n' => out.push(b'\n'),
                't' => out.push(b'\t'),
                '0' => out.push(0),
                '\\' => out.push(b'\\'),
                '"' => out.push(b'"'),
                _ => return Err(bad()),
            }
        } else if c.is_ascii() {
            out.push(c as u8);
        } else {
            return Err(bad());
        }
    }
    Ok(out)
}

fn parse_data_items(kind: DataKind, rest: &str, line: usize) -> Result<Stmt, AsmError> {
    let mut items = Vec::new();
    for piece in split_operands(rest) {
        if kind == DataKind::Double {
            let v: f64 = piece.trim().parse().map_err(|_| {
                err(line, AsmErrorKind::Syntax(format!("invalid double `{piece}`")))
            })?;
            items.push(DataItem::Fp(v));
        } else if piece.starts_with(|c: char| c.is_ascii_digit())
            || piece.starts_with('-')
            || piece.starts_with('\'')
        {
            items.push(DataItem::Imm(parse_int(&piece, line)?));
        } else {
            let (name, off) = parse_sym(&piece, line)?;
            items.push(DataItem::Sym(name, off));
        }
    }
    if items.is_empty() {
        return Err(err(line, AsmErrorKind::Directive("data directive with no items".into())));
    }
    Ok(Stmt::Data(kind, items))
}

fn parse_task(rest: &str, line: usize) -> Result<Stmt, AsmError> {
    let mut targets = Vec::new();
    let mut create = Vec::new();
    for field in rest.split_whitespace() {
        if let Some(ts) = field.strip_prefix("targets=") {
            for t in ts.split(',') {
                let t = t.trim();
                if t.is_empty() {
                    continue;
                }
                targets.push(match t {
                    "ret" => TargetSpec::Ret,
                    "halt" => TargetSpec::Halt,
                    _ => TargetSpec::Label(t.to_owned()),
                });
            }
        } else if let Some(cs) = field.strip_prefix("create=") {
            for c in cs.split(',') {
                let c = c.trim();
                if c.is_empty() {
                    continue;
                }
                create.push(c.parse::<Reg>().map_err(|_| {
                    err(line, AsmErrorKind::Syntax(format!("invalid register `{c}` in create=")))
                })?);
            }
        } else {
            return Err(err(
                line,
                AsmErrorKind::Directive(format!("unknown .task field `{field}`")),
            ));
        }
    }
    if targets.is_empty() {
        return Err(err(line, AsmErrorKind::Directive(".task requires targets=".into())));
    }
    if targets.len() > ms_isa::MAX_TARGETS {
        return Err(err(
            line,
            AsmErrorKind::Directive(format!(
                ".task has {} targets; the maximum is {}",
                targets.len(),
                ms_isa::MAX_TARGETS
            )),
        ));
    }
    Ok(Stmt::Task { targets, create })
}

fn parse_directive(text: &str, line: usize) -> Result<Stmt, AsmError> {
    let (name, rest) = match text.find(char::is_whitespace) {
        Some(i) => (&text[..i], text[i..].trim()),
        None => (text, ""),
    };
    match name {
        ".text" => Ok(Stmt::Section(Section::Text)),
        ".data" => Ok(Stmt::Section(Section::Data)),
        ".align" => Ok(Stmt::Align(parse_int(rest, line)? as u32)),
        ".byte" => parse_data_items(DataKind::Byte, rest, line),
        ".half" => parse_data_items(DataKind::Half, rest, line),
        ".word" => parse_data_items(DataKind::Word, rest, line),
        ".dword" => parse_data_items(DataKind::Dword, rest, line),
        ".double" => parse_data_items(DataKind::Double, rest, line),
        ".space" => {
            let n = parse_int(rest, line)?;
            let n = u32::try_from(n).map_err(|_| {
                err(line, AsmErrorKind::OutOfRange(format!(".space size {n} is not a byte count")))
            })?;
            Ok(Stmt::Space(n))
        }
        ".asciiz" => Ok(Stmt::Asciiz(parse_string_lit(rest, line)?)),
        ".entry" => Ok(Stmt::Entry(parse_sym(rest, line)?.0)),
        ".task" => parse_task(rest, line),
        ".ms_begin" => Ok(Stmt::MsBegin),
        ".ms_end" => Ok(Stmt::MsEnd),
        ".scalar_begin" => Ok(Stmt::ScalarBegin),
        ".scalar_end" => Ok(Stmt::ScalarEnd),
        ".global" | ".globl" => Ok(Stmt::Entry(parse_sym(rest, line)?.0)),
        other => Err(err(line, AsmErrorKind::Directive(format!("unknown directive `{other}`")))),
    }
}

/// Parses one source line into zero or more statements
/// (`label: instr` yields two).
pub fn parse_line(raw: &str, line: usize) -> Result<Vec<Stmt>, AsmError> {
    let mut out = Vec::new();
    let mut text = strip_comment(raw).trim();
    // Leading label definitions.
    while let Some(colon) = text.find(':') {
        let candidate = text[..colon].trim();
        if !candidate.is_empty()
            && candidate.starts_with(is_symbol_start)
            && candidate.chars().all(is_symbol_char)
        {
            out.push(Stmt::Label(candidate.to_owned()));
            text = text[colon + 1..].trim();
        } else {
            break;
        }
    }
    if text.is_empty() {
        return Ok(out);
    }
    if text.starts_with('.') {
        out.push(parse_directive(text, line)?);
        return Ok(out);
    }
    let (raw_mnem, rest) = match text.find(char::is_whitespace) {
        Some(i) => (&text[..i], text[i..].trim()),
        None => (text, ""),
    };
    let (mnem, tags) = parse_mnemonic(raw_mnem, line)?;
    let mut ops = Vec::new();
    for piece in split_operands(rest) {
        ops.push(parse_operand(&piece, line)?);
    }
    out.push(Stmt::Ins { mnem, tags, ops });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_instruction_on_one_line() {
        let stmts = parse_line("LOOP: addu $4, $4, $5 ; bump", 1).unwrap();
        assert_eq!(stmts.len(), 2);
        assert_eq!(stmts[0], Stmt::Label("LOOP".into()));
        match &stmts[1] {
            Stmt::Ins { mnem, ops, .. } => {
                assert_eq!(mnem, "addu");
                assert_eq!(ops.len(), 3);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn tag_suffixes_parse() {
        let stmts = parse_line("bne!f!st $4, $5, L", 1).unwrap();
        match &stmts[0] {
            Stmt::Ins { tags, .. } => {
                assert!(tags.forward);
                assert_eq!(tags.stop, StopCond::IfTaken);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_line("bne!s!s $4, $5, L", 1).is_err());
        assert!(parse_line("bne!x $4, $5, L", 1).is_err());
    }

    #[test]
    fn memory_operands() {
        let stmts = parse_line("lw $8, -4($17)", 1).unwrap();
        match &stmts[0] {
            Stmt::Ins { ops, .. } => match &ops[1] {
                Operand::Mem { disp, base } => {
                    assert_eq!(**disp, Operand::Imm(-4));
                    assert_eq!(*base, Reg::int(17));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
        let stmts = parse_line("lw $8, buf+8($17)", 1).unwrap();
        match &stmts[0] {
            Stmt::Ins { ops, .. } => match &ops[1] {
                Operand::Mem { disp, .. } => {
                    assert_eq!(**disp, Operand::Sym("buf".into(), 8));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn task_directive() {
        let stmts =
            parse_line(".task targets=OUTER,OUTERFALLOUT create=$4,$8,$17,$20,$23", 1).unwrap();
        match &stmts[0] {
            Stmt::Task { targets, create } => {
                assert_eq!(targets.len(), 2);
                assert_eq!(create.len(), 5);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_line(".task create=$1", 1).is_err());
        assert!(parse_line(".task targets=A,B,C,D,E", 1).is_err());
    }

    #[test]
    fn data_directives() {
        assert_eq!(
            parse_line(".word 1, 0x10, -3", 1).unwrap()[0],
            Stmt::Data(
                DataKind::Word,
                vec![DataItem::Imm(1), DataItem::Imm(16), DataItem::Imm(-3)]
            )
        );
        assert_eq!(
            parse_line(".word head, tail+4", 1).unwrap()[0],
            Stmt::Data(
                DataKind::Word,
                vec![DataItem::Sym("head".into(), 0), DataItem::Sym("tail".into(), 4)]
            )
        );
        assert_eq!(
            parse_line(".double 1.5, -2.0", 1).unwrap()[0],
            Stmt::Data(DataKind::Double, vec![DataItem::Fp(1.5), DataItem::Fp(-2.0)])
        );
        assert_eq!(parse_line(".asciiz \"hi\\n\"", 1).unwrap()[0], Stmt::Asciiz(b"hi\n".to_vec()));
    }

    #[test]
    fn char_literals() {
        assert_eq!(parse_int("'a'", 1).unwrap(), 97);
        assert_eq!(parse_int("'\\n'", 1).unwrap(), 10);
        assert_eq!(parse_int("' '", 1).unwrap(), 32);
        assert!(parse_int("'ab'", 1).is_err());
    }

    #[test]
    fn comments_are_stripped() {
        assert!(parse_line("; just a comment", 1).unwrap().is_empty());
        assert!(parse_line("# hash comment", 1).unwrap().is_empty());
        assert!(parse_line("// slash comment", 1).unwrap().is_empty());
        assert_eq!(parse_line("nop // trailing", 1).unwrap().len(), 1);
    }

    #[test]
    fn unknown_directive_is_an_error() {
        assert!(parse_line(".bogus 1", 7).is_err());
    }
}
