//! Line-level parsing: source text to statements.
//!
//! The grammar is deliberately simple — one statement per line, with
//! optional leading `label:` definitions, `;`/`#`/`//` comments, and
//! multiscalar tag suffixes written `mnemonic!f!s`.
//!
//! Statements borrow their names and operands from the source, and a
//! data directive's items are decoded straight from the line into one
//! list of the right size.

use crate::error::{AsmError, AsmErrorKind};
use ms_isa::{Reg, StopCond, TagBits};

/// An assembler section.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Section {
    /// Code.
    Text,
    /// Initialized data.
    Data,
}

/// Width of a data directive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum DataKind {
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
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum DataItem {
    /// Integer literal.
    Imm(i64),
    /// Label address plus offset; the label is that entry of
    /// [`Parsed::names`], which keeps the item at 16 bytes.
    Sym(u32, i64),
    /// Floating-point literal (only for `.double`).
    Fp(f64),
}

/// An instruction operand as written.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Operand<'a> {
    /// A register.
    Reg(Reg),
    /// An integer immediate.
    Imm(i64),
    /// A label reference plus constant offset.
    Sym(&'a str, i64),
    /// A memory operand `disp(base)`.
    Mem {
        /// Displacement (immediate or symbolic).
        disp: Box<Operand<'a>>,
        /// Base register.
        base: Reg,
    },
}

/// A `.task` successor-target specification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum TargetSpec<'a> {
    /// A label in the program.
    Label(&'a str),
    /// Pop the sequencer return-address stack.
    Ret,
    /// End of program.
    Halt,
}

/// One parsed statement.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Stmt<'a> {
    /// `label:` definition.
    Label(&'a str),
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
    Entry(&'a str),
    /// `.task targets=… create=…` — applies to the next text address.
    Task {
        /// Possible successor tasks.
        targets: Vec<TargetSpec<'a>>,
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
        ops: Vec<Operand<'a>>,
    },
}

/// A source's statements, each with its line, and the labels its
/// symbolic data items refer to.
#[derive(Default)]
pub(crate) struct Parsed<'a> {
    /// Statements in source order.
    pub stmts: Vec<(usize, Stmt<'a>)>,
    /// Labels of symbolic data items, in source order.
    pub names: Vec<&'a str>,
}

fn err(line: usize, kind: AsmErrorKind) -> AsmError {
    AsmError::new(line, kind)
}

/// The bytes of `s` that `wanted` accepts and that lie outside string
/// and char literals, with their offsets. A string runs from one `"` to
/// the next. A char literal is a `'`, one char or a `\` and one char,
/// and a `'`, as [`parse_int`] reads it; a `'` that starts none is an
/// ordinary byte.
fn code_bytes<'a>(
    s: &'a str,
    wanted: impl Fn(u8) -> bool + 'a,
) -> impl Iterator<Item = (usize, u8)> + 'a {
    let bytes = s.as_bytes();
    let (mut i, mut in_str) = (0, false);
    std::iter::from_fn(move || loop {
        let skip = match in_str {
            true => bytes[i..].iter().position(|&b| b == b'"'),
            false => bytes[i..].iter().position(|&b| b == b'"' || b == b'\'' || wanted(b)),
        };
        let at = i + skip?;
        i = at + 1;
        match bytes[at] {
            b'"' => in_str = !in_str,
            b'\'' => i = at + char_literal_len(&s[at..]).unwrap_or(1),
            b => return Some((at, b)),
        }
    })
}

/// The length of the char literal `t` starts with, if it starts with one.
fn char_literal_len(t: &str) -> Option<usize> {
    let mut chars = t.char_indices().skip(1);
    if chars.next()?.1 == '\\' {
        chars.next()?;
    }
    let (end, close) = chars.next()?;
    (close == '\'').then_some(end + 1)
}

/// Strips a comment (`;`, `#`, or `//`) outside of string and char
/// literals.
fn strip_comment(s: &str) -> &str {
    for (i, b) in code_bytes(s, |b| matches!(b, b';' | b'#' | b'/')) {
        if b != b'/' || s.as_bytes().get(i + 1) == Some(&b'/') {
            return &s[..i];
        }
    }
    s
}

/// Calls `each` on the trimmed items of `s`, split at top-level commas
/// (outside literals and parentheses). A trailing empty item is dropped;
/// any other empty item is passed on.
fn split_items<'a>(
    s: &'a str,
    mut each: impl FnMut(&'a str) -> Result<(), AsmError>,
) -> Result<(), AsmError> {
    let (mut depth, mut start) = (0i32, 0);
    for (i, b) in code_bytes(s, |b| matches!(b, b',' | b'(' | b')')) {
        match b {
            b'(' => depth += 1,
            b')' => depth -= 1,
            _ if depth == 0 => {
                each(s[start..i].trim())?;
                start = i + 1;
            }
            _ => {}
        }
    }
    match s[start..].trim() {
        "" => Ok(()),
        last => each(last),
    }
}

/// Parses an integer literal: decimal, `0x` hex, or a char literal.
fn parse_int(s: &str, line: usize) -> Result<i64, AsmError> {
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
    let (digits, radix) = match body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        Some(hex) => (hex, 16),
        None => (body, 10),
    };
    let v = match i64::from_str_radix(digits, radix) {
        Ok(v) => v,
        // The magnitude of i64::MIN is one past i64::MAX.
        Err(_) if neg && u64::from_str_radix(digits, radix) == Ok(1 << 63) => i64::MIN,
        Err(_) => return Err(bad()),
    };
    Ok(if neg { v.wrapping_neg() } else { v })
}

fn is_symbol_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_' || c == '.'
}

fn is_symbol_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == '.'
}

/// Parses a symbol with optional `+off`/`-off`.
fn parse_sym(s: &str, line: usize) -> Result<(&str, i64), AsmError> {
    let s = s.trim();
    if let Some(plus) = s.find(['+', '-'].as_slice()) {
        if plus > 0 {
            let (name, rest) = s.split_at(plus);
            let off = parse_int(rest, line)?;
            return Ok((name.trim(), off));
        }
    }
    if !s.starts_with(is_symbol_start) || !s.chars().all(is_symbol_char) {
        return Err(err(line, AsmErrorKind::Syntax(format!("invalid symbol `{s}`"))));
    }
    Ok((s, 0))
}

/// Whether an operand or data item is written as an integer literal.
fn is_int_literal(s: &str) -> bool {
    s.starts_with(|c: char| c.is_ascii_digit() || c == '-' || c == '\'')
}

/// Parses a single operand.
fn parse_operand(s: &str, line: usize) -> Result<Operand<'_>, AsmError> {
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
    if is_int_literal(s) {
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

/// Parses the items of a data directive, decoding each literal straight
/// from the line; a symbol's name goes to `names`.
fn parse_data<'a>(
    kind: DataKind,
    rest: &'a str,
    line: usize,
    names: &mut Vec<&'a str>,
) -> Result<Stmt<'a>, AsmError> {
    // Every item but the last ends at a comma, so this is the item count
    // (or more, for a trailing comma or commas inside literals).
    let mut items = Vec::with_capacity(1 + rest.bytes().filter(|&b| b == b',').count());
    split_items(rest, |piece| {
        let item = if piece.is_empty() {
            return Err(err(line, AsmErrorKind::Syntax("empty data item".into())));
        } else if kind == DataKind::Double {
            let bad = || err(line, AsmErrorKind::Syntax(format!("invalid double `{piece}`")));
            DataItem::Fp(piece.parse().map_err(|_| bad())?)
        } else if is_int_literal(piece) {
            DataItem::Imm(parse_int(piece, line)?)
        } else {
            let (name, off) = parse_sym(piece, line)?;
            let too_many =
                || err(line, AsmErrorKind::OutOfRange("too many symbols in data".into()));
            let at = u32::try_from(names.len()).map_err(|_| too_many())?;
            names.push(name);
            DataItem::Sym(at, off)
        };
        items.push(item);
        Ok(())
    })?;
    if items.is_empty() {
        return Err(err(line, AsmErrorKind::Directive("data directive with no items".into())));
    }
    Ok(Stmt::Data(kind, items))
}

fn parse_task(rest: &str, line: usize) -> Result<Stmt<'_>, AsmError> {
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
                    _ => TargetSpec::Label(t),
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

fn parse_directive<'a>(
    text: &'a str,
    line: usize,
    names: &mut Vec<&'a str>,
) -> Result<Stmt<'a>, AsmError> {
    let (name, rest) = match text.find(char::is_whitespace) {
        Some(i) => (&text[..i], text[i..].trim()),
        None => (text, ""),
    };
    match name {
        ".text" => Ok(Stmt::Section(Section::Text)),
        ".data" => Ok(Stmt::Section(Section::Data)),
        ".align" => Ok(Stmt::Align(parse_int(rest, line)? as u32)),
        ".byte" => parse_data(DataKind::Byte, rest, line, names),
        ".half" => parse_data(DataKind::Half, rest, line, names),
        ".word" => parse_data(DataKind::Word, rest, line, names),
        ".dword" => parse_data(DataKind::Dword, rest, line, names),
        ".double" => parse_data(DataKind::Double, rest, line, names),
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

/// Parses one source line, appending its statements (`label: instr`
/// yields two) to `out`.
pub(crate) fn parse_line<'a>(
    raw: &'a str,
    line: usize,
    out: &mut Parsed<'a>,
) -> Result<(), AsmError> {
    let mut text = strip_comment(raw).trim();
    // Leading label definitions.
    while let Some(colon) = text.find(':') {
        let candidate = text[..colon].trim();
        if !candidate.is_empty()
            && candidate.starts_with(is_symbol_start)
            && candidate.chars().all(is_symbol_char)
        {
            out.stmts.push((line, Stmt::Label(candidate)));
            text = text[colon + 1..].trim();
        } else {
            break;
        }
    }
    if text.is_empty() {
        return Ok(());
    }
    if text.starts_with('.') {
        let stmt = parse_directive(text, line, &mut out.names)?;
        out.stmts.push((line, stmt));
        return Ok(());
    }
    let (raw_mnem, rest) = match text.find(char::is_whitespace) {
        Some(i) => (&text[..i], text[i..].trim()),
        None => (text, ""),
    };
    let (mnem, tags) = parse_mnemonic(raw_mnem, line)?;
    let mut ops = Vec::new();
    split_items(rest, |piece| {
        ops.push(parse_operand(piece, line)?);
        Ok(())
    })?;
    out.stmts.push((line, Stmt::Ins { mnem, tags, ops }));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The statements of one line, without their line numbers.
    fn parse(src: &str) -> Result<Vec<Stmt<'_>>, AsmError> {
        let mut out = Parsed::default();
        parse_line(src, 1, &mut out)?;
        Ok(out.stmts.into_iter().map(|(_, s)| s).collect())
    }

    fn stmts(src: &str) -> Vec<Stmt<'_>> {
        parse(src).unwrap()
    }

    #[test]
    fn labels_and_instruction_on_one_line() {
        let stmts = stmts("LOOP: addu $4, $4, $5 ; bump");
        assert_eq!(stmts.len(), 2);
        assert_eq!(stmts[0], Stmt::Label("LOOP"));
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
        match &stmts("bne!f!st $4, $5, L")[0] {
            Stmt::Ins { tags, .. } => {
                assert!(tags.forward);
                assert_eq!(tags.stop, StopCond::IfTaken);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse("bne!s!s $4, $5, L").is_err());
        assert!(parse("bne!x $4, $5, L").is_err());
    }

    #[test]
    fn memory_operands() {
        match &stmts("lw $8, -4($17)")[0] {
            Stmt::Ins { ops, .. } => match &ops[1] {
                Operand::Mem { disp, base } => {
                    assert_eq!(**disp, Operand::Imm(-4));
                    assert_eq!(*base, Reg::int(17));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
        match &stmts("lw $8, buf+8($17)")[0] {
            Stmt::Ins { ops, .. } => match &ops[1] {
                Operand::Mem { disp, .. } => assert_eq!(**disp, Operand::Sym("buf", 8)),
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn task_directive() {
        match &stmts(".task targets=OUTER,OUTERFALLOUT create=$4,$8,$17,$20,$23")[0] {
            Stmt::Task { targets, create } => {
                assert_eq!(targets.len(), 2);
                assert_eq!(create.len(), 5);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(".task create=$1").is_err());
        assert!(parse(".task targets=A,B,C,D,E").is_err());
    }

    #[test]
    fn data_directives() {
        assert_eq!(
            stmts(".word 1, 0x10, -3")[0],
            Stmt::Data(
                DataKind::Word,
                vec![DataItem::Imm(1), DataItem::Imm(16), DataItem::Imm(-3)]
            )
        );
        let mut out = Parsed::default();
        parse_line(".word head, tail+4", 1, &mut out).unwrap();
        assert_eq!(
            out.stmts[0].1,
            Stmt::Data(DataKind::Word, vec![DataItem::Sym(0, 0), DataItem::Sym(1, 4)])
        );
        assert_eq!(out.names, ["head", "tail"]);
        assert_eq!(
            stmts(".double 1.5, -2.0")[0],
            Stmt::Data(DataKind::Double, vec![DataItem::Fp(1.5), DataItem::Fp(-2.0)])
        );
        assert_eq!(stmts(".asciiz \"hi\\n\"")[0], Stmt::Asciiz(b"hi\n".to_vec()));
    }

    #[test]
    fn char_literals() {
        assert_eq!(parse_int("'a'", 1).unwrap(), 97);
        assert_eq!(parse_int("'\\n'", 1).unwrap(), 10);
        assert_eq!(parse_int("' '", 1).unwrap(), 32);
        assert!(parse_int("'ab'", 1).is_err());
    }

    #[test]
    fn literals_hide_separators_from_the_scanner() {
        assert_eq!(strip_comment(".byte '#', ';' ; c"), ".byte '#', ';' ");
        assert_eq!(strip_comment(".asciiz \"a//b\" // c"), ".asciiz \"a//b\" ");
        assert_eq!(strip_comment("li $2, '\\'' # c"), "li $2, '\\'' ");
        // A `'` that starts no literal is an ordinary byte.
        assert_eq!(strip_comment(".byte ' ; c"), ".byte ' ");
        let mut items = Vec::new();
        split_items("',', \"a,b\", (1, 2), 3,", |i| {
            items.push(i);
            Ok(())
        })
        .unwrap();
        assert_eq!(items, ["','", "\"a,b\"", "(1, 2)", "3"]);
    }

    #[test]
    fn comments_are_stripped() {
        assert!(stmts("; just a comment").is_empty());
        assert!(stmts("# hash comment").is_empty());
        assert!(stmts("// slash comment").is_empty());
        assert_eq!(stmts("nop // trailing").len(), 1);
    }

    #[test]
    fn unknown_directive_is_an_error() {
        assert!(parse(".bogus 1").is_err());
    }
}
