//! The assembler's grammar, pinned row by row.
//!
//! Each row is a source and its exact outcome in multiscalar mode: `ok`
//! and a digest of the program, or the error as `AsmError` displays it.
//! The rows cover the corners a change to the line parser moves most
//! easily: Unicode whitespace, trailing commas and empty items, unbalanced
//! parentheses, separators inside string and char literals, integer
//! spellings, each data width's range, and which error wins when a
//! source has several (parse, then layout, then emit).

use ms_asm::{assemble, AsmMode};
use ms_isa::{encode, Program, TargetKind};

/// FNV-1a over everything an assembled program carries: the entry, each
/// instruction's encoding, the data segments, the symbols and the task
/// descriptors.
fn digest(p: &Program) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(&p.entry.to_le_bytes());
    for instr in &p.text {
        let (word, tag) = encode(instr).expect("assembled instructions encode");
        eat(&word.to_le_bytes());
        eat(&[tag]);
    }
    for seg in &p.data {
        eat(&seg.base.to_le_bytes());
        eat(&(seg.bytes.len() as u64).to_le_bytes());
        eat(&seg.bytes);
    }
    for (name, addr) in &p.symbols {
        eat(name.as_bytes());
        eat(&[0xff]);
        eat(&addr.to_le_bytes());
    }
    for (entry, d) in &p.tasks {
        eat(&entry.to_le_bytes());
        eat(&d.create.bits().to_le_bytes());
        for t in &d.targets {
            match t.kind {
                TargetKind::Addr(a) => {
                    eat(&[0]);
                    eat(&a.to_le_bytes());
                }
                TargetKind::Return => eat(&[1]),
                TargetKind::Halt => eat(&[2]),
            }
        }
    }
    h
}

fn outcome(src: &str) -> String {
    match assemble(src, AsmMode::Multiscalar) {
        Ok(p) => format!("ok {:016x}", digest(&p)),
        Err(e) => e.to_string(),
    }
}

/// (what the row shows, source, outcome).
const ROWS: &[(&str, &str, &str)] = &[
    // Unicode whitespace is whitespace wherever `trim` and
    // `char::is_whitespace` say so.
    ("U+00A0 after .byte", ".data\nx: .byte\u{a0}1, 2\n", "ok 208cec8631130105"),
    ("U+3000 after a label", "main:\u{3000}li $2, 7\n halt\n", "ok ef033f94ef4a346d"),
    // A trailing comma ends a list.
    ("trailing comma in data", ".data\nx: .byte 1, 2,\n", "ok 208cec8631130105"),
    ("trailing comma and blanks", ".data\nx: .word 7 , \n", "ok 5dd5185801048b1f"),
    ("trailing comma in operands", "main: addu $1, $2, $3,\n halt\n", "ok 282d37a930b6630e"),
    ("empty operand", "main: addu $1,,$2\n", "line 1: syntax error: empty operand"),
    ("no data items", ".data\nx: .byte\n", "line 2: directive error: data directive with no items"),
    // Commas inside parentheses do not split, balanced or not.
    ("unbalanced `)`", ".data\nx: .byte 1), 2\n", "line 2: syntax error: invalid integer `1), 2`"),
    ("unbalanced `(`", ".data\nx: .byte (1, 2\n", "line 2: syntax error: invalid symbol `(1, 2`"),
    // Separators and comment starts inside a string are text.
    ("string with separators", ".data\ns: .asciiz \"a,b;c#d//e\"\n", "ok 372a0c825f9b183b"),
    ("string then comment", ".data\ns: .asciiz \"x;y\" ; note\n", "ok c518e0f6f155aa0b"),
    // An escaped quote does not end a string; an escaped backslash lets
    // the next quote end it.
    ("escaped quote, then `;`", ".data\ns: .asciiz \"a\\\";b\"\n", "ok 635ab1d0d21ebecc"),
    ("escaped quote, then `#`", ".data\ns: .asciiz \"a\\\"#b\"\n", "ok 1237388d3ba84f34"),
    (
        "escaped quotes around `,`",
        ".data\ns: .asciiz \"say \\\"hi, there\\\"\"\n",
        "ok 264c3e0cbd70a6c1",
    ),
    (
        "escaped backslash, then a comment",
        ".data\ns: .asciiz \"a\\\\\"; c\n",
        "ok 83afc62c0f7c586b",
    ),
    ("comments", "main: nop // one\n nop # two\n halt ; three\n", "ok e7369cf520b1bcf1"),
    // Integer spellings.
    ("hex literals", ".data\nx: .word 0x10, 0XfF, -0x10\n", "ok 06391fd0f6412438"),
    ("negative literals", ".data\nx: .half -1, -32768\n", "ok 409a7cb103ac93f6"),
    // One sign at most, before any `0x`.
    ("one sign each", ".data\nx: .word -5, 0x5, -0x5, x+5, x-5\n", "ok fb5cc9e3446d9361"),
    ("`--5`", ".data\nx: .byte --5\n", "line 2: syntax error: invalid integer `--5`"),
    ("`-+3`", ".data\nx: .byte -+3\n", "line 2: syntax error: invalid integer `-+3`"),
    ("`0x-5`", ".data\nx: .byte 0x-5\n", "line 2: syntax error: invalid integer `0x-5`"),
    ("`0x+5`", ".data\nx: .byte 0x+5\n", "line 2: syntax error: invalid integer `0x+5`"),
    ("`-0x-5`", ".data\nx: .byte -0x-5\n", "line 2: syntax error: invalid integer `-0x-5`"),
    (
        "char literals",
        ".data\nx: .byte 'a', '\\n', '\\t', '\\0', '\\\\', '\\'', ' '\n",
        "ok 3d988d014b670c32",
    ),
    ("char literal immediate", "main: li $2, 'z'\n halt\n", "ok f8c808f472de63c6"),
    ("char literal, then a comment", "main: li $2, '\\'' ; q\n halt\n", "ok 985187a9225fd10d"),
    ("two-char literal", ".data\nx: .byte 'ab'\n", "line 2: syntax error: invalid integer `'ab'`"),
    (
        "non-ASCII char literal",
        ".data\nx: .byte 'é'\n",
        "line 2: syntax error: invalid integer `'é'`",
    ),
    (
        "unterminated char literal",
        ".data\nx: .byte 1, ' ; x\n",
        "line 2: syntax error: invalid integer `'`",
    ),
    // Symbolic data items.
    ("symbol offsets", ".data\nx: .word x+4, x-4, y\ny: .byte 0\n", "ok c8732460ac7156e7"),
    ("symbol with a blank", ".data\nx: .word a b+4\n", "line 2: undefined symbol: a b"),
    // Each width's range: the limits assemble, one past them does not.
    (".byte limits", ".data\nx: .byte 255, -128\n", "ok 44c623de7044914d"),
    (
        ".byte over",
        ".data\nx: .byte 256\n",
        "line 2: out of range: data item 256 does not fit 1 bytes",
    ),
    (
        ".byte under",
        ".data\nx: .byte -129\n",
        "line 2: out of range: data item -129 does not fit 1 bytes",
    ),
    (".half limits", ".data\nx: .half 65535, -32768\n", "ok 409a7cb103ac93f6"),
    (
        ".half over",
        ".data\nx: .half 65536\n",
        "line 2: out of range: data item 65536 does not fit 2 bytes",
    ),
    (
        ".half under",
        ".data\nx: .half -32769\n",
        "line 2: out of range: data item -32769 does not fit 2 bytes",
    ),
    (".word limits", ".data\nx: .word 4294967295, -2147483648\n", "ok b6ba6b23c857c664"),
    (
        ".word over",
        ".data\nx: .word 4294967296\n",
        "line 2: out of range: data item 4294967296 does not fit 4 bytes",
    ),
    (
        ".word under",
        ".data\nx: .word -2147483649\n",
        "line 2: out of range: data item -2147483649 does not fit 4 bytes",
    ),
    (
        ".dword limits",
        ".data\nx: .dword 9223372036854775807, -9223372036854775807\n",
        "ok 5fe51408b0c45139",
    ),
    (
        ".dword over",
        ".data\nx: .dword 9223372036854775808\n",
        "line 2: syntax error: invalid integer `9223372036854775808`",
    ),
    (
        ".dword under",
        ".data\nx: .dword -9223372036854775809\n",
        "line 2: syntax error: invalid integer `-9223372036854775809`",
    ),
    // The first error wins in pass order: parse, then layout, then emit.
    (
        "a parse error beats an emit error",
        ".data\nx: .byte 256\n.text\nmain: nop\n nop!q\n",
        "line 5: syntax error: unknown tag suffix `!q`",
    ),
    (
        "a layout error beats an emit error",
        ".data\nx: .byte 256\n.text\nx: nop\n",
        "line 4: duplicate symbol: x",
    ),
    (
        "emit errors in line order",
        ".data\nx: .byte 256\n.text\nmain: addiu $1, $2, 99999\n",
        "line 2: out of range: data item 256 does not fit 1 bytes",
    ),
    // A separator or comment start inside a char literal is the char, an
    // empty item is named as such, and i64::MIN is a `.dword`: the rows
    // the regression tests below also check.
    (".byte '#'", ".data\nx: .byte '#'\n", "ok cacc7a73725a0238"),
    (".byte ';'", ".data\nx: .byte ';'\n", "ok d540286c0ecedba0"),
    (".byte ','", ".data\nx: .byte ',', 1\n", "ok 0ecc5504473063a5"),
    (".byte '\"'", ".data\nx: .byte '\"', 1\n", "ok 7f69643819216cdb"),
    (".byte '('", ".data\nx: .byte '(', 1\n", "ok 6071e3108ae49d61"),
    ("li ','", "main: li $2, ','\n halt\n", "ok 38a6121dcdef5104"),
    ("li '#'", "main: li $2, '#'\n halt\n", "ok c053d812c0961881"),
    ("empty data item", ".data\nx: .byte 1,,2\n", "line 2: syntax error: empty data item"),
    ("leading empty data item", ".data\nx: .byte ,1\n", "line 2: syntax error: empty data item"),
    ("lone comma", ".data\nx: .byte ,\n", "line 2: syntax error: empty data item"),
    ("empty double item", ".data\nx: .double 1.5,,2\n", "line 2: syntax error: empty data item"),
    (
        ".dword i64::MIN",
        ".data\nx: .dword -9223372036854775808, -0x8000000000000000\n",
        "ok a2431b3309af1348",
    ),
];

#[test]
fn every_row_has_its_pinned_outcome() {
    let wrong: Vec<String> = ROWS
        .iter()
        .filter_map(|&(what, src, want)| {
            let got = outcome(src);
            (got != want).then(|| format!("{what}: {src:?}\n   got {got}\n  want {want}"))
        })
        .collect();
    assert!(
        wrong.is_empty(),
        "{} of {} rows differ:\n{}",
        wrong.len(),
        ROWS.len(),
        wrong.join("\n")
    );
}

/// The program `src` assembles to, which must exist.
fn program(src: &str) -> Program {
    assemble(src, AsmMode::Multiscalar).unwrap_or_else(|e| panic!("{src:?}: {e}"))
}

#[test]
fn char_literals_may_hold_separators_and_comment_starts() {
    for c in ['#', ';', ',', '"', '(', ')', '/'] {
        let code = c as u32;
        let data = format!(".data\nx: .byte '{c}', 1 ; note\n");
        assert_eq!(program(&data), program(&format!(".data\nx: .byte {code}, 1\n")), "{data}");
        let li = format!("main: li $2, '{c}' # note\n halt\n");
        assert_eq!(program(&li), program(&format!("main: li $2, {code}\n halt\n")), "{li}");
    }
}

#[test]
fn dword_takes_i64_min() {
    let p = program(".data\nx: .dword -9223372036854775808, -0x8000000000000000\n");
    assert_eq!(p.data[0].bytes, [i64::MIN.to_le_bytes(), i64::MIN.to_le_bytes()].concat());
}

#[test]
fn an_empty_data_item_is_named() {
    for src in [".data\nx: .byte 1,,2\n", ".data\nx: .word ,1\n", ".data\nx: .double 1.5,,2\n"] {
        let e = assemble(src, AsmMode::Multiscalar).expect_err(src);
        assert_eq!(e.to_string(), "line 2: syntax error: empty data item", "{src}");
    }
}

#[test]
fn an_escaped_quote_stays_in_its_string() {
    for (src, bytes) in [
        (".data\ns: .asciiz \"a\\\";b\"\n", b"a\";b\0".as_slice()),
        (".data\ns: .asciiz \"say \\\"hi, there\\\"\"\n", b"say \"hi, there\"\0"),
        (".data\ns: .asciiz \"a\\\\\"; c\n", b"a\\\0"),
    ] {
        assert_eq!(program(src).data[0].bytes, bytes, "{src}");
    }
}

#[test]
fn a_second_sign_is_an_invalid_integer() {
    let p = program(".data\nx: .word -5, 0x5, -0x5, x+5, x-5\n");
    let x = p.symbol("x").expect("x");
    let words = [-5i32 as u32, 5, -5i32 as u32, x + 5, x - 5];
    assert_eq!(p.data[0].bytes, words.iter().flat_map(|w| w.to_le_bytes()).collect::<Vec<_>>());
    for lit in ["--5", "-+3", "0x-5", "0x+5", "-0x-5"] {
        let e = assemble(&format!(".data\nx: .byte {lit}\n"), AsmMode::Multiscalar).expect_err(lit);
        assert_eq!(e.to_string(), format!("line 2: syntax error: invalid integer `{lit}`"));
    }
}
