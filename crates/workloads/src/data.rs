//! Input generation helpers shared by the workloads.

use ms_asm::write_data_line;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write;

/// Input sizing: `Test` keeps unit tests fast; `Full` approximates the
/// paper's smallest benchmark sizes (hundreds of thousands of dynamic
/// instructions).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Small inputs for unit/integration tests.
    Test,
    /// Benchmark-harness inputs.
    Full,
}

impl Scale {
    /// Picks the test or full value.
    pub fn pick(self, test: usize, full: usize) -> usize {
        match self {
            Scale::Test => test,
            Scale::Full => full,
        }
    }

    /// Stable identifier, safe for on-disk cache keys and CLI round-trips.
    pub fn id(self) -> &'static str {
        match self {
            Scale::Test => "test",
            Scale::Full => "full",
        }
    }

    /// Parses the identifier produced by [`Scale::id`] (case-insensitive).
    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "test" => Some(Scale::Test),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }
}

/// A deterministic RNG seeded per workload.
pub fn rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// Renders a `.word` data block (chunked lines) for `label`.
pub fn word_block(label: &str, words: &[u32]) -> String {
    int_block(label, ".word", 12, words)
}

/// Renders a `.byte` data block (chunked lines) for `label`.
pub fn byte_block(label: &str, bytes: &[u8]) -> String {
    int_block(label, ".byte", 24, bytes)
}

/// An 8-aligned block of `directive` lines, `per_line` items each, for
/// `label`; an empty block holds one zero.
fn int_block<T: Copy + Default + Into<u64>>(
    label: &str,
    directive: &str,
    per_line: usize,
    items: &[T],
) -> String {
    let mut s = format!(".align 3\n{label}:\n");
    for chunk in items.chunks(per_line) {
        write_data_line(&mut s, directive, chunk);
    }
    if items.is_empty() {
        write_data_line(&mut s, directive, &[T::default()]);
    }
    s
}

/// Renders a `.double` data block for `label`.
pub fn double_block(label: &str, values: &[f64]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, ".align 3");
    let _ = writeln!(s, "{label}:");
    for chunk in values.chunks(8) {
        let items: Vec<String> = chunk.iter().map(|v| format!("{v:?}")).collect();
        let _ = writeln!(s, "  .double {}", items.join(", "));
    }
    s
}

/// `n` random u32 words below `bound`.
pub fn random_words(seed: u64, n: usize, bound: u32) -> Vec<u32> {
    let mut r = rng(seed);
    (0..n).map(|_| r.gen_range(0..bound)).collect()
}

/// `n` random bytes.
pub fn random_bytes(seed: u64, n: usize) -> Vec<u8> {
    let mut r = rng(seed);
    (0..n).map(|_| r.gen()).collect()
}

/// Text-like bytes: words of lowercase letters separated by spaces and
/// newlines (for the wc benchmark).
pub fn random_text(seed: u64, n: usize) -> Vec<u8> {
    let mut r = rng(seed);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let word_len = r.gen_range(1..9);
        for _ in 0..word_len {
            if out.len() >= n {
                break;
            }
            out.push(b'a' + r.gen_range(0..26u8));
        }
        if out.len() < n {
            out.push(if r.gen_ratio(1, 8) { b'\n' } else { b' ' });
        }
    }
    out.truncate(n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_picks() {
        assert_eq!(Scale::Test.pick(1, 2), 1);
        assert_eq!(Scale::Full.pick(1, 2), 2);
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(random_words(7, 16, 100), random_words(7, 16, 100));
        assert_eq!(random_bytes(7, 16), random_bytes(7, 16));
        assert_eq!(random_text(7, 64), random_text(7, 64));
    }

    #[test]
    fn blocks_render_and_assemble() {
        let src = format!(
            "\n.data\n{}{}{}\n.text\nmain: halt\n",
            word_block("w", &[1, 2, 3]),
            byte_block("b", &[4, 5]),
            double_block("d", &[1.5]),
        );
        let p = ms_asm::assemble(&src, ms_asm::AsmMode::Scalar).expect("assemble");
        assert!(p.symbol("w").is_some());
        assert!(p.symbol("b").is_some());
        assert!(p.symbol("d").is_some());
    }

    #[test]
    fn text_is_textish() {
        let t = random_text(3, 1000);
        assert!(t.iter().all(|&c| c.is_ascii_lowercase() || c == b' ' || c == b'\n'));
        assert!(t.contains(&b' '));
    }
}
