//! The expectation file: every simulated count the benchmark pins, so a
//! change that moves the modelled machine fails the run instead of being
//! timed.
//!
//! One line per point, `<point> <field>=<value> ...`, for example
//! `compress/ms8 cycles=362471 instructions=230974 ...`. Lines starting
//! with `#` are comments.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// `"<point>.<field>"` to its pinned value.
pub type Counts = BTreeMap<String, u64>;

pub fn load(path: &Path) -> Result<Counts, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read expectation file {}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}:{e}", path.display()))
}

fn parse(text: &str) -> Result<Counts, String> {
    let mut out = Counts::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut words = line.split_whitespace();
        let point = words.next().unwrap_or_default();
        for word in words {
            let value = word
                .split_once('=')
                .and_then(|(field, v)| Some((field, v.parse::<u64>().ok()?)))
                .ok_or_else(|| format!("{}: bad field `{word}`", n + 1))?;
            out.insert(format!("{point}.{}", value.0), value.1);
        }
    }
    Ok(out)
}

/// Renders `counts` grouped one point per line, in key order.
pub fn render(counts: &Counts) -> String {
    let mut out = String::from(
        "# Pinned simulated counts: regenerate with `perfbench --bless` only for a\n\
         # change that is meant to alter the modelled machine.\n",
    );
    let mut current = "";
    for (key, v) in counts {
        let (point, field) = key.rsplit_once('.').expect("keys are point.field");
        if point != current {
            if !current.is_empty() {
                out.push('\n');
            }
            out.push_str(point);
            current = point;
        }
        let _ = write!(out, " {field}={v}");
    }
    out.push('\n');
    out
}

/// Pins one point's fields: every field must match the expectation and
/// every earlier observation of the same point in this run. With no
/// expectation (`--bless`), only the second check applies.
pub struct Pins<'a> {
    expect: Option<&'a Counts>,
    seen: Counts,
}

impl<'a> Pins<'a> {
    pub fn new(expect: Option<&'a Counts>) -> Pins<'a> {
        Pins { expect, seen: Counts::new() }
    }

    /// Checks `fields` of `point`; returns every disagreement.
    pub fn check(&mut self, point: &str, fields: &[(&str, u64)]) -> Result<(), String> {
        let mut bad = Vec::new();
        for &(field, got) in fields {
            let key = format!("{point}.{field}");
            if let Some(expect) = self.expect {
                match expect.get(&key) {
                    Some(&want) if want == got => {}
                    Some(&want) => bad.push(format!("{field}={got}, expected {want}")),
                    None => bad.push(format!("{field}={got}, no expectation")),
                }
            }
            match self.seen.insert(key, got) {
                Some(earlier) if earlier != got => {
                    bad.push(format!("{field}={got}, an earlier pass gave {earlier}"))
                }
                _ => {}
            }
        }
        if bad.is_empty() {
            Ok(())
        } else {
            Err(format!("{point}: {}", bad.join("; ")))
        }
    }

    /// Every count observed so far.
    pub fn seen(&self) -> &Counts {
        &self.seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_load_round_trip() {
        let mut c = Counts::new();
        c.insert("wc/ms4.cycles".into(), 10);
        c.insert("wc/ms4.instructions".into(), 20);
        c.insert("cmp/scalar.cycles".into(), 5);
        assert_eq!(parse(&render(&c)).unwrap(), c);
        assert!(parse("wc/ms4 cycles=x").unwrap_err().contains("bad field"));
    }

    #[test]
    fn pins_flag_expectation_and_cross_pass_disagreement() {
        let mut c = Counts::new();
        c.insert("wc/ms4.cycles".into(), 10);
        let mut pins = Pins::new(Some(&c));
        assert!(pins.check("wc/ms4", &[("cycles", 10)]).is_ok());
        let e = pins.check("wc/ms4", &[("cycles", 11)]).unwrap_err();
        assert!(e.contains("expected 10") && e.contains("earlier pass gave 10"), "{e}");
        assert!(pins.check("wc/ms8", &[("cycles", 1)]).unwrap_err().contains("no expectation"));
        let mut bless = Pins::new(None);
        assert!(bless.check("wc/ms8", &[("cycles", 1)]).is_ok());
        assert!(bless.check("wc/ms8", &[("cycles", 2)]).unwrap_err().contains("earlier pass"));
    }
}
