//! The pinned expectation files: the exact outcome of every timed op of
//! a workload at the default seed.
//!
//! Format, one file per workload under `expect/`:
//!
//! ```text
//! # workload <name> seed <workload seed>
//! <op seed>\t<escaped outcome>
//! ```
//!
//! The outcome is escaped so a multi-line campaign artifact stays on one
//! line: `\` becomes `\\`, a newline `\n`, a tab `\t`.

/// One workload's pinned outcomes, in op order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expectations {
    /// Workload name.
    pub workload: String,
    /// The workload seed the outcomes were pinned at.
    pub seed: u64,
    /// `(op seed, rendered outcome)` per timed op.
    pub entries: Vec<(u64, String)>,
}

impl Expectations {
    /// Parses a file's text.
    pub fn parse(text: &str) -> Result<Expectations, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty expectation file")?;
        let fields: Vec<&str> = header.split(' ').collect();
        let (workload, seed) = match fields.as_slice() {
            ["#", "workload", name, "seed", seed] => (
                (*name).to_string(),
                seed.parse::<u64>()
                    .map_err(|e| format!("bad seed in header `{header}`: {e}"))?,
            ),
            _ => return Err(format!("bad expectation header `{header}`")),
        };
        let entries = lines
            .enumerate()
            .map(|(i, line)| {
                let (seed, outcome) = line
                    .split_once('\t')
                    .ok_or_else(|| format!("line {}: no tab", i + 2))?;
                let seed = seed
                    .parse::<u64>()
                    .map_err(|e| format!("line {}: bad op seed: {e}", i + 2))?;
                Ok((
                    seed,
                    unescape(outcome).map_err(|e| format!("line {}: {e}", i + 2))?,
                ))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Expectations {
            workload,
            seed,
            entries,
        })
    }

    /// Renders the file's text.
    pub fn render(&self) -> String {
        let mut out = format!("# workload {} seed {}\n", self.workload, self.seed);
        for (seed, outcome) in &self.entries {
            out.push_str(&format!("{seed}\t{}\n", escape(outcome)));
        }
        out
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out
}

fn unescape(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            other => return Err(format!("bad escape `\\{}`", other.unwrap_or(' '))),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_parses_and_renders_back_to_the_same_content() {
        let text = "# workload campaign-small seed 1\n\
                    17\t{\\n  \"name\": \"a\\\\b\",\\t\"x\": 1\\n}\n\
                    42\tTrialResult { seed: 42 }\n";
        let parsed = Expectations::parse(text).expect("parses");
        assert_eq!(parsed.workload, "campaign-small");
        assert_eq!(parsed.seed, 1);
        assert_eq!(parsed.entries[0].0, 17);
        assert_eq!(parsed.entries[0].1, "{\n  \"name\": \"a\\b\",\t\"x\": 1\n}");
        assert_eq!(parsed.render(), text);
    }

    #[test]
    fn pinned_files_parse_and_render_back_to_the_same_content() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/expect");
        for w in crate::workload::Workload::ALL {
            let path = format!("{dir}/{}.tsv", w.name());
            let text = std::fs::read_to_string(&path).expect("pinned file exists");
            let parsed = Expectations::parse(&text).expect("pinned file parses");
            assert_eq!(parsed.workload, w.name());
            assert_eq!(parsed.entries.len(), w.ops_per_pass());
            assert_eq!(parsed.render(), text, "{path} does not render back");
        }
    }

    #[test]
    fn malformed_files_are_rejected() {
        assert!(Expectations::parse("").is_err());
        assert!(Expectations::parse("# workload x\n").is_err());
        assert!(Expectations::parse("# workload x seed 1\n5 no-tab\n").is_err());
        assert!(Expectations::parse("# workload x seed 1\n5\tbad \\q escape\n").is_err());
    }
}
