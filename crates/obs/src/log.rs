//! A minimal verbosity-gated stderr logger for the harness shell.
//!
//! This replaces the raw `eprintln!` progress lines that used to live
//! in the sweep executor and experiment driver. It is *shell* plumbing,
//! not simulation state: the level is a process-wide atomic set once by
//! the CLI (`--quiet`), and messages go to stderr so they never
//! contaminate artifact files. At the default level the output is
//! byte-identical to the old `eprintln!` lines; `--quiet` silences
//! progress (CI) while warnings still print.

use std::sync::atomic::{AtomicU8, Ordering};

/// How chatty the process is on stderr.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verbosity {
    /// Warnings only — for CI logs.
    Quiet = 0,
    /// Progress lines (the default; matches the pre-obs output).
    Normal = 1,
}

static LEVEL: AtomicU8 = AtomicU8::new(Verbosity::Normal as u8);

/// Sets the process verbosity (typically once, from CLI flags).
pub fn set_verbosity(v: Verbosity) {
    LEVEL.store(v as u8, Ordering::Relaxed);
}

/// The current verbosity.
pub fn verbosity() -> Verbosity {
    match LEVEL.load(Ordering::Relaxed) {
        0 => Verbosity::Quiet,
        _ => Verbosity::Normal,
    }
}

/// Prints `msg` to stderr unconditionally — warnings (lost
/// checkpoints, unwritable artifacts) matter even under `--quiet`.
pub fn warn(msg: &str) {
    eprintln!("{msg}");
}

/// Prints `msg` to stderr at [`Verbosity::Normal`] — progress lines.
pub fn info(msg: &str) {
    if verbosity() >= Verbosity::Normal {
        eprintln!("{msg}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order() {
        assert!(Verbosity::Quiet < Verbosity::Normal);
    }

    #[test]
    fn set_and_get_roundtrip() {
        let prev = verbosity();
        set_verbosity(Verbosity::Quiet);
        assert_eq!(verbosity(), Verbosity::Quiet);
        set_verbosity(Verbosity::Normal);
        assert_eq!(verbosity(), Verbosity::Normal);
        set_verbosity(prev);
    }
}
