#![forbid(unsafe_code)]
//! Shared helpers for the benchmark harness binaries that regenerate
//! every table and figure of the paper (see DESIGN.md §4 for the
//! experiment index and EXPERIMENTS.md for recorded outputs).
//!
//! * [`cli`] — the shared flag/positional parser every binary uses;
//! * [`table`] — Wilson-CI cell formatting shared by the `experiment`
//!   table and the `concentration` harness;
//! * [`experiment`] — the spec-driven experiment runner behind the
//!   `experiment` binary, the one runner for every committed spec
//!   and sweep grid.

pub mod cli;
pub mod experiment;
pub mod table;

/// Formats a floating-point value in compact scientific-or-fixed form
/// for the harness tables.
#[must_use]
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        return "0".into();
    }
    let a = v.abs();
    if (1e-4..1e6).contains(&a) {
        format!("{v:.6}")
    } else {
        format!("{v:.4e}")
    }
}

/// Prints a header followed by an underline of the same width.
pub fn section(title: &str) {
    println!("\n{title}");
    println!("{}", "=".repeat(title.len()));
}

/// Relative error `|measured − expected| / max(|expected|, floor)`.
#[must_use]
pub fn rel_err(measured: f64, expected: f64, floor: f64) -> f64 {
    (measured - expected).abs() / expected.abs().max(floor)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_modes() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(1.5), "1.500000");
        assert!(fmt(1e-9).contains('e'));
        assert!(fmt(1e9).contains('e'));
    }

    #[test]
    fn rel_err_with_floor() {
        assert!((rel_err(1.1, 1.0, 1.0) - 0.1).abs() < 1e-12);
        assert_eq!(rel_err(0.5, 0.0, 1.0), 0.5);
    }
}
