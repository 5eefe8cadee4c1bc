//! Wrap results and diagnostics.

use std::fmt;

/// Why a wrap failed outright.
#[derive(Debug, Clone, PartialEq)]
pub enum WrapError {
    /// The binary itself is missing or unparseable.
    BadBinary(String),
    /// A dependency could not be resolved (under [`crate::OnMissing::Error`]).
    Unresolved { requester: String, name: String },
    /// Filesystem failure writing the result.
    WriteFailed(String),
    /// [`crate::freeze_load`] was asked to promote `dlopen` hints: the
    /// promotion edits a needed list the held load never saw.
    FreezeDeclaresDlopens(String),
    /// [`crate::freeze_load`] under a strategy other than
    /// [`crate::Strategy::Backend`]: only a loader's load can be frozen.
    FreezeNotBackend { binary: String, strategy: String },
    /// [`crate::freeze_load`] was handed a load whose root object is not
    /// the binary being wrapped.
    FreezeForeignLoad { binary: String, root: String },
}

impl fmt::Display for WrapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WrapError::BadBinary(p) => write!(f, "cannot shrinkwrap {p}: not a dynamic binary"),
            WrapError::Unresolved { requester, name } => {
                write!(f, "cannot resolve {name} (needed by {requester})")
            }
            WrapError::WriteFailed(p) => write!(f, "failed to rewrite {p}"),
            WrapError::FreezeDeclaresDlopens(p) => write!(
                f,
                "cannot freeze a held load of {p}: declaring dlopens edits a needed list \
                 the load never saw"
            ),
            WrapError::FreezeNotBackend { binary, strategy } => write!(
                f,
                "cannot freeze a held load of {binary} under the {strategy} strategy: \
                 only a loader backend's load can be frozen"
            ),
            WrapError::FreezeForeignLoad { binary, root } => {
                write!(f, "cannot freeze a load of {root:?} into {binary}")
            }
        }
    }
}

impl std::error::Error for WrapError {}

/// Advisory findings that do not stop the wrap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WrapWarning {
    /// Two closure members define the same strong symbol; runtime order
    /// (preserved) decides the winner — the libomp/libompstubs situation.
    DuplicateStrongSymbol { symbol: String, first: String, second: String },
    /// A needed entry stayed unresolved ([`crate::OnMissing::Keep`]).
    LeftUnresolved { requester: String, name: String },
    /// The object dlopen()s libraries that were not declared; they will
    /// still be searched at runtime.
    UndeclaredDlopen { object: String, name: String },
}

impl fmt::Display for WrapWarning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WrapWarning::DuplicateStrongSymbol { symbol, first, second } => {
                write!(
                    f,
                    "duplicate strong symbol {symbol}: {first} wins over {second} (load order)"
                )
            }
            WrapWarning::LeftUnresolved { requester, name } => {
                write!(f, "{name} (needed by {requester}) left unresolved")
            }
            WrapWarning::UndeclaredDlopen { object, name } => {
                write!(f, "{object} dlopens {name} at runtime; not frozen")
            }
        }
    }
}

/// The result of a successful wrap.
#[derive(Debug, Clone)]
pub struct WrapReport {
    /// The binary that was rewritten.
    pub binary: String,
    /// The original needed list.
    pub original_needed: Vec<String>,
    /// The frozen needed list: absolute paths, closure lifted, in load order.
    pub new_needed: Vec<String>,
    /// `(requested name, resolved path)` in resolution order.
    pub resolved: Vec<(String, String)>,
    /// Advisory findings.
    pub warnings: Vec<WrapWarning>,
}

impl WrapReport {
    /// Number of entries frozen into the binary.
    pub fn frozen_count(&self) -> usize {
        self.new_needed.len()
    }

    /// Entries that were *lifted* (transitive deps not in the original list).
    pub fn lifted(&self) -> Vec<&str> {
        self.new_needed
            .iter()
            .filter(|p| {
                !self.original_needed.iter().any(|orig| {
                    orig == *p || self.resolved.iter().any(|(n, rp)| n == orig && rp == *p)
                })
            })
            .map(String::as_str)
            .collect()
    }

    /// Human-readable summary.
    pub fn render(&self) -> String {
        let mut s = format!(
            "shrinkwrapped {}: {} needed entries ({} original, {} lifted)\n",
            self.binary,
            self.new_needed.len(),
            self.original_needed.len(),
            self.lifted().len(),
        );
        for w in &self.warnings {
            s.push_str(&format!("  warning: {w}\n"));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifted_excludes_originals() {
        let r = WrapReport {
            binary: "/bin/app".into(),
            original_needed: vec!["liba.so".into()],
            new_needed: vec!["/l/liba.so".into(), "/l/libb.so".into()],
            resolved: vec![
                ("liba.so".into(), "/l/liba.so".into()),
                ("libb.so".into(), "/l/libb.so".into()),
            ],
            warnings: vec![],
        };
        assert_eq!(r.lifted(), vec!["/l/libb.so"]);
        assert_eq!(r.frozen_count(), 2);
        assert!(r.render().contains("1 lifted"));
    }

    #[test]
    fn warning_display() {
        let w = WrapWarning::DuplicateStrongSymbol {
            symbol: "omp_get_num_threads".into(),
            first: "/v/libomp.so".into(),
            second: "/v/libompstubs.so".into(),
        };
        assert!(w.to_string().contains("load order"));
    }
}
