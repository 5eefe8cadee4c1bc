//! Version-constraint taxonomy of dependency declarations (Fig 1).
//!
//! The paper's Debian analysis classifies every `Depends:` relation as
//! **unversioned** (`libfoo`), a **version range** (`libfoo (>= 1.2)`), or
//! **exact** (`libfoo (= 1.2-3)`), and finds ~3/4 of ~209k relations are
//! completely unversioned — the "implicitly encoded and unenforceable
//! knowledge" the maintainers carry.

use std::fmt;

/// How tightly a dependency pins its target version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VersionConstraint {
    /// No version at all: `Depends: libfoo`.
    Unversioned,
    /// An inequality or interval: `(>= 1.2)`, `(<< 2.0)`.
    Range,
    /// Exact pin: `(= 1.2-3)`.
    Exact,
}

impl VersionConstraint {
    pub fn as_str(&self) -> &'static str {
        match self {
            VersionConstraint::Unversioned => "Unversioned",
            VersionConstraint::Range => "Version Range",
            VersionConstraint::Exact => "Exact",
        }
    }

    /// Classify a Debian-style relation string.
    ///
    /// `libfoo` → Unversioned; `libfoo (>= 1.2)` → Range;
    /// `libfoo (= 1.2)` → Exact.
    pub fn classify(relation: &str) -> VersionConstraint {
        match relation.find('(') {
            None => VersionConstraint::Unversioned,
            Some(i) => {
                let inner = relation[i + 1..].trim_start();
                // `=` is exact; `>=`, `<=`, `>>`, `<<` are ranges.
                if inner.starts_with("= ") || (inner.starts_with('=') && !inner.starts_with("==")) {
                    VersionConstraint::Exact
                } else {
                    VersionConstraint::Range
                }
            }
        }
    }
}

impl fmt::Display for VersionConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One dependency declaration in a package archive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DependencyDecl {
    pub from: String,
    pub to: String,
    pub constraint: VersionConstraint,
}

/// Counts per constraint class — the three bars of Fig 1.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConstraintTally {
    pub unversioned: u64,
    pub range: u64,
    pub exact: u64,
}

impl ConstraintTally {
    /// Tally a stream of declarations.
    pub fn tally<'a, I: IntoIterator<Item = &'a DependencyDecl>>(decls: I) -> Self {
        let mut t = ConstraintTally::default();
        for d in decls {
            t.add(d.constraint);
        }
        t
    }

    pub fn add(&mut self, c: VersionConstraint) {
        match c {
            VersionConstraint::Unversioned => self.unversioned += 1,
            VersionConstraint::Range => self.range += 1,
            VersionConstraint::Exact => self.exact += 1,
        }
    }

    pub fn total(&self) -> u64 {
        self.unversioned + self.range + self.exact
    }

    /// Fraction of declarations with no version information at all.
    pub fn unversioned_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.unversioned as f64 / self.total() as f64
        }
    }

    /// Render the Fig 1 bar data as an aligned text table.
    pub fn render_table(&self) -> String {
        format!(
            "{:<14} {:>9}\n{:<14} {:>9}\n{:<14} {:>9}\n{:<14} {:>9}\n",
            "Unversioned",
            self.unversioned,
            "Version Range",
            self.range,
            "Exact",
            self.exact,
            "Total",
            self.total()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_debian_relations() {
        assert_eq!(VersionConstraint::classify("libc6"), VersionConstraint::Unversioned);
        assert_eq!(VersionConstraint::classify("libc6 (>= 2.17)"), VersionConstraint::Range);
        assert_eq!(VersionConstraint::classify("libfoo (<< 2.0)"), VersionConstraint::Range);
        assert_eq!(VersionConstraint::classify("libbar (= 1.2-3)"), VersionConstraint::Exact);
        assert_eq!(VersionConstraint::classify("libbar (=1.2)"), VersionConstraint::Exact);
    }

    #[test]
    fn tally_sums() {
        let decls = vec![
            DependencyDecl {
                from: "a".into(),
                to: "x".into(),
                constraint: VersionConstraint::Unversioned,
            },
            DependencyDecl {
                from: "a".into(),
                to: "y".into(),
                constraint: VersionConstraint::Unversioned,
            },
            DependencyDecl {
                from: "b".into(),
                to: "x".into(),
                constraint: VersionConstraint::Range,
            },
            DependencyDecl {
                from: "c".into(),
                to: "x".into(),
                constraint: VersionConstraint::Exact,
            },
        ];
        let t = ConstraintTally::tally(&decls);
        assert_eq!(t.unversioned, 2);
        assert_eq!(t.range, 1);
        assert_eq!(t.exact, 1);
        assert_eq!(t.total(), 4);
        assert!((t.unversioned_fraction() - 0.5).abs() < 1e-9);
        assert!(t.render_table().contains("Unversioned"));
    }
}
