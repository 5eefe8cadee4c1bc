//! ELF machine architectures (`e_machine`).
//!
//! The dynamic loader silently skips search-path candidates whose machine
//! does not match the requesting object — a major source of wasted probes on
//! multi-ABI systems (x86 + x86_64), and a corner case Shrinkwrap's *native*
//! resolution strategy must replicate faithfully (§IV).

use std::fmt;

/// Architectures the simulation distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Machine {
    /// x86-64 (EM_X86_64) — the default everywhere in the workloads.
    #[default]
    X86_64,
    /// 32-bit x86 (EM_386) — the classic multilib pollution source.
    X86,
    /// AArch64 (EM_AARCH64).
    Aarch64,
    /// ppc64le (EM_PPC64) — Sierra/Lassen nodes in the paper are POWER9.
    Ppc64le,
}

impl Machine {
    /// Canonical lowercase name used in the serialised format.
    pub fn as_str(&self) -> &'static str {
        match self {
            Machine::X86_64 => "x86_64",
            Machine::X86 => "x86",
            Machine::Aarch64 => "aarch64",
            Machine::Ppc64le => "ppc64le",
        }
    }

    /// Parse the canonical name.
    pub fn from_str_opt(s: &str) -> Option<Machine> {
        match s {
            "x86_64" => Some(Machine::X86_64),
            "x86" => Some(Machine::X86),
            "aarch64" => Some(Machine::Aarch64),
            "ppc64le" => Some(Machine::Ppc64le),
            _ => None,
        }
    }

    /// All variants (for generators and exhaustive tests).
    pub fn all() -> [Machine; 4] {
        [Machine::X86_64, Machine::X86, Machine::Aarch64, Machine::Ppc64le]
    }
}

impl fmt::Display for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_names() {
        for m in Machine::all() {
            assert_eq!(Machine::from_str_opt(m.as_str()), Some(m));
        }
        assert_eq!(Machine::from_str_opt("vax"), None);
    }

    #[test]
    fn default_is_x86_64() {
        assert_eq!(Machine::default(), Machine::X86_64);
    }
}
