//! Dynamic symbols and link-time duplicate checking.
//!
//! §V-B.2 of the paper: `libomp.so` and `libompstubs.so` define the same
//! strong symbols. At *run* time whichever loads first wins; on a *link*
//! line both together are a hard error. Shrinkwrap sidesteps the link line,
//! which is exactly why it works where the needy-executables workaround
//! fails. [`check_link`] reproduces the linker-side failure.

use std::collections::HashMap;
use std::fmt;

/// Symbol binding, reduced to the distinction that matters for duplicate
/// resolution: strong (GLOBAL) vs weak.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SymbolBinding {
    Strong,
    Weak,
}

impl SymbolBinding {
    pub fn as_str(&self) -> &'static str {
        match self {
            SymbolBinding::Strong => "T",
            SymbolBinding::Weak => "W",
        }
    }

    pub fn from_str_opt(s: &str) -> Option<Self> {
        match s {
            "T" => Some(SymbolBinding::Strong),
            "W" => Some(SymbolBinding::Weak),
            _ => None,
        }
    }
}

/// A defined dynamic symbol.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Symbol {
    pub name: String,
    pub binding: SymbolBinding,
}

impl Symbol {
    pub fn strong(name: impl Into<String>) -> Self {
        Symbol { name: name.into(), binding: SymbolBinding::Strong }
    }

    pub fn weak(name: impl Into<String>) -> Self {
        Symbol { name: name.into(), binding: SymbolBinding::Weak }
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.binding.as_str(), self.name)
    }
}

/// A duplicate strong symbol between two objects — a link failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkError {
    pub symbol: String,
    pub first: String,
    pub second: String,
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "multiple definition of `{}': first defined in {}, also in {}",
            self.symbol, self.first, self.second
        )
    }
}

impl std::error::Error for LinkError {}

/// Check whether a set of objects could appear together on a static link
/// line. Mirrors `ld`'s rule: two *strong* definitions of the same name are
/// an error; strong-over-weak and weak-weak are fine.
///
/// `objects` is `(label, defined-symbols)` — the label appears in the error.
pub fn check_link<'a, I>(objects: I) -> Result<(), LinkError>
where
    I: IntoIterator<Item = (&'a str, &'a [Symbol])>,
{
    let mut strong_owner: HashMap<&str, &str> = HashMap::new();
    for (label, syms) in objects {
        for sym in syms {
            if sym.binding == SymbolBinding::Strong {
                if let Some(first) = strong_owner.get(sym.name.as_str()) {
                    return Err(LinkError {
                        symbol: sym.name.clone(),
                        first: (*first).to_string(),
                        second: label.to_string(),
                    });
                }
                strong_owner.insert(sym.name.as_str(), label);
            }
        }
    }
    Ok(())
}

/// Runtime interposition: given objects in *load order*, return which object
/// provides each symbol (first definition wins; strong and weak behave the
/// same at runtime lookup for distinct objects, matching ELF lookup order).
pub fn runtime_bindings<'a, I>(objects: I) -> HashMap<String, String>
where
    I: IntoIterator<Item = (&'a str, &'a [Symbol])>,
{
    let mut out: HashMap<String, String> = HashMap::new();
    for (label, syms) in objects {
        for sym in syms {
            out.entry(sym.name.clone()).or_insert_with(|| label.to_string());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_strong_fails_link() {
        let a = [Symbol::strong("omp_get_num_threads")];
        let b = [Symbol::strong("omp_get_num_threads")];
        let err = check_link([("libomp.so", &a[..]), ("libompstubs.so", &b[..])]).unwrap_err();
        assert_eq!(err.symbol, "omp_get_num_threads");
        assert_eq!(err.first, "libomp.so");
        assert_eq!(err.second, "libompstubs.so");
        assert!(err.to_string().contains("multiple definition"));
    }

    #[test]
    fn weak_never_conflicts() {
        let a = [Symbol::weak("sym")];
        let b = [Symbol::strong("sym")];
        let c = [Symbol::weak("sym")];
        assert!(check_link([("a", &a[..]), ("b", &b[..]), ("c", &c[..])]).is_ok());
    }

    #[test]
    fn runtime_first_load_wins() {
        let stubs = [Symbol::strong("omp_get_num_threads")];
        let real = [Symbol::strong("omp_get_num_threads")];
        let binds = runtime_bindings([("libompstubs.so", &stubs[..]), ("libomp.so", &real[..])]);
        assert_eq!(binds["omp_get_num_threads"], "libompstubs.so");
        let binds2 = runtime_bindings([("libomp.so", &real[..]), ("libompstubs.so", &stubs[..])]);
        assert_eq!(binds2["omp_get_num_threads"], "libomp.so");
    }

    #[test]
    fn disjoint_symbols_link_fine() {
        let a = [Symbol::strong("foo")];
        let b = [Symbol::strong("bar")];
        assert!(check_link([("a", &a[..]), ("b", &b[..])]).is_ok());
    }
}
