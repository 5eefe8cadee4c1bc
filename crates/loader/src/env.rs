//! The process environment the loader consults.

/// Environment and system configuration visible to a loader instance.
///
/// Mirrors the knobs from §III: `LD_LIBRARY_PATH`, `LD_PRELOAD`, the
/// `ld.so.conf` directory list (compiled into a cache by
/// [`crate::ldcache::LdCache::ldconfig`]), the built-in default directories,
/// and the hwcaps subdirectory names glibc probes inside every search
/// directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Environment {
    /// Colon-split `LD_LIBRARY_PATH` entries, in order.
    pub ld_library_path: Vec<String>,
    /// `LD_PRELOAD` entries, in order. Paths or bare sonames.
    pub ld_preload: Vec<String>,
    /// Directories listed in `ld.so.conf` (feed for ldconfig).
    pub ld_so_conf: Vec<String>,
    /// Built-in trusted directories, searched last.
    pub default_paths: Vec<String>,
    /// hwcaps subdirectory names probed (in priority order) inside each
    /// search directory, e.g. `glibc-hwcaps/x86-64-v3`. Empty by default.
    pub hwcaps: Vec<String>,
}

impl Default for Environment {
    fn default() -> Self {
        Environment {
            ld_library_path: Vec::new(),
            ld_preload: Vec::new(),
            ld_so_conf: Vec::new(),
            default_paths: vec![
                "/lib64".to_string(),
                "/usr/lib64".to_string(),
                "/lib".to_string(),
                "/usr/lib".to_string(),
            ],
            hwcaps: Vec::new(),
        }
    }
}

impl Environment {
    /// Empty environment (no defaults at all) — for hermetic fixtures.
    pub fn bare() -> Self {
        Environment {
            ld_library_path: Vec::new(),
            ld_preload: Vec::new(),
            ld_so_conf: Vec::new(),
            default_paths: Vec::new(),
            hwcaps: Vec::new(),
        }
    }

    /// Set `LD_LIBRARY_PATH` from a colon-joined string (module files do
    /// this constantly — §II-E).
    pub fn with_ld_library_path(mut self, joined: &str) -> Self {
        self.ld_library_path =
            joined.split(':').filter(|s| !s.is_empty()).map(String::from).collect();
        self
    }

    /// Prepend one directory to `LD_LIBRARY_PATH` (what `module load` does).
    pub fn prepend_ld_library_path(&mut self, dir: impl Into<String>) {
        self.ld_library_path.insert(0, dir.into());
    }

    /// Add an `LD_PRELOAD` entry (PMPI tools, gperf, Spindle-style shims).
    pub fn with_preload(mut self, entry: impl Into<String>) -> Self {
        self.ld_preload.push(entry.into());
        self
    }

    /// Use the given hwcaps subdirectories.
    pub fn with_hwcaps<I, S>(mut self, caps: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.hwcaps = caps.into_iter().map(Into::into).collect();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_has_trusted_dirs() {
        let e = Environment::default();
        assert!(e.default_paths.contains(&"/usr/lib".to_string()));
        assert!(e.ld_library_path.is_empty());
    }

    #[test]
    fn colon_split() {
        let e = Environment::bare().with_ld_library_path("/a:/b::/c");
        assert_eq!(e.ld_library_path, vec!["/a", "/b", "/c"]);
    }

    #[test]
    fn module_load_prepends() {
        let mut e = Environment::bare().with_ld_library_path("/base");
        e.prepend_ld_library_path("/rocm-4.5/lib");
        assert_eq!(e.ld_library_path, vec!["/rocm-4.5/lib", "/base"]);
    }
}
