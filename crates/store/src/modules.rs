//! The HPC module model (§II-E): `module load` as environment mutation.
//!
//! lmod/environment-modules expose software by prepending directories to
//! `LD_LIBRARY_PATH` (and `PATH`). Modules compose with every other model —
//! which is precisely how the ROCm case study breaks: RPATH on the app,
//! RUNPATH in the vendor library, and a *module-set* `LD_LIBRARY_PATH`
//! pointing at the wrong version.

use std::collections::HashMap;

use depchaos_loader::Environment;

/// One module file: what `module load <name>` prepends.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Module {
    pub name: String,
    /// Directories prepended to LD_LIBRARY_PATH, in listed order.
    pub ld_library_path: Vec<String>,
    /// Directories prepended to PATH (tracked for completeness).
    pub path: Vec<String>,
}

impl Module {
    pub fn new(name: impl Into<String>) -> Self {
        Module { name: name.into(), ..Default::default() }
    }

    pub fn ld_library_path(mut self, dir: impl Into<String>) -> Self {
        self.ld_library_path.push(dir.into());
        self
    }

    pub fn path(mut self, dir: impl Into<String>) -> Self {
        self.path.push(dir.into());
        self
    }
}

/// A module tree plus the user's currently loaded set.
#[derive(Debug, Default)]
pub struct ModuleSystem {
    available: HashMap<String, Module>,
    loaded: Vec<String>,
}

impl ModuleSystem {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a module file (the site's `/usr/tce` tree).
    pub fn provide(&mut self, m: Module) -> &mut Self {
        self.available.insert(m.name.clone(), m);
        self
    }

    /// `module load` — idempotent; later loads take priority (prepend).
    pub fn load(&mut self, name: &str) -> Result<(), ModuleError> {
        if !self.available.contains_key(name) {
            return Err(ModuleError::Unknown(name.to_string()));
        }
        if !self.loaded.iter().any(|l| l == name) {
            self.loaded.push(name.to_string());
        }
        Ok(())
    }

    /// `module unload`.
    pub fn unload(&mut self, name: &str) {
        self.loaded.retain(|l| l != name);
    }

    /// `module swap a b`. An unknown `to` is an error that leaves the
    /// loaded set as it was.
    pub fn swap(&mut self, from: &str, to: &str) -> Result<(), ModuleError> {
        if !self.available.contains_key(to) {
            return Err(ModuleError::Unknown(to.to_string()));
        }
        self.unload(from);
        self.load(to)
    }

    /// Currently loaded module names, in load order.
    pub fn loaded(&self) -> &[String] {
        &self.loaded
    }

    /// Materialise the environment: every loaded module's entries prepended,
    /// most recently loaded first (what a real shell ends up with).
    pub fn environment(&self, base: Environment) -> Environment {
        let mut env = base;
        for name in &self.loaded {
            let m = &self.available[name];
            for dir in m.ld_library_path.iter().rev() {
                env.prepend_ld_library_path(dir.clone());
            }
        }
        env
    }
}

/// Module-system errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModuleError {
    Unknown(String),
}

impl std::fmt::Display for ModuleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModuleError::Unknown(n) => write!(f, "module not found: {n}"),
        }
    }
}

impl std::error::Error for ModuleError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn system() -> ModuleSystem {
        let mut ms = ModuleSystem::new();
        ms.provide(Module::new("rocm/4.3.0").ld_library_path("/opt/rocm-4.3.0/lib"));
        ms.provide(Module::new("rocm/4.5.0").ld_library_path("/opt/rocm-4.5.0/lib"));
        ms.provide(
            Module::new("gcc/8.3.1")
                .ld_library_path("/usr/tce/gcc-8.3.1/lib64")
                .path("/usr/tce/gcc-8.3.1/bin"),
        );
        ms
    }

    #[test]
    fn load_prepends_most_recent_first() {
        let mut ms = system();
        ms.load("gcc/8.3.1").unwrap();
        ms.load("rocm/4.5.0").unwrap();
        let env = ms.environment(Environment::bare());
        assert_eq!(env.ld_library_path, vec!["/opt/rocm-4.5.0/lib", "/usr/tce/gcc-8.3.1/lib64"]);
    }

    #[test]
    fn swap_replaces_version() {
        let mut ms = system();
        ms.load("rocm/4.5.0").unwrap();
        ms.swap("rocm/4.5.0", "rocm/4.3.0").unwrap();
        let env = ms.environment(Environment::bare());
        assert_eq!(env.ld_library_path, vec!["/opt/rocm-4.3.0/lib"]);
        assert_eq!(ms.loaded(), &["rocm/4.3.0".to_string()]);
    }

    #[test]
    fn unknown_module_errors() {
        let mut ms = system();
        ms.load("rocm/4.5.0").unwrap();
        assert_eq!(ms.load("rocm/9.9"), Err(ModuleError::Unknown("rocm/9.9".into())));
        assert_eq!(ms.swap("rocm/4.5.0", "rocm/9.9"), Err(ModuleError::Unknown("rocm/9.9".into())));
        assert_eq!(ms.loaded(), &["rocm/4.5.0".to_string()]);
    }

    #[test]
    fn load_is_idempotent() {
        let mut ms = system();
        ms.load("gcc/8.3.1").unwrap();
        ms.load("gcc/8.3.1").unwrap();
        assert_eq!(ms.loaded().len(), 1);
    }
}
