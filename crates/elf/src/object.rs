//! The [`ElfObject`] model and its builder.

use crate::machine::Machine;
use crate::symbols::Symbol;

/// Where a future-loader search entry is injected (§III-C's proposal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchPosition {
    /// Before the environment's paths — the packager's pin.
    Prepend,
    /// After the environment's paths — a user-overridable default.
    Append,
}

/// One entry of the §III-C future-loader search space: a directory, where
/// it sits relative to the environment, and whether dependencies inherit it.
/// "All but one of the problems listed in Section III-A can be solved by
/// offering prepend/append and a boolean propagation flag on each path."
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchDir {
    pub dir: String,
    pub position: SearchPosition,
    pub inherit: bool,
}

/// A per-dependency binding: "the ability to dictate the search space per
/// shared object" — the final §III-A issue (Fig 3) dissolves when a soname
/// can be mapped to an exact path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepPin {
    pub soname: String,
    pub path: String,
}

/// Executable vs shared object (`ET_EXEC`/`ET_DYN` with an interp).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjectKind {
    Executable,
    SharedObject,
}

impl ObjectKind {
    pub fn as_str(&self) -> &'static str {
        match self {
            ObjectKind::Executable => "exe",
            ObjectKind::SharedObject => "dso",
        }
    }

    pub fn from_str_opt(s: &str) -> Option<Self> {
        match s {
            "exe" => Some(ObjectKind::Executable),
            "dso" => Some(ObjectKind::SharedObject),
            _ => None,
        }
    }
}

/// The dynamic-linking-relevant content of an ELF file.
///
/// `name` is a human label (usually the file's basename); the loader never
/// consults it — resolution uses `soname` and `needed` only, exactly like
/// the real loader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElfObject {
    pub name: String,
    pub kind: ObjectKind,
    pub machine: Machine,
    /// `DT_SONAME` — what this object answers to in the loader's dedup cache.
    pub soname: Option<String>,
    /// `DT_NEEDED` entries in link order. Entries containing `/` are loaded
    /// by path directly (Shrinkwrap's output); bare names are searched.
    pub needed: Vec<String>,
    /// `DT_RPATH` search directories (colon-joined in real ELF; kept split).
    pub rpath: Vec<String>,
    /// `DT_RUNPATH` search directories.
    pub runpath: Vec<String>,
    /// `PT_INTERP` — the program interpreter, executables only.
    pub interp: Option<String>,
    /// Defined dynamic symbols (only populated where a scenario needs them).
    pub symbols: Vec<Symbol>,
    /// Undefined symbols this object imports (used by interposition checks).
    pub undefined: Vec<String>,
    /// Libraries this object `dlopen`s at runtime. Not a real ELF field —
    /// simulation metadata standing in for the behaviour of plugin systems
    /// (Qt, Python extension modules, MPI transport plugins).
    pub dlopens: Vec<String>,
    /// Virtual on-disk size in bytes beyond the serialized header, modelling
    /// large binaries (the paper wraps a 213 MiB executable). Affects read
    /// cost, not semantics.
    pub virtual_size: u64,
    /// §III-C future-loader search entries (ignored by the glibc/musl
    /// models; interpreted by `depchaos_loader::future`).
    pub search_dirs: Vec<SearchDir>,
    /// §III-C per-dependency pins (future loader only).
    pub pins: Vec<DepPin>,
}

impl ElfObject {
    /// Start building an executable.
    pub fn exe(name: impl Into<String>) -> ObjectBuilder {
        ObjectBuilder::new(name, ObjectKind::Executable)
    }

    /// Start building a shared object. The soname defaults to `name`.
    pub fn dso(name: impl Into<String>) -> ObjectBuilder {
        let name = name.into();
        let mut b = ObjectBuilder::new(name.clone(), ObjectKind::SharedObject);
        b.obj.soname = Some(name);
        b
    }

    /// The name the loader's dedup cache indexes this object under:
    /// `DT_SONAME` if present, else the file basename at load time.
    pub fn effective_soname(&self) -> &str {
        self.soname.as_deref().unwrap_or(&self.name)
    }

    /// True if any `needed` entry is a path (contains `/`) — i.e. the object
    /// has been shrinkwrapped or hand-pinned.
    pub fn has_absolute_needed(&self) -> bool {
        self.needed.iter().any(|n| n.contains('/'))
    }

    /// The search-path entries in effect for this object, with the
    /// RPATH-ignored-when-RUNPATH-set rule applied locally. (Propagation
    /// rules live in the loader.)
    pub fn own_search_paths(&self) -> &[String] {
        if self.runpath.is_empty() {
            &self.rpath
        } else {
            &self.runpath
        }
    }
}

/// Fluent builder for [`ElfObject`].
#[derive(Debug, Clone)]
pub struct ObjectBuilder {
    obj: ElfObject,
}

impl ObjectBuilder {
    fn new(name: impl Into<String>, kind: ObjectKind) -> Self {
        let interp = match kind {
            ObjectKind::Executable => Some("/lib64/ld-linux-x86-64.so.2".to_string()),
            ObjectKind::SharedObject => None,
        };
        ObjectBuilder {
            obj: ElfObject {
                name: name.into(),
                kind,
                machine: Machine::default(),
                soname: None,
                needed: Vec::new(),
                rpath: Vec::new(),
                runpath: Vec::new(),
                interp,
                symbols: Vec::new(),
                undefined: Vec::new(),
                dlopens: Vec::new(),
                virtual_size: 0,
                search_dirs: Vec::new(),
                pins: Vec::new(),
            },
        }
    }

    pub fn machine(mut self, m: Machine) -> Self {
        self.obj.machine = m;
        self
    }

    pub fn soname(mut self, s: impl Into<String>) -> Self {
        self.obj.soname = Some(s.into());
        self
    }

    pub fn needs(mut self, n: impl Into<String>) -> Self {
        self.obj.needed.push(n.into());
        self
    }

    pub fn needs_all<I, S>(mut self, it: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.obj.needed.extend(it.into_iter().map(Into::into));
        self
    }

    pub fn rpath(mut self, p: impl Into<String>) -> Self {
        self.obj.rpath.push(p.into());
        self
    }

    pub fn rpath_all<I, S>(mut self, it: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.obj.rpath.extend(it.into_iter().map(Into::into));
        self
    }

    pub fn runpath(mut self, p: impl Into<String>) -> Self {
        self.obj.runpath.push(p.into());
        self
    }

    pub fn runpath_all<I, S>(mut self, it: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.obj.runpath.extend(it.into_iter().map(Into::into));
        self
    }

    pub fn interp(mut self, p: impl Into<String>) -> Self {
        self.obj.interp = Some(p.into());
        self
    }

    pub fn defines(mut self, sym: Symbol) -> Self {
        self.obj.symbols.push(sym);
        self
    }

    pub fn imports(mut self, name: impl Into<String>) -> Self {
        self.obj.undefined.push(name.into());
        self
    }

    pub fn dlopens(mut self, name: impl Into<String>) -> Self {
        self.obj.dlopens.push(name.into());
        self
    }

    pub fn virtual_size(mut self, bytes: u64) -> Self {
        self.obj.virtual_size = bytes;
        self
    }

    /// Add a §III-C future-loader search entry.
    pub fn search_dir(
        mut self,
        dir: impl Into<String>,
        position: SearchPosition,
        inherit: bool,
    ) -> Self {
        self.obj.search_dirs.push(SearchDir { dir: dir.into(), position, inherit });
        self
    }

    /// Pin a dependency to an exact path (§III-C per-object resolution).
    pub fn pin(mut self, soname: impl Into<String>, path: impl Into<String>) -> Self {
        self.obj.pins.push(DepPin { soname: soname.into(), path: path.into() });
        self
    }

    pub fn build(self) -> ElfObject {
        self.obj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults() {
        let exe = ElfObject::exe("app").build();
        assert_eq!(exe.kind, ObjectKind::Executable);
        assert!(exe.interp.is_some());
        assert!(exe.soname.is_none());
        assert_eq!(exe.effective_soname(), "app");

        let dso = ElfObject::dso("libfoo.so.1").build();
        assert_eq!(dso.kind, ObjectKind::SharedObject);
        assert_eq!(dso.soname.as_deref(), Some("libfoo.so.1"));
        assert!(dso.interp.is_none());
    }

    #[test]
    fn runpath_shadows_rpath_locally() {
        let o = ElfObject::dso("l").rpath("/a").runpath("/b").build();
        assert_eq!(o.own_search_paths(), &["/b".to_string()]);
        let o2 = ElfObject::dso("l").rpath("/a").build();
        assert_eq!(o2.own_search_paths(), &["/a".to_string()]);
    }

    #[test]
    fn absolute_needed_detection() {
        let o = ElfObject::exe("a").needs("libx.so").build();
        assert!(!o.has_absolute_needed());
        let o2 = ElfObject::exe("a").needs("/usr/lib/libx.so").build();
        assert!(o2.has_absolute_needed());
    }

    #[test]
    fn needs_all_preserves_order() {
        let o = ElfObject::exe("a").needs_all(["l1", "l2", "l3"]).build();
        assert_eq!(o.needed, vec!["l1", "l2", "l3"]);
    }
}
