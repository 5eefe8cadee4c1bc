//! Probing shared by every resolver: the loader backends, libtree's
//! [`crate::analyze_tree`] and Shrinkwrap's native strategy.
//!
//! A search-path probe is one name looked up in one directory, so the
//! directory is resolved once per load, not once per probe — as glibc's
//! `elf/dl-load.c` decomposes a link map's search path into
//! `r_search_path` once. A [`Prober`] is one load's probing context. It
//! resolves each distinct search directory the first time any object
//! names it ([`depchaos_vfs::Vfs::dir`]), sharing the handle between
//! objects by the directory's text (an entry with a `$` token by its
//! expansion, made once per object), together with the handles of its
//! hwcaps subdirectories. [`Prober::probe`] then looks a [`Name`] up in
//! those handles, hwcaps subdirectories first, through the accounted
//! [`depchaos_vfs::Vfs::probe`] — or, for the native strategy, the
//! unaccounted [`depchaos_vfs::Vfs::peek_in`]. A miss builds no string;
//! the candidate's path is joined only for a hit. [`Prober::exact`] opens
//! one exact path (a direct request, an ld.so.cache hit, a service
//! answer).

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use depchaos_elf::{io, ElfObject, Machine};
use depchaos_vfs::{path as vpath, DirHandle, Name, Vfs};

use crate::env::Environment;
/// Where a resolved library came from — the `[runpath]` / `[default path]`
/// annotations in `libtree` output (Listing 1), plus the cases the dynamic
/// loader distinguishes internally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Provenance {
    /// The root executable itself.
    Executable,
    /// Loaded because of `LD_PRELOAD`.
    Preload,
    /// The needed entry contained `/` and was opened directly (a
    /// shrinkwrapped or hand-pinned dependency).
    DirectPath,
    /// Found via a `DT_RPATH` entry; `owner` names the object whose RPATH
    /// supplied the directory (it propagates down the loader chain).
    Rpath { owner: String },
    /// Found via `LD_LIBRARY_PATH`.
    LdLibraryPath,
    /// Found via the requesting object's own `DT_RUNPATH`.
    Runpath { owner: String },
    /// Found in the ld.so cache (ld.so.conf directories).
    LdSoCache,
    /// Found in a built-in trusted directory.
    DefaultPath,
}

impl Provenance {
    /// The bracketed tag libtree prints.
    pub fn tag(&self) -> &'static str {
        match self {
            Provenance::Executable => "executable",
            Provenance::Preload => "preload",
            Provenance::DirectPath => "absolute",
            Provenance::Rpath { .. } => "rpath",
            Provenance::LdLibraryPath => "ld_library_path",
            Provenance::Runpath { .. } => "runpath",
            Provenance::LdSoCache => "ld.so.cache",
            Provenance::DefaultPath => "default path",
        }
    }
}

/// Outcome of resolving one needed entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Resolution {
    /// Freshly loaded from `path`.
    Loaded { path: String, provenance: Provenance },
    /// Satisfied from the loader's dedup cache without touching the
    /// filesystem — the mechanism Listing 1 demonstrates and Shrinkwrap
    /// exploits.
    Deduped { path: String },
    /// Nowhere to be found; a real loader would abort here.
    NotFound,
}

impl Resolution {
    pub fn path(&self) -> Option<&str> {
        match self {
            Resolution::Loaded { path, .. } | Resolution::Deduped { path } => Some(path),
            Resolution::NotFound => None,
        }
    }
}

/// A successfully probed candidate.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Path as probed (before symlink canonicalisation).
    pub path: String,
    pub object: ElfObject,
}

/// The accounted read after a successful open. Candidates whose machine
/// differs from `want_arch` are **silently skipped** per the System V ABI
/// ("libraries that do not match the architecture of the loading binary
/// should be silently ignored").
fn mapped(fs: &Vfs, path: String, want_arch: Machine) -> Option<Candidate> {
    let bytes = fs.read_file(&path).ok()?;
    let object = ElfObject::parse(&bytes).ok()?;
    if object.machine != want_arch {
        // Wrong ABI: skipped without any diagnostic, exactly like ld.so.
        return None;
    }
    if object.virtual_size > 0 {
        // Mapping the object faults in its declared size, not the size of
        // our compact serialisation.
        fs.charge_read(&path, object.virtual_size);
    }
    Some(Candidate { path, object })
}

/// Expand `$ORIGIN` (and the other dynamic-string tokens) in a search-path
/// entry against the directory containing the object that owns the entry.
pub fn expand_entry(entry: &str, owner_path: &str) -> String {
    vpath::expand_origin(entry, &vpath::parent(owner_path))
}

/// Which of an object's search-path lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entries {
    /// `DT_RPATH`.
    Rpath,
    /// `DT_RUNPATH`.
    Runpath,
    /// The future loader's per-object search directories, in order.
    SearchDirs,
}

/// One search directory as a load resolved it: a token for
/// [`Prober::probe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchDir(usize);

/// A search path — an object's entries or an environment list — resolved
/// by one load's [`Prober`], in order.
#[derive(Debug, Clone)]
pub struct SearchPath(Rc<[SearchDir]>);

impl SearchPath {
    pub fn iter(&self) -> impl Iterator<Item = SearchDir> + '_ {
        self.0.iter().copied()
    }
}

/// A directory's handle and its hwcaps subdirectories' handles, in
/// priority order.
struct Resolved {
    hwcaps: Vec<DirHandle>,
    plain: DirHandle,
}

/// What one load has resolved so far.
#[derive(Default)]
struct Dirs {
    resolved: Vec<Resolved>,
    /// `resolved` index by directory text.
    by_text: HashMap<String, usize>,
    /// Each object's lists, by the object's path and [`Entries`].
    objects: HashMap<String, [Option<SearchPath>; 3]>,
    ld_library_path: Option<SearchPath>,
    defaults: Option<SearchPath>,
}

/// One load's probing context: how candidates are opened (accounted, or
/// peeked for the native strategy) and every search directory resolved so
/// far. Each distinct directory text is resolved at most once per load.
pub struct Prober<'a> {
    fs: &'a Vfs,
    env: &'a Environment,
    want_arch: Machine,
    accounted: bool,
    /// hwcaps subdirectories probed first inside every directory.
    hwcaps: &'a [String],
    dirs: RefCell<Dirs>,
}

impl<'a> Prober<'a> {
    /// The loaders' and libtree's prober: every probe is an accounted
    /// `openat`, a hit is followed by an accounted read of the ELF header,
    /// and `env`'s hwcaps subdirectories are probed first.
    pub fn accounted(fs: &'a Vfs, env: &'a Environment, want_arch: Machine) -> Self {
        Prober {
            fs,
            env,
            want_arch,
            accounted: true,
            hwcaps: &env.hwcaps,
            dirs: RefCell::default(),
        }
    }

    /// Shrinkwrap's native prober: the same order, unaccounted peeks.
    pub fn peeking(fs: &'a Vfs, env: &'a Environment, want_arch: Machine) -> Self {
        Prober { accounted: false, ..Prober::accounted(fs, env, want_arch) }
    }

    /// Probe no hwcaps subdirectories (musl has none).
    pub fn without_hwcaps(self) -> Self {
        Prober { hwcaps: &[], ..self }
    }

    /// The architecture candidates must match.
    pub fn want_arch(&self) -> Machine {
        self.want_arch
    }

    /// Open one exact path (a `/`-containing request, an ld.so.cache hit,
    /// a service answer). `None` on ENOENT, unparseable content, or an
    /// architecture mismatch.
    pub fn exact(&self, path: &str) -> Option<Candidate> {
        if self.accounted {
            self.fs.try_open(path)?;
            mapped(self.fs, path.to_string(), self.want_arch)
        } else {
            self.peek(path.to_string())
        }
    }

    /// Probe `name` in `dir`: its hwcaps subdirectories in priority order,
    /// then the directory itself, returning the first candidate that
    /// exists, parses and matches the architecture.
    pub fn probe(&self, dir: SearchDir, name: Name) -> Option<Candidate> {
        let dirs = self.dirs.borrow();
        let d = &dirs.resolved[dir.0];
        d.hwcaps.iter().chain(std::iter::once(&d.plain)).find_map(|h| self.open_in(h, name))
    }

    /// [`Prober::probe`] over `path`, in order: the first candidate.
    pub fn first(&self, path: &SearchPath, name: Name) -> Option<Candidate> {
        path.iter().find_map(|dir| self.probe(dir, name))
    }

    /// `obj`'s `entries`, expanded against `obj_path` and resolved once per
    /// load (keyed by the object's path).
    pub fn object(&self, obj: &ElfObject, obj_path: &str, entries: Entries) -> SearchPath {
        let slot = entries as usize;
        let mut dirs = self.dirs.borrow_mut();
        if let Some(path) = dirs.objects.get(obj_path).and_then(|lists| lists[slot].clone()) {
            return path;
        }
        let texts: Vec<&str> = match entries {
            Entries::Rpath => obj.rpath.iter().map(String::as_str).collect(),
            Entries::Runpath => obj.runpath.iter().map(String::as_str).collect(),
            Entries::SearchDirs => obj.search_dirs.iter().map(|sd| sd.dir.as_str()).collect(),
        };
        let path = SearchPath(
            texts
                .into_iter()
                .map(|entry| {
                    if entry.contains('$') {
                        self.resolve(&mut dirs, &expand_entry(entry, obj_path))
                    } else {
                        self.resolve(&mut dirs, entry)
                    }
                })
                .collect(),
        );
        dirs.objects.entry(obj_path.to_string()).or_default()[slot] = Some(path.clone());
        path
    }

    /// `LD_LIBRARY_PATH`, resolved once per load.
    pub fn ld_library_path(&self) -> SearchPath {
        self.env_list(|d| &mut d.ld_library_path, &self.env.ld_library_path)
    }

    /// The default directories, resolved once per load.
    pub fn defaults(&self) -> SearchPath {
        self.env_list(|d| &mut d.defaults, &self.env.default_paths)
    }

    fn env_list(
        &self,
        slot: impl Fn(&mut Dirs) -> &mut Option<SearchPath>,
        texts: &[String],
    ) -> SearchPath {
        let mut dirs = self.dirs.borrow_mut();
        if let Some(path) = slot(&mut dirs) {
            return path.clone();
        }
        let path = SearchPath(texts.iter().map(|t| self.resolve(&mut dirs, t)).collect());
        *slot(&mut dirs) = Some(path.clone());
        path
    }

    /// The directory `text`, resolved on its first use in this load.
    fn resolve(&self, dirs: &mut Dirs, text: &str) -> SearchDir {
        if let Some(&i) = dirs.by_text.get(text) {
            return SearchDir(i);
        }
        let i = dirs.resolved.len();
        dirs.resolved.push(Resolved {
            hwcaps: self.hwcaps.iter().map(|sub| self.fs.dir(&vpath::join(text, sub))).collect(),
            plain: self.fs.dir(text),
        });
        dirs.by_text.insert(text.to_string(), i);
        SearchDir(i)
    }

    /// One probe; the candidate's path is built only for a hit.
    fn open_in(&self, dir: &DirHandle, name: Name) -> Option<Candidate> {
        if self.accounted {
            self.fs.probe(dir, name)?;
            mapped(self.fs, dir.join(name.as_str()), self.want_arch)
        } else {
            self.fs.peek_in(dir, name.as_str())?;
            self.peek(dir.join(name.as_str()))
        }
    }

    /// The native strategy's open: parse without accounting, skip a wrong
    /// architecture like the loader.
    fn peek(&self, path: String) -> Option<Candidate> {
        let object = io::peek_object(self.fs, &path).ok()?;
        (object.machine == self.want_arch).then_some(Candidate { path, object })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use depchaos_elf::io::install;

    fn world() -> Vfs {
        let fs = Vfs::local();
        install(&fs, "/usr/lib/liba.so", &ElfObject::dso("liba.so").build()).unwrap();
        install(
            &fs,
            "/usr/lib/lib32.so",
            &ElfObject::dso("lib32.so").machine(Machine::X86).build(),
        )
        .unwrap();
        install(
            &fs,
            "/usr/lib/glibc-hwcaps/x86-64-v3/libfast.so",
            &ElfObject::dso("libfast.so").build(),
        )
        .unwrap();
        install(&fs, "/usr/lib/libfast.so", &ElfObject::dso("libfast.so").build()).unwrap();
        fs
    }

    /// Probe `name` in `/usr/lib` (as the one `LD_LIBRARY_PATH` entry).
    fn probe_usr_lib(fs: &Vfs, name: &str, arch: Machine, hwcaps: &[&str]) -> Option<Candidate> {
        let env = Environment::bare().with_ld_library_path("/usr/lib").with_hwcaps(hwcaps.to_vec());
        let prober = Prober::accounted(fs, &env, arch);
        prober.first(&prober.ld_library_path(), Name::new(name))
    }

    #[test]
    fn plain_probe_finds() {
        let fs = world();
        let c = probe_usr_lib(&fs, "liba.so", Machine::X86_64, &[]).unwrap();
        assert_eq!(c.path, "/usr/lib/liba.so");
    }

    #[test]
    fn missing_costs_one_openat() {
        let fs = world();
        let before = fs.snapshot();
        assert!(probe_usr_lib(&fs, "libnope.so", Machine::X86_64, &[]).is_none());
        let d = fs.snapshot().since(&before);
        assert_eq!(d.openat, 1);
        assert_eq!(d.misses, 1);
    }

    #[test]
    fn wrong_arch_silently_skipped() {
        let fs = world();
        assert!(probe_usr_lib(&fs, "lib32.so", Machine::X86_64, &[]).is_none());
        // but visible to a 32-bit requester
        assert!(probe_usr_lib(&fs, "lib32.so", Machine::X86, &[]).is_some());
    }

    #[test]
    fn hwcaps_take_priority() {
        let fs = world();
        let caps = ["glibc-hwcaps/x86-64-v3"];
        let c = probe_usr_lib(&fs, "libfast.so", Machine::X86_64, &caps).unwrap();
        assert_eq!(c.path, "/usr/lib/glibc-hwcaps/x86-64-v3/libfast.so");
        // without hwcaps, the plain file wins
        let c2 = probe_usr_lib(&fs, "libfast.so", Machine::X86_64, &[]).unwrap();
        assert_eq!(c2.path, "/usr/lib/libfast.so");
    }

    #[test]
    fn garbage_file_skipped() {
        let fs = world();
        fs.write_file_p("/usr/lib/libjunk.so", b"ASCII text".to_vec()).unwrap();
        assert!(probe_usr_lib(&fs, "libjunk.so", Machine::X86_64, &[]).is_none());
    }

    #[test]
    fn peeking_prober_finds_the_same_and_charges_nothing() {
        let fs = world();
        let env = Environment::bare()
            .with_ld_library_path("/usr/lib")
            .with_hwcaps(["glibc-hwcaps/x86-64-v3"]);
        let prober = Prober::peeking(&fs, &env, Machine::X86_64);
        let llp = prober.ld_library_path();
        let c = prober.first(&llp, Name::new("libfast.so")).unwrap();
        assert_eq!(c.path, "/usr/lib/glibc-hwcaps/x86-64-v3/libfast.so");
        assert!(prober.first(&llp, Name::new("lib32.so")).is_none());
        assert!(prober.first(&llp, Name::new("libnope.so")).is_none());
        assert!(prober.exact("/usr/lib/liba.so").is_some());
        assert_eq!(fs.snapshot().total(), 0);
    }

    #[test]
    fn a_directory_is_resolved_once_per_load_and_shared_by_text() {
        let fs = world();
        let env = Environment::default();
        let prober = Prober::accounted(&fs, &env, Machine::X86_64);
        let a = ElfObject::dso("a").runpath("/usr/lib").runpath("$ORIGIN").build();
        let b = ElfObject::dso("b").runpath("$ORIGIN").runpath("/opt").runpath("/usr/lib").build();
        let pa = prober.object(&a, "/usr/lib/liba.so", Entries::Runpath);
        let pb = prober.object(&b, "/usr/lib/libb.so", Entries::Runpath);
        let again = prober.object(&a, "/usr/lib/liba.so", Entries::Runpath);
        assert_eq!(pa.iter().collect::<Vec<_>>(), again.iter().collect::<Vec<_>>());
        // `$ORIGIN` of both expands to /usr/lib, the text a names literally.
        assert_eq!(pa.iter().collect::<Vec<_>>(), vec![SearchDir(0), SearchDir(0)]);
        assert_eq!(pb.iter().collect::<Vec<_>>(), vec![SearchDir(0), SearchDir(1), SearchDir(0)]);
        prober.defaults();
        // /usr/lib, /opt, then the defaults other than /usr/lib.
        assert_eq!(prober.dirs.borrow().resolved.len(), 5);
    }

    #[test]
    fn origin_expansion_against_owner() {
        assert_eq!(expand_entry("$ORIGIN/../lib", "/opt/app/bin/tool"), "/opt/app/lib");
    }
}
