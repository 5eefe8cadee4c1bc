//! The store model (§II-D): Nix / Guix / Spack-style per-package prefixes.
//!
//! Each package installs into `/store/<hash>-<name>-<version>/{bin,lib}`,
//! where the hash is **pessimistic**: it covers the recipe (name, version,
//! build options) *and the hashes of the entire transitive dependency
//! closure*. Any change anywhere below a package gives it a new prefix —
//! the "domino effect of rebuilds" — while old prefixes stay valid, which is
//! what buys atomic upgrade and rollback.
//!
//! Binaries and libraries find dependencies through `RPATH` or `RUNPATH`
//! entries pointing at exact store paths ([`PathStyle`]); the choice is the
//! difference between Spack's default and what the ROCm case study (§V-B.1)
//! trips over.

use std::collections::{HashMap, HashSet};

use depchaos_elf::{io, ElfObject};
use depchaos_vfs::{path as vpath, Vfs, VfsError};

use crate::package::{PackageDef, Repo};

/// Whether installed objects carry `DT_RPATH` or `DT_RUNPATH`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathStyle {
    Rpath,
    Runpath,
}

/// A package materialised in the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstalledPackage {
    pub name: String,
    pub hash: String,
    /// `/store/<hash>-<name>-<version>`
    pub prefix: String,
    pub lib_dir: String,
    pub bin_dir: String,
    /// Direct dependency prefixes, in recipe order.
    pub dep_lib_dirs: Vec<String>,
}

/// Installs recipes into a content-addressed store.
#[derive(Debug)]
pub struct StoreInstaller {
    root: String,
    style: PathStyle,
    /// Whether search paths include the *transitive* closure's lib dirs
    /// (Spack-style, producing the long lists §IV complains about) or only
    /// direct deps (sufficient when every object carries its own paths).
    transitive_paths: bool,
    installed: HashMap<String, InstalledPackage>,
    /// The name of the installed package owning each lib dir, kept in step
    /// with `installed`.
    by_lib_dir: HashMap<String, String>,
    /// Every generation ever materialised (old ones survive upgrades until
    /// garbage collection) — the GC's reachability universe.
    history: Vec<InstalledPackage>,
}

impl StoreInstaller {
    pub fn new(root: impl Into<String>, style: PathStyle) -> Self {
        StoreInstaller {
            root: root.into(),
            style,
            transitive_paths: true,
            installed: HashMap::new(),
            by_lib_dir: HashMap::new(),
            history: Vec::new(),
        }
    }

    /// Spack-like defaults: `/store`, RUNPATH, transitive path lists.
    pub fn spack_like() -> Self {
        Self::new("/store", PathStyle::Runpath)
    }

    /// Nix-like: RPATH, direct deps only (every object self-describes).
    pub fn nix_like() -> Self {
        let mut s = Self::new("/store", PathStyle::Rpath);
        s.transitive_paths = false;
        s
    }

    pub fn style(&self) -> PathStyle {
        self.style
    }

    /// Look up an already-installed package.
    pub fn get(&self, name: &str) -> Option<&InstalledPackage> {
        self.installed.get(name)
    }

    /// The pessimistic hash: FNV-1a over the recipe identity plus the
    /// hashes of all direct deps (which transitively covers the closure).
    fn hash_of(&self, pkg: &PackageDef, dep_hashes: &[&str]) -> String {
        let mut h: u64 = 0xcbf29ce484222325;
        let mut eat = |s: &str| {
            for b in s.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
            h ^= 0xff;
            h = h.wrapping_mul(0x100000001b3);
        };
        eat(&pkg.name);
        eat(&pkg.version);
        eat(&pkg.build_options);
        for lib in &pkg.libs {
            eat(&lib.soname);
            for n in &lib.needed {
                eat(n);
            }
        }
        for bin in &pkg.bins {
            eat(&bin.name);
            for n in &bin.needed {
                eat(n);
            }
        }
        for d in dep_hashes {
            eat(d);
        }
        format!("{h:016x}")
    }

    /// Install `name` (and, recursively, its closure) from `repo`.
    /// Idempotent: an unchanged package reuses its existing prefix.
    ///
    /// Dependencies install first, depth-first, like a real build, and each
    /// package of the closure is resolved at most once per call: a call
    /// sees one snapshot of `repo`, so a package's hash, and so its prefix,
    /// cannot change between two visits of the same call. A changed recipe
    /// anywhere below still moves every package above it to a new prefix
    /// (the domino effect), because a hash covers its dependencies' hashes.
    pub fn install(
        &mut self,
        fs: &Vfs,
        repo: &Repo,
        name: &str,
    ) -> Result<InstalledPackage, StoreError> {
        self.install_once(fs, repo, name, &mut HashMap::new())
    }

    /// [`StoreInstaller::install`] of one package, answered from `done`
    /// when this call has resolved it already.
    fn install_once(
        &mut self,
        fs: &Vfs,
        repo: &Repo,
        name: &str,
        done: &mut HashMap<String, InstalledPackage>,
    ) -> Result<InstalledPackage, StoreError> {
        if let Some(rec) = done.get(name) {
            return Ok(rec.clone());
        }
        #[cfg(test)]
        INSTALL_BODIES.with(|n| n.set(n.get() + 1));
        let pkg =
            repo.get(name).ok_or_else(|| StoreError::UnknownPackage(name.to_string()))?.clone();
        // Depth-first: deps first, like a real build.
        let mut dep_installed = Vec::with_capacity(pkg.deps.len());
        for d in &pkg.deps {
            dep_installed.push(self.install_once(fs, repo, d, done)?);
        }
        let dep_hashes: Vec<&str> = dep_installed.iter().map(|d| d.hash.as_str()).collect();
        let hash = self.hash_of(&pkg, &dep_hashes);
        if let Some(existing) = self.installed.get(name) {
            if existing.hash == hash {
                done.insert(name.to_string(), existing.clone());
                return Ok(existing.clone());
            }
        }
        let prefix = format!("{}/{}-{}-{}", self.root, &hash[..12], pkg.name, pkg.version);
        let lib_dir = format!("{prefix}/lib");
        let bin_dir = format!("{prefix}/bin");
        fs.mkdir_p(&lib_dir)?;
        fs.mkdir_p(&bin_dir)?;

        // The search-path list every object in this package carries: its
        // own lib dir, then its dependencies' (transitively, depth-first
        // from the last direct dependency, each once).
        let mut search: Vec<String> = vec![lib_dir.clone()];
        if self.transitive_paths {
            let mut stack: Vec<&InstalledPackage> = dep_installed.iter().collect();
            let mut seen: Vec<&str> = Vec::new();
            let mut seen_set: HashSet<&str> = HashSet::new();
            while let Some(d) = stack.pop() {
                if seen_set.insert(&d.lib_dir) {
                    seen.push(&d.lib_dir);
                    for dd in &d.dep_lib_dirs {
                        if let Some(p) = self.by_lib_dir.get(dd).and_then(|n| self.installed.get(n))
                        {
                            stack.push(p);
                        }
                    }
                }
            }
            search.extend(seen.into_iter().map(String::from));
        } else {
            search.extend(dep_installed.iter().map(|d| d.lib_dir.clone()));
        }
        for lib in &pkg.libs {
            let mut b = ElfObject::dso(&lib.soname);
            for n in &lib.needed {
                b = b.needs(n);
            }
            for s in &lib.symbols {
                b = b.defines(s.clone());
            }
            for d in &lib.dlopens {
                b = b.dlopens(d);
            }
            b = match self.style {
                PathStyle::Rpath => b.rpath_all(search.clone()),
                PathStyle::Runpath => b.runpath_all(search.clone()),
            };
            io::install(fs, &vpath::join(&lib_dir, &lib.soname), &b.build())?;
        }
        for bin in &pkg.bins {
            let mut b = ElfObject::exe(&bin.name);
            for n in &bin.needed {
                b = b.needs(n);
            }
            for d in &bin.dlopens {
                b = b.dlopens(d);
            }
            b = match self.style {
                PathStyle::Rpath => b.rpath_all(search.clone()),
                PathStyle::Runpath => b.runpath_all(search.clone()),
            };
            io::install(fs, &vpath::join(&bin_dir, &bin.name), &b.build())?;
        }

        let rec = InstalledPackage {
            name: pkg.name.clone(),
            hash,
            prefix,
            lib_dir,
            bin_dir,
            dep_lib_dirs: dep_installed.iter().map(|d| d.lib_dir.clone()).collect(),
        };
        if let Some(old) = self.installed.insert(pkg.name.clone(), rec.clone()) {
            self.by_lib_dir.remove(&old.lib_dir);
        }
        self.by_lib_dir.insert(rec.lib_dir.clone(), rec.name.clone());
        self.history.push(rec.clone());
        done.insert(name.to_string(), rec.clone());
        Ok(rec)
    }

    /// Every package generation ever installed (the GC universe).
    pub fn history(&self) -> &[InstalledPackage] {
        &self.history
    }

    /// The store root directory.
    pub fn root(&self) -> &str {
        &self.root
    }

    /// Prefixes currently in the store (old generations survive upgrades).
    pub fn prefixes(&self, fs: &Vfs) -> Vec<String> {
        fs.list_dir(&self.root).unwrap_or_default()
    }
}

#[cfg(test)]
thread_local! {
    /// How many package bodies [`StoreInstaller::install`] ran on this
    /// thread (tests count them).
    static INSTALL_BODIES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Store-installer errors.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    UnknownPackage(String),
    Fs(VfsError),
}

impl From<VfsError> for StoreError {
    fn from(e: VfsError) -> Self {
        StoreError::Fs(e)
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::UnknownPackage(n) => write!(f, "unknown package: {n}"),
            StoreError::Fs(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StoreError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::package::{BinDef, LibDef};
    use depchaos_loader::{Environment, GlibcLoader, Provenance};

    fn repo() -> Repo {
        let mut r = Repo::new();
        r.add(PackageDef::new("zlib", "1.2").lib(LibDef::new("libz.so.1")));
        r.add(
            PackageDef::new("ssl", "1.1")
                .dep("zlib")
                .lib(LibDef::new("libssl.so").needs("libz.so.1")),
        );
        r.add(PackageDef::new("app", "1.0").dep("ssl").bin(BinDef::new("app").needs("libssl.so")));
        r
    }

    #[test]
    fn installed_app_resolves_entirely_from_store() {
        let fs = Vfs::local();
        let mut st = StoreInstaller::spack_like();
        let app = st.install(&fs, &repo(), "app").unwrap();
        // Hermetic: no default paths, no env.
        let r = GlibcLoader::new(&fs)
            .with_env(Environment::bare())
            .load(&format!("{}/app", app.bin_dir))
            .unwrap();
        assert!(r.success(), "{:?}", r.failures);
        assert!(r.objects[1].path.starts_with("/store/"));
        assert!(matches!(r.objects[1].provenance, Provenance::Runpath { .. }));
    }

    #[test]
    fn hash_is_pessimistic_domino() {
        let fs = Vfs::local();
        let mut st = StoreInstaller::spack_like();
        let r1 = repo();
        let app1 = st.install(&fs, &r1, "app").unwrap();
        let ssl1 = st.get("ssl").unwrap().clone();

        // Patch the *leaf* package only.
        let mut r2 = repo();
        r2.get_mut("zlib").unwrap().build_options = "-O3 CVE-fix".to_string();
        let app2 = st.install(&fs, &r2, "app").unwrap();
        let ssl2 = st.get("ssl").unwrap().clone();

        assert_ne!(app1.hash, app2.hash, "leaf change dominoes to the root");
        assert_ne!(ssl1.hash, ssl2.hash);
        assert_ne!(app1.prefix, app2.prefix);
        // Old generation still on disk: atomic rollback is possible.
        assert!(fs.exists(&app1.prefix));
        assert!(fs.exists(&app2.prefix));
    }

    #[test]
    fn unchanged_recipe_reuses_prefix() {
        let fs = Vfs::local();
        let mut st = StoreInstaller::spack_like();
        let a = st.install(&fs, &repo(), "app").unwrap();
        let b = st.install(&fs, &repo(), "app").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn transitive_paths_grow_with_depth() {
        // Spack-style: the app's runpath includes the whole closure;
        // nix-like: only direct deps.
        let fs = Vfs::local();
        let mut spack = StoreInstaller::spack_like();
        let app = spack.install(&fs, &repo(), "app").unwrap();
        let obj = depchaos_elf::io::peek_object(&fs, &format!("{}/app", app.bin_dir)).unwrap();
        assert_eq!(obj.runpath.len(), 3, "own + ssl + zlib");

        let fs2 = Vfs::local();
        let mut nix = StoreInstaller::nix_like();
        let app2 = nix.install(&fs2, &repo(), "app").unwrap();
        let obj2 = depchaos_elf::io::peek_object(&fs2, &format!("{}/app", app2.bin_dir)).unwrap();
        assert_eq!(obj2.rpath.len(), 2, "own + ssl only");
    }

    #[test]
    fn nix_like_still_loads_hermetically() {
        let fs = Vfs::local();
        let mut nix = StoreInstaller::nix_like();
        let app = nix.install(&fs, &repo(), "app").unwrap();
        let r = GlibcLoader::new(&fs)
            .with_env(Environment::bare())
            .load(&format!("{}/app", app.bin_dir))
            .unwrap();
        assert!(r.success(), "each object carries paths for its own deps: {:?}", r.failures);
    }

    #[test]
    fn each_package_resolves_once_per_install_call() {
        // Six base packages under four mid packages that each need all six,
        // under one app: the recursion visits base packages 24 times, and
        // each of the 11 must resolve once per call.
        let mut r = Repo::new();
        let base: Vec<String> = (0..6).map(|i| format!("base{i}")).collect();
        for b in &base {
            r.add(PackageDef::new(b.clone(), "1").lib(LibDef::new(format!("lib{b}.so"))));
        }
        let mut app = PackageDef::new("app", "1");
        let mut app_bin = BinDef::new("app");
        for m in 0..4 {
            let name = format!("mid{m}");
            let mut pkg = PackageDef::new(name.clone(), "1");
            let mut lib = LibDef::new(format!("lib{name}.so"));
            for b in &base {
                pkg = pkg.dep(b.clone());
                lib = lib.needs(format!("lib{b}.so"));
            }
            r.add(pkg.lib(lib));
            app = app.dep(name.clone());
            app_bin = app_bin.needs(format!("lib{name}.so"));
        }
        r.add(app.bin(app_bin));
        let fs = Vfs::local();
        let mut st = StoreInstaller::spack_like();
        let bodies = |st: &mut StoreInstaller| {
            INSTALL_BODIES.with(|n| n.set(0));
            let rec = st.install(&fs, &r, "app").unwrap();
            (rec, INSTALL_BODIES.with(|n| n.get()))
        };
        let (first, n) = bodies(&mut st);
        assert_eq!(n, 11);
        let (again, n) = bodies(&mut st);
        assert_eq!((again, n), (first.clone(), 11));
        assert_eq!(st.history().len(), 11, "each package materialised once");
        // Own lib dir, the last mid package, its base packages depth-first
        // from the last, then the other mid packages.
        let obj = depchaos_elf::io::peek_object(&fs, &format!("{}/app", first.bin_dir)).unwrap();
        let short = |dir: &str| dir.split('-').nth(1).unwrap().to_string();
        let order: Vec<String> = obj.runpath.iter().map(|d| short(d)).collect();
        let mut want = vec!["app".to_string(), "mid3".into()];
        want.extend((0..6).rev().map(|i| format!("base{i}")));
        want.extend(["mid2", "mid1", "mid0"].map(String::from));
        assert_eq!(order, want);
    }

    #[test]
    fn unknown_package_errors() {
        let fs = Vfs::local();
        let mut st = StoreInstaller::spack_like();
        assert!(matches!(st.install(&fs, &repo(), "ghost"), Err(StoreError::UnknownPackage(_))));
    }
}
