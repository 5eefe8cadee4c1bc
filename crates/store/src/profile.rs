//! Profiles and garbage collection — the store model's atomicity payoff.
//!
//! §II-D: the store "allows arbitrary versions of the code to reside
//! congruently, providing the ability to perform upgrades or rollbacks
//! atomically by installing the whole new graph without invalidating the
//! old one." A [`Profile`] is the Nix-style moving pointer that makes the
//! switch atomic: one symlink repoint per upgrade or rollback. [`gc`]
//! reclaims prefixes no generation can reach.

use std::collections::HashSet;

use depchaos_vfs::{path as vpath, Vfs, VfsError};

use crate::store::{InstalledPackage, StoreInstaller};

/// A named sequence of generations with an atomically-switchable current
/// pointer (`<base>/current` symlink). Generations are numbered from 1 and
/// a number is never reused, so deleting old generations leaves the kept
/// ones' `generation-N` links and numbers as they were.
#[derive(Debug)]
pub struct Profile {
    base: String,
    /// The kept generations with their numbers, in increasing number.
    generations: Vec<(usize, InstalledPackage)>,
    /// The highest generation number ever used.
    latest: usize,
    /// The current generation's number (0 before the first `set`).
    current: usize,
}

impl Profile {
    /// Create a profile rooted at `base` (e.g. `/profiles/default`).
    pub fn create(fs: &Vfs, base: impl Into<String>) -> Result<Self, VfsError> {
        let base = base.into();
        fs.mkdir_p(&base)?;
        Ok(Profile { base, generations: Vec::new(), latest: 0, current: 0 })
    }

    /// Install `pkg` as the next generation and atomically repoint
    /// `current`. The previous generation's files are untouched.
    pub fn set(&mut self, fs: &Vfs, pkg: InstalledPackage) -> Result<usize, VfsError> {
        let gen_no = self.latest + 1;
        let link = format!("{}/generation-{gen_no}", self.base);
        fs.symlink(&link, &pkg.prefix)?;
        self.generations.push((gen_no, pkg));
        self.latest = gen_no;
        self.current = gen_no;
        self.repoint(fs)?;
        Ok(gen_no)
    }

    /// Roll back to the previous kept generation (no-op at the oldest).
    pub fn rollback(&mut self, fs: &Vfs) -> Result<usize, VfsError> {
        let prev = self.generations.iter().rev().find(|(n, _)| *n < self.current);
        self.switch(fs, prev.map(|(n, _)| *n))
    }

    /// Roll forward to the next kept generation (no-op at the newest).
    pub fn roll_forward(&mut self, fs: &Vfs) -> Result<usize, VfsError> {
        let next = self.generations.iter().find(|(n, _)| *n > self.current);
        self.switch(fs, next.map(|(n, _)| *n))
    }

    /// Make generation `to`, if any, current; returns the current number.
    fn switch(&mut self, fs: &Vfs, to: Option<usize>) -> Result<usize, VfsError> {
        if let Some(gen_no) = to {
            self.current = gen_no;
            self.repoint(fs)?;
        }
        Ok(self.current)
    }

    fn repoint(&self, fs: &Vfs) -> Result<(), VfsError> {
        // Atomic switch: create the new link under a temp name, then
        // rename-over — no window where `current` is missing.
        let current = format!("{}/current", self.base);
        let tmp = format!("{}/.current.tmp", self.base);
        let _ = fs.remove(&tmp);
        fs.symlink(&tmp, &format!("{}/generation-{}", self.base, self.current))?;
        fs.rename(&tmp, &current)
    }

    /// Path of the current generation's bin dir (through the symlink).
    pub fn current_bin(&self, name: &str) -> String {
        format!("{}/current/bin/{name}", self.base)
    }

    /// The live generation records (GC roots).
    pub fn roots(&self) -> impl Iterator<Item = &InstalledPackage> {
        self.generations.iter().map(|(_, pkg)| pkg)
    }

    /// Drop the generations numbered below `keep_from`, making their
    /// closures GC-eligible. The current generation is kept whatever its
    /// number, as `nix-env --delete-generations` keeps it.
    pub fn delete_generations_before(
        &mut self,
        fs: &Vfs,
        keep_from: usize,
    ) -> Result<(), VfsError> {
        let (base, current) = (&self.base, self.current);
        self.generations.retain(|(gen_no, _)| {
            let keep = *gen_no >= keep_from || *gen_no == current;
            if !keep {
                let _ = fs.remove(&format!("{base}/generation-{gen_no}"));
            }
            keep
        });
        Ok(())
    }
}

/// Delete every store prefix not reachable from the given roots through the
/// dependency records. Returns the removed prefixes, sorted.
pub fn gc<'a, I>(fs: &Vfs, store: &StoreInstaller, roots: I) -> Result<Vec<String>, VfsError>
where
    I: IntoIterator<Item = &'a InstalledPackage>,
{
    // Map lib_dir → history record for closure walking.
    let by_libdir: std::collections::HashMap<&str, &InstalledPackage> =
        store.history().iter().map(|p| (p.lib_dir.as_str(), p)).collect();

    let mut live: HashSet<String> = HashSet::new();
    let mut stack: Vec<&InstalledPackage> = roots.into_iter().collect();
    while let Some(p) = stack.pop() {
        if live.insert(p.prefix.clone()) {
            for d in &p.dep_lib_dirs {
                if let Some(dep) = by_libdir.get(d.as_str()) {
                    stack.push(dep);
                }
            }
        }
    }

    let mut removed = Vec::new();
    for entry in fs.list_dir(store.root())? {
        let prefix = vpath::join(store.root(), &entry);
        if !live.contains(&prefix) {
            fs.remove_all(&prefix)?;
            removed.push(prefix);
        }
    }
    removed.sort();
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::package::{BinDef, LibDef, PackageDef, Repo};
    use crate::store::StoreInstaller;
    use depchaos_loader::{Environment, GlibcLoader};

    fn repo(zlib_opts: &str) -> Repo {
        let mut r = Repo::new();
        r.add(
            PackageDef::new("zlib", "1.2").build_options(zlib_opts).lib(LibDef::new("libz.so.1")),
        );
        r.add(PackageDef::new("app", "1.0").dep("zlib").bin(BinDef::new("app").needs("libz.so.1")));
        r
    }

    #[test]
    fn upgrade_and_rollback_are_atomic_symlink_flips() {
        let fs = Vfs::local();
        let mut store = StoreInstaller::spack_like();
        let mut profile = Profile::create(&fs, "/profiles/default").unwrap();

        let gen1 = store.install(&fs, &repo(""), "app").unwrap();
        profile.set(&fs, gen1.clone()).unwrap();
        let bin = profile.current_bin("app");
        assert!(GlibcLoader::new(&fs).with_env(Environment::bare()).load(&bin).unwrap().success());

        // Upgrade: new zlib → new hashes → new prefixes; old ones intact.
        let gen2 = store.install(&fs, &repo("-O3 CVE-2022-fix"), "app").unwrap();
        assert_ne!(gen1.prefix, gen2.prefix);
        profile.set(&fs, gen2.clone()).unwrap();
        assert_eq!(fs.canonicalize(&bin).unwrap(), format!("{}/app", gen2.bin_dir));

        // Rollback: one symlink flip, fully working old closure.
        profile.rollback(&fs).unwrap();
        assert_eq!(fs.canonicalize(&bin).unwrap(), format!("{}/app", gen1.bin_dir));
        assert!(GlibcLoader::new(&fs).with_env(Environment::bare()).load(&bin).unwrap().success());

        profile.roll_forward(&fs).unwrap();
        assert_eq!(fs.canonicalize(&bin).unwrap(), format!("{}/app", gen2.bin_dir));
    }

    #[test]
    fn deleting_old_generations_keeps_numbering_and_rollback_sound() {
        let fs = Vfs::local();
        let mut store = StoreInstaller::spack_like();
        let mut profile = Profile::create(&fs, "/profiles/default").unwrap();
        let gens: Vec<_> = (1..=4)
            .map(|i| store.install(&fs, &repo(&format!("rev{i}")), "app").unwrap())
            .collect();
        let bin = profile.current_bin("app");
        let assert_current = |profile: &Profile, gen_no: usize| {
            let at = &gens[gen_no - 1];
            assert_eq!(fs.canonicalize(&bin).unwrap(), format!("{}/app", at.bin_dir));
            let r = GlibcLoader::new(&fs).with_env(Environment::bare()).load(&bin).unwrap();
            assert!(r.success(), "generation {gen_no}: {:?}", r.failures.first());
            assert_eq!(profile.current, gen_no);
        };

        for (i, pkg) in gens[..3].iter().enumerate() {
            assert_eq!(profile.set(&fs, pkg.clone()).unwrap(), i + 1);
        }
        profile.delete_generations_before(&fs, 2).unwrap();
        assert!(!fs.exists("/profiles/default/generation-1"));
        assert_current(&profile, 3);
        // The next generation takes the next unused number, not `len + 1`.
        assert_eq!(profile.set(&fs, gens[3].clone()).unwrap(), 4);
        assert_current(&profile, 4);
        // Rollback walks the kept generations only; at the oldest it stays.
        for expect in [3, 2, 2] {
            assert_eq!(profile.rollback(&fs).unwrap(), expect);
            assert_current(&profile, expect);
        }
        assert_eq!(profile.roll_forward(&fs).unwrap(), 3);
        assert_current(&profile, 3);

        // Deleting past the current generation keeps it.
        profile.delete_generations_before(&fs, 10).unwrap();
        assert_eq!(profile.roots().count(), 1);
        assert_eq!(profile.rollback(&fs).unwrap(), 3);
        assert_eq!(profile.roll_forward(&fs).unwrap(), 3);
        assert_current(&profile, 3);
    }

    #[test]
    fn gc_keeps_live_closures_only() {
        let fs = Vfs::local();
        let mut store = StoreInstaller::spack_like();
        let mut profile = Profile::create(&fs, "/profiles/default").unwrap();

        let gen1 = store.install(&fs, &repo(""), "app").unwrap();
        profile.set(&fs, gen1.clone()).unwrap();
        let gen2 = store.install(&fs, &repo("patched"), "app").unwrap();
        profile.set(&fs, gen2.clone()).unwrap();

        // Both generations live: nothing to collect.
        let removed = gc(&fs, &store, profile.roots()).unwrap();
        assert!(removed.is_empty(), "{removed:?}");

        // Drop generation 1; its app AND its zlib become garbage.
        profile.delete_generations_before(&fs, 2).unwrap();
        let removed = gc(&fs, &store, profile.roots()).unwrap();
        assert_eq!(removed.len(), 2);
        assert!(removed.iter().any(|p| p == &gen1.prefix));
        assert!(!fs.exists(&gen1.prefix));
        // Current generation still loads.
        let bin = profile.current_bin("app");
        assert!(GlibcLoader::new(&fs).with_env(Environment::bare()).load(&bin).unwrap().success());
    }

    #[test]
    fn gc_preserves_shared_dependencies() {
        // Two apps sharing one zlib: collecting one app must keep zlib.
        let fs = Vfs::local();
        let mut store = StoreInstaller::spack_like();
        let mut r = repo("");
        r.add(
            PackageDef::new("other", "1.0")
                .dep("zlib")
                .bin(BinDef::new("other").needs("libz.so.1")),
        );
        let app = store.install(&fs, &r, "app").unwrap();
        let other = store.install(&fs, &r, "other").unwrap();
        let zlib_prefix = store.get("zlib").unwrap().prefix.clone();

        // Only `other` remains a root.
        let removed = gc(&fs, &store, [&other]).unwrap();
        assert_eq!(removed, vec![app.prefix.clone()]);
        assert!(fs.exists(&zlib_prefix), "shared dep survives");
        let bin = format!("{}/other", other.bin_dir);
        assert!(GlibcLoader::new(&fs).with_env(Environment::bare()).load(&bin).unwrap().success());
    }
}
